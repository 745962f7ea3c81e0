"""In-memory span recorder for the traced benchmark run.

Each wrapper is installed on the attribute through which the caller looks the
function up: ``segment`` imports ``fill_holes_2d`` by name, so the wrapper goes
on ``miquant.segment.fill_holes_2d``; ``detect`` and ``segment`` call
``ll.net_train`` through the package, so the wrapper goes on
``miquant.learnlib.net_train``; layer methods are wrapped on their class.

A span is ``[id, name, start, end, parent]``. Names are ``<layer>.<stage>``,
where the layer is a ``miquant`` module (``bench`` for the benchmark's own
root spans). A span's self time is its duration minus the durations of its
direct children; a layer's self time is the sum over its spans.
"""
from __future__ import annotations

import functools
import json
import time
from collections import defaultdict
from contextlib import contextmanager

from miquant import baselines, detect, metrics, phantom, preprocess, segment, vio
from miquant import learnlib as ll
from miquant.learnlib import net as llnet

LAYERS = ("phantom", "vio", "preprocess", "volcore", "segment", "learnlib",
          "detect", "baselines", "metrics")

_F64 = 8  # bytes per element; learnlib computes in float64 throughout


class Tracer:
    def __init__(self, instrumented: bool = False):
        self.spans: list[list] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.instrumented = instrumented  # wrappers installed: spans open while active
        self.active = False
        self._stack: list[int] = []

    def _open(self, name: str) -> list:
        parent = self._stack[-1] if self._stack else None
        span = [len(self.spans), name, 0.0, 0.0, parent]
        self.spans.append(span)
        self._stack.append(span[0])
        span[2] = time.perf_counter()
        return span

    def _close(self, span: list) -> None:
        span[3] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def unit(self, name: str):
        """One timed unit of the benchmark, recorded as a root span: the
        wrappers record spans only inside a unit, and only when installed."""
        self.active = self.instrumented
        span = self._open(name) if self.active else None
        try:
            yield
        finally:
            if span is not None:
                self._close(span)
            self.active = False

    def wrap(self, fn, name: str, count=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            span = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(span)
            if count is not None:
                count(tracer.counts, args, kwargs, result)
            return result

        return traced

    def totals(self):
        """(inclusive, self, calls) per span name, summed over all spans."""
        inclusive = defaultdict(float)
        child = defaultdict(float)
        calls = defaultdict(int)
        for sid, name, start, end, parent in self.spans:
            inclusive[name] += end - start
            calls[name] += 1
            if parent is not None:
                child[parent] += end - start
        self_time = defaultdict(float)
        for sid, name, start, end, parent in self.spans:
            self_time[name] += (end - start) - child[sid]
        return inclusive, self_time, calls

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["id", "name", "start", "end", "parent"],
                       "spans": self.spans, "counts": dict(self.counts)}, fh)


# ---------------------------------------------------------------------------
# computed kernel counts (from array shapes, not measured)
# ---------------------------------------------------------------------------

def _conv_fwd(counts, args, kwargs, out):
    layer = args[0]
    kh, kw, cin, cout = layer.w.shape
    rows = out.shape[0] * out.shape[1] * out.shape[2]
    counts["conv_fwd_flop"] += 2.0 * rows * kh * kw * cin * cout
    counts["conv_fwd_bytes"] += _F64 * rows * kh * kw * cin  # im2col columns


def _conv_bwd(counts, args, kwargs, dx):
    layer, dout = args[0], args[1]
    kh, kw, cin, cout = layer.w.shape
    n, oh, ow, _ = dout.shape
    rows = n * oh * ow
    flop = 2.0 * rows * kh * kw * cin * cout  # dW = cols^T @ dout
    nbytes = _F64 * rows * kh * kw * cin      # cached im2col columns, re-read
    if dx is not None:
        in_rows = n * (oh + kh - 1) * (ow + kw - 1)
        flop += 2.0 * in_rows * kh * kw * cout * cin  # full correlation for dX
        nbytes += _F64 * in_rows * kh * kw * cout     # im2col of padded dout
    counts["conv_bwd_flop"] += flop
    counts["conv_bwd_bytes"] += nbytes


def _dense_fwd(counts, args, kwargs, out):
    layer = args[0]
    din, dout = layer.w.shape
    counts["dense_fwd_flop"] += 2.0 * out.shape[0] * din * dout


def _dense_bwd(counts, args, kwargs, dx):
    layer, dout = args[0], args[1]
    din, width = layer.w.shape
    counts["dense_bwd_flop"] += 2.0 * dout.shape[0] * din * width * (1 if dx is None else 2)


def _votes(counts, args, kwargs, result):
    counts["band_voxels"] += len(args[1])


def _patch_steps(counts, args, kwargs, result):
    cfg = args[3] if len(args) > 3 else kwargs["cfg"]
    counts["patch_steps"] += len(args[0]) * cfg.epochs


def _margin_epochs(counts, args, kwargs, model):
    counts["margin_epochs"] += len(model.objective_trace)


def _gmm(counts, args, kwargs, gmm):
    counts["gmm_em_iters"] += len(gmm.log_likelihood_trace)
    counts["gmm_unconverged"] += 0 if gmm.converged else 1


def _targets():
    """(owner, attribute, span name, counter) for every traced call site."""
    return [
        (phantom, "generate_case", "phantom.generate", None),
        (vio, "write_case", "vio.write_case", None),
        (vio, "read_manifest", "vio.load", None),
        (vio, "load_case", "vio.load", None),
        (vio, "write_report", "vio.report", None),
        (preprocess, "preprocess_case", "preprocess.case", None),
        (preprocess, "estimate_noise_sigma", "preprocess.nlm", None),
        (preprocess, "denoise_nlm", "preprocess.nlm", None),
        (preprocess, "reslice", "preprocess.reslice", None),
        (preprocess, "reslice_mask", "preprocess.reslice", None),
        (preprocess, "normalize_slice", "preprocess.normalize", None),
        (preprocess, "gamma_enhance", "preprocess.normalize", None),
        (segment, "fill_holes_2d", "volcore.fill_holes", None),
        (segment, "white_tophat", "volcore.gray_morph", None),
        (segment, "binary_erode", "volcore.binary_morph", None),
        (segment, "binary_dilate", "volcore.binary_morph", None),
        (segment, "binary_opening", "volcore.binary_morph", None),
        (segment, "otsu_threshold", "volcore.otsu", None),
        (baselines, "otsu_threshold", "volcore.otsu", None),
        (segment, "segment_case", "segment.case", None),
        (segment, "tophat_enhance", "segment.tophat", None),
        (segment, "coarse_segment", "segment.coarse", None),
        (segment, "refine", "segment.refine", None),
        (segment.PatchEnsemble, "vote", "segment.vote", _votes),
        (segment, "include_mvo", "segment.mvo", None),
        (segment, "train_patch_ensemble", "segment.train_ensemble", None),
        (segment, "sample_training_patches", "segment.sample_patches", None),
        (llnet.Conv2D, "forward", "learnlib.conv_fwd", _conv_fwd),
        (llnet.Conv2D, "backward", "learnlib.conv_bwd", _conv_bwd),
        (llnet.MaxPool2, "forward", "learnlib.pool_fwd", None),
        (llnet.MaxPool2, "backward", "learnlib.pool_bwd", None),
        (llnet.Dense, "forward", "learnlib.dense_fwd", _dense_fwd),
        (llnet.Dense, "backward", "learnlib.dense_bwd", _dense_bwd),
        (llnet.ReLU, "forward", "learnlib.relu_fwd", None),
        (llnet.ReLU, "backward", "learnlib.relu_bwd", None),
        (ll, "net_train", "learnlib.net_train", _patch_steps),
        (ll, "balance_classes", "learnlib.sampling", None),
        (ll, "augment_dataset", "learnlib.sampling", None),
        (ll, "pca_fit", "learnlib.pca_fit", None),
        (ll, "margin_train", "learnlib.margin_train", _margin_epochs),
        (detect, "collect_slice_patches", "detect.collect", None),
        (detect, "detect_fit", "detect.fit", None),
        (detect, "detect_scores", "detect.scores", None),
        (baselines, "run_baselines", "baselines.run", None),
        (baselines, "gmm_fit", "baselines.gmm_fit", _gmm),
        (metrics, "case_row", "metrics.case_row", None),
        (metrics, "hausdorff3d", "metrics.hausdorff", None),
    ]


@contextmanager
def instrument(tracer: Tracer):
    """Install the wrappers for the duration of the block, then restore."""
    saved = []
    try:
        for owner, attr, name, count in _targets():
            original = owner.__dict__[attr]
            saved.append((owner, attr, original))
            setattr(owner, attr, tracer.wrap(original, name, count))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
