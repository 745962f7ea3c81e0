"""The three benchmark workloads: ``cohort``, ``refine`` and ``train``.

Every workload runs in one process as a closed loop with one client: the
next case (or training job) starts when the previous one has finished. The
benchmark drives ``miquant`` only through the public functions of ``vio``,
``preprocess``, ``segment``, ``baselines``, ``metrics``, ``detect`` and
``learnlib``, calling each through its module so that the traced run's
wrappers see the call.
"""
from __future__ import annotations

import contextlib
import hashlib
import os
import shutil
import statistics
import sys
import time
from dataclasses import dataclass, field

import numpy as np

from miquant import baselines, detect, metrics, preprocess, segment, vio
from miquant import learnlib as ll
from miquant.errors import DegenerateData, MiquantError
from miquant.volcore import Mask

import checks
import corpus
import tracing
from corpus import COARSE, FINE, Slot

WHY = {
    "cohort": (
        "Every non-learning layer does its work and learnlib does none: NLM "
        "denoising, hole filling inside include_mvo and hausdorff3d inside "
        "case_row dominate. A refine or learnlib change must show no change here."
    ),
    "refine": (
        "A paper-size random-init 7-member ensemble refines every slice, so "
        "learnlib inference reached through refine is most of the time; this "
        "is where a dense-trunk refine or an inference-only MaxPool2 path shows."
    ),
    "train": (
        "The same learnlib layers run as training: forward keeping im2col "
        "columns and argmax indices, backward and SGD updates, plus the PCA and "
        "margin solvers. An inference-only change that slows or breaks "
        "training shows here."
    ),
}

SETUP_REPS = 15
MIN_PASSES = 2  # a case (or job) is timed at least twice; its fastest run counts
MODEL_SEED = 0  # weights are benchmark configuration; the seed drives inputs
# A random-init member votes nearly the same class for every patch, so a
# random ensemble's vote is close to constant and set by its member seeds.
# These seeds each vote "scar" on every probed band patch, so refine keeps
# the band (the coarse mask dilated by BOUNDARY_RADIUS) and the MVO stays
# enclosed. With a "healthy" majority refine erodes the mask instead, opens
# the MVO to the myocardium, and mvo_sens.paper and hd_mm.paper swing by tens
# of percent between corpus seeds.
REFINE_MEMBER_SEEDS = (2, 9, 13, 18, 24, 26, 27)
MID_GREY = 127.5  # mean patch of the random ensemble: centres inputs on zero
BBOX_MARGIN = segment.PATCH_SIZE // 2  # context a dense trunk evaluates around the band
METHODS = ("paper",) + baselines.BASELINE_METHODS
NAN = float("nan")  # a metric that could not be computed; the run then fails its checks

# Slots spread over phantom.CorpusSpec's geometry ranges; some cases are
# acquired at 1.5625 mm so that reslice does real work. The diseased refine
# and held-out cases, which have only two or three slices, are all at
# 1.5625 mm: there the Hausdorff distance of a case varies by 5-10 % between
# seeds, against 30-50 % at 1.25 mm, where a case this thin may or may not
# have a far false-positive speck.
COHORT_SLOTS = (
    Slot("mvo", FINE, 13.0, 10.0, 100.0, 0.90),
    Slot("mvo", COARSE, 15.0, 12.0, 140.0, 0.70),
    Slot("scar", FINE, 15.0, 11.0, 125.0, 0.65),
    Slot("scar", COARSE, 12.5, 9.5, 90.0, 0.95),
    Slot("healthy", FINE, 14.0, 12.5),
    Slot("healthy", COARSE, 13.5, 10.5),
)
# hd_mm.paper on refine is set by the farthest false-positive speck the
# coarse mask keeps in healthy myocardium, which a two-slice case may or may
# not have, and the refine cost of a case by how many specks it keeps. Both
# vary more between seeds than a case's time varies between passes, so refine
# times many cases once (min_passes=1) instead of a few cases twice; over
# seven diseased cases the mean Hausdorff distance varies by about 5 % between
# seeds (SD). The scars span the low end of the extent range, which leaves
# more healthy myocardium far from the scar.
REFINE_SLOTS = (
    Slot("mvo", COARSE, 13.0, 10.0, 80.0, 0.90),
    Slot("mvo", COARSE, 12.5, 11.5, 100.0, 0.75),
    Slot("scar", COARSE, 12.5, 9.5, 80.0, 0.95),
    Slot("scar", COARSE, 14.0, 10.5, 90.0, 0.85),
    Slot("mvo", COARSE, 15.0, 12.0, 90.0, 0.70),
    Slot("scar", COARSE, 13.5, 11.0, 85.0, 0.80),
    Slot("mvo", COARSE, 14.5, 9.5, 95.0, 0.85),
    Slot("healthy", FINE, 14.0, 11.0),
)
TRAIN_SLOTS = (
    Slot("mvo", FINE, 13.0, 10.0, 110.0, 0.85),
    Slot("mvo", COARSE, 15.0, 12.0, 135.0, 0.70),
    Slot("scar", FINE, 14.0, 11.0, 90.0, 0.95),
    Slot("healthy", FINE, 12.5, 12.5),
    Slot("healthy", COARSE, 15.5, 9.5),
    Slot("healthy", FINE, 14.0, 11.0),
)
HELDOUT_SLOTS = (
    Slot("mvo", COARSE, 16.0, 13.0, 80.0, 0.60),
    Slot("scar", COARSE, 12.5, 9.5, 90.0, 0.95),
    Slot("healthy", FINE, 14.5, 11.0),
    Slot("mvo", COARSE, 13.5, 11.0, 100.0, 0.80),
    Slot("scar", COARSE, 14.0, 10.0, 85.0, 0.90),
    Slot("healthy", COARSE, 13.0, 12.0),
)


@dataclass(frozen=True)
class Config:
    dims: tuple[int, int, int]
    slots: tuple
    heldout: tuple = ()
    members: int = segment.ENSEMBLE_MEMBERS
    widths: tuple[int, ...] = (16, 32, 64)
    fc: int = 128
    epochs: int = 2
    max_patches_per_class: int = 50
    min_passes: int = MIN_PASSES

    def ensemble_config(self) -> segment.EnsembleConfig:
        return segment.EnsembleConfig(
            members=self.members, widths=self.widths, fc=self.fc,
            train=ll.TrainConfig(learning_rate=1e-2, momentum=0.75, batch_size=32,
                                 l2=1e-4, epochs=self.epochs, dropout=0.5, seed=0),
            max_patches_per_class=self.max_patches_per_class,
        )

    def detect_config(self) -> detect.DetectConfig:
        return detect.DetectConfig(
            widths=self.widths, fc=self.fc,
            train=ll.TrainConfig(learning_rate=1e-2, momentum=0.9, batch_size=16,
                                 l2=1e-4, epochs=self.epochs, dropout=0.5, seed=0),
        )

    def sizes(self) -> dict:
        return {
            "dims_xyz": list(self.dims),
            "cases": [f"{s.kind}@{s.spacing_mm}mm" for s in self.slots],
            "heldout_cases": [f"{s.kind}@{s.spacing_mm}mm" for s in self.heldout],
            "net": {"members": self.members, "widths": list(self.widths), "fc": self.fc,
                    "patch_px": segment.PATCH_SIZE, "detect_px": detect.DETECT_INPUT_SIZE,
                    "epochs": self.epochs,
                    "max_patches_per_class": self.max_patches_per_class},
        }


CONFIGS = {
    "cohort": Config(dims=(160, 160, 10), slots=COHORT_SLOTS),
    "refine": Config(dims=(160, 160, 2), slots=REFINE_SLOTS, min_passes=1),
    "train": Config(dims=(160, 160, 3), slots=TRAIN_SLOTS, heldout=HELDOUT_SLOTS),
}
TINY_CONFIGS = {
    "cohort": Config(dims=(64, 64, 2), slots=COHORT_SLOTS),
    "refine": Config(dims=(64, 64, 1), slots=REFINE_SLOTS[-3:], members=3,
                     widths=(4, 8), fc=16, min_passes=1),
    "train": Config(dims=(64, 64, 2), slots=TRAIN_SLOTS, heldout=HELDOUT_SLOTS,
                    members=3, widths=(4, 8), fc=16, epochs=1, max_patches_per_class=20),
}


# ---------------------------------------------------------------------------
# per-run state
# ---------------------------------------------------------------------------

@dataclass
class Tally:
    """Attempts, failures and check results over the whole run."""

    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    digests: dict = field(default_factory=dict)

    def same_as_before(self, key, digest) -> None:
        first = self.digests.setdefault(key, digest)
        if first != digest:
            self.problems.append(f"{key}: a repeat run produced different outputs")


@dataclass
class Quality:
    """Per-case quality of the first pass over the corpus."""

    rows: dict = field(default_factory=dict)        # case_id -> {method: ReportRow}
    diseased: list = field(default_factory=list)
    with_mvo: list = field(default_factory=list)
    slice_scores: list = field(default_factory=list)
    slice_labels: list = field(default_factory=list)
    coarse_dice: list = field(default_factory=list)
    hyper_dice: list = field(default_factory=list)
    band: list = field(default_factory=list)          # per case, post hoc
    bbox_px: list = field(default_factory=list)
    changed: list = field(default_factory=list)
    degenerate: list = field(default_factory=list)
    gmm_nll: list = field(default_factory=list)
    detect_auc: float = NAN
    train_loss: float = NAN

    def method_mean(self, method, attr="dice_pct", cases=None) -> float:
        cases = self.diseased if cases is None else cases
        values = [getattr(self.rows[c][method], attr) for c in cases]
        values = [v for v in values if v is not None]
        return float(np.mean(values)) if values else NAN


def _digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


# ---------------------------------------------------------------------------
# the pipeline for one case
# ---------------------------------------------------------------------------

@dataclass
class CaseOutput:
    case: object      # the preprocessed LabeledCase
    seg: object       # segment.SegmentationResult
    masks: dict       # baseline method -> Mask
    report: object    # vio.MetricsReport
    gt: Mask          # GT scar | MVO
    scores: object    # detector slice scores, or None


def run_case(manifest_path: str, report_path: str, ensemble=None, detector=None):
    """manifest -> preprocess -> segment_case -> baselines -> case_row ->
    write_report. The whole body is the timed unit of cohort and refine."""
    case = preprocess.preprocess_case(vio.load_case(vio.read_manifest(manifest_path)))
    scores = detect.detect_scores(detector, case) if detector is not None else None
    seg = segment.segment_case(case, ensemble=ensemble)
    masks = baselines.run_baselines(case)
    gt_data = case.gt_scar.data | (case.gt_mvo.data if case.gt_mvo is not None else False)
    gt = Mask(case.volume.spacing, gt_data)
    report = vio.MetricsReport()
    report.add(metrics.case_row(case.case_id, "paper", seg.final, gt,
                                case.myocardium, case.gt_mvo))
    for method in baselines.BASELINE_METHODS:
        report.add(metrics.case_row(case.case_id, method, masks[method], gt,
                                    case.myocardium, case.gt_mvo))
    vio.write_report(report, report_path)
    return CaseOutput(case, seg, masks, report, gt, scores)


def _gmm_nll(case) -> list:
    """Final negative log-likelihood per voxel of the baselines' per-slice
    GMMs, refitted outside the timed pipeline."""
    nll = []
    for k in range(case.nz):
        values = case.volume.data[k][case.myocardium.data[k]]
        try:
            gmm = baselines.gmm_fit(values)
        except DegenerateData:
            continue
        nll.append(-gmm.log_likelihood_trace[-1] / values.size)
    return nll


def _inspect_case(out: CaseOutput, tally: Tally, quality: Quality | None, report_path: str):
    """Checks on every case; quality and counts on the first pass only."""
    case, seg, masks, report, gt = out.case, out.seg, out.masks, out.report, out.gt
    tally.problems += checks.check_segmentation(case.case_id, seg, masks, case.myocardium)
    tally.problems += checks.check_report(
        report, [(case.case_id, m) for m in METHODS], report_path)
    degenerate = sum(o.degenerate_histogram for o in seg.outcomes)
    tally.failed += degenerate
    tally.same_as_before(case.case_id, _digest(seg.final.data, seg.hyper.data,
                                               *(m.data for m in masks.values())))
    if quality is None:
        return
    rows = {row.method: row for row in report.rows}
    quality.rows[case.case_id] = rows
    quality.degenerate.append(degenerate)
    if gt.count() > 0:
        quality.diseased.append(case.case_id)
        quality.coarse_dice.append(100.0 * metrics.dice(seg.coarse, gt))
        quality.hyper_dice.append(100.0 * metrics.dice(seg.hyper, gt))
    if case.gt_mvo is not None and case.gt_mvo.count() > 0:
        quality.with_mvo.append(case.case_id)
    band = bbox = changed = 0
    for k, outcome in enumerate(seg.outcomes):
        quality.slice_scores.append(float(seg.final.data[k].sum()))
        quality.slice_labels.append(1 if case.slice_label(k) == "diseased" else 0)
        if not outcome.refined:
            continue
        region = segment.boundary_region(seg.coarse.data[k])
        ys, xs = np.nonzero(region)
        if len(ys):
            band += len(ys)
            bbox += ((ys.max() - ys.min() + 1 + 2 * BBOX_MARGIN)
                     * (xs.max() - xs.min() + 1 + 2 * BBOX_MARGIN))
            changed += int((region & (seg.hyper.data[k] != seg.coarse.data[k])).sum())
    quality.band.append(band)
    quality.bbox_px.append(int(bbox))
    quality.changed.append(changed)


# ---------------------------------------------------------------------------
# loops
# ---------------------------------------------------------------------------

@dataclass
class Loop:
    """Timed units of one loop (cases for cohort/refine, jobs for train)."""

    unit_s: list = field(default_factory=list)    # wall time of each unit
    case_s: dict = field(default_factory=dict)    # manifest -> pipeline time per pass
    train_s: list = field(default_factory=list)   # training time per job

    def pass_s(self) -> float:
        """Pipeline time of one pass over the corpus, each case at its
        fastest pass. Load from other tenants of the shared host only adds
        time, and it varies over minutes, so the fastest of a case's passes
        is the steadiest estimate of the program's own cost."""
        return sum(min(times) for times in self.case_s.values())


def _case_loop(manifests, nz, workdir, seconds, min_passes, ensemble, tally, quality,
               tracer):
    """Whole passes over the corpus until ``seconds`` have elapsed, and at
    least ``min_passes``."""
    loop = Loop()
    report_path = os.path.join(workdir, "report.csv")
    start = time.perf_counter()
    passes = 0
    while passes < min_passes or time.perf_counter() - start < seconds:
        passes += 1
        first = passes == 1
        for path, slices in zip(manifests, nz):
            tally.attempted += slices
            t0 = time.perf_counter()
            try:
                with tracer.unit("bench.case"):
                    out = run_case(path, report_path, ensemble=ensemble)
            except MiquantError as exc:
                tally.failed += slices
                print(f"case {path} failed: {exc!r}", file=sys.stderr)
                continue
            elapsed = time.perf_counter() - t0
            loop.case_s.setdefault(path, []).append(elapsed)
            loop.unit_s.append(elapsed)
            _inspect_case(out, tally, quality if first else None, report_path)
            if first:
                quality.gmm_nll += _gmm_nll(out.case)
    return loop


def _train_loop(train_manifests, heldout_manifests, nz, heldout_nz, workdir, cfg,
                seconds, tally, quality, tracer):
    """Training jobs, each followed by a held-out evaluation, until
    ``seconds`` have elapsed."""
    loop = Loop()
    report_path = os.path.join(workdir, "report.csv")
    dcfg, ecfg = cfg.detect_config(), cfg.ensemble_config()
    start = time.perf_counter()
    jobs = 0
    while jobs < cfg.min_passes or time.perf_counter() - start < seconds:
        jobs += 1
        first = jobs == 1
        tally.attempted += sum(nz)
        u0 = time.perf_counter()
        try:
            with tracer.unit("bench.job"):
                cases = [preprocess.preprocess_case(vio.load_case(vio.read_manifest(p)))
                         for p in train_manifests]
                model = detect.detect_fit(cases, dcfg, seed=MODEL_SEED)
                ensemble = segment.train_patch_ensemble(cases, ecfg, seed=MODEL_SEED)
        except MiquantError as exc:
            tally.failed += sum(nz) + sum(heldout_nz)
            tally.attempted += sum(heldout_nz)
            print(f"training job failed: {exc!r}", file=sys.stderr)
            continue
        train_elapsed = time.perf_counter() - u0
        loop.train_s.append(train_elapsed)
        losses = [m.train_meta["loss_trace"][-1] for m in ensemble.members]
        if not np.all(np.isfinite(losses)):
            tally.problems.append(f"non-finite ensemble loss {losses}")
        tally.same_as_before("train", _digest(
            model.margin.w, np.asarray([model.margin.b]), np.asarray(losses),
            *(m.layers[0].w for m in ensemble.members)))
        if first:
            quality.train_loss = float(np.mean(losses))

        scores, labels = [], []
        eval_s = 0.0
        for path, slices in zip(heldout_manifests, heldout_nz):
            tally.attempted += slices
            t0 = time.perf_counter()
            try:
                with tracer.unit("bench.case"):
                    out = run_case(path, report_path, detector=model)
            except MiquantError as exc:
                tally.failed += slices
                print(f"held-out case {path} failed: {exc!r}", file=sys.stderr)
                continue
            elapsed = time.perf_counter() - t0
            eval_s += elapsed
            loop.case_s.setdefault(path, []).append(elapsed)
            _inspect_case(out, tally, quality if first else None, report_path)
            scores += out.scores.tolist()
            labels += [1 if out.case.slice_label(k) == "diseased" else 0
                       for k in range(out.case.nz)]
        loop.unit_s.append(train_elapsed + eval_s)
        if len(set(labels)) == 2:
            roc = detect.roc_curve(scores, labels)
            tally.problems += checks.check_auc(roc.auc, scores, labels)
            if first:
                quality.detect_auc = roc.auc
    return loop


# ---------------------------------------------------------------------------
# set-up
# ---------------------------------------------------------------------------

def _setup(name: str, cfg: Config, seed: int, workdir: str, tracer):
    """Generate the corpus, write it to disk and build the models;
    repeated SETUP_REPS times so that setup_s is a median."""
    times = []
    for rep in range(SETUP_REPS):
        root = os.path.join(workdir, "corpus")
        shutil.rmtree(root, ignore_errors=True)
        t0 = time.perf_counter()
        with tracer.unit("bench.setup"):
            cases = corpus.make_cases(cfg.slots, cfg.dims, seed, "case")
            manifests = corpus.write_corpus(cases, root)
            heldout = corpus.make_cases(cfg.heldout, cfg.dims, seed + 1_000_003, "heldout")
            heldout_manifests = corpus.write_corpus(heldout, root)
            ensemble = None
            if name == "refine":
                members = [ll.build_classifier(segment.PATCH_SIZE, seed=s,
                                               widths=cfg.widths, fc=cfg.fc)
                           for s in REFINE_MEMBER_SEEDS[:cfg.members]]
                ensemble = segment.PatchEnsemble(
                    members=members,
                    mean_patch=np.full((segment.PATCH_SIZE,) * 2, MID_GREY))
        times.append(time.perf_counter() - t0)
    nz = [c.nz for c in cases]
    heldout_nz = [c.nz for c in heldout]
    return times, manifests, nz, heldout_manifests, heldout_nz, ensemble


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def _end_to_end(name, setup_s, loop: Loop, quality: Quality) -> dict:
    q = quality
    nsd = [m for m in baselines.BASELINE_METHODS if m.endswith("-sd")]
    if name == "train":
        detect_auc = q.detect_auc
        train_loss = q.train_loss
    else:
        both = len(set(q.slice_labels)) == 2  # failed cases can leave one class
        detect_auc = detect.roc_curve(q.slice_scores, q.slice_labels).auc if both else NAN
        train_loss = float(np.mean(q.gmm_nll)) if q.gmm_nll else NAN
    pass_s = loop.pass_s()
    values = {
        "cases_per_min": 60.0 * len(loop.case_s) / pass_s if pass_s else NAN,
        # cohort and refine train nothing; their job is one pass over the corpus
        "train_s": min(loop.train_s, default=NAN) if name == "train" else pass_s,
        "setup_s": statistics.median(setup_s),
        "dice_pct.paper": q.method_mean("paper"),
        "hd_mm.paper": q.method_mean("paper", "hausdorff_mm"),
        "mvo_sens.paper": q.method_mean("paper", "mvo_sensitivity", q.with_mvo),
        "dice_pct.nsd": float(np.mean([q.method_mean(m) for m in nsd])),
        "dice_pct.otsu": q.method_mean("otsu"),
        "dice_pct.fwhm": q.method_mean("fwhm"),
        "dice_pct.gmm": q.method_mean("gmm"),
        "detect_auc": detect_auc,
        "train_loss": train_loss,
    }
    return values


def _per_layer(tracer, setup_tracer, loop: Loop, references: list, quality: Quality,
               tally: Tally) -> dict:
    inc, own, calls = tracer.totals()
    units = len(loop.unit_s)

    def per_unit(total):
        return total / units

    def inclusive(name):
        return per_unit(inc.get(name, 0.0))

    def self_s(name):
        return per_unit(own.get(name, 0.0))

    counts = tracer.counts
    wall = statistics.mean(loop.unit_s)
    if loop.train_s:  # train: the reference unit is a job
        base = min(min(r.unit_s) for r in references)
        traced = min(loop.unit_s)
    else:
        path = next(iter(references[0].case_s))
        base = min(min(r.case_s[path]) for r in references)
        traced = min(loop.case_s[path])

    def rate(flop_key, span):
        seconds = inc.get(span, 0.0)
        return counts[flop_key] / 1e9 / seconds if seconds > 0 else 0.0

    def intensity(flop_key, bytes_key):
        return counts[flop_key] / counts[bytes_key] if counts[bytes_key] > 0 else 0.0

    fwd = sum(inc.get(f"learnlib.{k}_fwd", 0.0) for k in ("conv", "pool", "dense", "relu"))
    band = sum(quality.band)
    values = {
        "preprocess.nlm_s": inclusive("preprocess.nlm"),
        "preprocess.reslice_s": inclusive("preprocess.reslice"),
        "preprocess.normalize_s": inclusive("preprocess.normalize"),
        "volcore.fill_holes_s": inclusive("volcore.fill_holes"),
        "volcore.gray_morph_s": inclusive("volcore.gray_morph"),
        "volcore.binary_morph_s": inclusive("volcore.binary_morph"),
        "volcore.otsu_s": inclusive("volcore.otsu"),
        "segment.tophat_s": inclusive("segment.tophat"),
        "segment.coarse_s": self_s("segment.coarse"),
        "segment.mvo_s": inclusive("segment.mvo"),
        "segment.refine_s": self_s("segment.refine"),
        "segment.band_voxels": per_unit(counts["band_voxels"]),
        "segment.band_bbox_px": float(np.mean(quality.bbox_px)) if quality.bbox_px else 0.0,
        "segment.refine_changed_frac": sum(quality.changed) / band if band else 0.0,
        "segment.coarse_dice_pct": float(np.mean(quality.coarse_dice)),
        "segment.hyper_dice_pct": float(np.mean(quality.hyper_dice)),
        "segment.slices_degenerate": float(np.mean(quality.degenerate)),
        "learnlib.conv_fwd_s": inclusive("learnlib.conv_fwd"),
        "learnlib.pool_fwd_s": inclusive("learnlib.pool_fwd"),
        "learnlib.dense_fwd_s": inclusive("learnlib.dense_fwd"),
        "learnlib.relu_fwd_s": inclusive("learnlib.relu_fwd"),
        "learnlib.fwd_share": fwd / units / wall,
        "learnlib.conv_fwd_gflop": per_unit(counts["conv_fwd_flop"]) / 1e9,
        "learnlib.conv_fwd_gb": per_unit(counts["conv_fwd_bytes"]) / 1e9,
        "learnlib.conv_fwd_flop_per_byte": intensity("conv_fwd_flop", "conv_fwd_bytes"),
        "learnlib.conv_fwd_gflops": rate("conv_fwd_flop", "learnlib.conv_fwd"),
        "learnlib.conv_bwd_s": inclusive("learnlib.conv_bwd"),
        "learnlib.conv_bwd_gflop": per_unit(counts["conv_bwd_flop"]) / 1e9,
        "learnlib.conv_bwd_flop_per_byte": intensity("conv_bwd_flop", "conv_bwd_bytes"),
        "learnlib.conv_bwd_gflops": rate("conv_bwd_flop", "learnlib.conv_bwd"),
        "learnlib.dense_fwd_gflop": per_unit(counts["dense_fwd_flop"]) / 1e9,
        "learnlib.dense_bwd_gflop": per_unit(counts["dense_bwd_flop"]) / 1e9,
        "learnlib.pool_bwd_s": inclusive("learnlib.pool_bwd"),
        "learnlib.dense_bwd_s": inclusive("learnlib.dense_bwd"),
        "learnlib.relu_bwd_s": inclusive("learnlib.relu_bwd"),
        "learnlib.net_train_s": self_s("learnlib.net_train"),
        "learnlib.patch_steps": per_unit(counts["patch_steps"]),
        "learnlib.sampling_s": inclusive("learnlib.sampling"),
        "learnlib.pca_fit_s": inclusive("learnlib.pca_fit"),
        "learnlib.margin_train_s": inclusive("learnlib.margin_train"),
        "learnlib.margin_epochs": per_unit(counts["margin_epochs"]),
        "detect.collect_s": inclusive("detect.collect"),
        "detect.fit_s": inclusive("detect.fit"),
        "detect.scores_s": inclusive("detect.scores"),
        "baselines.run_s": inclusive("baselines.run"),
        "baselines.gmm_fit_s": inclusive("baselines.gmm_fit"),
        "baselines.gmm_em_iters": per_unit(counts["gmm_em_iters"]),
        "baselines.gmm_unconverged": per_unit(counts["gmm_unconverged"]),
        "metrics.hausdorff_s": inclusive("metrics.hausdorff"),
        "metrics.hausdorff_calls": per_unit(calls.get("metrics.hausdorff", 0)),
        "metrics.case_row_s": inclusive("metrics.case_row"),
        "vio.load_s": inclusive("vio.load"),
        "vio.report_s": inclusive("vio.report"),
        "phantom.generate_s": setup_tracer.totals()[0].get("phantom.generate", 0.0) / SETUP_REPS,
        "failed_frac": tally.failed / tally.attempted,
        "trace.wall_s": wall,
        "trace.overhead_s": traced - base,
        "trace.overhead_frac": (traced - base) / base,
    }
    for layer in tracing.LAYERS + ("bench",):
        values[f"{layer}.self_s"] = per_unit(
            sum(t for name, t in own.items() if name.split(".")[0] == layer))
    votes = per_unit(counts["band_voxels"])
    if votes and abs(votes - band / len(quality.band)) > 1e-9:
        tally.problems.append("votes cast differ from the band voxels of the coarse masks")
    return values


# ---------------------------------------------------------------------------
# entry
# ---------------------------------------------------------------------------

def run(name: str, seed: int, seconds: float, trace: bool, workdir: str,
        cfg: Config | None = None) -> dict:
    """Run one workload; returns the result record (metrics, tallies, inputs)."""
    cfg = cfg or CONFIGS[name]
    tally = Tally()
    quality = Quality()
    off = tracing.Tracer()
    setup_tracer = tracing.Tracer(instrumented=trace)
    with tracing.instrument(setup_tracer) if trace else contextlib.nullcontext():
        setup = _setup(name, cfg, seed, workdir, setup_tracer)
    setup_s, manifests, nz, heldout_manifests, heldout_nz, ensemble = setup

    def loop(budget, tracer, q, reference=False, passes=MIN_PASSES):
        if name == "train":
            return _train_loop(manifests, heldout_manifests, nz, heldout_nz, workdir,
                               cfg, budget, tally, q, tracer)
        # the reference unit for the tracing overhead is the last case, the
        # cheapest one in every corpus
        cut = slice(-1, None) if reference else slice(None)
        passes = passes if reference else cfg.min_passes
        return _case_loop(manifests[cut], nz[cut], workdir, budget, passes, ensemble,
                          tally, q, tracer)

    record = {"workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
              "why": WHY[name], "sizes": cfg.sizes(), "setup_s": setup_s}
    if not trace:
        timed = loop(seconds, off, quality)
        if cfg.min_passes < 2:
            # one pass repeats no case: run the last one again, so that the
            # check that repeat runs give bit-identical outputs still applies
            loop(0.0, off, Quality(), reference=True, passes=1)
        record["metrics"] = _end_to_end(name, setup_s, timed, quality)
    else:
        # the reference unit untraced before and after the traced passes (a
        # process runs its first units slower); the reference unit's fastest
        # traced minus fastest untraced wall time is the tracing overhead
        references = [loop(0.0, off, Quality(), reference=True)]
        tracer = tracing.Tracer(instrumented=True)
        with tracing.instrument(tracer):
            timed = loop(seconds, tracer, quality)
        references.append(loop(0.0, off, Quality(), reference=True))
        record["metrics"] = _per_layer(tracer, setup_tracer, timed, references, quality,
                                       tally)
        record["spans"] = tracer
    record["cases"] = {
        cid: {m: {"dice_pct": r.dice_pct, "hausdorff_mm": r.hausdorff_mm,
                  "mvo_sensitivity": r.mvo_sensitivity} for m, r in rows.items()}
        for cid, rows in quality.rows.items()}
    case_s = {os.path.basename(os.path.dirname(p)): t for p, t in timed.case_s.items()}
    record.update(attempted=tally.attempted, failed=tally.failed,
                  problems=tally.problems, unit_s=timed.unit_s, case_s=case_s,
                  train_s=timed.train_s)
    return record
