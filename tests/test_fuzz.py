"""Seeded fuzzing of the files the package reads and of the public
functions that take raw arrays.

Each file mutation changes one place of a file: it deletes a key (or a list
item) or replaces a value with one of ``VALUES``. The oracle: reading the
mutated file returns or raises a ``MiquantError``, and a model that loads
also scores a case, which again returns or raises a ``MiquantError``.
Mutations are drawn from numpy's ``default_rng`` with a fixed seed and a
fixed budget per file, so every run tries the same mutations in bounded
time.

Each array mutation replaces one array argument of a valid call with a copy
that holds a NaN or an infinity, has another number of axes or no elements,
has another dtype, or (for every argument but the first) has another shape;
the oracle is that the call returns or raises a ``MiquantError``.
"""
import copy
import functools
import json
import operator

import numpy as np
import pytest

from miquant import baselines, detect, learnlib as ll, preprocess, segment, vio, volcore
from miquant.errors import MiquantError
from miquant.volcore import Mask

from test_detect import PINNED_MODEL
from test_vio import _toy_case

VALUES = (None, 0, -1, 1.5, float("nan"), "x", [], [1], {}, {"kind": "x"}, True, 10**12)


def _place(doc, rng):
    """A seeded random key path into doc: from the top, one random key of each
    dict or list, stopping with probability 1/3 at each level below the first
    and always at a value that holds nothing. Each step down is drawn over
    keys, not values, so a long list weighs no more than one field."""
    path, node = [], doc
    while isinstance(node, (dict, list)) and node and (not path or rng.random() >= 1 / 3):
        keys = list(node) if isinstance(node, dict) else range(len(node))
        path.append(keys[rng.integers(len(keys))])
        node = node[path[-1]]
    return path


def _mutations(doc, budget, seed):
    """``budget`` seeded single mutations of doc, each as (description, copy)."""
    rng = np.random.default_rng(seed)
    for _ in range(budget):
        *parent, key = _place(doc, rng)
        choice = rng.integers(len(VALUES) + 1)
        mutated = copy.deepcopy(doc)
        node = functools.reduce(operator.getitem, parent, mutated)
        if choice == len(VALUES):
            del node[key]
            what = f"{(*parent, key)} deleted"
        else:
            node[key] = copy.deepcopy(VALUES[choice])
            what = f"{(*parent, key)} = {VALUES[choice]!r}"
        yield what, mutated


def _within_taxonomy(what, step, call):
    """call()'s result, or None when it raises a MiquantError; any other
    exception fails the test and names the mutation."""
    try:
        return call()
    except MiquantError:
        return None
    except Exception as exc:  # an escape, which is what the fuzzer looks for
        pytest.fail(f"{what}: {step} raised {exc!r}")


def _fuzz_model(path, doc, cls, score, budget, seed):
    """How many of ``budget`` mutations of doc load, and how many of those
    then score a case."""
    loaded = scored = 0
    for what, mutated in _mutations(doc, budget, seed):
        vio.write_json(mutated, path)
        model = _within_taxonomy(what, "load", lambda: vio.load_model(path, cls))
        if model is not None:
            loaded += 1
            scored += _within_taxonomy(what, "scoring", lambda: score(model)) is not None
    return loaded, scored


def _fuzz_saved_model(tmp_path, model, score, budget, seed):
    path = str(tmp_path / "model.json")
    vio.save_model(model, path)
    doc = vio.read_json(path)
    assert vio.encode_model(vio.load_model(path, type(model))) == doc
    return _fuzz_model(path, doc, type(model), score, budget, seed)


def test_a_mutated_pinned_detector_loads_or_fails_inside_the_taxonomy(tmp_path, mixed_cases):
    # a 1x2-input toy: a detector that loads fails to score a case with ShapeError
    loaded, _ = _fuzz_model(str(tmp_path / "model.json"), vio.read_json(PINNED_MODEL),
                            detect.DetectionModel,
                            lambda model: detect.detect_predict(model, mixed_cases[0]),
                            budget=300, seed=0)
    assert loaded > 0


def test_a_mutated_trained_detector_loads_or_fails_inside_the_taxonomy(
        tmp_path, tiny_detector, mixed_cases):
    _, scored = _fuzz_saved_model(
        tmp_path, tiny_detector, lambda model: detect.detect_predict(model, mixed_cases[0]),
        budget=100, seed=1)
    assert scored > 0


def test_a_mutated_trained_ensemble_loads_or_fails_inside_the_taxonomy(
        tmp_path, tiny_ensemble, diseased_cases):
    case = diseased_cases[0]
    img, myo, coarse = case.volume.data[0], case.myocardium.data[0], case.gt_scar.data[0]
    _, scored = _fuzz_saved_model(
        tmp_path, tiny_ensemble, lambda model: segment.refine(img, coarse, model, myo),
        budget=100, seed=2)
    assert scored > 0


def _case_with_every_mask():
    case = _toy_case()
    mvo = np.zeros(case.volume.data.shape, dtype=bool)
    mvo[1, 2, 1] = True  # beside the scar, not in it
    case.gt_mvo = Mask(case.volume.spacing, mvo)
    return case


def _load_labels(manifest_path):
    case = vio.load_case(vio.read_manifest(manifest_path))
    return [case.slice_label(k) for k in range(case.nz)]


@pytest.mark.parametrize("name", ["manifest.json", "volume.mhd", "myocardium.mhd",
                                  "endocardium.mhd", "gt_scar.mhd", "gt_mvo.mhd"])
def test_a_mutated_manifest_or_header_loads_or_fails_inside_the_taxonomy(tmp_path, name):
    manifest_path = vio.write_case(_case_with_every_mask(), str(tmp_path))
    target = tmp_path / name
    original = target.read_text()
    if name.endswith(".json"):
        doc = json.loads(original)
        encode = lambda doc: json.dumps(doc, indent=2, sort_keys=True) + "\n"
    else:
        doc = dict(line.split(" = ", 1) for line in original.splitlines())
        encode = lambda doc: "".join(
            f"{key} = {value if isinstance(value, str) else json.dumps(value)}\n"
            for key, value in doc.items())
    assert encode(doc) == original
    for what, mutated in _mutations(doc, budget=50, seed=3):
        target.write_text(encode(mutated))
        _within_taxonomy(f"{name}: {what}", "load", lambda: _load_labels(manifest_path))
    target.write_text(original)
    assert _load_labels(manifest_path) == ["healthy", "diseased"]


# --- raw-array public functions ---

def _array_calls():
    """(name, function, valid array arguments) of every fuzzed function; the
    function takes the arrays as its positional arguments."""
    rng = np.random.default_rng(4)
    yy, xx = np.mgrid[0:16, 0:16]
    r = np.hypot(yy - 8, xx - 7)
    endo, myo = r <= 3, (r > 3) & (r <= 6)
    img = rng.uniform(0.0, 255.0, (16, 16))
    img[myo & (xx > 8)] += 100.0
    stack, myos = np.stack([img, img[::-1]]), np.stack([myo, myo[::-1]])
    x = rng.normal(size=(12, 3))
    y = np.where(x[:, 0] > 0, 1.0, -1.0)
    y[:2] = -1.0, 1.0
    bar = volcore.make_bar_se(5, 30.0)
    return [
        ("estimate_noise_sigma", preprocess.estimate_noise_sigma, [img]),
        ("denoise_nlm", preprocess.denoise_nlm, [stack, np.array([3.0, 4.0])]),
        ("normalize_slice", preprocess.normalize_slice, [img, myo, endo]),
        ("gamma_enhance", preprocess.gamma_enhance, [img]),
        ("otsu_threshold", volcore.otsu_threshold, [img[myo]]),
        ("white_tophat", lambda a: volcore.white_tophat(a, bar), [img]),
        ("fill_holes_2d", volcore.fill_holes_2d, [myo]),
        ("bounding_box", lambda a: volcore.bounding_box(a, 1), [myo]),
        ("boundary_region", segment.boundary_region, [myo]),
        ("coarse_segment", segment.coarse_segment, [stack, myos]),
        ("include_mvo", segment.include_mvo, [myo & (xx > 8), endo, myo]),
        ("auto_remote_region", baselines.auto_remote_region, [img, myo, endo]),
        ("nsd_segment", lambda *a: baselines.nsd_segment(*a, 2), [img, myo, myo & (xx < 7)]),
        ("fwhm_segment", baselines.fwhm_segment, [img, myo]),
        ("otsu_segment", baselines.otsu_segment, [img, myo]),
        ("gmm_fit_all", lambda a: baselines.gmm_fit_all([a]), [img[myo]]),
        ("pca_fit", ll.pca_fit, [x]),
        ("margin_train", ll.margin_train, [x, y]),
        ("roc_curve", detect.roc_curve, [x[:, 0], (y > 0).astype(int)]),
    ]


def _with_element(a, value, rng, dtype=np.float64):
    out = np.array(a, dtype=dtype)
    out.flat[rng.integers(out.size)] = value
    return out


ARRAY_MUTATIONS = {
    "NaN": lambda a, rng: _with_element(a, np.nan, rng),
    "+inf": lambda a, rng: _with_element(a, np.inf, rng),
    "-inf": lambda a, rng: _with_element(a, -np.inf, rng),
    "empty": lambda a, rng: np.zeros((0,) * a.ndim, dtype=a.dtype),
    "1-D": lambda a, rng: a.ravel(),
    "1x1": lambda a, rng: a.reshape(-1)[rng.integers(a.size)].reshape(1, 1),
    "3-D": lambda a, rng: a.reshape((1,) * max(3 - a.ndim, 1) + a.shape),
    "int": lambda a, rng: a.astype(np.int64),
    "bool": lambda a, rng: a.astype(bool),
    "str": lambda a, rng: np.full(a.shape, "x"),
    "object": lambda a, rng: _with_element(a, None, rng, dtype=object),
}


def _another_shape(a, rng):
    """a without its last row, or without one of its elements if 1-D."""
    return np.delete(a, rng.integers(len(a)), axis=0) if a.ndim == 1 else a[:-1]


def test_a_mutated_array_argument_returns_or_fails_inside_the_taxonomy():
    rng = np.random.default_rng(5)
    calls = 0
    for name, function, args in _array_calls():
        assert function(*args) is not None  # the unmutated call runs
        for i in range(len(args)):
            mutations = dict(ARRAY_MUTATIONS, **({"another shape": _another_shape} if i else {}))
            for what, mutate in mutations.items():
                mutated = list(args)
                mutated[i] = mutate(args[i], rng)
                _within_taxonomy(f"{name}, argument {i} {what}", "the call",
                                 lambda: function(*mutated))
                calls += 1
    assert calls == 377
