"""Seeded fuzzing of the files the package reads.

Each mutation changes one place of a file: it deletes a key (or a list item)
or replaces a value with one of ``VALUES``. The oracle: reading the mutated
file returns or raises a ``MiquantError``, and a model that loads also
scores a case, which again returns or raises a ``MiquantError``. Mutations
are drawn from numpy's ``default_rng`` with a fixed seed and a fixed budget
per file, so every run tries the same mutations in bounded time.
"""
import copy
import functools
import json
import operator

import numpy as np
import pytest

from miquant import detect, segment, vio
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
