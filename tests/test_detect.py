import os
from dataclasses import replace

import numpy as np
import pytest

from miquant import detect, learnlib as ll, vio
from miquant.errors import ConfigError, EmptyDenominator, EmptyMask, SingleClassError, Unachievable
from miquant.volcore import LabeledCase, Mask, Volume

import oracles


def _ring_case(center=(48, 48), nz=1, n=96, bright_sector=False):
    spacing = (1.25, 1.25, 8.0)
    yy, xx = np.mgrid[0:n, 0:n]
    r = np.hypot(yy - center[0], xx - center[1])
    endo = (r <= 8)[None].repeat(nz, axis=0)
    myo = ((r > 8) & (r <= 16))[None].repeat(nz, axis=0)
    img = np.zeros((nz, n, n))
    img[myo] = 60.0
    img[endo] = 200.0
    if bright_sector:
        sector = (np.degrees(np.arctan2(yy - center[0], xx - center[1])) % 360 < 90)
        img[0][myo[0] & sector] = 180.0
    return LabeledCase(
        "ring", Volume(spacing, img), Mask(spacing, myo), Mask(spacing, endo),
        Mask(spacing, myo | endo),
    )


# --- input extraction ---

def test_extract_centered_on_epicardial_centroid():
    case = _ring_case(center=(30, 60))
    patch = detect.extract_detection_input(case, 0)
    assert patch.shape == (89, 89)
    ys, xs = np.nonzero(patch)
    assert abs(ys.mean() - 44) <= 0.5
    assert abs(xs.mean() - 44) <= 0.5


def test_extract_masks_within_myocardium():
    case = _ring_case()
    patch = detect.extract_detection_input(case, 0)
    # blood pool (200) is masked away; only myocardium (60) survives
    assert set(np.unique(patch)) == {0.0, 60.0}


def test_extract_pads_at_corners():
    case = _ring_case(center=(6, 6))
    patch = detect.extract_detection_input(case, 0)
    assert patch.shape == (89, 89)
    # the crop extends past the top-left corner: padded region stays zero
    assert patch[:10, :10].sum() == 0.0


@pytest.mark.parametrize("size", [10, 88, 89])
def test_extract_is_padded_crop_of_masked_slice(size):
    case = _ring_case(center=(6, 6))
    patch = detect.extract_detection_input(case, 0, size)
    assert patch.shape == (size, size)
    masked = np.where(case.myocardium.data[0], case.volume.data[0], 0.0)
    cy, cx = (int(round(c)) for c in np.argwhere(case.epicardium.data[0]).mean(axis=0))
    # pad by size on every side: the crop starts at (cy, cx) - size // 2
    padded = np.pad(masked, size)
    y0, x0 = cy + size - size // 2, cx + size - size // 2
    np.testing.assert_array_equal(patch, padded[y0 : y0 + size, x0 : x0 + size])


def test_extract_zero_intensities_give_zero_patch():
    case = _ring_case()
    case.volume.data[...] = 0.0
    patch = detect.extract_detection_input(case, 0)
    assert np.all(patch == 0.0)


def test_extract_empty_epicardium_raises():
    case = _ring_case()
    case.epicardium.data[...] = False
    with pytest.raises(EmptyMask):
        detect.extract_detection_input(case, 0)


# --- ROC ---

def test_roc_perfect_separation():
    roc = detect.roc_curve([0.1, 0.2, 0.8, 0.9], [0, 0, 1, 1])
    assert roc.auc == 1.0


def test_roc_all_scores_equal_gives_half():
    roc = detect.roc_curve([5.0, 5.0, 5.0, 5.0], [0, 1, 0, 1])
    assert roc.auc == 0.5


def test_roc_endpoints_and_monotonicity():
    rng = np.random.default_rng(0)
    scores = rng.normal(size=30)
    labels = rng.integers(0, 2, 30)
    if labels.sum() in (0, 30):
        labels[0] = 1 - labels[0]
    roc = detect.roc_curve(scores, labels)
    fprs = [p[0] for p in roc.points]
    tprs = [p[1] for p in roc.points]
    assert (fprs[0], tprs[0]) == (0.0, 0.0)
    assert (fprs[-1], tprs[-1]) == (1.0, 1.0)
    assert np.all(np.diff(fprs) >= 0)
    assert np.all(np.diff(tprs) >= 0)
    assert 0.0 <= roc.auc <= 1.0


def test_roc_auc_equals_paircount_oracle():
    rng = np.random.default_rng(1)
    for _ in range(60):
        n = int(rng.integers(6, 25))
        scores = rng.integers(0, 8, n).astype(float)  # force ties
        labels = rng.integers(0, 2, n)
        if labels.sum() in (0, n):
            continue
        roc = detect.roc_curve(scores, labels)
        assert roc.auc == pytest.approx(oracles.paircount_auc(scores, labels), abs=1e-12)


def test_roc_single_class_error():
    with pytest.raises(SingleClassError):
        detect.roc_curve([0.1, 0.3], [1, 1])


# --- operating points ---

def test_operating_point_target_one_under_separation():
    scores = [0.1, 0.2, 0.8, 0.9]
    labels = [0, 0, 1, 1]
    roc = detect.roc_curve(scores, labels)
    threshold, se, sp = detect.pick_operating_point(roc, 1.0)
    assert threshold <= 0.8
    assert se == 1.0
    assert sp == 1.0


def test_operating_point_sensitivity_specificity_tradeoff():
    rng = np.random.default_rng(2)
    scores = np.concatenate([rng.normal(0, 1, 50), rng.normal(1.5, 1, 50)])
    labels = np.array([0] * 50 + [1] * 50)
    roc = detect.roc_curve(scores, labels)
    prev_sp = 1.1
    for target in (0.90, 0.925, 0.95, 0.975):
        _, se, sp = detect.pick_operating_point(roc, target)
        assert se >= target
        assert sp <= prev_sp + 1e-12  # higher sensitivity never buys specificity
        prev_sp = sp


def test_operating_point_bad_target():
    roc = detect.roc_curve([0.0, 1.0], [0, 1])
    with pytest.raises(ConfigError):
        detect.pick_operating_point(roc, 0.0)


# --- fitting and prediction ---

def test_detect_fit_separates_phantoms(mixed_cases, tiny_detect_cfg):
    train = mixed_cases[:6]
    test = mixed_cases[6:]
    model = detect.detect_fit(train, tiny_detect_cfg, seed=5)
    scores, labels = detect._score_cases(model, train)
    assert detect.roc_curve(scores, labels).auc >= 0.95
    correct = 0
    total = 0
    for case in test:
        for k, (score, label) in enumerate(detect.detect_predict(model, case)):
            total += 1
            correct += label == case.slice_label(k)
    assert correct / total >= 0.9


def test_detect_fit_single_class(mixed_cases, tiny_detect_cfg):
    healthy_only = [c for c in mixed_cases if detect.case_label(c) == "healthy"]
    with pytest.raises(SingleClassError):
        detect.detect_fit(healthy_only, tiny_detect_cfg, seed=6)


def test_detect_fit_deterministic(mixed_cases, tiny_detect_cfg):
    both = mixed_cases[2:6]  # spans the diseased/healthy boundary of the corpus
    a = detect.detect_fit(both, tiny_detect_cfg, seed=9)
    b = detect.detect_fit(both, tiny_detect_cfg, seed=9)
    assert vio.encode_model(a) == vio.encode_model(b)


def test_detect_model_roundtrip(tmp_path, tiny_detector, mixed_cases):
    path = str(tmp_path / "det.json")
    tiny_detector.save(path)
    back = detect.DetectionModel.load(path)
    for case in mixed_cases:
        np.testing.assert_array_equal(
            detect.detect_scores(back, case), detect.detect_scores(tiny_detector, case)
        )


def test_detect_model_file_keeps_the_margin_objective_trace(tmp_path, tiny_detector):
    trace = tiny_detector.margin.objective_trace
    assert len(trace) > 0
    path = str(tmp_path / "det.json")
    tiny_detector.save(path)
    assert detect.DetectionModel.load(path).margin.objective_trace == trace


PINNED_MODEL = os.path.join(os.path.dirname(__file__), "data", "detection_model.json")


def test_model_file_format_is_pinned(tmp_path):
    """``data/detection_model.json`` was written by the per-class model
    codecs that ``vio.encode_model`` replaced, with::

        net = ll.build_net((1, 2, 1), [("flatten",), ("dense", 2), ("dropout", 0.5),
                                       ("dense", 2), ("softmax",)], seed=0, feature_layer=2)
        pca = ll.PcaModel(mean=np.array([0.5, -0.25]), axes=np.array([[0.6], [0.8]]),
                          variances=np.array([2.0]), k=1)
        margin = ll.MarginModel(w=np.array([1.5]), b=-0.125, lam=1e-3)
        detect.DetectionModel(net=net, pca=pca, margin=margin, tau=0.25,
                              meta={"seed": 0}).save(path)

    It must load and re-encode to the same document, plus the margin's
    ``objective_trace`` field (added later; a file without it loads with an
    empty trace), and that document must be written byte for byte, both
    from the loaded model and from the snippet.
    """
    model = detect.DetectionModel.load(PINNED_MODEL)
    doc = vio.read_json(PINNED_MODEL)
    assert "objective_trace" not in doc["margin"]
    doc["margin"]["objective_trace"] = []
    assert vio.encode_model(model) == doc
    assert model.net.input_shape == (1, 2, 1) and model.net.layers[2].rate == 0.5
    assert model.pca.k == 1 and model.margin.b == -0.125 and model.tau == 0.25
    assert model.net.features(np.ones((1, 1, 2, 1))).shape == (1, 2)
    # the writer's layout is pinned too: the file's own document comes out
    # byte for byte
    vio.write_json(vio.read_json(PINNED_MODEL), str(tmp_path / "as_read.json"))
    with open(PINNED_MODEL, "rb") as fh:
        assert (tmp_path / "as_read.json").read_bytes() == fh.read()
    vio.write_json(doc, str(tmp_path / "pinned.json"))
    pinned = (tmp_path / "pinned.json").read_bytes()
    model.save(str(tmp_path / "again.json"))
    net = ll.build_net((1, 2, 1), [("flatten",), ("dense", 2), ("dropout", 0.5),
                                   ("dense", 2), ("softmax",)], seed=0, feature_layer=2)
    pca = ll.PcaModel(mean=np.array([0.5, -0.25]), axes=np.array([[0.6], [0.8]]),
                      variances=np.array([2.0]), k=1)
    margin = ll.MarginModel(w=np.array([1.5]), b=-0.125, lam=1e-3)
    detect.DetectionModel(net=net, pca=pca, margin=margin, tau=0.25,
                          meta={"seed": 0}).save(str(tmp_path / "fresh.json"))
    for name in ("again.json", "fresh.json"):
        assert (tmp_path / name).read_bytes() == pinned


def test_predict_threshold_limits(tiny_detector, mixed_cases):
    case = mixed_cases[0]
    low = detect.DetectionModel(
        tiny_detector.net, tiny_detector.pca, tiny_detector.margin, tau=-np.inf
    )
    assert all(l == "diseased" for _, l in detect.detect_predict(low, case))
    high = detect.DetectionModel(
        tiny_detector.net, tiny_detector.pca, tiny_detector.margin, tau=np.inf
    )
    assert all(l == "healthy" for _, l in detect.detect_predict(high, case))


def test_empty_epicardium_slice_is_healthy_and_others_keep_their_scores(
        tiny_detector, mixed_cases, tiny_detect_cfg):
    case = next(c for c in mixed_cases if detect.case_label(c) == "diseased")
    epi = case.epicardium.data.copy()
    epi[0] = False
    holed = replace(case, epicardium=Mask(case.epicardium.spacing, epi))

    scores = detect.detect_scores(tiny_detector, holed)
    assert scores[0] == -np.inf
    np.testing.assert_array_equal(scores[1:], detect.detect_scores(tiny_detector, case)[1:])
    predicted = detect.detect_predict(tiny_detector, holed)
    assert predicted[0] == (-np.inf, "healthy")
    assert predicted[1:] == detect.detect_predict(tiny_detector, case)[1:]
    # training leaves out the slice without a crop
    x, y = detect.collect_slice_patches([holed])
    full_x, full_y = detect.collect_slice_patches([case])
    np.testing.assert_array_equal(x, full_x[1:])
    np.testing.assert_array_equal(y, full_y[1:])
    pool = [holed] + mixed_cases[4:]
    model = detect.detect_fit(pool, tiny_detect_cfg, seed=5)
    assert model.meta["n_slices"] == sum(c.nz for c in pool) - 1


# --- splits and permutation analysis ---

def test_stratified_split_keeps_cases_whole(mixed_cases):
    train, val, test = detect.stratified_split(mixed_cases, seed=3)
    all_idx = sorted(train + val + test)
    assert all_idx == list(range(len(mixed_cases)))
    test_labels = {detect.case_label(mixed_cases[i]) for i in test}
    assert test_labels == {"healthy", "diseased"}


def test_permutation_p_arithmetic():
    res = detect.PermutationResult(
        n=4, auc_unpermuted=[0.9, 0.8, 0.95, 0.7], auc_permuted=[0.95, 0.5, 0.6, 0.9]
    )
    # indicators: (1, 0, 0, 1)
    assert res.p_value == (2 + 1) / (4 + 1)


def test_permutation_indicator_uses_geq():
    res = detect.PermutationResult(
        n=3, auc_unpermuted=[0.9, 0.9, 0.9], auc_permuted=[0.9, 0.9, 0.9]
    )
    assert res.p_value == 1.0


def test_permutation_all_below_gives_one_over_n_plus_one():
    res = detect.PermutationResult(
        n=5, auc_unpermuted=[1.0] * 5, auc_permuted=[0.4, 0.6, 0.99, 0.5, 0.0]
    )
    assert res.p_value == 1 / 6


def test_permutation_p_value_without_splits_raises():
    res = detect.PermutationResult(n=0, auc_unpermuted=[], auc_permuted=[])
    with pytest.raises(EmptyDenominator):
        res.p_value


def test_permutation_test_end_to_end(mixed_cases, tiny_detect_cfg):
    res = detect.permutation_test(mixed_cases, n_splits=2, cfg=tiny_detect_cfg, seed=17)
    assert res.n == 2
    assert len(res.auc_unpermuted) == len(res.auc_permuted) == 2
    assert all(0.0 <= a <= 1.0 for a in res.auc_unpermuted + res.auc_permuted)
    hits = sum(ap >= anp for ap, anp in zip(res.auc_permuted, res.auc_unpermuted))
    assert res.p_value == (hits + 1) / 3
