import math

import numpy as np
import pytest

from miquant import baselines, segment, vio
from miquant import metrics as mx
from miquant.errors import (
    DataError,
    DivisionByZero,
    EmptyDenominator,
    EmptyMask,
    LengthMismatch,
    ZeroVariance,
)
from miquant.volcore import Mask

import oracles


def _mask(bits, spacing=(1.0, 1.0, 1.0)):
    return Mask(spacing, np.asarray(bits, dtype=bool))


def _random_mask(rng, shape=(3, 8, 8), p=0.2, spacing=(1.25, 1.25, 8.0)):
    return Mask(spacing, rng.random(shape) < p)


# --- dice ---

def test_dice_identical_and_disjoint():
    rng = np.random.default_rng(0)
    a = _random_mask(rng, p=0.4)
    assert mx.dice(a, a) == 1.0
    b = Mask(a.spacing, np.zeros_like(a.data))
    empty = Mask(a.spacing, np.zeros_like(a.data))
    if a.count():
        assert mx.dice(a, b) == 0.0
    assert mx.dice(empty, b) == 1.0


def test_dice_half_overlap():
    a = np.zeros((1, 2, 4), dtype=bool)
    b = np.zeros((1, 2, 4), dtype=bool)
    a[0, 0, :4] = True          # |A| = 4
    b[0, 0, 2:4] = True         # overlap 2
    b[0, 1, 0:2] = True         # |B| = 4
    assert mx.dice(_mask(a), _mask(b)) == 0.5


def test_dice_symmetric_and_bounded():
    rng = np.random.default_rng(1)
    for _ in range(50):
        a, b = _random_mask(rng), _random_mask(rng)
        d = mx.dice(a, b)
        assert d == mx.dice(b, a)
        assert 0.0 <= d <= 1.0


# --- hausdorff ---

def test_hausdorff_zero_iff_identical():
    rng = np.random.default_rng(2)
    a = _random_mask(rng, p=0.3)
    assert mx.hausdorff3d(a, a) == 0.0


def test_hausdorff_spacing_arithmetic():
    a = np.zeros((3, 3, 3), dtype=bool)
    b = np.zeros((3, 3, 3), dtype=bool)
    a[0, 1, 1] = True
    b[2, 1, 1] = True
    h = mx.hausdorff3d(_mask(a, (1.25, 1.25, 8.0)), _mask(b, (1.25, 1.25, 8.0)))
    assert h == pytest.approx(16.0)


def _sparse_mask_pairs(rng, shape=(4, 40, 40)):
    """Masks of a few voxels at random offsets in a larger grid, under
    square and non-square in-plane spacing; every third pair pins voxels
    of both masks to the first and last index of each axis."""
    for i in range(24):
        spacing = ((1.25, 1.25, 8.0), (1.25, 1.5, 8.0))[i % 2]
        pair = []
        for _ in range(2):
            n = int(rng.integers(1, 6))
            bits = np.zeros(shape, dtype=bool)
            bits[tuple(rng.integers(0, dim, n) for dim in shape)] = True
            pair.append(bits)
        if i % 3 == 0:
            for axis, dim in enumerate(shape):
                for bits, edge in zip(pair, rng.permutation([0, dim - 1])):
                    index = [int(rng.integers(0, d)) for d in shape]
                    index[axis] = edge
                    bits[tuple(index)] = True
        yield Mask(spacing, pair[0]), Mask(spacing, pair[1])


def test_hausdorff_matches_allpairs_oracle():
    rng = np.random.default_rng(3)
    pairs = []
    for _ in range(30):
        a = _random_mask(rng, shape=(2, 7, 7), p=0.25)
        b = _random_mask(rng, shape=(2, 7, 7), p=0.25)
        pairs.append((a, b))
    dense = np.random.default_rng(4)
    pairs.append((_random_mask(dense, shape=(3, 12, 12), p=0.5),
                  _random_mask(dense, shape=(3, 12, 12), p=0.5)))
    pairs.extend(_sparse_mask_pairs(np.random.default_rng(11)))
    checked = 0
    for a, b in pairs:
        if a.count() == 0 or b.count() == 0:
            continue
        sx, sy, sz = a.spacing
        ref = oracles.allpairs_hausdorff(np.argwhere(a.data), np.argwhere(b.data), (sz, sy, sx))
        assert mx.hausdorff3d(a, b) == pytest.approx(ref, abs=1e-12)
        checked += 1
    assert checked >= 50


@pytest.mark.parametrize("extra", ["nothing", "a far blob", "a voxel on another slice"])
def test_hausdorff_of_a_prediction_covering_the_reference_needs_one_transform(extra, monkeypatch):
    # every reference voxel is predicted, so reference to prediction is 0 mm
    # and only the reference's own distance transform runs
    gt = np.zeros((4, 16, 18), dtype=bool)
    gt[1:3, 4:9, 5:11] = True
    gt[2, 6, 11] = True
    pred = gt.copy()
    if extra == "a far blob":
        pred[0:2, 13:15, 14:17] = True
    elif extra == "a voxel on another slice":
        pred[3, 0, 0] = True
    spacing = (1.25, 1.5, 8.0)
    calls = []
    edt = mx.distance_transform_edt
    monkeypatch.setattr(mx, "distance_transform_edt", lambda *a, **k: calls.append(1) or edt(*a, **k))
    got = mx.hausdorff3d(Mask(spacing, pred), Mask(spacing, gt))
    ref = oracles.allpairs_hausdorff(np.argwhere(pred), np.argwhere(gt), spacing[::-1])
    assert got == pytest.approx(ref, abs=1e-12)
    assert (got == 0.0) == (extra == "nothing")
    assert len(calls) == 1


def test_hausdorff_symmetry_and_triangle():
    rng = np.random.default_rng(5)
    for _ in range(10):
        a = _random_mask(rng, shape=(2, 6, 6), p=0.3)
        b = _random_mask(rng, shape=(2, 6, 6), p=0.3)
        c = _random_mask(rng, shape=(2, 6, 6), p=0.3)
        if 0 in (a.count(), b.count(), c.count()):
            continue
        hab = mx.hausdorff3d(a, b)
        assert hab == mx.hausdorff3d(b, a)
        assert hab <= mx.hausdorff3d(a, c) + mx.hausdorff3d(c, b) + 1e-9


def test_hausdorff_empty_is_error():
    a = _mask(np.zeros((1, 3, 3), dtype=bool))
    b = _mask(np.ones((1, 3, 3), dtype=bool))
    with pytest.raises(EmptyMask):
        mx.hausdorff3d(a, b)


# --- volumes ---

def test_volume_canonical_voxel():
    m = np.zeros((1, 1, 1), dtype=bool)
    m[0, 0, 0] = True
    assert mx.scar_volume_cm3(_mask(m, (1.25, 1.25, 8.0))) == pytest.approx(0.0125)


def test_volume_scales_with_duplication():
    base = np.random.default_rng(6).random((1, 5, 5)) < 0.5
    single = _mask(base, (1.25, 1.25, 8.0))
    double = _mask(np.concatenate([base, base]), (1.25, 1.25, 8.0))
    assert mx.scar_volume_cm3(double) == pytest.approx(2 * mx.scar_volume_cm3(single))


def test_percent_infarct():
    myo = np.ones((1, 4, 4), dtype=bool)
    scar = np.zeros((1, 4, 4), dtype=bool)
    assert mx.percent_infarct(_mask(scar), _mask(myo)) == 0.0
    assert mx.percent_infarct(_mask(myo), _mask(myo)) == 100.0
    with pytest.raises(DivisionByZero):
        mx.percent_infarct(_mask(scar), _mask(scar))


# --- bland-altman ---

def test_bland_altman_basics():
    x = np.array([1.0, 2.0, 3.0])
    assert mx.bland_altman(x, x) == (0.0, 0.0)
    m, s = mx.bland_altman(x, x + 3)
    assert (m, s) == (3.0, 0.0)
    m, s = mx.bland_altman(np.array([0.0, 0.0]), np.array([-1.0, 1.0]))
    assert m == 0.0
    assert s == pytest.approx(math.sqrt(2.0))
    with pytest.raises(LengthMismatch):
        mx.bland_altman([1, 2], [1, 2, 3])


# --- spearman ---

def test_spearman_monotone_series():
    x = np.array([1.0, 2.0, 5.0, 9.0])
    assert mx.spearman(x, x**3) == pytest.approx(1.0)
    assert mx.spearman(x, -x) == pytest.approx(-1.0)


def test_spearman_matches_rank_oracle_with_ties():
    rng = np.random.default_rng(7)
    for _ in range(40):
        x = rng.integers(0, 6, 15).astype(float)
        y = rng.integers(0, 6, 15).astype(float)
        if len(np.unique(x)) < 2 or len(np.unique(y)) < 2:
            continue
        assert mx.spearman(x, y) == pytest.approx(oracles.rank_spearman(x, y), abs=1e-12)


def test_spearman_invariant_under_monotone_transform():
    rng = np.random.default_rng(8)
    x = rng.normal(size=12)
    y = rng.normal(size=12)
    base = mx.spearman(x, y)
    assert mx.spearman(np.exp(x), y) == pytest.approx(base, abs=1e-12)
    assert mx.spearman(x, 3 * y + 7) == pytest.approx(base, abs=1e-12)


def test_spearman_zero_variance():
    with pytest.raises(ZeroVariance):
        mx.spearman([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])


# --- input checks shared by the paired statistics ---

@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("stat", [mx.bland_altman, mx.spearman, mx.paired_t])
def test_paired_statistics_reject_non_finite_values(stat, bad):
    x, y = [1.0, 2.0, 3.0, 4.0], [1.5, 2.0, 2.5, 5.0]
    for series in ([1.0, bad, 3.0, 4.0], y), (x, [1.5, 2.0, bad, 5.0]):
        with pytest.raises(DataError) as exc:
            stat(*series)
        assert exc.type is DataError


@pytest.mark.parametrize("stat", [mx.bland_altman, mx.spearman, mx.paired_t])
def test_paired_statistics_reject_series_of_unequal_length(stat):
    with pytest.raises(LengthMismatch):
        stat([1.0, 2.0, 3.0, 4.0], [1.0, 2.0, 3.0])


@pytest.mark.parametrize("call", [
    lambda: mx.spearman([1.0, 2.0], [2.0, 1.0]),
    lambda: mx.mann_whitney_u([1.0], [1.0, 2.0]),
], ids=["two pairs for Spearman", "one value for Mann-Whitney U"])
def test_statistics_reject_too_few_values(call):
    with pytest.raises(LengthMismatch):
        call()


# --- mann-whitney ---

def test_mwu_identical_samples():
    x = np.array([1.0, 2.0, 3.0])
    u, p = mx.mann_whitney_u(x, x)
    assert u == 4.5  # n*m/2
    assert p == 1.0


def test_mwu_separated_samples():
    u, p = mx.mann_whitney_u([1.0, 2.0, 3.0], [10.0, 11.0, 12.0])
    assert u == 0.0
    assert p < 0.2


def test_mwu_matches_paircount_oracle():
    rng = np.random.default_rng(9)
    for _ in range(50):
        x = rng.integers(0, 10, rng.integers(3, 12)).astype(float)
        y = rng.integers(0, 10, rng.integers(3, 12)).astype(float)
        u, _ = mx.mann_whitney_u(x, y)
        assert u == oracles.paircount_u(x, y)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_mwu_rejects_non_finite_values(bad):
    x, y = [1.0, 2.0, 3.0], [4.0, 5.0, 6.0]
    for samples in ([1.0, bad, 3.0], y), (x, [4.0, 5.0, bad]):
        with pytest.raises(DataError) as exc:
            mx.mann_whitney_u(*samples)
        assert exc.type is DataError


# --- paired t ---

def test_paired_t_zero_variance():
    with pytest.raises(ZeroVariance):
        mx.paired_t([1.0, 2.0], [1.0, 2.0])
    with pytest.raises(ZeroVariance):
        mx.paired_t([2.0, 2.0, 2.0, 2.0], [1.0, 1.0, 1.0, 1.0])
    # equal differences whose float mean is not exactly 0.1
    with pytest.raises(ZeroVariance):
        mx.paired_t([0.1, 0.1, 0.1], [0.0, 0.0, 0.0])


def test_paired_t_zero_variance_to_within_rounding():
    # 0.1 + 0.2 is 0.30000000000000004: the differences are equal only to
    # within rounding, where scipy would warn of catastrophic cancellation
    with pytest.raises(ZeroVariance):
        mx.paired_t([0.1 + 0.2, 0.3, 0.3], [0.0, 0.0, 0.0])
    # a spread far above rounding is still a t test
    t, p = mx.paired_t([1.0, 1.0 + 1e-9, 1.0 - 1e-9], [0.0, 0.0, 0.0])
    assert t > 1e8 and p < 1e-15


def test_paired_t_frozen_reference():
    # d = {2,-1,3,0,1}: t = 1.0 / (SD/sqrt(5)) = sqrt(2); p from a 40-digit
    # regularized-incomplete-beta evaluation
    t, p = mx.paired_t([2.0, -1.0, 3.0, 0.0, 1.0], [0.0] * 5)
    assert t == pytest.approx(math.sqrt(2.0), abs=1e-12)
    assert p == pytest.approx(0.2301996410804990, abs=1e-12)


def test_mvo_sensitivity_cases():
    gt = np.zeros((1, 4, 4), dtype=bool)
    gt[0, 1, 1:3] = True
    sup = np.ones((1, 4, 4), dtype=bool)
    disj = np.zeros((1, 4, 4), dtype=bool)
    disj[0, 3, 3] = True
    assert mx.mvo_sensitivity(_mask(sup), _mask(gt)) == 1.0
    assert mx.mvo_sensitivity(_mask(disj), _mask(gt)) == 0.0
    with pytest.raises(EmptyDenominator):
        mx.mvo_sensitivity(_mask(sup), _mask(np.zeros((1, 4, 4), dtype=bool)))


# --- report assembly ---

def test_case_row_identical_empty_and_mvo():
    gt = np.zeros((2, 6, 6), dtype=bool)
    gt[0, 2:4, 1:5] = True
    mvo = np.zeros_like(gt)
    mvo[0, 2, 2] = True
    myo = _mask(np.ones_like(gt))
    same = mx.case_row("c1", "paper", _mask(gt), _mask(gt), myo, None)
    assert (same.case_id, same.slice, same.method) == ("c1", "all", "paper")
    assert same.dice_pct == 100.0 and same.hausdorff_mm == 0.0
    assert same.scar_volume_cm3 == pytest.approx(8e-3)
    assert same.pct_infarct == pytest.approx(100.0 * 8 / 72)
    assert same.mvo_sensitivity is None

    empty = mx.case_row("c1", "otsu", _mask(np.zeros_like(gt)), _mask(gt), myo, _mask(mvo))
    assert empty.dice_pct == 0.0 and empty.hausdorff_mm is None
    assert empty.scar_volume_cm3 == 0.0 and empty.pct_infarct == 0.0
    assert empty.mvo_sensitivity == 0.0

    assert mx.case_row("c1", "paper", _mask(gt), _mask(gt), myo, _mask(mvo)).mvo_sensitivity == 1.0
    no_mvo = mx.case_row("c1", "paper", _mask(gt), _mask(gt), myo, _mask(np.zeros_like(gt)))
    assert no_mvo.mvo_sensitivity is None


def test_case_row_with_empty_myocardium_leaves_percent_blank_through_the_csv(tmp_path):
    gt = np.zeros((2, 6, 6), dtype=bool)
    gt[0, 2:4, 1:5] = True
    myo = _mask(np.zeros_like(gt))
    row = mx.case_row("c1", "paper", _mask(gt), _mask(gt), myo, None)
    assert row.pct_infarct is None
    assert row.dice_pct == 100.0 and row.scar_volume_cm3 == pytest.approx(8e-3)

    report = vio.MetricsReport()
    report.add(row)
    path = str(tmp_path / "report.csv")
    vio.write_report(report, path)
    with open(path, encoding="utf-8") as fh:
        assert fh.read().splitlines()[1].split(",")[6] == ""
    (back,) = vio.read_report(path).rows
    assert back == vio.ReportRow("c1", "all", "paper", dice_pct=100.0, hausdorff_mm=0.0,
                                 scar_volume_cm3=0.008, pct_infarct=None)


# --- case_row against the reference functions ---

def _reference_row(case_id, method, pred, gt, myo, gt_mvo):
    """The report row built from dice, hausdorff3d, scar_volume_cm3,
    percent_infarct and mvo_sensitivity."""
    try:
        hd = mx.hausdorff3d(pred, gt)
    except EmptyMask:
        hd = None
    try:
        pct = mx.percent_infarct(pred, myo)
    except DivisionByZero:
        pct = None
    row = vio.ReportRow(case_id, "all", method, dice_pct=100.0 * mx.dice(pred, gt),
                        hausdorff_mm=hd, scar_volume_cm3=mx.scar_volume_cm3(pred),
                        pct_infarct=pct)
    if gt_mvo is not None and gt_mvo.count() > 0:
        row.mvo_sensitivity = mx.mvo_sensitivity(pred, gt_mvo)
    return row


def test_case_row_equals_the_reference_functions_on_the_golden_corpus(golden_cases):
    checked = set()
    for case in golden_cases:
        masks = dict(baselines.run_baselines(case), paper=segment.segment_case(case).final)
        gt = case.gt_scar
        if case.gt_mvo is not None:
            gt = Mask(case.volume.spacing, gt.data | case.gt_mvo.data)
        for method, pred in masks.items():
            args = (case.case_id, method, pred, gt, case.myocardium, case.gt_mvo)
            row = mx.case_row(*args)
            assert row == _reference_row(*args), (case.case_id, method)
            checked.add((row.hausdorff_mm is None, row.mvo_sensitivity is None))
    assert checked >= {(False, False), (False, True), (True, True)}


def _scored_case(rng, spacing=(1.25, 1.25, 8.0)):
    """A ring of myocardium on four slices, a GT blob in it, an MVO core in
    the GT, and a prediction inside the myocardium."""
    zz, yy, xx = np.mgrid[0:4, 0:24, 0:30]
    r = np.hypot(yy - 12, xx - 15)
    myo = (r > 4) & (r <= 9) & (zz > 0)
    gt = myo & (xx < 13) & (zz < 3)
    mvo = gt & (r <= 6)
    pred = myo & (rng.random(myo.shape) < 0.3)
    return tuple(Mask(spacing, m) for m in (pred, gt, myo, mvo))


def _check_row(pred, gt, myo, mvo, method="m"):
    assert mx.case_row("c", method, pred, gt, myo, mvo) == _reference_row(
        "c", method, pred, gt, myo, mvo)


def test_case_row_follows_a_ground_truth_changed_in_place():
    pred, gt, myo, mvo = _scored_case(np.random.default_rng(6))
    _check_row(pred, gt, myo, mvo)
    gt.data[3, 10:14, 2:6] = True  # outside the first box, and a far GT voxel
    _check_row(pred, gt, myo, mvo)
    gt.data[:] = False
    _check_row(pred, gt, myo, mvo)


def test_case_row_takes_an_equal_ground_truth_given_as_a_new_object():
    pred, gt, myo, mvo = _scored_case(np.random.default_rng(7))
    _check_row(pred, gt, myo, mvo)
    twin = Mask(gt.spacing, gt.data.copy())
    _check_row(pred, twin, myo, mvo)
    _check_row(pred, twin, myo, Mask(mvo.spacing, mvo.data.copy()))


def test_case_row_follows_the_myocardium_mvo_and_spacing():
    base = _scored_case(np.random.default_rng(8))
    pred, gt, myo, mvo = base
    far = np.zeros_like(myo.data)
    far[0, 0, :] = far[3, 23, 0] = True  # outside GT | myocardium and its box
    variants = [
        (pred, gt, myo, Mask(mvo.spacing, mvo.data | far)),
        (pred, gt, Mask(myo.spacing, myo.data | far), mvo),
        (pred, gt, Mask(myo.spacing, myo.data & (np.arange(30) < 20)), mvo),
        (pred, gt, Mask(myo.spacing, np.zeros_like(myo.data)), mvo),
        (pred, gt, myo, Mask(mvo.spacing, mvo.data & (np.arange(30) < 11))),
        (pred, gt, myo, Mask(mvo.spacing, np.zeros_like(mvo.data))),
        (pred, gt, myo, None),
        _scored_case(np.random.default_rng(8), spacing=(1.5625, 1.5625, 8.0)),
    ]
    for variant in variants:
        _check_row(*base)
        _check_row(*variant)


def test_case_row_grows_its_box_for_a_prediction_outside_the_myocardium():
    pred, gt, myo, mvo = _scored_case(np.random.default_rng(9))
    _check_row(pred, gt, myo, mvo)
    far = pred.data.copy()
    far[0, 0, 29] = far[3, 23, 0] = True
    _check_row(Mask(pred.spacing, far), gt, myo, mvo, "far")
    _check_row(pred, gt, myo, mvo)
    speck = np.zeros_like(far)
    speck[0, 0, 0] = True
    _check_row(Mask(pred.spacing, speck), gt, myo, mvo, "speck")
    _check_row(Mask(pred.spacing, np.zeros_like(far)), gt, myo, mvo, "empty")
