"""Segmentation evaluation: overlap and surface distances, clinical
markers, and the paper's agreement statistics and hypothesis tests.

Per case: Dice, the 3-D Hausdorff distance, scar volume, percent infarct
and MVO sensitivity, gathered into one report row by ``case_row``.
Between methods: Bland-Altman bias, Spearman's rho, the paired t test and
the Mann-Whitney U test. Spearman, paired t and Mann-Whitney are the
``scipy.stats`` calls. The three paired statistics reject series of
unequal length, and all four reject a non-finite value. A constant series
(for paired t, differences constant to within rounding) raises
ZeroVariance before scipy sees it.
"""
from __future__ import annotations

import numpy as np
from scipy.ndimage import distance_transform_edt
from scipy.stats import mannwhitneyu, spearmanr, ttest_rel

from .errors import (
    DataError,
    DivisionByZero,
    EmptyDenominator,
    EmptyMask,
    LengthMismatch,
    ZeroVariance,
)
from .vio import ReportRow
from .volcore import Mask, check_aligned


# ---------------------------------------------------------------------------
# overlap and distance
# ---------------------------------------------------------------------------

def dice(a: Mask, b: Mask) -> float:
    """2|A^B| / (|A|+|B|); defined as 1 when both masks are empty."""
    check_aligned(a, b)
    na, nb = a.count(), b.count()
    if na == 0 and nb == 0:
        return 1.0
    inter = int(np.count_nonzero(a.data & b.data))
    return 2.0 * inter / (na + nb)


def hausdorff3d(a: Mask, b: Mask) -> float:
    """Symmetric 3-D Hausdorff distance in mm under anisotropic spacing.

    Exact Euclidean distance transforms over the bounding box of A | B:
    every voxel of either mask lies in the box, so its nearest voxel in
    the other mask does too.
    """
    check_aligned(a, b)
    if a.count() == 0 or b.count() == 0:
        raise EmptyMask("Hausdorff distance is undefined for empty masks")
    sx, sy, sz = a.spacing
    sampling = (sz, sy, sx)  # data is (z, y, x)
    union = a.data | b.data
    box = tuple(slice(idx[0], idx[-1] + 1) for idx in (
        np.flatnonzero(union.any(axis=axes)) for axes in ((1, 2), (0, 2), (0, 1))))
    pa, pb = a.data[box], b.data[box]
    h_ab = distance_transform_edt(~pb, sampling=sampling)[pa].max()
    h_ba = distance_transform_edt(~pa, sampling=sampling)[pb].max()
    return float(max(h_ab, h_ba))


def scar_volume_cm3(mask: Mask) -> float:
    return mask.count() * mask.voxel_volume_mm3 / 1000.0


def percent_infarct(scar: Mask, myo: Mask) -> float:
    check_aligned(scar, myo)
    if myo.count() == 0:
        raise DivisionByZero("percent infarct needs a non-empty myocardium")
    return 100.0 * scar.count() / myo.count()


def mvo_sensitivity(pred: Mask, gt_mvo: Mask) -> float:
    check_aligned(pred, gt_mvo)
    denom = gt_mvo.count()
    if denom == 0:
        raise EmptyDenominator("MVO sensitivity needs a non-empty GT region")
    return int(np.count_nonzero(pred.data & gt_mvo.data)) / denom


# ---------------------------------------------------------------------------
# agreement statistics and hypothesis tests
# ---------------------------------------------------------------------------

def _paired(x, y, min_pairs: int, name: str) -> tuple[np.ndarray, np.ndarray]:
    """x and y as float64 series of one shape, finite, with min_pairs or more."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != y.shape:
        raise LengthMismatch(f"series lengths differ: {x.shape} vs {y.shape}")
    if len(x) < min_pairs:
        raise LengthMismatch(f"{name} needs at least {min_pairs} pairs")
    if not (np.isfinite(x).all() and np.isfinite(y).all()):
        raise DataError(f"{name} needs finite values")
    return x, y


def bland_altman(x, y) -> tuple[float, float]:
    """(mean, sample SD) of the paired differences y - x."""
    x, y = _paired(x, y, 2, "Bland-Altman")
    d = y - x
    return float(d.mean()), float(d.std(ddof=1))


def spearman(x, y) -> float:
    """Spearman rank correlation; ties share averaged ranks."""
    x, y = _paired(x, y, 3, "Spearman")
    if (x == x[0]).all() or (y == y[0]).all():
        raise ZeroVariance("a series is constant under ranking")
    return float(spearmanr(x, y)[0])


def paired_t(x, y) -> tuple[float, float]:
    """Paired Student t on d = x - y; two-tailed p with n-1 dof."""
    x, y = _paired(x, y, 2, "paired t")
    d = x - y
    mean = d.mean()
    # scipy's own test for catastrophic cancellation in the variance
    if (d == d[0]).all() or np.abs(d - mean).max() < 10 * np.finfo(np.float64).eps * abs(mean):
        raise ZeroVariance("paired differences have zero variance to within rounding")
    res = ttest_rel(x, y)
    return float(res.statistic), float(res.pvalue)


def mann_whitney_u(x, y) -> tuple[float, float]:
    """U of the first sample (ties counted half) and a two-tailed p via the
    tie-corrected normal approximation with continuity correction."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if len(x) < 2 or len(y) < 2:
        raise LengthMismatch("both samples need at least 2 values")
    if not (np.isfinite(x).all() and np.isfinite(y).all()):
        raise DataError("Mann-Whitney U needs finite values")
    res = mannwhitneyu(x, y, alternative="two-sided", method="asymptotic",
                       use_continuity=True)
    return float(res.statistic), float(res.pvalue)


# ---------------------------------------------------------------------------
# report assembly
# ---------------------------------------------------------------------------

def case_row(case_id: str, method: str, pred_final: Mask, gt_total: Mask,
             myo: Mask, gt_mvo: Mask | None):
    """Volume-level report row for one (case, method) prediction."""
    try:
        hd = hausdorff3d(pred_final, gt_total)
    except EmptyMask:
        hd = None
    try:
        pct = percent_infarct(pred_final, myo)
    except DivisionByZero:
        pct = None
    row = ReportRow(
        case_id=case_id,
        slice="all",
        method=method,
        dice_pct=100.0 * dice(pred_final, gt_total),
        hausdorff_mm=hd,
        scar_volume_cm3=scar_volume_cm3(pred_final),
        pct_infarct=pct,
    )
    if gt_mvo is not None and gt_mvo.count() > 0:
        row.mvo_sensitivity = mvo_sensitivity(pred_final, gt_mvo)
    return row

