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


def _box(data: np.ndarray) -> tuple[slice, slice, slice]:
    """The smallest box holding every voxel of a 3-D mask; empty for an
    empty mask."""
    box = []
    for axes in ((1, 2), (0, 2), (0, 1)):
        idx = np.flatnonzero(data.any(axis=axes))
        box.append(slice(int(idx[0]), int(idx[-1]) + 1) if len(idx) else slice(0, 0))
    return tuple(box)


class _Reference:
    """A reference mask measured once over a box that holds it: its voxel
    count, its voxels' coordinates and bounding box within the box, and the
    exact Euclidean distance in mm from every box voxel to the nearest
    reference voxel."""

    def __init__(self, data: np.ndarray, spacing, box):
        sx, sy, sz = spacing
        self.sampling = (sz, sy, sx)  # data is (z, y, x)
        self.box = box
        self.crop = data[box]
        self.coords = np.nonzero(self.crop)
        self.count = len(self.coords[0])
        if self.count:
            self.inner_box = _box(self.crop)
            self.edt = distance_transform_edt(~self.crop, sampling=self.sampling)

    def hausdorff(self, pred: np.ndarray) -> float:
        """Symmetric Hausdorff distance in mm between the reference and a
        non-empty prediction given as its crop of the box.

        Prediction to reference reads the reference's distances at the
        prediction's voxels. Reference to prediction takes the prediction's
        distance transform over the bounding box of prediction | reference
        and reads it at the reference's voxels: every voxel of either mask
        lies in that box, so its nearest voxel in the other mask does too.
        A prediction that holds every reference voxel is at distance 0 from
        each, so that direction needs no transform.
        """
        h_pr = self.edt[pred].max()
        if pred[self.coords].all():
            return float(h_pr)
        sub = tuple(slice(min(p.start, r.start), max(p.stop, r.stop))
                    for p, r in zip(_box(pred), self.inner_box))
        dist = distance_transform_edt(~pred[sub], sampling=self.sampling)
        h_rp = dist[tuple(c - s.start for c, s in zip(self.coords, sub))].max()
        return float(max(h_pr, h_rp))


def hausdorff3d(a: Mask, b: Mask) -> float:
    """Symmetric 3-D Hausdorff distance in mm under anisotropic spacing.

    Exact Euclidean distance transforms over the bounding box of A | B:
    every voxel of either mask lies in the box, so its nearest voxel in
    the other mask does too.
    """
    check_aligned(a, b)
    if a.count() == 0 or b.count() == 0:
        raise EmptyMask("Hausdorff distance is undefined for empty masks")
    box = _box(a.data | b.data)
    return _Reference(b.data, b.spacing, box).hausdorff(a.data[box])


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

_truth = (None, None, None)  # case_row's last GT: its copy, spacing and _Reference


def case_row(case_id: str, method: str, pred_final: Mask, gt_total: Mask,
             myo: Mask, gt_mvo: Mask | None):
    """Volume-level report row for one (case, method) prediction.

    The ground truth is measured once per case: case_row keeps a record of
    the last GT it was given (a copy, its spacing, and its distance
    transform over the bounding box of GT | myocardium | that call's
    prediction) and builds it anew when the GT differs by content or
    spacing, or when the prediction has voxels outside the box. Each row
    then takes one distance transform, of the prediction, for the
    GT-to-prediction distance; the other fields come from counts and from
    intersections within the box, which holds every predicted voxel. Every
    field equals the one from ``dice``, ``hausdorff3d``, ``scar_volume_cm3``,
    ``percent_infarct`` and ``mvo_sensitivity``. The prediction-to-GT
    distances come from a larger box than ``hausdorff3d``'s, so among
    equidistant nearest GT voxels the feature transform may pick another;
    at the canonical spacing (1.25, 1.25, 8 mm) every squared offset is
    exact in binary floating point, so the distance is the same.
    """
    global _truth
    check_aligned(pred_final, gt_total, myo, *([] if gt_mvo is None else [gt_mvo]))
    n_pred = pred_final.count()
    gt, spacing, ref = _truth
    if (gt_total.spacing != spacing or not np.array_equal(gt_total.data, gt)
            or np.count_nonzero(pred_final.data[ref.box]) != n_pred):
        # a copy in the caller's memory order, which keeps the comparison fast
        gt = gt_total.data.copy(order="K")
        ref = _Reference(gt, gt_total.spacing, _box(gt | myo.data | pred_final.data))
        _truth = gt, gt_total.spacing, ref
    pred = pred_final.data[ref.box]
    inter = int(np.count_nonzero(pred & ref.crop))
    n_myo = myo.count()
    row = ReportRow(
        case_id=case_id,
        slice="all",
        method=method,
        dice_pct=100.0 * (1.0 if n_pred == 0 and ref.count == 0
                          else 2.0 * inter / (n_pred + ref.count)),
        hausdorff_mm=ref.hausdorff(pred) if n_pred and ref.count else None,
        scar_volume_cm3=n_pred * pred_final.voxel_volume_mm3 / 1000.0,
        pct_infarct=100.0 * n_pred / n_myo if n_myo else None,
    )
    n_mvo = 0 if gt_mvo is None else gt_mvo.count()
    if n_mvo:
        row.mvo_sensitivity = int(np.count_nonzero(pred & gt_mvo.data[ref.box])) / n_mvo
    return row
