"""Segmentation evaluation: overlap and surface distances, clinical
markers, agreement statistics, and hypothesis tests.

Ranks, the Mann-Whitney test and the Student t tail come from
``scipy.stats`` and ``scipy.special``.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.ndimage import distance_transform_edt
from scipy.special import betainc
from scipy.stats import mannwhitneyu, rankdata

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


# ---------------------------------------------------------------------------
# agreement statistics
# ---------------------------------------------------------------------------

def bland_altman(x, y) -> tuple[float, float]:
    """(mean, sample SD) of the paired differences y - x."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != y.shape:
        raise LengthMismatch(f"series lengths differ: {x.shape} vs {y.shape}")
    if len(x) < 2:
        raise LengthMismatch("Bland-Altman needs at least 2 pairs")
    d = y - x
    return float(d.mean()), float(d.std(ddof=1))


def spearman(x, y) -> float:
    """Pearson correlation of average ranks (ties share averaged ranks)."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != y.shape:
        raise LengthMismatch("series lengths differ")
    if len(x) < 3:
        raise LengthMismatch("Spearman needs at least 3 pairs")
    rx = rankdata(x)
    ry = rankdata(y)
    rx -= rx.mean()
    ry -= ry.mean()
    denom = math.sqrt(float((rx**2).sum()) * float((ry**2).sum()))
    if denom == 0.0:
        raise ZeroVariance("a series is constant under ranking")
    return float((rx * ry).sum() / denom)


# ---------------------------------------------------------------------------
# hypothesis tests
# ---------------------------------------------------------------------------

def student_t_sf_two_tailed(t: float, dof: int) -> float:
    """Two-tailed p for a Student t statistic."""
    return float(betainc(dof / 2.0, 0.5, dof / (dof + t * t)))


def mann_whitney_u(x, y) -> tuple[float, float]:
    """U of the first sample (ties counted half) and a two-tailed p via the
    tie-corrected normal approximation with continuity correction."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if len(x) < 2 or len(y) < 2:
        raise LengthMismatch("both samples need at least 2 values")
    res = mannwhitneyu(x, y, alternative="two-sided", method="asymptotic",
                       use_continuity=True)
    return float(res.statistic), float(res.pvalue)


def paired_t(x, y) -> tuple[float, float]:
    """Paired Student t on d = x - y; two-tailed p with n-1 dof."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != y.shape:
        raise LengthMismatch("series lengths differ")
    n = len(x)
    if n < 2:
        raise LengthMismatch("paired t needs at least 2 pairs")
    d = x - y
    sd = float(d.std(ddof=1))
    if sd == 0.0:
        raise ZeroVariance("paired differences have zero variance")
    t = float(d.mean()) / (sd / math.sqrt(n))
    return t, student_t_sf_two_tailed(t, n - 1)


# ---------------------------------------------------------------------------
# classification and MVO metrics
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ConfusionCounts:
    tp: int
    fp: int
    tn: int
    fn: int

    def __post_init__(self):
        if min(self.tp, self.fp, self.tn, self.fn) < 0:
            raise DataError(f"confusion counts must be non-negative, got {self}")

    @property
    def total(self) -> int:
        return self.tp + self.fp + self.tn + self.fn


def sens_spec_acc(c: ConfusionCounts) -> tuple[float, float, float]:
    if c.tp + c.fn == 0 or c.tn + c.fp == 0 or c.total == 0:
        raise EmptyDenominator("confusion table has an empty margin")
    se = c.tp / (c.tp + c.fn)
    sp = c.tn / (c.tn + c.fp)
    acc = (c.tp + c.tn) / c.total
    return se, sp, acc


def mvo_sensitivity(pred: Mask, gt_mvo: Mask) -> float:
    check_aligned(pred, gt_mvo)
    denom = gt_mvo.count()
    if denom == 0:
        raise EmptyDenominator("MVO sensitivity needs a non-empty GT region")
    return int(np.count_nonzero(pred.data & gt_mvo.data)) / denom


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


def summarize(report) -> dict:
    """Per-method mean/SD of every metric plus volume agreement with the
    'manual' rows (Spearman rho, Bland-Altman bias, paired-t p)."""
    methods: dict[str, dict[str, list]] = {}
    manual_vols: dict[str, float] = {}
    for row in report.rows:
        if row.method == "manual":
            manual_vols[row.case_id] = row.scar_volume_cm3
            continue
        rec = methods.setdefault(
            row.method,
            {"dice_pct": [], "hausdorff_mm": [], "scar_volume_cm3": [],
             "pct_infarct": [], "mvo_sensitivity": [], "case_ids": []},
        )
        for key in ("dice_pct", "hausdorff_mm", "scar_volume_cm3",
                    "pct_infarct", "mvo_sensitivity"):
            value = getattr(row, key)
            if value is not None:
                rec[key].append(value)
        rec["case_ids"].append((row.case_id, row.scar_volume_cm3))

    summary: dict[str, dict] = {}
    for method, rec in sorted(methods.items()):
        entry = {}
        for key in ("dice_pct", "hausdorff_mm", "scar_volume_cm3",
                    "pct_infarct", "mvo_sensitivity"):
            vals = rec[key]
            if vals:
                arr = np.asarray(vals)
                entry[key] = {
                    "mean": float(arr.mean()),
                    "sd": float(arr.std(ddof=1)) if len(arr) > 1 else 0.0,
                    "n": len(arr),
                }
        paired = [
            (manual_vols[cid], vol)
            for cid, vol in rec["case_ids"]
            if cid in manual_vols and vol is not None
        ]
        if len(paired) >= 3:
            manual = [p[0] for p in paired]
            pred = [p[1] for p in paired]
            agreement = {}
            try:
                agreement["spearman_rho"] = spearman(manual, pred)
            except ZeroVariance:
                agreement["spearman_rho"] = None
            bias_mean, bias_sd = bland_altman(manual, pred)
            agreement["ba_bias_mean"] = bias_mean
            agreement["ba_bias_sd"] = bias_sd
            try:
                _, p = paired_t(pred, manual)
                agreement["paired_t_p"] = p
            except ZeroVariance:
                agreement["paired_t_p"] = None
            entry["volume_agreement"] = agreement
        summary[method] = entry
    return summary
