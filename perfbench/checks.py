"""Output invariants the benchmark checks on every case it runs.

Each check returns a list of problem strings; an empty list means the
outputs are correct.
"""
from __future__ import annotations

import math

import numpy as np

from miquant import vio


def _rounded(value):
    # write_report keeps four decimals and leaves undefined metrics blank
    if value is None or (isinstance(value, float) and math.isnan(value)):
        return None
    return float(f"{float(value):.4f}")


def check_segmentation(case_id, seg, baseline_masks, myo) -> list[str]:
    problems = []
    hyper, mvo, final = seg.hyper.data, seg.mvo.data, seg.final.data
    if (hyper & mvo).any():
        problems.append(f"{case_id}: hyper and mvo overlap")
    if not np.array_equal(final, hyper | mvo):
        problems.append(f"{case_id}: final != hyper | mvo")
    named = {"coarse": seg.coarse.data, "hyper": hyper, "mvo": mvo, "final": final}
    named.update({m: mask.data for m, mask in baseline_masks.items()})
    for name, data in named.items():
        if (data & ~myo.data).any():
            problems.append(f"{case_id}: {name} mask leaves the myocardium")
    return problems


def check_report(report, expected_keys, csv_path) -> list[str]:
    """One row per (case, method), Dice in [0, 100], and a CSV that reads
    back to the same rows."""
    problems = []
    keys = [(row.case_id, row.method) for row in report.rows]
    if sorted(keys) != sorted(expected_keys):
        problems.append(f"report rows {sorted(keys)} != expected {sorted(expected_keys)}")
    for row in report.rows:
        if row.dice_pct is None or not (0.0 <= row.dice_pct <= 100.0):
            problems.append(f"{row.case_id}/{row.method}: dice {row.dice_pct} outside [0, 100]")
    back = vio.read_report(csv_path).rows
    if len(back) != len(report.rows):
        problems.append(f"{csv_path}: {len(back)} rows read back, {len(report.rows)} written")
    for want, got in zip(report.rows, back):
        fields = ("dice_pct", "hausdorff_mm", "scar_volume_cm3", "pct_infarct",
                  "mvo_sensitivity")
        if ((want.case_id, want.slice, want.method) != (got.case_id, got.slice, got.method)
                or any(_rounded(getattr(want, f)) != getattr(got, f) for f in fields)):
            problems.append(f"{csv_path}: row {want.case_id}/{want.method} does not read back")
    return problems


def pairwise_auc(scores, labels) -> float:
    """Probability that a diseased slice outscores a healthy one, ties half:
    an independent reference for ``roc_curve``'s trapezoid AUC."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    pos, neg = scores[labels == 1], scores[labels == 0]
    diff = pos[:, None] - neg[None, :]
    return float(((diff > 0).sum() + 0.5 * (diff == 0).sum()) / diff.size)


def check_auc(auc, scores, labels) -> list[str]:
    ref = pairwise_auc(scores, labels)
    if not (0.0 <= auc <= 1.0) or abs(auc - ref) > 1e-12:
        return [f"roc_curve AUC {auc} != pairwise AUC {ref}"]
    return []
