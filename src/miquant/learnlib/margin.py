"""Linear max-margin classifier trained by deterministic subgradient
descent on the regularized hinge loss.
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .. import vio
from ..errors import DataError, LengthMismatch, ShapeError, SingleClassError
from ..volcore import real_array

MARGIN_LAMBDA = 1e-3  # weight of the L2 term of the hinge objective
MARGIN_EPOCHS = 400


@vio.model_kind("margin")
@dataclass
class MarginModel:
    w: np.ndarray
    b: float
    lam: float
    objective_trace: list = field(default_factory=list)  # per-epoch objective

    def __post_init__(self):
        if not (isinstance(self.w, np.ndarray) and self.w.ndim == 1):
            raise ShapeError(f"a margin model's w is a 1-D array, not {type(self.w).__name__} "
                             f"of shape {np.shape(self.w)}")
        if not all(isinstance(v, numbers.Real) and not isinstance(v, bool)
                   for v in (self.b, self.lam)):
            raise TypeError(f"a margin model's b and lam are real numbers, not "
                            f"{self.b!r} and {self.lam!r}")
        if not (np.isfinite(self.w).all() and math.isfinite(self.b) and math.isfinite(self.lam)):
            raise DataError("a margin model's w, b and lam must be finite")


def _samples(x) -> np.ndarray:
    x = real_array(x)
    if x.ndim != 2:
        raise ShapeError(f"expected (N, D) samples, got shape {x.shape}")
    return x


def hinge_objective(w: np.ndarray, b: float, x: np.ndarray, y: np.ndarray, lam: float) -> float:
    margins = 1.0 - y * (x @ w + b)
    return 0.5 * lam * float(w @ w) + float(np.mean(np.maximum(margins, 0.0)))


def margin_train(x: np.ndarray, y: np.ndarray) -> MarginModel:
    """Full-batch subgradient descent on (N, D) samples for MARGIN_EPOCHS
    epochs at regularization MARGIN_LAMBDA, with decaying steps and iterate
    averaging; the returned model is the averaged iterate.

    The per-epoch objective of the running average is stored on the model
    as ``objective_trace``, which a model file keeps. Raises DataError on a
    non-finite sample and LengthMismatch unless ``y`` has one label a row.
    """
    x = _samples(x)
    y = real_array(y)
    if not np.isfinite(x).all():
        raise DataError("margin training needs finite samples")
    if y.shape != x.shape[:1]:
        raise LengthMismatch(f"labels of shape {y.shape} for {len(x)} samples")
    classes = np.unique(y)
    if not (len(classes) == 2 and set(classes) == {-1.0, 1.0}):
        raise SingleClassError(f"labels must contain both -1 and +1, got {classes}")

    n, d = x.shape
    # scale-aware base step: hinge subgradients are O(mean |x|)
    base = 1.0 / max(1e-12, float(np.abs(x).mean()))
    w = np.zeros(d)
    b = 0.0
    w_avg = np.zeros(d)
    b_avg = 0.0
    trace = []
    for t in range(1, MARGIN_EPOCHS + 1):
        margins = 1.0 - y * (x @ w + b)
        active = margins > 0.0
        gw = MARGIN_LAMBDA * w
        gb = 0.0
        if active.any():
            gw = gw - (y[active, None] * x[active]).sum(axis=0) / n
            gb = -float(y[active].sum()) / n
        step = base / (1.0 + 0.1 * t)
        w = w - step * gw
        b = b - step * gb
        w_avg += (w - w_avg) / t
        b_avg += (b - b_avg) / t
        trace.append(hinge_objective(w_avg, b_avg, x, y, MARGIN_LAMBDA))
    return MarginModel(w=w_avg, b=b_avg, lam=MARGIN_LAMBDA, objective_trace=trace)


def margin_decide(model: MarginModel, x: np.ndarray) -> np.ndarray:
    """Signed decision value of each (N, D) row; the ROC-sweepable score.
    Raises ShapeError unless D is the model's width."""
    x = _samples(x)
    if x.shape[1] != len(model.w):
        raise ShapeError(f"samples of shape {x.shape} for a {len(model.w)}-wide margin model")
    return x @ model.w + model.b
