"""Principal component analysis with a retained-variance cutoff."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .. import vio
from ..errors import DataError, DegenerateData, ShapeError
from ..volcore import real_array

VAR_FRAC = 0.95  # the share of the total variance the retained axes keep


@vio.model_kind("pca")
@dataclass
class PcaModel:
    mean: np.ndarray        # (D,)
    axes: np.ndarray        # (D, K), orthonormal columns
    variances: np.ndarray   # (K,), non-increasing
    k: int

    def __post_init__(self):
        k, arrays = self.k, (self.mean, self.axes, self.variances)
        if not (isinstance(k, (int, np.integer)) and not isinstance(k, bool) and k >= 1):
            raise TypeError(f"a PCA model's k is an int >= 1, not {k!r}")
        if not all(isinstance(a, np.ndarray) for a in arrays):
            raise TypeError("a PCA model's mean, axes and variances are arrays")
        if (self.mean.ndim != 1 or self.axes.shape != (len(self.mean), k)
                or self.variances.shape != (k,)):
            raise ShapeError(f"a PCA model with k={k} has mean {self.mean.shape}, "
                             f"axes {self.axes.shape} and variances {self.variances.shape}")
        if not all(np.isfinite(a).all() for a in arrays):
            raise DataError("a PCA model's mean, axes and variances must be finite")


def pca_fit(x: np.ndarray) -> PcaModel:
    """Eigendecomposition of the sample covariance; K is minimal with
    cumulative variance fraction >= ``VAR_FRAC``.

    Axis signs are fixed (largest-magnitude component positive) so fits
    are reproducible. Raises DataError on a non-finite sample.
    """
    x = real_array(x)
    if x.ndim != 2 or x.shape[0] < 2:
        raise DegenerateData("PCA needs an N x D matrix with N >= 2")
    if not np.isfinite(x).all():
        raise DataError("PCA needs finite samples")
    mean = x.mean(axis=0)
    xc = x - mean
    cov = xc.T @ xc / (x.shape[0] - 1)
    evals, evecs = np.linalg.eigh(cov)
    order = np.argsort(evals)[::-1]
    evals = np.clip(evals[order], 0.0, None)
    evecs = evecs[:, order]
    total = evals.sum()
    if total <= 0.0:
        raise DegenerateData("all observations are identical")
    cum = np.cumsum(evals) / total
    k = int(np.searchsorted(cum, VAR_FRAC - 1e-12) + 1)
    axes = evecs[:, :k]
    flip = axes[np.abs(axes).argmax(axis=0), np.arange(k)] < 0
    # C order, as a loaded model has it: BLAS rounds the projection by layout
    axes = np.ascontiguousarray(axes * np.where(flip, -1.0, 1.0))
    return PcaModel(mean=mean, axes=axes, variances=evals[:k], k=k)


def pca_project(model: PcaModel, x: np.ndarray) -> np.ndarray:
    """Project a vector or an (N, D) batch onto the retained axes. Raises
    ShapeError unless the sample width is the model's D."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim not in (1, 2) or x.shape[-1] != len(model.mean):
        raise ShapeError(f"samples of shape {x.shape} for a {len(model.mean)}-wide PCA model")
    return (x - model.mean) @ model.axes
