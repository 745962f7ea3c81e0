"""Patch augmentation (rotation, shear, flips, scale) and class balancing."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import EmptyClassError

ROTATION_MAX_DEG = 20.0
SHEAR_MAX = 0.1
SCALE_RANGE = (0.9, 1.1)


@dataclass(frozen=True)
class AugmentParams:
    rotation_deg: float = 0.0
    shear: float = 0.0
    flip_h: bool = False
    flip_v: bool = False
    scale: float = 1.0


def draw_augment_params(rng: np.random.Generator) -> AugmentParams:
    return AugmentParams(
        rotation_deg=rng.uniform(-ROTATION_MAX_DEG, ROTATION_MAX_DEG),
        shear=rng.uniform(-SHEAR_MAX, SHEAR_MAX),
        flip_h=bool(rng.random() < 0.5),
        flip_v=bool(rng.random() < 0.5),
        scale=rng.uniform(*SCALE_RANGE),
    )


def apply_augment(patch: np.ndarray, params: AugmentParams) -> np.ndarray:
    """Resample the patch under flip . rotate . shear . scale about its
    center, bilinear with zero fill; output shape equals input shape.

    Identity parameters reproduce the patch exactly.
    """
    patch = np.asarray(patch, dtype=np.float64)
    ny, nx = patch.shape
    theta = np.deg2rad(params.rotation_deg)
    rot = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
    shear = np.array([[1.0, params.shear], [0.0, 1.0]])
    scale = np.array([[params.scale, 0.0], [0.0, params.scale]])
    flip = np.diag([-1.0 if params.flip_h else 1.0, -1.0 if params.flip_v else 1.0])
    fwd = flip @ rot @ shear @ scale
    inv = np.linalg.inv(fwd)

    cy, cx = (ny - 1) / 2.0, (nx - 1) / 2.0
    yy, xx = np.mgrid[0:ny, 0:nx].astype(np.float64)
    px = xx - cx
    py = yy - cy
    sx = inv[0, 0] * px + inv[0, 1] * py + cx
    sy = inv[1, 0] * px + inv[1, 1] * py + cy

    x0 = np.floor(sx).astype(int)
    y0 = np.floor(sy).astype(int)
    fx = sx - x0
    fy = sy - y0
    out = np.zeros((ny, nx))
    for dy in (0, 1):
        for dx in (0, 1):
            wgt = (fx if dx else 1 - fx) * (fy if dy else 1 - fy)
            xs = x0 + dx
            ys = y0 + dy
            inside = (xs >= 0) & (xs < nx) & (ys >= 0) & (ys < ny) & (wgt > 0)
            out[inside] += wgt[inside] * patch[ys[inside], xs[inside]]
    return out


def augment_dataset(x: np.ndarray, y: np.ndarray, copies: int, seed: int):
    """Append `copies` augmented variants of every sample; (N,H,W,1) in/out."""
    if copies <= 0:
        return x, y
    rng = np.random.default_rng(seed)
    extra = []
    labels = []
    for _ in range(copies):
        for i in range(len(x)):
            extra.append(apply_augment(x[i, :, :, 0], draw_augment_params(rng))[..., None])
            labels.append(y[i])
    return np.concatenate([x, np.stack(extra)]), np.concatenate([y, np.asarray(labels)])


def balance_classes(x: np.ndarray, y: np.ndarray, seed: int, cap: int | None = None):
    """Subsample both classes to the minority count, or to ``cap`` when
    that is smaller, keeping the original ordering; deterministic under
    seed.
    """
    y = np.asarray(y)
    classes = np.unique(y)
    if len(classes) != 2:
        raise EmptyClassError(f"need exactly two classes, got {classes}")
    idx_a = np.flatnonzero(y == classes[0])
    idx_b = np.flatnonzero(y == classes[1])
    if len(idx_a) == 0 or len(idx_b) == 0:
        raise EmptyClassError("one class is empty")
    rng = np.random.default_rng(seed)
    target = min(len(idx_a), len(idx_b))
    if cap is not None:
        target = min(target, cap)
    keep = []
    for idx in (idx_a, idx_b):
        if len(idx) > target:
            idx = rng.choice(idx, size=target, replace=False)
        keep.append(idx)
    order = np.sort(np.concatenate(keep))
    return x[order], y[order]
