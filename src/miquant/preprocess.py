"""Volume homogenization: denoise, reslice to the canonical grid, per-slice
intensity normalization inside the epicardium, and gamma enhancement.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataError, DegenerateRange, EmptyRegion, SpacingError
from .volcore import LabeledCase, Mask, Volume, bounding_box

CANONICAL_SPACING = (1.25, 1.25, 8.0)
NLM_PATCH_RADIUS = 1
NLM_SEARCH_RADIUS = 3
NLM_H_FACTOR = 0.6  # h = factor * sigma


@dataclass(frozen=True)
class PreprocessConfig:
    target_spacing: tuple[float, float, float] = CANONICAL_SPACING
    gamma: float = 1.5
    p_lo: float = 1.0   # percentile of myocardial intensities mapped to 0
    p_hi: float = 99.0  # percentile of blood-pool intensities mapped to 255

    def __post_init__(self):
        if any(s <= 0 for s in self.target_spacing):
            raise ConfigError(f"target spacing must be > 0, got {self.target_spacing}")
        if self.gamma <= 0:
            raise ConfigError(f"gamma must be > 0, got {self.gamma}")
        if not (0 <= self.p_lo < self.p_hi <= 100):
            raise ConfigError(f"percentiles must satisfy 0 <= p_lo < p_hi <= 100, "
                              f"got {self.p_lo} and {self.p_hi}")


def estimate_noise_sigma(img: np.ndarray) -> float:
    """Robust noise SD from the median absolute 5-point Laplacian.

    For iid Gaussian noise the Laplacian response is N(0, 20*sigma^2), so
    sigma = MAD(L) / 0.6745 / sqrt(20). Computed on the interior to avoid
    border effects; requires at least a 3x3 slice.
    """
    img = np.asarray(img, dtype=np.float64)
    if img.shape[0] < 3 or img.shape[1] < 3:
        raise DataError(f"noise estimation needs a slice of at least 3x3, got {img.shape}")
    lap = (
        img[:-2, 1:-1] + img[2:, 1:-1] + img[1:-1, :-2] + img[1:-1, 2:]
        - 4.0 * img[1:-1, 1:-1]
    )
    mad = float(np.median(np.abs(lap)))
    return mad / 0.6745 / np.sqrt(20.0)


def denoise_nlm(img: np.ndarray, sigma: float, box=None) -> np.ndarray:
    """Non-local means with Gaussian patch-distance weights, h = k * sigma.

    Each output pixel is a convex combination of the pixels in its search
    window; sigma = 0, or a sigma so small that h^2 underflows to 0,
    degenerates to the identity. Raises DataError for a non-finite sigma.

    Only the pixels of ``box = (y0, y1, x0, x1)`` (half-open) are denoised;
    the rest of the output is the input. ``None`` denoises the whole slice.
    Each patch distance is summed directly from the nine squared
    differences of its 3x3 patch: the three columns of each patch row
    first, then the three row sums. That sum depends only on the pixels
    around its own patch, not on where the box starts, so inside the box the
    output is the whole-slice result bit for bit (the reflect padding is the
    whole slice's), and pixels more than ``NLM_PATCH_RADIUS +
    NLM_SEARCH_RADIUS`` px outside the box do not change it. Raises
    DataError for a box that is inverted or leaves the slice.
    """
    img = np.asarray(img, dtype=np.float64)
    ny, nx = img.shape
    y0, y1, x0, x1 = (0, ny, 0, nx) if box is None else (int(v) for v in box)
    if not (0 <= y0 <= y1 <= ny and 0 <= x0 <= x1 <= nx):
        raise DataError(f"denoising box {box} is inverted or leaves the {ny}x{nx} slice")
    if not np.isfinite(sigma):
        raise DataError(f"noise sigma must be finite, got {sigma}")
    out = img.copy()
    h2 = (NLM_H_FACTOR * sigma) ** 2
    if sigma <= 0 or h2 == 0 or y0 == y1 or x0 == x1:
        return out
    pr, sr = NLM_PATCH_RADIUS, NLM_SEARCH_RADIUS
    pad = pr + sr
    padded = np.pad(img, pad, mode="reflect")
    k = 2 * pr + 1
    patch_n = k * k
    by, bx = y1 - y0, x1 - x0
    # the box grown by the patch radius, in padded coordinates
    gy, gx = y0 + sr, x0 + sr
    a = padded[gy : gy + by + 2 * pr, gx : gx + bx + 2 * pr]
    diff2 = np.empty(a.shape)
    rows = np.empty((by + 2 * pr, bx))
    d2 = np.empty((by, bx))
    w = np.empty((by, bx))
    acc = np.zeros((by, bx))
    wsum = np.zeros((by, bx))
    for dy in range(-sr, sr + 1):
        for dx in range(-sr, sr + 1):
            b = padded[gy + dy : gy + dy + by + 2 * pr, gx + dx : gx + dx + bx + 2 * pr]
            np.square(np.subtract(a, b, out=diff2), out=diff2)
            # each patch row's three columns, then each patch's three rows
            np.add(diff2[:, :bx], diff2[:, 1 : bx + 1], out=rows)
            for j in range(2, k):
                rows += diff2[:, j : j + bx]
            np.add(rows[:by], rows[1 : by + 1], out=d2)
            for i in range(2, k):
                d2 += rows[i : i + by]
            d2 /= patch_n
            np.exp(np.divide(d2, -h2, out=w), out=w)
            wsum += w
            w *= padded[pad + dy + y0 : pad + dy + y1, pad + dx + x0 : pad + dx + x1]
            acc += w
    out[y0:y1, x0:x1] = acc / wsum
    return out


def _reslice(grid, target_spacing, sample):
    """Resample grid in-plane to the target sx, sy with sample(data, rows,
    cols), where rows and cols are the source coordinates of the target
    grid, clipped to the slice. Same spacing: an unchanged copy.
    """
    sx, sy, sz = grid.spacing
    tx, ty, tz = target_spacing
    if abs(sz - tz) > 1e-9:
        raise SpacingError(f"through-plane resampling required ({sz} mm vs {tz} mm)")
    if abs(sx - tx) < 1e-12 and abs(sy - ty) < 1e-12:
        return grid.copy()
    nx, ny, _ = grid.dims
    rows = np.arange(max(1, int(round(ny * sy / ty)))) * ty / sy
    cols = np.arange(max(1, int(round(nx * sx / tx)))) * tx / sx
    data = sample(grid.data, np.clip(rows, 0, ny - 1), np.clip(cols, 0, nx - 1))
    return type(grid)(target_spacing, data)


def reslice(volume: Volume, target_spacing=CANONICAL_SPACING) -> Volume:
    """In-plane bilinear resample to the target sx, sy; z grid untouched.

    Raises SpacingError when sz differs from the target (through-plane
    resampling is out of scope).
    """
    return _reslice(volume, target_spacing, _bilinear)


def reslice_mask(mask: Mask, target_spacing=CANONICAL_SPACING) -> Mask:
    """Nearest-neighbor reslice; keeps masks binary."""
    return _reslice(mask, target_spacing, _nearest)


def _bilinear(data: np.ndarray, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    r0 = np.floor(rows).astype(int)[:, None]
    c0 = np.floor(cols).astype(int)
    r1 = np.minimum(r0 + 1, data.shape[1] - 1)
    c1 = np.minimum(c0 + 1, data.shape[2] - 1)
    fr = rows[:, None] - r0
    fc = cols - c0
    top = data[:, r0, c0] * (1 - fc) + data[:, r0, c1] * fc
    bot = data[:, r1, c0] * (1 - fc) + data[:, r1, c1] * fc
    return top * (1 - fr) + bot * fr


def _nearest(data: np.ndarray, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    r, c = (np.floor(x + 0.5).astype(int) for x in (rows, cols))
    return data[:, r[:, None], c]


def normalize_slice(
    img: np.ndarray,
    myo: np.ndarray,
    bloodpool: np.ndarray,
    cfg: PreprocessConfig = PreprocessConfig(),
) -> np.ndarray:
    """Affine map to [0, 255] anchored on the reference regions.

    The p_lo percentile of myocardial intensities goes to 0 and the p_hi
    percentile of blood-pool intensities to 255; everything is clamped, and
    pixels outside the epicardium (myo union blood pool) are zeroed.
    """
    img = np.asarray(img, dtype=np.float64)
    myo = np.asarray(myo, dtype=bool)
    bloodpool = np.asarray(bloodpool, dtype=bool)
    if not myo.any():
        raise EmptyRegion("myocardium reference region is empty")
    if not bloodpool.any():
        raise EmptyRegion("blood-pool reference region is empty")
    lo = float(np.percentile(img[myo], cfg.p_lo))
    hi = float(np.percentile(img[bloodpool], cfg.p_hi))
    if hi <= lo:
        raise DegenerateRange(f"reference range is degenerate (lo={lo}, hi={hi})")
    out = np.clip(255.0 * (img - lo) / (hi - lo), 0.0, 255.0)
    out[~(myo | bloodpool)] = 0.0
    return out


def gamma_enhance(img: np.ndarray, gamma: float) -> np.ndarray:
    """out = 255 * (in/255)^gamma on [0, 255]; endpoints fixed, monotone."""
    img = np.asarray(img, dtype=np.float64)
    return 255.0 * (np.clip(img, 0.0, 255.0) / 255.0) ** gamma


def preprocess_case(case: LabeledCase, cfg: PreprocessConfig = PreprocessConfig()) -> LabeledCase:
    """Denoise -> reslice -> per-slice normalize -> gamma.

    Masks are resliced nearest-neighbor. Slices whose reference regions are
    empty (no contoured heart) are zeroed rather than failing the case.

    Each slice is denoised only inside the bounding box of its myocardium
    and endocardium grown by 1 px (the noise level is still estimated on
    the whole slice). The output is the same as with whole-slice denoising,
    bit for bit: ``denoise_nlm`` sums each patch distance directly, so its
    box result does not depend on where the box lies; normalization zeroes
    every resliced pixel outside those two masks, and one inside them takes
    its nearest source pixel from inside them, so its bilinear taps lie
    within 1 px of the masks.
    """
    data = np.empty_like(case.volume.data)
    heart = case.myocardium.data | case.endocardium.data
    for k, img in enumerate(case.volume.data):
        data[k] = denoise_nlm(img, estimate_noise_sigma(img), bounding_box(heart[k], 1))
    vol = reslice(Volume(case.volume.spacing, data), cfg.target_spacing)

    def rs(mask):
        return None if mask is None else reslice_mask(mask, cfg.target_spacing)

    myo = rs(case.myocardium)
    endo = rs(case.endocardium)
    epi = rs(case.epicardium)
    gt_scar = rs(case.gt_scar)
    gt_mvo = rs(case.gt_mvo)

    out = np.empty_like(vol.data)
    for k in range(vol.data.shape[0]):
        try:
            normalized = normalize_slice(vol.data[k], myo.data[k], endo.data[k], cfg)
        except (EmptyRegion, DegenerateRange):
            out[k] = 0.0
            continue
        out[k] = gamma_enhance(normalized, cfg.gamma)

    return LabeledCase(
        case_id=case.case_id,
        volume=Volume(cfg.target_spacing, out),
        myocardium=myo,
        endocardium=endo,
        epicardium=epi,
        gt_scar=gt_scar,
        gt_mvo=gt_mvo,
        per_slice_labels=case.per_slice_labels,
    )
