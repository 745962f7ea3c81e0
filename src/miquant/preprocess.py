"""Volume homogenization: denoise, reslice to the canonical grid, per-slice
intensity normalization inside the epicardium, and gamma enhancement.
"""
from __future__ import annotations

import numpy as np

from .errors import DataError, DegenerateRange, EmptyRegion, SpacingError
from .volcore import LabeledCase, Mask, Volume, bounding_box, check_shapes

CANONICAL_SPACING = (1.25, 1.25, 8.0)
GAMMA = 1.5
P_LO = 1.0   # percentile of myocardial intensities mapped to 0
P_HI = 99.0  # percentile of blood-pool intensities mapped to 255
NLM_PATCH_RADIUS = 1
NLM_SEARCH_RADIUS = 3
NLM_H_FACTOR = 0.6  # h = factor * sigma


def estimate_noise_sigma(img: np.ndarray):
    """Robust noise SD from the median absolute 5-point Laplacian, one per
    slice of a slice or a stack of slices (..., ny, nx).

    For iid Gaussian noise the Laplacian response is N(0, 20*sigma^2), so
    sigma = MAD(L) / 0.6745 / sqrt(20). Computed on the interior to avoid
    border effects; requires slices of at least 3x3.
    """
    img = np.asarray(img, dtype=np.float64)
    if img.ndim < 2 or img.shape[-2] < 3 or img.shape[-1] < 3:
        raise DataError(f"noise estimation needs slices of at least 3x3, got {img.shape}")
    lap = (
        img[..., :-2, 1:-1] + img[..., 2:, 1:-1] + img[..., 1:-1, :-2] + img[..., 1:-1, 2:]
        - 4.0 * img[..., 1:-1, 1:-1]
    )
    return _median(np.abs(lap).reshape(*lap.shape[:-2], -1)) / 0.6745 / np.sqrt(20.0)


def _median(a: np.ndarray):
    """``np.median(a, axis=-1)`` of a float array, exactly, from a partition
    at one index rather than numpy's three (several times slower): the lower
    middle of an even count is the max of the half below it. A slice that
    holds a NaN gives NaN."""
    h = a.shape[-1] // 2
    part = np.partition(a, h, axis=-1)
    mid = part[..., h]
    if a.shape[-1] % 2 == 0:
        mid = (part[..., :h].max(axis=-1) + mid) / 2
    return np.where(np.isnan(a).any(axis=-1), np.nan, mid)[()]


def denoise_nlm(stack: np.ndarray, sigmas, box=None) -> np.ndarray:
    """Non-local means with Gaussian patch-distance weights, h = k * sigma,
    over a stack of slices (nz, ny, nx) with one noise sigma per slice.

    Each output pixel is a convex combination of the pixels in its search
    window on its own slice. A slice whose sigma is 0, or so small that h^2
    underflows to 0, is returned unchanged. Raises DataError for a sigma
    whose h^2 is not finite: a non-finite sigma, or one so large that h^2
    overflows.

    Only the pixels of ``box = (y0, y1, x0, x1)`` (half-open, one box for
    every slice) are denoised; the rest of the output is the input. ``None``
    denoises whole slices. Each patch distance is summed directly from the
    nine squared differences of its 3x3 patch: the three columns of each
    patch row first, then the three row sums. That sum depends only on the
    pixels around its own patch, not on where the box starts, so inside the
    box the output is the whole-slice result bit for bit (the reflect
    padding is the whole slice's), and pixels more than ``NLM_PATCH_RADIUS +
    NLM_SEARCH_RADIUS`` px outside the box do not change it. A box larger
    than a slice needs, such as the union of the boxes of a case's slices,
    only denoises more of it. Raises DataError for a box that is inverted or
    leaves the slices.

    The weight of offset o at pixel q equals the weight of -o at q + o
    (Darbon et al., ISBI 2008): both come from the same squared differences,
    as (a - b)^2 = (b - a)^2, summed in the same order. So each weight map
    is computed once per pair of offsets, on the box joined with its shift
    by -o, and the 49 offsets are accumulated in their usual order.
    """
    stack = np.asarray(stack, dtype=np.float64)
    if stack.ndim != 3:
        raise DataError(f"denoising needs a stack of slices, got shape {stack.shape}")
    nz, ny, nx = stack.shape
    sigmas = np.asarray(sigmas, dtype=np.float64)
    if sigmas.shape != (nz,):
        raise DataError(f"{sigmas.size} noise sigmas for {nz} slices")
    y0, y1, x0, x1 = (0, ny, 0, nx) if box is None else (int(v) for v in box)
    if not (0 <= y0 <= y1 <= ny and 0 <= x0 <= x1 <= nx):
        raise DataError(f"denoising box {box} is inverted or leaves the {ny}x{nx} slices")
    with np.errstate(over="ignore"):
        # a scalar's ** 2 is pow(), which can round an ulp away from the
        # x * x that an array's ** 2 computes; keep the scalar's rounding
        h2 = np.array([(NLM_H_FACTOR * sigma) ** 2 for sigma in sigmas])
    if not np.isfinite(h2).all():
        raise DataError(f"noise sigmas must give a finite h^2, got {sigmas}")
    out = stack.copy()
    live = (sigmas > 0) & (h2 > 0)
    if not live.any() or y0 == y1 or x0 == x1:
        return out
    pr, sr = NLM_PATCH_RADIUS, NLM_SEARCH_RADIUS
    pad = pr + sr
    padded = np.pad(stack[live], ((0, 0), (pad, pad), (pad, pad)), mode="reflect")
    neg_h2 = -h2[live, None, None]
    k = 2 * pr + 1
    patch_n = k * k
    by, bx = y1 - y0, x1 - x0
    acc = np.zeros((len(padded), by, bx))
    wsum = np.zeros((len(padded), by, bx))
    wv = np.empty((len(padded), by, bx))
    offsets = [(dy, dx) for dy in range(-sr, sr + 1) for dx in range(-sr, sr + 1)]
    maps = {}
    for i, (dy, dx) in enumerate(offsets):
        j = len(offsets) - 1 - i  # the index of -o
        if i <= j:
            # the weights of o on the box and on the box shifted by -o, in
            # padded coordinates grown by the patch radius
            ry, rx = by + abs(dy), bx + abs(dx)
            gy, gx = y0 - max(dy, 0) + sr, x0 - max(dx, 0) + sr
            a = padded[:, gy : gy + ry + 2 * pr, gx : gx + rx + 2 * pr]
            b = padded[:, gy + dy : gy + dy + ry + 2 * pr, gx + dx : gx + dx + rx + 2 * pr]
            diff2 = np.square(a - b)
            # each patch row's three columns, then each patch's three rows
            rows = diff2[:, :, :rx] + diff2[:, :, 1 : rx + 1]
            for c in range(2, k):
                rows += diff2[:, :, c : c + rx]
            d2 = rows[:, :ry] + rows[:, 1 : ry + 1]
            for r in range(2, k):
                d2 += rows[:, r : r + ry]
            d2 /= patch_n
            maps[i] = np.exp(np.divide(d2, neg_h2, out=d2), out=d2)
        # w_o(p) = w_-o(p + o): in either map of the pair, the box of o
        # starts max(dy, 0) rows and max(dx, 0) columns in
        oy, ox = max(dy, 0), max(dx, 0)
        w = maps[i] if i <= j else maps.pop(j)
        w = w[:, oy : oy + by, ox : ox + bx]
        wsum += w
        np.multiply(w, padded[:, pad + dy + y0 : pad + dy + y1, pad + dx + x0 : pad + dx + x1],
                    out=wv)
        acc += wv
    out[live, y0:y1, x0:x1] = acc / wsum
    return out


def _reslice(grid, sample, box=None):
    """Resample grid in-plane to CANONICAL_SPACING's sx, sy with
    sample(data, rows, cols), where rows and cols are the source coordinates
    of the canonical grid, clipped to the slice. Same spacing (within the
    tolerances below): an unchanged copy on the canonical spacing. Only the
    target pixels of ``box = (y0, y1, x0, x1)`` are computed and returned
    (None: the whole grid); each depends only on its own coordinates.
    """
    sx, sy, sz = grid.spacing
    tx, ty, tz = CANONICAL_SPACING
    if abs(sz - tz) > 1e-9:
        raise SpacingError(f"through-plane resampling required ({sz} mm vs {tz} mm)")
    nx, ny, _ = grid.dims
    if abs(sx - tx) < 1e-12 and abs(sy - ty) < 1e-12:
        y0, y1, x0, x1 = (0, ny, 0, nx) if box is None else box
        return type(grid)(CANONICAL_SPACING, grid.data[:, y0:y1, x0:x1].copy())
    rows = np.arange(max(1, int(round(ny * sy / ty)))) * ty / sy
    cols = np.arange(max(1, int(round(nx * sx / tx)))) * tx / sx
    if box is not None:
        y0, y1, x0, x1 = box
        rows, cols = rows[y0:y1], cols[x0:x1]
    data = sample(grid.data, np.clip(rows, 0, ny - 1), np.clip(cols, 0, nx - 1))
    return type(grid)(CANONICAL_SPACING, data)


def reslice(volume: Volume, box=None) -> Volume:
    """In-plane bilinear resample to CANONICAL_SPACING's sx, sy; z grid
    untouched. With ``box = (y0, y1, x0, x1)`` in target pixels, the volume
    holds only that part of the resampled slices.

    Raises SpacingError when sz differs from CANONICAL_SPACING's
    (through-plane resampling is out of scope).
    """
    return _reslice(volume, _bilinear, box)


def reslice_mask(mask: Mask) -> Mask:
    """Nearest-neighbor reslice to CANONICAL_SPACING; keeps masks binary."""
    return _reslice(mask, _nearest)


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
    return np.take(np.take(data, r, axis=1), c, axis=2)


def normalize_slice(img: np.ndarray, myo: np.ndarray, bloodpool: np.ndarray) -> np.ndarray:
    """Affine map to [0, 255] anchored on the reference regions.

    The P_LO percentile of myocardial intensities goes to 0 and the P_HI
    percentile of blood-pool intensities to 255; everything is clamped, and
    pixels outside the epicardium (myo union blood pool) are zeroed.
    Raises DataError when a reference intensity is NaN or infinite, and
    AlignmentError when img, myo and bloodpool differ in shape.
    """
    check_shapes(img=img, myo=myo, bloodpool=bloodpool)
    img = np.asarray(img, dtype=np.float64)
    myo = np.asarray(myo, dtype=bool)
    bloodpool = np.asarray(bloodpool, dtype=bool)
    if not myo.any():
        raise EmptyRegion("myocardium reference region is empty")
    if not bloodpool.any():
        raise EmptyRegion("blood-pool reference region is empty")
    if not np.isfinite(img[myo | bloodpool]).all():
        raise DataError("normalization needs finite reference intensities")
    lo = float(np.percentile(img[myo], P_LO))
    hi = float(np.percentile(img[bloodpool], P_HI))
    if hi <= lo:
        raise DegenerateRange(f"reference range is degenerate (lo={lo}, hi={hi})")
    out = np.clip(255.0 * (img - lo) / (hi - lo), 0.0, 255.0)
    out[~(myo | bloodpool)] = 0.0
    return out


def gamma_enhance(img: np.ndarray, gamma: float) -> np.ndarray:
    """out = 255 * (in/255)^gamma on [0, 255]; endpoints fixed, monotone."""
    img = np.asarray(img, dtype=np.float64)
    return 255.0 * (np.clip(img, 0.0, 255.0) / 255.0) ** gamma


def preprocess_case(case: LabeledCase) -> LabeledCase:
    """Denoise -> reslice to CANONICAL_SPACING -> per-slice normalize (P_LO,
    P_HI) -> gamma (GAMMA), each stage once over the stack of slices.

    Masks are resliced nearest-neighbor. Slices whose reference regions are
    empty (no contoured heart) are zeroed rather than failing the case.

    Each stage computes only a heart box shared by all slices. Denoising
    runs on the bounding box of every slice's myocardium and endocardium
    grown by 1 px (each slice's noise level is still estimated on the whole
    slice). Reslicing, normalization and gamma run on the bounding box of
    the resliced myocardium and endocardium of every slice, and the rest of
    the output is 0. The output is the same as with whole-slice stages, bit
    for bit: normalization zeroes every pixel outside a slice's own
    myocardium and endocardium; a resliced pixel inside them takes its
    nearest source pixel from inside them, so its bilinear taps lie within
    1 px of the masks, inside the denoising box; and ``denoise_nlm`` sums
    each patch distance directly, so its result at a pixel does not depend
    on the box. A union box only adds pixels that a slice computes and
    normalization then zeroes.
    """
    stack = case.volume.data
    heart = case.myocardium.data | case.endocardium.data
    data = denoise_nlm(stack, estimate_noise_sigma(stack), bounding_box(heart.any(axis=0), 1))

    def rs(mask):
        return None if mask is None else reslice_mask(mask)

    myo = rs(case.myocardium)
    endo = rs(case.endocardium)
    epi = rs(case.epicardium)
    gt_scar = rs(case.gt_scar)
    gt_mvo = rs(case.gt_mvo)

    out = np.zeros(myo.data.shape)
    y0, y1, x0, x1 = box = bounding_box((myo.data | endo.data).any(axis=0), 0)
    if y1 > y0:
        crop = (slice(None), slice(y0, y1), slice(x0, x1))
        vol = reslice(Volume(case.volume.spacing, data), box=box)
        normalized = np.zeros(vol.data.shape)
        for k, (img, m, e) in enumerate(zip(vol.data, myo.data[crop], endo.data[crop])):
            try:
                normalized[k] = normalize_slice(img, m, e)
            except (EmptyRegion, DegenerateRange):
                pass  # the slice stays 0, which gamma keeps
        out[crop] = gamma_enhance(normalized, GAMMA)

    return LabeledCase(
        case_id=case.case_id,
        volume=Volume(CANONICAL_SPACING, out),
        myocardium=myo,
        endocardium=endo,
        epicardium=epi,
        gt_scar=gt_scar,
        gt_mvo=gt_mvo,
        per_slice_labels=case.per_slice_labels,
    )
