"""Core grid types and per-slice image operations.

Volumes are stored as (nz, ny, nx) float64 arrays so that the raw on-disk
layout (x fastest) matches C order; a "slice" everywhere in the toolkit is
a 2-D (ny, nx) array indexed [y, x].

Morphology ignores out-of-bounds footprint members: the min/max (AND/OR
for masks) at a pixel runs over the in-bounds samples only, which avoids
artificial bright or dark rims at the image edge.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy import ndimage as ndi

from .errors import AlignmentError, ConfigError, DataError, DegenerateHistogram, LengthMismatch

HIST_LEVELS = 256
INPUT_SCALE = 1.0 / (HIST_LEVELS - 1)  # conditions [0, 255] crops for the nets


# ---------------------------------------------------------------------------
# grid types
# ---------------------------------------------------------------------------

@dataclass
class _Grid:
    """3-D grid with physical voxel spacing (sx, sy, sz) in mm; data is
    (nz, ny, nx). Subclasses cast data before calling __post_init__."""

    spacing: tuple[float, float, float]
    data: np.ndarray

    def __post_init__(self):
        self.spacing = tuple(float(s) for s in self.spacing)
        if self.data.ndim != 3:
            raise DataError(f"expected 3-D grid, got ndim={self.data.ndim}")
        if min(self.data.shape) < 1:
            raise DataError(f"all dims must be >= 1, got shape {self.data.shape}")
        if len(self.spacing) != 3 or any(not np.isfinite(s) or s <= 0 for s in self.spacing):
            raise DataError(f"spacing components must be finite and > 0, got {self.spacing}")

    @property
    def dims(self) -> tuple[int, int, int]:
        """Voxel counts as (nx, ny, nz)."""
        nz, ny, nx = self.data.shape
        return (nx, ny, nz)

    @property
    def voxel_volume_mm3(self) -> float:
        sx, sy, sz = self.spacing
        return sx * sy * sz


class Volume(_Grid):
    """3-D scalar grid; data is float64."""

    def __post_init__(self):
        self.data = np.asarray(self.data, dtype=np.float64)
        super().__post_init__()
        if not np.all(np.isfinite(self.data)):
            raise DataError("volume data contains NaN or Inf")


class Mask(_Grid):
    """Binary companion grid of a Volume; same dims and spacing."""

    def __post_init__(self):
        self.data = np.asarray(self.data).astype(bool)
        super().__post_init__()

    def count(self) -> int:
        return int(np.count_nonzero(self.data))


def check_aligned(*grids) -> None:
    """Raise AlignmentError unless all grids share dims and spacing."""
    ref = grids[0]
    for g in grids[1:]:
        if g.data.shape != ref.data.shape or g.spacing != ref.spacing:
            raise AlignmentError(
                f"grids are not aligned: {g.data.shape}/{g.spacing} vs "
                f"{ref.data.shape}/{ref.spacing}"
            )


def real_array(values) -> np.ndarray:
    """values as a float64 array. Raises DataError for values that are not
    bool, integer or floating-point numbers, such as text or objects."""
    values = np.asarray(values)
    if values.dtype.kind not in "biuf":
        raise DataError(f"expected real numbers, not an array of {values.dtype}")
    return values.astype(np.float64, copy=False)


def check_shapes(**arrays) -> None:
    """Raise AlignmentError unless the named slices or stacks share one shape."""
    shapes = {name: np.shape(a) for name, a in arrays.items()}
    if len(set(shapes.values())) > 1:
        raise AlignmentError(f"slice shapes differ: {shapes}")


@dataclass
class LabeledCase:
    """A volume plus aligned contour masks and optional ground truth.

    The epicardium is ``myocardium | endocardium`` and is not stored. gt_scar
    is the hyper-enhanced region only; gt_mvo is the disjoint
    microvascular-obstruction region. A slice is "diseased" iff its gt_scar
    holds a voxel (``slice_label``); no label is stored, and a manifest's list
    of slice labels is ignored.
    """

    case_id: str
    volume: Volume
    myocardium: Mask
    endocardium: Mask
    gt_scar: Mask | None = None
    gt_mvo: Mask | None = None

    def __post_init__(self):
        grids = [self.volume, self.myocardium, self.endocardium]
        grids += [m for m in (self.gt_scar, self.gt_mvo) if m is not None]
        check_aligned(*grids)

    @property
    def nz(self) -> int:
        return self.volume.data.shape[0]

    def slice_label(self, k: int) -> str:
        """"diseased" iff gt_scar exists and holds a voxel on slice k."""
        if self.gt_scar is not None and self.gt_scar.data[k].any():
            return "diseased"
        return "healthy"


# ---------------------------------------------------------------------------
# structuring elements
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class StructuringElement:
    """2-D footprint as (dx, dy) integer offsets around the (0, 0) anchor."""

    offsets: tuple[tuple[int, int], ...]

    def __post_init__(self):
        if (0, 0) not in self.offsets:
            raise ConfigError("anchor offset (0, 0) must be a footprint member")

    def reflected(self) -> "StructuringElement":
        return StructuringElement(tuple((-dx, -dy) for dx, dy in self.offsets))


def make_disk_se(r: int) -> StructuringElement:
    """Disk footprint: all offsets with Euclidean norm <= r."""
    if r < 0:
        raise ConfigError("disk radius must be >= 0")
    offs = [
        (dx, dy)
        for dy in range(-r, r + 1)
        for dx in range(-r, r + 1)
        if dx * dx + dy * dy <= r * r
    ]
    return StructuringElement(tuple(offs))


def make_bar_se(length: int, theta_deg: float) -> StructuringElement:
    """Linear footprint of `length` collinear pixels along direction theta.

    The bar is rasterized by stepping along the dominant axis of
    (cos theta, -sin theta) with the minor coordinate rounded. For even
    lengths the extra pixel sits on the positive direction.
    """
    if length < 1:
        raise ConfigError("bar length must be >= 1")
    theta = np.deg2rad(theta_deg)
    ux, uy = np.cos(theta), -np.sin(theta)
    offs = []
    steps = range(-((length - 1) // 2), length // 2 + 1)
    if abs(ux) >= abs(uy):
        ratio = uy / ux if ux != 0 else 0.0
        sign = 1 if ux >= 0 else -1
        for s in steps:
            dx = sign * s
            offs.append((dx, int(np.floor(dx * ratio + 0.5))))
    else:
        ratio = ux / uy
        sign = 1 if uy >= 0 else -1
        for s in steps:
            dy = sign * s
            offs.append((int(np.floor(dy * ratio + 0.5)), dy))
    return StructuringElement(tuple(offs))


# ---------------------------------------------------------------------------
# morphology, hole filling and crops
# ---------------------------------------------------------------------------

def _shift_reduce(img: np.ndarray, offsets, ufunc, init, box=None) -> np.ndarray:
    """Accumulate ufunc of img shifted by each offset, in img's dtype.

    img is a slice or a stack of slices (..., ny, nx); offsets shift the
    last two axes. The output covers ``box = (y0, y1, x0, x1)`` of each
    slice (half-open; None is the whole slice). Out-of-bounds samples of img
    are skipped; the anchor guarantees every pixel receives at least one
    in-bounds sample. Each box pixel reduces the same samples in the same
    order as in the whole-slice call, so the box is a crop of that output.
    """
    ny, nx = img.shape[-2:]
    by0, by1, bx0, bx1 = (0, ny, 0, nx) if box is None else box
    out = np.full(img.shape[:-2] + (by1 - by0, bx1 - bx0), init, dtype=img.dtype)
    for dx, dy in offsets:
        y0, y1 = max(by0, -dy), min(by1, ny - dy)
        x0, x1 = max(bx0, -dx), min(bx1, nx - dx)
        if y0 >= y1 or x0 >= x1:
            continue
        src = img[..., y0 + dy : y1 + dy, x0 + dx : x1 + dx]
        dst = out[..., y0 - by0 : y1 - by0, x0 - bx0 : x1 - bx0]
        ufunc(dst, src, out=dst)
    return out


def white_tophat(img: np.ndarray, se: StructuringElement, box=None) -> np.ndarray:
    """Image minus its opening; keeps bright structures thinner than se.

    img is a slice or a stack of slices (..., ny, nx), each opened on its
    own. Returns the top-hat on ``box = (y0, y1, x0, x1)`` of each slice
    only (None is the whole slice); a stack shares one box, such as the
    union of its slices' boxes. The dilation at p reads the erosion at
    p - o for each footprint offset o = (dx, dy), so the erosion runs on the
    box grown by max(dy) rows above, -min(dy) below, max(dx) columns left
    and -min(dx) right, clipped to the slice. Both stages read the whole
    slice, and every p - o inside the slice lies inside the grown box, so
    each box pixel gets the whole-slice value, whatever else the box holds.
    Raises DataError unless img has two or more axes and finite values.
    """
    img = real_array(img)
    if img.ndim < 2:
        raise DataError(f"a top-hat is of a slice or a stack, not shape {img.shape}")
    if not np.isfinite(img).all():
        raise DataError("the top-hat needs finite intensities")
    ny, nx = img.shape[-2:]
    y0, y1, x0, x1 = (0, ny, 0, nx) if box is None else box
    dxs, dys = zip(*se.offsets)
    gy0, gx0 = max(y0 - max(dys), 0), max(x0 - max(dxs), 0)
    grown = (gy0, min(y1 - min(dys), ny), gx0, min(x1 - min(dxs), nx))
    eroded = _shift_reduce(img, se.offsets, np.minimum, np.inf, grown)
    opened = _shift_reduce(eroded, se.reflected().offsets, np.maximum, -np.inf,
                           (y0 - gy0, y1 - gy0, x0 - gx0, x1 - gx0))
    return img[..., y0:y1, x0:x1] - opened


def binary_erode(mask: np.ndarray, se: StructuringElement) -> np.ndarray:
    """AND of the mask over the footprint placed at each pixel."""
    return _shift_reduce(np.asarray(mask, dtype=bool), se.offsets, np.logical_and, True)


def binary_dilate(mask: np.ndarray, se: StructuringElement) -> np.ndarray:
    """OR of the mask over the footprint reflected through the anchor."""
    return _shift_reduce(np.asarray(mask, dtype=bool), se.reflected().offsets, np.logical_or, False)


def binary_opening(mask: np.ndarray, se: StructuringElement) -> np.ndarray:
    return binary_dilate(binary_erode(mask, se), se)


_FOUR_CONNECTED = ndi.generate_binary_structure(2, 1)


def fill_holes_2d(mask: np.ndarray) -> np.ndarray:
    """Add background regions not 4-connected to the slice border, on a
    slice or on each slice of a stack (..., ny, nx) alone. Raises DataError
    on fewer than two axes."""
    mask = np.asarray(mask, dtype=bool)
    if mask.ndim < 2:
        raise DataError(f"holes are filled in a slice or a stack, not shape {mask.shape}")
    structure = _FOUR_CONNECTED.reshape((1,) * (mask.ndim - 2) + (3, 3))
    return ndi.binary_fill_holes(mask, structure=structure)


def bounding_box(mask: np.ndarray, margin: int) -> tuple[int, int, int, int]:
    """(y0, y1, x0, x1): the half-open bounding box of a 2-D mask grown by
    margin pixels on every side and clipped to the slice; (0, 0, 0, 0) for
    an empty mask. Raises DataError unless the mask is 2-D."""
    mask = np.asarray(mask, dtype=bool)
    if mask.ndim != 2:
        raise DataError(f"a bounding box is taken of a 2-D mask, not shape {mask.shape}")
    rows = np.flatnonzero(mask.any(axis=1))
    cols = np.flatnonzero(mask.any(axis=0))
    if not len(rows):
        return (0, 0, 0, 0)
    ny, nx = mask.shape
    return (max(int(rows[0]) - margin, 0), min(int(rows[-1]) + 1 + margin, ny),
            max(int(cols[0]) - margin, 0), min(int(cols[-1]) + 1 + margin, nx))


def pad_for_patches(img: np.ndarray, size: int) -> np.ndarray:
    """img zero-padded so that the size x size crop centred on (y, x), rows
    y - size // 2 up to, not including, that plus size and likewise columns,
    has its top-left corner at (y, x)."""
    half = size // 2
    return np.pad(img, ((half, size - 1 - half),) * 2)


def extract_patches(img: np.ndarray, ys, xs, size: int) -> np.ndarray:
    """Zero-padded size x size crops of img, one centred on each (ys[i],
    xs[i]), stacked as (n, size, size); see ``pad_for_patches``. Raises
    DataError for an image that is not 2-D, a size below 1, and centres that
    are not integers or lie off the slice; LengthMismatch when ``ys`` and
    ``xs`` differ in shape."""
    ys, xs = np.asarray(ys), np.asarray(xs)
    if np.ndim(img) != 2:
        raise DataError(f"patches are cut from a 2-D image, not shape {np.shape(img)}")
    if size < 1:
        raise DataError(f"a patch is at least 1 px wide, not {size}")
    if ys.shape != xs.shape:
        raise LengthMismatch(f"patch centre rows {ys.shape} and columns {xs.shape} do not pair up")
    if ys.size and not (ys.dtype.kind in "iu" and xs.dtype.kind in "iu"):
        raise DataError(f"patch centres must be integers, not {ys.dtype} and {xs.dtype}")
    if ys.size and not (0 <= np.min(ys) <= np.max(ys) < img.shape[0]
                        and 0 <= np.min(xs) <= np.max(xs) < img.shape[1]):
        raise DataError("a patch centre lies off the slice")
    windows = sliding_window_view(pad_for_patches(img, size), (size, size))
    return windows[ys.astype(np.intp, copy=False), xs.astype(np.intp, copy=False)]


# ---------------------------------------------------------------------------
# histogram and Otsu threshold
# ---------------------------------------------------------------------------

def intensity_levels(values: np.ndarray) -> np.ndarray:
    """Map [0, 255] float intensities to integer levels (round half up)."""
    v = np.floor(np.asarray(values, dtype=np.float64) + 0.5)
    return np.clip(v, 0, HIST_LEVELS - 1).astype(np.int64)


def otsu_threshold(values: np.ndarray) -> int:
    """Level t maximizing between-class variance of the {<=t, >t} split of
    the 256-bin histogram of ``intensity_levels(values)``.

    Ties break toward the smaller t; foreground is levels strictly above t.
    Raises DataError when a sample is NaN or infinite.
    """
    values = real_array(values)
    if not np.isfinite(values).all():
        raise DataError("Otsu's threshold needs finite intensities")
    counts = np.bincount(intensity_levels(values).ravel(), minlength=HIST_LEVELS).astype(float)
    total = counts.sum()
    if total < 2 or np.count_nonzero(counts) < 2:
        raise DegenerateHistogram("histogram needs >= 2 samples in >= 2 levels")
    p = counts / total
    levels = np.arange(HIST_LEVELS, dtype=np.float64)
    w0 = np.cumsum(p)[:-1]  # weight of class {<= t}, t = 0..254
    mu_cum = np.cumsum(p * levels)[:-1]
    mu_total = float((p * levels).sum())
    w1 = 1.0 - w0
    valid = (w0 > 0) & (w1 > 0)
    var_b = np.zeros(HIST_LEVELS - 1)
    num = mu_total * w0 - mu_cum
    var_b[valid] = num[valid] ** 2 / (w0[valid] * w1[valid])
    return int(np.argmax(var_b))
