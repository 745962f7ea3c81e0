"""Synthetic short-axis LGE-like cases with known ground truth.

Each slice is an annular myocardium around a bright blood pool. Diseased
specs add an endocardium-adjacent scar sector (hyper-enhanced, Gaussian
intensities) and optionally a dark microvascular-obstruction core carved
out of the sector's inner part, enclosed by scar and blood pool. Healthy
myocardium is Rayleigh distributed.
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, replace

import numpy as np
from scipy.ndimage import gaussian_filter

from .errors import SpecError
from .volcore import LabeledCase, Mask, Volume


@dataclass(frozen=True)
class PhantomSpec:
    """One phantom; the MVO core's size in the scar sector is two constants."""

    mvo_depth_frac = 0.5    # of the scar's transmural depth
    mvo_angle_margin = 0.25  # of the scar's extent, left free on each side

    dims: tuple[int, int, int] = (96, 96, 3)  # (nx, ny, nz)
    spacing: tuple[float, float, float] = (1.25, 1.25, 8.0)
    inner_radius_mm: float = 14.0
    outer_radius_mm: float = 26.0
    center_jitter_mm: float = 2.0
    scar: bool = False
    scar_start_deg: float = 20.0
    scar_extent_deg: float = 100.0
    scar_transmural: float = 0.8
    mvo: bool = False
    healthy_sigma: float = 40.0    # Rayleigh scale of normal myocardium
    scar_mu: float = 180.0
    scar_sigma: float = 25.0
    bloodpool_mu: float = 200.0
    bloodpool_sigma: float = 15.0
    mvo_mu: float = 50.0
    mvo_sigma: float = 15.0
    background_sigma: float = 10.0
    blur_sigma_px: float = 0.8

    def validate(self) -> None:
        """Raise SpecError unless the spec describes a phantom that can be
        drawn. The rules:

        - ``dims`` is three ints >= 1 and ``spacing`` three finite
          values > 0;
        - 0 < ``inner_radius_mm`` < ``outer_radius_mm``, both finite;
        - ``center_jitter_mm``, ``blur_sigma_px`` and the five intensity
          scales (the ``*_sigma`` fields) are finite and >= 0, and the
          three ``*_mu`` means are finite;
        - ``mvo`` needs ``scar``;
        - with ``scar``: ``scar_start_deg`` is finite, ``scar_transmural``
          is in (0, 1], ``scar_extent_deg`` in (0, 360], and ``scar_mu``
          exceeds ``healthy_sigma``.
        """
        if len(self.dims) != 3 or not all(_is_int_from(d, 1) for d in self.dims):
            raise SpecError(f"dims must be three ints >= 1, got {self.dims}")
        if len(self.spacing) != 3 or not all(0.0 < s < math.inf for s in self.spacing):
            raise SpecError(f"spacing must be three finite values > 0, got {self.spacing}")
        if not (0.0 < self.inner_radius_mm < self.outer_radius_mm < math.inf):
            raise SpecError("need 0 < inner radius < outer radius, both finite")
        for name in ("center_jitter_mm", "blur_sigma_px", "healthy_sigma", "scar_sigma",
                     "bloodpool_sigma", "mvo_sigma", "background_sigma"):
            if not (0.0 <= getattr(self, name) < math.inf):
                raise SpecError(f"{name} must be finite and >= 0, got {getattr(self, name)}")
        for name in ("scar_mu", "bloodpool_mu", "mvo_mu"):
            if not math.isfinite(getattr(self, name)):
                raise SpecError(f"{name} must be finite, got {getattr(self, name)}")
        if self.mvo and not self.scar:
            raise SpecError("MVO requires a scar")
        if self.scar:
            if not math.isfinite(self.scar_start_deg):
                raise SpecError(f"scar start must be finite, got {self.scar_start_deg}")
            if not (0.0 < self.scar_transmural <= 1.0):
                raise SpecError("transmural fraction must be in (0, 1]")
            if not (0.0 < self.scar_extent_deg <= 360.0):
                raise SpecError("scar extent must be in (0, 360] degrees")
            if self.scar_mu <= self.healthy_sigma:
                raise SpecError("scar mean must exceed the healthy intensity mode")


def _is_int_from(value, low: int) -> bool:
    return isinstance(value, numbers.Integral) and not isinstance(value, bool) and value >= low


def _heart_span(centre: float, reach_px: float, n: int) -> slice:
    """The pixels of one axis that can lie within ``reach_px`` of
    ``centre``, with one pixel to spare on each side, clipped to [0, n)."""
    lo = min(max(math.floor(centre - reach_px) - 1, 0), n)
    hi = min(max(math.ceil(centre + reach_px) + 2, lo), n)
    return slice(lo, hi)


def generate_case(spec: PhantomSpec, seed: int, case_id: str = "phantom") -> LabeledCase:
    """Deterministic labeled case for (spec, seed); the seed is required and
    must be an int >= 0 (SpecError otherwise).

    Each slice draws from one generator in a fixed order: the two centre
    jitter uniforms, then whole-slice background, healthy, bright (scar),
    blood-pool and dark (MVO) fields, all five even where the spec reads
    fewer. Any change to that order changes every later slice.

    A slice's geometry is computed only on its heart box, the pixels that
    can lie within ``outer_radius_mm`` of the slice's centre (see
    ``_heart_span``): the radius map on the box, and the sector angle only
    where scar can lie (myocardium within the scar's depth). Every mask is
    False off the box, and each field is copied into the background where
    its mask holds, myocardium, scar, MVO, then blood pool.
    """
    spec.validate()
    if not _is_int_from(seed, 0):
        raise SpecError(f"seed must be an int >= 0, got {seed!r}")
    rng = np.random.default_rng(seed)
    nx, ny, nz = spec.dims
    sx, sy, sz = spec.spacing
    r_in, r_out = spec.inner_radius_mm, spec.outer_radius_mm
    depth = spec.scar_transmural * (r_out - r_in)
    margin = spec.mvo_angle_margin * spec.scar_extent_deg
    core_depth = spec.mvo_depth_frac * depth

    vol = np.empty((nz, ny, nx))
    myo = np.zeros((nz, ny, nx), dtype=bool)
    endo = np.zeros((nz, ny, nx), dtype=bool)
    scar = np.zeros((nz, ny, nx), dtype=bool)
    mvo = np.zeros((nz, ny, nx), dtype=bool)

    for k in range(nz):
        jx, jy = rng.uniform(-spec.center_jitter_mm, spec.center_jitter_mm, size=2)
        cx = (nx - 1) / 2.0 + jx / sx
        cy = (ny - 1) / 2.0 + jy / sy
        box = ys, xs = _heart_span(cy, r_out / sy, ny), _heart_span(cx, r_out / sx, nx)
        yy = np.arange(ys.start, ys.stop)[:, None]
        xx = np.arange(xs.start, xs.stop)
        rho = np.hypot((xx - cx) * sx, (yy - cy) * sy)
        endo_k = rho <= r_in
        myo_k = (rho > r_in) & (rho <= r_out)
        scar_k = np.zeros_like(myo_k)
        mvo_k = np.zeros_like(myo_k)
        if spec.scar:
            iy, ix = np.nonzero(myo_k & (rho <= r_in + depth))
            angle = np.degrees(np.arctan2(iy + ys.start - cy, ix + xs.start - cx)) % 360.0
            rel = (angle - spec.scar_start_deg) % 360.0
            in_sector = rel < spec.scar_extent_deg
            scar_k[iy, ix] = in_sector
            if spec.mvo:
                core_sector = (rel >= margin) & (rel < spec.scar_extent_deg - margin)
                mvo_k[iy, ix] = in_sector & core_sector & (rho[iy, ix] <= r_in + core_depth)

        background = rng.rayleigh(spec.background_sigma, size=(ny, nx))
        healthy = rng.rayleigh(spec.healthy_sigma, size=(ny, nx))
        bright = rng.normal(spec.scar_mu, spec.scar_sigma, size=(ny, nx))
        pool = rng.normal(spec.bloodpool_mu, spec.bloodpool_sigma, size=(ny, nx))
        dark = rng.normal(spec.mvo_mu, spec.mvo_sigma, size=(ny, nx))

        img = background
        for field, mask in ((healthy, myo_k), (bright, scar_k), (dark, mvo_k), (pool, endo_k)):
            np.copyto(img[box], field[box], where=mask)
        if spec.blur_sigma_px > 0:
            img = gaussian_filter(img, spec.blur_sigma_px, mode="nearest")
        np.clip(img, 0.0, None, out=vol[k])
        myo[k][box], endo[k][box] = myo_k, endo_k
        scar[k][box], mvo[k][box] = scar_k & ~mvo_k, mvo_k

    return LabeledCase(
        case_id=case_id,
        volume=Volume(spec.spacing, vol),
        myocardium=Mask(spec.spacing, myo),
        endocardium=Mask(spec.spacing, endo),
        gt_scar=Mask(spec.spacing, scar),
        gt_mvo=Mask(spec.spacing, mvo) if spec.mvo else None,
    )


@dataclass(frozen=True)
class CorpusSpec:
    """Randomized corpus: each case's geometry is drawn from constant ranges."""

    inner_radius_range = (12.0, 16.0)
    thickness_range = (9.0, 13.0)
    extent_range = (80.0, 150.0)
    transmural_range = (0.6, 1.0)

    n_cases: int = 30
    diseased_fraction: float = 1.0
    mvo_fraction: float = 0.4    # of diseased cases
    base: PhantomSpec = PhantomSpec()
    seed: int = 0

    def validate(self) -> None:
        """Raise SpecError unless ``n_cases`` is an int >= 1, both fractions
        are in [0, 1] and ``seed`` is an int >= 0."""
        if not _is_int_from(self.n_cases, 1):
            raise SpecError(f"n_cases must be an int >= 1, got {self.n_cases}")
        for name in ("diseased_fraction", "mvo_fraction"):
            if not (0.0 <= getattr(self, name) <= 1.0):
                raise SpecError(f"{name} must be in [0, 1], got {getattr(self, name)}")
        if not _is_int_from(self.seed, 0):
            raise SpecError(f"seed must be an int >= 0, got {self.seed}")


def generate_corpus(corpus: CorpusSpec) -> list[LabeledCase]:
    """Deterministic list of cases; diseased ones first carry MVO cores."""
    corpus.validate()
    rng = np.random.default_rng(corpus.seed)
    n_diseased = int(round(corpus.n_cases * corpus.diseased_fraction))
    n_mvo = int(round(n_diseased * corpus.mvo_fraction))
    cases = []
    for i in range(corpus.n_cases):
        diseased = i < n_diseased
        with_mvo = i < n_mvo
        inner = rng.uniform(*corpus.inner_radius_range)
        outer = inner + rng.uniform(*corpus.thickness_range)
        spec = replace(
            corpus.base,
            inner_radius_mm=inner,
            outer_radius_mm=outer,
            scar=diseased,
            scar_start_deg=rng.uniform(0, 360),
            scar_extent_deg=rng.uniform(*corpus.extent_range),
            scar_transmural=rng.uniform(*corpus.transmural_range),
            mvo=with_mvo,
        )
        case_seed = int(rng.integers(0, 2**63 - 1))
        cases.append(generate_case(spec, seed=case_seed, case_id=f"case_{i:03d}"))
    return cases
