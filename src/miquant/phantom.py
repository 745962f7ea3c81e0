"""Synthetic short-axis LGE-like cases with known ground truth.

Each slice is an annular myocardium around a bright blood pool. Diseased
specs add an endocardium-adjacent scar sector (hyper-enhanced, Gaussian
intensities) and optionally a dark microvascular-obstruction core carved
out of the sector's inner part, enclosed by scar and blood pool. Healthy
myocardium is Rayleigh distributed.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
from scipy.ndimage import gaussian_filter

from .errors import SpecError
from .volcore import LabeledCase, Mask, Volume


@dataclass(frozen=True)
class PhantomSpec:
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
    mvo_depth_frac: float = 0.5    # of the scar's transmural depth
    mvo_angle_margin: float = 0.25  # angular margin on each sector side
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
        if self.inner_radius_mm <= 0 or self.inner_radius_mm >= self.outer_radius_mm:
            raise SpecError("need 0 < inner radius < outer radius")
        if self.mvo and not self.scar:
            raise SpecError("MVO requires a scar")
        if self.scar:
            if not (0.0 < self.scar_transmural <= 1.0):
                raise SpecError("transmural fraction must be in (0, 1]")
            if not (0.0 < self.scar_extent_deg <= 360.0):
                raise SpecError("scar extent must be in (0, 360] degrees")
            if self.scar_mu <= self.healthy_sigma:
                raise SpecError("scar mean must exceed the healthy intensity mode")
        if self.mvo and not (0.0 < self.mvo_depth_frac < 1.0):
            raise SpecError("MVO depth fraction must be in (0, 1)")


def generate_case(spec: PhantomSpec, seed: int, case_id: str = "phantom") -> LabeledCase:
    """Deterministic labeled case for (spec, seed); the seed is required."""
    spec.validate()
    rng = np.random.default_rng(seed)
    nx, ny, nz = spec.dims
    sx, sy, sz = spec.spacing

    vol = np.empty((nz, ny, nx))
    myo = np.zeros((nz, ny, nx), dtype=bool)
    endo = np.zeros((nz, ny, nx), dtype=bool)
    scar = np.zeros((nz, ny, nx), dtype=bool)
    mvo = np.zeros((nz, ny, nx), dtype=bool)

    yy, xx = np.mgrid[0:ny, 0:nx]
    for k in range(nz):
        jx, jy = rng.uniform(-spec.center_jitter_mm, spec.center_jitter_mm, size=2)
        cx = (nx - 1) / 2.0 + jx / sx
        cy = (ny - 1) / 2.0 + jy / sy
        rho = np.hypot((xx - cx) * sx, (yy - cy) * sy)
        endo_k = rho <= spec.inner_radius_mm
        myo_k = (rho > spec.inner_radius_mm) & (rho <= spec.outer_radius_mm)
        scar_k = np.zeros_like(myo_k)
        mvo_k = np.zeros_like(myo_k)
        if spec.scar:
            angle = np.degrees(np.arctan2(yy - cy, xx - cx)) % 360.0
            rel = (angle - spec.scar_start_deg) % 360.0
            thickness = spec.outer_radius_mm - spec.inner_radius_mm
            depth = spec.scar_transmural * thickness
            in_sector = rel < spec.scar_extent_deg
            scar_k = myo_k & in_sector & (rho <= spec.inner_radius_mm + depth)
            if spec.mvo:
                margin = spec.mvo_angle_margin * spec.scar_extent_deg
                core_sector = (rel >= margin) & (rel < spec.scar_extent_deg - margin)
                core_depth = spec.mvo_depth_frac * depth
                mvo_k = scar_k & core_sector & (rho <= spec.inner_radius_mm + core_depth)

        background = rng.rayleigh(spec.background_sigma, size=(ny, nx))
        healthy = rng.rayleigh(spec.healthy_sigma, size=(ny, nx))
        bright = rng.normal(spec.scar_mu, spec.scar_sigma, size=(ny, nx))
        pool = rng.normal(spec.bloodpool_mu, spec.bloodpool_sigma, size=(ny, nx))
        dark = rng.normal(spec.mvo_mu, spec.mvo_sigma, size=(ny, nx))

        img = background
        img[myo_k] = healthy[myo_k]
        img[scar_k] = bright[scar_k]
        img[mvo_k] = dark[mvo_k]
        img[endo_k] = pool[endo_k]
        if spec.blur_sigma_px > 0:
            img = gaussian_filter(img, spec.blur_sigma_px, mode="nearest")
        vol[k] = np.clip(img, 0.0, None)
        myo[k], endo[k] = myo_k, endo_k
        scar[k], mvo[k] = scar_k & ~mvo_k, mvo_k

    labels = ["diseased" if scar[k].any() else "healthy" for k in range(nz)]
    return LabeledCase(
        case_id=case_id,
        volume=Volume(spec.spacing, vol),
        myocardium=Mask(spec.spacing, myo),
        endocardium=Mask(spec.spacing, endo),
        epicardium=Mask(spec.spacing, myo | endo),
        gt_scar=Mask(spec.spacing, scar),
        gt_mvo=Mask(spec.spacing, mvo) if spec.mvo else None,
        per_slice_labels=labels,
    )


@dataclass(frozen=True)
class CorpusSpec:
    """Randomized corpus: per-case geometry drawn from ranges."""

    n_cases: int = 30
    diseased_fraction: float = 1.0
    mvo_fraction: float = 0.4    # of diseased cases
    base: PhantomSpec = PhantomSpec()
    inner_radius_range: tuple[float, float] = (12.0, 16.0)
    thickness_range: tuple[float, float] = (9.0, 13.0)
    extent_range: tuple[float, float] = (80.0, 150.0)
    transmural_range: tuple[float, float] = (0.6, 1.0)
    seed: int = 0


def generate_corpus(corpus: CorpusSpec) -> list[LabeledCase]:
    """Deterministic list of cases; diseased ones first carry MVO cores."""
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
