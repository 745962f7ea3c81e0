"""Seeded phantom corpora for the benchmark workloads.

Each corpus is a fixed list of slots (case kind, in-plane spacing and a
geometry point). The slots spread over the geometry ranges of
``phantom.CorpusSpec``, so every seed gets the same mix and about the same
amount of work: the seed moves each geometry value by up to 2 %, turns the
scar sector, jitters the heart position per slice and draws the noise. A
corpus built from independent uniform draws instead makes the refine cost of
a handful of cases vary by tens of percent from seed to seed.
"""
from __future__ import annotations

import os
from dataclasses import dataclass, replace

import numpy as np

from miquant import phantom, vio

FINE = 1.25       # canonical in-plane spacing, mm
COARSE = 1.5625   # resliced to 1.25 mm by preprocessing
GEOMETRY_JITTER = 0.02


@dataclass(frozen=True)
class Slot:
    kind: str          # "mvo" (scar with an MVO core), "scar" or "healthy"
    spacing_mm: float
    inner_mm: float
    thickness_mm: float
    extent_deg: float = 120.0
    transmural: float = 0.8


def make_cases(slots, dims, seed: int, prefix: str):
    """One phantom case per slot; deterministic in (slots, dims, seed)."""
    cases = []
    for i, slot in enumerate(slots):
        rng = np.random.default_rng([seed, i])
        scale = rng.uniform(1.0 - GEOMETRY_JITTER, 1.0 + GEOMETRY_JITTER, size=4)
        inner = slot.inner_mm * scale[0]
        spec = replace(
            phantom.PhantomSpec(),
            dims=dims,
            spacing=(slot.spacing_mm, slot.spacing_mm, 8.0),
            inner_radius_mm=inner,
            outer_radius_mm=inner + slot.thickness_mm * scale[1],
            scar=slot.kind != "healthy",
            mvo=slot.kind == "mvo",
            scar_start_deg=rng.uniform(0.0, 360.0),
            scar_extent_deg=slot.extent_deg * scale[2],
            scar_transmural=min(1.0, slot.transmural * scale[3]),
        )
        case_seed = int(rng.integers(0, 2**63 - 1))
        cases.append(phantom.generate_case(spec, seed=case_seed,
                                           case_id=f"{prefix}{i:02d}_{slot.kind}"))
    return cases


def write_corpus(cases, root: str) -> list[str]:
    """Write each case under ``root``; returns the manifest paths in order."""
    return [vio.write_case(case, os.path.join(root, case.case_id)) for case in cases]
