"""The nine reference segmentation algorithms: n-SD thresholding from
remote myocardium (n = 1..6), Otsu, FWHM, and a two-component Gaussian
mixture thresholded at two SD above the healthy mean.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DegenerateData, DegenerateHistogram, EmptyMask, EmptyRegion
from .volcore import (
    LabeledCase,
    Mask,
    bounding_box,
    check_aligned,
    intensity_levels,
    otsu_threshold,
)

N_SECTORS = 6
BASELINE_METHODS = ("1-sd", "2-sd", "3-sd", "4-sd", "5-sd", "6-sd", "otsu", "fwhm", "gmm")


def sector_index(myo: np.ndarray, cy: float, cx: float, origin) -> np.ndarray:
    """Sector of each pixel of myo about (cy, cx); myo's top-left pixel sits
    at ``origin = (y, x)`` of the slice."""
    y0, x0 = origin
    yy, xx = np.mgrid[y0 : y0 + myo.shape[0], x0 : x0 + myo.shape[1]]
    angle = np.degrees(np.arctan2(yy - cy, xx - cx)) % 360.0
    return np.minimum((angle / (360.0 / N_SECTORS)).astype(int), N_SECTORS - 1)


def auto_remote_region(img: np.ndarray, myo: np.ndarray, endo: np.ndarray) -> np.ndarray:
    """The remote (healthy reference) myocardium as a bool mask: the darkest
    of six angular sectors about the endocardial centroid, or about the
    myocardial centroid when ``endo`` is empty.

    The six 60-degree sectors are anchored at angle 0 (the +x axis of the
    slice), so the selection depends on image orientation: a left-right
    flip maps sector edges onto sector edges, but a 90-degree rotation
    moves them by 30 degrees and can pick another sector. Ties break toward
    the lowest sector index; sectors partition the myocardium exactly. The
    centroid comes from the whole reference mask; the sectors are built on
    ``bounding_box(myo, 0)`` only, in slice coordinates, so each myocardial
    pixel gets its whole-slice angle and each sector's intensities keep
    their order.
    """
    myo = np.asarray(myo, dtype=bool)
    if not myo.any():
        raise EmptyMask("remote selection needs a non-empty myocardium")
    endo = np.asarray(endo, dtype=bool)
    ref = endo if endo.any() else myo
    coords = np.argwhere(ref)
    cy, cx = coords.mean(axis=0)
    y0, y1, x0, x1 = bounding_box(myo, 0)
    crop = (slice(y0, y1), slice(x0, x1))
    myo_crop = myo[crop]
    sectors = sector_index(myo_crop, cy, cx, (y0, x0))
    img = np.asarray(img, dtype=np.float64)[crop]
    best_idx, best_mean = None, np.inf
    for s in range(N_SECTORS):
        members = myo_crop & (sectors == s)
        if not members.any():
            continue
        mean = float(img[members].mean())
        if mean < best_mean:
            best_idx, best_mean = s, mean
    mask = np.zeros(myo.shape, dtype=bool)
    mask[crop] = myo_crop & (sectors == best_idx)
    return mask


def nsd_segment(img: np.ndarray, myo: np.ndarray, remote: np.ndarray, n: int) -> np.ndarray:
    """Threshold at mean + n * SD of the intensities under the bool mask
    ``remote`` (strict >)."""
    if n < 1:
        raise ConfigError(f"n must be >= 1, got {n}")
    img = np.asarray(img, dtype=np.float64)
    values = img[np.asarray(remote, dtype=bool)]
    if values.size == 0:
        raise EmptyRegion("remote region is empty")
    t = float(values.mean()) + n * float(values.std(ddof=0))
    return (img > t) & np.asarray(myo, dtype=bool)


def fwhm_segment(img: np.ndarray, myo: np.ndarray) -> np.ndarray:
    """Threshold at half the maximum myocardial intensity (inclusive)."""
    myo = np.asarray(myo, dtype=bool)
    if not myo.any():
        raise EmptyMask("FWHM needs a non-empty myocardium")
    img = np.asarray(img, dtype=np.float64)
    t = 0.5 * float(img[myo].max())
    return (img >= t) & myo


def otsu_segment(img: np.ndarray, myo: np.ndarray) -> np.ndarray:
    """Otsu threshold of the raw (un-enhanced) myocardial histogram."""
    myo = np.asarray(myo, dtype=bool)
    if not myo.any():
        raise EmptyMask("Otsu needs a non-empty myocardium")
    img = np.asarray(img, dtype=np.float64)
    t = otsu_threshold(img[myo])
    return (intensity_levels(img) > t) & myo


# ---------------------------------------------------------------------------
# Gaussian mixture
# ---------------------------------------------------------------------------

MAX_EM_ITERATIONS = 200
EM_TOLERANCE = 1e-6
_SIGMA_FLOOR = 1e-8


@dataclass
class Gmm2:
    """Two-component 1-D Gaussian mixture; component 0 is the lower-mean
    (healthy) one."""

    weights: tuple[float, float]
    means: tuple[float, float]
    sds: tuple[float, float]
    log_likelihood_trace: list = field(default_factory=list)
    converged: bool = True

    @property
    def healthy_mean(self) -> float:
        return self.means[0]

    @property
    def healthy_sd(self) -> float:
        return self.sds[0]


def _log_normal_pdf(x, mu, sd):
    return -0.5 * np.log(2.0 * np.pi * sd * sd) - (x - mu) ** 2 / (2.0 * sd * sd)


def gmm_fit(values: np.ndarray) -> Gmm2:
    """EM fit initialized from the Otsu split of the intensity histogram;
    runs to a log-likelihood change below 1e-6 or 200 iterations."""
    x = np.asarray(values, dtype=np.float64).ravel()
    if x.size < 10 or float(x.std()) == 0.0:
        raise DegenerateData("GMM needs >= 10 samples with nonzero variance")
    try:
        t = otsu_threshold(x)
    except DegenerateHistogram as exc:
        raise DegenerateData(f"degenerate intensity histogram: {exc}") from exc
    lo = x[intensity_levels(x) <= t]
    hi = x[intensity_levels(x) > t]
    if lo.size == 0 or hi.size == 0:
        raise DegenerateData("Otsu initialization produced an empty class")

    pi = np.array([lo.size, hi.size], dtype=np.float64) / x.size
    mu = np.array([lo.mean(), hi.mean()])
    sd = np.maximum(np.array([lo.std(), hi.std()]), max(_SIGMA_FLOOR, 1e-3 * x.std()))

    trace = []
    converged = False
    for _ in range(MAX_EM_ITERATIONS):
        logp = np.stack(
            [np.log(pi[c]) + _log_normal_pdf(x, mu[c], sd[c]) for c in (0, 1)]
        )
        m = logp.max(axis=0)
        log_mix = m + np.log(np.exp(logp - m).sum(axis=0))
        ll = float(log_mix.sum())
        resp = np.exp(logp - log_mix)  # (2, N)
        nk = resp.sum(axis=1)
        pi = nk / x.size
        mu = (resp @ x) / nk
        var = (resp * (x[None, :] - mu[:, None]) ** 2).sum(axis=1) / nk
        sd = np.sqrt(np.maximum(var, _SIGMA_FLOOR**2))
        trace.append(ll)
        if len(trace) > 1 and abs(trace[-1] - trace[-2]) < EM_TOLERANCE:
            converged = True
            break
    order = np.argsort(mu)
    return Gmm2(
        weights=(float(pi[order[0]]), float(pi[order[1]])),
        means=(float(mu[order[0]]), float(mu[order[1]])),
        sds=(float(sd[order[0]]), float(sd[order[1]])),
        log_likelihood_trace=trace,
        converged=converged,
    )


def gmm_segment(img: np.ndarray, myo: np.ndarray, gmm: Gmm2) -> np.ndarray:
    """Threshold at two SD above the healthy-component mean (strict >)."""
    img = np.asarray(img, dtype=np.float64)
    t = gmm.healthy_mean + 2.0 * gmm.healthy_sd
    return (img > t) & np.asarray(myo, dtype=bool)


# ---------------------------------------------------------------------------
# batch runner
# ---------------------------------------------------------------------------

def run_baselines(case: LabeledCase, remote: Mask | None = None) -> dict[str, Mask]:
    """The nine methods of BASELINE_METHODS over every slice of a
    preprocessed case.

    Slices where a method degenerates (empty myocardium, constant
    histogram) contribute empty masks. The n-SD family uses the provided
    remote mask within the myocardium, or auto_remote_region on slices
    where that is empty. Raises AlignmentError when remote is not on the
    case's grid.

    Every method's mask lies inside the myocardium and reads only
    myocardial intensities, so each method runs on ``bounding_box(myo, 0)``
    of the slice. The myocardial intensities keep their order there, so the
    means, SDs, histograms and mixture fits are the whole-slice ones.
    """
    if remote is not None:
        check_aligned(case.volume, remote)
    shape = case.volume.data.shape
    out = {m: np.zeros(shape, dtype=bool) for m in BASELINE_METHODS}
    for k in range(case.nz):
        y0, y1, x0, x1 = bounding_box(case.myocardium.data[k], 0)
        if y1 == y0:
            continue
        rows, cols = slice(y0, y1), slice(x0, x1)
        crop = (k, rows, cols)
        myo = case.myocardium.data[crop]
        img = case.volume.data[crop]
        ref = None if remote is None else remote.data[crop] & myo
        if ref is None or not ref.any():
            ref = auto_remote_region(case.volume.data[k], case.myocardium.data[k],
                                     case.endocardium.data[k])[rows, cols]
        for n in range(1, 7):
            out[f"{n}-sd"][crop] = nsd_segment(img, myo, ref, n)
        try:
            out["otsu"][crop] = otsu_segment(img, myo)
        except DegenerateHistogram:
            pass
        out["fwhm"][crop] = fwhm_segment(img, myo)
        try:
            out["gmm"][crop] = gmm_segment(img, myo, gmm_fit(img[myo]))
        except DegenerateData:
            pass
    return {m: Mask(case.volume.spacing, data) for m, data in out.items()}
