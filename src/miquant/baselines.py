"""The nine reference segmentation algorithms: n-SD thresholding from
remote myocardium (n = 1..6), Otsu, FWHM, and a two-component Gaussian
mixture thresholded at two SD above the healthy mean.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    ConfigError,
    DataError,
    DegenerateData,
    DegenerateHistogram,
    EmptyMask,
    EmptyRegion,
)
from .volcore import (
    LabeledCase,
    Mask,
    bounding_box,
    check_shapes,
    intensity_levels,
    otsu_threshold,
    real_array,
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
    their order. Raises AlignmentError when img, myo and endo differ in
    shape and DataError unless they are 2-D.
    """
    check_shapes(img=img, myo=myo, endo=endo)
    myo = np.asarray(myo, dtype=bool)
    endo = np.asarray(endo, dtype=bool)
    if not np.ndim(img) == myo.ndim == endo.ndim == 2:
        raise DataError(f"remote selection takes 2-D slices, not shapes "
                        f"{np.shape(img)}, {myo.shape} and {endo.shape}")
    if not myo.any():
        raise EmptyMask("remote selection needs a non-empty myocardium")
    ref = endo if endo.any() else myo
    coords = np.argwhere(ref)
    cy, cx = coords.mean(axis=0)
    y0, y1, x0, x1 = bounding_box(myo, 0)
    crop = (slice(y0, y1), slice(x0, x1))
    myo_crop = myo[crop]
    sectors = sector_index(myo_crop, cy, cx, (y0, x0))
    img = real_array(img)[crop]
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
    ``remote`` (strict >). Raises DataError when one of them is NaN or
    infinite, and AlignmentError when img, myo and remote differ in shape."""
    if n < 1:
        raise ConfigError(f"n must be >= 1, got {n}")
    check_shapes(img=img, myo=myo, remote=remote)
    img = real_array(img)
    values = img[np.asarray(remote, dtype=bool)]
    if values.size == 0:
        raise EmptyRegion("remote region is empty")
    if not np.isfinite(values).all():
        raise DataError("the n-SD threshold needs finite remote intensities")
    t = float(values.mean()) + n * float(values.std(ddof=0))
    return (img > t) & np.asarray(myo, dtype=bool)


def fwhm_segment(img: np.ndarray, myo: np.ndarray) -> np.ndarray:
    """Threshold at half the maximum myocardial intensity (inclusive).
    Raises DegenerateData on constant myocardial intensities, where every
    voxel would pass, and AlignmentError when img and myo differ in shape."""
    check_shapes(img=img, myo=myo)
    myo = np.asarray(myo, dtype=bool)
    if not myo.any():
        raise EmptyMask("FWHM needs a non-empty myocardium")
    img = real_array(img)
    values = img[myo]
    top = float(values.max())
    if top == float(values.min()):
        raise DegenerateData("FWHM needs myocardial intensities that are not all equal")
    t = 0.5 * top
    return (img >= t) & myo


def otsu_segment(img: np.ndarray, myo: np.ndarray) -> np.ndarray:
    """Otsu threshold of the raw (un-enhanced) myocardial histogram; only
    myocardial intensities are read. Raises AlignmentError when img and myo
    differ in shape."""
    check_shapes(img=img, myo=myo)
    myo = np.asarray(myo, dtype=bool)
    if not myo.any():
        raise EmptyMask("Otsu needs a non-empty myocardium")
    values = real_array(img)[myo]
    t = otsu_threshold(values)
    out = np.zeros(myo.shape, dtype=bool)
    out[myo] = intensity_levels(values) > t
    return out


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


def _gmm_init(values) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(x, pi, mu, sd): the sample as float64 and the mixture parameters of
    its Otsu split; raises DegenerateData with no mixture to fit, DataError
    on a NaN or an infinity."""
    x = real_array(values).ravel()
    if not np.isfinite(x).all():
        raise DataError("GMM needs finite intensities")
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
    return x, pi, mu, sd


def gmm_fit_all(samples) -> list[Gmm2 | DegenerateData]:
    """gmm_fit on every sample, with one EM loop for all of them: a Gmm2
    per sample, or the DegenerateData that gmm_fit raises on it.

    The E- and M-step element work runs on the concatenated samples, with
    each sample's parameters repeated over its own run of elements, and a
    sample leaves the loop when it converges. Every fit equals, bit for
    bit, a plain EM loop on that sample alone: each element sees the same
    arithmetic, and each per-sample sum (log-likelihood, responsibilities,
    ``resp @ x``, the weighted squared deviations) is a reduction over
    that sample's own run of a C-ordered array, so it adds in the
    one-sample order. The squared deviations of an M-step serve the next
    E-step, and the two-component log-sum-exp is
    ``max + log(1 + exp(min - max))``: the larger term's exponential is
    exp(0) = 1 exactly, and addition commutes.
    """
    results: list[Gmm2 | DegenerateData | None] = [None] * len(samples)
    xs, inits, ids = [], [], []  # the samples that get a fit, and their indices
    for i, values in enumerate(samples):
        try:
            x, *params = _gmm_init(values)
        except DegenerateData as exc:
            results[i] = exc
            continue
        xs.append(x)
        inits.append(params)
        ids.append(i)
    if not ids:
        return results
    pi, mu, sd = (np.stack(p, axis=1) for p in zip(*inits))  # (2, active samples)
    traces = [[] for _ in ids]
    fits = [None] * len(ids)  # (pi, mu, sd, converged) of each sample that left
    active = list(range(len(ids)))

    def gather():
        """The active samples' elements, run lengths and runs."""
        sizes = np.array([xs[j].size for j in active])
        ends = np.cumsum(sizes).tolist()
        runs = [slice(end - n, end) for end, n in zip(ends, sizes.tolist())]
        return np.concatenate([xs[j] for j in active]), sizes, runs

    x, sizes, runs = gather()
    d2 = (x - np.repeat(mu, sizes, axis=1)) ** 2
    for _ in range(MAX_EM_ITERATIONS):
        # each sample's parameters over its run: C-ordered (2, elements) arrays
        log_pi, log_norm, two_var = np.repeat(
            np.stack([np.log(pi), -0.5 * np.log(2.0 * np.pi * sd * sd), 2.0 * sd * sd]),
            sizes, axis=2)
        logp = log_pi + (log_norm - d2 / two_var)
        top = np.maximum(logp[0], logp[1])
        log_mix = top + np.log(1.0 + np.exp(np.minimum(logp[0], logp[1]) - top))
        resp = np.exp(logp - log_mix)
        nk = np.empty_like(pi)
        rx = np.empty_like(pi)
        for col, run in enumerate(runs):
            traces[active[col]].append(float(log_mix[run].sum()))
            nk[:, col] = resp[:, run].sum(axis=1)
            rx[:, col] = resp[:, run] @ x[run]
        pi = nk / sizes
        mu = rx / nk
        d2 = (x - np.repeat(mu, sizes, axis=1)) ** 2
        weighted = resp * d2
        var = np.empty_like(pi)
        for col, run in enumerate(runs):
            var[:, col] = weighted[:, run].sum(axis=1)
        sd = np.sqrt(np.maximum(var / nk, _SIGMA_FLOOR**2))
        keep = []
        for col, j in enumerate(active):
            trace = traces[j]
            if len(trace) > 1 and abs(trace[-1] - trace[-2]) < EM_TOLERANCE:
                fits[j] = (pi[:, col], mu[:, col], sd[:, col], True)
            else:
                keep.append(col)
        if len(keep) < len(active):
            active = [active[col] for col in keep]
            if not active:
                break
            pi, mu, sd = (np.ascontiguousarray(p[:, keep]) for p in (pi, mu, sd))
            x, sizes, runs = gather()
            d2 = (x - np.repeat(mu, sizes, axis=1)) ** 2
    for col, j in enumerate(active):
        fits[j] = (pi[:, col], mu[:, col], sd[:, col], False)
    for j, i in enumerate(ids):
        pi_j, mu_j, sd_j, converged = fits[j]
        order = np.argsort(mu_j)
        results[i] = Gmm2(
            weights=(float(pi_j[order[0]]), float(pi_j[order[1]])),
            means=(float(mu_j[order[0]]), float(mu_j[order[1]])),
            sds=(float(sd_j[order[0]]), float(sd_j[order[1]])),
            log_likelihood_trace=traces[j],
            converged=converged,
        )
    return results


def gmm_fit(values: np.ndarray) -> Gmm2:
    """EM fit initialized from the Otsu split of the intensity histogram;
    runs to a log-likelihood change below 1e-6 or 200 iterations."""
    (fit,) = gmm_fit_all([values])
    if isinstance(fit, DegenerateData):
        raise fit
    return fit


def gmm_segment(img: np.ndarray, myo: np.ndarray, gmm: Gmm2) -> np.ndarray:
    """Threshold at two SD above the healthy-component mean (strict >)."""
    img = np.asarray(img, dtype=np.float64)
    t = gmm.means[0] + 2.0 * gmm.sds[0]
    return (img > t) & np.asarray(myo, dtype=bool)


# ---------------------------------------------------------------------------
# batch runner
# ---------------------------------------------------------------------------

def run_baselines(case: LabeledCase) -> dict[str, Mask]:
    """The nine methods of BASELINE_METHODS over every slice of a
    preprocessed case.

    Slices where a method degenerates (empty myocardium, constant
    intensities) contribute empty masks. The n-SD family takes its remote
    reference on each slice from auto_remote_region, the darkest sector.

    Every method's mask lies inside the myocardium and reads only
    myocardial intensities, so each method runs on ``bounding_box(myo, 0)``
    of the slice. The myocardial intensities keep their order there, so the
    means, SDs, histograms and mixture fits are the whole-slice ones. The
    mixture is fitted once per case: one ``gmm_fit_all`` over every slice's
    myocardial intensities, each fit equal to that slice's ``gmm_fit``.
    """
    shape = case.volume.data.shape
    out = {m: np.zeros(shape, dtype=bool) for m in BASELINE_METHODS}
    crops = []
    for k in range(case.nz):
        y0, y1, x0, x1 = bounding_box(case.myocardium.data[k], 0)
        if y1 == y0:
            continue
        rows, cols = slice(y0, y1), slice(x0, x1)
        crop = (k, rows, cols)
        myo = case.myocardium.data[crop]
        img = case.volume.data[crop]
        crops.append((crop, img, myo))
        ref = auto_remote_region(case.volume.data[k], case.myocardium.data[k],
                                 case.endocardium.data[k])[rows, cols]
        for n in range(1, 7):
            out[f"{n}-sd"][crop] = nsd_segment(img, myo, ref, n)
        try:
            out["otsu"][crop] = otsu_segment(img, myo)
        except DegenerateHistogram:
            pass
        try:
            out["fwhm"][crop] = fwhm_segment(img, myo)
        except DegenerateData:
            pass
    fits = gmm_fit_all([img[myo] for _, img, myo in crops])
    for (crop, img, myo), gmm in zip(crops, fits):
        if isinstance(gmm, Gmm2):
            out["gmm"][crop] = gmm_segment(img, myo, gmm)
    return {m: Mask(case.volume.spacing, data) for m, data in out.items()}
