"""Independent brute-force reference implementations used as test oracles.

Everything here is deliberately naive (footprint scans over a padded
slice, pair counting, exhaustive sweeps, central differences, argmax
pooling) and shares no code with the package paths it checks;
``grad_check`` differentiates the package's own loss, since that is the
function whose gradient it checks. The whole-slice oracles are the
pipeline's per-slice stages as they were before those stages learnt to
compute only the pixels they read. The preprocessing oracle calls the
package's reslicing and normalization on whole slices; the coarse oracle
scans its top-hat here. ``whole_slice_nlm`` sums each patch distance in the
same order as ``preprocess.denoise_nlm`` and so matches it bit for bit;
``integral_nlm`` keeps the integral-image sums that the package used before,
which round differently except on integer-valued slices. ``PaddedConv2D``
takes a convolution's input gradient as the full correlation over the
zero-padded output gradient, which the package computed before it took
that gradient per kernel tap. ``one_sample_em`` is the mixture fit's EM
loop on one sample, which the package ran per slice before it fitted every
slice of a case in one loop. ``cut_every_training_patch`` samples a case's
training patches as the package did before it drew the class balance on the
patch centres: it cuts every lattice patch of the whole-slice band first.
``whole_slice_phantom`` is ``phantom.generate_case`` as it was before it
computed each slice's geometry on the heart box only: radius and angle maps
over the whole slice, and the fields written by boolean-index assignment.
"""
from collections import deque

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy.ndimage import gaussian_filter

from miquant import baselines, preprocess, segment
from miquant.errors import (
    DegenerateData,
    DegenerateHistogram,
    DegenerateRange,
    EmptyRegion,
    ShapeError,
)
from miquant.learnlib import balance_classes, net_loss
from miquant.learnlib.net import Conv2D
from miquant.volcore import (
    LabeledCase,
    Mask,
    Volume,
    binary_opening,
    extract_patches,
    intensity_levels,
    make_disk_se,
    otsu_threshold,
)


# --- morphology: footprint scans over a slice padded with the identity ---

def _footprint_stack(img, offsets, fill, sign):
    """img at p + sign * o for every footprint offset o = (dx, dy), one
    layer per offset, with fill beyond the slice border."""
    img = np.asarray(img, dtype=np.float64)
    ny, nx = img.shape
    r = max(abs(c) for offset in offsets for c in offset)
    padded = np.pad(img, r, constant_values=fill)
    return np.stack([padded[r + sign * dy : r + sign * dy + ny, r + sign * dx : r + sign * dx + nx]
                     for dx, dy in offsets])


def scan_erode(img, offsets):
    """Min over the footprint; +inf beyond the border never wins."""
    return _footprint_stack(img, offsets, np.inf, 1).min(axis=0)


def scan_dilate(img, offsets):
    """Max over the reflected footprint; -inf beyond the border never wins."""
    return _footprint_stack(img, offsets, -np.inf, -1).max(axis=0)


def scan_opening(img, offsets):
    return scan_dilate(scan_erode(img, offsets), offsets)


def scan_tophat(img, offsets):
    return np.asarray(img, dtype=np.float64) - scan_opening(img, offsets)


# --- whole-slice preprocessing and coarse stage, as written before cropping ---

def whole_slice_nlm(img, sigma):
    """Non-local means over the whole slice, each patch distance the sum of
    nine explicitly shifted squared-difference slices: the three terms of
    each patch row left to right, then the three row sums top to bottom."""
    img = np.asarray(img, dtype=np.float64)
    if sigma <= 0:
        return img.copy()
    pr, sr = preprocess.NLM_PATCH_RADIUS, preprocess.NLM_SEARCH_RADIUS
    h2 = (preprocess.NLM_H_FACTOR * sigma) ** 2
    pad = pr + sr
    padded = np.pad(img, pad, mode="reflect")
    ny, nx = img.shape
    k = 2 * pr + 1

    acc = np.zeros((ny, nx))
    wsum = np.zeros((ny, nx))
    for dy in range(-sr, sr + 1):
        for dx in range(-sr, sr + 1):
            a = padded[pad - pr : pad + pr + ny, pad - pr : pad + pr + nx]
            b = padded[pad - pr + dy : pad + pr + ny + dy, pad - pr + dx : pad + pr + nx + dx]
            diff2 = (a - b) ** 2
            row_sums = []
            for i in range(k):
                row = diff2[i : i + ny, 0:nx]
                for j in range(1, k):
                    row = row + diff2[i : i + ny, j : j + nx]
                row_sums.append(row)
            dist = row_sums[0]
            for row in row_sums[1:]:
                dist = dist + row
            w = np.exp(-(dist / k**2) / h2)
            values = padded[pad + dy : pad + dy + ny, pad + dx : pad + dx + nx]
            acc += w * values
            wsum += w
    return acc / wsum


def integral_nlm(img, sigma):
    """Non-local means over the whole slice, each patch distance taken from
    one padded integral image per offset (Darbon et al., ISBI 2008), as the
    package computed it before it summed patch distances directly."""
    img = np.asarray(img, dtype=np.float64)
    if sigma <= 0:
        return img.copy()
    pr, sr = preprocess.NLM_PATCH_RADIUS, preprocess.NLM_SEARCH_RADIUS
    h2 = (preprocess.NLM_H_FACTOR * sigma) ** 2
    pad = pr + sr
    padded = np.pad(img, pad, mode="reflect")
    ny, nx = img.shape

    acc = np.zeros((ny, nx))
    wsum = np.zeros((ny, nx))
    patch_n = (2 * pr + 1) ** 2
    for dy in range(-sr, sr + 1):
        for dx in range(-sr, sr + 1):
            a = padded[pad - pr : pad + pr + ny, pad - pr : pad + pr + nx]
            b = padded[pad - pr + dy : pad + pr + ny + dy, pad - pr + dx : pad + pr + nx + dx]
            diff2 = (a - b) ** 2
            ii = np.cumsum(np.cumsum(diff2, axis=0), axis=1)
            ii = np.pad(ii, ((1, 0), (1, 0)))
            k = 2 * pr + 1
            box = ii[k:, k:] - ii[:-k, k:] - ii[k:, :-k] + ii[:-k, :-k]
            d2 = box / patch_n
            w = np.exp(-d2 / h2)
            values = padded[pad + dy : pad + dy + ny, pad + dx : pad + dx + nx]
            acc += w * values
            wsum += w
    return acc / wsum


def whole_slice_preprocess(case):
    """``preprocess_case`` with every slice denoised whole."""
    data = np.empty_like(case.volume.data)
    for k, img in enumerate(case.volume.data):
        data[k] = whole_slice_nlm(img, preprocess.estimate_noise_sigma(img))
    vol = preprocess.reslice(Volume(case.volume.spacing, data))

    def rs(mask):
        return None if mask is None else preprocess.reslice_mask(mask)

    myo = rs(case.myocardium)
    endo = rs(case.endocardium)
    out = np.empty_like(vol.data)
    for k in range(vol.data.shape[0]):
        try:
            normalized = preprocess.normalize_slice(vol.data[k], myo.data[k], endo.data[k])
        except (EmptyRegion, DegenerateRange):
            out[k] = 0.0
            continue
        out[k] = preprocess.gamma_enhance(normalized)
    return LabeledCase(case.case_id, Volume(preprocess.CANONICAL_SPACING, out), myo, endo,
                       rs(case.gt_scar), rs(case.gt_mvo))


def whole_slice_coarse(img, myo):
    """``coarse_segment`` with the six bar top-hats scanned over the whole
    slice."""
    myo = np.asarray(myo, dtype=bool)
    img = np.asarray(img, dtype=np.float64)
    enhanced = img.copy()
    for se in segment._BAR_SES:
        enhanced += scan_tophat(img, se.offsets)
    enhanced = np.clip(enhanced, 0.0, 255.0)
    t = otsu_threshold(enhanced[myo])
    fg = (intensity_levels(enhanced) > t) & myo
    return binary_opening(fg, make_disk_se(segment.OPENING_RADIUS)) & myo


def whole_slice_remote(img, myo, endo):
    """``auto_remote_region``'s mask with the sectors built over the whole
    slice."""
    myo = np.asarray(myo, dtype=bool)
    ref = endo if endo is not None and np.asarray(endo).any() else myo
    cy, cx = np.argwhere(ref).mean(axis=0)
    yy, xx = np.mgrid[0 : myo.shape[0], 0 : myo.shape[1]]
    angle = np.degrees(np.arctan2(yy - cy, xx - cx)) % 360.0
    n = baselines.N_SECTORS
    sectors = np.minimum((angle / (360.0 / n)).astype(int), n - 1)
    means = [np.asarray(img, dtype=np.float64)[myo & (sectors == s)].mean()
             if (myo & (sectors == s)).any() else np.inf for s in range(n)]
    return myo & (sectors == int(np.argmin(means)))


def whole_slice_mvo(hyper, endo, myo):
    """``include_mvo``'s MVO mask, filling holes over the whole slice."""
    union = np.asarray(endo, dtype=bool) | np.asarray(hyper, dtype=bool)
    return bfs_fill_holes(union) & ~union & np.asarray(myo, dtype=bool)


# --- hole filling: breadth-first flood of the background from the border ---

def bfs_fill_holes(mask):
    """Mask plus every background pixel not 4-connected to the border."""
    mask = np.asarray(mask, dtype=bool)
    ny, nx = mask.shape
    reached = np.zeros((ny, nx), dtype=bool)
    queue = deque(
        (y, x)
        for y in range(ny)
        for x in range(nx)
        if (y in (0, ny - 1) or x in (0, nx - 1)) and not mask[y, x]
    )
    for y, x in queue:
        reached[y, x] = True
    while queue:
        y, x = queue.popleft()
        for dy, dx in ((0, 1), (0, -1), (1, 0), (-1, 0)):
            yy, xx = y + dy, x + dx
            if 0 <= yy < ny and 0 <= xx < nx and not mask[yy, xx] and not reached[yy, xx]:
                reached[yy, xx] = True
                queue.append((yy, xx))
    return mask | ~reached


# --- Otsu: exhaustive between-class-variance sweep ---

def sweep_otsu(counts):
    counts = np.asarray(counts, dtype=np.float64)
    total = counts.sum()
    levels = np.arange(len(counts), dtype=np.float64)
    best_t, best_v = 0, -1.0
    for t in range(len(counts) - 1):
        w0 = counts[: t + 1].sum() / total
        w1 = 1.0 - w0
        if w0 == 0 or w1 == 0:
            v = 0.0
        else:
            mu0 = (counts[: t + 1] * levels[: t + 1]).sum() / counts[: t + 1].sum()
            mu1 = (counts[t + 1 :] * levels[t + 1 :]).sum() / counts[t + 1 :].sum()
            v = w0 * w1 * (mu0 - mu1) ** 2
        if v > best_v + 1e-12:
            best_t, best_v = t, v
    return best_t


# --- ranking statistics: pair counting ---

def paircount_auc(scores, labels):
    """AUC as (concordant + 0.5 * ties) / (n_pos * n_neg)."""
    pos = [s for s, l in zip(scores, labels) if l == 1]
    neg = [s for s, l in zip(scores, labels) if l == 0]
    num = 0.0
    for p in pos:
        for n in neg:
            if p > n:
                num += 1.0
            elif p == n:
                num += 0.5
    return num / (len(pos) * len(neg))


def paircount_u(x, y):
    """Mann-Whitney U of the first sample (x over y pairs, ties half)."""
    u = 0.0
    for a in x:
        for b in y:
            if a > b:
                u += 1.0
            elif a == b:
                u += 0.5
    return u


def rank_spearman(x, y):
    def ranks(v):
        v = np.asarray(v, dtype=np.float64)
        order = np.argsort(v, kind="stable")
        r = np.empty(len(v))
        i = 0
        while i < len(v):
            j = i
            while j + 1 < len(v) and v[order[j + 1]] == v[order[i]]:
                j += 1
            r[order[i : j + 1]] = 0.5 * (i + j) + 1.0
            i = j + 1
        return r
    rx, ry = ranks(x), ranks(y)
    rx = rx - rx.mean()
    ry = ry - ry.mean()
    return float((rx * ry).sum() / np.sqrt((rx**2).sum() * (ry**2).sum()))


# --- training patches: every lattice patch cut, then balanced ---

def cut_every_training_patch(case, seed):
    """``segment.sample_training_patches``'s (x, y) from every lattice
    patch of each slice's whole-slice band, balanced after cutting."""
    patches, labels = [], []
    for k in range(case.nz):
        gt = case.gt_scar.data[k]
        if not gt.any():
            continue
        band = segment.boundary_region(gt, segment.TRAINING_BAND_RADIUS)
        for centres, label in ((band & ~gt, 0), (band & gt, 1)):
            ys, xs = np.nonzero(centres)
            keep = (ys % segment.PATCH_STRIDE == 0) & (xs % segment.PATCH_STRIDE == 0)
            patches.append(extract_patches(case.volume.data[k], ys[keep], xs[keep],
                                           segment.PATCH_SIZE))
            labels.append(np.full(keep.sum(), label, dtype=np.int64))
    return balance_classes(np.concatenate(patches)[..., None], np.concatenate(labels), seed=seed)


# --- phantoms: whole-slice geometry ---

def whole_slice_phantom(spec, seed, case_id="phantom"):
    """``phantom.generate_case(spec, seed, case_id)`` with every slice's
    geometry computed over the whole slice."""
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

    return LabeledCase(
        case_id=case_id,
        volume=Volume(spec.spacing, vol),
        myocardium=Mask(spec.spacing, myo),
        endocardium=Mask(spec.spacing, endo),
        gt_scar=Mask(spec.spacing, scar),
        gt_mvo=Mask(spec.spacing, mvo) if spec.mvo else None,
    )


# --- Gaussian mixture: the one-sample EM loop ---

def one_sample_em(values):
    """(weights, means, sds, log-likelihood trace, converged) of the
    two-component EM on one sample, as ``baselines.gmm_fit`` computed it
    before it ran every sample of a case in one loop; the Otsu split that
    starts it comes from the package. Raises DegenerateData like gmm_fit."""
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
    floor = baselines._SIGMA_FLOOR
    sd = np.maximum(np.array([lo.std(), hi.std()]), max(floor, 1e-3 * x.std()))

    def log_normal_pdf(mu, sd):
        return -0.5 * np.log(2.0 * np.pi * sd * sd) - (x - mu) ** 2 / (2.0 * sd * sd)

    trace = []
    converged = False
    for _ in range(baselines.MAX_EM_ITERATIONS):
        logp = np.stack([np.log(pi[c]) + log_normal_pdf(mu[c], sd[c]) for c in (0, 1)])
        m = logp.max(axis=0)
        log_mix = m + np.log(np.exp(logp - m).sum(axis=0))
        ll = float(log_mix.sum())
        resp = np.exp(logp - log_mix)
        nk = resp.sum(axis=1)
        pi = nk / x.size
        mu = (resp @ x) / nk
        var = (resp * (x[None, :] - mu[:, None]) ** 2).sum(axis=1) / nk
        sd = np.sqrt(np.maximum(var, floor**2))
        trace.append(ll)
        if len(trace) > 1 and abs(trace[-1] - trace[-2]) < baselines.EM_TOLERANCE:
            converged = True
            break
    order = np.argsort(mu)
    return (tuple(float(pi[i]) for i in order), tuple(float(mu[i]) for i in order),
            tuple(float(sd[i]) for i in order), trace, converged)


# --- distances ---

def allpairs_hausdorff(a_coords, b_coords, spacing_zyx):
    """Max over both directions of farthest nearest-point distance (mm)."""
    a = np.asarray(a_coords, dtype=np.float64) * np.asarray(spacing_zyx)
    b = np.asarray(b_coords, dtype=np.float64) * np.asarray(spacing_zyx)

    def directed(p, q):
        worst = 0.0
        for row in p:
            d = np.sqrt(((q - row) ** 2).sum(axis=1)).min()
            worst = max(worst, d)
        return worst

    return max(directed(a, b), directed(b, a))


# --- conv nets: argmax pooling and central-difference gradients ---

class ArgmaxPool2:
    """2x2 stride-2 max pooling that routes the gradient to each block's
    first argmax through index arrays. A net runs it in stored order, and,
    like ``MaxPool2``, with ``phases`` at the bottom stage: the input is
    then four phase slabs (4N, OH, OW, C), phase (a, b) in slab 2a + b, and
    the gradient goes back in that layout."""

    param_names = ()

    def forward(self, x, train=False, rng=None, phases=False):
        n, h, w, c = x.shape
        self._xshape, self._phases = x.shape, phases
        if phases:
            quads = np.moveaxis(x.reshape(4, n // 4, h, w, c), 0, -1)
        else:
            oh, ow = h // 2, w // 2
            if oh < 1 or ow < 1:
                raise ShapeError(f"input {x.shape} too small for 2x2 pooling")
            quads = (
                x[:, : oh * 2, : ow * 2, :]
                .reshape(n, oh, 2, ow, 2, c)
                .transpose(0, 1, 3, 5, 2, 4)
                .reshape(n, oh, ow, c, 4)
            )
        self._idx = np.argmax(quads, axis=-1)
        return np.take_along_axis(quads, self._idx[..., None], axis=-1)[..., 0]

    def backward(self, dout):
        n, h, w, c = self._xshape
        grads = np.zeros((*dout.shape, 4))
        np.put_along_axis(grads, self._idx[..., None], dout[..., None], axis=-1)
        if self._phases:
            return np.moveaxis(grads, -1, 0).reshape(n, h, w, c)
        oh, ow = h // 2, w // 2
        dx = np.zeros((n, h, w, c))
        dx[:, : oh * 2, : ow * 2, :] = (
            grads.reshape(n, oh, ow, c, 2, 2)
            .transpose(0, 1, 4, 2, 5, 3)
            .reshape(n, oh * 2, ow * 2, c)
        )
        return dx

    def spec(self):
        return ("maxpool",)


def padded_conv_dx(dout, w):
    """Input gradient of a valid stride-1 convolution with kernel ``w``
    (kh, kw, cin, cout): ``dout`` zero-padded by k - 1 on each side, then
    correlated with the kernel rotated 180 deg, its channels swapped."""
    kh, kw, cin, cout = w.shape
    padded = np.pad(dout, ((0, 0), (kh - 1, kh - 1), (kw - 1, kw - 1), (0, 0)))
    windows = sliding_window_view(padded, (kh, kw), axis=(1, 2))  # (N, H, W, cout, kh, kw)
    n, h, wd = windows.shape[:3]
    cols = np.ascontiguousarray(windows.transpose(0, 1, 2, 4, 5, 3)).reshape(n * h * wd, -1)
    wmat = w[::-1, ::-1].transpose(0, 1, 3, 2).reshape(-1, cin)
    return (cols @ wmat).reshape(n, h, wd, cin)


class PaddedConv2D(Conv2D):
    """A ``Conv2D`` whose backward returns ``padded_conv_dx``; its forward
    and parameter gradients are the package's."""

    def backward(self, dout, need_dx=True):
        super().backward(dout, need_dx=False)
        return padded_conv_dx(dout, self.w) if need_dx else None


def grad_check(model, x, labels, epsilon=1e-5):
    """Max relative error of analytic vs central-difference gradients.

    Dropout must be inactive (inference path is used for both sides).
    """
    x = np.asarray(x, dtype=np.float64)
    _, dlogits = net_loss(model, x, labels, train=True)
    model.backward_from_logits(dlogits)
    worst = 0.0
    for layer, name in model.parameters():
        param = getattr(layer, name)
        analytic = getattr(layer, "d" + name)
        it = np.nditer(param, flags=["multi_index"])
        while not it.finished:
            idx = it.multi_index
            orig = param[idx]
            param[idx] = orig + epsilon
            hi, _ = net_loss(model, x, labels)
            param[idx] = orig - epsilon
            lo, _ = net_loss(model, x, labels)
            param[idx] = orig
            numeric = (hi - lo) / (2 * epsilon)
            a = analytic[idx]
            err = abs(a - numeric) / max(abs(a), abs(numeric), 1e-5)
            worst = max(worst, err)
            it.iternext()
    return worst
