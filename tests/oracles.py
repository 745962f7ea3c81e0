"""Independent brute-force reference implementations used as test oracles.

Everything here is deliberately naive (per-pixel scans, pair counting,
exhaustive sweeps, central differences, argmax pooling) and shares no code
with the package paths it checks; ``grad_check`` differentiates the
package's own loss, since that is the function whose gradient it checks.
"""
from collections import deque

import numpy as np

from miquant.errors import ShapeError
from miquant.learnlib import net_loss


# --- morphology: direct footprint scans ---

def scan_erode(img, offsets):
    ny, nx = img.shape
    out = np.empty_like(img, dtype=np.float64)
    for y in range(ny):
        for x in range(nx):
            vals = [
                img[y + dy, x + dx]
                for dx, dy in offsets
                if 0 <= y + dy < ny and 0 <= x + dx < nx
            ]
            out[y, x] = min(vals)
    return out


def scan_dilate(img, offsets):
    ny, nx = img.shape
    out = np.empty_like(img, dtype=np.float64)
    for y in range(ny):
        for x in range(nx):
            vals = [
                img[y - dy, x - dx]
                for dx, dy in offsets
                if 0 <= y - dy < ny and 0 <= x - dx < nx
            ]
            out[y, x] = max(vals)
    return out


def scan_opening(img, offsets):
    return scan_dilate(scan_erode(img, offsets), offsets)


def scan_tophat(img, offsets):
    return np.asarray(img, dtype=np.float64) - scan_opening(img, offsets)


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
    first argmax through index arrays. It is not a ``MaxPool2``, so a net
    that holds it runs it after its ReLU, in stored order."""

    param_names = ()

    def forward(self, x, train=False, rng=None):
        n, h, w, c = x.shape
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
        self._xshape = x.shape
        return np.take_along_axis(quads, self._idx[..., None], axis=-1)[..., 0]

    def backward(self, dout):
        n, h, w, c = self._xshape
        oh, ow = h // 2, w // 2
        grads = np.zeros((n, oh, ow, c, 4))
        np.put_along_axis(grads, self._idx[..., None], dout[..., None], axis=-1)
        dx = np.zeros((n, h, w, c))
        dx[:, : oh * 2, : ow * 2, :] = (
            grads.reshape(n, oh, ow, c, 2, 2)
            .transpose(0, 1, 4, 2, 5, 3)
            .reshape(n, oh * 2, ow * 2, c)
        )
        return dx

    def spec(self):
        return ("maxpool",)


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
