"""Small convolutional networks with from-scratch backpropagation and
SGD-with-momentum training. Training, ``forward`` and ``features`` run in
64-bit floats; windowed inference runs in 32-bit floats (see below).

Conventions: batches are (N, H, W, C); convolutions are valid-padding,
stride 1; pooling is 2x2 stride 2 (odd remainders dropped); the terminal
layer is a softmax over two classes. L2 regularization acts on connection
weights, not biases.

A network runs its layers in the order it stores them; ``build_classifier``
stores each trunk stage as conv, pool, ReLU. Model files written before
that order list the ReLU first and load and run unchanged: max and ReLU
commute exactly, so such a net gives the same values and gradients (a block
with a positive max has the same first max in x and in ReLU(x); any other
block gets no gradient in either order). Only its ReLU runs on a map 4x
larger. Pooling takes pairwise maxima over a 2x2 block
view of its input; training also compares three phases of that view
with the maximum and keeps a first-max mask per phase (the fourth phase's
is the blocks the first three miss), so the backward
pass writes each phase of the input gradient with one product. Inference
(``forward(train=False)``) keeps no masks and otherwise runs exactly the
layer sequence training runs, on the whole batch; the caller bounds the
batch, as ``TrainConfig.batch_size`` does for training.

Windowed inference (``NetModel.forward_windows``) classifies many
overlapping windows of one image, each minus the same scalar ``offset``.
Every window then sees the image's own values at a shared pixel, so the
whole trunk runs once, densely, over the union box of the windows, as one
stride-1 map (shift-and-stitch: Giusti et al. 2013, arXiv:1302.1700; Long
et al. 2015, arXiv:1411.4038), in its dilated ("a trous") form (Li, Zhao
and Wang 2014, arXiv:1412.4526). After k pools the kernels are dilated by
d = 2**k: a convolution reads taps d apart, and a pool takes the max of
pixels d apart, over rows and then columns in ``MaxPool2``'s operand
order. A window's own map after k pools is then the scan's pixels d apart
from the window's corner; its pools equal ``MaxPool2`` on its crop bit for
bit. The head runs on the final blocks so gathered.

Windowed inference runs in 32-bit floats throughout, from the centred scan
box to the last dense layer (convolutions and dense layers compute in their
input's dtype), and only its output is cast to 64 bits. The dense head
still runs on the whole batch, as in ``forward``. Results agree with
``forward`` on the cropped windows to single-precision rounding (about 1e-6
on the logits), not bit for bit.

A convolution's backward takes its input gradient per kernel tap: one
batched product gives every tap's share dY @ W[i, j].T, and each share is
added onto the input window that the tap read. No zero-padded copy of dY
is built or multiplied. The input gradient, and so trained weights, equal
those of a full correlation over the zero-padded dY to rounding (about
1e-14 relative), not bit for bit.

A convolution adds its bias inside its one matrix product, as Caffe does
(Jia et al. 2014, arXiv:1408.5093): ``_im2col`` ends every patch row with a
one, the bias tap, and the product with the kernel matrix whose last row is
the bias gives the biased output. Its last term is 1*b, which the product
rounds once, as a separate add would. A BLAS kernel that orders the terms
differently can still round an output differently, by an ulp: on OpenBLAS
0.3.31 some kernels at output widths below 16 did, none at 16, 32 or 64.
The backward's one product of the patch matrix's transpose with dY gives dW
in its first rows and db in its last, so db sums dY in the BLAS's order. It
agrees with a row-by-row sum to rounding (about 1e-14 relative), not bit
for bit. SGD updates each parameter in place.

A one-channel input, the first convolution of every net, gets its patch
matrix tap-major, as Caffe keeps it: ``_im2col`` fills a (kh*kw + 1,
N*OH*OW) buffer, one block copy of the input per tap and the ones of the
bias tap last, and hands the products its transpose. The values are the
row-major matrix's; only the copy is cheaper (whole rows of pixels instead
of runs of kw), and dW's product gets a C-ordered operand. More channels
keep the row-major matrix: a channel-first tap-major one measured slower.
BLAS may round the two layouts' products differently, by an ulp.

A net's bottom stage, its one-channel convolution and the pool after it
(behind a ReLU in relu-first model files), runs in pool-phase order in
training and in ``forward`` and ``features``; ``NetModel`` finds it by the
layers' spec tags. Unrolled convolution leaves the order of the patch rows
free (Chellapilla, Puri and Simard 2006; Jia et al. 2014), so ``_im2col``
writes each tap over the even part of the output grid as four phase blocks
(a, b) stacked on the batch axis, and the convolution returns a (4N, OH/2,
OW/2, C) map without the odd row and column that the pool drops. The pool
takes the same maxima in the same operand order over four contiguous
slabs, keeps contiguous masks, and returns its gradient in that layout,
which the convolution multiplies into dW; a bottom layer needs no input
gradient. Pooled values equal the layer-by-layer chain's wherever BLAS
rounds a patch row alike in both matrices (every row at output widths 16,
32 and 64 on OpenBLAS 0.3.31); dW sums its rows in another order, to
about 1e-15 relative. Windowed inference keeps the plain order.
"""
from __future__ import annotations

from dataclasses import asdict, dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .. import vio
from ..errors import (
    ConfigError,
    DataError,
    DivergenceError,
    LengthMismatch,
    ShapeError,
)

# ---------------------------------------------------------------------------
# layers
# ---------------------------------------------------------------------------

def _im2col(x: np.ndarray, kh: int, kw: int, d: int = 1, phases: bool = False):
    """(N, H, W, C) -> (N*OH*OW, kh*kw*C + 1) patch matrix for valid
    stride-1, with the taps ``d`` px apart, and its (N, OH, OW); the last
    column is ones, the bias tap, so one product with ``[W; b]`` adds the
    bias.

    A one-channel ``x`` fills a tap-major (kh*kw + 1, N*OH*OW) buffer, one
    block copy of ``x`` per tap, and returns its transpose view: the same
    values in Fortran order, copied faster (see the module docstring). With
    ``phases`` it holds only the even OH x OW part of the output grid, its
    rows in pool-phase order: the pixels (2y + a, 2x + b) of phase (a, b)
    form one (N, OH/2, OW/2) block, and the four blocks stack in
    ``_PHASES`` order, so the (N, OH, OW) returned is (4N, OH/2, OW/2)."""
    if x.shape[3] == 1:
        n, h, w, _ = x.shape
        oh, ow = h - d * (kh - 1), w - d * (kw - 1)
        if phases:  # the rows and columns that a 2x2 pool reads
            oh, ow = oh - oh % 2, ow - ow % 2
        taps = np.empty((kh * kw + 1, n * oh * ow), dtype=x.dtype)
        for t in range(kh * kw):
            i, j = divmod(t, kw)
            tap = x[:, i * d : i * d + oh, j * d : j * d + ow, 0]
            if phases:  # pixel (2y + a, 2x + b) to [a, b, :, y, x]
                tap = tap.reshape(n, oh // 2, 2, ow // 2, 2).transpose(2, 4, 0, 1, 3)
            taps[t].reshape(tap.shape)[...] = tap
        taps[-1] = 1.0
        return taps.T, ((4 * n, oh // 2, ow // 2) if phases else (n, oh, ow))
    if phases:
        raise ShapeError(f"only a one-channel input runs in pool-phase order, not {x.shape}")
    windows = sliding_window_view(x, (d * (kh - 1) + 1, d * (kw - 1) + 1), axis=(1, 2))
    windows = windows[..., ::d, ::d]  # (N, OH, OW, C, kh, kw)
    n, oh, ow, c = windows.shape[:4]
    cols = np.empty((n * oh * ow, kh * kw * c + 1), dtype=x.dtype)
    cols[:, :-1].reshape(n, oh, ow, kh, kw, c)[...] = windows.transpose(0, 1, 2, 4, 5, 3)
    cols[:, -1] = 1.0
    return cols, (n, oh, ow)


def _no_forward(layer):
    return ShapeError(f"{type(layer).__name__} backward needs a training forward before it")


class Conv2D:
    param_names = ("w", "b")

    def __init__(self, w: np.ndarray, b: np.ndarray):
        if np.ndim(w) != 4 or np.shape(b) != np.shape(w)[3:]:
            raise ShapeError(f"conv weights {np.shape(w)} and bias {np.shape(b)} do not fit")
        self.w = w  # (kh, kw, cin, cout)
        self.b = b
        self.dw = None
        self.db = None
        self._cols = None
        self._phases = False

    def forward(self, x, train=False, rng=None, dilation=1, phases=False):
        """Valid convolution in the dtype of ``x`` (the weights are cast to
        it; a no-op for 64-bit input), its taps ``dilation`` px apart; only
        inference dilates. The bias is the patch matrix's last tap.

        With ``phases`` a one-channel convolution computes only the pixels
        that a 2x2 pool reads, in pool-phase order (``_im2col``): the
        output is (4N, OH/2, OW/2, cout), which ``MaxPool2`` pools with
        ``phases``. Its backward then gives no input gradient."""
        kh, kw, cin, cout = self.w.shape
        if (train or phases) and dilation != 1:
            raise ShapeError(f"training and pool-phase order run undilated convolutions, "
                             f"not dilation {dilation}")
        least = 2 if phases else 1  # output pixels per axis
        if (x.shape[3] != cin or x.shape[1] < dilation * (kh - 1) + least
                or x.shape[2] < dilation * (kw - 1) + least):
            raise ShapeError(f"conv {self.w.shape} dilated by {dilation} cannot take input {x.shape}")
        cols, (n, oh, ow) = _im2col(x, kh, kw, dilation, phases)
        out = cols @ np.vstack([self.w.reshape(-1, cout), self.b], dtype=x.dtype)
        if train:
            self._cols = cols
            self._phases = phases
        return out.reshape(n, oh, ow, cout)

    def backward(self, dout, need_dx=True):
        """Parameter gradients, and the input gradient taken per kernel tap:
        tap (i, j) read the input window at offset (i, j), so its share
        dY @ W[i, j].T is added back onto that window. ``dout`` is in the
        forward's layout, so dW takes a pool-phase one as it is."""
        if self._cols is None:
            raise _no_forward(self)
        if need_dx and self._phases:
            raise ShapeError("a convolution run in pool-phase order has no input gradient")
        kh, kw, cin, cout = self.w.shape
        n, oh, ow, _ = dout.shape
        dmat = dout.reshape(-1, cout)
        grads = self._cols.T @ dmat  # the bias tap's row is db
        self.dw = grads[:-1].reshape(kh, kw, cin, cout)
        self.db = grads[-1]
        self._cols = None
        if not need_dx:
            return None
        taps = np.matmul(dmat, self.w.reshape(kh * kw, cin, cout).transpose(0, 2, 1))
        dx = np.zeros((n, oh + kh - 1, ow + kw - 1, cin))
        for t in range(kh * kw):
            i, j = divmod(t, kw)
            dx[:, i : i + oh, j : j + ow] += taps[t].reshape(n, oh, ow, cin)
        return dx

    def spec(self):
        return ("conv", self.w.shape[0], self.w.shape[3])


class ReLU:
    param_names = ()
    _mask = None

    def forward(self, x, train=False, rng=None):
        if train:
            self._mask = x > 0
        return np.maximum(x, 0.0)

    def backward(self, dout):
        if self._mask is None:
            raise _no_forward(self)
        dx = dout * self._mask
        self._mask = None
        return dx

    def spec(self):
        return ("relu",)


_PHASES = ((0, 0), (0, 1), (1, 0), (1, 1))  # a 2x2 block in row-major order


class MaxPool2:
    """2x2 max pooling, stride 2: the max of each block column's two rows,
    then the max of the two columns. Gradient routes to the first max of
    each block in row-major order; only training keeps the four first-max
    masks that routing needs. The first three compare their phase with the
    max; the fourth is the blocks none of them holds, since a block's max is
    one of its four values (a NaN stops training before any backward).

    With ``phases`` the input is a pool-phase-order conv output (see
    ``Conv2D.forward``), (4N, OH, OW, C): phase (a, b) of every block in its
    own contiguous slab. The pool then reads and masks whole slabs, and its
    backward returns the gradient in that layout."""

    param_names = ()
    _masks = None

    def forward(self, x, train=False, rng=None, phases=False):
        n, h, w, c = x.shape
        if phases:
            if n % 4:
                raise ShapeError(f"pool-phase input {x.shape} is not four phase slabs")
            quads = x.reshape(2, 2, n // 4, h, w, c)  # [a, b]: phase (a, b)
        else:
            oh, ow = h // 2, w // 2
            if oh < 1 or ow < 1:
                raise ShapeError(f"input {x.shape} too small for 2x2 pooling")
            blocks = x[:, : oh * 2, : ow * 2, :].reshape(n, oh, 2, ow, 2, c)
            quads = blocks.transpose(2, 4, 0, 1, 3, 5)
        rows = np.maximum(quads[0], quads[1])
        out = np.maximum(rows[0], rows[1])
        if not train:
            return out
        seen = quads[0, 0] == out
        self._masks = [seen]
        for a, b in _PHASES[1:3]:
            first = quads[a, b] == out
            first &= ~seen
            seen = seen | first
            self._masks.append(first)
        self._masks.append(~seen)
        self._xshape, self._phases = x.shape, phases
        return out

    def backward(self, dout):
        if self._masks is None:
            raise _no_forward(self)
        dx = np.empty(self._xshape)
        if self._phases:
            quads = dx.reshape(2, 2, *dout.shape)
        else:
            oh, ow = dout.shape[1:3]
            dx[:, 2 * oh :] = 0.0  # odd remainders take no gradient
            dx[:, :, 2 * ow :] = 0.0
            quads = [[dx[:, a : 2 * oh : 2, b : 2 * ow : 2] for b in (0, 1)] for a in (0, 1)]
        for (a, b), mask in zip(_PHASES, self._masks):
            np.multiply(dout, mask, out=quads[a][b])
        self._masks = None
        return dx

    def spec(self):
        return ("maxpool",)


def _pool_dilated(x, d):
    """``MaxPool2.forward`` with its block's pixels ``d`` px apart, at every
    pixel of an (n, mh, mw, c) map: (n, mh - d, mw - d, c). The grouping and
    operand order are the pool's, so the pixels congruent to (a, b) mod d
    equal it on ``x[:, a::d, b::d]`` bit for bit."""
    rows = np.maximum(x[:, :-d], x[:, d:])
    return np.maximum(rows[:, :, :-d], rows[:, :, d:])


class Flatten:
    param_names = ()
    _shape = None

    def forward(self, x, train=False, rng=None):
        if train:
            self._shape = x.shape
        return x.reshape(x.shape[0], int(np.prod(x.shape[1:])))

    def backward(self, dout):
        if self._shape is None:
            raise _no_forward(self)
        dx = dout.reshape(self._shape)
        self._shape = None
        return dx

    def spec(self):
        return ("flatten",)


class Dense:
    param_names = ("w", "b")

    def __init__(self, w: np.ndarray, b: np.ndarray):
        if np.ndim(w) != 2 or np.shape(b) != np.shape(w)[1:]:
            raise ShapeError(f"dense weights {np.shape(w)} and bias {np.shape(b)} do not fit")
        self.w = w  # (din, dout)
        self.b = b
        self.dw = None
        self.db = None
        self._x = None

    def forward(self, x, train=False, rng=None):
        if x.shape[1] != self.w.shape[0]:
            raise ShapeError(f"dense {self.w.shape} cannot take input {x.shape}")
        if train:
            self._x = x
        return x @ self.w.astype(x.dtype, copy=False) + self.b.astype(x.dtype, copy=False)

    def backward(self, dout):
        if self._x is None:
            raise _no_forward(self)
        self.dw = self._x.T @ dout
        self.db = dout.sum(axis=0)
        self._x = None
        return dout @ self.w.T

    def spec(self):
        return ("dense", self.w.shape[1])


class Dropout:
    """Inverted dropout; identity at inference."""

    param_names = ()

    def __init__(self, rate: float):
        self.rate = rate
        self._mask = None

    def forward(self, x, train=False, rng=None):
        if not train:
            self._mask = None
            return x
        keep = 1.0 - self.rate
        self._mask = (rng.random(x.shape) < keep) / keep
        return x * self._mask

    def backward(self, dout):
        if self._mask is None:
            raise _no_forward(self)
        dx = dout * self._mask
        self._mask = None
        return dx

    def spec(self):
        return ("dropout", self.rate)


class Softmax:
    param_names = ()

    def forward(self, x, train=False, rng=None):
        z = x - x.max(axis=1, keepdims=True)
        e = np.exp(z)
        return e / e.sum(axis=1, keepdims=True)

    def spec(self):
        return ("softmax",)


LAYER_TYPES = {
    "conv": Conv2D,
    "relu": ReLU,
    "maxpool": MaxPool2,
    "flatten": Flatten,
    "dense": Dense,
    "dropout": Dropout,
    "softmax": Softmax,
}
vio.register_layers(LAYER_TYPES)


# ---------------------------------------------------------------------------
# model
# ---------------------------------------------------------------------------

def _phase_stage(layers):
    """The length of the bottom stage that runs in pool-phase order: a
    one-channel conv, then a pool, or a ReLU and then a pool (2 or 3
    layers); 0 when ``layers`` do not start with one. The layers are told
    apart by their spec tags."""
    tags = tuple(layer.spec()[0] for layer in layers[:3])
    if tags[:1] != ("conv",) or layers[0].w.shape[2] != 1:
        return 0
    if tags[1:2] == ("maxpool",):
        return 2
    return 3 if tags[1:3] == ("relu", "maxpool") else 0


def _run(layers, x, train=False, rng=None):
    stage = _phase_stage(layers)
    if stage:  # the ReLU between, if any, is element-wise and takes any layout
        x = layers[0].forward(x, train=train, phases=True)
        for layer in layers[1 : stage - 1]:
            x = layer.forward(x, train=train, rng=rng)
        x = layers[stage - 1].forward(x, train=train, phases=True)
    for layer in layers[stage:]:
        x = layer.forward(x, train=train, rng=rng)
    return x


def _trunk_extent(trunk, size, axis):
    """The map extent that a conv/relu/pool ``trunk`` makes of an input
    extent ``size`` along rows (axis 0) or columns (axis 1)."""
    for layer in trunk:
        if isinstance(layer, Conv2D):
            size -= layer.w.shape[axis] - 1
        elif isinstance(layer, MaxPool2):
            size //= 2
    return size


@vio.model_kind("net")
@dataclass
class NetModel:
    layers: list
    input_shape: tuple[int, int, int]  # (H, W, C)
    feature_layer: int | None = None   # layer count defining the feature head
    train_meta: dict = field(default_factory=dict)

    def __post_init__(self):
        if not (isinstance(self.layers, list)
                and all(type(layer) in LAYER_TYPES.values() for layer in self.layers)):
            raise TypeError(f"a net's layers must be a list of {sorted(LAYER_TYPES)} layers")
        head = self.feature_layer
        if head is not None and (not isinstance(head, (int, np.integer)) or isinstance(head, bool)
                                 or not 1 <= head <= len(self.layers)):
            raise ShapeError(f"a net's feature layer is None or a layer count in "
                             f"[1, {len(self.layers)}], not {head!r}")
        shape = self.input_shape
        if not (isinstance(shape, (tuple, list)) and len(shape) == 3 and all(
                isinstance(s, (int, np.integer)) and not isinstance(s, bool) and s > 0
                for s in shape)):
            raise ShapeError(f"a net's input shape is three positive integers, not {shape!r}")
        self.input_shape = tuple(int(s) for s in shape)
        first = next((i for i, l in enumerate(self.layers) if isinstance(l, Dense)), None)
        if first is not None:
            trunk = self.layers[:first]
            h, w, c = self.input_shape
            fh, fw = _trunk_extent(trunk, h, 0), _trunk_extent(trunk, w, 1)
            c = next((l.w.shape[3] for l in reversed(trunk) if isinstance(l, Conv2D)), c)
            if min(fh, fw) < 1 or fh * fw * c != self.layers[first].w.shape[0]:
                raise ShapeError(f"input {self.input_shape} reaches the first dense layer as "
                                 f"{fh}x{fw}x{c}, not its {self.layers[first].w.shape[0]} rows")

    def forward(self, x, train=False, rng=None, n_layers=None):
        x = np.asarray(x, dtype=np.float64)
        if x.shape[1:] != self.input_shape:
            raise ShapeError(f"expected input {self.input_shape}, got {x.shape[1:]}")
        layers = self.layers[: len(self.layers) if n_layers is None else n_layers]
        return _run(layers, x, train=train, rng=rng)

    def forward_windows(self, image, oy, ox, offset):
        """``forward`` on the input-sized windows of a 2-D ``image`` whose
        top-left corners are ``(oy[i], ox[i])``, each minus the scalar
        ``offset``.

        The trunk runs once as a stride-1 scan of the windows' union box,
        each convolution and pool dilated by 2**k after k pools
        (``_pool_dilated``); each window's final block is gathered from the
        scan's pixels 2**k apart from its corner, and the head runs on the
        whole batch as in ``forward``. The scan runs in
        32-bit floats and returns 64-bit floats, so the result agrees with
        ``forward`` to single-precision rounding (see the module docstring).
        """
        image = np.asarray(image, dtype=np.float64)
        oy = np.asarray(oy, dtype=np.intp)
        ox = np.asarray(ox, dtype=np.intp)
        h, w, c = self.input_shape
        if image.ndim != 2 or c != 1:
            raise ShapeError(f"windows need a 2-D image and a 1-channel net, got "
                             f"image {image.shape} and input {self.input_shape}")
        if np.ndim(offset) != 0:
            raise ShapeError(f"the offset must be a scalar, got shape {np.shape(offset)}")
        if oy.ndim != 1 or oy.shape != ox.shape:
            raise ShapeError(f"window corners {oy.shape} and {ox.shape} do not pair up")
        if len(oy) and (oy.min() < 0 or ox.min() < 0 or oy.max() + h > image.shape[0]
                        or ox.max() + w > image.shape[1]):
            raise ShapeError(f"a {h}x{w} window leaves the {image.shape} image")
        trunk = self.windowed_trunk()
        if not len(oy):
            return self.forward(np.zeros((0, h, w, 1)))
        y0, x0 = oy.min(), ox.min()
        oy, ox = oy - y0, ox - x0
        x = np.empty((1, oy.max() + h, ox.max() + w, 1), dtype=np.float32)
        np.subtract(image[y0 : y0 + x.shape[1], x0 : x0 + x.shape[2]], offset,
                    out=x[0, :, :, 0], casting="same_kind")
        d = 1  # the dilation: 2**k after k pools
        for layer in trunk:
            if isinstance(layer, Conv2D):
                x = layer.forward(x, dilation=d)
            elif isinstance(layer, MaxPool2):
                x = _pool_dilated(x, d)
                d *= 2
            else:
                x = layer.forward(x)
        # each window's final block, the scan's pixels d apart from its corner
        fh, fw = (_trunk_extent(trunk, size, axis) for axis, size in ((0, h), (1, w)))
        rows = oy[:, None, None] + d * np.arange(fh)[None, :, None]
        cols = ox[:, None, None] + d * np.arange(fw)[None, None, :]
        return _run(self.layers[len(trunk):], x[0, rows, cols]).astype(np.float64)

    def windowed_trunk(self) -> list:
        """The layers before the flatten, which ``forward_windows`` scans.
        Raises ShapeError unless they are conv, ReLU and pool layers that
        start with a conv."""
        flat = next((i for i, l in enumerate(self.layers) if isinstance(l, Flatten)),
                    len(self.layers))
        trunk = self.layers[:flat]
        if not (trunk and isinstance(trunk[0], Conv2D)
                and all(isinstance(l, (Conv2D, ReLU, MaxPool2)) for l in trunk)):
            raise ShapeError("windowed inference needs a conv/relu/pool trunk "
                             "that starts with a conv")
        return trunk

    def features(self, x):
        """Activations of the feature head (penultimate FC), inference mode."""
        if self.feature_layer is None:
            raise ShapeError("model has no feature head")
        return self.forward(x, n_layers=self.feature_layer)

    def logits(self, x, train=False, rng=None):
        if not self.layers or not isinstance(self.layers[-1], Softmax):
            raise ShapeError("model has no softmax head to strip for logits")
        return self.forward(x, train=train, rng=rng, n_layers=len(self.layers) - 1)

    def backward_from_logits(self, dlogits):
        d = dlogits
        for i, layer in reversed(list(enumerate(self.layers[:-1]))):  # below the softmax
            if i == 0 and isinstance(layer, Conv2D):
                # the input gradient of the bottom layer is never consumed
                layer.backward(d, need_dx=False)
                return None
            d = layer.backward(d)
        return d

    def parameters(self):
        for layer in self.layers:
            for name in layer.param_names:
                yield layer, name


def build_net(input_shape, layer_specs, seed: int, feature_layer=None) -> NetModel:
    """Instantiate a network from ("conv", k, cout)-style layer specs.

    He-normal weight init, zero biases, seeded.
    """
    rng = np.random.default_rng(seed)
    h, w, width = input_shape  # width: the channels, then the flat features
    layers = []
    for tag, *args in layer_specs:
        if tag not in LAYER_TYPES:
            raise ShapeError(f"unknown layer tag {tag!r}")
        if tag == "conv":
            k, cout = args
            std = np.sqrt(2.0 / (k * k * width))
            layers.append(Conv2D(rng.normal(0, std, (k, k, width, cout)), np.zeros(cout)))
            width = cout
        elif tag == "dense":
            (dout,) = args
            std = np.sqrt(2.0 / width)
            layers.append(Dense(rng.normal(0, std, (width, dout)), np.zeros(dout)))
            width = dout
        else:
            layers.append(LAYER_TYPES[tag](*args))
        fh, fw = _trunk_extent(layers, h, 0), _trunk_extent(layers, w, 1)
        if min(fh, fw) < 1:
            raise ShapeError(f"a {tag} layer does not fit its input")
        if tag == "flatten":
            width *= fh * fw
    return NetModel(layers, input_shape, feature_layer=feature_layer)


def build_classifier(input_size: int, seed: int, widths=(16, 32, 64), fc: int = 128,
                     dropout: float = 0.5) -> NetModel:
    """Two-class net: a trunk of conv -> 2x2 max-pool -> ReLU stages, one
    per width, with kernels 5, 3, 3, then FC + ReLU + dropout + softmax.

    Raises ShapeError when a stage does not fit the input (see
    ``build_net``).
    """
    specs = []
    for k, width in zip((5, 3, 3), widths):
        specs += [("conv", k, width), ("maxpool",), ("relu",)]
    specs += [("flatten",), ("dense", fc), ("relu",)]
    feature_layer = len(specs)
    if dropout > 0:
        specs.append(("dropout", dropout))
    specs += [("dense", 2), ("softmax",)]
    return build_net((input_size, input_size, 1), specs, seed, feature_layer=feature_layer)


# ---------------------------------------------------------------------------
# training
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 1e-2
    momentum: float = 0.75
    batch_size: int = 256
    l2: float = 1e-4
    epochs: int = 50
    dropout: float = 0.5
    seed: int = 0

    def __post_init__(self):
        if self.learning_rate < 0:
            raise ConfigError("learning rate must be >= 0")
        if not (0.0 <= self.momentum < 1.0):
            raise ConfigError("momentum must be in [0, 1)")
        if self.batch_size < 1:
            raise ConfigError("batch size must be >= 1")
        if self.l2 < 0:
            raise ConfigError("l2 must be >= 0")
        if self.epochs < 1:
            raise ConfigError("epochs must be >= 1")
        if not (0.0 <= self.dropout < 1.0):
            raise ConfigError("dropout must be in [0, 1)")


def softmax_cross_entropy(probs: np.ndarray, labels: np.ndarray) -> float:
    p = np.clip(probs[np.arange(len(labels)), labels], 1e-300, None)
    return float(-np.mean(np.log(p)))


def net_loss(model: NetModel, x, labels, train=False, rng=None):
    """(cross-entropy, dlogits) for a batch."""
    logits = model.logits(x, train=train, rng=rng)
    probs = Softmax().forward(logits)
    loss = softmax_cross_entropy(probs, labels)
    onehot = np.zeros_like(probs)
    onehot[np.arange(len(labels)), labels] = 1.0
    dlogits = (probs - onehot) / len(labels)
    return loss, dlogits


def _labels(x: np.ndarray, y) -> np.ndarray:
    """``y`` as int64 class labels, one 0 or 1 per sample of a non-empty ``x``."""
    y = np.asarray(y)
    if not len(x):
        raise DataError("training needs at least one sample")
    if y.ndim != 1:
        raise DataError(f"labels must be a 1-D array, got shape {y.shape}")
    if len(y) != len(x):
        raise LengthMismatch(f"{len(y)} labels for {len(x)} samples")
    if y.dtype.kind not in "biuf" or not np.all((y == 0) | (y == 1)):
        raise DataError(f"labels must be the classes 0 and 1, got {np.unique(y)}")
    return y.astype(np.int64)


def net_train(x: np.ndarray, y: np.ndarray, model: NetModel, cfg: TrainConfig) -> NetModel:
    """SGDM training: v <- m*v - lr*(grad + l2*w); w <- w + v.

    Shuffles every epoch with a seeded generator; dropout is active only
    here. Each step runs in place, through one preallocated buffer per
    parameter. Mutates and returns the model, recording the per-epoch loss
    trace in train_meta.

    Raises DataError unless ``x`` holds at least one sample, all finite,
    and ``y`` holds a label 0 or 1 per sample, and LengthMismatch when their
    lengths differ.
    """
    x = np.asarray(x, dtype=np.float64)
    y = _labels(x, y)
    if not np.isfinite(x).all():
        raise DataError("net training needs finite samples")
    rng = np.random.default_rng(cfg.seed)
    params = list(model.parameters())
    velocity = [np.zeros_like(getattr(l, n)) for l, n in params]
    step = [np.empty_like(v) for v in velocity]  # lr*(grad + l2*w), built in place
    trace = []
    for _ in range(cfg.epochs):
        order = rng.permutation(len(x))
        epoch_loss = 0.0
        for start in range(0, len(x), cfg.batch_size):
            batch = order[start : start + cfg.batch_size]
            loss, dlogits = net_loss(model, x[batch], y[batch], train=True, rng=rng)
            if not np.isfinite(loss):
                raise DivergenceError(f"training loss became {loss}")
            model.backward_from_logits(dlogits)
            for (layer, name), v, buf in zip(params, velocity, step):
                w, grad = getattr(layer, name), getattr(layer, "d" + name)
                if name == "w" and cfg.l2 > 0:
                    np.multiply(w, cfg.l2, out=buf)
                    buf += grad
                else:
                    buf[...] = grad
                buf *= cfg.learning_rate
                v *= cfg.momentum
                v -= buf
                w += v
            epoch_loss += loss * len(batch)
        trace.append(epoch_loss / len(x))
    model.train_meta = dict(model.train_meta)
    model.train_meta.update(
        {
            "loss_trace": trace,
            "config": asdict(cfg),
        }
    )
    return model
