"""Small convolutional networks with from-scratch backpropagation and
SGD-with-momentum training. Training, ``forward`` and ``features`` run in
64-bit floats; windowed inference runs its trunk after conv1 in 32-bit
floats (see below).

Conventions: batches are (N, H, W, C); convolutions are valid-padding,
stride 1; pooling is 2x2 stride 2 (odd remainders dropped); the terminal
layer is a softmax over two classes. L2 regularization acts on connection
weights, not biases.

Both training and inference run a pool that follows a ReLU before it
(ReLU is monotone, so both orders give the same values, and the same
gradients, on a map 4x smaller); the stored layer order, and so the model
file, keeps the ReLU first. Training pools by comparing the four stride-2
phases of its input with their maximum and keeps a first-max mask per
phase, so the backward pass writes each phase of the input gradient with
one product. Inference (``forward(train=False)``) keeps no masks, and runs
the convolutional trunk over chunks of ``INFER_CHUNK`` samples so that each
im2col matrix stays cache-sized. The dense head then runs on the whole
batch at once, as it does in training, because a BLAS matrix product can
round a row differently depending on how many rows share the call.

Windowed inference (``NetModel.forward_windows``) classifies many
overlapping windows of one image, each minus the same per-pixel ``offset``
(a mean patch). Only the first convolution is shared between windows: the
offset is subtracted pixel by pixel before it, so two windows that overlap
see different inputs at the same image pixel, and every later layer works
on different values. Conv1 is linear, so conv1 runs once over the whole
image and once over the offset, and each window's map is the image map at
the window's position minus the offset map. Pool1 reads its 2x2 maxima
straight from that dense map; conv2 onward runs per window.

Conv1 runs in 64-bit floats; its two maps are then rounded to 32 bits, and
pool1, conv2 onward and their im2col copies work in 32-bit floats, which
halves the bytes those copies move and lets conv2/conv3 run as single-
precision matrix products. The dense head runs in 64-bit floats on the
whole batch, as in ``forward``. Results agree with ``forward`` on the
cropped windows to single-precision rounding (about 1e-6 on the logits),
not bit for bit.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .. import vio
from ..errors import ConfigError, DivergenceError, ShapeError

INFER_CHUNK = 32  # samples per trunk pass at inference


# ---------------------------------------------------------------------------
# layers
# ---------------------------------------------------------------------------

def _im2col(x: np.ndarray, kh: int, kw: int) -> np.ndarray:
    """(N, H, W, C) -> (N*OH*OW, kh*kw*C) patch matrix for valid stride-1."""
    windows = sliding_window_view(x, (kh, kw), axis=(1, 2))  # (N, OH, OW, C, kh, kw)
    n, oh, ow = windows.shape[:3]
    cols = np.ascontiguousarray(windows.transpose(0, 1, 2, 4, 5, 3))
    return cols.reshape(n * oh * ow, kh * kw * x.shape[3]), (n, oh, ow)


class Conv2D:
    param_names = ("w", "b")

    def __init__(self, w: np.ndarray, b: np.ndarray):
        self.w = w  # (kh, kw, cin, cout)
        self.b = b
        self.dw = None
        self.db = None
        self._cols = None

    def forward(self, x, train=False, rng=None):
        """Valid convolution in the dtype of ``x`` (the weights are cast to
        it; a no-op for 64-bit input)."""
        kh, kw, cin, cout = self.w.shape
        if x.shape[3] != cin or x.shape[1] < kh or x.shape[2] < kw:
            raise ShapeError(f"conv {self.w.shape} cannot take input {x.shape}")
        cols, (n, oh, ow) = _im2col(x, kh, kw)
        out = cols @ self.w.reshape(-1, cout).astype(x.dtype, copy=False)
        out += self.b.astype(x.dtype, copy=False)
        if train:
            self._cols = cols
        return out.reshape(n, oh, ow, cout)

    def backward(self, dout, need_dx=True):
        kh, kw, cin, cout = self.w.shape
        n, oh, ow, _ = dout.shape
        dmat = dout.reshape(-1, cout)
        self.dw = (self._cols.T @ dmat).reshape(kh, kw, cin, cout)
        self.db = dmat.sum(axis=0)
        self._cols = None
        if not need_dx:
            return None
        padded = np.pad(dout, ((0, 0), (kh - 1, kh - 1), (kw - 1, kw - 1), (0, 0)))
        dcols, (_, h, w) = _im2col(padded, kh, kw)
        # full correlation with the kernel rotated 180 deg, channels swapped
        wmat = self.w[::-1, ::-1, :, :].transpose(0, 1, 3, 2).reshape(-1, cin)
        return (dcols @ wmat).reshape(n, h, w, cin)

    def spec(self):
        return ("conv", self.w.shape[0], self.w.shape[3])


class ReLU:
    param_names = ()

    def forward(self, x, train=False, rng=None):
        if train:
            self._mask = x > 0
        return np.maximum(x, 0.0)

    def backward(self, dout):
        return dout * self._mask

    def spec(self):
        return ("relu",)


_PHASES = ((0, 0), (0, 1), (1, 0), (1, 1))  # a 2x2 block in row-major order


class MaxPool2:
    """2x2 max pooling, stride 2. Gradient routes to the first max of each
    block in row-major order; only training keeps the four first-max masks
    that routing needs."""

    param_names = ()

    def forward(self, x, train=False, rng=None):
        n, h, w, c = x.shape
        oh, ow = h // 2, w // 2
        if oh < 1 or ow < 1:
            raise ShapeError(f"input {x.shape} too small for 2x2 pooling")
        if not train:
            blocks = x[:, : oh * 2, : ow * 2, :].reshape(n, oh, 2, ow, 2, c)
            rows = np.maximum(blocks[:, :, 0], blocks[:, :, 1])
            return np.maximum(rows[:, :, :, 0], rows[:, :, :, 1])
        phases = [x[:, a : 2 * oh : 2, b : 2 * ow : 2] for a, b in _PHASES]
        out = np.maximum(np.maximum(phases[0], phases[1]), np.maximum(phases[2], phases[3]))
        seen = phases[0] == out
        self._masks = [seen]
        for phase in phases[1:]:
            first = phase == out
            first &= ~seen
            seen = seen | first
            self._masks.append(first)
        self._xshape = x.shape
        return out

    def backward(self, dout):
        oh, ow = self._xshape[1] // 2, self._xshape[2] // 2
        dx = np.empty(self._xshape)
        dx[:, 2 * oh :] = 0.0  # odd remainders take no gradient
        dx[:, :, 2 * ow :] = 0.0
        for (a, b), mask in zip(_PHASES, self._masks):
            np.multiply(dout, mask, out=dx[:, a : 2 * oh : 2, b : 2 * ow : 2])
        self._masks = None
        return dx

    def spec(self):
        return ("maxpool",)


class Flatten:
    param_names = ()

    def forward(self, x, train=False, rng=None):
        self._shape = x.shape
        return x.reshape(x.shape[0], int(np.prod(x.shape[1:])))

    def backward(self, dout):
        return dout.reshape(self._shape)

    def spec(self):
        return ("flatten",)


class Dense:
    param_names = ("w", "b")

    def __init__(self, w: np.ndarray, b: np.ndarray):
        self.w = w  # (din, dout)
        self.b = b
        self.dw = None
        self.db = None

    def forward(self, x, train=False, rng=None):
        if x.shape[1] != self.w.shape[0]:
            raise ShapeError(f"dense {self.w.shape} cannot take input {x.shape}")
        if train:
            self._x = x
        return x @ self.w + self.b

    def backward(self, dout, need_dx=True):
        self.dw = self._x.T @ dout
        self.db = dout.sum(axis=0)
        self._x = None
        if not need_dx:
            return None
        return dout @ self.w.T

    def spec(self):
        return ("dense", self.w.shape[1])


class Dropout:
    """Inverted dropout; identity at inference."""

    param_names = ()

    def __init__(self, rate: float):
        self.rate = rate

    def forward(self, x, train=False, rng=None):
        if not train or self.rate <= 0.0:
            self._mask = None
            return x
        keep = 1.0 - self.rate
        self._mask = (rng.random(x.shape) < keep) / keep
        return x * self._mask

    def backward(self, dout):
        if self._mask is None:
            return dout
        return dout * self._mask

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

def _run(layers, x, train=False, rng=None):
    for layer in layers:
        x = layer.forward(x, train=train, rng=rng)
    return x


def _pool_before_relu(layers):
    """Run order, for training and inference alike: each MaxPool2 that
    directly follows a ReLU moves ahead of it. Max and ReLU commute, so the
    values are unchanged; so are the gradients, because where a block's max
    is > 0 its first max in x is its first max in ReLU(x), and where the max
    is <= 0 both orders send the block a zero gradient."""
    order = list(layers)
    for i in range(len(order) - 1):
        if isinstance(order[i], ReLU) and isinstance(order[i + 1], MaxPool2):
            order[i], order[i + 1] = order[i + 1], order[i]
    return order


def _infer(trunk_chunk, n, head):
    """Run ``trunk_chunk(start)`` over ``INFER_CHUNK``-sample chunks of an
    n-sample batch, then the head on the whole batch at once."""
    parts = [trunk_chunk(s) for s in range(0, max(n, 1), INFER_CHUNK)]
    x = parts[0] if len(parts) == 1 else np.concatenate(parts)
    return _run(head, x)


def _flatten_index(layers):
    return next((i for i, l in enumerate(layers) if isinstance(l, Flatten)), len(layers))


@vio.model_kind("net")
@dataclass
class NetModel:
    layers: list
    input_shape: tuple[int, int, int]  # (H, W, C)
    feature_layer: int | None = None   # layer count defining the feature head
    train_meta: dict = field(default_factory=dict)

    def __post_init__(self):
        self.input_shape = tuple(self.input_shape)

    def forward(self, x, train=False, rng=None, n_layers=None):
        x = np.asarray(x, dtype=np.float64)
        if x.shape[1:] != self.input_shape:
            raise ShapeError(f"expected input {self.input_shape}, got {x.shape[1:]}")
        layers = self.layers[: len(self.layers) if n_layers is None else n_layers]
        if train:
            return _run(_pool_before_relu(layers), x, train=True, rng=rng)
        flat = _flatten_index(layers)
        trunk = _pool_before_relu(layers[:flat])
        return _infer(lambda s: _run(trunk, x[s : s + INFER_CHUNK]), len(x), layers[flat:])

    def forward_windows(self, image, oy, ox, offset):
        """``forward`` on the input-sized windows of a 2-D ``image`` whose
        top-left corners are ``(oy[i], ox[i])``, each minus ``offset``.

        Conv1 runs once over the image and once over the offset; pool1 is
        gathered from the dense conv1 map per chunk of windows, the rest of
        the trunk runs in 32-bit floats, and the head runs as in
        ``forward``. Agrees with ``forward`` to single-precision rounding
        (see the module docstring).
        """
        image = np.asarray(image, dtype=np.float64)
        offset = np.asarray(offset, dtype=np.float64)
        oy = np.asarray(oy, dtype=np.intp)
        ox = np.asarray(ox, dtype=np.intp)
        h, w, c = self.input_shape
        if image.ndim != 2 or c != 1:
            raise ShapeError(f"windows need a 2-D image and a 1-channel net, got "
                             f"image {image.shape} and input {self.input_shape}")
        if offset.shape != (h, w):
            raise ShapeError(f"offset {offset.shape} does not match input {self.input_shape}")
        if oy.ndim != 1 or oy.shape != ox.shape:
            raise ShapeError(f"window corners {oy.shape} and {ox.shape} do not pair up")
        if len(oy) and (oy.min() < 0 or ox.min() < 0 or oy.max() + h > image.shape[0]
                        or ox.max() + w > image.shape[1]):
            raise ShapeError(f"a {h}x{w} window leaves the {image.shape} image")
        layers = self.layers
        if not (len(layers) >= 3 and isinstance(layers[0], Conv2D)
                and isinstance(layers[1], ReLU) and isinstance(layers[2], MaxPool2)):
            raise ShapeError("windowed inference needs a net that starts conv -> relu -> pool")
        conv = layers[0]
        dense = conv.forward(image[None, :, :, None])[0].astype(np.float32)
        off = (conv.forward(offset[None, :, :, None])[0] - conv.b).astype(np.float32)
        oh, ow, cout = off.shape
        ph, pw = oh // 2, ow // 2
        if ph < 1 or pw < 1:
            raise ShapeError(f"conv1 map {off.shape[:2]} too small for 2x2 pooling")
        # view[y, x, p, q] = dense[y + 2p, x + 2q]: one pooling phase of the
        # window whose conv1 map starts at (y, x), channel-last
        view = np.moveaxis(
            sliding_window_view(dense, (2 * ph - 1, 2 * pw - 1), axis=(0, 1))[..., ::2, ::2],
            2, -1)
        phases = [(a, b, off[a : 2 * ph : 2, b : 2 * pw : 2]) for a in (0, 1) for b in (0, 1)]
        flat = _flatten_index(layers)
        rest = _pool_before_relu(layers[:flat])[2:]  # relu1, conv2, ...

        def trunk_chunk(s):
            y, x = oy[s : s + INFER_CHUNK], ox[s : s + INFER_CHUNK]
            pooled = None
            for a, b, off_ab in phases:
                phase = view[y + a, x + b]
                phase -= off_ab
                pooled = phase if pooled is None else np.maximum(pooled, phase, out=pooled)
            return _run(rest, pooled).astype(np.float64)

        return _infer(trunk_chunk, len(oy), layers[flat:])

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
        chain = _pool_before_relu(self.layers[:-1])  # as logits(train=True) ran it
        for i in range(len(chain) - 1, -1, -1):
            layer = chain[i]
            if i == 0 and isinstance(layer, (Conv2D, Dense)):
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
    h, w, c = input_shape
    flat = None
    layers = []
    for tag, *args in layer_specs:
        if tag not in LAYER_TYPES:
            raise ShapeError(f"unknown layer tag {tag!r}")
        if tag == "conv":
            k, cout = args
            std = np.sqrt(2.0 / (k * k * c))
            layers.append(Conv2D(rng.normal(0, std, (k, k, c, cout)), np.zeros(cout)))
            h, w, c = h - k + 1, w - k + 1, cout
            if h < 1 or w < 1:
                raise ShapeError("conv layer does not fit its input")
        elif tag == "dense":
            (dout,) = args
            din = flat if flat is not None else c
            std = np.sqrt(2.0 / din)
            layers.append(Dense(rng.normal(0, std, (din, dout)), np.zeros(dout)))
            flat = dout
        else:
            layers.append(LAYER_TYPES[tag](*args))
            if tag == "maxpool":
                h, w = h // 2, w // 2
                if h < 1 or w < 1:
                    raise ShapeError("pool layer does not fit its input")
            elif tag == "flatten":
                flat = h * w * c
    return NetModel(layers, input_shape, feature_layer=feature_layer)


def build_classifier(input_size: int, seed: int, widths=(16, 32, 64), fc: int = 128,
                     dropout: float = 0.5) -> NetModel:
    """Two-class net: a conv/pool trunk sized to the input, then FC +
    dropout + softmax.

    Trailing conv/pool stages that no longer fit small inputs are dropped,
    so the same stack scales from full-size patches down to toy grids.
    """
    specs = []
    size = input_size
    kernels = [5, 3, 3]
    for k, width in zip(kernels, widths):
        if size - k + 1 < 2:
            break
        specs += [("conv", k, width), ("relu",), ("maxpool",)]
        size = (size - k + 1) // 2
        if size < 1:
            raise ShapeError("input too small for the classifier trunk")
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


def net_train(x: np.ndarray, y: np.ndarray, model: NetModel, cfg: TrainConfig) -> NetModel:
    """SGDM training: v <- m*v - lr*(grad + l2*w); w <- w + v.

    Shuffles every epoch with a seeded generator; dropout is active only
    here. Mutates and returns the model, recording the per-epoch loss
    trace in train_meta.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    rng = np.random.default_rng(cfg.seed)
    velocity = {id(l): {n: np.zeros_like(getattr(l, n)) for n in l.param_names}
                for l in model.layers}
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
            for layer, name in model.parameters():
                grad = getattr(layer, "d" + name)
                if name == "w" and cfg.l2 > 0:
                    grad = grad + cfg.l2 * getattr(layer, name)
                v = velocity[id(layer)][name]
                v *= cfg.momentum
                v -= cfg.learning_rate * grad
                getattr(layer, name)[...] += v
            epoch_loss += loss * len(batch)
        trace.append(epoch_loss / len(x))
    model.train_meta = dict(model.train_meta)
    model.train_meta.update(
        {
            "loss_trace": trace,
            "config": {
                "learning_rate": cfg.learning_rate,
                "momentum": cfg.momentum,
                "batch_size": cfg.batch_size,
                "l2": cfg.l2,
                "epochs": cfg.epochs,
                "dropout": cfg.dropout,
                "seed": cfg.seed,
            },
        }
    )
    return model

