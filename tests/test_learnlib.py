import numpy as np
import pytest

import oracles
from miquant import learnlib as ll, vio
from miquant.errors import (
    ConfigError,
    DataError,
    DegenerateData,
    DivergenceError,
    EmptyClassError,
    LengthMismatch,
    ShapeError,
    SingleClassError,
)
from miquant.learnlib.net import (
    Conv2D,
    Dense,
    Dropout,
    Flatten,
    MaxPool2,
    NetModel,
    ReLU,
    _im2col,
    _pool_dilated,
)


# --- forward path ---

def test_zero_weight_net_outputs_uniform_probabilities():
    net = ll.build_net((1, 3, 1), [("flatten",), ("dense", 2), ("softmax",)], seed=0)
    net.layers[1].w[...] = 0.0
    probs = net.forward(np.random.default_rng(0).normal(size=(5, 1, 3, 1)))
    np.testing.assert_allclose(probs, 0.5)


def test_identity_conv_kernel_reproduces_input():
    w = np.zeros((3, 3, 1, 1))
    w[1, 1, 0, 0] = 1.0
    conv = Conv2D(w, np.zeros(1))
    x = np.random.default_rng(1).normal(size=(2, 6, 6, 1))
    out = conv.forward(x)
    np.testing.assert_allclose(out, x[:, 1:5, 1:5, :])


def naive_conv(x, w, b):
    n, h, wd, cin = x.shape
    kh, kw, _, cout = w.shape
    oh, ow = h - kh + 1, wd - kw + 1
    out = np.zeros((n, oh, ow, cout))
    for s in range(n):
        for i in range(oh):
            for j in range(ow):
                for f in range(cout):
                    acc = b[f]
                    for k in range(kh):
                        for l in range(kw):
                            for c in range(cin):
                                acc += x[s, i + k, j + l, c] * w[k, l, c, f]
                    out[s, i, j, f] = acc
    return out


def naive_conv_grads(x, dout, kh, kw):
    """(dW, db) of a valid stride-1 convolution of ``x`` that received the
    output gradient ``dout``, one output pixel at a time."""
    n, oh, ow, cout = dout.shape
    cin = x.shape[3]
    dw = np.zeros((kh, kw, cin, cout))
    db = np.zeros(cout)
    for s in range(n):
        for i in range(oh):
            for j in range(ow):
                for f in range(cout):
                    g = dout[s, i, j, f]
                    db[f] += g
                    for k in range(kh):
                        for l in range(kw):
                            for c in range(cin):
                                dw[k, l, c, f] += x[s, i + k, j + l, c] * g
    return dw, db


def test_conv_matches_naive_nested_loop_oracle():
    rng = np.random.default_rng(2)
    w = rng.normal(size=(3, 3, 2, 4))
    b = rng.normal(size=4)
    conv = Conv2D(w.copy(), b.copy())
    x = rng.normal(size=(2, 5, 6, 2))
    np.testing.assert_allclose(conv.forward(x), naive_conv(x, w, b), atol=1e-10)


@pytest.mark.parametrize("integer", [False, True], ids=["real", "integer-valued"])
def test_conv_parameter_gradients_match_nested_loop_oracle(integer):
    # integer-valued sums are exact in every order, so they match bit for bit
    rng = np.random.default_rng(50)
    draw = (lambda shape: rng.integers(-4, 5, shape).astype(np.float64)) if integer \
        else (lambda shape: rng.normal(size=shape))
    conv = Conv2D(draw((3, 2, 2, 3)), draw(3))
    x = draw((2, 6, 7, 2))
    dout = draw((2, 4, 6, 3))
    conv.forward(x, train=True)
    conv.backward(dout, need_dx=False)
    dw, db = naive_conv_grads(x, dout, 3, 2)
    if integer:
        np.testing.assert_array_equal(conv.dw, dw)
        np.testing.assert_array_equal(conv.db, db)
    else:
        np.testing.assert_allclose(conv.dw, dw, rtol=1e-12, atol=0)
        np.testing.assert_allclose(conv.db, db, rtol=1e-12, atol=0)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("cin", [1, 3])
def test_im2col_equals_the_per_pixel_patch_oracle(cin, d, dtype):
    # one-channel input takes the tap-major buffer, more channels the
    # row-major one; both hold each pixel's taps, then the bias tap's one
    rng = np.random.default_rng(10 * cin + d)
    x = rng.normal(size=(2, 11, 10, cin)).astype(dtype)
    kh, kw = 3, 2
    cols, (n, oh, ow) = _im2col(x, kh, kw, d)
    assert (n, oh, ow) == (2, 11 - d * (kh - 1), 10 - d * (kw - 1))
    want = np.empty((n * oh * ow, kh * kw * cin + 1), dtype=dtype)
    for row, (s, i, j) in enumerate(np.ndindex(n, oh, ow)):
        want[row] = [x[s, i + k * d, j + l * d, c]
                     for k in range(kh) for l in range(kw) for c in range(cin)] + [1.0]
    assert cols.dtype == dtype
    np.testing.assert_array_equal(cols, want)


@pytest.mark.parametrize("cout", [1, 4, 16])
def test_one_channel_conv_forward_and_weight_gradient_match_nested_loop_oracles(cout):
    # BLAS rounds the tap-major and row-major layouts differently at some
    # output widths, so this bounds the error instead of asking for bits
    rng = np.random.default_rng(60 + cout)
    w, b = rng.normal(size=(5, 5, 1, cout)), rng.normal(size=cout)
    conv = Conv2D(w.copy(), b.copy())
    x = rng.normal(size=(3, 10, 9, 1))
    out = conv.forward(x, train=True)
    np.testing.assert_allclose(out, naive_conv(x, w, b), rtol=1e-12, atol=1e-12)
    dout = rng.normal(size=out.shape)
    conv.backward(dout, need_dx=False)
    dw, db = naive_conv_grads(x, dout, 5, 5)
    np.testing.assert_allclose(conv.dw, dw, rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(conv.db, db, rtol=1e-12, atol=1e-12)


def test_dense_computes_in_its_input_dtype():
    rng = np.random.default_rng(3)
    dense = Dense(rng.normal(size=(12, 5)), rng.normal(size=5))
    x = rng.normal(size=(7, 12))
    double = dense.forward(x)  # the training and detector path: unchanged
    assert double.dtype == np.float64
    np.testing.assert_array_equal(double, x @ dense.w + dense.b)
    single = dense.forward(x.astype(np.float32))
    assert single.dtype == np.float32
    np.testing.assert_allclose(single, double, rtol=0.0, atol=1e-5)


def test_softmax_rows_are_probability_vectors():
    rng = np.random.default_rng(3)
    net = ll.build_classifier(13, seed=4, widths=(4, 6), fc=8)
    probs = net.forward(rng.normal(size=(7, 13, 13, 1)))
    assert np.all(probs >= 0)
    np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-9)


def test_forward_shape_error():
    net = ll.build_classifier(13, seed=4, widths=(4, 6), fc=8)
    with pytest.raises(ShapeError):
        net.forward(np.zeros((1, 12, 12, 1)))


def _train_chain(layers, x):
    """The layers in stored order, one by one in training mode, so that each
    pool takes its first-max-mask path."""
    for layer in layers:
        x = layer.forward(x, train=True)
    return x


@pytest.mark.parametrize("n", [1, 31, 32, 33, 65])
def test_inference_path_bit_identical_to_training_chain(n):
    # 49 px: conv5 -> 45, and the 45 -> 22 pool drops an odd remainder;
    # 89 px, the detector's input: 85 -> 42
    for size in (49, 89):
        net = ll.build_classifier(size, seed=36, dropout=0.0)
        rng = np.random.default_rng(37)
        for layer in net.layers:
            if isinstance(layer, (Conv2D, Dense)):
                layer.b[...] = rng.normal(0.0, 0.1, layer.b.shape)
        x = rng.normal(size=(n, size, size, 1))
        np.testing.assert_array_equal(net.forward(x), _train_chain(net.layers, x))
        np.testing.assert_array_equal(
            net.features(x), _train_chain(net.layers[: net.feature_layer], x))


# --- the bottom stage in pool-phase order ---

def _phase_slabs(z):
    """The (4N, OH, OW, C) pool-phase layout of an (N, H, W, C) map: phase
    (a, b) of every 2x2 block, in slab 2a + b; odd remainders dropped."""
    oh, ow = z.shape[1] // 2, z.shape[2] // 2
    return np.concatenate([z[:, a : 2 * oh : 2, b : 2 * ow : 2] for a in (0, 1) for b in (0, 1)])


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("shape", [(2, 13, 13, 1), (1, 14, 11, 1), (0, 13, 13, 1)])
def test_phase_ordered_im2col_holds_the_pooled_pixels_phase_by_phase(shape, dtype):
    # the same patch rows as the plain matrix, only reordered, and without
    # the odd row and column that the pool drops
    x = np.random.default_rng(sum(shape)).normal(size=shape).astype(dtype)
    cols, (n, oh, ow) = _im2col(x, 5, 3)
    phased, dims = _im2col(x, 5, 3, phases=True)
    assert dims == (4 * n, oh // 2, ow // 2) and phased.dtype == dtype
    rows = np.arange(n * oh * ow).reshape(n, oh, ow, 1)
    np.testing.assert_array_equal(phased, cols[_phase_slabs(rows).ravel()])


def test_phase_order_needs_one_undilated_channel_and_four_slabs():
    conv = Conv2D(np.ones((3, 3, 2, 4)), np.zeros(4))
    with pytest.raises(ShapeError):  # two channels
        conv.forward(np.ones((1, 9, 9, 2)), phases=True)
    conv = Conv2D(np.ones((3, 3, 1, 4)), np.zeros(4))
    with pytest.raises(ShapeError):
        conv.forward(np.ones((1, 9, 9, 1)), phases=True, dilation=2)
    with pytest.raises(ShapeError):  # a 1 x 2 output holds no 2 x 2 block
        conv.forward(np.ones((1, 3, 4, 1)), phases=True)
    conv.forward(np.ones((1, 9, 9, 1)), train=True, phases=True)
    with pytest.raises(ShapeError):  # the stage gives no input gradient
        conv.backward(np.ones((4, 3, 3, 4)))
    with pytest.raises(ShapeError):
        MaxPool2().forward(np.ones((6, 3, 3, 4)), phases=True)


@pytest.mark.parametrize("shape", [(2, 6, 6, 1), (3, 7, 9, 2), (2, 17, 13, 4)])
def test_phase_pool_routes_one_gradient_per_tied_block_as_the_argmax_oracle(shape):
    # flat corners and signed zero runs tie whole blocks; the phase slabs
    # pool bit for bit as the map does, and each block routes one gradient,
    # to its first max in row-major order
    rng = np.random.default_rng(sum(shape) + 11)
    z = rng.choice([-1.0, -0.0, 0.0, 0.0, 0.0, 2.0], size=shape)
    z[:, :4, :4] = 3.0
    z[:, 2:4] = rng.choice([0.0, -0.0], size=z[:, 2:4].shape)
    x = _phase_slabs(z)
    pool, oracle, spatial = MaxPool2(), oracles.ArgmaxPool2(), MaxPool2()
    out = pool.forward(x, train=True, phases=True)
    want = spatial.forward(z, train=True)
    np.testing.assert_array_equal(out, want)
    np.testing.assert_array_equal(np.signbit(out), np.signbit(want))
    np.testing.assert_array_equal(out, oracle.forward(x, train=True, phases=True))
    dout = rng.normal(size=out.shape)
    dx = pool.backward(dout)
    assert dx.shape == x.shape
    np.testing.assert_array_equal(dx, oracle.backward(dout))
    np.testing.assert_array_equal(dx, _phase_slabs(spatial.backward(dout)))
    np.testing.assert_array_equal((dx != 0).reshape(4, *out.shape).sum(axis=0), 1)


@pytest.mark.parametrize("n", [0, 1, 33])
@pytest.mark.parametrize("size", [13, 49, 89])
def test_phase_stage_equals_the_layer_by_layer_chain(size, n):
    # conv1 maps of 9, 45 and 85 px: odd, so pool1 drops a remainder
    widths = (16, 32) if size == 13 else (16, 32, 64)
    net = ll.build_classifier(size, seed=size + n, widths=widths, dropout=0.0)
    rng = np.random.default_rng(size + n)
    for layer in net.layers:
        if isinstance(layer, (Conv2D, Dense)):
            layer.b[...] = rng.normal(0.0, 0.1, layer.b.shape)
    x = rng.normal(size=(n, size, size, 1))
    chain = _train_chain(net.layers, x)
    np.testing.assert_array_equal(net.forward(x), chain)
    np.testing.assert_array_equal(net.forward(x, train=True), chain)
    np.testing.assert_array_equal(
        net.features(x), _train_chain(net.layers[: net.feature_layer], x))
    # a net cut before pool1 has no stage, and returns conv1's map as it is
    np.testing.assert_array_equal(net.forward(x, n_layers=1), net.layers[0].forward(x))


@pytest.mark.parametrize("cout", [1, 4, 16])
@pytest.mark.parametrize("size", [13, 14])
def test_phase_stage_weight_gradient_matches_nested_loop_oracle(size, cout):
    # the pooled gradient, scattered to the spatial map, gives the oracle's
    # dW; the stage sums the same products in another row order
    rng = np.random.default_rng(10 * size + cout)
    conv, pool = Conv2D(rng.normal(size=(5, 5, 1, cout)), rng.normal(size=cout)), MaxPool2()
    x = rng.normal(size=(3, size, size, 1))
    z = conv.forward(x, train=True, phases=True)
    out = pool.forward(z, train=True, phases=True)
    spatial = MaxPool2()
    want = spatial.forward(naive_conv(x, conv.w, conv.b), train=True)
    np.testing.assert_allclose(out, want, rtol=1e-12, atol=1e-12)
    dout = rng.normal(size=out.shape)
    conv.backward(pool.backward(dout), need_dx=False)
    dw, db = naive_conv_grads(x, spatial.backward(dout), 5, 5)
    np.testing.assert_allclose(conv.dw, dw, rtol=0, atol=1e-13 * np.abs(dw).max())
    np.testing.assert_allclose(conv.db, db, rtol=0, atol=1e-13 * np.abs(db).max())


def test_forward_empty_batch_returns_empty_rows():
    net = ll.build_classifier(13, seed=38, widths=(4, 6), fc=8)
    x = np.zeros((0, 13, 13, 1))
    assert net.forward(x).shape == (0, 2)
    assert net.features(x).shape == (0, 8)
    assert net.forward(x, train=True, rng=np.random.default_rng(0)).shape == (0, 2)


def test_logits_without_softmax_head_raises_shape_error():
    net = ll.build_net((1, 3, 1), [("flatten",), ("dense", 2)], seed=0)
    with pytest.raises(ShapeError):
        net.logits(np.zeros((1, 1, 3, 1)))


@pytest.mark.parametrize("size,widths", [(5, (4,)), (12, (4, 8, 8))],
                         ids=["pool after the 5x5 conv", "third conv"])
def test_build_classifier_rejects_an_input_too_small_for_a_stage(size, widths):
    # every width is a stage: none is dropped to fit the input
    with pytest.raises(ShapeError):
        ll.build_classifier(size, seed=0, widths=widths)


@pytest.mark.parametrize("call", [
    lambda: MaxPool2().forward(np.zeros((1, 1, 4, 1))),
    lambda: Dense(np.zeros((3, 2)), np.zeros(2)).forward(np.zeros((1, 4))),
    lambda: ll.build_net((1, 3, 1), [("flatten",), ("dense", 2)], seed=0).features(
        np.zeros((1, 1, 3, 1))),
    lambda: ll.build_net((4, 4, 1), [("mystery",)], seed=0),
    lambda: ll.build_net((4, 4, 1), [("conv", 5, 2)], seed=0),
    lambda: ll.build_net((1, 1, 1), [("maxpool",)], seed=0),
], ids=["pool input too small", "dense width mismatch", "features without a head",
        "unknown layer tag", "conv larger than its input", "pool larger than its input"])
def test_a_net_that_cannot_take_its_input_raises_shape_error(call):
    with pytest.raises(ShapeError):
        call()


# --- windowed inference ---

def _windows_net(size, seed, widths=(16, 32, 64)):
    """Paper-style net with random biases; the softmax is stripped, so the
    net outputs logits."""
    net = ll.build_classifier(size, seed=seed, widths=widths, dropout=0.0)
    rng = np.random.default_rng(seed + 1)
    for layer in net.layers:
        if isinstance(layer, (Conv2D, Dense)):
            layer.b[...] = rng.normal(0.0, 0.1, layer.b.shape)
    return NetModel(net.layers[:-1], net.input_shape)


def _corners(rng, n, image_shape, size):
    """n window corners; the first four touch the top-left, bottom-right,
    top-right and bottom-left corners of the image, the rest are random."""
    hy, hx = image_shape[0] - size, image_shape[1] - size
    edges = [(0, 0), (hy, hx), (0, hx), (hy, 0)]
    rand = [tuple(rng.integers(0, (hy + 1, hx + 1))) for _ in range(max(n - 4, 0))]
    oy, ox = zip(*(edges + rand)[:n])
    return np.array(oy, dtype=np.intp), np.array(ox, dtype=np.intp)


def _assert_windows_match_forward(net, image, oy, ox, offset):
    size = net.input_shape[0]
    crops = np.stack([image[y : y + size, x : x + size] - offset for y, x in zip(oy, ox)])
    expected = net.forward(crops[..., None])
    got = net.forward_windows(image, oy, ox, offset)
    assert got.shape == expected.shape == (len(oy), 2)
    # windowed inference runs in float32 throughout: the worst of these
    # inputs differs by 9.6e-7 (OpenBLAS 0.3.31, x86-64)
    np.testing.assert_allclose(got, expected, rtol=0.0, atol=1e-5)
    np.testing.assert_array_equal(got.argmax(axis=1), expected.argmax(axis=1))


@pytest.mark.parametrize("size", [49, 48])  # conv5 maps of 45 (odd) and 44 (even)
@pytest.mark.parametrize("n,margin", [
    (1, (0, 0)),  # the one window is the whole image and touches every edge
    (1, (23, 30)),
    (4, (23, 30)),
    (31, (23, 30)),
    (32, (23, 30)),
    (33, (23, 30)),
])
def test_forward_windows_matches_forward_on_cropped_windows(size, n, margin):
    net = _windows_net(size, seed=40 + size)
    rng = np.random.default_rng(size * 100 + n)
    image = rng.uniform(0.0, 1.0, (size + margin[0], size + margin[1]))
    assert net.layers[0].b.std() > 0
    oy, ox = _corners(rng, n, image.shape, size)
    _assert_windows_match_forward(net, image, oy, ox, rng.uniform(0.0, 1.0))


@pytest.mark.parametrize("size,widths", [(49, (16, 32, 64)), (48, (16, 32, 64)), (49, (4, 8))],
                         ids=["49px", "48px", "49px-two-stage"])
def test_forward_windows_matches_forward_at_every_corner_residue_mod_8(size, widths):
    # three pools: a corner's residue mod 8 picks its phase map at each pool
    net = _windows_net(size, seed=50 + size, widths=widths)
    rng = np.random.default_rng(size + len(widths))
    image = rng.uniform(0.0, 1.0, (size + 17, size + 19))
    oy, ox = np.divmod(np.arange(64), 8)
    oy = oy + 8 * rng.integers(0, 2, 64)  # the residue stays; the block moves
    ox = ox + 8 * rng.integers(0, 2, 64)
    _assert_windows_match_forward(net, image, oy, ox, 0.5)


def test_forward_windows_scans_the_union_box_of_far_apart_windows():
    net = _windows_net(49, seed=57)
    rng = np.random.default_rng(57)
    image = rng.uniform(0.0, 1.0, (240, 250))
    oy, ox = np.array([3, 186]), np.array([190, 5])  # opposite corners of the image
    _assert_windows_match_forward(net, image, oy, ox, 0.25)
    # each window alone scans only its own box, and agrees with the pair
    pair = net.forward_windows(image, oy, ox, 0.25)
    for i in range(2):
        alone = net.forward_windows(image, oy[i : i + 1], ox[i : i + 1], 0.25)
        np.testing.assert_allclose(alone, pair[i : i + 1], rtol=0.0, atol=1e-5)


def test_forward_windows_on_no_windows_is_empty():
    net = _windows_net(48, seed=47)
    image = np.zeros((60, 60))
    assert net.forward_windows(image, [], [], 0.0).shape == (0, 2)


def test_forward_windows_runs_in_single_precision_and_returns_float64(monkeypatch):
    seen = []
    for cls in (Conv2D, Dense):
        def spy(self, x, *args, _forward=cls.forward, **kwargs):
            seen.append((type(self).__name__, x.dtype))
            return _forward(self, x, *args, **kwargs)
        monkeypatch.setattr(cls, "forward", spy)
    net = _windows_net(49, seed=58)
    rng = np.random.default_rng(58)
    image = rng.uniform(0.0, 1.0, (70, 66))
    oy, ox = _corners(rng, 9, image.shape, 49)
    assert net.forward_windows(image, oy, ox, 0.5).dtype == np.float64
    assert [name for name, _ in seen] == ["Conv2D"] * 3 + ["Dense"] * 2
    assert all(dtype == np.float32 for _, dtype in seen)
    assert net.forward_windows(image, [], [], 0.5).dtype == np.float64


@pytest.mark.parametrize("image_shape,oy,ox", [
    ((60, 60, 1), [0], [0]),   # not a 2-D image
    ((60, 60), [12], [0]),     # leaves the bottom edge
    ((60, 60), [0], [-1]),     # leaves the left edge
    ((60, 60), [0, 5], [0]),   # corners do not pair up
])
def test_forward_windows_rejects_bad_windows(image_shape, oy, ox):
    net = _windows_net(49, seed=48)
    with pytest.raises(ShapeError):
        net.forward_windows(np.zeros(image_shape), oy, ox, 0.0)


def test_forward_windows_needs_a_scalar_offset():
    net = _windows_net(49, seed=48)
    with pytest.raises(ShapeError):
        net.forward_windows(np.zeros((60, 60)), [0], [0], np.zeros((49, 49)))


def test_forward_windows_runs_a_trunk_that_pools_before_its_relu():
    net = ll.build_net((13, 13, 1), [("conv", 3, 4), ("maxpool",), ("relu",), ("conv", 2, 3),
                                     ("flatten",), ("dense", 2)], seed=49)
    rng = np.random.default_rng(49)
    image = rng.uniform(-1.0, 1.0, (30, 31))
    oy, ox = _corners(rng, 9, image.shape, 13)
    _assert_windows_match_forward(net, image, oy, ox, 0.1)


@pytest.mark.parametrize("specs", [
    [("relu",), ("conv", 3, 4), ("maxpool",), ("flatten",), ("dense", 2)],
    [("flatten",), ("dense", 2)],
], ids=["relu-first", "no-trunk"])
def test_forward_windows_needs_a_trunk_that_starts_with_a_conv(specs):
    net = ll.build_net((13, 13, 1), specs, seed=49)
    with pytest.raises(ShapeError):
        net.forward_windows(np.zeros((20, 20)), [0], [0], 0.0)


# --- training ---

def test_zero_learning_rate_keeps_weights():
    rng = np.random.default_rng(5)
    net = ll.build_net((1, 2, 1), [("flatten",), ("dense", 2), ("softmax",)], seed=6)
    before = net.layers[1].w.copy()
    x = rng.normal(size=(8, 1, 2, 1))
    y = rng.integers(0, 2, 8)
    ll.net_train(x, y, net, ll.TrainConfig(learning_rate=0.0, epochs=3, l2=0.0, seed=7))
    np.testing.assert_array_equal(net.layers[1].w, before)


def test_sgdm_update_matches_hand_iteration():
    # two epochs of full-batch SGDM replayed by hand, bitwise identical
    rng = np.random.default_rng(8)
    x = rng.normal(size=(4, 1, 2, 1))
    y = np.array([0, 1, 1, 0])
    cfg = ll.TrainConfig(learning_rate=0.05, momentum=0.6, batch_size=4,
                         l2=0.01, epochs=2, dropout=0.0, seed=9)

    trained = ll.build_net((1, 2, 1), [("flatten",), ("dense", 2), ("softmax",)], seed=10)
    manual = ll.build_net((1, 2, 1), [("flatten",), ("dense", 2), ("softmax",)], seed=10)
    ll.net_train(x, y, trained, cfg)

    dense = manual.layers[1]
    vw = np.zeros_like(dense.w)
    vb = np.zeros_like(dense.b)
    for _ in range(cfg.epochs):
        _, dlogits = ll.net_loss(manual, x, y, train=True)
        manual.backward_from_logits(dlogits)
        vw = cfg.momentum * vw - cfg.learning_rate * (dense.dw + cfg.l2 * dense.w)
        vb = cfg.momentum * vb - cfg.learning_rate * dense.db
        dense.w += vw
        dense.b += vb
    # epoch shuffling permutes the batch rows, so gradient summation order
    # differs from the hand loop by float associativity only
    np.testing.assert_allclose(trained.layers[1].w, dense.w, rtol=0, atol=1e-12)
    np.testing.assert_allclose(trained.layers[1].b, dense.b, rtol=0, atol=1e-12)


def test_sgdm_update_of_a_conv_net_matches_hand_iteration_bit_for_bit():
    # one sample, so shuffling cannot reorder a gradient sum
    x = np.random.default_rng(51).normal(size=(1, 13, 13, 1))
    y = np.array([1])
    cfg = ll.TrainConfig(learning_rate=0.05, momentum=0.6, batch_size=4,
                         l2=0.01, epochs=3, dropout=0.0, seed=52)
    trained = ll.build_classifier(13, seed=53, widths=(4, 6), fc=8, dropout=0.0)
    manual = ll.build_classifier(13, seed=53, widths=(4, 6), fc=8, dropout=0.0)
    ll.net_train(x, y, trained, cfg)

    velocity = {(id(l), n): np.zeros_like(getattr(l, n)) for l, n in manual.parameters()}
    for _ in range(cfg.epochs):
        _, dlogits = ll.net_loss(manual, x, y, train=True)
        manual.backward_from_logits(dlogits)
        for layer, name in manual.parameters():
            grad = getattr(layer, "d" + name)
            if name == "w":
                grad = grad + cfg.l2 * layer.w
            v = cfg.momentum * velocity[id(layer), name] - cfg.learning_rate * grad
            velocity[id(layer), name] = v
            setattr(layer, name, getattr(layer, name) + v)
    for (a, name), (b, _) in zip(trained.parameters(), manual.parameters()):
        np.testing.assert_array_equal(getattr(a, name), getattr(b, name))


@pytest.mark.parametrize("n,y,error", [
    (8, np.zeros(5, dtype=int), LengthMismatch),
    (8, np.zeros(12, dtype=int), LengthMismatch),
    (8, np.array([0, 1, 2, 0, 1, 0, 1, 0]), DataError),
    (8, np.array([0, 1, -1, 0, 1, 0, 1, 0]), DataError),
    (8, np.array([0, 1, 0.5, 0, 1, 0, 1, 0]), DataError),
    (8, np.zeros((8, 1), dtype=int), DataError),
    (0, np.zeros(0, dtype=int), DataError),
], ids=["5 labels", "12 labels", "label 2", "label -1", "label 0.5", "2-D labels",
        "no samples"])
def test_net_train_rejects_labels_that_do_not_fit_its_samples(n, y, error):
    net = ll.build_classifier(13, seed=54, widths=(4, 6), fc=8)
    x = np.random.default_rng(55).normal(size=(n, 13, 13, 1))
    with pytest.raises(DataError) as raised:
        ll.net_train(x, y, net, ll.TrainConfig(epochs=1, batch_size=4, seed=56))
    assert raised.type is error


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["NaN", "+inf", "-inf"])
def test_net_train_rejects_a_non_finite_sample(value):
    net = ll.build_classifier(13, seed=54, widths=(4, 6), fc=8)
    x = np.random.default_rng(55).normal(size=(8, 13, 13, 1))
    x[3, 6, 2, 0] = value
    with pytest.raises(DataError, match="finite"):
        ll.net_train(x, np.array([0, 1] * 4), net, ll.TrainConfig(epochs=1, batch_size=4, seed=56))


def test_fc_net_solves_linearly_separable_toy():
    rng = np.random.default_rng(11)
    n = 60
    x = rng.normal(size=(n, 2))
    y = (x @ np.array([1.5, -2.0]) > 0).astype(int)
    x4 = x.reshape(n, 1, 2, 1)
    net = ll.build_net(
        (1, 2, 1),
        [("flatten",), ("dense", 8), ("relu",), ("dense", 2), ("softmax",)],
        seed=12,
    )
    ll.net_train(x4, y, net, ll.TrainConfig(learning_rate=0.1, momentum=0.9,
                                            batch_size=16, l2=0.0, epochs=50, seed=13))
    pred = net.forward(x4).argmax(axis=1)
    assert (pred == y).mean() == 1.0


def test_l2_decays_weights_with_zero_data_gradient():
    net = ll.build_net((1, 3, 1), [("flatten",), ("dense", 2), ("softmax",)], seed=14)
    cfg = ll.TrainConfig(learning_rate=0.1, momentum=0.0, batch_size=4, l2=0.05,
                         epochs=1, dropout=0.0, seed=15)
    w0 = net.layers[1].w.copy()
    x = np.zeros((4, 1, 3, 1))  # zero inputs kill the data gradient on w
    y = np.array([0, 1, 0, 1])
    ll.net_train(x, y, net, cfg)
    np.testing.assert_allclose(net.layers[1].w, w0 * (1 - 0.1 * 0.05))
    norms = [np.linalg.norm(w0)]
    for _ in range(3):
        ll.net_train(x, y, net, cfg)
        norms.append(np.linalg.norm(net.layers[1].w))
    assert all(b < a for a, b in zip(norms, norms[1:]))


def test_training_is_seed_deterministic():
    rng = np.random.default_rng(16)
    x = rng.normal(size=(30, 13, 13, 1))
    y = rng.integers(0, 2, 30)
    docs = []
    for _ in range(2):
        net = ll.build_classifier(13, seed=17, widths=(4, 6), fc=8, dropout=0.5)
        ll.net_train(x, y, net, ll.TrainConfig(epochs=3, batch_size=8, seed=18))
        docs.append(vio.encode_model(net))
    a = [l.get("w", {}).get("data_b64") for l in docs[0]["layers"]]
    b = [l.get("w", {}).get("data_b64") for l in docs[1]["layers"]]
    assert a == b


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the overflow is the point
def test_divergence_error():
    net = ll.build_net((1, 2, 1), [("flatten",), ("dense", 2), ("softmax",)], seed=19)
    net.layers[1].w[...] = 1e308
    x = np.full((2, 1, 2, 1), 1e30)
    with pytest.raises(DivergenceError):
        ll.net_train(x, np.array([0, 1]), net,
                     ll.TrainConfig(learning_rate=1.0, epochs=2, seed=20))


@pytest.mark.parametrize("kwargs", [
    {"learning_rate": -1e-3},
    {"momentum": -0.1},
    {"momentum": 1.0},
    {"batch_size": 0},
    {"l2": -1.0},
    {"epochs": 0},
    {"dropout": 1.0},
    {"dropout": -0.5},
])
def test_train_config_rejects_bad_values_with_config_error(kwargs):
    with pytest.raises(ConfigError):
        ll.TrainConfig(**kwargs)


def test_model_doc_roundtrip_bitwise():
    net = ll.build_classifier(13, seed=21, widths=(4, 6), fc=8)
    doc = vio.encode_model(net)
    back = vio.decode_model(doc)
    assert isinstance(back, NetModel) and back.input_shape == (13, 13, 1)
    assert vio.encode_model(back) == doc
    x = np.random.default_rng(22).normal(size=(3, 13, 13, 1))
    np.testing.assert_array_equal(net.forward(x), back.forward(x))


# --- gradient checking ---

def test_gradcheck_fc_only_tight():
    rng = np.random.default_rng(23)
    net = ll.build_net(
        (1, 4, 1),
        [("flatten",), ("dense", 6), ("relu",), ("dense", 2), ("softmax",)],
        seed=24,
    )
    x = rng.normal(size=(3, 1, 4, 1))
    y = np.array([0, 1, 1])
    assert oracles.grad_check(net, x, y, 1e-5) < 1e-6


def test_gradcheck_conv_pool_net():
    rng = np.random.default_rng(25)
    net = ll.build_classifier(13, seed=26, widths=(3, 4), fc=8, dropout=0.0)
    x = rng.normal(size=(2, 13, 13, 1))
    y = np.array([1, 0])
    assert oracles.grad_check(net, x, y, 1e-5) < 1e-4


def test_gradcheck_zero_input_first_layer_grad_vanishes():
    net = ll.build_classifier(13, seed=27, widths=(3, 4), fc=8, dropout=0.0)
    x = np.zeros((2, 13, 13, 1))
    y = np.array([0, 1])
    _, dlogits = ll.net_loss(net, x, y, train=True)
    net.backward_from_logits(dlogits)
    np.testing.assert_array_equal(net.layers[0].dw, 0.0)


# --- pooling against the argmax oracle ---

def _tied_integer_batch(rng, shape):
    """Integer-valued maps, so 2x2 blocks tie; channel 0 is <= 0 everywhere."""
    x = rng.integers(-2, 3, size=shape).astype(np.float64)
    x[..., 0] = -np.abs(x[..., 0])
    return x


@pytest.mark.parametrize("shape", [(3, 7, 9, 2), (2, 8, 6, 3), (4, 3, 2, 1)])
def test_pool_backward_matches_argmax_oracle(shape):
    rng = np.random.default_rng(sum(shape))
    x = _tied_integer_batch(rng, shape)
    pool, oracle = MaxPool2(), oracles.ArgmaxPool2()
    out = pool.forward(x, train=True)
    np.testing.assert_array_equal(out, oracle.forward(x, train=True))
    quads = np.stack([x[:, a : out.shape[1] * 2 : 2, b : out.shape[2] * 2 : 2]
                      for a in (0, 1) for b in (0, 1)])
    assert ((quads == out).sum(axis=0) > 1).any()  # the test inputs tie
    dout = rng.normal(size=out.shape)
    np.testing.assert_array_equal(pool.backward(dout), oracle.backward(dout))


@pytest.mark.parametrize("shape", [(2, 6, 6, 1), (3, 7, 9, 2), (2, 17, 13, 4)])
def test_pool_masks_equal_the_four_comparison_first_max_oracle(shape):
    # the fourth mask is taken as "no earlier max"; on tie-heavy blocks it
    # must equal comparing the fourth phase too, and route one gradient
    rng = np.random.default_rng(sum(shape) + 7)
    x = rng.choice([-1.0, -0.0, 0.0, 0.0, 0.0, 2.0], size=shape)
    n, h, w, c = shape
    x[:, :4, :4] = 3.0  # constant blocks
    x[:, 2:4] = rng.choice([0.0, -0.0], size=x[:, 2:4].shape)  # zero runs, signed
    pool = MaxPool2()
    out = pool.forward(x, train=True)
    oh, ow = h // 2, w // 2
    seen = np.zeros(out.shape, dtype=bool)
    for (a, b), mask in zip(((0, 0), (0, 1), (1, 0), (1, 1)), pool._masks):
        first = (x[:, a : 2 * oh : 2, b : 2 * ow : 2] == out) & ~seen
        seen |= first
        np.testing.assert_array_equal(mask, first)
    assert seen.all()
    dx = pool.backward(np.ones(out.shape))
    routed = dx[:, : 2 * oh, : 2 * ow].reshape(n, oh, 2, ow, 2, c)
    np.testing.assert_array_equal((routed != 0).sum(axis=(2, 4)), 1)
    assert not dx[:, 2 * oh :].any() and not dx[:, :, 2 * ow :].any()


_POOL_SHAPES = [(2, 3, 3, 1), (3, 5, 9, 2), (2, 17, 13, 4), (2, 41, 39, 3)]


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("shape", _POOL_SHAPES)
def test_phase_pooling_equals_the_per_phase_pool_bit_for_bit(shape, dtype):
    # at d = 1 the four phases (a, b) mod 2 of the stride-1 pool are
    # MaxPool2 on the map cropped by a rows and b columns
    _assert_dilated_pool_matches_sub_lattices(1, shape, dtype)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("shape", _POOL_SHAPES)
@pytest.mark.parametrize("d", [2, 4])
def test_dilated_pooling_equals_the_pool_on_every_sub_lattice_bit_for_bit(d, shape, dtype):
    _assert_dilated_pool_matches_sub_lattices(d, shape, dtype)


def _assert_dilated_pool_matches_sub_lattices(d, shape, dtype):
    rng = np.random.default_rng(sum(shape) + d)
    x = (rng.integers(-3, 4, size=shape) * 0.5).astype(dtype)  # blocks tie
    x[x == 0] = rng.choice([0.0, -0.0], size=int((x == 0).sum()))
    x[rng.random(shape) < 0.05] = np.nan
    n, h, w, c = shape
    got = _pool_dilated(x, d)
    assert got.dtype == x.dtype and got.shape == (n, max(h - d, 0), max(w - d, 0), c)
    # the pixels at (a, b) mod 2d are the pool of the sub-lattice at (a, b)
    # mod d, whose blocks start on its even rows and columns
    for a in range(2 * d):
        for b in range(2 * d):
            part, lattice = got[:, a :: 2 * d, b :: 2 * d], x[:, a::d, b::d]
            if min(lattice.shape[1:3]) < 2:  # no block
                assert part.size == 0
                continue
            want = MaxPool2().forward(lattice)
            assert part.shape == want.shape
            assert np.array_equal(part, want, equal_nan=True)
            assert np.array_equal(np.signbit(part), np.signbit(want))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("k,shape", [(5, (2, 23, 21, 1)), (3, (1, 17, 18, 3))])
@pytest.mark.parametrize("d", [1, 2, 4])
def test_dilated_conv_equals_the_conv_on_every_sub_lattice(d, k, shape, dtype):
    # integer inputs and weights, so every sum is exact in any order
    rng = np.random.default_rng(sum(shape) + k + d)
    x = rng.integers(-4, 5, size=shape).astype(dtype)
    conv = Conv2D(rng.integers(-3, 4, size=(k, k, shape[3], 4)).astype(np.float64),
                  rng.integers(-2, 3, size=4).astype(np.float64))
    got = conv.forward(x, dilation=d)
    assert got.dtype == x.dtype
    assert got.shape == (shape[0], shape[1] - d * (k - 1), shape[2] - d * (k - 1), 4)
    for a in range(d):
        for b in range(d):
            np.testing.assert_array_equal(got[:, a::d, b::d], conv.forward(x[:, a::d, b::d]))


def test_a_dilated_conv_does_not_train():
    conv = Conv2D(np.ones((3, 3, 1, 2)), np.zeros(2))
    x = np.ones((1, 9, 9, 1))
    with pytest.raises(ShapeError):
        conv.forward(x, train=True, dilation=2)
    with pytest.raises(ShapeError):  # 2 * (3 - 1) + 1 = 5 px needed
        conv.forward(x[:, :4], dilation=2)


def test_training_with_pool_before_relu_matches_argmax_chain():
    # 13 px: conv5 -> 9, an odd map, so pool1 drops a remainder
    rng = np.random.default_rng(50)
    x = rng.integers(-3, 4, size=(24, 13, 13, 1)).astype(np.float64)
    x[::2, :8, :8] = x[::2, :1, :1]  # flat corners tie whole conv1 blocks
    y = rng.integers(0, 2, 24)
    nets = [ll.build_classifier(13, seed=51, widths=(3, 4), fc=8, dropout=0.5)
            for _ in range(2)]
    for net in nets:
        net.layers[0].b[0] = -100.0  # conv1 channel 0: every block <= 0
    oracle_net = nets[1]
    oracle_net.layers = [oracles.ArgmaxPool2() if isinstance(l, MaxPool2) else l
                         for l in oracle_net.layers]
    conv1 = nets[0].layers[0].forward(x)
    assert (conv1[..., 0] < 0).all()
    block = conv1[::2, :2, :2]  # pool1's first block over each flat corner
    assert (block == block[:, :1, :1]).all() and (block > 0).any()

    cfg = ll.TrainConfig(epochs=2, batch_size=8, seed=52)
    for net in nets:
        ll.net_train(x, y, net, cfg)
    assert nets[0].train_meta["loss_trace"] == oracle_net.train_meta["loss_trace"]
    for (layer, name), (ref, _) in zip(nets[0].parameters(), oracle_net.parameters()):
        np.testing.assert_array_equal(getattr(layer, name), getattr(ref, name))


def _relu_first_copy(net):
    """``net`` as a model file written before trunks stored the pool first:
    its document with every maxpool/relu pair swapped, decoded."""
    doc = vio.encode_model(net)
    layers = doc["layers"]
    for i in range(len(layers) - 1):
        if layers[i]["spec"] == ["maxpool"] and layers[i + 1]["spec"] == ["relu"]:
            layers[i], layers[i + 1] = layers[i + 1], layers[i]
    return vio.decode_model(doc)


def test_a_net_stored_relu_first_runs_as_the_pool_first_net():
    net = ll.build_classifier(49, seed=53, widths=(4, 8, 8))
    rng = np.random.default_rng(53)
    for layer in net.layers:
        if isinstance(layer, (Conv2D, Dense)):
            layer.b[...] = rng.normal(0.0, 0.1, layer.b.shape)
    old = _relu_first_copy(net)
    assert [layer.spec() for layer in net.layers[:6]] == [
        ("conv", 5, 4), ("maxpool",), ("relu",), ("conv", 3, 8), ("maxpool",), ("relu",)]
    assert [layer.spec() for layer in old.layers[:6]] == [
        ("conv", 5, 4), ("relu",), ("maxpool",), ("conv", 3, 8), ("relu",), ("maxpool",)]

    x = rng.normal(size=(40, 49, 49, 1))
    np.testing.assert_array_equal(old.forward(x), net.forward(x))
    np.testing.assert_array_equal(old.features(x), net.features(x))
    image = rng.uniform(0.0, 1.0, (80, 90))
    oy, ox = _corners(rng, 300, image.shape, 49)
    np.testing.assert_array_equal(old.forward_windows(image, oy, ox, 0.5),
                                  net.forward_windows(image, oy, ox, 0.5))

    y = rng.integers(0, 2, len(x))
    cfg = ll.TrainConfig(epochs=2, batch_size=16, seed=54)
    for model in (net, old):
        ll.net_train(x, y, model, cfg)
    assert old.train_meta["loss_trace"] == net.train_meta["loss_trace"]
    for (layer, name), (ref, _) in zip(old.parameters(), net.parameters()):
        np.testing.assert_array_equal(getattr(layer, name), getattr(ref, name))


# --- convolution input gradient against the padded full correlation ---

@pytest.mark.parametrize("kernel", [(5, 5), (3, 3), (3, 2), (1, 1)])
@pytest.mark.parametrize("cin", [1, 3, 16])
@pytest.mark.parametrize("cout", [1, 4])
@pytest.mark.parametrize("n", [1, 3])
def test_conv_input_gradient_matches_padded_full_correlation_oracle(kernel, cin, cout, n):
    rng = np.random.default_rng([*kernel, cin, cout, n])
    conv = Conv2D(rng.normal(size=(*kernel, cin, cout)), rng.normal(size=cout))
    x = rng.normal(size=(n, 11, 9, cin))  # odd maps
    dout = rng.normal(size=conv.forward(x, train=True).shape)
    np.testing.assert_allclose(conv.backward(dout), oracles.padded_conv_dx(dout, conv.w),
                               rtol=0, atol=1e-12)


def test_member_trained_with_padded_input_gradient_matches():
    rng = np.random.default_rng(61)
    x = rng.normal(size=(64, 49, 49, 1))
    y = rng.integers(0, 2, 64)
    nets = [ll.build_classifier(49, seed=62) for _ in range(2)]
    oracle_net = nets[1]
    oracle_net.layers = [oracles.PaddedConv2D(l.w, l.b) if isinstance(l, Conv2D) else l
                         for l in oracle_net.layers]
    cfg = ll.TrainConfig(epochs=2, batch_size=32, seed=63)
    for net in nets:
        ll.net_train(x, y, net, cfg)
    np.testing.assert_allclose(nets[0].train_meta["loss_trace"],
                               oracle_net.train_meta["loss_trace"], rtol=1e-10)
    for (layer, name), (ref, _) in zip(nets[0].parameters(), oracle_net.parameters()):
        np.testing.assert_allclose(getattr(layer, name), getattr(ref, name), rtol=1e-10)


# --- backward needs a training forward ---

LAYER_CASES = {
    "conv": (lambda: Conv2D(np.ones((3, 3, 2, 4)), np.zeros(4)), (2, 6, 5, 2)),
    "dense": (lambda: Dense(np.ones((5, 3)), np.zeros(3)), (2, 5)),
    "maxpool": (MaxPool2, (2, 4, 5, 3)),
    "relu": (ReLU, (2, 4, 5, 3)),
    "dropout": (lambda: Dropout(0.5), (2, 5)),
    "flatten": (Flatten, (2, 4, 5, 3)),
}


@pytest.mark.parametrize("before", ["nothing", "an inference forward", "a backward"])
@pytest.mark.parametrize("tag", LAYER_CASES)
def test_backward_without_a_training_forward_raises_shape_error(tag, before):
    make, shape = LAYER_CASES[tag]
    x = np.random.default_rng(64).normal(size=shape)
    dout = np.ones_like(make().forward(x, train=True, rng=np.random.default_rng(0)))
    layer = make()
    if before == "an inference forward":
        layer.forward(x)
    elif before == "a backward":  # each backward consumes its forward
        layer.forward(x, train=True, rng=np.random.default_rng(0))
        layer.backward(dout)
    with pytest.raises(ShapeError, match="training forward"):
        layer.backward(dout)


# --- PCA ---

def test_pca_rank_one_data():
    rng = np.random.default_rng(28)
    t = rng.normal(size=50)
    direction = np.array([1.0, 2.0, -0.5])
    x = np.array([3.0, -1.0, 0.5]) + t[:, None] * direction
    model = ll.pca_fit(x)
    assert model.k == 1
    proj = ll.pca_project(model, x)
    recon = model.mean + proj @ model.axes.T
    np.testing.assert_allclose(recon, x, atol=1e-10)


def test_pca_isotropic_needs_both_axes():
    rng = np.random.default_rng(29)
    x = rng.normal(size=(4000, 2))
    model = ll.pca_fit(x)
    # sampling keeps eigenvalues near-equal, so one axis holds < 95%
    assert model.k == 2


def test_pca_projections_are_decorrelated():
    rng = np.random.default_rng(30)
    x = rng.normal(size=(200, 6)) @ rng.normal(size=(6, 6))
    model = ll.pca_fit(x)
    proj = ll.pca_project(model, x)
    cov = np.cov(proj, rowvar=False)
    off = cov - np.diag(np.diag(cov))
    assert np.abs(off).max() < 1e-8
    # axes orthonormal, variances sorted, K minimal
    np.testing.assert_allclose(model.axes.T @ model.axes, np.eye(model.k), atol=1e-8)
    assert np.all(np.diff(model.variances) <= 1e-12)


def test_pca_k_is_minimal():
    rng = np.random.default_rng(31)
    base = rng.normal(size=(300, 3)) * np.array([10.0, 3.0, 0.1])
    model = ll.pca_fit(base)
    total = np.linalg.eigvalsh(np.cov(base, rowvar=False)).sum()
    kept = model.variances.sum()
    assert kept / total >= 0.95
    if model.k > 1:
        assert model.variances[:-1].sum() / total < 0.95


def test_pca_degenerate_identical_rows():
    with pytest.raises(DegenerateData):
        ll.pca_fit(np.ones((10, 4)))


def test_pca_file_roundtrip_projects_bit_identically():
    # a decoded model is C-ordered; the fitted one must be too, or BLAS
    # rounds the projection differently for the two layouts
    for seed in range(8):
        rng = np.random.default_rng(seed)
        feats = rng.normal(size=(40, 16)) * rng.uniform(0.1, 10.0, size=16) + 5.0
        model = ll.pca_fit(feats)
        back = vio.decode_model(vio.encode_model(model))
        query = rng.normal(size=(30, 16))
        np.testing.assert_array_equal(ll.pca_project(back, query),
                                      ll.pca_project(model, query))


# --- margin classifier ---

def test_margin_separable_1d(monkeypatch):
    monkeypatch.setattr(ll.margin, "MARGIN_EPOCHS", 200)
    x = np.array([[-2.0], [2.0]])
    y = np.array([-1.0, 1.0])
    model = ll.margin_train(x, y)
    assert ll.margin_decide(model, np.array([[-2.0]]))[0] < 0
    assert ll.margin_decide(model, np.array([[2.0]]))[0] > 0


@pytest.mark.parametrize("x", [np.ones(4), np.ones((4, 1, 1))], ids=["1-D", "3-D"])
def test_margin_takes_only_samples_by_features(x, monkeypatch):
    monkeypatch.setattr(ll.margin, "MARGIN_EPOCHS", 2)
    y = np.array([-1.0, 1.0, -1.0, 1.0])
    with pytest.raises(ShapeError):
        ll.margin_train(x, y)
    model = ll.margin_train(np.ones((4, 1)), y)
    with pytest.raises(ShapeError):
        ll.margin_decide(model, x)


def test_margin_objective_trace_non_increasing(monkeypatch):
    monkeypatch.setattr(ll.margin, "MARGIN_LAMBDA", 1e-2)
    monkeypatch.setattr(ll.margin, "MARGIN_EPOCHS", 250)
    for seed in range(8):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(10, 40))
        x = rng.normal(size=(n, 3))
        y = np.where(x @ rng.normal(size=3) > 0.3, 1.0, -1.0)
        if len(np.unique(y)) < 2:
            continue
        model = ll.margin_train(x, y)
        assert model.lam == 1e-2 and len(model.objective_trace) == 250
        trace = np.array(model.objective_trace)
        assert np.max(np.diff(trace)) <= 1e-9


def test_margin_close_to_grid_search_optimum(monkeypatch):
    lam = 0.05
    monkeypatch.setattr(ll.margin, "MARGIN_LAMBDA", lam)
    monkeypatch.setattr(ll.margin, "MARGIN_EPOCHS", 800)
    rng = np.random.default_rng(33)
    for _ in range(5):
        x = rng.normal(size=(25, 1)) * 2.0
        y = np.where(x[:, 0] + 0.3 * rng.normal(size=25) > 0.2, 1.0, -1.0)
        if len(np.unique(y)) < 2:
            continue
        model = ll.margin_train(x, y)
        ours = ll.hinge_objective(model.w, model.b, x, y, lam)
        grid = np.linspace(-6, 6, 481)
        # hinge_objective over the whole (w, b) grid: axis 0 is w, axis 1 is b
        margins = 1.0 - y * (grid[:, None, None] * x[:, 0] + grid[None, :, None])
        objective = (0.5 * lam * grid[:, None] ** 2
                     + np.maximum(margins, 0.0).mean(axis=2))
        best = objective.min()
        assert ours <= best * 1.05 + 1e-9


def test_margin_single_class_error():
    with pytest.raises(SingleClassError):
        ll.margin_train(np.ones((4, 2)), np.ones(4))


def _with(x, index, value):
    x = x.copy()
    x[index] = value
    return x


_XS = np.random.default_rng(57).normal(size=(6, 2))
_YS = np.array([-1.0, 1.0, -1.0, 1.0, -1.0, 1.0])


@pytest.mark.parametrize("call,error", [
    (lambda: ll.margin_train(_with(_XS, (2, 1), np.nan), _YS), DataError),
    (lambda: ll.margin_train(_with(_XS, (0, 0), np.inf), _YS), DataError),
    (lambda: ll.margin_train(_XS, _YS[:4]), LengthMismatch),
    (lambda: ll.pca_fit(_with(_XS, (2, 1), np.nan)), DataError),
    (lambda: ll.pca_fit(_with(_XS, (0, 0), np.inf)), DataError),
], ids=["margin NaN", "margin inf", "margin short labels", "PCA NaN", "PCA inf"])
def test_fits_reject_non_finite_samples_and_unpaired_labels(call, error):
    with pytest.raises(DataError) as raised:
        call()
    assert raised.type is error


_PCA = ll.pca_fit(_XS)
_MARGIN = ll.margin_train(_XS, _YS)


@pytest.mark.parametrize("call", [
    lambda: ll.pca_project(_PCA, np.ones(3)),
    lambda: ll.pca_project(_PCA, np.ones((4, 1))),
    lambda: ll.pca_project(_PCA, np.ones((4, 2, 1))),
    lambda: ll.margin_decide(_MARGIN, np.ones((4, 3))),
    lambda: ll.margin_decide(_MARGIN, np.ones((1, 1))),
], ids=["PCA vector of 3", "PCA rows of 1", "PCA 3-D", "margin rows of 3", "margin row of 1"])
def test_a_sample_width_other_than_the_models_is_a_shape_error(call):
    with pytest.raises(ShapeError, match="wide"):
        call()


# --- augmentation ---

def test_identity_params_reproduce_patch_exactly():
    rng = np.random.default_rng(34)
    patch = rng.normal(size=(9, 9))
    out = ll.apply_augment(patch, ll.AugmentParams())
    np.testing.assert_array_equal(out, patch)


def test_double_horizontal_flip_is_involution():
    rng = np.random.default_rng(35)
    patch = rng.normal(size=(8, 8))
    p = ll.AugmentParams(flip_h=True)
    np.testing.assert_allclose(ll.apply_augment(ll.apply_augment(patch, p), p), patch, atol=1e-12)


def test_rotation_90_matches_index_permutation_oracle():
    patch = np.zeros((3, 3))
    patch[0, 1] = 5.0
    patch[1, 2] = 3.0
    out = ll.apply_augment(patch, ll.AugmentParams(rotation_deg=90.0))
    expected = np.zeros((3, 3))
    c = 1.0
    for y in range(3):
        for x in range(3):
            # (x', y') = R90 (x - c, y - c) + c with R90 = [[0, -1], [1, 0]]
            xp = int(round(-(y - c) + c))
            yp = int(round((x - c) + c))
            expected[yp, xp] = patch[y, x]
    np.testing.assert_allclose(out, expected, atol=1e-12)


def test_augment_dataset_is_seeded_and_appends_copies():
    rng = np.random.default_rng(36)
    x = rng.normal(size=(3, 7, 7, 1))
    y = np.array([0, 1, 1])
    xa, ya = ll.augment_dataset(x, y, copies=2, seed=5)
    xb, yb = ll.augment_dataset(x, y, copies=2, seed=5)
    np.testing.assert_array_equal(xa, xb)
    assert xa.shape == (9, 7, 7, 1)
    np.testing.assert_array_equal(xa[:3], x)
    np.testing.assert_array_equal(ya, np.tile(y, 3))


# --- class balancing ---

def test_balance_already_balanced_unchanged():
    x = np.arange(20).reshape(20, 1)
    y = np.array([0] * 10 + [1] * 10)
    xb, yb = ll.balance_classes(x, y, seed=6)
    np.testing.assert_array_equal(xb, x)
    np.testing.assert_array_equal(yb, y)


def test_balance_subsamples_majority():
    x = np.arange(110).reshape(110, 1)
    y = np.array([0] * 100 + [1] * 10)
    xb, yb = ll.balance_classes(x, y, seed=7)
    assert (yb == 0).sum() == 10
    assert (yb == 1).sum() == 10
    # minority fully retained
    assert set(xb[yb == 1, 0]) == set(range(100, 110))
    # a cap below the minority count subsamples both classes, in order;
    # one above it is plain balancing
    xc, yc = ll.balance_classes(x, y, seed=7, cap=4)
    assert (yc == 0).sum() == (yc == 1).sum() == 4
    assert np.all(np.diff(xc[:, 0]) > 0)
    np.testing.assert_array_equal(ll.balance_classes(x, y, seed=7, cap=50)[0], xb)


def test_balance_seed_contract():
    x = np.arange(21).reshape(21, 1)
    y = np.array([0] * 11 + [1] * 10)
    xa, ya = ll.balance_classes(x, y, seed=8)
    xb, yb = ll.balance_classes(x, y, seed=9)
    assert len(ya) == len(yb) == 20
    xa2, _ = ll.balance_classes(x, y, seed=8)
    np.testing.assert_array_equal(xa, xa2)


@pytest.mark.parametrize("cap", [0, -1])
def test_balance_rejects_a_cap_below_one(cap):
    with pytest.raises(ConfigError, match="cap"):
        ll.balance_classes(np.arange(6).reshape(6, 1), np.array([0, 1] * 3), seed=0, cap=cap)


def test_balance_empty_class_error():
    with pytest.raises(EmptyClassError):
        ll.balance_classes(np.zeros((4, 1)), np.zeros(4), seed=10)


@pytest.mark.parametrize("call,error", [
    (lambda: ll.pca_fit(np.zeros((1, 3))), DegenerateData),
    # np.unique keeps one NaN class, which no label equals
    (lambda: ll.balance_classes(np.zeros((3, 1)), np.array([0.0, np.nan, np.nan]), seed=0),
     EmptyClassError),
], ids=["PCA of one row", "a NaN class"])
def test_a_sample_with_nothing_to_fit_raises_its_error(call, error):
    with pytest.raises(error):
        call()
