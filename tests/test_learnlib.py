import numpy as np
import pytest

import oracles
from miquant import learnlib as ll, vio
from miquant.errors import (
    ConfigError,
    DivergenceError,
    EmptyClassError,
    ShapeError,
    SingleClassError,
)
from miquant.learnlib.net import Conv2D, Dense, MaxPool2, NetModel, Softmax


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


def test_conv_matches_naive_nested_loop_oracle():
    rng = np.random.default_rng(2)
    w = rng.normal(size=(3, 3, 2, 4))
    b = rng.normal(size=4)
    conv = Conv2D(w.copy(), b.copy())
    x = rng.normal(size=(2, 5, 6, 2))
    np.testing.assert_allclose(conv.forward(x), naive_conv(x, w, b), atol=1e-10)


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
    """The layers in stored order (each ReLU before its pool), one by one in
    training mode, so that each pool takes its first-max-mask path."""
    for layer in layers:
        x = layer.forward(x, train=True)
    return x


@pytest.mark.parametrize("n", [1, 31, 32, 33, 65])
def test_inference_path_bit_identical_to_training_chain(n):
    # 49 px: conv5 -> 45, and the 45 -> 22 pool drops an odd remainder
    net = ll.build_classifier(49, seed=36, dropout=0.0)
    rng = np.random.default_rng(37)
    for layer in net.layers:
        if isinstance(layer, (Conv2D, Dense)):
            layer.b[...] = rng.normal(0.0, 0.1, layer.b.shape)
    x = rng.normal(size=(n, 49, 49, 1))
    np.testing.assert_array_equal(net.forward(x), _train_chain(net.layers, x))
    np.testing.assert_array_equal(
        net.features(x), _train_chain(net.layers[: net.feature_layer], x))


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


# --- windowed inference ---

def _windows_net(size, seed):
    """Paper-style net with random biases; the softmax is stripped, so the
    net outputs logits."""
    net = ll.build_classifier(size, seed=seed, dropout=0.0)
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
    offset = rng.uniform(0.0, 1.0, (size, size))  # not constant
    assert net.layers[0].b.std() > 0
    oy, ox = _corners(rng, n, image.shape, size)
    crops = np.stack([image[y : y + size, x : x + size] - offset for y, x in zip(oy, ox)])
    expected = net.forward(crops[..., None])
    got = net.forward_windows(image, oy, ox, offset)
    assert got.shape == expected.shape == (n, 2)
    # the trunk after conv1 runs in float32: the worst of these 12 inputs
    # differs by about 1.6e-6
    np.testing.assert_allclose(got, expected, rtol=0.0, atol=1e-5)
    np.testing.assert_array_equal(got.argmax(axis=1), expected.argmax(axis=1))


def test_forward_windows_on_no_windows_is_empty():
    net = _windows_net(48, seed=47)
    image = np.zeros((60, 60))
    assert net.forward_windows(image, [], [], np.zeros((48, 48))).shape == (0, 2)


@pytest.mark.parametrize("image_shape,oy,ox", [
    ((60, 60, 1), [0], [0]),   # not a 2-D image
    ((60, 60), [12], [0]),     # leaves the bottom edge
    ((60, 60), [0], [-1]),     # leaves the left edge
    ((60, 60), [0, 5], [0]),   # corners do not pair up
])
def test_forward_windows_rejects_bad_windows(image_shape, oy, ox):
    net = _windows_net(49, seed=48)
    with pytest.raises(ShapeError):
        net.forward_windows(np.zeros(image_shape), oy, ox, np.zeros((49, 49)))


@pytest.mark.parametrize("specs", [
    [("conv", 3, 4), ("maxpool",), ("relu",), ("flatten",), ("dense", 2)],
    [("flatten",), ("dense", 2)],
])
def test_forward_windows_needs_conv_relu_pool_first(specs):
    net = ll.build_net((13, 13, 1), specs, seed=49)
    with pytest.raises(ShapeError):
        net.forward_windows(np.zeros((20, 20)), [0], [0], np.zeros((13, 13)))


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
    model = ll.pca_fit(x, var_frac=0.95)
    # sampling keeps eigenvalues near-equal, so one axis holds < 95%
    assert model.k == 2


def test_pca_projections_are_decorrelated():
    rng = np.random.default_rng(30)
    x = rng.normal(size=(200, 6)) @ rng.normal(size=(6, 6))
    model = ll.pca_fit(x, var_frac=1.0)
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
    model = ll.pca_fit(base, var_frac=0.95)
    total = np.linalg.eigvalsh(np.cov(base, rowvar=False)).sum()
    kept = model.variances.sum()
    assert kept / total >= 0.95
    if model.k > 1:
        assert model.variances[:-1].sum() / total < 0.95


def test_pca_degenerate_identical_rows():
    with pytest.raises(Exception):
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

def test_margin_separable_1d():
    x = np.array([[-2.0], [2.0]])
    y = np.array([-1.0, 1.0])
    model = ll.margin_train(x, y, lam=1e-3, epochs=200)
    assert ll.margin_decide(model, np.array([-2.0])) < 0
    assert ll.margin_decide(model, np.array([2.0])) > 0


def test_margin_objective_trace_non_increasing():
    for seed in range(8):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(10, 40))
        x = rng.normal(size=(n, 3))
        y = np.where(x @ rng.normal(size=3) > 0.3, 1.0, -1.0)
        if len(np.unique(y)) < 2:
            continue
        model = ll.margin_train(x, y, lam=1e-2, epochs=250)
        trace = np.array(model.objective_trace)
        assert np.max(np.diff(trace)) <= 1e-9


def test_margin_close_to_grid_search_optimum():
    rng = np.random.default_rng(33)
    for _ in range(5):
        x = rng.normal(size=(25, 1)) * 2.0
        y = np.where(x[:, 0] + 0.3 * rng.normal(size=25) > 0.2, 1.0, -1.0)
        if len(np.unique(y)) < 2:
            continue
        lam = 0.05
        model = ll.margin_train(x, y, lam=lam, epochs=800)
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
        ll.margin_train(np.ones((4, 2)), np.ones(4), lam=0.1, epochs=10)


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


def test_balance_empty_class_error():
    with pytest.raises(EmptyClassError):
        ll.balance_classes(np.zeros((4, 1)), np.zeros(4), seed=10)
