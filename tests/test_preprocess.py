from dataclasses import replace

import numpy as np
import pytest

import oracles
from miquant import phantom, preprocess as pp
from miquant.errors import AlignmentError, DataError, DegenerateRange, EmptyRegion, SpacingError
from miquant.volcore import LabeledCase, Mask, Volume, bounding_box


# --- noise estimation ---

def test_sigma_zero_on_constant_slice():
    assert pp.estimate_noise_sigma(np.full((32, 32), 7.0)) == 0.0


def test_sigma_needs_a_3x3_slice():
    with pytest.raises(DataError):
        pp.estimate_noise_sigma(np.zeros((2, 32)))


def test_sigma_recovers_gaussian_noise_level():
    rng = np.random.default_rng(0)
    estimates = []
    for _ in range(20):
        noise = rng.normal(0, 10, size=(256, 256))
        estimates.append(pp.estimate_noise_sigma(noise))
    estimates = np.array(estimates)
    assert np.all(np.abs(estimates - 10.0) / 10.0 < 0.15)


def test_sigma_checkerboard_analytic():
    # +-1 checkerboard: 5-point Laplacian is -+8 everywhere in the interior,
    # so sigma = 8 / 0.6745 / sqrt(20)
    yy, xx = np.mgrid[0:20, 0:20]
    board = ((yy + xx) % 2 * 2 - 1).astype(float)
    sigma = pp.estimate_noise_sigma(board + 5.0)
    assert sigma == pytest.approx(8.0 / 0.6745 / np.sqrt(20.0))
    assert sigma > 0


def _median_sigma(img):
    """``estimate_noise_sigma`` through ``np.median``."""
    img = np.asarray(img, dtype=np.float64)
    lap = (img[..., :-2, 1:-1] + img[..., 2:, 1:-1] + img[..., 1:-1, :-2] + img[..., 1:-1, 2:]
           - 4.0 * img[..., 1:-1, 1:-1])
    return np.median(np.abs(lap), axis=(-2, -1)) / 0.6745 / np.sqrt(20.0)


def _sigma_inputs():
    rng = np.random.default_rng(29)
    corpus = phantom.CorpusSpec(n_cases=4, diseased_fraction=0.75, mvo_fraction=0.5,
                                base=phantom.PhantomSpec(dims=(48, 40, 3)), seed=29)
    cases = [c.volume.data for c in phantom.generate_corpus(corpus)]
    noise = rng.normal(0.0, 3.0, (4, 11, 13))
    ties = rng.integers(0, 4, (3, 9, 10)).astype(np.float64)  # many equal |L|
    nan_one, nan_corner, nan_most = noise.copy(), noise.copy(), noise.copy()
    nan_one[1, 5, 6] = np.nan
    nan_corner[2, 0, 0] = np.nan  # a corner is no pixel's neighbour
    nan_most[0, 1:-1, 1:-1] = np.nan
    inf_one, inf_edge = noise.copy(), noise.copy()
    inf_one[0, 4, 4], inf_one[1, 6, 3] = np.inf, -np.inf
    inf_edge[3, 0, 5] = np.inf
    signed = np.zeros((2, 6, 7))
    signed[0, ::2] = -0.0
    signed[1] = np.where(rng.random((6, 7)) < 0.5, -0.0, 1.0)
    nan_even = rng.normal(size=(6, 7))
    nan_even[2, 3] = np.nan
    inf_3x3 = rng.normal(size=(3, 3))
    inf_3x3[1, 1] = np.inf
    return {
        **{f"phantom {k}": stack for k, stack in enumerate(cases)},
        "phantom slice": cases[0][1], "noise": noise, "ties": ties, "ties slice": ties[0],
        "odd interior": rng.normal(size=(5, 7)),    # 15 values
        "even interior": rng.normal(size=(6, 7)),   # 20 values
        "3x3": rng.normal(size=(3, 3)), "3x4 stack": rng.normal(size=(2, 3, 4)),
        "integer 3x3 stack": rng.integers(-5, 6, (5, 3, 3)),
        "constant stack": np.full((4, 8, 9), 7.0), "constant -0": np.full((8, 8), -0.0),
        "one nan": nan_one, "nan corner": nan_corner, "nan majority": nan_most,
        "nan even": nan_even, "all nan": np.full((6, 6), np.nan),
        "inf": inf_one, "inf edge": inf_edge, "inf 3x3": inf_3x3, "signed zeros": signed,
        "two leading axes": rng.normal(size=(2, 2, 5, 6)),
    }


_SIGMA_INPUTS = _sigma_inputs()


@pytest.mark.parametrize("name", _SIGMA_INPUTS)
def test_sigma_equals_the_np_median_estimate(name):
    img = _SIGMA_INPUTS[name]
    got, want = pp.estimate_noise_sigma(img), _median_sigma(img)
    assert type(got) is type(want) and np.shape(got) == np.shape(want)
    np.testing.assert_array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))


# --- non-local means ---

def _nlm(img, sigma, box=None):
    """denoise_nlm on a stack of one slice."""
    return pp.denoise_nlm(img[None], [sigma], box)[0]


def test_nlm_sigma_zero_is_identity():
    rng = np.random.default_rng(1)
    img = rng.uniform(0, 255, (16, 16))
    np.testing.assert_array_equal(_nlm(img, 0.0), img)


def test_nlm_constant_slice_unchanged():
    img = np.full((20, 20), 33.0)
    np.testing.assert_allclose(_nlm(img, 5.0), img)


def test_nlm_reduces_mse_on_noisy_step_edge():
    rng = np.random.default_rng(2)
    clean = np.zeros((40, 40))
    clean[:, 20:] = 100.0
    wins = 0
    for _ in range(10):
        noisy = clean + rng.normal(0, 15, clean.shape)
        sigma = pp.estimate_noise_sigma(noisy)
        out = _nlm(noisy, sigma)
        if np.mean((out - clean) ** 2) < np.mean((noisy - clean) ** 2):
            wins += 1
    assert wins == 10


def test_nlm_never_widens_range():
    rng = np.random.default_rng(3)
    img = rng.uniform(10, 200, (24, 24))
    out = _nlm(img, 20.0)
    assert out.min() >= img.min() - 1e-9
    assert out.max() <= img.max() + 1e-9


# --- non-local means on a box ---

def _assert_box_result(img, sigma, box):
    """denoise_nlm on box is the whole-slice result inside it, bit for bit,
    and the input outside it."""
    y0, y1, x0, x1 = box
    whole = oracles.whole_slice_nlm(img, sigma)
    np.testing.assert_array_equal(_nlm(img, sigma), whole)
    got = _nlm(img, sigma, box)
    inside = np.zeros(img.shape, dtype=bool)
    inside[y0:y1, x0:x1] = True
    np.testing.assert_array_equal(got[inside], whole[inside])
    np.testing.assert_array_equal(got[~inside], img[~inside])


def test_nlm_box_equals_the_whole_slice_call_on_random_slices_and_boxes():
    rng = np.random.default_rng(11)
    for _ in range(30):
        ny, nx = (int(v) for v in rng.integers(1, 48, 2))
        img = rng.uniform(0, 255, (ny, nx))
        y0, y1 = sorted(int(v) for v in rng.integers(0, ny + 1, 2))
        x0, x1 = sorted(int(v) for v in rng.integers(0, nx + 1, 2))
        _assert_box_result(img, float(rng.uniform(5, 40)), (y0, y1, x0, x1))


@pytest.mark.parametrize("box", [
    (0, 9, 12, 30),     # top border
    (31, 40, 5, 20),    # bottom border
    (10, 25, 0, 7),     # left border
    (3, 30, 29, 36),    # right border
    (0, 6, 30, 36),     # top-right corner
    (0, 40, 0, 36),     # the whole slice
    (17, 18, 20, 21),   # one pixel
    (12, 12, 3, 30),    # no rows
], ids=["top", "bottom", "left", "right", "corner", "whole", "pixel", "no-rows"])
def test_nlm_box_touching_each_border_equals_the_whole_slice_call(box):
    img = np.random.default_rng(12).uniform(0, 255, (40, 36))
    _assert_box_result(img, 25.0, box)


@pytest.mark.parametrize("shape, box", [
    ((1, 1), (0, 1, 0, 1)),
    ((2, 3), (0, 2, 1, 3)),
    ((3, 2), (1, 2, 0, 2)),
    ((1, 9), (0, 1, 2, 6)),
    ((4, 4), (1, 3, 1, 3)),
])
def test_nlm_box_on_slices_smaller_than_the_search_reach(shape, box):
    # the search and patch radii reach 4 px, past the far border of these
    img = np.random.default_rng(13).uniform(0, 255, shape)
    _assert_box_result(img, 30.0, box)


def test_nlm_box_ignores_rounding_of_large_values_beyond_its_reach():
    # Large values at the top left, beyond the 4-px reach of the box: the box
    # result depends only on the pixels its patches and search windows read,
    # so it equals the whole-slice call bit for bit.
    rng = np.random.default_rng(14)
    img = rng.uniform(0, 255, (48, 48))
    img[:24, :24] = rng.uniform(0, 1e7, (24, 24))
    _assert_box_result(img, 30.0, (30, 44, 28, 46))


def test_nlm_box_result_does_not_depend_on_pixels_beyond_its_reach():
    # Pixels more than NLM_PATCH_RADIUS + NLM_SEARCH_RADIUS px from the box
    # (Chebyshev distance) are neither patch nor search pixels of any box pixel.
    reach = pp.NLM_PATCH_RADIUS + pp.NLM_SEARCH_RADIUS
    rng = np.random.default_rng(15)
    for shape, box in [((48, 48), (30, 44, 28, 46)), ((40, 36), (0, 9, 12, 30)),
                       ((40, 36), (10, 25, 0, 7)), ((40, 36), (31, 40, 29, 36)),
                       ((30, 30), (12, 13, 15, 16))]:
        y0, y1, x0, x1 = box
        img = rng.uniform(0, 255, shape)
        near = np.zeros(shape, dtype=bool)
        near[max(0, y0 - reach) : y1 + reach, max(0, x0 - reach) : x1 + reach] = True
        other = img.copy()
        other[~near] = rng.uniform(0, 1e7, int((~near).sum()))
        got = _nlm(img, 30.0, box)[y0:y1, x0:x1]
        np.testing.assert_array_equal(_nlm(other, 30.0, box)[y0:y1, x0:x1], got)


def test_nlm_equals_the_integral_image_nlm_on_integer_valued_slices():
    # With integer values every partial sum of a patch distance is an exact
    # integer, so summing directly or through integral images gives the
    # same distances, and so the same result bit for bit.
    rng = np.random.default_rng(16)
    for _ in range(20):
        ny, nx = (int(v) for v in rng.integers(1, 48, 2))
        img = rng.integers(0, 256, (ny, nx)).astype(float)
        sigma = float(rng.uniform(5, 40))
        whole = oracles.integral_nlm(img, sigma)
        np.testing.assert_array_equal(_nlm(img, sigma), whole)
        y0, y1 = sorted(int(v) for v in rng.integers(0, ny + 1, 2))
        x0, x1 = sorted(int(v) for v in rng.integers(0, nx + 1, 2))
        got = _nlm(img, sigma, (y0, y1, x0, x1))
        np.testing.assert_array_equal(got[y0:y1, x0:x1], whole[y0:y1, x0:x1])


def test_nlm_agrees_with_the_integral_image_nlm_on_real_slices():
    rng = np.random.default_rng(17)
    for _ in range(20):
        ny, nx = (int(v) for v in rng.integers(1, 48, 2))
        img = rng.uniform(0, 255, (ny, nx))
        sigma = float(rng.uniform(5, 40))
        np.testing.assert_allclose(_nlm(img, sigma), oracles.integral_nlm(img, sigma),
                                   rtol=0, atol=1e-9)


# 2.9e300 is the sigma of a slice scaled by 1e300; its h^2 overflows
@pytest.mark.parametrize("sigma", [np.nan, np.inf, -np.inf, 2.9e300])
def test_nlm_rejects_a_non_finite_sigma(sigma):
    with pytest.raises(DataError):
        _nlm(np.zeros((8, 8)), sigma)
    with pytest.raises(DataError):  # one bad slice in a stack
        pp.denoise_nlm(np.zeros((3, 8, 8)), [10.0, sigma, 0.0])


def test_nlm_stack_equals_each_slice_alone():
    # one box for all slices; slices whose sigma is 0 or underflows h^2 stay
    # as they are, and the others do not see them
    rng = np.random.default_rng(19)
    stack = rng.uniform(0, 255, (5, 30, 27))
    sigmas = [25.0, 0.0, 12.0, 1e-170, 40.0]
    box = (0, 17, 6, 27)
    got = pp.denoise_nlm(stack, sigmas, box)
    for img, sigma, out in zip(stack, sigmas, got):
        np.testing.assert_array_equal(out, _nlm(img, sigma, box))
    np.testing.assert_array_equal(got[[1, 3]], stack[[1, 3]])
    np.testing.assert_array_equal(pp.denoise_nlm(stack, sigmas)[0],
                                  oracles.whole_slice_nlm(stack[0], 25.0))


@pytest.mark.parametrize("shape, sigmas", [((2, 8, 8), [1.0]), ((2, 8, 8), [1.0, 2.0, 3.0]),
                                           ((8, 8), [1.0])],
                         ids=["too-few-sigmas", "too-many-sigmas", "not-a-stack"])
def test_nlm_needs_a_stack_and_one_sigma_per_slice(shape, sigmas):
    with pytest.raises(DataError):
        pp.denoise_nlm(np.zeros(shape), sigmas)


@pytest.mark.parametrize("sigma", [1e-170, 5e-324])
def test_nlm_sigma_whose_h_squared_underflows_is_identity(sigma):
    assert (pp.NLM_H_FACTOR * sigma) ** 2 == 0.0
    img = np.random.default_rng(18).uniform(0, 255, (16, 16))
    np.testing.assert_array_equal(_nlm(img, sigma), img)
    np.testing.assert_array_equal(_nlm(img, sigma, (2, 9, 3, 12)), img)


@pytest.mark.parametrize("box", [(5, 4, 0, 8), (0, 8, 6, 2), (-1, 4, 0, 4), (0, 9, 0, 4),
                                 (0, 4, 2, 9)],
                         ids=["rows-inverted", "cols-inverted", "above", "below", "right"])
def test_nlm_rejects_an_inverted_box_or_one_outside_the_slice(box):
    with pytest.raises(DataError):
        _nlm(np.zeros((8, 8)), 1.0, box)


# --- reslicing ---

def test_reslice_identity_when_canonical():
    vol = Volume((1.25, 1.25, 8.0), np.random.default_rng(4).uniform(0, 1, (2, 8, 8)))
    out = pp.reslice(vol)
    np.testing.assert_array_equal(out.data, vol.data)


def test_reslice_downsample_preserves_ramp_samples():
    nx = 16
    ramp = np.tile(np.arange(nx, dtype=float), (1, nx, 1))
    vol = Volume((0.625, 0.625, 8.0), ramp)
    out = pp.reslice(vol)
    assert out.dims == (8, 8, 1)
    np.testing.assert_allclose(out.data[0, 0], np.arange(8) * 2.0)


def test_reslice_upsample_matches_affine_oracle():
    # closed form: bilinear interpolation of an affine function is exact
    n = 16
    yy, xx = np.mgrid[0:n, 0:n].astype(float)
    plane = 3.0 * xx - 2.0 * yy + 5.0
    vol = Volume((1.91, 1.91, 8.0), plane[None])
    out = pp.reslice(vol)
    nx2 = round(n * 1.91 / 1.25)
    assert out.dims[0] == nx2
    u = np.clip(np.arange(nx2) * 1.25 / 1.91, 0, n - 1)
    v = np.clip(np.arange(out.dims[1]) * 1.25 / 1.91, 0, n - 1)
    expected = 3.0 * u[None, :] - 2.0 * v[:, None] + 5.0
    np.testing.assert_allclose(out.data[0], expected, atol=1e-12)
    # field of view preserved within one voxel
    assert abs(nx2 * 1.25 - n * 1.91) <= 1.25


def test_reslice_through_plane_flagged():
    vol = Volume((1.25, 1.25, 10.0), np.zeros((2, 4, 4)))
    with pytest.raises(SpacingError):
        pp.reslice(vol)


def test_reslice_mask_stays_binary():
    rng = np.random.default_rng(5)
    m = Mask((1.91, 1.91, 8.0), rng.random((2, 16, 16)) < 0.5)
    out = pp.reslice_mask(m)
    assert out.data.dtype == bool
    assert out.dims[0] == round(16 * 1.91 / 1.25)


@pytest.mark.parametrize("spacing", [1.0, 1.5625, 1.91])
def test_reslice_mask_is_c_ordered_and_equals_the_nearest_gather(spacing):
    rng = np.random.default_rng(6)
    m = Mask((spacing, spacing, 8.0), rng.random((10, 20, 24)) < 0.5)
    out = pp.reslice_mask(m).data
    assert out.flags.c_contiguous
    ny, nx = out.shape[1:]
    rows, cols = (np.clip(np.arange(n) * 1.25 / spacing, 0, size - 1)
                  for n, size in ((ny, 20), (nx, 24)))
    r, c = (np.floor(v + 0.5).astype(int) for v in (rows, cols))
    np.testing.assert_array_equal(out, m.data[:, r[:, None], c])


# --- normalization and gamma ---

def _refs(n=12):
    myo = np.zeros((n, n), dtype=bool)
    myo[2:10, 2:10] = True
    pool = np.zeros((n, n), dtype=bool)
    pool[4:8, 4:8] = True
    myo &= ~pool
    return myo, pool


def test_normalize_endpoints_map_to_0_255():
    myo, pool = _refs()
    img = np.zeros((12, 12))
    img[myo] = 10.0
    img[pool] = 90.0
    out = pp.normalize_slice(img, myo, pool)
    assert out[myo].min() == 0.0
    assert out[pool].max() == 255.0
    assert np.all(out[~(myo | pool)] == 0.0)


def test_normalize_degenerate_range():
    myo, pool = _refs()
    img = np.full((12, 12), 50.0)
    with pytest.raises(DegenerateRange):
        pp.normalize_slice(img, myo, pool)


def test_normalize_empty_region():
    myo, pool = _refs()
    with pytest.raises(EmptyRegion):
        pp.normalize_slice(np.zeros((12, 12)), np.zeros_like(myo), pool)


def test_normalize_rejects_masks_of_another_shape():
    myo, pool = _refs(5)
    with pytest.raises(AlignmentError):
        pp.normalize_slice(np.zeros((8, 8)), myo, pool)


@pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
@pytest.mark.parametrize("region", ["myocardium", "blood pool"])
def test_normalize_rejects_a_non_finite_reference_intensity(region, value):
    # +-inf made np.percentile subtract inf from inf (a RuntimeWarning)
    myo, pool = _refs()
    img = np.zeros((12, 12))
    img[myo] = 10.0
    img[pool] = 90.0
    img[tuple(np.argwhere(myo if region == "myocardium" else pool)[0])] = value
    with pytest.raises(DataError):
        pp.normalize_slice(img, myo, pool)


def test_normalize_preserves_order():
    rng = np.random.default_rng(6)
    myo, pool = _refs()
    img = rng.uniform(0, 500, (12, 12))
    out = pp.normalize_slice(img, myo, pool)
    inside = myo | pool
    a, b = img[inside], out[inside]
    order = np.argsort(a)
    assert np.all(np.diff(b[order]) >= 0)


def test_gamma_identity_and_fixed_points():
    img = np.linspace(0, 255, 64).reshape(8, 8)
    np.testing.assert_allclose(pp.gamma_enhance(img, 1.0), img)
    assert pp.gamma_enhance(np.array([[255.0]]), 3.7)[0, 0] == 255.0
    assert pp.gamma_enhance(np.array([[0.0]]), 0.3)[0, 0] == 0.0


def test_gamma_closed_form():
    assert pp.gamma_enhance(np.array([[127.5]]), 2.0)[0, 0] == pytest.approx(63.75)


# --- full pipeline ---

def _piecewise_case(spacing=(1.25, 1.25, 8.0)):
    n = 24
    img = np.zeros((1, n, n))
    endo = np.zeros((1, n, n), dtype=bool)
    myo = np.zeros((1, n, n), dtype=bool)
    yy, xx = np.mgrid[0:n, 0:n]
    r = np.hypot(yy - 12, xx - 12)
    endo[0] = r <= 4
    myo[0] = (r > 4) & (r <= 9)
    img[0][endo[0]] = 200.0
    img[0][myo[0]] = 60.0
    return LabeledCase(
        "p",
        Volume(spacing, img),
        Mask(spacing, myo),
        Mask(spacing, endo),
        Mask(spacing, myo | endo),
    )


def test_pipeline_gamma1_on_clean_canonical_case_is_pure_normalization(monkeypatch):
    case = _piecewise_case()
    monkeypatch.setattr(pp, "GAMMA", 1.0)
    out = pp.preprocess_case(case)
    # piecewise-constant slice: estimated sigma is 0, reslice is identity
    expected = pp.normalize_slice(case.volume.data[0], case.myocardium.data[0],
                                  case.endocardium.data[0])
    np.testing.assert_allclose(out.volume.data[0], expected)
    assert out.volume.spacing == (1.25, 1.25, 8.0)


def test_pipeline_output_range_and_mask_preservation():
    case = _piecewise_case()
    out = pp.preprocess_case(case)
    assert out.volume.data.min() >= 0.0
    assert out.volume.data.max() <= 255.0
    assert out.myocardium.count() == case.myocardium.count()


def test_pipeline_volume_preserved_across_reslice():
    # 1.91 mm case: scar-sized region volume in cm^3 within 5% after reslice
    case = _piecewise_case(spacing=(1.91, 1.91, 8.0))
    out = pp.preprocess_case(case)
    vol_before = case.myocardium.count() * 1.91 * 1.91 * 8.0 / 1000.0
    vol_after = out.myocardium.count() * 1.25 * 1.25 * 8.0 / 1000.0
    assert abs(vol_after - vol_before) / vol_before < 0.05


@pytest.mark.parametrize("spacing", [1.25, 1.5625, 1.0, 2.0])
def test_preprocess_case_equals_the_whole_slice_oracle(spacing):
    # 48 x 44 px of 1.0 mm cannot hold the 52-mm heart: it meets the borders
    spec = replace(phantom.PhantomSpec(), dims=(48, 44, 5), spacing=(spacing, spacing, 8.0),
                   center_jitter_mm=8.0, scar=True, mvo=True)
    case = phantom.generate_case(spec, seed=15)
    for mask in (case.myocardium, case.endocardium, case.epicardium, case.gt_scar, case.gt_mvo):
        mask.data[1] = False  # a slice without a contoured heart
    vol = case.volume.data
    vol[3] = 90.0  # a constant slice
    # a piecewise-constant slice: sigma 0, so it is not denoised, yet it normalizes
    vol[4] = np.where(case.endocardium.data[4], 200.0, np.where(case.myocardium.data[4], 60.0, 5.0))
    assert pp.estimate_noise_sigma(vol[3]) == pp.estimate_noise_sigma(vol[4]) == 0.0
    heart = case.myocardium.data | case.endocardium.data
    union = bounding_box(heart.any(axis=0), 1)
    if spacing != 1.0:  # at 1.0 mm every box nearly fills the slice
        # the slices' hearts jitter by up to 8 mm, so the union box is larger
        assert all(bounding_box(h, 1) != union for h in heart if h.any())
    expected = oracles.whole_slice_preprocess(case)
    out = pp.preprocess_case(case)
    assert out.volume.data[[0, 2, 4]].any(axis=(1, 2)).all()
    assert not out.volume.data[[1, 3]].any()
    assert out.volume.spacing == expected.volume.spacing
    np.testing.assert_array_equal(out.volume.data, expected.volume.data)
    for name in ("myocardium", "endocardium", "epicardium", "gt_scar", "gt_mvo"):
        np.testing.assert_array_equal(getattr(out, name).data, getattr(expected, name).data)


@pytest.mark.parametrize("near", [(1.25 + 1e-13, 1.25, 8.0), (1.25, 1.25, 8.0 + 1e-10)],
                         ids=["in-plane", "through-plane"])
def test_preprocess_case_puts_a_near_canonical_case_on_the_canonical_grid(near):
    spec = replace(phantom.PhantomSpec(), dims=(48, 44, 3), scar=True, mvo=True)
    case = phantom.generate_case(spec, seed=16)
    moved = {name: type(grid)(near, grid.data) for name, grid in vars(case).items()
             if isinstance(grid, (Volume, Mask))}
    expected = pp.preprocess_case(case)
    out = pp.preprocess_case(replace(case, **moved))
    for name in moved:
        assert getattr(out, name).spacing == pp.CANONICAL_SPACING
        np.testing.assert_array_equal(getattr(out, name).data, getattr(expected, name).data)


def test_preprocess_case_rejects_a_case_whose_noise_overflows_h_squared():
    case = phantom.generate_case(replace(phantom.PhantomSpec(), dims=(40, 40, 2)), seed=3)
    case.volume.data *= 1e300
    with pytest.raises(DataError):
        pp.preprocess_case(case)

