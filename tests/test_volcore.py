import numpy as np
import pytest

from miquant import segment, volcore as vc
from miquant.errors import ConfigError, DataError, DegenerateHistogram

import oracles


# --- structuring elements ---

def test_disk_r0_is_identity_element():
    se = vc.make_disk_se(0)
    assert set(se.offsets) == {(0, 0)}


def test_disk_r1_is_cross():
    se = vc.make_disk_se(1)
    assert set(se.offsets) == {(0, 0), (1, 0), (-1, 0), (0, 1), (0, -1)}


def test_disk_r2_offset_count_matches_enumeration():
    expected = {
        (dx, dy)
        for dx in range(-2, 3)
        for dy in range(-2, 3)
        if dx * dx + dy * dy <= 4
    }
    assert len(expected) == 13
    assert set(vc.make_disk_se(2).offsets) == expected


def test_bar_length_one():
    assert set(vc.make_bar_se(1, 0).offsets) == {(0, 0)}


def test_bar_horizontal_and_vertical_triples():
    assert set(vc.make_bar_se(3, 0).offsets) == {(-1, 0), (0, 0), (1, 0)}
    assert set(vc.make_bar_se(3, 90).offsets) == {(0, -1), (0, 0), (0, 1)}


@pytest.mark.parametrize("theta", [0, 30, 60, 90, 120, 150, 45, 17.3])
@pytest.mark.parametrize("length", [1, 2, 3, 5, 8, 34])
def test_bar_has_exactly_length_members(length, theta):
    se = vc.make_bar_se(length, theta)
    assert len(set(se.offsets)) == length
    assert (0, 0) in se.offsets


def test_even_bar_biases_positive_direction():
    se = vc.make_bar_se(4, 0)
    dxs = sorted(dx for dx, _ in se.offsets)
    assert dxs == [-1, 0, 1, 2]


# --- morphology vs footprint-scan oracle ---

@pytest.mark.parametrize("se_factory", [
    lambda: vc.make_disk_se(1),
    lambda: vc.make_disk_se(2),
    lambda: vc.make_bar_se(3, 0),
    lambda: vc.make_bar_se(5, 45),
    lambda: vc.make_bar_se(4, 120),
    lambda: vc.make_bar_se(4, 60),
])
def test_erode_dilate_match_scan_oracle(se_factory):
    se = se_factory()
    for m in np.random.default_rng(3).random((25, 8, 8)) < 0.4:
        indicator = m.astype(float)
        np.testing.assert_array_equal(vc.binary_erode(m, se),
                                      oracles.scan_erode(indicator, se.offsets) > 0.5)
        np.testing.assert_array_equal(vc.binary_dilate(m, se),
                                      oracles.scan_dilate(indicator, se.offsets) > 0.5)


def test_flat_invariance():
    se = vc.make_disk_se(2)
    for m in np.zeros((9, 9), dtype=bool), np.ones((9, 9), dtype=bool):
        np.testing.assert_array_equal(vc.binary_erode(m, se), m)
        np.testing.assert_array_equal(vc.binary_dilate(m, se), m)
    img = np.full((9, 9), 42.0)
    np.testing.assert_array_equal(vc.white_tophat(img, se), np.zeros_like(img))


def test_single_pixel_dilation_is_cross():
    m = np.zeros((7, 7), dtype=bool)
    m[3, 3] = True
    out = vc.binary_dilate(m, vc.make_disk_se(1))
    expected = np.zeros((7, 7), dtype=bool)
    for dy, dx in [(0, 0), (1, 0), (-1, 0), (0, 1), (0, -1)]:
        expected[3 + dy, 3 + dx] = True
    np.testing.assert_array_equal(out, expected)


def test_tophat_keeps_thin_bright_pixel():
    img = np.full((9, 9), 10.0)
    img[4, 4] = 200.0
    se = vc.make_bar_se(3, 0)
    th = vc.white_tophat(img, se)
    assert th[4, 4] == 190.0
    # opening removed the peak, background contributes nothing
    assert th.sum() == 190.0


def test_tophat_removes_wide_plateau_interior():
    img = np.zeros((16, 16))
    img[3:13, 3:13] = 100.0  # 10x10 plateau, wider than a 3-bar everywhere
    se = vc.make_bar_se(3, 0)
    th = vc.white_tophat(img, se)
    assert np.all(th[5:11, 5:11] == 0.0)
    np.testing.assert_array_equal(th, oracles.scan_tophat(img, se.offsets))


# boxes on a 46 x 52 slice: touching each border, one pixel, central and
# the whole slice; the central box leaves every bar's full reach in the slice
_TOPHAT_BOXES = [(0, 9, 14, 40), (37, 46, 10, 30), (12, 30, 0, 7), (20, 41, 44, 52),
                 (23, 24, 26, 27), (18, 28, 19, 33), (0, 46, 0, 52)]


@pytest.mark.parametrize("theta", segment.BAR_ANGLES_DEG)
def test_white_tophat_box_equals_the_whole_slice_scan(theta):
    se = vc.make_bar_se(segment.BAR_LENGTH, theta)
    stack = np.random.default_rng(int(theta)).uniform(0, 255, size=(2, 46, 52))
    expected = np.stack([oracles.scan_tophat(img, se.offsets) for img in stack])
    np.testing.assert_array_equal(vc.white_tophat(stack[0], se), expected[0])
    np.testing.assert_array_equal(vc.white_tophat(stack, se), expected)
    for y0, y1, x0, x1 in _TOPHAT_BOXES:
        np.testing.assert_array_equal(vc.white_tophat(stack, se, (y0, y1, x0, x1)),
                                      expected[:, y0:y1, x0:x1])


def test_duality_idempotence_antiextensivity():
    rng = np.random.default_rng(11)
    ses = [vc.make_disk_se(1), vc.make_bar_se(4, 30), vc.make_bar_se(5, 90)]
    for _ in range(40):
        img = rng.uniform(-50, 300, size=(10, 10))
        m = img > 125
        for se in ses:
            # duality: erode(~M, se) == ~dilate(M, reflected se)
            np.testing.assert_array_equal(
                vc.binary_erode(~m, se), ~vc.binary_dilate(m, se.reflected())
            )
            opened = vc.binary_opening(m, se)
            np.testing.assert_array_equal(vc.binary_opening(opened, se), opened)
            assert np.all(opened <= m)
            assert np.all(vc.white_tophat(img, se) >= 0)


def test_binary_monotonicity_under_inclusion():
    rng = np.random.default_rng(5)
    se = vc.make_disk_se(1)
    for _ in range(30):
        a = rng.random((12, 12)) < 0.3
        b = a | (rng.random((12, 12)) < 0.2)
        assert np.all(vc.binary_dilate(a, se) <= vc.binary_dilate(b, se))
        assert np.all(vc.binary_erode(a, se) <= vc.binary_erode(b, se))


# --- hole filling ---

def test_fill_solid_square_unchanged():
    m = np.zeros((7, 7), dtype=bool)
    m[2:5, 2:5] = True
    np.testing.assert_array_equal(vc.fill_holes_2d(m), m)


def test_fill_ring_hole():
    m = np.zeros((7, 7), dtype=bool)
    m[1:6, 1:6] = True
    m[3, 3] = False
    out = vc.fill_holes_2d(m)
    expected = np.zeros((7, 7), dtype=bool)
    expected[1:6, 1:6] = True
    np.testing.assert_array_equal(out, expected)


def test_fill_open_c_shape_unchanged():
    m = np.zeros((7, 7), dtype=bool)
    m[1:6, 1:6] = True
    m[2:5, 2:5] = False  # carve interior
    m[3, 5] = False      # open the ring to the right border side
    m[3, 4] = False
    np.testing.assert_array_equal(vc.fill_holes_2d(m), m)


def _fill_cases():
    rng = np.random.default_rng(31)
    shapes = [(1, 1), (1, 7), (7, 1), (2, 2), (3, 5), (12, 12), (40, 33)]
    for shape in shapes:
        yield np.zeros(shape, dtype=bool)
        yield np.ones(shape, dtype=bool)
        for density in (0.2, 0.45, 0.6, 0.8):
            for _ in range(4):
                yield rng.random(shape) < density


def test_fill_matches_bfs_oracle():
    masks = list(_fill_cases())
    for m in masks:
        out = vc.fill_holes_2d(m)
        assert out.dtype == bool
        np.testing.assert_array_equal(out, oracles.bfs_fill_holes(m))
    # a stack, of one or two leading axes, fills each slice as if alone
    for shape in {m.shape for m in masks}:
        stack = np.stack([m for m in masks if m.shape == shape])
        expected = np.stack([oracles.bfs_fill_holes(m) for m in stack])
        np.testing.assert_array_equal(vc.fill_holes_2d(stack), expected)
        np.testing.assert_array_equal(vc.fill_holes_2d(stack.reshape(2, -1, *shape)),
                                      expected.reshape(2, -1, *shape))


def test_fill_is_extensive_and_idempotent():
    rng = np.random.default_rng(23)
    for _ in range(30):
        m = rng.random((12, 12)) < 0.45
        out = vc.fill_holes_2d(m)
        assert np.all(m <= out)
        np.testing.assert_array_equal(vc.fill_holes_2d(out), out)


# --- Otsu ---

def test_otsu_two_point_tie_break():
    bins = np.zeros(256, dtype=np.int64)
    bins[0] = 50
    bins[255] = 50
    assert vc.otsu_threshold(np.repeat(np.arange(256), bins)) == 0


def test_otsu_bimodal_exact():
    bins = np.zeros(256, dtype=np.int64)
    bins[30] = 40
    bins[200] = 60
    t = vc.otsu_threshold(np.repeat(np.arange(256), bins))
    assert t == oracles.sweep_otsu(bins) == 30


def test_otsu_matches_sweep_oracle_on_random_histograms():
    rng = np.random.default_rng(29)
    for _ in range(200):
        bins = rng.integers(0, 40, size=256)
        if np.count_nonzero(bins) < 2:
            continue
        assert vc.otsu_threshold(np.repeat(np.arange(256), bins)) == oracles.sweep_otsu(bins)


def test_otsu_degenerate_single_level():
    bins = np.zeros(256, dtype=np.int64)
    bins[7] = 100
    with pytest.raises(DegenerateHistogram):
        vc.otsu_threshold(np.repeat(np.arange(256), bins))


# --- grid types ---

def test_volume_rejects_nan():
    data = np.zeros((1, 2, 2))
    data[0, 0, 0] = np.nan
    with pytest.raises(DataError):
        vc.Volume((1, 1, 1), data)


_GRID = vc.Mask((1, 1, 1), np.zeros((2, 2, 2)))


@pytest.mark.parametrize("make", [
    lambda: vc.Volume((1, 1, 1), np.zeros((2, 2))),
    lambda: vc.Mask((1, 1, 1), np.zeros((0, 2, 2))),
    lambda: vc.Volume((1, 0, 1), np.zeros((1, 2, 2))),
    lambda: vc.Volume((1, 1), np.zeros((1, 2, 2))),
    lambda: vc.LabeledCase("c", vc.Volume((1, 1, 1), np.zeros((2, 2, 2))),
                           _GRID, _GRID, _GRID, per_slice_labels=["healthy"]),
], ids=["2-d grid", "empty axis", "zero spacing", "two spacings", "label count"])
def test_bad_grid_labels_or_histogram_is_a_data_error(make):
    with pytest.raises(DataError):
        make()


@pytest.mark.parametrize("make", [
    lambda: vc.make_disk_se(-1),
    lambda: vc.make_bar_se(0, 30.0),
    lambda: vc.StructuringElement(((1, 0), (0, 1))),
], ids=["disk radius", "bar length", "no anchor"])
def test_bad_structuring_element_is_a_config_error(make):
    with pytest.raises(ConfigError):
        make()


def test_volume_dims_order():
    v = vc.Volume((1.25, 1.5, 8.0), np.zeros((3, 4, 5)))
    assert v.dims == (5, 4, 3)
    assert v.voxel_volume_mm3 == pytest.approx(15.0)


def test_mask_alignment_check():
    a = vc.Mask((1, 1, 1), np.zeros((2, 3, 3), dtype=bool))
    b = vc.Mask((1, 1, 2), np.zeros((2, 3, 3), dtype=bool))
    with pytest.raises(Exception):
        vc.check_aligned(a, b)


def test_mask_count_equals_the_sum():
    rng = np.random.default_rng(5)
    for data in (np.zeros((2, 5, 6), dtype=bool), np.ones((2, 5, 6), dtype=bool),
                 rng.random((3, 17, 19)) < 0.3):
        assert vc.Mask((1, 1, 1), data).count() == int(data.sum())


def test_labeled_case_slice_labels_derived_from_gt():
    vol = vc.Volume((1, 1, 1), np.zeros((2, 4, 4)))
    myo = vc.Mask((1, 1, 1), np.ones((2, 4, 4), dtype=bool))
    scar = np.zeros((2, 4, 4), dtype=bool)
    scar[1, 2, 2] = True
    case = vc.LabeledCase(
        "c0", vol, myo, vc.Mask((1, 1, 1), np.zeros((2, 4, 4), dtype=bool)), myo, gt_scar=vc.Mask((1, 1, 1), scar)
    )
    assert case.slice_label(0) == "healthy"
    assert case.slice_label(1) == "diseased"
