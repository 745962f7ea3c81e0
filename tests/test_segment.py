import os
from dataclasses import replace

import numpy as np
import pytest
from scipy import ndimage as ndi

import oracles
from miquant import learnlib as ll, phantom, preprocess, segment, vio
from miquant.errors import (
    AlignmentError,
    ConfigError,
    DataError,
    EmptyClassError,
    FormatError,
    NoGroundTruth,
    ShapeError,
)
from miquant.learnlib.net import Dense
from miquant.volcore import (
    LabeledCase,
    Mask,
    Volume,
    bounding_box,
    extract_patches,
    patch_region,
)


def _vote_each_patch_alone(ensemble, img, ys, xs):
    """Each member's forward on each zero-centred band patch by itself."""
    size = ensemble.patch_size
    padded = np.pad(img, size)  # zeros beyond the slice on every side
    votes = np.zeros(len(ys), dtype=np.int64)
    for i, (y, x) in enumerate(zip(ys.tolist(), xs.tolist())):
        top, left = y + size - size // 2, x + size - size // 2
        patch = padded[top : top + size, left : left + size]
        centred = ((patch - ensemble.mean_patch) * segment.INPUT_SCALE)[None, :, :, None]
        votes[i] = sum(int(m.forward(centred).argmax(axis=1)[0]) for m in ensemble.members)
    return votes >= (len(ensemble.members) + 1) // 2


def _refine_oracle(ensemble, img, coarse, myo):
    se = segment.make_disk_se(segment.BOUNDARY_RADIUS)
    core = segment.binary_erode(coarse, se) & coarse
    band = segment.binary_dilate(coarse, se) & ~core
    ys, xs = np.nonzero(band)
    alone = _vote_each_patch_alone(ensemble, img, ys, xs)
    expected = core.copy()
    expected[ys[alone], xs[alone]] = True
    return expected & myo, core, band, alone


def _coarse(img, myo):
    """coarse_segment on a stack of one slice."""
    masks, degenerate = segment.coarse_segment(img[None], myo[None])
    assert not degenerate[0]
    return masks[0]


def _annulus(shape, cy, cx, r_in=8.0, r_out=15.0):
    yy, xx = np.mgrid[: shape[0], : shape[1]]
    r = np.hypot(yy - cy, xx - cx)
    return (r >= r_in) & (r <= r_out)


@pytest.mark.parametrize("centre", [(3, 60), (116, 70), (60, 2), (55, 127), (60, 65)],
                         ids=["top", "bottom", "left", "right", "central"])
def test_coarse_segment_equals_the_whole_slice_oracle(centre):
    rng = np.random.default_rng(sum(centre))
    shape = (120, 130)
    myo = _annulus(shape, *centre)
    # a bright sector of the annulus, and thin diagonal ridges all over
    img = ndi.gaussian_filter(rng.uniform(0, 160, shape), 1.0)
    img[myo & (np.arange(shape[1]) > centre[1] + 3)] += 80.0
    ridges = ndi.binary_dilation(rng.random(shape) < 0.01, structure=np.eye(7, dtype=bool))
    img[ridges] = 200.0
    expected = oracles.whole_slice_coarse(img, myo)
    assert 0 < expected.sum() < myo.sum()
    np.testing.assert_array_equal(_coarse(img, myo), expected)


def test_coarse_segment_equals_the_whole_slice_oracle_on_phantom_slices(
        diseased_cases, mixed_cases):
    for case in diseased_cases + mixed_cases:
        masks, degenerate = segment.coarse_segment(case.volume.data, case.myocardium.data)
        assert not degenerate.any()
        for img, myo, got in zip(case.volume.data, case.myocardium.data, masks):
            np.testing.assert_array_equal(got, oracles.whole_slice_coarse(img, myo))


def _band_between_slabs(far):
    """An 8-row myocardial band, next to a darker block, whose top and
    bottom rows border bright slabs that end 32 px past the band; rows of
    value far lie 33 px past it. Every 34-px vertical window through an
    edge row that misses the band's darker middle rows ends on a far row,
    so the far rows set the edges' top-hat."""
    img = np.zeros((110, 150))
    myo = np.zeros(img.shape, dtype=bool)
    top, bottom = 36, 43
    myo[top : bottom + 1, 50:130] = True
    myo[top : bottom + 1, 5:35] = True
    img[top : bottom + 1, 5:35] = 20.0
    img[top + 1 : bottom, 50:130] = 80.0
    img[[top, bottom], 50:130] = 130.0
    img[top - 32 : top, 40:140] = 255.0
    img[bottom + 1 : bottom + 33, 40:140] = 255.0
    img[[top - 33, bottom + 33], 40:140] = far
    return img, myo


def test_coarse_segment_reads_pixels_one_opening_reach_away():
    img, myo = _band_between_slabs(far=0.0)
    lit, _ = _band_between_slabs(far=255.0)
    # the rows 33 px from the myocardium decide the Otsu split
    expected = oracles.whole_slice_coarse(img, myo)
    assert expected.sum() != oracles.whole_slice_coarse(lit, myo).sum()
    np.testing.assert_array_equal(_coarse(img, myo), expected)
    np.testing.assert_array_equal(_coarse(lit, myo), oracles.whole_slice_coarse(lit, myo))


def test_coarse_segment_and_refine_reject_slices_of_different_shapes(tiny_ensemble):
    img = np.zeros((20, 20))
    square = np.ones((20, 20), dtype=bool)
    wide = np.ones((20, 21), dtype=bool)
    with pytest.raises(AlignmentError):
        segment.coarse_segment(img[None], wide[None])
    with pytest.raises(AlignmentError):
        segment.refine(img, square, tiny_ensemble, wide)
    with pytest.raises(AlignmentError):
        segment.refine(img, wide, tiny_ensemble, square)


def test_refine_matches_voting_each_band_patch_alone(diseased_cases, tiny_ensemble):
    # a trained ensemble centres its patches on a non-zero scalar mean
    assert isinstance(tiny_ensemble.mean_patch, float) and tiny_ensemble.mean_patch > 0
    case = diseased_cases[4]  # not among the ensemble's training cases
    img, myo = case.volume.data[0], case.myocardium.data[0]
    coarse = _coarse(img, myo)
    expected, core, _, alone = _refine_oracle(tiny_ensemble, img, coarse, myo)
    assert 0 < alone.sum() < len(alone)  # the vote decides, both ways

    out = segment.refine(img, coarse, tiny_ensemble, myo)
    np.testing.assert_array_equal(out, expected)
    assert not (out & ~myo).any()
    assert not (core & myo & ~out).any()

    # a stack votes slice by slice
    imgs, myos = case.volume.data, case.myocardium.data
    coarses = np.stack([_coarse(i, m) for i, m in zip(imgs, myos)])
    stacked = segment.refine(imgs, coarses, tiny_ensemble, myos)
    np.testing.assert_array_equal(stacked[0], out)
    for i, c, m, got in zip(imgs, coarses, myos, stacked):
        np.testing.assert_array_equal(got, segment.refine(i, c, tiny_ensemble, m))


def test_refine_zero_pads_a_band_that_touches_the_slice_border(diseased_cases, tiny_ensemble):
    case = diseased_cases[4]
    img, myo = case.volume.data[0], case.myocardium.data[0]
    coarse = _coarse(img, myo)
    rows, cols = np.nonzero(coarse)
    # cut the slice inside the coarse mask's bounding box on every side
    window = (slice(rows.min() + 2, rows.max() - 1), slice(cols.min() + 2, cols.max() - 1))
    img, myo, coarse = img[window], myo[window], coarse[window]
    expected, _, band, alone = _refine_oracle(tiny_ensemble, img, coarse, myo)
    assert band[0].any() and band[-1].any() and band[:, 0].any() and band[:, -1].any()
    assert 0 < alone.sum() < len(alone)

    np.testing.assert_array_equal(segment.refine(img, coarse, tiny_ensemble, myo), expected)


@pytest.mark.parametrize("index", [4, 5])  # not among the ensemble's training cases
def test_each_member_votes_like_its_float64_forward_on_every_band_window(
        diseased_cases, tiny_ensemble, index):
    # a majority vote can hide one member's flip, so compare members, not votes
    case = diseased_cases[index]
    size = tiny_ensemble.patch_size
    offset = tiny_ensemble.mean_patch * segment.INPUT_SCALE
    labels = []
    for k in range(case.nz):
        img, myo = case.volume.data[k], case.myocardium.data[k]
        ys, xs = np.nonzero(segment.boundary_region(_coarse(img, myo)))
        region, oy, ox = patch_region(img, ys, xs, size)
        crops = (extract_patches(img, ys, xs, size) - tiny_ensemble.mean_patch) * segment.INPUT_SCALE
        for member in tiny_ensemble.members:
            expected = member.forward(crops[..., None])
            got = member.forward_windows(region * segment.INPUT_SCALE, oy, ox, offset)
            np.testing.assert_array_equal(got.argmax(axis=1), expected.argmax(axis=1))
            np.testing.assert_allclose(got, expected, rtol=0.0, atol=1e-5)
            labels.append(expected.argmax(axis=1))
    labels = np.concatenate(labels)
    assert 0 < labels.sum() < len(labels)  # the members vote both ways


def _band(case):
    img, myo = case.volume.data[0], case.myocardium.data[0]
    ys, xs = np.nonzero(segment.boundary_region(_coarse(img, myo)))
    return img, ys, xs


def _spied_voter(member, bias=None):
    """A copy of member whose ``seen`` lists the windows of each
    forward_windows call; with a bias, its last dense layer votes
    argmax(bias) on every window."""
    voter = vio.decode_model(vio.encode_model(member))
    if bias is not None:
        dense = [layer for layer in voter.layers if isinstance(layer, Dense)][-1]
        dense.b = np.asarray(bias, dtype=np.float64)
    forward_windows = voter.forward_windows
    voter.seen = []

    def spy(image, oy, ox, offset):
        voter.seen.append(len(oy))
        return forward_windows(image, oy, ox, offset)

    voter.forward_windows = spy
    return voter


SCAR, HEALTHY = (0.0, 1e6), (1e6, 0.0)


def _windows_seen(ensemble):
    return [sum(m.seen) for m in ensemble.members]


def test_vote_skips_members_once_four_of_seven_agree(diseased_cases, tiny_ensemble):
    img, ys, xs = _band(diseased_cases[4])
    lead = [_spied_voter(tiny_ensemble.members[i % 3], SCAR) for i in range(4)]
    trailing = [_spied_voter(m) for m in tiny_ensemble.members]
    ensemble = segment.PatchEnsemble(lead + trailing, tiny_ensemble.mean_patch)

    assert ensemble.vote(ys, xs, img).all()
    assert _windows_seen(ensemble) == [len(ys)] * 4 + [0] * 3


def test_vote_keeps_undecided_windows_open(diseased_cases, tiny_ensemble):
    img, ys, xs = _band(diseased_cases[4])
    lead = [_spied_voter(tiny_ensemble.members[i % 3], (SCAR, HEALTHY)[i % 2])
            for i in range(4)]
    trailing = [_spied_voter(m) for m in tiny_ensemble.members]
    ensemble = segment.PatchEnsemble(lead + trailing, tiny_ensemble.mean_patch)

    votes = ensemble.vote(ys, xs, img)
    expected = tiny_ensemble.vote(ys, xs, img)
    assert 0 < expected.sum() < len(expected)  # the trailing members decide, both ways
    np.testing.assert_array_equal(votes, expected)
    # the 2-2 tie keeps every window open through the sixth vote; the
    # seventh member sees only the windows tied 3-3
    seen = _windows_seen(ensemble)
    assert seen[:6] == [len(ys)] * 6
    assert 0 < seen[6] < len(ys)


def test_vote_on_no_patches_is_empty(tiny_ensemble):
    votes = tiny_ensemble.vote([], [], np.zeros((20, 20)))
    assert votes.dtype == bool
    assert votes.shape == (0,)


@pytest.mark.parametrize("members", [0, 2])
def test_patch_ensemble_needs_odd_member_count(tiny_ensemble, members):
    with pytest.raises(ConfigError):
        segment.PatchEnsemble(members=tiny_ensemble.members[:1] * members,
                              mean_patch=tiny_ensemble.mean_patch)


def test_patch_ensemble_rejects_a_mean_patch_of_another_size(tiny_ensemble):
    with pytest.raises(ConfigError):
        segment.PatchEnsemble(tiny_ensemble.members,
                              np.full((segment.PATCH_SIZE - 1,) * 2, tiny_ensemble.mean_patch))


def test_patch_ensemble_reads_a_constant_mean_patch_as_its_scalar(tiny_ensemble):
    # the form a caller that still builds a patch-sized mean uses
    ensemble = segment.PatchEnsemble(tiny_ensemble.members,
                                     mean_patch=np.full((segment.PATCH_SIZE,) * 2, 127.5))
    assert type(ensemble.mean_patch) is float and ensemble.mean_patch == 127.5
    assert segment.PatchEnsemble(tiny_ensemble.members, np.float32(2.5)).mean_patch == 2.5


def _per_pixel_mean():
    mean = np.full((segment.PATCH_SIZE,) * 2, 100.0)
    mean[3, 4] = 101.0
    return mean


NOT_ONE_FINITE_MEAN = [_per_pixel_mean(), np.nan, np.inf,
                       np.full((segment.PATCH_SIZE,) * 2, np.nan)]
NOT_ONE_FINITE_MEAN_IDS = ["per-pixel", "nan", "inf", "nan-patch"]


@pytest.mark.parametrize("mean", NOT_ONE_FINITE_MEAN, ids=NOT_ONE_FINITE_MEAN_IDS)
def test_patch_ensemble_rejects_a_mean_that_is_not_one_finite_scalar(tiny_ensemble, mean):
    with pytest.raises(ConfigError):
        segment.PatchEnsemble(tiny_ensemble.members, mean)


def test_patch_ensemble_rejects_a_member_of_another_input_size(tiny_ensemble):
    small = ll.build_classifier(segment.PATCH_SIZE - 1, seed=0, widths=(4, 8), fc=16)
    with pytest.raises(ConfigError):
        segment.PatchEnsemble(tiny_ensemble.members[:2] + [small], tiny_ensemble.mean_patch)


@pytest.mark.parametrize("max_patches_per_class", [0, -1])
def test_ensemble_config_needs_a_patch_cap_of_one_or_more(max_patches_per_class):
    with pytest.raises(ConfigError):
        segment.EnsembleConfig(max_patches_per_class=max_patches_per_class)
    assert segment.EnsembleConfig(max_patches_per_class=None).max_patches_per_class is None


@pytest.mark.parametrize("radius", [1, segment.BOUNDARY_RADIUS, 3])
def test_boundary_region_is_dilation_minus_erosion(radius):
    rng = np.random.default_rng(radius)
    se = segment.make_disk_se(radius)
    for density in (0.1, 0.5, 0.9):
        mask = rng.random((30, 40)) < density
        expected = segment.binary_dilate(mask, se) & ~segment.binary_erode(mask, se)
        np.testing.assert_array_equal(segment.boundary_region(mask, radius), expected)
    if radius == segment.BOUNDARY_RADIUS:
        np.testing.assert_array_equal(segment.boundary_region(mask), expected)


def _ring(n=48):
    """Distance and angle from the centre, endocardium and myocardium."""
    yy, xx = np.mgrid[0:n, 0:n] - n // 2
    r, angle = np.hypot(yy, xx), np.degrees(np.arctan2(yy, xx)) % 360
    return r, angle, r <= 8, (r > 8) & (r <= 16)


def test_include_mvo_turns_an_enclosed_dark_core_into_mvo():
    r, angle, endo, myo = _ring()
    # a dark disk in the middle of a transmural scar sector
    core = r**2 + 12**2 - 2 * 12 * r * np.cos(np.radians(angle - 45)) <= 2**2
    hyper = myo & (angle < 90) & ~core
    mvo = segment.include_mvo(hyper, endo, myo)
    assert core.sum() > 1
    np.testing.assert_array_equal(mvo, core)
    assert not (hyper & mvo).any()


def test_include_mvo_leaves_a_scar_without_holes_alone():
    r, angle, endo, myo = _ring()
    hyper = myo & (angle < 90) & (r > 11)  # subendocardial gap open to healthy myocardium
    assert not segment.include_mvo(hyper, endo, myo).any()


def _mvo_slices():
    """(hyper, endo, myo) slices: random scar on rings centred inside the
    slice and on or near each border; a hole one pixel inside the union's
    box next to a bay open at the box edge; an empty union; and a hole in
    the endocardium far from the scar."""
    rng = np.random.default_rng(17)
    yy, xx = np.mgrid[0:40, 0:44]
    for cy, cx in ((20, 22), (3, 22), (38, 22), (20, 1), (20, 42), (0, 0)):
        r = np.hypot(yy - cy, xx - cx)
        endo, myo = r <= 6, (r > 6) & (r <= 13)
        for density in (0.5, 0.7, 0.9):
            yield myo & (rng.random(myo.shape) < density), endo, myo
    square = np.zeros((12, 14), dtype=bool)
    square[2:9, 3:11] = True
    square[3, 5] = False  # a hole
    square[2, 8] = False  # a bay
    yield square, np.zeros_like(square), np.ones_like(square)
    yield np.zeros_like(square), np.zeros_like(square), np.ones_like(square)
    ring = np.zeros_like(square)  # a hole held by the endocardium alone
    ring[1:6, 1:6] = True
    ring[3, 3] = False
    speck = np.zeros_like(square)
    speck[9, 12] = True
    yield speck, ring, np.ones_like(square)


def test_include_mvo_equals_the_whole_slice_fill_oracle():
    slices = list(_mvo_slices())
    holes = 0
    for hyper, endo, myo in slices:
        mvo = segment.include_mvo(hyper, endo, myo)
        np.testing.assert_array_equal(mvo, oracles.whole_slice_mvo(hyper, endo, myo))
        holes += int(mvo.any())
    assert holes >= 10
    # a stack fills on the union of its slices' boxes, slice by slice
    for shape in {hyper.shape for hyper, _, _ in slices}:
        same = [s for s in slices if s[0].shape == shape]
        hyper, endo, myo = (np.stack(masks) for masks in zip(*same))
        expected = np.stack([oracles.whole_slice_mvo(*s) for s in same])
        np.testing.assert_array_equal(segment.include_mvo(hyper, endo, myo), expected)


def test_include_mvo_rejects_slices_of_different_shapes():
    square = np.ones((20, 20), dtype=bool)
    wide = np.ones((20, 21), dtype=bool)
    for hyper, endo, myo in ((wide, square, square), (square, wide, square),
                             (square, square, wide)):
        with pytest.raises(AlignmentError):
            segment.include_mvo(hyper, endo, myo)


def test_segmentation_result_rejects_overlapping_hyper_and_mvo():
    spacing = (1.25, 1.25, 8.0)
    on = Mask(spacing, np.ones((1, 2, 2), dtype=bool))
    with pytest.raises(DataError):
        segment.SegmentationResult("c", coarse=on, hyper=on, mvo=on)
    hyper = Mask(spacing, np.array([[[True, False], [False, False]]]))
    mvo = Mask(spacing, np.array([[[False, True], [False, False]]]))
    result = segment.SegmentationResult("c", coarse=hyper, hyper=hyper, mvo=mvo)
    np.testing.assert_array_equal(result.final.data, hyper.data | mvo.data)
    assert result.final.spacing == spacing
    with pytest.raises(TypeError):  # final is derived, never given
        segment.SegmentationResult("c", coarse=hyper, hyper=hyper, mvo=mvo, final=hyper)


def _flat_ring_case():
    """Three-slice case: slice 0 has no myocardium, slice 1 is a flat image
    and slice 2 a ring with a bright half."""
    spacing = (1.25, 1.25, 8.0)
    yy, xx = np.mgrid[0:48, 0:48]
    r = np.hypot(yy - 24, xx - 24)
    endo = np.repeat((r <= 6)[None], 3, axis=0)
    myo = np.repeat(((r > 6) & (r <= 12))[None], 3, axis=0)
    myo[0] = False
    vol = np.full((3, 48, 48), 60.0)
    vol[2][myo[2] & (xx > 24)] = 200.0
    return LabeledCase("flat", Volume(spacing, vol),
                       Mask(spacing, myo), Mask(spacing, endo), Mask(spacing, myo | endo))


def test_segment_case_flags_empty_myocardium_apart_from_degenerate_histogram(tiny_ensemble):
    for ensemble in (None, tiny_ensemble):
        result = segment.segment_case(_flat_ring_case(), ensemble=ensemble)
        empty, flat, live = result.outcomes
        assert empty.empty_myocardium and not empty.degenerate_histogram
        assert flat.degenerate_histogram and not flat.empty_myocardium
        assert not (live.empty_myocardium or live.degenerate_histogram)
        assert [o.refined for o in result.outcomes] == [False, False, ensemble is not None]
        assert not result.final.data[:2].any() and result.coarse.data[2].any()


def test_segment_case_coarse_masks_equal_the_whole_slice_oracle():
    # 52 x 56 px of 1.25 mm: the jittered hearts of slices 0-2 meet the top or
    # the bottom border, and each of those slices' own box misses some coarse
    # mask pixel of another, so only their union box gives every mask
    spec = replace(phantom.PhantomSpec(), dims=(56, 52, 5), center_jitter_mm=8.0,
                   scar=True, mvo=True)
    case = preprocess.preprocess_case(phantom.generate_case(spec, seed=7))
    case.myocardium.data[4] = False  # an empty myocardium
    gate = ["diseased"] * 3 + ["healthy", "diseased"]
    myo = case.myocardium.data
    expected = [oracles.whole_slice_coarse(case.volume.data[k], myo[k]) for k in range(3)]
    assert all(e.any() for e in expected)
    y0, y1, _, _ = bounding_box(myo[:3].any(axis=0), segment.OPENING_RADIUS)
    assert (y0, y1) == (0, myo.shape[1])
    for k in range(3):
        r0, r1, c0, c1 = bounding_box(myo[k], segment.OPENING_RADIUS)
        assert any(e.sum() > e[r0:r1, c0:c1].sum() for e in expected)
    result = segment.segment_case(case, gate=gate)
    assert [(o.gated_out, o.empty_myocardium) for o in result.outcomes] == [
        (False, False)] * 3 + [(True, False), (False, True)]
    assert not result.coarse.data[3:].any()
    np.testing.assert_array_equal(result.coarse.data[:3], np.stack(expected))


@pytest.mark.parametrize("k", [0, 1])
def test_segment_case_gate_empties_only_the_healthy_slice(diseased_cases, k):
    case = diseased_cases[0]
    ungated = segment.segment_case(case)
    gate = ["diseased"] * case.nz
    gate[k] = "healthy"
    gated = segment.segment_case(case, gate=gate)
    assert ungated.final.data[k].any()  # the gate has something to remove
    assert [o.gated_out for o in gated.outcomes] == [i == k for i in range(case.nz)]
    for name in ("coarse", "hyper", "mvo", "final"):
        got, ref = getattr(gated, name).data, getattr(ungated, name).data
        assert not got[k].any()
        others = np.arange(case.nz) != k
        np.testing.assert_array_equal(got[others], ref[others])


def test_segment_case_rejects_gate_of_wrong_length(diseased_cases):
    case = diseased_cases[0]
    with pytest.raises(DataError):
        segment.segment_case(case, gate=["diseased"] * (case.nz + 1))


@pytest.mark.parametrize("members", [1, 2, 4])
def test_ensemble_config_needs_odd_member_count_of_three_or_more(members):
    with pytest.raises(ConfigError):
        segment.EnsembleConfig(members=members)


def _with_scar(case, region):
    scar = np.zeros(case.volume.data.shape, dtype=bool)
    scar[region] = True
    return replace(case, case_id="odd", gt_scar=Mask(case.volume.spacing, scar), gt_mvo=None)


@pytest.mark.parametrize("region", [
    (0, 31, 47),  # one voxel off the stride-3 lattice: no scar patch
    (0,),         # whole slice: neither class has a patch
])
def test_sample_patches_raises_when_a_class_gets_no_patch(diseased_cases, region):
    with pytest.raises(EmptyClassError):
        segment.sample_training_patches(_with_scar(diseased_cases[0], region))


def test_training_centres_match_the_distance_transform_oracle(monkeypatch):
    # Every voxel holds its own flat index, so a patch's centre pixel says
    # where it was cut. Slice 0 holds a 7-px arc, which the radius-5 erosion
    # empties; slice 1 a disk whose core survives it.
    n = 96
    yy, xx = np.mgrid[:n, :n]
    r = np.hypot(yy - 48, xx - 48)
    gt = np.stack([(r >= 20) & (r < 27) & (yy < 48), r <= 14])
    vol = Volume((1.0, 1.0, 1.0), np.arange(gt.size, dtype=np.float64).reshape(gt.shape))
    empty = Mask(vol.spacing, np.zeros(gt.shape, dtype=bool))
    case = LabeledCase("ids", vol, empty, empty, empty, gt_scar=Mask(vol.spacing, gt))
    monkeypatch.setattr(ll, "balance_classes", lambda x, y, seed: (x, y))
    x, y = segment.sample_training_patches(case)

    radius = segment.TRAINING_BAND_RADIUS
    lattice = (yy % segment.PATCH_STRIDE == 0) & (xx % segment.PATCH_STRIDE == 0)
    want_ids, want_labels = [], []
    for k, g in enumerate(gt):
        depth = ndi.distance_transform_edt(g)
        assert (depth > radius).any() == (k == 1)
        healthy = ~g & (ndi.distance_transform_edt(~g) <= radius)
        scar = g & (depth <= radius) if (depth > radius).any() else g
        for centres, label in ((healthy, 0), (scar, 1)):
            ids = k * n * n + np.flatnonzero(centres & lattice)
            want_ids.append(ids)
            want_labels.append(np.full(len(ids), label))
    half = segment.PATCH_SIZE // 2
    np.testing.assert_array_equal(x[:, half, half, 0], np.concatenate(want_ids))
    np.testing.assert_array_equal(y, np.concatenate(want_labels))


def test_ensemble_training_skips_case_whose_lattice_misses_a_class(diseased_cases):
    normal = diseased_cases[0]
    cfg = segment.EnsembleConfig(
        members=3, widths=(2,), fc=4,
        train=ll.TrainConfig(batch_size=16, epochs=1, seed=0), max_patches_per_class=20,
    )
    speck = _with_scar(normal, (0, 31, 47))
    no_gt = replace(normal, case_id="no-gt", gt_scar=None, gt_mvo=None)
    out = segment.train_patch_ensemble([normal, speck], cfg, seed=3)
    ref = segment.train_patch_ensemble([normal, no_gt], cfg, seed=3)
    np.testing.assert_array_equal(out.mean_patch, ref.mean_patch)
    assert vio.encode_model(out.members) == vio.encode_model(ref.members)
    with pytest.raises(NoGroundTruth):
        segment.train_patch_ensemble([speck], cfg, seed=3)


# --- model files ---

def test_ensemble_file_roundtrip_votes_bit_identically(tmp_path, tiny_ensemble, diseased_cases):
    path = str(tmp_path / "ens.json")
    tiny_ensemble.save(path)
    back = segment.PatchEnsemble.load(path)
    assert vio.encode_model(back) == vio.encode_model(tiny_ensemble)
    img, ys, xs = _band(diseased_cases[4])
    vote = tiny_ensemble.vote(ys, xs, img)
    assert 0 < vote.sum() < len(vote)
    np.testing.assert_array_equal(back.vote(ys, xs, img), vote)


def test_ensemble_file_stores_its_mean_as_a_float(tmp_path, tiny_ensemble):
    path = str(tmp_path / "ens.json")
    tiny_ensemble.save(path)
    assert type(vio.read_json(path)["mean_patch"]) is float
    back = segment.PatchEnsemble.load(path)
    assert type(back.mean_patch) is float and back.mean_patch == tiny_ensemble.mean_patch


@pytest.mark.parametrize("mean", NOT_ONE_FINITE_MEAN[:2], ids=NOT_ONE_FINITE_MEAN_IDS[:2])
def test_ensemble_load_rejects_a_mean_that_is_not_one_finite_scalar(tmp_path, tiny_ensemble, mean):
    # a file saved with a per-pixel mean patch, before ensembles were centred
    # on a scalar, stores the mean as an array
    def edit(doc):
        doc["mean_patch"] = vio.encode_array(mean) if np.ndim(mean) else float(mean)

    with pytest.raises(ConfigError):
        segment.PatchEnsemble.load(_save_edited(tmp_path, tiny_ensemble, edit))


def test_ensemble_load_rejects_a_detection_file():
    path = os.path.join(os.path.dirname(__file__), "data", "detection_model.json")
    with pytest.raises(FormatError):
        segment.PatchEnsemble.load(path)


def _save_edited(tmp_path, ensemble, edit):
    doc = vio.encode_model(ensemble)
    edit(doc)
    path = str(tmp_path / "edited.json")
    vio.write_json(doc, path)
    return path


@pytest.mark.parametrize("edit", [
    lambda doc: doc.update(kind="mystery"),
    lambda doc: doc["members"][0].update(kind="mystery"),
], ids=["top level", "member"])
def test_ensemble_load_rejects_an_unknown_kind(tmp_path, tiny_ensemble, edit):
    with pytest.raises(FormatError):
        segment.PatchEnsemble.load(_save_edited(tmp_path, tiny_ensemble, edit))


def test_ensemble_load_rejects_an_unknown_layer_tag(tmp_path, tiny_ensemble):
    def edit(doc):
        doc["members"][1]["layers"][1]["spec"][0] = "mystery"

    with pytest.raises(ShapeError):
        segment.PatchEnsemble.load(_save_edited(tmp_path, tiny_ensemble, edit))


@pytest.mark.parametrize("edit", [
    lambda doc: doc.update(mean_patch=vio.encode_array(np.zeros((48, 48)))),
    lambda doc: doc.update(patch_size=48, mean_patch=vio.encode_array(np.zeros((48, 48)))),
], ids=["mean patch", "members"])
def test_ensemble_load_rejects_a_mis_shaped_ensemble(tmp_path, tiny_ensemble, edit):
    with pytest.raises(ConfigError):
        segment.PatchEnsemble.load(_save_edited(tmp_path, tiny_ensemble, edit))
