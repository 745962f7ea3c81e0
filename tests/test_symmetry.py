"""Metamorphic tests on the golden corpus: a transform of the input
transforms every mask the same way (Chen et al. 2018, ACM Comput Surv
51(1):4), compared voxel for voxel.

- A left-right flip, and reversed slice order, of a preprocessed case carry
  through every stage mask of ``segment_case`` and all nine baselines.
- A 180 deg rotation of a preprocessed case carries through all nine
  baselines.
- Reversed slice order of the raw case carries through preprocessing.
- A positive affine map ``a * x + b`` of the raw volume leaves every mask as
  it is.

Masks are compared, not intensities: under these transforms preprocessing
moves intensities by rounding only.
"""
import numpy as np
import pytest

from miquant import baselines, phantom, preprocess, segment
from miquant.volcore import LabeledCase, Mask, Volume
from test_golden import CORPUS

STAGES = ("coarse", "hyper", "mvo", "final")
TRANSFORMS = {
    "left-right flip": lambda a: a[:, :, ::-1].copy(),
    "reversed slice order": lambda a: a[::-1].copy(),
}
AFFINE = [(2.0, 0.0), (0.5, 10.0), (3.0, -5.0), (1.0, 100.0)]


def _masks(case):
    """Every stage mask of ``segment_case`` and each baseline's mask."""
    seg = segment.segment_case(case)
    masks = {stage: getattr(seg, stage).data for stage in STAGES}
    masks.update((m, mask.data) for m, mask in baselines.run_baselines(case).items())
    return masks


def _map_case(case, f):
    """The case with f applied to its volume and every mask, without the
    per-slice labels, which no mask reads."""
    def m(mask):
        return None if mask is None else Mask(mask.spacing, f(mask.data))

    return LabeledCase(case.case_id, Volume(case.volume.spacing, f(case.volume.data)),
                       m(case.myocardium), m(case.endocardium), m(case.gt_scar), m(case.gt_mvo))


def _assert_same_masks(got, want):
    assert sorted(got) == sorted(STAGES + baselines.BASELINE_METHODS)
    for name, mask in want.items():
        diff = int(np.count_nonzero(got[name] != mask))
        assert diff == 0, f"{name}: {diff} voxels differ"


@pytest.fixture(scope="module")
def raw_cases():
    return phantom.generate_corpus(CORPUS)


@pytest.fixture(scope="module")
def golden_masks(golden_cases):
    return [_masks(c) for c in golden_cases]


def test_the_golden_masks_are_not_all_empty(golden_masks):
    for name in STAGES + baselines.BASELINE_METHODS:
        assert any(m[name].any() for m in golden_masks), name


@pytest.mark.parametrize("transform", list(TRANSFORMS))
def test_every_mask_commutes_with_the_transform_of_the_preprocessed_case(
        golden_cases, golden_masks, transform):
    f = TRANSFORMS[transform]
    for case, masks in zip(golden_cases, golden_masks):
        got = _masks(_map_case(case, f))
        _assert_same_masks(got, {name: f(mask) for name, mask in masks.items()})


def test_every_baseline_mask_commutes_with_a_180_deg_rotation_of_the_preprocessed_case(
        golden_cases, golden_masks):
    # segment_case's stages are left out: BAR_LENGTH = 34 is even, and an
    # even bar puts its extra pixel on its positive side, so a 180 deg
    # rotation maps no bar onto itself (23 stage voxels differ on this corpus)
    def f(a):
        return a[:, ::-1, ::-1].copy()

    for case, masks in zip(golden_cases, golden_masks):
        got = baselines.run_baselines(_map_case(case, f))
        assert sorted(got) == sorted(baselines.BASELINE_METHODS)
        for name, mask in got.items():
            diff = int(np.count_nonzero(mask.data != f(masks[name])))
            assert diff == 0, f"{name}: {diff} voxels differ"


def test_reversed_slice_order_of_the_raw_case_carries_through_preprocessing(
        raw_cases, golden_masks):
    f = TRANSFORMS["reversed slice order"]
    for raw, masks in zip(raw_cases, golden_masks):
        got = _masks(preprocess.preprocess_case(_map_case(raw, f)))
        _assert_same_masks(got, {name: f(mask) for name, mask in masks.items()})


@pytest.mark.parametrize("a, b", AFFINE)
def test_every_mask_is_unchanged_by_a_positive_affine_map_of_the_raw_volume(
        raw_cases, golden_masks, a, b):
    for raw, masks in zip(raw_cases, golden_masks):
        vol = Volume(raw.volume.spacing, a * raw.volume.data + b)
        case = LabeledCase(raw.case_id, vol, raw.myocardium, raw.endocardium, raw.gt_scar,
                           raw.gt_mvo)
        _assert_same_masks(_masks(preprocess.preprocess_case(case)), masks)
