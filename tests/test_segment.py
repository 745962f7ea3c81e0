import numpy as np
import pytest

from miquant import segment
from miquant.errors import DataError
from miquant.volcore import Mask


def test_refine_matches_voting_each_band_patch_alone(diseased_cases, tiny_ensemble):
    # a trained ensemble: its mean patch differs from pixel to pixel
    assert tiny_ensemble.mean_patch.std() > 0
    case = diseased_cases[4]  # not among the ensemble's training cases
    img, myo = case.volume.data[0], case.myocardium.data[0]
    coarse = segment.coarse_segment(img, myo)
    se = segment.make_disk_se(segment.BOUNDARY_RADIUS)
    core = segment.binary_erode(coarse, se) & coarse
    band = segment.binary_dilate(coarse, se) & ~core
    ys, xs = np.nonzero(band)
    alone = np.array([
        tiny_ensemble.vote(segment.extract_patch(img, y, x)[None, :, :, None])[0]
        for y, x in zip(ys.tolist(), xs.tolist())
    ])
    assert 0 < alone.sum() < len(alone)  # the vote decides, both ways
    expected = core.copy()
    expected[ys[alone], xs[alone]] = True
    expected &= myo

    out = segment.refine(img, coarse, tiny_ensemble, myo)
    np.testing.assert_array_equal(out, expected)
    assert not (out & ~myo).any()
    assert not (core & myo & ~out).any()


def test_vote_on_no_patches_is_empty(tiny_ensemble):
    votes = tiny_ensemble.vote(np.zeros((0, tiny_ensemble.patch_size, tiny_ensemble.patch_size, 1)))
    assert votes.dtype == bool
    assert votes.shape == (0,)


def test_segmentation_result_rejects_overlapping_hyper_and_mvo():
    spacing = (1.25, 1.25, 8.0)
    on = Mask(spacing, np.ones((1, 2, 2), dtype=bool))
    with pytest.raises(DataError):
        segment.SegmentationResult("c", coarse=on, hyper=on, mvo=on, final=on,
                                   scar_volume_cm3=0.0, pct_infarct=None)
