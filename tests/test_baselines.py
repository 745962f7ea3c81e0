from dataclasses import replace

import numpy as np
import pytest

from miquant import baselines
from miquant.errors import ConfigError
from miquant.volcore import Mask


def test_remote_outside_myocardium_falls_back_to_auto(diseased_cases):
    case = diseased_cases[0]
    corner = np.zeros(case.volume.data.shape, dtype=bool)
    corner[:, :4, :4] = True
    assert not (corner & case.myocardium.data).any()
    out = baselines.run_baselines(case, remote=Mask(case.volume.spacing, corner))
    auto = baselines.run_baselines(case)
    for method in baselines.BASELINE_METHODS:
        np.testing.assert_array_equal(out[method].data, auto[method].data)


def test_nsd_needs_n_of_one_or_more(diseased_cases):
    case = diseased_cases[0]
    img, myo = case.volume.data[0], case.myocardium.data[0]
    remote = baselines.auto_remote_region(img, myo, case.endocardium.data[0])
    with pytest.raises(ConfigError):
        baselines.nsd_segment(img, myo, remote, 0)


@pytest.mark.parametrize("method", ["7-sd", "kmeans"])
def test_run_baselines_rejects_unknown_method(diseased_cases, method):
    with pytest.raises(ConfigError):
        baselines.run_baselines(diseased_cases[0], methods=("otsu", method))


def _per_slice(img, myo, endo):
    """Each method's mask on one slice, from its own segment function."""
    remote = baselines.auto_remote_region(img, myo, endo)
    masks = {f"{n}-sd": baselines.nsd_segment(img, myo, remote, n) for n in range(1, 7)}
    masks["otsu"] = baselines.otsu_segment(img, myo)
    masks["fwhm"] = baselines.fwhm_segment(img, myo)
    masks["gmm"] = baselines.gmm_segment(img, myo, baselines.gmm_fit(img[myo]))
    return masks


def test_run_baselines_equals_each_method_slice_by_slice(diseased_cases):
    case = diseased_cases[1]
    shape, myo = case.volume.data.shape, case.myocardium.data
    out = baselines.run_baselines(case)
    assert sorted(out) == sorted(baselines.BASELINE_METHODS)
    for method, mask in out.items():
        assert mask.data.shape == shape
        assert mask.spacing == case.volume.spacing
        assert mask.data.any()
        assert not (mask.data & ~myo).any()
    for k in range(case.nz):
        expected = _per_slice(case.volume.data[k], myo[k], case.endocardium.data[k])
        for method in baselines.BASELINE_METHODS:
            np.testing.assert_array_equal(out[method].data[k], expected[method])
    for n in range(1, 6):
        assert not (out[f"{n + 1}-sd"].data & ~out[f"{n}-sd"].data).any()
    assert out["1-sd"].count() > out["6-sd"].count()


def test_run_baselines_gives_nine_empty_masks_on_a_slice_without_myocardium(diseased_cases):
    case = diseased_cases[1]
    myo = case.myocardium.data.copy()
    myo[0] = False
    cut = replace(case, myocardium=Mask(case.volume.spacing, myo))
    out = baselines.run_baselines(cut)
    full = baselines.run_baselines(case)
    for method in baselines.BASELINE_METHODS:
        assert full[method].data[0].any()
        assert not out[method].data[0].any()
        np.testing.assert_array_equal(out[method].data[1:], full[method].data[1:])
