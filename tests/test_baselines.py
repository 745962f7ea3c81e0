from dataclasses import replace

import numpy as np
import pytest

import oracles
from miquant import baselines
from miquant.errors import AlignmentError, ConfigError
from miquant.volcore import LabeledCase, Mask, Volume


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


def _per_slice(img, myo, endo, remote=None):
    """Each method's mask on one slice, from its own segment function; the
    n-SD reference is remote within the myocardium or, where that is empty,
    the whole-slice oracle's darkest sector."""
    if remote is None or not (remote & myo).any():
        remote = oracles.whole_slice_remote(img, myo, endo)
    masks = {f"{n}-sd": baselines.nsd_segment(img, myo, remote & myo, n) for n in range(1, 7)}
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


def _border_case():
    """Five slices whose ring of myocardium touches the top, bottom, left
    and right border, and lies inside the slice; each has a bright half."""
    rng = np.random.default_rng(8)
    shape = (5, 50, 56)
    yy, xx = np.mgrid[0 : shape[1], 0 : shape[2]]
    img = rng.uniform(0.0, 120.0, shape)
    myo = np.zeros(shape, dtype=bool)
    endo = np.zeros(shape, dtype=bool)
    for k, (cy, cx) in enumerate(((4, 28), (46, 28), (25, 3), (25, 52), (25, 28))):
        r = np.hypot(yy - cy, xx - cx)
        endo[k], myo[k] = r <= 7, (r > 7) & (r <= 14)
        img[k][myo[k] & (xx > cx + (yy - cy) // 2)] += 100.0
        img[k][endo[k]] = 200.0
    spacing = (1.25, 1.25, 8.0)
    return LabeledCase("border", Volume(spacing, img), Mask(spacing, myo),
                       Mask(spacing, endo), Mask(spacing, myo | endo))


@pytest.mark.parametrize("with_remote", [False, True], ids=["auto", "remote"])
def test_run_baselines_equals_each_method_on_a_myocardium_touching_each_border(with_remote):
    case = _border_case()
    remote = None
    if with_remote:  # inside the myocardium on every slice but the bottom one
        top = np.zeros(case.volume.data.shape, dtype=bool)
        top[:, :26] = True
        remote = Mask(case.volume.spacing, top)
    out = baselines.run_baselines(case, remote=remote)
    for k in range(case.nz):
        expected = _per_slice(case.volume.data[k], case.myocardium.data[k],
                              case.endocardium.data[k], None if remote is None else remote.data[k])
        for method in baselines.BASELINE_METHODS:
            np.testing.assert_array_equal(out[method].data[k], expected[method])


def test_auto_remote_region_equals_the_whole_slice_oracle(diseased_cases):
    cases = [_border_case()] + diseased_cases
    for case in cases:
        for img, myo, endo in zip(case.volume.data, case.myocardium.data, case.endocardium.data):
            remote = baselines.auto_remote_region(img, myo, endo)
            np.testing.assert_array_equal(remote, oracles.whole_slice_remote(img, myo, endo))
    img, myo = cases[0].volume.data[0], cases[0].myocardium.data[0]
    np.testing.assert_array_equal(baselines.auto_remote_region(img, myo, np.zeros_like(myo)),
                                  oracles.whole_slice_remote(img, myo, None))


def test_run_baselines_rejects_a_remote_mask_off_the_case_grid(diseased_cases):
    case = diseased_cases[0]
    nz, ny, nx = case.volume.data.shape
    wide = Mask(case.volume.spacing, np.ones((nz, ny, nx + 1), dtype=bool))
    coarse = Mask((2.5, 2.5, 8.0), np.ones((nz, ny, nx), dtype=bool))
    for remote in (wide, coarse):
        with pytest.raises(AlignmentError):
            baselines.run_baselines(case, remote=remote)
