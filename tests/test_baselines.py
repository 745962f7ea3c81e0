from dataclasses import replace

import numpy as np
import pytest

import oracles
from miquant import baselines, phantom, preprocess
from miquant.errors import (
    AlignmentError,
    ConfigError,
    DataError,
    DegenerateData,
    EmptyMask,
    EmptyRegion,
)
from miquant.volcore import LabeledCase, Mask, Volume, otsu_threshold


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


@pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
def test_nsd_rejects_a_non_finite_remote_intensity(value):
    img = np.arange(64.0).reshape(8, 8)
    myo = np.zeros((8, 8), dtype=bool)
    myo[2:6, 1:7] = True
    img[3, 3] = value
    with pytest.raises(DataError):
        baselines.nsd_segment(img, myo, myo, 2)


@pytest.mark.parametrize("shape", [(), (5,), (2, 5, 5)])
def test_remote_selection_takes_only_2d_slices(shape):
    mask = np.ones(shape, dtype=bool)
    with pytest.raises(DataError):
        baselines.auto_remote_region(np.ones(shape), mask, mask)


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


def test_fwhm_on_constant_myocardial_intensities_is_degenerate():
    myo = np.zeros((6, 6), dtype=bool)
    myo[1:5, 1:5] = True
    for level in (0.0, 37.0):
        with pytest.raises(DegenerateData):
            baselines.fwhm_segment(np.full(myo.shape, level), myo)


@pytest.mark.parametrize("method,error", [
    (lambda img, myo: baselines.auto_remote_region(img, myo, myo), EmptyMask),
    (lambda img, myo: baselines.nsd_segment(img, myo, myo, 2), EmptyRegion),
    (baselines.fwhm_segment, EmptyMask),
    (baselines.otsu_segment, EmptyMask),
], ids=["remote", "n-SD", "FWHM", "Otsu"])
def test_each_method_rejects_an_empty_myocardium(method, error):
    img = np.random.default_rng(0).uniform(0.0, 255.0, (6, 6))
    with pytest.raises(error):
        method(img, np.zeros((6, 6), dtype=bool))


@pytest.mark.parametrize("method", [
    lambda img, myo: baselines.auto_remote_region(img, myo, myo),
    lambda img, myo: baselines.nsd_segment(img, myo, myo, 2),
    baselines.fwhm_segment,
    baselines.otsu_segment,
], ids=["remote", "n-SD", "FWHM", "Otsu"])
def test_each_method_rejects_masks_of_another_shape(method):
    img = np.random.default_rng(0).uniform(0.0, 255.0, (8, 8))
    myo = np.zeros((5, 5), dtype=bool)
    myo[1:4, 1:4] = True
    with pytest.raises(AlignmentError):
        method(img, myo)


@pytest.mark.parametrize("values,threshold,match", [
    (np.linspace(0.0, 0.4, 20), None, "histogram"),  # every value rounds to level 0
    # Otsu leaves a level on each side of its split; a threshold above every
    # level stands in for one that does not
    (np.arange(20.0), 255, "empty class"),
], ids=["one level", "one side of the split empty"])
def test_gmm_fit_without_an_otsu_split_is_degenerate(monkeypatch, values, threshold, match):
    if threshold is not None:
        monkeypatch.setattr(baselines, "otsu_threshold", lambda x: threshold)
    with pytest.raises(DegenerateData, match=match):
        baselines.gmm_fit(values)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["NaN", "+inf", "-inf"])
@pytest.mark.parametrize("method", [
    lambda img, myo: otsu_threshold(img[myo]),
    baselines.otsu_segment,
    lambda img, myo: baselines.gmm_fit(img[myo]),
], ids=["otsu_threshold", "otsu_segment", "gmm_fit"])
def test_a_non_finite_intensity_is_a_data_error(method, bad):
    # a NaN used to reach np.bincount through the level cast, and an
    # infinity was binned at level 0 or 255
    img = np.random.default_rng(8).uniform(0.0, 255.0, (12, 12))
    img[5, 6] = bad
    with pytest.raises(DataError, match="finite"):
        method(img, np.ones(img.shape, dtype=bool))


def test_run_baselines_gives_nine_empty_masks_where_normalization_zeroed_the_slice():
    spec = phantom.PhantomSpec(dims=(96, 96, 3), scar=True, mvo=True)
    raw = phantom.generate_case(spec, seed=5, case_id="no-pool")
    endo = raw.endocardium.data.copy()
    endo[1] = False  # an empty blood pool: normalization fails on slice 1
    case = preprocess.preprocess_case(replace(raw, endocardium=Mask(raw.endocardium.spacing, endo)))
    myo = case.myocardium.data[1]
    assert myo.any()
    assert (case.volume.data[1] == 0.0).all()
    out = baselines.run_baselines(case)
    full = baselines.run_baselines(preprocess.preprocess_case(raw))
    for method in baselines.BASELINE_METHODS:
        assert not out[method].data[1].any(), method
        np.testing.assert_array_equal(out[method].data[[0, 2]], full[method].data[[0, 2]])
    assert any(full[method].data[1].any() for method in baselines.BASELINE_METHODS)


def _fields(gmm):
    return gmm.weights, gmm.means, gmm.sds, gmm.log_likelihood_trace, gmm.converged


def _expected(values):
    """oracles.one_sample_em's fit, or the error it raises."""
    try:
        return oracles.one_sample_em(values)
    except DegenerateData as exc:
        return type(exc), str(exc)


def _got(fit):
    return (type(fit), str(fit)) if isinstance(fit, DegenerateData) else _fields(fit)


def test_gmm_fit_all_equals_the_one_sample_em_on_every_golden_slice(golden_cases):
    samples = [case.volume.data[k][case.myocardium.data[k]]
               for case in golden_cases for k in range(case.nz)]
    middle = len(samples) // 2
    samples.insert(middle, np.arange(5.0))          # fewer than 10 values
    samples.insert(0, np.full(40, 3.0))             # constant
    expected = [_expected(v) for v in samples]
    assert sum(isinstance(e[0], type) for e in expected) == 2
    assert len({len(e[3]) for e in expected if len(e) == 5}) > 1  # converge at different passes
    fits = baselines.gmm_fit_all(samples)
    assert [_got(f) for f in fits] == expected
    for values, want in zip(samples, expected):
        if len(want) == 5:
            assert _fields(baselines.gmm_fit(values)) == want
        else:
            with pytest.raises(DegenerateData, match=want[1]):
                baselines.gmm_fit(values)


def test_gmm_fit_all_reports_fits_that_stop_at_the_iteration_cap(golden_cases, monkeypatch):
    monkeypatch.setattr(baselines, "MAX_EM_ITERATIONS", 3)
    case = golden_cases[0]
    samples = [case.volume.data[k][case.myocardium.data[k]] for k in range(case.nz)]
    expected = [oracles.one_sample_em(v) for v in samples]
    assert all(len(e[3]) == 3 and e[4] is False for e in expected)
    assert [_fields(f) for f in baselines.gmm_fit_all(samples)] == expected
    assert [_fields(baselines.gmm_fit(v)) for v in samples] == expected
