import numpy as np
import pytest

import oracles
from miquant import phantom
from miquant.errors import SpecError
from miquant.volcore import fill_holes_2d


def test_healthy_spec_has_empty_gt_and_healthy_labels():
    case = phantom.generate_case(phantom.PhantomSpec(scar=False), seed=1)
    assert case.gt_scar.count() == 0
    assert case.gt_mvo is None
    assert all(case.slice_label(k) == "healthy" for k in range(case.nz))


def test_full_ring_scar_degenerates_to_myocardium():
    spec = phantom.PhantomSpec(scar=True, scar_extent_deg=360.0, scar_transmural=1.0)
    case = phantom.generate_case(spec, seed=2)
    np.testing.assert_array_equal(case.gt_scar.data, case.myocardium.data)


def test_scar_brighter_than_remote_myocardium_across_seeds():
    spec = phantom.PhantomSpec(scar=True)
    for seed in range(10):
        case = phantom.generate_case(spec, seed=seed)
        img = case.volume.data
        scar = case.gt_scar.data
        remote = case.myocardium.data & ~scar
        assert img[scar].mean() > img[remote].mean()


def test_same_spec_and_seed_is_bit_identical():
    spec = phantom.PhantomSpec(scar=True, mvo=True)
    a = phantom.generate_case(spec, seed=11)
    b = phantom.generate_case(spec, seed=11)
    np.testing.assert_array_equal(a.volume.data, b.volume.data)
    np.testing.assert_array_equal(a.gt_scar.data, b.gt_scar.data)
    np.testing.assert_array_equal(a.gt_mvo.data, b.gt_mvo.data)
    c = phantom.generate_case(spec, seed=12)
    assert not np.array_equal(a.volume.data, c.volume.data)


def test_geometry_invariants():
    spec = phantom.PhantomSpec(scar=True, mvo=True)
    case = phantom.generate_case(spec, seed=3)
    myo, endo = case.myocardium.data, case.endocardium.data
    assert not (myo & endo).any()
    assert np.all(case.gt_scar.data <= myo)
    assert np.all(case.gt_mvo.data <= myo)
    assert not (case.gt_scar.data & case.gt_mvo.data).any()


def test_mvo_enclosed_by_scar_and_endocardium():
    spec = phantom.PhantomSpec(scar=True, mvo=True)
    for seed in (5, 6, 7):
        case = phantom.generate_case(spec, seed=seed)
        assert case.gt_mvo.count() > 0
        for k in range(case.nz):
            mvo_k = case.gt_mvo.data[k]
            if not mvo_k.any():
                continue
            union = case.endocardium.data[k] | case.gt_scar.data[k]
            filled = fill_holes_2d(union)
            assert np.all(mvo_k <= (filled & ~union))


def test_diseased_labels_follow_gt():
    spec = phantom.PhantomSpec(scar=True)
    case = phantom.generate_case(spec, seed=4)
    for k in range(case.nz):
        assert (case.slice_label(k) == "diseased") == case.gt_scar.data[k].any()


def test_spec_validation_errors():
    with pytest.raises(SpecError):
        phantom.generate_case(phantom.PhantomSpec(inner_radius_mm=30, outer_radius_mm=20), seed=0)
    with pytest.raises(SpecError):
        phantom.generate_case(phantom.PhantomSpec(scar=False, mvo=True), seed=0)
    with pytest.raises(SpecError):
        phantom.generate_case(phantom.PhantomSpec(scar=True, scar_transmural=1.5), seed=0)
    with pytest.raises(SpecError):
        phantom.generate_case(phantom.PhantomSpec(scar=True, scar_mu=20.0), seed=0)


@pytest.mark.filterwarnings("error")  # rejected before any arithmetic warns
@pytest.mark.parametrize("fields", [
    {"scar": True, "scar_extent_deg": 0.0},
    {"dims": (-1, 96, 2)},
    {"dims": (96.5, 96, 2)},
    {"dims": (0, 96, 2)},
    {"healthy_sigma": -1.0},
    {"scar_sigma": -1.0},
    {"bloodpool_sigma": -1.0},
    {"mvo_sigma": -1.0},
    {"background_sigma": -1.0},
    {"bloodpool_mu": np.nan},
    {"center_jitter_mm": -1.0},
    {"center_jitter_mm": np.nan},
    {"blur_sigma_px": np.inf},
    {"blur_sigma_px": np.nan},
    {"blur_sigma_px": -1.0},
    {"inner_radius_mm": np.nan},
    {"outer_radius_mm": np.inf},
    {"scar": True, "scar_start_deg": np.nan},
    {"spacing": (0.0, 1.25, 8.0)},
    {"spacing": (1.25, -1.0, 8.0)},
    {"spacing": (1.25, 1.25, np.nan)},
], ids=["no scar extent", "negative dim", "fractional dim", "zero dim",
        "negative healthy sigma", "negative scar sigma", "negative pool sigma",
        "negative MVO sigma", "negative background sigma", "NaN pool mean",
        "negative jitter", "NaN jitter", "infinite blur", "NaN blur", "negative blur",
        "NaN inner radius", "infinite outer radius", "NaN scar start",
        "zero spacing", "negative spacing", "NaN spacing"])
def test_spec_out_of_range_is_a_spec_error(fields):
    with pytest.raises(SpecError):
        phantom.generate_case(phantom.PhantomSpec(**fields), seed=0)


@pytest.mark.parametrize("seed", [None, True, -1, 2.5, "x"])
def test_a_seed_that_is_not_an_int_from_0_is_a_spec_error(seed, monkeypatch):
    # unchecked, None draws a new phantom from OS entropy and True passes as 1
    monkeypatch.setattr(phantom.np.random, "default_rng", None)  # no draw may happen
    with pytest.raises(SpecError):
        phantom.generate_case(phantom.PhantomSpec(dims=(24, 24, 1)), seed=seed)


@pytest.mark.parametrize("fields", [
    {"n_cases": 2.5},
    {"n_cases": 0},
    {"diseased_fraction": np.nan},
    {"diseased_fraction": 2.0},
    {"mvo_fraction": np.inf},
    {"mvo_fraction": -1.0},
    {"seed": -1},
], ids=["fractional count", "no cases", "NaN diseased fraction",
        "diseased fraction above 1", "infinite MVO fraction", "negative MVO fraction",
        "negative seed"])
def test_corpus_spec_out_of_range_is_a_spec_error(fields):
    corpus = phantom.CorpusSpec(**{"n_cases": 1, "base": phantom.PhantomSpec(dims=(24, 24, 1)),
                                   **fields})
    with pytest.raises(SpecError):
        phantom.generate_corpus(corpus)


@pytest.mark.parametrize("fields", [
    {},
    {"scar": True},
    {"scar": True, "mvo": True},
    {"scar": True, "mvo": True, "spacing": (1.5625, 1.5625, 8.0)},
    {"scar": True, "mvo": True, "dims": (72, 56, 2), "spacing": (1.1, 1.6, 8.0)},
    {"scar": True, "mvo": True, "dims": (24, 24, 2)},
    {"scar": True, "scar_extent_deg": 360.0, "scar_transmural": 1.0},
    {"scar": True, "mvo": True, "blur_sigma_px": 0.0},
    {"scar": True, "mvo": True, "center_jitter_mm": 0.0},
], ids=["healthy", "scar", "scar and MVO", "coarse spacing", "non-square, sx != sy",
        "heart cut by the border", "full transmural ring", "no blur", "no jitter"])
def test_generate_case_matches_the_whole_slice_generator(fields):
    spec = phantom.PhantomSpec(**{"dims": (64, 64, 2), **fields})
    for seed in (0, 1, 2):
        case = phantom.generate_case(spec, seed=seed)
        expected = oracles.whole_slice_phantom(spec, seed=seed)
        for name in ("volume", "myocardium", "endocardium", "gt_scar", "gt_mvo"):
            got, want = getattr(case, name), getattr(expected, name)
            assert (got is None) == (want is None), name
            if got is not None:
                np.testing.assert_array_equal(got.data, want.data, err_msg=name)


def test_corpus_mix_and_determinism():
    corpus = phantom.CorpusSpec(n_cases=8, diseased_fraction=0.5, mvo_fraction=0.5, seed=9)
    cases = phantom.generate_corpus(corpus)
    assert len(cases) == 8
    n_diseased = sum(c.gt_scar.count() > 0 for c in cases)
    n_mvo = sum(c.gt_mvo is not None for c in cases)
    assert n_diseased == 4
    assert n_mvo == 2
    again = phantom.generate_corpus(corpus)
    for a, b in zip(cases, again):
        np.testing.assert_array_equal(a.volume.data, b.volume.data)
    assert len({c.case_id for c in cases}) == 8
