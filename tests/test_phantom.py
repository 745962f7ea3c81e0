import numpy as np
import pytest
from dataclasses import replace

from miquant import phantom
from miquant.errors import SpecError
from miquant.volcore import fill_holes_2d


def test_healthy_spec_has_empty_gt_and_healthy_labels():
    case = phantom.generate_case(phantom.PhantomSpec(scar=False), seed=1)
    assert case.gt_scar.count() == 0
    assert case.gt_mvo is None
    assert all(l == "healthy" for l in case.per_slice_labels)


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
    myo, endo, epi = case.myocardium.data, case.endocardium.data, case.epicardium.data
    assert not (myo & endo).any()
    np.testing.assert_array_equal(epi, myo | endo)
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
        assert (case.per_slice_labels[k] == "diseased") == case.gt_scar.data[k].any()


def test_spec_validation_errors():
    with pytest.raises(SpecError):
        phantom.generate_case(phantom.PhantomSpec(inner_radius_mm=30, outer_radius_mm=20), seed=0)
    with pytest.raises(SpecError):
        phantom.generate_case(phantom.PhantomSpec(scar=False, mvo=True), seed=0)
    with pytest.raises(SpecError):
        phantom.generate_case(phantom.PhantomSpec(scar=True, scar_transmural=1.5), seed=0)
    with pytest.raises(SpecError):
        phantom.generate_case(phantom.PhantomSpec(scar=True, scar_mu=20.0), seed=0)


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
