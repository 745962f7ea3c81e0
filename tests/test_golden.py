"""Golden phantom test: the paper method and the nine baselines end to end.

A seeded six-case corpus (two MVO, two scar without MVO, two healthy cases
of 96x96x3) runs through ``preprocess_case``, ``segment_case`` without an
ensemble, ``run_baselines`` and ``case_row``. The per-method mean Dice and
mean Hausdorff distance were measured once and are pinned to 1e-9: a change
that moves any mask of any method moves them. Do not re-measure them to make
a change pass; a change that is meant to move them says so and why.

The refined golden runs ``segment_case`` with the session's ``tiny_ensemble``,
trained in the test session on the first four ``diseased_cases``, on the two
held-out ones. It pins each case's final voxel count, Dice, Hausdorff
distance and the final voxels more than 5 px (in-slice) from the ground
truth, so a change to the refine band, the training band, the patch stride or
training's input centring moves it.
"""
import numpy as np
import pytest
from scipy import ndimage as ndi

from miquant import baselines, metrics, phantom, segment
from miquant.volcore import Mask

CORPUS = phantom.CorpusSpec(n_cases=6, diseased_fraction=4 / 6, mvo_fraction=0.5,
                            base=phantom.PhantomSpec(dims=(96, 96, 3)), seed=1901)

# method: (mean Dice % over the six cases, mean Hausdorff mm over the four
# diseased cases; a healthy case's empty ground truth has none)
GOLDEN = {
    "paper": (58.0783676645618, 26.238034108603184),
    "1-sd": (48.49293730478191, 34.41206246711794),
    "2-sd": (54.05944663293993, 29.27535055126503),
    "3-sd": (57.267805899492394, 27.88756734317524),
    "4-sd": (59.94672604689409, 27.516468173944503),
    "5-sd": (61.630029031673246, 23.83565380138291),
    "6-sd": (61.6838441585447, 17.293261795215443),
    "otsu": (61.95685664999446, 5.196920566479578),
    "fwhm": (59.82517912257771, 3.0017347735824966),
    "gmm": (48.22485996556918, 34.48336443481259),
}


@pytest.fixture(scope="module")
def golden_rows(golden_cases):
    rows = []
    for case in golden_cases:
        seg = segment.segment_case(case)
        masks = dict(baselines.run_baselines(case), paper=seg.final)
        gt = case.gt_scar
        if case.gt_mvo is not None:
            gt = Mask(case.volume.spacing, gt.data | case.gt_mvo.data)
        for method in GOLDEN:
            rows.append(metrics.case_row(case.case_id, method, masks[method], gt,
                                         case.myocardium, case.gt_mvo))
    return rows


def test_golden_corpus_holds_mvo_scar_and_healthy_cases():
    cases = phantom.generate_corpus(CORPUS)
    assert [c.gt_mvo is not None and c.gt_mvo.count() > 0 for c in cases] == [True] * 2 + [False] * 4
    assert [c.gt_scar.count() > 0 for c in cases] == [True] * 4 + [False] * 2


@pytest.mark.parametrize("method", list(GOLDEN))
def test_golden_dice_and_hausdorff_per_method(golden_rows, method):
    rows = [r for r in golden_rows if r.method == method]
    hd = [r.hausdorff_mm for r in rows if r.hausdorff_mm is not None]
    assert len(rows) == 6 and len(hd) == 4
    dice_pct, hd_mm = GOLDEN[method]
    assert np.mean([r.dice_pct for r in rows]) == pytest.approx(dice_pct, rel=0, abs=1e-9)
    assert np.mean(hd) == pytest.approx(hd_mm, rel=0, abs=1e-9)


def test_golden_paper_method_finds_mvo_on_the_mvo_cases(golden_rows):
    sens = [r.mvo_sensitivity for r in golden_rows
            if r.method == "paper" and r.mvo_sensitivity is not None]
    assert len(sens) == 2
    assert all(s > 0 for s in sens)


# case: (final voxels, Dice %, Hausdorff mm, final voxels > 5 px from GT)
GOLDEN_REFINED = {
    "case_004": (256, 87.34177215189874, 20.155644370746373, 36),
    "case_005": (468, 91.95402298850574, 3.5355339059327378, 0),
}


def test_golden_refined_on_the_held_out_cases(diseased_cases, tiny_ensemble):
    for case in diseased_cases[4:]:
        final = segment.segment_case(case, ensemble=tiny_ensemble).final
        gt = case.gt_scar  # no MVO in these two
        row = metrics.case_row(case.case_id, "paper", final, gt, case.myocardium, case.gt_mvo)
        far = sum(int((ndi.distance_transform_edt(~g)[f] > 5).sum())
                  for g, f in zip(gt.data, final.data))
        count, dice_pct, hd_mm, far_voxels = GOLDEN_REFINED[case.case_id]
        assert case.gt_mvo is None and gt.data.any(axis=(1, 2)).all()
        assert (final.count(), far) == (count, far_voxels)
        assert row.dice_pct == pytest.approx(dice_pct, rel=0, abs=1e-9)
        assert row.hausdorff_mm == pytest.approx(hd_mm, rel=0, abs=1e-9)
