import numpy as np

from miquant import baselines
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
