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
