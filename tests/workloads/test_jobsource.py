"""Job sources: the application source's memoized calibration."""

import pytest

from repro.workloads.opensys.jobsource import AppJobSource


@pytest.mark.parametrize(
    "source",
    [AppJobSource.uniform(), AppJobSource(weights=(("MVA", 1.0),))],
    ids=["uniform", "mva-only"],
)
def test_memoized_mean_work_equals_a_fresh_computation(source):
    fresh = AppJobSource.mean_work_s.__wrapped__(source)
    assert fresh > 0
    assert source.mean_work_s() == fresh
    assert source.mean_work_s() == fresh  # served from the memo


def test_equal_sources_share_one_calibration():
    AppJobSource.uniform().mean_work_s()
    hits = AppJobSource.mean_work_s.cache_info().hits
    # every full open-system cell builds its own, equal source
    AppJobSource.uniform().mean_work_s()
    assert AppJobSource.mean_work_s.cache_info().hits == hits + 1
