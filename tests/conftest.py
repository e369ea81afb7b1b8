"""Shared pytest configuration: a calm hypothesis profile, and a guard on
the cyclic garbage collector's state.

Property tests here explore combinatorial structure, not performance, so
the per-example deadline is disabled (schedule builds can be slow on the
odd large draw) and the example budget is kept moderate.

A simulation run leaves the process-wide cyclic collector alone, and tests
switch it off and on themselves; a test that leaves the collector switched
otherwise than it found it fails, so a leaked switch cannot pass the suite
silently.
"""

import gc

import pytest
from hypothesis import HealthCheck, settings

settings.register_profile(
    "coopcache",
    deadline=None,
    max_examples=50,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("coopcache")


@pytest.fixture(autouse=True)
def _collector_state_is_kept():
    before = gc.isenabled()
    yield
    if gc.isenabled() != before:
        (gc.enable if before else gc.disable)()  # spare the next test
        pytest.fail(
            "the test left the cyclic garbage collector "
            + ("disabled" if before else "enabled")
        )
