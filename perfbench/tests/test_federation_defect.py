"""A known defect the benchmark cannot measure around: federation N >= 11.

``LiveFederationScenario.path_delay_ms`` orders a pair key by string
comparison ("edge10" < "edge2"), but ``pair_distance_ms`` is keyed in
numeric member order, so establishing any federation of 11 or more
members raises ``KeyError: ('edge10', 'edge2')``.  That is why the
``federation`` workload runs at N=8.  The fix flips this test to a pass,
and its strictness then asks for the marker to be removed.
"""

import pytest


@pytest.mark.xfail(
    raises=KeyError, strict=True,
    reason="path_delay_ms orders edge names as strings (scenarios/topologies.py)",
)
def test_federation_of_eleven_members_establishes():
    from repro.federation.registry import FederationRegistry
    from repro.scenarios.topologies import build_live_federation

    registry = FederationRegistry(build_live_federation(11, seed=42))
    try:
        state = registry.establish()
    finally:
        registry.stop()
    assert state.pair_count == 11 * 10 // 2
