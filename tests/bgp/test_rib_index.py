"""Stateful check of the per-prefix Adj-RIB-In against the flat-table oracle.

Random sequences of upserts, removals, session teardowns, snapshots and
restores (including restores of snapshots taken before later mutations)
run on both implementations; after every step each read must agree,
and every snapshot must flatten to exactly the oracle's.
"""

import ipaddress

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    Bundle,
    RuleBasedStateMachine,
    invariant,
    rule,
)

from repro.bgp.attributes import AsPath, RouteAttributes
from repro.bgp.policy import Relationship
from repro.bgp.rib import AdjRibIn, RibEntry
from tests.oracles.rib import FlatAdjRibIn, flatten

# Names whose string order differs from their "natural" order, so a
# wrong sort key would show.
NEIGHBORS = ("n10", "n2", "B", "a")
PREFIXES = tuple(
    ipaddress.ip_network(p)
    for p in (
        "10.0.0.0/8",
        "10.0.0.0/16",
        "192.0.2.0/24",
        "2001:db8::/32",
        "2001:db8:1::/48",
        "2001:db8:10::/48",
    )
)

neighbors = st.sampled_from(NEIGHBORS)
prefixes = st.sampled_from(PREFIXES)
entries = st.builds(
    lambda prefix, neighbor, path, rel: RibEntry(
        prefix=prefix,
        attributes=RouteAttributes(as_path=AsPath(path)),
        neighbor=neighbor,
        relationship=rel,
    ),
    prefixes,
    neighbors,
    st.sampled_from(((1,), (1, 2), (3, 2, 1))),
    st.sampled_from((Relationship.CUSTOMER, Relationship.PROVIDER)),
)


class AdjRibInMachine(RuleBasedStateMachine):
    snapshots = Bundle("snapshots")

    def __init__(self) -> None:
        super().__init__()
        self.rib = AdjRibIn()
        self.oracle = FlatAdjRibIn()

    @rule(entry=entries)
    def upsert(self, entry):
        assert self.rib.upsert(entry) == self.oracle.upsert(entry)

    @rule(neighbor=neighbors, prefix=prefixes)
    def remove(self, neighbor, prefix):
        assert self.rib.remove(neighbor, prefix) == self.oracle.remove(
            neighbor, prefix
        )

    @rule(neighbor=neighbors)
    def remove_neighbor(self, neighbor):
        assert self.rib.remove_neighbor(neighbor) == self.oracle.remove_neighbor(
            neighbor
        )

    @rule(target=snapshots)
    def snapshot(self):
        state, expected = self.rib.snapshot(), self.oracle.snapshot()
        assert flatten(state) == expected
        return state, expected

    @rule(pair=snapshots)
    def restore(self, pair):
        state, expected = pair
        self.rib.restore(state)
        self.oracle.restore(expected)

    @invariant()
    def reads_agree(self):
        assert len(self.rib) == len(self.oracle)
        assert self.rib.prefixes() == self.oracle.prefixes()
        for prefix in PREFIXES:
            assert self.rib.candidates(prefix) == self.oracle.candidates(prefix)
        for neighbor in NEIGHBORS:
            assert self.rib.prefixes_from(neighbor) == self.oracle.prefixes_from(
                neighbor
            )
            for prefix in PREFIXES:
                assert self.rib.get(neighbor, prefix) == self.oracle.get(
                    neighbor, prefix
                )


AdjRibInMachine.TestCase.settings = settings(
    max_examples=150, stateful_step_count=40, deadline=None
)
TestAdjRibInAgainstOracle = AdjRibInMachine.TestCase
