"""Tests for the three RIBs."""

import ipaddress

from repro.bgp.attributes import AsPath, RouteAttributes
from repro.bgp.messages import Announcement
from repro.bgp.policy import Relationship
from repro.bgp.rib import AdjRibIn, AdjRibOut, LocRib, RibEntry
from tests.oracles.rib import flatten

P1 = ipaddress.ip_network("2001:db8:1::/48")
P2 = ipaddress.ip_network("2001:db8:2::/48")


def entry(prefix=P1, neighbor="n1", path=(1,)):
    return RibEntry(
        prefix=prefix,
        attributes=RouteAttributes(as_path=AsPath(tuple(path))),
        neighbor=neighbor,
        relationship=Relationship.PROVIDER,
    )


class TestAdjRibIn:
    def test_upsert_reports_change(self):
        rib = AdjRibIn()
        assert rib.upsert(entry())
        assert not rib.upsert(entry())  # identical
        assert rib.upsert(entry(path=(1, 2)))  # changed attributes

    def test_candidates_across_neighbors(self):
        rib = AdjRibIn()
        rib.upsert(entry(neighbor="a"))
        rib.upsert(entry(neighbor="b", path=(2,)))
        rib.upsert(entry(prefix=P2, neighbor="a"))
        assert len(rib.candidates(P1)) == 2
        assert len(rib.candidates(P2)) == 1

    def test_candidates_ordered_by_neighbor_name(self):
        rib = AdjRibIn()
        for name in ("n2", "n10", "B", "a"):
            rib.upsert(entry(neighbor=name))
        assert [e.neighbor for e in rib.candidates(P1)] == ["B", "a", "n10", "n2"]

    def test_mixed_address_families_from_one_neighbor(self):
        v4 = ipaddress.ip_network("192.0.2.0/24")
        rib = AdjRibIn()
        rib.upsert(entry(neighbor="a"))
        rib.upsert(entry(prefix=v4, neighbor="a"))
        assert [e.prefix for e in rib.candidates(v4)] == [v4]
        assert rib.prefixes() == {P1, v4}

    def test_restore_rebuilds_index(self):
        rib = AdjRibIn()
        rib.upsert(entry(neighbor="a"))
        state = rib.snapshot()
        rib.upsert(entry(neighbor="b"))
        rib.remove("a", P1)
        rib.restore(state)
        assert [e.neighbor for e in rib.candidates(P1)] == ["a"]
        rib.upsert(entry(prefix=P2, neighbor="a"))
        assert P2 not in {p for (_, p) in flatten(state)}  # not aliased

    def test_remove(self):
        rib = AdjRibIn()
        rib.upsert(entry())
        assert rib.remove("n1", P1)
        assert not rib.remove("n1", P1)
        assert rib.candidates(P1) == []

    def test_remove_neighbor_flushes_session(self):
        rib = AdjRibIn()
        rib.upsert(entry(neighbor="a"))
        rib.upsert(entry(prefix=P2, neighbor="a"))
        rib.upsert(entry(neighbor="b"))
        assert rib.remove_neighbor("a") == 2
        assert len(rib) == 1

    def test_prefixes_from(self):
        rib = AdjRibIn()
        rib.upsert(entry(neighbor="a"))
        rib.upsert(entry(prefix=P2, neighbor="b"))
        assert rib.prefixes_from("a") == {P1}
        assert rib.prefixes() == {P1, P2}


class TestLocRib:
    def test_set_best_change_detection(self):
        rib = LocRib()
        assert rib.set_best(P1, entry())
        assert not rib.set_best(P1, entry())
        assert rib.set_best(P1, entry(path=(9,)))

    def test_clear_best(self):
        rib = LocRib()
        rib.set_best(P1, entry())
        assert rib.set_best(P1, None)
        assert not rib.set_best(P1, None)
        assert rib.best(P1) is None

    def test_routes_snapshot(self):
        rib = LocRib()
        rib.set_best(P1, entry())
        snapshot = rib.routes()
        rib.set_best(P2, entry(prefix=P2))
        assert P2 not in snapshot


class TestAdjRibOut:
    def test_record_and_diff(self):
        rib = AdjRibOut()
        ann = Announcement(prefix=P1, attributes=RouteAttributes())
        assert rib.last_sent("n", P1) is None
        rib.record("n", ann)
        assert rib.last_sent("n", P1) == ann
        assert rib.prefixes_to("n") == {P1}

    def test_forget(self):
        rib = AdjRibOut()
        rib.record("n", Announcement(prefix=P1, attributes=RouteAttributes()))
        rib.forget("n", P1)
        assert rib.last_sent("n", P1) is None
        rib.forget("n", P1)  # idempotent
