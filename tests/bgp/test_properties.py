"""Property-based tests on the BGP engine.

Gao–Rexford policies guarantee (a) convergence to a unique fixpoint and
(b) valley-free, loop-free best paths.  These properties are exactly what
the Tango discovery procedure leans on ("wait for BGP to propagate"), so
we check them over randomized three-tier topologies.
"""

import ipaddress

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bgp.attributes import AsPath, Community, LargeCommunity, RouteAttributes
from repro.bgp.network import BgpNetwork
from repro.bgp.policy import Relationship
from repro.bgp.router import BgpRouter
from repro.bgp.snapshot import (
    SnapshotCache,
    capture_snapshot,
    network_fingerprint,
    restore_snapshot,
)
from tests.oracles.snapshot import full_fingerprint

PREFIX = ipaddress.ip_network("2001:db8:77::/48")
#: Both address families, in an order that is neither their text nor
#: their numeric order.
PREFIXES = tuple(
    ipaddress.ip_network(p)
    for p in ("2001:db8:77::/48", "192.0.2.0/24", "2001:db8:10::/48", "10.0.0.0/8")
)


def topology_spec(tier1_count, mid_links, stub_links):
    """Three tiers: full-mesh tier-1 peering; mids buy transit from
    tier-1s; stubs buy transit from mids.  Link choices come from
    hypothesis-drawn index lists, so the shape is randomized but always
    a valid (acyclic-provider) business hierarchy.

    Returns ``(routers, sessions, stubs)``: ``(name, asn)`` pairs,
    ``(kind, a, b)`` sessions in creation order (``"peer"`` for a–b
    peering, ``"provider"`` for b selling transit to a), and the stub
    names.
    """
    tier1 = [f"t{i}" for i in range(tier1_count)]
    mids = [f"m{i}" for i in range(len(mid_links))]
    stubs = [f"s{i}" for i in range(len(stub_links))]
    routers = (
        [(name, 10 + i) for i, name in enumerate(tier1)]
        + [(name, 100 + i) for i, name in enumerate(mids)]
        + [(name, 1000 + i) for i, name in enumerate(stubs)]
    )
    sessions = [
        ("peer", a, b) for i, a in enumerate(tier1) for b in tier1[i + 1 :]
    ]
    for name, providers in zip(mids, mid_links):
        for p in sorted({idx % tier1_count for idx in providers}):
            sessions.append(("provider", name, tier1[p]))
    for name, providers in zip(stubs, stub_links):
        for p in sorted({idx % len(mids) for idx in providers}):
            sessions.append(("provider", name, mids[p]))
    return routers, sessions, stubs


def build_network(routers, sessions):
    """Add ``routers`` then ``sessions`` to a fresh network, in the
    order given."""
    net = BgpNetwork()
    for name, asn in routers:
        net.add_router(BgpRouter(name, asn))
    for kind, a, b in sessions:
        if kind == "peer":
            net.add_peering(a, b)
        else:
            net.add_provider(a, b)
    return net


def build_topology(tier1_count, mid_links, stub_links):
    routers, sessions, stubs = topology_spec(tier1_count, mid_links, stub_links)
    net = build_network(routers, sessions)
    relationships = {}
    for kind, a, b in sessions:
        if kind == "peer":
            relationships[(a, b)] = relationships[(b, a)] = Relationship.PEER
        else:
            relationships[(a, b)] = Relationship.PROVIDER
            relationships[(b, a)] = Relationship.CUSTOMER
    asn_to_name = {asn: name for name, asn in routers}
    return net, relationships, asn_to_name, stubs


def path_is_valley_free(observer, path_asns, relationships, asn_to_name):
    """Once a path descends (provider->customer hop) or crosses a peer
    link, it must keep descending (from the traffic direction's view)."""
    names = [observer] + [asn_to_name[a] for a in path_asns]
    # Hop a->b carries traffic from a to b; the route was learned the
    # other way.  Classify each hop by a's view of b.
    seen_down_or_peer = False
    for a, b in zip(names, names[1:]):
        rel = relationships[(a, b)]
        if rel is Relationship.PROVIDER:
            # going up: only allowed before any down/peer hop
            if seen_down_or_peer:
                return False
        else:
            seen_down_or_peer = True
    return True


topology_strategy = st.tuples(
    st.integers(min_value=2, max_value=4),  # tier-1 count
    st.lists(  # mid-tier provider index lists
        st.lists(st.integers(min_value=0, max_value=10), min_size=1, max_size=3),
        min_size=2,
        max_size=4,
    ),
    st.lists(  # stub provider index lists
        st.lists(st.integers(min_value=0, max_value=10), min_size=1, max_size=2),
        min_size=2,
        max_size=4,
    ),
)


class TestConvergenceProperties:
    @given(topology_strategy)
    @settings(max_examples=40, deadline=None)
    def test_always_converges(self, topo):
        tier1_count, mid_links, stub_links = topo
        net, _, _, stubs = build_topology(tier1_count, mid_links, stub_links)
        net.router(stubs[0]).originate(PREFIX)
        rounds = net.converge(max_rounds=100)
        assert rounds < 100

    @given(topology_strategy)
    @settings(max_examples=40, deadline=None)
    def test_best_paths_loop_free_and_valley_free(self, topo):
        tier1_count, mid_links, stub_links = topo
        net, relationships, asn_to_name, stubs = build_topology(
            tier1_count, mid_links, stub_links
        )
        origin = stubs[0]
        net.router(origin).originate(PREFIX)
        net.converge()
        for name, router in net.routers.items():
            best = router.best_path(PREFIX)
            if best is None:
                continue
            # Loop-free: no repeated ASN (no prepending in this setup).
            assert len(set(best.asns)) == len(best.asns)
            # Valley-free along the traffic direction.
            assert path_is_valley_free(
                name, best.asns, relationships, asn_to_name
            ), f"{name}: {best}"

    @given(topology_strategy)
    @settings(max_examples=25, deadline=None)
    def test_fixpoint_is_stable_under_reconvergence(self, topo):
        tier1_count, mid_links, stub_links = topo
        net, _, _, stubs = build_topology(tier1_count, mid_links, stub_links)
        net.router(stubs[0]).originate(PREFIX)
        net.converge()
        snapshot = {
            name: router.best_path(PREFIX)
            for name, router in net.routers.items()
        }
        assert net.converge() == 1  # immediately stable
        for name, router in net.routers.items():
            assert router.best_path(PREFIX) == snapshot[name]

    @given(topology_strategy)
    @settings(max_examples=25, deadline=None)
    def test_withdraw_unreaches_everyone(self, topo):
        tier1_count, mid_links, stub_links = topo
        net, _, _, stubs = build_topology(tier1_count, mid_links, stub_links)
        net.router(stubs[0]).originate(PREFIX)
        net.converge()
        net.router(stubs[0]).withdraw_origination(PREFIX)
        net.converge()
        for name in net.routers:
            if name != stubs[0]:
                assert not net.reachable(name, PREFIX), name


def draw_originations(data, stubs):
    """Each prefix originated by one or two stubs (anycast included)."""
    originations = []
    for prefix in PREFIXES:
        origins = data.draw(
            st.lists(st.sampled_from(stubs), min_size=1, max_size=2, unique=True)
        )
        originations.extend((name, prefix) for name in origins)
    return originations


def converge_with(routers, sessions, originations):
    net = build_network(routers, sessions)
    for name, prefix in originations:
        net.router(name).originate(prefix)
    net.converge()
    return net


def loc_ribs(net):
    return {name: r.loc_rib.routes() for name, r in net.routers.items()}


class TestNamingAndOrderInvariance:
    """The fixpoint is a function of the configuration, not of how it was
    entered: Gao–Rexford plus deterministic tie-breaks make it unique."""

    @given(topology_strategy, st.data())
    @settings(max_examples=40, deadline=None)
    def test_insertion_order_leaves_fixpoint_unchanged(self, topo, data):
        routers, sessions, stubs = topology_spec(*topo)
        originations = draw_originations(data, stubs)
        reference = converge_with(routers, sessions, originations)

        permuted = converge_with(
            data.draw(st.permutations(routers)),
            data.draw(st.permutations(sessions)),
            data.draw(st.permutations(originations)),
        )
        assert loc_ribs(permuted) == loc_ribs(reference)
        assert network_fingerprint(permuted) == network_fingerprint(reference)

    @given(topology_strategy, st.data())
    @settings(max_examples=40, deadline=None)
    def test_consistent_renaming_maps_fixpoint_one_to_one(self, topo, data):
        """Renumber ASNs by any bijection and rename routers by an
        order-preserving one (the neighbor name is the decision's last
        tie-break, so name *order* is part of the configuration)."""
        routers, sessions, stubs = topology_spec(*topo)
        originations = draw_originations(data, stubs)
        reference = converge_with(routers, sessions, originations)

        # Public ASNs only: private ones are stripped on export.
        fresh = data.draw(st.permutations(range(len(routers))))
        asn_map = {asn: 3000 + 7 * k for (_, asn), k in zip(routers, fresh)}
        new_names = sorted(
            data.draw(
                st.lists(
                    st.text("abmstxyz0129-", min_size=1, max_size=6),
                    min_size=len(routers),
                    max_size=len(routers),
                    unique=True,
                )
            )
        )
        name_map = dict(zip(sorted(name for name, _ in routers), new_names))

        renamed = converge_with(
            [(name_map[n], asn_map[a]) for n, a in routers],
            [(kind, name_map[a], name_map[b]) for kind, a, b in sessions],
            [(name_map[n], prefix) for n, prefix in originations],
        )
        for name, routes in loc_ribs(reference).items():
            got = renamed.router(name_map[name]).loc_rib.routes()
            assert set(got) == set(routes), name
            for prefix, best in routes.items():
                mapped = got[prefix]
                assert mapped.neighbor == name_map[best.neighbor]
                assert mapped.relationship is best.relationship
                assert mapped.as_path.asns == tuple(
                    asn_map[a] for a in best.as_path.asns
                )


#: Origination bundles: plain, poisoned, and tagged with communities.
ATTRIBUTES = (
    RouteAttributes(),
    RouteAttributes(as_path=AsPath.of(3356)),
    RouteAttributes(
        communities=frozenset({Community(10, 20), Community(2, 7)}),
        large_communities=frozenset({LargeCommunity(20473, 6000, 10)}),
    ),
)
KNOBS = ("asn", "allowas_in", "strip_private_on_export")


class TestMemoisedFingerprint:
    """``network_fingerprint`` memoises its lines per router and per
    network; after any sequence of configuration changes, snapshot
    restores and cached convergences it must equal the full rehash
    (``tests/oracles/snapshot.py``)."""

    @given(topology_strategy, st.data())
    @settings(max_examples=40, deadline=None)
    def test_memoised_digest_equals_full_rehash(self, topo, data):
        routers, sessions, stubs = topology_spec(*topo)
        net = build_network(routers, sessions)
        names = sorted(net.routers)
        cache = SnapshotCache(capacity=4)
        down = []
        snapshots = []
        fresh_asns = iter(range(5000, 6000))
        net.router(stubs[0]).originate(PREFIXES[0])
        for _ in range(data.draw(st.integers(min_value=1, max_value=12))):
            live = sorted(net._session_meta)
            ops = ["originate", "capture", "knob"]
            ops += ["disconnect", "reset_session"] if live else []
            ops += ["connect"] if down else []
            if any(r.originated for r in net.routers.values()):
                ops.append("withdraw_origination")
            # A snapshot's RIBs name the neighbors of its sessions, so only
            # one captured under the current session set can be restored.
            compatible = [s for meta, s in snapshots if meta == net._session_meta]
            ops += ["restore"] if compatible else []
            op = data.draw(st.sampled_from(ops))
            if op == "originate":
                net.router(data.draw(st.sampled_from(names))).originate(
                    data.draw(st.sampled_from(PREFIXES)),
                    data.draw(st.sampled_from(ATTRIBUTES)),
                )
            elif op == "withdraw_origination":
                name, prefix = data.draw(st.sampled_from([
                    (name, prefix)
                    for name in names
                    for prefix in PREFIXES
                    if prefix in net.routers[name].originated
                ]))
                net.router(name).withdraw_origination(prefix)
            elif op == "disconnect":
                a, b = data.draw(st.sampled_from(live))
                down.append(net.session_config(a, b))
                net.disconnect(a, b)
            elif op == "connect":
                net.connect(*down.pop(data.draw(st.integers(0, len(down) - 1))))
            elif op == "reset_session":
                net.reset_session(*data.draw(st.sampled_from(live)))
            elif op == "capture":
                snapshots.append((dict(net._session_meta), capture_snapshot(net)))
            elif op == "restore":
                restore_snapshot(net, data.draw(st.sampled_from(compatible)))
            else:
                router = net.router(data.draw(st.sampled_from(names)))
                knob = data.draw(st.sampled_from(KNOBS))
                if knob == "asn":
                    router.asn = next(fresh_asns)
                else:
                    setattr(router, knob, not getattr(router, knob))
            assert network_fingerprint(net) == full_fingerprint(net), op
            cache.converge(net)
            assert network_fingerprint(net) == full_fingerprint(net), op
