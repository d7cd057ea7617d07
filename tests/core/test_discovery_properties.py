"""Property-based tests for the discovery algorithm on random topologies."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bgp.network import BgpNetwork
from repro.bgp.router import BgpRouter
from repro.core.discovery import PathDiscovery

PROBE = "2001:db8:aa::/48"
TRANSITS = (2914, 1299, 3257, 174, 3356)


def topology_spec(observer_links, announcer_links, peer_pairs):
    """Two single-homed edges behind two provider ASes, each provider
    buying transit from a hypothesis-chosen subset of five transits,
    with a hypothesis-chosen transit peering mesh.

    Returns ``(routers, sessions)``: ``(name, asn, allowas_in)`` triples
    and ``(kind, a, b, customer_preference)`` sessions in creation order
    (``"peer"`` for a–b peering, ``"provider"`` for b selling transit
    to a).
    """
    routers = [(f"t{asn}", asn, False) for asn in TRANSITS] + [
        ("prov-obs", 64700, True),
        ("prov-ann", 64701, True),
        ("edge-obs", 65100, False),
        ("edge-ann", 65101, False),
    ]
    sessions = [
        ("peer", f"t{a}", f"t{b}", None)
        for i, a in enumerate(TRANSITS)
        for j, b in enumerate(TRANSITS)
        if i < j and ((i * 5 + j) % len(TRANSITS)) in peer_pairs
    ]
    sessions += [
        ("provider", "edge-obs", "prov-obs", None),
        ("provider", "edge-ann", "prov-ann", None),
    ]
    for provider, links in (
        ("prov-obs", observer_links),
        ("prov-ann", announcer_links),
    ):
        for rank, idx in enumerate(sorted({i % 5 for i in links}), 1):
            sessions.append(("provider", provider, f"t{TRANSITS[idx]}", rank))
    return routers, sessions


def build_from(routers, sessions):
    """Add ``routers`` then ``sessions`` to a fresh network, in the
    order given."""
    net = BgpNetwork()
    for name, asn, allowas_in in routers:
        net.add_router(BgpRouter(name, asn, allowas_in=allowas_in))
    for kind, a, b, preference in sessions:
        if kind == "peer":
            net.add_peering(a, b)
        else:
            net.add_provider(a, b, customer_preference=preference)
    return net


def build(observer_links, announcer_links, peer_pairs):
    return build_from(
        *topology_spec(observer_links, announcer_links, peer_pairs)
    )


topology = st.tuples(
    st.lists(st.integers(0, 9), min_size=1, max_size=4),
    st.lists(st.integers(0, 9), min_size=1, max_size=4),
    st.sets(st.integers(0, 4), min_size=1, max_size=5),
)


class TestDiscoveryProperties:
    @given(topology)
    @settings(max_examples=40, deadline=None)
    def test_paths_are_distinct(self, topo):
        """No two discovered paths share a transit view — suppression
        guarantees progress."""
        observer_links, announcer_links, peer_pairs = topo
        net = build(observer_links, announcer_links, peer_pairs)
        result = PathDiscovery(net, 64701).discover(
            announcer="edge-ann", observer="edge-obs", probe_prefix=PROBE
        )
        views = [p.transit_asns for p in result.paths]
        assert len(set(views)) == len(views)

    @given(topology)
    @settings(max_examples=40, deadline=None)
    def test_path_count_bounded_by_announcer_providers(self, topo):
        """Each round suppresses one export of the announcer's provider,
        so the count never exceeds its transit degree."""
        observer_links, announcer_links, peer_pairs = topo
        net = build(observer_links, announcer_links, peer_pairs)
        degree = len(net.router("prov-ann").neighbors) - 1  # minus the edge
        result = PathDiscovery(net, 64701).discover(
            announcer="edge-ann", observer="edge-obs", probe_prefix=PROBE
        )
        assert result.path_count <= degree

    @given(topology)
    @settings(max_examples=30, deadline=None)
    def test_discovery_restores_control_plane(self, topo):
        """After discovery the probe prefix is fully withdrawn and a
        second run reproduces the identical result."""
        observer_links, announcer_links, peer_pairs = topo
        net = build(observer_links, announcer_links, peer_pairs)
        discovery = PathDiscovery(net, 64701)
        first = discovery.discover(
            announcer="edge-ann", observer="edge-obs", probe_prefix=PROBE
        )
        assert not net.reachable("edge-obs", PROBE)
        second = discovery.discover(
            announcer="edge-ann", observer="edge-obs", probe_prefix=PROBE
        )
        assert [p.transit_asns for p in first.paths] == [
            p.transit_asns for p in second.paths
        ]

    @given(topology)
    @settings(max_examples=30, deadline=None)
    def test_communities_pin_each_path(self, topo):
        """Re-announcing with path i's communities reproduces path i —
        for every discovered path, on every random topology."""
        from repro.bgp.attributes import RouteAttributes

        observer_links, announcer_links, peer_pairs = topo
        net = build(observer_links, announcer_links, peer_pairs)
        result = PathDiscovery(net, 64701).discover(
            announcer="edge-ann", observer="edge-obs", probe_prefix=PROBE
        )
        announcer = net.router("edge-ann")
        for path in result.paths:
            announcer.originate(
                PROBE, RouteAttributes().add_communities(large=path.communities)
            )
            net.converge()
            best = net.router("edge-obs").best_path(PROBE)
            view = best.without(64700).without(64701).strip_private()
            assert view.asns == path.transit_asns
        announcer.withdraw_origination(PROBE)
        net.converge()

    @given(topology, st.data())
    @settings(max_examples=100, deadline=None)
    def test_insertion_order_leaves_discovered_paths_unchanged(self, topo, data):
        """The discovered path set is a function of the configuration:
        shuffling router insertion and session creation order changes
        no ``DiscoveredPath`` (ROADMAP 5(b))."""
        routers, sessions = topology_spec(*topo)
        reference = PathDiscovery(build_from(routers, sessions), 64701).discover(
            announcer="edge-ann", observer="edge-obs", probe_prefix=PROBE
        )
        shuffled = build_from(
            data.draw(st.permutations(routers)),
            data.draw(st.permutations(sessions)),
        )
        result = PathDiscovery(shuffled, 64701).discover(
            announcer="edge-ann", observer="edge-obs", probe_prefix=PROBE
        )
        assert result.paths == reference.paths
