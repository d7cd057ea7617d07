"""Tests for control-plane → data-plane FIB synchronization."""

import ipaddress

import pytest

from repro.bgp.network import BgpNetwork
from repro.bgp.router import BgpRouter
from repro.core.fibsync import FibSyncError, sync_fibs
from repro.netsim.packet import Packet
from repro.netsim.topology import Network

PREFIX = "2001:db8:50::/48"


def build():
    """Control plane: origin --(p1|p2)-- sink.  Data plane mirrors it."""
    bgp = BgpNetwork()
    for name, asn in (
        ("origin", 65001),
        ("p1", 100),
        ("p2", 200),
        ("sink", 65002),
    ):
        bgp.add_router(BgpRouter(name, asn))
    bgp.add_provider("origin", "p1", customer_preference=1)
    bgp.add_provider("origin", "p2", customer_preference=2)
    bgp.add_provider("sink", "p1", customer_preference=1)
    bgp.add_provider("sink", "p2", customer_preference=2)
    bgp.router("origin").originate(PREFIX)
    bgp.converge()

    net = Network()
    nodes = {name: net.add_router(name) for name in ("origin", "p1", "p2", "sink")}
    links = {}
    for a, b in (
        ("origin", "p1"),
        ("origin", "p2"),
        ("sink", "p1"),
        ("sink", "p2"),
    ):
        fwd, rev = net.add_duplex_link(f"{a}-{b}", a, b, delay_s=0.001)
        links[(a, b)] = fwd
        links[(b, a)] = rev
    nodes["origin"].add_local_network(PREFIX)
    return bgp, net, nodes, links


class TestSyncFibs:
    def test_installs_best_routes(self):
        bgp, net, nodes, links = build()
        installed = sync_fibs(bgp, nodes, links)
        assert installed == 3  # p1, p2, sink (origin originates)
        entry = nodes["sink"].fib.lookup(
            ipaddress.IPv6Address("2001:db8:50::1")
        )
        assert entry.links == [links[("sink", "p1")]]

    def test_data_follows_control_plane_path(self):
        """A packet's hop sequence equals BGP's chosen AS path."""
        bgp, net, nodes, links = build()
        sync_fibs(bgp, nodes, links)
        packet = Packet(
            ipaddress.IPv6Address("2001:db8:60::1"),
            ipaddress.IPv6Address("2001:db8:50::1"),
        )
        net.inject(nodes["sink"], packet)
        net.run()
        # Best path at sink: via p1 (preference 1).
        assert links[("sink", "p1")].stats.delivered == 1
        assert links[("sink", "p2")].stats.transmitted == 0
        assert nodes["origin"].stats.delivered_local == 1

    def test_resync_after_reconvergence(self):
        """A control-plane change re-syncs into new forwarding."""
        bgp, net, nodes, links = build()
        sync_fibs(bgp, nodes, links)
        # p1 loses its session to origin -> best shifts to p2.
        bgp.disconnect("origin", "p1")
        bgp.converge()
        sync_fibs(bgp, nodes, links)
        entry = nodes["sink"].fib.lookup(
            ipaddress.IPv6Address("2001:db8:50::1")
        )
        assert entry.links == [links[("sink", "p2")]]

    def test_missing_node_skipped(self):
        bgp, net, nodes, links = build()
        partial = {k: v for k, v in nodes.items() if k != "p2"}
        installed = sync_fibs(bgp, partial, links)
        assert installed == 2

    def test_missing_link_strict_raises(self):
        bgp, net, nodes, links = build()
        broken = {k: v for k, v in links.items() if k != ("sink", "p1")}
        with pytest.raises(FibSyncError, match="sink"):
            sync_fibs(bgp, nodes, broken)

    def test_missing_link_lenient_skips(self):
        bgp, net, nodes, links = build()
        broken = {k: v for k, v in links.items() if k != ("sink", "p1")}
        installed = sync_fibs(bgp, nodes, broken, strict=False)
        assert installed == 2
