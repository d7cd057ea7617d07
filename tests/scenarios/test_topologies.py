"""Tests for synthetic topologies (mesh + ECMP fabrics)."""

import ipaddress

import pytest

from repro.netsim.packet import Packet
from repro.scenarios.topologies import build_ecmp_fanout, build_mesh_scenario


class TestMeshScenario:
    def test_minimum_edges_enforced(self):
        with pytest.raises(ValueError):
            build_mesh_scenario(1)

    def test_pairwise_discovery_complete(self):
        scenario = build_mesh_scenario(3)
        assert len(scenario.discoveries) == 6  # ordered pairs
        for result in scenario.discoveries.values():
            assert result.path_count >= 1

    def test_mesh_populated_with_all_pairs(self):
        scenario = build_mesh_scenario(3)
        for a in scenario.edge_names:
            for b in scenario.edge_names:
                if a != b:
                    assert scenario.mesh.direct_paths(a, b)

    def test_path_count_matches_provider_fanout(self):
        scenario = build_mesh_scenario(4, providers_per_edge=2)
        for result in scenario.discoveries.values():
            assert result.path_count == 2

    def test_deterministic_for_seed(self):
        a = build_mesh_scenario(3, seed=9)
        b = build_mesh_scenario(3, seed=9)
        for key in a.discoveries:
            assert a.discoveries[key].labels() == b.discoveries[key].labels()
        assert a.mesh.direct_paths("edge0", "edge1") == b.mesh.direct_paths(
            "edge0", "edge1"
        )

    def test_diversity_grows_with_n(self):
        """The E9 trend at unit scale."""
        small = build_mesh_scenario(3)
        large = build_mesh_scenario(5)
        assert large.mesh.diversity("edge0", "edge1", 1) > small.mesh.diversity(
            "edge0", "edge1", 1
        )

    def test_invalid_providers_per_edge(self):
        with pytest.raises(ValueError):
            build_mesh_scenario(3, providers_per_edge=0)


class TestEcmpFanout:
    def make_probe(self, sport, dst="2001:db8:ecf::9"):
        return Packet(
            ipaddress.IPv6Address("2001:db8:ec0::1"),
            ipaddress.IPv6Address(dst),
            sport=sport,
            dport=33434,
            payload_bytes=16,
        )

    def test_needs_two_sub_paths(self):
        with pytest.raises(ValueError):
            build_ecmp_fanout(sub_path_delays_ms=(30.0,))

    def test_varying_ports_spread_over_sub_paths(self):
        """Unpinned probes measure 'multiple paths as one'."""
        fabric = build_ecmp_fanout()
        net = fabric.net
        src = net.node(fabric.src_name)
        for sport in range(300):
            net.inject(src, self.make_probe(20000 + sport))
        net.run()
        used = [
            net.links[f"core->dst:{i}"].stats.transmitted
            for i in range(len(fabric.sub_path_delays_ms))
        ]
        assert all(count > 30 for count in used)

    def test_fixed_tuple_sticks_to_one_sub_path(self):
        """Tango's encapsulation fix: one 5-tuple, one physical path."""
        fabric = build_ecmp_fanout()
        net = fabric.net
        src = net.node(fabric.src_name)
        for _ in range(100):
            net.inject(src, self.make_probe(sport=40000))
        net.run()
        used = [
            net.links[f"core->dst:{i}"].stats.transmitted
            for i in range(len(fabric.sub_path_delays_ms))
        ]
        assert sorted(used) == [0, 0, 100]
