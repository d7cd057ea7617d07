"""Tests for packets and their header fields."""

import ipaddress

import pytest

from repro.dataplane.encap import TunnelDecapError, decapsulate, encapsulate
from repro.netsim.packet import TANGO_UDP_PORT, FiveTuple, Packet


def make_packet(payload=100):
    return Packet(
        ipaddress.IPv6Address("2001:db8:10::2"),
        ipaddress.IPv6Address("2001:db8:20::2"),
        sport=1234,
        dport=5678,
        payload_bytes=payload,
    )


def tunnel(packet, auth_tag=None, sport=TANGO_UDP_PORT):
    return encapsulate(
        packet,
        src="2001:db8:a0::1",
        dst="2001:db8:b0::1",
        path_id=3,
        timestamp_ns=1,
        seq=2,
        sport=sport,
        auth_tag=auth_tag,
    )


class TestHeaderStack:
    def test_push_makes_header_outermost(self):
        packet = tunnel(make_packet())
        assert str(packet.dst) == "2001:db8:b0::1"
        assert (packet.sport, packet.dport) == (TANGO_UDP_PORT, TANGO_UDP_PORT)
        assert str(packet.inner_dst) == "2001:db8:20::2"
        assert (packet.inner_sport, packet.inner_dport) == (1234, 5678)

    def test_pop_returns_outermost(self):
        packet = tunnel(make_packet())
        tango = decapsulate(packet)
        assert (tango.timestamp_ns, tango.seq, tango.path_id) == (1, 2, 3)
        assert str(packet.dst) == "2001:db8:20::2"
        assert (packet.sport, packet.dport) == (1234, 5678)
        assert packet.path_id is None and packet.inner_src is None

    def test_pop_empty_raises(self):
        """Stripping a tunnel off a plain packet fails and edits nothing."""
        packet = make_packet()
        with pytest.raises(TunnelDecapError):
            decapsulate(packet)
        assert str(packet.dst) == "2001:db8:20::2"
        assert packet.wire_bytes == 40 + 8 + 100

    def test_outer_ip_skips_non_ip(self):
        """Routers see the outer (tunnel) addresses, never the inner ones."""
        packet = tunnel(make_packet())
        assert str(packet.src) == "2001:db8:a0::1"
        assert str(packet.inner_src) == "2001:db8:10::2"

    def test_find_returns_first_of_type(self):
        packet = make_packet()
        assert (packet.sport, packet.dport) == (1234, 5678)
        assert packet.path_id is None and packet.timestamp_ns is None

    def test_tango_property(self):
        packet = make_packet()
        assert packet.path_id is None
        tunnel(packet)
        assert (packet.timestamp_ns, packet.seq, packet.path_id) == (1, 2, 3)


class TestWireSize:
    def test_wire_bytes_sums_headers_and_payload(self):
        packet = make_packet(payload=100)
        assert packet.wire_bytes == 40 + 8 + 100

    def test_tango_header_size_without_auth(self):
        packet = make_packet()
        before = packet.wire_bytes
        tunnel(packet)
        assert packet.wire_bytes - before == 40 + 8 + 16

    def test_tango_header_size_with_auth(self):
        packet = make_packet()
        before = packet.wire_bytes
        tunnel(packet, auth_tag=b"x" * 8)
        assert packet.wire_bytes - before == 40 + 8 + 24

    def test_encapsulation_grows_wire_size(self):
        packet = make_packet(payload=100)
        before = packet.wire_bytes
        tunnel(packet)
        assert packet.wire_bytes == before + 16 + 8 + 40
        decapsulate(packet)
        assert packet.wire_bytes == before

    def test_auth_tag_edits_keep_size(self):
        packet = tunnel(make_packet())
        before = packet.wire_bytes
        packet.auth_tag = b"y" * 8
        assert packet.wire_bytes == before + 8
        packet.auth_tag = b"z" * 8
        assert packet.wire_bytes == before + 8
        packet.auth_tag = None
        assert packet.wire_bytes == before

    def test_payload_edits_keep_size(self):
        packet = tunnel(make_packet(payload=100))
        before = packet.wire_bytes
        packet.payload_bytes = 1400
        assert packet.wire_bytes == before + 1300
        packet.payload_bytes *= 2
        assert packet.wire_bytes == before + 2700
        packet.payload_bytes = 0
        assert packet.wire_bytes == before - 100
        assert packet.copy().wire_bytes == packet.wire_bytes

    def test_negative_payload_edit_rejected(self):
        packet = make_packet(payload=10)
        with pytest.raises(ValueError, match="payload_bytes"):
            packet.payload_bytes = -1
        assert packet.payload_bytes == 10
        assert packet.wire_bytes == 40 + 8 + 10

    def test_auth_tag_needs_tango_header(self):
        with pytest.raises(ValueError, match="no Tango header"):
            make_packet().auth_tag = b"x" * 8

    def test_ipv4_without_udp(self):
        packet = Packet("10.0.0.1", "10.0.0.2", payload_bytes=5)
        assert packet.wire_bytes == 20 + 5

    def test_negative_payload_rejected(self):
        with pytest.raises(ValueError):
            Packet("::1", "::2", payload_bytes=-1)


class TestFiveTuple:
    def test_five_tuple_reads_outer_headers(self):
        packet = make_packet()
        five = packet.five_tuple()
        assert five == FiveTuple(
            "2001:db8:10::2", "2001:db8:20::2", 17, 1234, 5678
        )

    def test_encapsulated_packet_exposes_only_outer_tuple(self):
        """Tango's ECMP-pinning mechanism: the core sees one flow."""
        packet = tunnel(make_packet(), sport=40001)
        five = packet.five_tuple()
        assert five.src == "2001:db8:a0::1"
        assert five.sport == 40001
        assert five.dport == TANGO_UDP_PORT

    def test_ip_without_udp_has_zero_ports(self):
        packet = Packet(ipaddress.IPv6Address("::1"), ipaddress.IPv6Address("::2"))
        five = packet.five_tuple()
        assert (five.sport, five.dport) == (0, 0)


class TestTtl:
    def test_decrement_hop_limit(self):
        packet = make_packet()
        packet.decrement_ttl()
        assert packet.ttl == 63

    def test_hop_limit_expiry_raises(self):
        packet = Packet("::1", "::2", ttl=1)
        with pytest.raises(ValueError, match="hop limit"):
            packet.decrement_ttl()

    def test_ipv4_ttl_decrement(self):
        packet = Packet("10.0.0.1", "10.0.0.2", ttl=2)
        packet.decrement_ttl()
        assert packet.ttl == 1
        with pytest.raises(ValueError, match="TTL"):
            packet.decrement_ttl()

    def test_only_outer_header_changes(self):
        packet = Packet("2001:db8::1", "2001:db8::2", ttl=9, protocol=41)
        tunnel(packet)
        packet.decrement_ttl()
        assert packet.ttl == 63
        assert (packet.inner_ttl, packet.inner_protocol) == (9, 41)
        decapsulate(packet)
        assert (packet.ttl, packet.protocol) == (9, 41)

    def test_ipv4_keeps_protocol(self):
        packet = Packet("10.0.0.1", "10.0.0.2", protocol=6)
        packet.decrement_ttl()
        assert (packet.ttl, packet.protocol) == (63, 6)
        assert packet.five_tuple().protocol == 6


class TestCopy:
    def test_copy_has_new_identity(self):
        packet = make_packet()
        clone = packet.copy()
        assert clone.packet_id != packet.packet_id

    def test_copy_isolates_header_list(self):
        packet = make_packet()
        clone = packet.copy()
        tunnel(clone)
        assert packet.path_id is None
        assert packet.wire_bytes == clone.wire_bytes - 64

    def test_copy_isolates_meta(self):
        packet = make_packet()
        packet.meta["k"] = 1
        clone = packet.copy()
        clone.meta["k"] = 2
        assert packet.meta["k"] == 1


class TestValidation:
    def test_udp_port_range_enforced(self):
        with pytest.raises(ValueError):
            Packet("::1", "::2", sport=-1, dport=0)
        with pytest.raises(ValueError):
            Packet("::1", "::2", sport=0, dport=70000)
        with pytest.raises(ValueError, match="both ports"):
            Packet("::1", "::2", sport=1)

    def test_packet_ids_are_unique(self):
        ids = {make_packet().packet_id for _ in range(100)}
        assert len(ids) == 100
