"""Tests for Tango tunnel encapsulation."""

import ipaddress

import pytest

from repro.dataplane.encap import (
    TUNNEL_OVERHEAD_BYTES,
    TunnelDecapError,
    decapsulate,
    encapsulate,
    is_tango_encapsulated,
)
from repro.netsim.packet import TANGO_UDP_PORT, Packet


def inner_packet():
    return Packet(
        ipaddress.IPv6Address("2001:db8:10::2"),
        ipaddress.IPv6Address("2001:db8:20::2"),
        sport=1111,
        dport=2222,
        payload_bytes=64,
    )


def fields(packet):
    return (
        packet.src,
        packet.dst,
        packet.ttl,
        packet.protocol,
        packet.sport,
        packet.dport,
        packet.wire_bytes,
    )


def encap(packet=None, **kwargs):
    packet = packet or inner_packet()
    defaults = dict(
        src="2001:db8:a0::1",
        dst="2001:db8:b0::1",
        path_id=3,
        timestamp_ns=123_456_789,
        seq=42,
    )
    defaults.update(kwargs)
    return encapsulate(packet, **defaults)


class TestEncapsulate:
    def test_outer_destination_selects_route(self):
        packet = encap()
        assert str(packet.dst) == "2001:db8:b0::1"

    def test_inner_headers_preserved(self):
        packet = encap()
        assert str(packet.inner_dst) == "2001:db8:20::2"
        assert (packet.inner_sport, packet.inner_dport) == (1111, 2222)

    def test_tango_header_fields(self):
        packet = encap()
        assert packet.timestamp_ns == 123_456_789
        assert packet.seq == 42
        assert packet.path_id == 3

    def test_overhead_constant_matches_reality(self):
        packet = inner_packet()
        before = packet.wire_bytes
        encap(packet)
        assert packet.wire_bytes - before == TUNNEL_OVERHEAD_BYTES

    def test_udp_dport_is_tango_port(self):
        packet = encap()
        assert packet.dport == TANGO_UDP_PORT

    def test_custom_sport_pins_tunnel_flow(self):
        packet = encap(sport=40003)
        assert packet.five_tuple().sport == 40003

    def test_auth_tag_carried(self):
        packet = encap(auth_tag=b"12345678")
        assert packet.auth_tag == b"12345678"


class TestDetection:
    def test_encapsulated_detected(self):
        assert is_tango_encapsulated(encap())

    def test_plain_packet_not_detected(self):
        assert not is_tango_encapsulated(inner_packet())

    def test_wrong_udp_port_not_detected(self):
        packet = encap(dport=9999)
        assert not is_tango_encapsulated(packet)

    def test_short_stack_not_detected(self):
        """The Tango port alone, without a Tango header, is no tunnel."""
        plain = Packet("2001:db8::1", "2001:db8::2", sport=1, dport=TANGO_UDP_PORT)
        assert not is_tango_encapsulated(plain)


class TestDecapsulate:
    def test_roundtrip_restores_inner(self):
        original = inner_packet()
        before = fields(original)
        packet = encap(original, auth_tag=b"12345678")
        tango = decapsulate(packet)
        assert packet is original
        assert fields(packet) == before
        assert tango == (123_456_789, 42, 3, b"12345678")
        assert packet.path_id is None and packet.auth_tag is None

    def test_decap_plain_packet_raises(self):
        with pytest.raises(TunnelDecapError, match="not a Tango tunnel"):
            decapsulate(inner_packet())

    def test_double_encap_rejected(self):
        """Tunnels do not nest: a second encapsulation fails and leaves
        the first intact."""
        packet = encap()
        before = fields(packet)
        with pytest.raises(ValueError, match="already Tango-encapsulated"):
            encapsulate(
                packet,
                src="2001:db8:c0::1",
                dst="2001:db8:d0::1",
                path_id=7,
                timestamp_ns=1,
                seq=0,
            )
        assert fields(packet) == before
        assert decapsulate(packet).path_id == 3
        assert not is_tango_encapsulated(packet)
