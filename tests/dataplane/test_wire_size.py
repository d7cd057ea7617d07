"""Property: a packet's stored wire size always matches its fields.

``Packet.wire_bytes`` is a stored count, kept current by encapsulation,
decapsulation and auth-tag edits rather than recomputed.  Any sequence of
the edits the data plane, the transport and the adversary make —
encapsulation with and without an auth tag, payload resizes, TTL
decrement, the relay's outer rewrite, timestamp and sequence rewrites,
copies, tag edits and decapsulation — must leave it equal to the size
recomputed from the fields here.
"""

import ipaddress

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dataplane.encap import (
    TunnelDecapError,
    decapsulate,
    encapsulate,
    is_tango_encapsulated,
)
from repro.dataplane.relay import RelayBinding, RelayForwardProgram
from repro.faults.adversary import GrayLoss, TelemetryTamper
from repro.netsim.packet import Packet
from repro.netsim.topology import Network

TUNNEL_SRC = ipaddress.IPv6Address("2001:db8:a0::1")
TUNNEL_DST = ipaddress.IPv6Address("2001:db8:b0::1")
PATH_ID = 4


def recomputed_size(packet):
    """Header bytes implied by the fields, plus the payload."""

    def ip_udp(address, sport):
        return (40 if address.version == 6 else 20) + (0 if sport is None else 8)

    size = packet.payload_bytes + ip_udp(packet.src, packet.sport)
    if packet.path_id is not None:
        size += 16 + (0 if packet.auth_tag is None else 8)
        size += ip_udp(packet.inner_src, packet.inner_sport)
    return size


def no_inject(packet):
    raise AssertionError("unexpected injection")


def apply(op, packet, switch):
    """Apply one edit; returns the packet to carry on with.

    An integer op resizes the payload, as the TCP sender does after
    building a segment.
    """
    tunneled = packet.path_id is not None
    if isinstance(op, int):
        if op < 0:
            with pytest.raises(ValueError):
                packet.payload_bytes = op
        else:
            packet.payload_bytes = op
    elif op in ("encap", "encap_auth"):
        tag = b"\x05" * 8 if op == "encap_auth" else None
        if tunneled:
            with pytest.raises(ValueError):
                encapsulate(packet, TUNNEL_SRC, TUNNEL_DST, PATH_ID, 1, 1, auth_tag=tag)
        else:
            encapsulate(packet, TUNNEL_SRC, TUNNEL_DST, PATH_ID, 10**9, 7, auth_tag=tag)
    elif op == "decap":
        if tunneled:
            decapsulate(packet)
        else:
            with pytest.raises(TunnelDecapError):
                decapsulate(packet)
    elif op == "ttl":
        if packet.ttl > 1:
            packet.decrement_ttl()
        else:
            with pytest.raises(ValueError):
                packet.decrement_ttl()
    elif op in ("tag", "untag"):
        if tunneled:
            packet.auth_tag = b"\x09" * 8 if op == "tag" else None
    elif op == "relay":
        program = RelayForwardProgram()
        program.bind(
            RelayBinding(
                path_id=PATH_ID,
                arrival_endpoint=packet.dst,
                next_src=TUNNEL_DST,
                next_dst=ipaddress.IPv6Address("2001:db8:c0::1"),
                next_sport=41000,
            )
        )
        assert program(switch, packet) is packet
        assert program.relayed == int(tunneled)
    elif op == "tamper":
        TelemetryTamper(0.0, 10.0, bias_s=0.004).process(packet, 1.0, no_inject)
    elif op == "seq_rewrite":
        stage = GrayLoss(0.0, 1.0, rate=1.0, seed=3)
        if tunneled:
            victim = packet.copy()
            assert stage.process(victim, 0.5, no_inject) is None
        assert stage.process(packet, 2.0, no_inject) is packet
    elif op == "copy":
        packet = packet.copy()
    return packet


OPS = ["encap", "encap_auth", "decap", "ttl", "tag", "untag", "relay", "tamper",
       "seq_rewrite", "copy"]


@st.composite
def plain_packets(draw):
    if draw(st.booleans()):
        src, dst = "2001:db8:10::1", "2001:db8:20::1"
    else:
        src, dst = "10.0.0.1", "10.0.0.2"
    ports = draw(st.one_of(st.none(), st.tuples(st.integers(0, 65535), st.integers(0, 65535))))
    sport, dport = ports if ports else (None, None)
    return Packet(
        src,
        dst,
        sport,
        dport,
        ttl=draw(st.integers(1, 4)),
        payload_bytes=draw(st.integers(0, 1400)),
    )


@settings(max_examples=300, deadline=None)
@given(
    packet=plain_packets(),
    ops=st.lists(st.one_of(st.sampled_from(OPS), st.integers(-2, 1500)), max_size=12),
)
def test_wire_size_tracks_fields(packet, ops):
    switch = Network().add_switch("sw")
    assert packet.wire_bytes == recomputed_size(packet)
    for op in ops:
        packet = apply(op, packet, switch)
        assert packet.wire_bytes == recomputed_size(packet), op
        assert is_tango_encapsulated(packet) == (packet.path_id is not None)
