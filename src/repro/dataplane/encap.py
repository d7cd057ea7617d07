"""Tango tunnel encapsulation and decapsulation.

The encapsulation format follows the paper's Section 3/4.2 exactly: an
outer IP header whose *destination address selects the wide-area route*
(each Tango prefix propagates over a distinct AS path), a UDP header with
a fixed 5-tuple (pinning ECMP), and a Tango header carrying the sender
wall-clock timestamp, a per-tunnel sequence number, and a path id.

Both operations edit the packet's fields in place: encapsulation moves the
outer IP and UDP fields to the inner ones and writes the tunnel's;
decapsulation moves them back.
"""

from __future__ import annotations

import ipaddress
from typing import Optional, Union

from ..netsim.packet import (
    IPV6_HEADER_BYTES,
    TANGO_HEADER_BYTES,
    TANGO_UDP_PORT,
    UDP_HEADER_BYTES,
    Packet,
    TangoHeader,
    check_port,
)

__all__ = [
    "TunnelDecapError",
    "encapsulate",
    "decapsulate",
    "is_tango_encapsulated",
    "TUNNEL_OVERHEAD_BYTES",
]

#: Fixed per-packet tunnel tax for IPv6 outer encapsulation (40 + 8 + 16).
TUNNEL_OVERHEAD_BYTES = IPV6_HEADER_BYTES + UDP_HEADER_BYTES + TANGO_HEADER_BYTES


class TunnelDecapError(ValueError):
    """Raised when a packet presented for decapsulation is not a
    well-formed Tango tunnel packet."""


def encapsulate(
    packet: Packet,
    src: Union[str, ipaddress.IPv6Address],
    dst: Union[str, ipaddress.IPv6Address],
    path_id: int,
    timestamp_ns: int,
    seq: int,
    sport: int = TANGO_UDP_PORT,
    dport: int = TANGO_UDP_PORT,
    auth_tag: Optional[bytes] = None,
) -> Packet:
    """Wrap ``packet`` in a Tango tunnel toward ``dst``.

    Args:
        packet: the inner (host-addressed) packet; mutated in place.
        src: tunnel source — an address in the local edge's route prefix
            for this path.
        dst: tunnel destination — an address in the remote edge's route
            prefix for this path; this choice *is* the routing decision.
        path_id: Tango path identifier carried for attribution.
        timestamp_ns: sender wall-clock timestamp.
        seq: per-tunnel sequence number.
        sport, dport: tunnel UDP ports.  All packets of a tunnel share
            them, so core ECMP sees one flow.
        auth_tag: optional authenticated-telemetry MAC.

    Returns:
        The same packet object, now carrying the tunnel headers.

    Raises:
        ValueError: if the packet already carries a Tango header (tunnels
            do not nest) or a port is out of range.
    """
    if packet.path_id is not None:
        raise ValueError(f"packet {packet.packet_id} is already Tango-encapsulated")
    check_port("sport", sport)
    check_port("dport", dport)
    packet.inner_src, packet.inner_dst = packet.src, packet.dst
    packet.inner_ttl, packet.inner_protocol = packet.ttl, packet.protocol
    packet.inner_sport, packet.inner_dport = packet.sport, packet.dport
    packet.src = ipaddress.IPv6Address(src) if isinstance(src, str) else src
    packet.dst = ipaddress.IPv6Address(dst) if isinstance(dst, str) else dst
    packet.ttl, packet.protocol = 64, 17
    packet.sport, packet.dport = sport, dport
    packet.timestamp_ns, packet.seq, packet.path_id = timestamp_ns, seq, path_id
    packet.wire_bytes += TUNNEL_OVERHEAD_BYTES
    packet.auth_tag = auth_tag
    return packet


def is_tango_encapsulated(packet: Packet) -> bool:
    """True when the packet's outer headers form a Tango tunnel."""
    return packet.path_id is not None and packet.dport == TANGO_UDP_PORT


def decapsulate(packet: Packet) -> TangoHeader:
    """Strip the tunnel headers in place, returning the Tango header.

    Raises:
        TunnelDecapError: if the packet is not Tango-encapsulated.
    """
    if not is_tango_encapsulated(packet):
        raise TunnelDecapError(
            f"packet {packet.packet_id} is not a Tango tunnel packet"
        )
    timestamp_ns, seq, path_id = packet.timestamp_ns, packet.seq, packet.path_id
    src, dst, ttl, protocol = (
        packet.inner_src, packet.inner_dst, packet.inner_ttl, packet.inner_protocol
    )
    assert timestamp_ns is not None and seq is not None and path_id is not None
    assert src is not None and dst is not None and ttl is not None and protocol is not None
    tango = TangoHeader(timestamp_ns, seq, path_id, packet.auth_tag)
    packet.auth_tag = None
    packet.wire_bytes -= TUNNEL_OVERHEAD_BYTES
    packet.src, packet.dst, packet.ttl, packet.protocol = src, dst, ttl, protocol
    packet.sport, packet.dport = packet.inner_sport, packet.inner_dport
    packet.timestamp_ns = packet.seq = packet.path_id = None
    packet.inner_src = packet.inner_dst = packet.inner_ttl = None
    packet.inner_protocol = packet.inner_sport = packet.inner_dport = None
    return tango
