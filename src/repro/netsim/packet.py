"""Packets with fixed header fields.

The Tango data plane works by *encapsulation*: a data packet destined to a
host prefix is wrapped in an outer IP header (whose destination address
selects the wide-area route, because each Tango prefix propagates over a
distinct AS path), a UDP header (whose fixed 5-tuple pins ECMP behaviour),
and a Tango header carrying a wall-clock timestamp and per-tunnel sequence
number.

A packet holds its headers as fixed fields, like the parsed header vector
of a P4 or eBPF program: the outer IP header routers route on, an optional
UDP header, the Tango header once encapsulated, and the inner
(pre-encapsulation) IP and UDP fields the tunnel carries.  Tunnels are one
level deep, as in the paper's prototype.  Header sizes are
bytes-on-the-wire accurate so that serialization overhead computations
(tunnel tax, MTU checks) are honest; the wire size is a stored count that
every size-changing edit keeps current.
"""

from __future__ import annotations

import ipaddress
import itertools
from dataclasses import dataclass
from typing import NamedTuple, Optional, Union

__all__ = [
    "IPAddress",
    "TangoHeader",
    "Packet",
    "FiveTuple",
    "TANGO_UDP_PORT",
    "IPV4_HEADER_BYTES",
    "IPV6_HEADER_BYTES",
    "UDP_HEADER_BYTES",
    "TANGO_HEADER_BYTES",
    "AUTH_TAG_BYTES",
]

IPAddress = Union[ipaddress.IPv4Address, ipaddress.IPv6Address]

#: UDP destination port Tango tunnels use.  Any fixed value works; what
#: matters is that all packets of a tunnel share one 5-tuple so ECMP hashes
#: them onto a single physical path (paper Section 3).
TANGO_UDP_PORT = 6112

#: Minimal IPv4 header, no options.
IPV4_HEADER_BYTES = 20
#: IPv6 header.  Tango's prototype announces IPv6 /48s from the edge, so
#: IPv6 is the default address family throughout this repository.
IPV6_HEADER_BYTES = 40
UDP_HEADER_BYTES = 8
#: Tango header: 8B timestamp + 4B seq + 2B path id + 2B flags/reserved.
TANGO_HEADER_BYTES = 16
#: Truncated MAC length when telemetry authentication is enabled.
AUTH_TAG_BYTES = 8


class TangoHeader(NamedTuple):
    """The Tango telemetry header's fields, as a receiver hands them on.

    Attributes:
        timestamp_ns: sender wall-clock timestamp (nanoseconds).  The
            receiving switch subtracts this from its own wall clock to get
            a (constant-offset-distorted) one-way delay.
        seq: per-tunnel sequence number, enabling loss and reordering
            detection without probing (paper Sections 3 and 6).
        path_id: identifier of the Tango tunnel/path the sender chose;
            lets the receiver attribute the measurement to a path even if
            tunnels share an egress prefix.
        auth_tag: optional truncated MAC over (timestamp, seq, path_id);
            models the "trustworthy telemetry" extension of Section 6.
    """

    timestamp_ns: int
    seq: int
    path_id: int
    auth_tag: Optional[bytes] = None


@dataclass(frozen=True)
class FiveTuple:
    """The classic ECMP hash input."""

    src: str
    dst: str
    protocol: int
    sport: int
    dport: int


_packet_ids = itertools.count(1)


def check_port(name: str, port: int) -> None:
    """Reject a UDP port outside 0..65535."""
    if not 0 <= port <= 0xFFFF:
        raise ValueError(f"{name} out of range: {port}")


class Packet:
    """A simulated packet: fixed header fields plus an opaque payload size.

    Programs read and edit the fields in place.  Outside (de)encapsulation
    only the payload size and the auth tag change the wire size, so both
    are properties that keep ``wire_bytes`` current.
    """

    __slots__ = (
        "src",
        "dst",
        "ttl",
        "protocol",
        "sport",
        "dport",
        "timestamp_ns",
        "seq",
        "path_id",
        "_auth_tag",
        "inner_src",
        "inner_dst",
        "inner_ttl",
        "inner_protocol",
        "inner_sport",
        "inner_dport",
        "_payload_bytes",
        "flow_label",
        "created_at",
        "meta",
        "packet_id",
        "wire_bytes",
    )

    #: Outer IP header — what routers route on.  ``ttl`` is the IPv4 TTL
    #: or IPv6 hop limit, ``protocol`` the IPv4 protocol or IPv6 next header.
    src: IPAddress
    dst: IPAddress
    ttl: int
    protocol: int
    #: Outer UDP ports; None when the packet has no UDP header.
    sport: Optional[int]
    dport: Optional[int]
    #: The Tango header (see :class:`TangoHeader`); None until encapsulated.
    timestamp_ns: Optional[int]
    seq: Optional[int]
    path_id: Optional[int]
    _auth_tag: Optional[bytes]
    #: The pre-encapsulation IP and UDP fields a tunnel carries; None when
    #: the packet is not encapsulated.
    inner_src: Optional[IPAddress]
    inner_dst: Optional[IPAddress]
    inner_ttl: Optional[int]
    inner_protocol: Optional[int]
    inner_sport: Optional[int]
    inner_dport: Optional[int]
    _payload_bytes: int
    #: Opaque application flow identifier used by traffic generators and
    #: the TCP model to group packets.
    flow_label: int
    #: Simulation time the packet entered the network.
    created_at: float
    #: Free-form annotations (measurements, trace tags).  Kept in a dict so
    #: substrates stay decoupled.
    meta: dict
    #: Process-unique identifier.
    packet_id: int
    #: Total serialized size, headers plus payload.
    wire_bytes: int

    def __init__(
        self,
        src: Union[str, IPAddress],
        dst: Union[str, IPAddress],
        sport: Optional[int] = None,
        dport: Optional[int] = None,
        *,
        ttl: int = 64,
        protocol: int = 17,
        payload_bytes: int = 0,
        flow_label: int = 0,
        created_at: float = 0.0,
        meta: Optional[dict] = None,
    ) -> None:
        if payload_bytes < 0:
            raise ValueError(f"payload_bytes must be >= 0, got {payload_bytes}")
        self.src = ipaddress.ip_address(src) if isinstance(src, str) else src
        self.dst = ipaddress.ip_address(dst) if isinstance(dst, str) else dst
        self.ttl = ttl
        self.protocol = protocol
        self.sport = sport
        self.dport = dport
        self.timestamp_ns = self.seq = self.path_id = self._auth_tag = None
        self.inner_src = self.inner_dst = self.inner_ttl = None
        self.inner_protocol = self.inner_sport = self.inner_dport = None
        self._payload_bytes = payload_bytes
        self.flow_label = flow_label
        self.created_at = created_at
        self.meta = {} if meta is None else meta
        self.packet_id = next(_packet_ids)
        size = IPV6_HEADER_BYTES if self.src.version == 6 else IPV4_HEADER_BYTES
        if sport is not None or dport is not None:
            if sport is None or dport is None:
                raise ValueError("a UDP header needs both ports")
            check_port("sport", sport)
            check_port("dport", dport)
            size += UDP_HEADER_BYTES
        self.wire_bytes = size + payload_bytes

    @property
    def payload_bytes(self) -> int:
        """Size of the application payload."""
        return self._payload_bytes

    @payload_bytes.setter
    def payload_bytes(self, size: int) -> None:
        """Resize the payload, keeping the wire size current."""
        if size < 0:
            raise ValueError(f"payload_bytes must be >= 0, got {size}")
        self.wire_bytes += size - self._payload_bytes
        self._payload_bytes = size

    @property
    def auth_tag(self) -> Optional[bytes]:
        return self._auth_tag

    @auth_tag.setter
    def auth_tag(self, tag: Optional[bytes]) -> None:
        """Set or clear the Tango MAC, keeping the wire size current."""
        if tag is not None and self.path_id is None:
            raise ValueError(f"packet {self.packet_id} has no Tango header to tag")
        if self._auth_tag is not None:
            self.wire_bytes -= AUTH_TAG_BYTES
        if tag is not None:
            self.wire_bytes += AUTH_TAG_BYTES
        self._auth_tag = tag

    def five_tuple(self) -> FiveTuple:
        """5-tuple of the outer IP (+UDP if present) headers.

        This is what an ECMP hash in the core sees.  Note that an
        encapsulated Tango packet exposes only the *outer* tunnel 5-tuple —
        precisely the mechanism the paper uses to defeat unpredictable
        ECMP spraying.
        """
        return FiveTuple(
            str(self.src), str(self.dst), self.protocol, self.sport or 0, self.dport or 0
        )

    def copy(self) -> "Packet":
        """Same headers and payload, a fresh meta dict and a new packet id."""
        clone = Packet.__new__(Packet)
        for name in Packet.__slots__:
            setattr(clone, name, getattr(self, name))
        clone.meta = dict(self.meta)
        clone.packet_id = next(_packet_ids)
        return clone

    def decrement_ttl(self) -> "Packet":
        """Lower the outer IP TTL/hop-limit by one; returns the packet.

        Raises:
            ValueError: when the TTL would drop to zero (packet must be
                discarded by the caller; loops surface loudly, not silently).
        """
        if self.ttl <= 1:
            what = "hop limit" if self.src.version == 6 else "TTL"
            raise ValueError(f"{what} expired for packet {self.packet_id}")
        self.ttl -= 1
        return self

    def __repr__(self) -> str:
        return (
            f"Packet(id={self.packet_id}, {self.src} -> {self.dst}, "
            f"{self.wire_bytes} bytes)"
        )
