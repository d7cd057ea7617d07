"""Forwarding nodes: hosts, routers, and programmable border switches.

Three node flavours cover everything the reproduction needs:

* :class:`HostNode` — traffic sources/sinks inside an edge network.
* :class:`RouterNode` — longest-prefix-match forwarding with optional ECMP
  groups; models both edge gateways and backbone routers.
* :class:`ProgrammableSwitch` — a router that additionally runs ingress and
  egress *programs* on every packet, the stand-in for the paper's
  eBPF/programmable-switch data plane.  Tango's sender and receiver
  programs (``repro.dataplane.programs``) attach here.

Every node owns a :class:`~repro.netsim.simclock.NodeClock`; programs read
wall-clock time only through it, which is how the unsynchronized-clock
semantics of the paper are preserved end to end.
"""

from __future__ import annotations

import ipaddress
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Generic, Optional, Sequence, TypeVar, Union

from .ecmp import select_index
from .packet import IPAddress, Packet
from .simclock import NodeClock

if TYPE_CHECKING:  # pragma: no cover
    from .events import Simulator
    from .links import Link

__all__ = [
    "Fib",
    "FibEntry",
    "Node",
    "HostNode",
    "RouterNode",
    "ProgrammableSwitch",
    "NodeStats",
]

IPNetwork = Union[ipaddress.IPv4Network, ipaddress.IPv6Network]
V = TypeVar("V")

#: A data-plane program: called as ``program(switch, packet)``; returns the
#: (possibly re-encapsulated) packet to keep processing, or None to consume
#: it (measurement extraction, drops).
Program = Callable[["ProgrammableSwitch", Packet], Optional[Packet]]


@dataclass
class FibEntry:
    """A FIB route: destination prefix -> one or more egress links."""

    prefix: IPNetwork
    links: list["Link"]

    def __post_init__(self) -> None:
        if not self.links:
            raise ValueError(f"FIB entry for {self.prefix} has no egress links")


class _PrefixTable(Generic[V]):
    """Longest-prefix match over exact-match tables.

    One dict per (address family, prefix length), keyed by the masked
    network address as an int.  A match masks the address once per length
    present and probes the tables longest first, so its cost grows with
    the number of distinct prefix lengths, not with the number of prefixes.
    """

    def __init__(self) -> None:
        self._tables: dict[tuple[int, int], dict[int, V]] = {}
        #: family -> ((mask, table), ...) longest prefix first.
        self._probes: dict[int, tuple[tuple[int, dict[int, V]], ...]] = {}

    def insert(self, network: IPNetwork, value: V) -> None:
        key = (network.version, network.prefixlen)
        table = self._tables.get(key)
        if table is None:
            table = self._tables[key] = {}
            self._reindex()
        table[int(network.network_address)] = value

    def remove(self, network: IPNetwork) -> None:
        key = (network.version, network.prefixlen)
        table = self._tables[key]
        del table[int(network.network_address)]
        if not table:
            del self._tables[key]
            self._reindex()

    def match(self, address: IPAddress) -> Optional[V]:
        """The value of the longest prefix covering ``address``, or None."""
        value = int(address)
        for mask, table in self._probes.get(address.version, ()):
            hit = table.get(value & mask)
            if hit is not None:
                return hit
        return None

    def _reindex(self) -> None:
        probes: dict[int, list[tuple[int, dict[int, V]]]] = {}
        for (version, length), table in sorted(
            self._tables.items(), key=lambda item: item[0][1], reverse=True
        ):
            bits = 32 if version == 4 else 128
            mask = (1 << bits) - (1 << (bits - length))
            probes.setdefault(version, []).append((mask, table))
        self._probes = {version: tuple(pairs) for version, pairs in probes.items()}


def _network(prefix: Union[str, IPNetwork]) -> IPNetwork:
    return ipaddress.ip_network(prefix) if isinstance(prefix, str) else prefix


class Fib:
    """Longest-prefix-match forwarding table.

    Routes live in exact-match tables, one per (address family, prefix
    length), probed longest first; a lookup costs one dict probe per
    distinct prefix length.
    """

    def __init__(self) -> None:
        #: Installed entries in installation order.
        self._entries: dict[IPNetwork, FibEntry] = {}
        self._table: _PrefixTable[FibEntry] = _PrefixTable()

    def add_route(
        self, prefix: Union[str, IPNetwork], links: Union["Link", Sequence["Link"]]
    ) -> FibEntry:
        """Install (or replace) the route for ``prefix``.

        Accepts a single link or a sequence (an ECMP group).
        """
        network = _network(prefix)
        from .links import Link as _Link  # local import to avoid cycle

        link_list = [links] if isinstance(links, _Link) else list(links)
        self.remove_route(network)
        entry = FibEntry(prefix=network, links=link_list)
        self._entries[network] = entry
        self._table.insert(network, entry)
        return entry

    def remove_route(self, prefix: Union[str, IPNetwork]) -> bool:
        """Remove the exact route for ``prefix``; True if one existed."""
        network = _network(prefix)
        if self._entries.pop(network, None) is None:
            return False
        self._table.remove(network)
        return True

    def lookup(self, address: IPAddress) -> Optional[FibEntry]:
        """Longest-prefix match, or None if no route covers ``address``."""
        return self._table.match(address)

    def routes(self) -> list[FibEntry]:
        """All installed entries, longest prefix first."""
        return sorted(
            self._entries.values(), key=lambda e: e.prefix.prefixlen, reverse=True
        )

    def __len__(self) -> int:
        return len(self._entries)


@dataclass
class NodeStats:
    """Per-node counters."""

    received: int = 0
    forwarded: int = 0
    delivered_local: int = 0
    dropped_no_route: int = 0
    dropped_ttl: int = 0
    consumed_by_program: int = 0


class Node:
    """Base node: a name, a wall clock, and a receive hook."""

    def __init__(self, name: str, sim: "Simulator", clock_offset: float = 0.0):
        self.name = name
        self.sim = sim
        self.clock = NodeClock(sim.clock, offset=clock_offset)
        self.stats = NodeStats()

    def receive(self, packet: Packet, ingress: Optional["Link"] = None) -> None:
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.name})"


class HostNode(Node):
    """An end host: delivers every received packet to an application sink."""

    def __init__(
        self,
        name: str,
        sim: "Simulator",
        clock_offset: float = 0.0,
        on_packet: Optional[Callable[[Packet, float], None]] = None,
    ) -> None:
        super().__init__(name, sim, clock_offset)
        self.received_packets: list[Packet] = []
        self._on_packet = on_packet
        #: Retain packets for inspection; long runs can disable this.
        self.keep_packets = True

    def receive(self, packet: Packet, ingress: Optional["Link"] = None) -> None:
        self.stats.received += 1
        self.stats.delivered_local += 1
        if self.keep_packets:
            self.received_packets.append(packet)
        if self._on_packet is not None:
            self._on_packet(packet, self.sim.now)


class RouterNode(Node):
    """Longest-prefix-match router with ECMP groups.

    Addresses in ``local_addresses`` terminate here (the packet is handed to
    :meth:`deliver_local`, which subclasses override).
    """

    def __init__(
        self,
        name: str,
        sim: "Simulator",
        clock_offset: float = 0.0,
        ecmp_salt: int = 0,
    ) -> None:
        super().__init__(name, sim, clock_offset)
        self.fib = Fib()
        self._local: _PrefixTable[IPNetwork] = _PrefixTable()
        self.ecmp_salt = ecmp_salt

    def add_local_network(self, prefix: Union[str, IPNetwork]) -> None:
        """Declare a prefix as locally terminated (host-facing)."""
        network = _network(prefix)
        self._local.insert(network, network)

    def is_local(self, address: IPAddress) -> bool:
        return self._local.match(address) is not None

    def receive(self, packet: Packet, ingress: Optional["Link"] = None) -> None:
        self.stats.received += 1
        self.process(packet, ingress)

    def process(self, packet: Packet, ingress: Optional["Link"]) -> None:
        """Route the packet: local delivery or FIB forwarding."""
        if self.is_local(packet.dst):
            self.stats.delivered_local += 1
            self.deliver_local(packet, ingress)
            return
        self.forward(packet)

    def deliver_local(self, packet: Packet, ingress: Optional["Link"]) -> None:
        """Terminate a packet addressed to this node.  Default: record only."""

    def forward(self, packet: Packet) -> None:
        """FIB lookup + ECMP selection + transmit."""
        entry = self.fib.lookup(packet.dst)
        if entry is None:
            self.stats.dropped_no_route += 1
            return
        try:
            packet.decrement_ttl()
        except ValueError:
            self.stats.dropped_ttl += 1
            return
        if len(entry.links) == 1:
            link = entry.links[0]
        else:
            index = select_index(packet.five_tuple(), len(entry.links), self.ecmp_salt)
            link = entry.links[index]
        link.transmit(self.sim, packet)
        self.stats.forwarded += 1


class ProgrammableSwitch(RouterNode):
    """A border switch running attachable data-plane programs.

    Mirrors the structure of the paper's eBPF deployment: an *ingress*
    program sees packets arriving from the wide area or the edge before
    routing, an *egress* program sees packets just before transmission.
    Programs may rewrite the header fields (encap/decap) or consume packets.

    Program ordering is the attachment order; each program receives the
    output of the previous one.
    """

    def __init__(
        self,
        name: str,
        sim: "Simulator",
        clock_offset: float = 0.0,
        ecmp_salt: int = 0,
    ) -> None:
        super().__init__(name, sim, clock_offset, ecmp_salt)
        self.ingress_programs: list[Program] = []
        self.egress_programs: list[Program] = []

    def attach_ingress(self, program: Program) -> None:
        """Run ``program`` on every packet entering this switch."""
        self.ingress_programs.append(program)

    def attach_egress(self, program: Program) -> None:
        """Run ``program`` on every packet about to be forwarded."""
        self.egress_programs.append(program)

    def receive(self, packet: Packet, ingress: Optional["Link"] = None) -> None:
        self.stats.received += 1
        current: Optional[Packet] = packet
        for program in self.ingress_programs:
            current = program(self, current)
            if current is None:
                self.stats.consumed_by_program += 1
                return
        self.process(current, ingress)

    def forward(self, packet: Packet) -> None:
        current: Optional[Packet] = packet
        for program in self.egress_programs:
            current = program(self, current)
            if current is None:
                self.stats.consumed_by_program += 1
                return
        super().forward(current)
