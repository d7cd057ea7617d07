"""Oracle FIB: one list, sorted longest prefix first, scanned per lookup.

This is the original :class:`repro.netsim.node.Fib`, before routes moved
into exact-match tables per prefix length.  ``add_route`` drops any route
for the same prefix, appends, and re-sorts by prefix length (stably, so
equal lengths keep installation order); ``lookup`` returns the first
entry of the address's family whose prefix contains the address.
:func:`is_local` is the original ``RouterNode.is_local`` scan.
"""

from __future__ import annotations

import ipaddress
from typing import Iterable, Optional, Sequence, Union

from repro.netsim.node import FibEntry, IPNetwork
from repro.netsim.packet import IPAddress


def _network(prefix: Union[str, IPNetwork]) -> IPNetwork:
    return ipaddress.ip_network(prefix) if isinstance(prefix, str) else prefix


class OracleFib:
    """Linear-scan longest-prefix match."""

    def __init__(self) -> None:
        self._entries: list[FibEntry] = []

    def add_route(self, prefix: Union[str, IPNetwork], links: Sequence[object]) -> FibEntry:
        network = _network(prefix)
        self.remove_route(network)
        entry = FibEntry(prefix=network, links=list(links))
        self._entries.append(entry)
        self._entries.sort(key=lambda e: e.prefix.prefixlen, reverse=True)
        return entry

    def remove_route(self, prefix: Union[str, IPNetwork]) -> bool:
        network = _network(prefix)
        before = len(self._entries)
        self._entries = [e for e in self._entries if e.prefix != network]
        return len(self._entries) != before

    def lookup(self, address: IPAddress) -> Optional[FibEntry]:
        for entry in self._entries:
            if entry.prefix.version == address.version and address in entry.prefix:
                return entry
        return None

    def routes(self) -> list[FibEntry]:
        return list(self._entries)

    def __len__(self) -> int:
        return len(self._entries)


def is_local(networks: Iterable[IPNetwork], address: IPAddress) -> bool:
    """True when any of ``networks`` contains ``address``."""
    return any(n.version == address.version and address in n for n in networks)
