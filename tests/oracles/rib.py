"""Oracle Adj-RIB-In: one flat table, scanned and sorted on every read.

This is the original :class:`repro.bgp.rib.AdjRibIn`, before the table
was grouped by prefix.  It keys every route by ``(neighbor, prefix)``,
and ``candidates`` sorts the whole table by that pair and keeps the
matching prefix, so its order is neighbor-name order by construction.
The prefix half of the sort key is its text: ``ipaddress`` refuses to
order an IPv4 network against an IPv6 one, which made the original raise
``TypeError`` once one neighbor sent both families.  Within one prefix
the secondary key never decides.

Production keeps ``prefix -> (RibEntry, ...)`` rows sorted by neighbor
name, and its snapshots have that form; :func:`flatten` turns one into
this oracle's ``(neighbor, prefix)`` form so the two compare exactly.
"""

from __future__ import annotations

from typing import Optional

from repro.bgp.messages import Prefix
from repro.bgp.rib import RibEntry


def flatten(
    state: dict[Prefix, tuple[RibEntry, ...]],
) -> dict[tuple[str, Prefix], RibEntry]:
    """A production Adj-RIB-In snapshot in the flat ``(neighbor, prefix)``
    form.  Fails unless every row is non-empty, holds only its own
    prefix, and is sorted by neighbor name with no name twice."""
    flat: dict[tuple[str, Prefix], RibEntry] = {}
    for prefix, row in state.items():
        names = [entry.neighbor for entry in row]
        assert names and names == sorted(set(names)), (prefix, names)
        for entry in row:
            assert entry.prefix == prefix, (prefix, entry)
            flat[(entry.neighbor, prefix)] = entry
    return flat


class FlatAdjRibIn:
    def __init__(self) -> None:
        self._routes: dict[tuple[str, Prefix], RibEntry] = {}

    def upsert(self, entry: RibEntry) -> bool:
        key = (entry.neighbor, entry.prefix)
        if self._routes.get(key) == entry:
            return False
        self._routes[key] = entry
        return True

    def remove(self, neighbor: str, prefix: Prefix) -> bool:
        return self._routes.pop((neighbor, prefix), None) is not None

    def remove_neighbor(self, neighbor: str) -> int:
        keys = [k for k in self._routes if k[0] == neighbor]
        for key in keys:
            del self._routes[key]
        return len(keys)

    def get(self, neighbor: str, prefix: Prefix) -> Optional[RibEntry]:
        return self._routes.get((neighbor, prefix))

    def candidates(self, prefix: Prefix) -> list[RibEntry]:
        ordered = sorted(
            self._routes.items(), key=lambda kv: (kv[0][0], str(kv[0][1]))
        )
        return [e for (_, p), e in ordered if p == prefix]

    def prefixes(self) -> set[Prefix]:
        return {prefix for (_, prefix) in self._routes}

    def prefixes_from(self, neighbor: str) -> set[Prefix]:
        return {p for (n, p) in self._routes if n == neighbor}

    def snapshot(self) -> dict[tuple[str, Prefix], RibEntry]:
        return dict(self._routes)

    def restore(self, state: dict[tuple[str, Prefix], RibEntry]) -> None:
        self._routes = dict(state)

    def __len__(self) -> int:
        return len(self._routes)
