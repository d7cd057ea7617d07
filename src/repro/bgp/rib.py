"""Routing information bases: Adj-RIB-In, Loc-RIB, Adj-RIB-Out."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .attributes import AsPath, RouteAttributes
from .messages import Announcement, Prefix
from .policy import Relationship

__all__ = ["RibEntry", "AdjRibIn", "LocRib", "AdjRibOut"]


@dataclass(frozen=True)
class RibEntry:
    """One candidate route: a prefix as heard from one neighbor."""

    prefix: Prefix
    attributes: RouteAttributes
    neighbor: str
    relationship: Relationship

    @property
    def as_path(self) -> AsPath:
        return self.attributes.as_path


class AdjRibIn:
    """Routes received from each neighbor, pre-decision.

    Two views of one table:

    * the flat ``(neighbor, prefix) -> RibEntry`` store is authoritative
      and is also the snapshot form, so :meth:`snapshot` and
      :meth:`restore` stay a single shallow dict copy;
    * a live ``prefix -> (neighbor, ...)`` index of the neighbors each
      prefix is heard from, sorted by name.  :meth:`upsert`,
      :meth:`remove` and :meth:`remove_neighbor` keep it in step and
      :meth:`restore` rebuilds it; it is never part of a snapshot.  It
      holds names only (tuples of ``str``, which the cyclic garbage
      collector stops tracking), so every entry lives in the flat store
      alone.

    :meth:`candidates` reads the index instead of scanning the table, and
    returns a prefix's routes in neighbor-name order.
    """

    def __init__(self) -> None:
        self._routes: dict[tuple[str, Prefix], RibEntry] = {}
        self._neighbors_of: dict[Prefix, tuple[str, ...]] = {}

    def upsert(self, entry: RibEntry) -> bool:
        """Install/replace a route.  Returns True if anything changed."""
        key = (entry.neighbor, entry.prefix)
        current = self._routes.get(key)
        if current == entry:
            return False
        self._routes[key] = entry
        if current is None:
            names = self._neighbors_of.get(entry.prefix, ()) + (entry.neighbor,)
            self._neighbors_of[entry.prefix] = tuple(sorted(names))
        return True

    def remove(self, neighbor: str, prefix: Prefix) -> bool:
        """Drop the route for ``prefix`` from ``neighbor`` if present."""
        if self._routes.pop((neighbor, prefix), None) is None:
            return False
        self._unindex(neighbor, prefix)
        return True

    def remove_neighbor(self, neighbor: str) -> int:
        """Session teardown: drop every route from ``neighbor``."""
        keys = [k for k in self._routes if k[0] == neighbor]
        for key in keys:
            del self._routes[key]
            self._unindex(*key)
        return len(keys)

    def _unindex(self, neighbor: str, prefix: Prefix) -> None:
        names = tuple(n for n in self._neighbors_of[prefix] if n != neighbor)
        if names:
            self._neighbors_of[prefix] = names
        else:
            del self._neighbors_of[prefix]

    def get(self, neighbor: str, prefix: Prefix) -> Optional[RibEntry]:
        return self._routes.get((neighbor, prefix))

    def candidates(self, prefix: Prefix) -> list[RibEntry]:
        """All routes for ``prefix``, one per neighbor, in neighbor-name
        order."""
        routes = self._routes
        return [routes[(n, prefix)] for n in self._neighbors_of.get(prefix, ())]

    def prefixes(self) -> set[Prefix]:
        return set(self._neighbors_of)

    def prefixes_from(self, neighbor: str) -> set[Prefix]:
        return {p for (n, p) in self._routes if n == neighbor}

    def snapshot(self) -> dict[tuple[str, Prefix], RibEntry]:
        """Copy of the flat table.  Entries are frozen, so a shallow dict
        copy is a full copy-on-write fork of this RIB's state."""
        return dict(self._routes)

    def restore(self, state: dict[tuple[str, Prefix], RibEntry]) -> None:
        """Replace the table with a previously captured snapshot and
        rebuild the index from it."""
        self._routes = dict(state)
        grouped: dict[Prefix, list[str]] = {}
        for neighbor, prefix in self._routes:
            grouped.setdefault(prefix, []).append(neighbor)
        self._neighbors_of = {p: tuple(sorted(ns)) for p, ns in grouped.items()}

    def __len__(self) -> int:
        return len(self._routes)


class LocRib:
    """Best route per prefix, post-decision."""

    def __init__(self) -> None:
        self._best: dict[Prefix, RibEntry] = {}

    def set_best(self, prefix: Prefix, entry: Optional[RibEntry]) -> bool:
        """Record the decision outcome.  Returns True on change."""
        current = self._best.get(prefix)
        if entry is None:
            if current is None:
                return False
            del self._best[prefix]
            return True
        if current == entry:
            return False
        self._best[prefix] = entry
        return True

    def best(self, prefix: Prefix) -> Optional[RibEntry]:
        return self._best.get(prefix)

    def routes(self) -> dict[Prefix, RibEntry]:
        return dict(self._best)

    def snapshot(self) -> dict[Prefix, RibEntry]:
        """Copy-on-write fork of the best-route table (entries frozen)."""
        return dict(self._best)

    def restore(self, state: dict[Prefix, RibEntry]) -> None:
        """Replace the table with a previously captured snapshot."""
        self._best = dict(state)

    def __len__(self) -> int:
        return len(self._best)


class AdjRibOut:
    """What we last advertised to each neighbor (for diff-based updates)."""

    def __init__(self) -> None:
        self._sent: dict[tuple[str, Prefix], Announcement] = {}

    def last_sent(self, neighbor: str, prefix: Prefix) -> Optional[Announcement]:
        return self._sent.get((neighbor, prefix))

    def record(self, neighbor: str, announcement: Announcement) -> None:
        self._sent[(neighbor, announcement.prefix)] = announcement

    def forget(self, neighbor: str, prefix: Prefix) -> None:
        self._sent.pop((neighbor, prefix), None)

    def prefixes_to(self, neighbor: str) -> set[Prefix]:
        return {p for (n, p) in self._sent if n == neighbor}

    def clear_neighbor(self, neighbor: str) -> None:
        """Session teardown: forget everything advertised to ``neighbor``."""
        for key in [k for k in self._sent if k[0] == neighbor]:
            del self._sent[key]

    def snapshot(self) -> dict[tuple[str, Prefix], Announcement]:
        """Copy-on-write fork of the advertised table (entries frozen)."""
        return dict(self._sent)

    def restore(self, state: dict[tuple[str, Prefix], Announcement]) -> None:
        """Replace the table with a previously captured snapshot."""
        self._sent = dict(state)
