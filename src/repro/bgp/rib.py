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

    One table, ``prefix -> (RibEntry, ...)``: each row holds a prefix's
    routes, one per neighbor, sorted by neighbor name.  :meth:`candidates`
    is the row itself, so a decision reads one dict entry.  Rows are
    tuples of frozen entries, which makes the table its own snapshot form:
    :meth:`snapshot` and :meth:`restore` are each a single shallow dict
    copy.  Lookups by neighbor scan one prefix's short row, or every row
    on a session teardown.
    """

    def __init__(self) -> None:
        self._rows: dict[Prefix, tuple[RibEntry, ...]] = {}

    def upsert(self, entry: RibEntry) -> bool:
        """Install/replace a route.  Returns True if anything changed."""
        prefix, neighbor = entry.prefix, entry.neighbor
        row = self._rows.get(prefix, ())
        for i, current in enumerate(row):
            if current.neighbor < neighbor:
                continue
            if current.neighbor != neighbor:
                self._rows[prefix] = row[:i] + (entry,) + row[i:]
            elif current == entry:
                return False
            else:
                self._rows[prefix] = row[:i] + (entry,) + row[i + 1 :]
            return True
        self._rows[prefix] = row + (entry,)
        return True

    def remove(self, neighbor: str, prefix: Prefix) -> bool:
        """Drop the route for ``prefix`` from ``neighbor`` if present."""
        row = self._rows.get(prefix, ())
        kept = tuple(e for e in row if e.neighbor != neighbor)
        if len(kept) == len(row):
            return False
        if kept:
            self._rows[prefix] = kept
        else:
            del self._rows[prefix]
        return True

    def remove_neighbor(self, neighbor: str) -> int:
        """Session teardown: drop every route from ``neighbor``."""
        prefixes = self.prefixes_from(neighbor)
        for prefix in prefixes:
            self.remove(neighbor, prefix)
        return len(prefixes)

    def get(self, neighbor: str, prefix: Prefix) -> Optional[RibEntry]:
        for entry in self._rows.get(prefix, ()):
            if entry.neighbor == neighbor:
                return entry
        return None

    def candidates(self, prefix: Prefix) -> list[RibEntry]:
        """All routes for ``prefix``, one per neighbor, in neighbor-name
        order."""
        return list(self._rows.get(prefix, ()))

    def prefixes(self) -> set[Prefix]:
        return set(self._rows)

    def prefixes_from(self, neighbor: str) -> set[Prefix]:
        return {
            prefix
            for prefix, row in self._rows.items()
            if any(e.neighbor == neighbor for e in row)
        }

    def snapshot(self) -> dict[Prefix, tuple[RibEntry, ...]]:
        """Copy of the table.  Rows are tuples of frozen entries, so a
        shallow dict copy is a full copy-on-write fork of this RIB."""
        return dict(self._rows)

    def restore(self, state: dict[Prefix, tuple[RibEntry, ...]]) -> None:
        """Replace the table with a previously captured snapshot."""
        self._rows = dict(state)

    def __len__(self) -> int:
        return sum(len(row) for row in self._rows.values())


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
