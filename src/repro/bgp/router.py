"""A BGP speaker: sessions, RIBs, decision process, export processing.

Routers are identified by *name*, not ASN, because the Vultr scenario has
two border routers sharing AS 20473 (one per datacenter).  Paths are still
sequences of ASNs; the ``allowas_in`` knob (a real BGP feature) lets a
router accept paths containing its own ASN, which is how the two Vultr
routers hear each other's tenant prefixes across the public core.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

from .attributes import AsPath, RouteAttributes
from .communities import TrafficControlInterpreter
from .messages import Announcement, Prefix, Withdrawal, as_prefix, prefix_text
from .policy import (
    ExportPolicy,
    ImportPolicy,
    Relationship,
    default_local_pref,
    gao_rexford_allows_export,
)
from .rib import AdjRibIn, AdjRibOut, LocRib, RibEntry

__all__ = ["Neighbor", "BgpRouter"]


@dataclass
class Neighbor:
    """An eBGP session to an adjacent router.

    Attributes:
        name: the adjacent router's name.
        asn: its ASN (used for AS-path prepending/interpretation).
        relationship: business relationship from the local viewpoint.
        preference: operator tie-break rank (lower wins).  This models the
            paper's observation that Vultr's routers prefer NTT, then
            Telia, then GTT, then the rest.
    """

    name: str
    asn: int
    relationship: Relationship
    preference: int = 1000


class BgpRouter:
    """One BGP speaker with full import/decision/export processing.

    Args:
        name: unique router name ("vultr-ny", "ntt", ...).
        asn: the ASN this router speaks for.
        allowas_in: accept routes whose path already contains ``asn``.
        strip_private_on_export: remove private ASNs from exported paths,
            as Vultr does for its BGP tenants (paper footnote 2).
    """

    def __init__(
        self,
        name: str,
        asn: int,
        allowas_in: bool = False,
        strip_private_on_export: bool = True,
    ) -> None:
        self.name = name
        self.asn = asn
        self.allowas_in = allowas_in
        self.strip_private_on_export = strip_private_on_export
        self.neighbors: dict[str, Neighbor] = {}
        self.adj_rib_in = AdjRibIn()
        self.loc_rib = LocRib()
        self.adj_rib_out = AdjRibOut()
        self.originated: dict[Prefix, RouteAttributes] = {}
        self.interpreter = TrafficControlInterpreter(asn)
        self.import_policies: list[ImportPolicy] = []
        self.export_policies: list[ExportPolicy] = []
        #: Prefixes whose exports may have changed since the network last
        #: drained this router — the incremental engine's work queue.
        self._pending_export: set[Prefix] = set()
        #: Adj-RIB-In generation per prefix, bumped on every accepted
        #: change; :meth:`run_decision` skips prefixes whose decision
        #: already reflects the current generation.
        self._rib_epoch: dict[Prefix, int] = {}
        self._decided_epoch: dict[Prefix, int] = {}
        #: Profiling counters (cheap ints, always on).
        self.decisions_run = 0
        self.decisions_memoized = 0

    # -- session management ---------------------------------------------------

    def add_neighbor(
        self,
        name: str,
        asn: int,
        relationship: Relationship,
        preference: Optional[int] = None,
    ) -> Neighbor:
        """Register an eBGP session (one side; the peer registers its own)."""
        if name in self.neighbors:
            raise ValueError(f"{self.name}: duplicate neighbor {name}")
        neighbor = Neighbor(
            name=name,
            asn=asn,
            relationship=relationship,
            preference=preference if preference is not None else 1000,
        )
        self.neighbors[name] = neighbor
        return neighbor

    def remove_neighbor(self, name: str) -> None:
        """Tear down a session and flush its routes."""
        self.neighbors.pop(name, None)
        flushed = self.adj_rib_in.prefixes_from(name)
        self.adj_rib_in.remove_neighbor(name)
        for prefix in flushed:
            self._bump_epoch(prefix)
        self.run_decision()

    # -- origination ------------------------------------------------------------

    def originate(
        self,
        prefix: Union[str, Prefix],
        attributes: Optional[RouteAttributes] = None,
    ) -> None:
        """Originate (or re-originate with new attributes) a prefix.

        ``attributes.as_path`` holds any *poisoned* tail; the router's own
        ASN is prepended at export time, so a normal origination passes an
        empty path.
        """
        normalized = as_prefix(prefix)
        attrs = attributes or RouteAttributes()
        if self.originated.get(normalized) != attrs:
            self.originated[normalized] = attrs
            self._pending_export.add(normalized)

    def withdraw_origination(self, prefix: Union[str, Prefix]) -> bool:
        """Stop originating ``prefix``.  True if it was being originated."""
        normalized = as_prefix(prefix)
        if self.originated.pop(normalized, None) is None:
            return False
        self._pending_export.add(normalized)
        return True

    # -- import side ------------------------------------------------------------

    def receive_announcement(self, from_name: str, announcement: Announcement) -> bool:
        """Process an UPDATE from a neighbor.  Returns True if RIBs changed."""
        neighbor = self._require_neighbor(from_name)
        attrs = announcement.attributes
        if attrs.as_path.contains(self.asn) and not self.allowas_in:
            # Standard AS-path loop detection; also what defeats a
            # poisoned announcement (repro.bgp.poisoning).  The rejected
            # update implicitly replaces any earlier accepted route from
            # this neighbor, so the stale entry must go *and* the
            # decision must rerun.
            return self._reject_update(from_name, announcement.prefix)
        for policy in self.import_policies:
            if not policy(from_name, announcement.prefix, attrs):
                return self._reject_update(from_name, announcement.prefix)
        entry = RibEntry(
            prefix=announcement.prefix,
            attributes=attrs.with_local_pref(
                default_local_pref(neighbor.relationship)
            ),
            neighbor=from_name,
            relationship=neighbor.relationship,
        )
        changed = self.adj_rib_in.upsert(entry)
        if changed:
            self._bump_epoch(announcement.prefix)
            changed = self._decide(announcement.prefix) or changed
        return changed

    def _reject_update(self, from_name: str, prefix: Prefix) -> bool:
        """Drop a rejected update's predecessor and re-decide."""
        changed = self.adj_rib_in.remove(from_name, prefix)
        if changed:
            self._bump_epoch(prefix)
            self._decide(prefix)
        return changed

    def receive_withdrawal(self, from_name: str, withdrawal: Withdrawal) -> bool:
        """Process a withdrawal.  Returns True if RIBs changed."""
        self._require_neighbor(from_name)
        changed = self.adj_rib_in.remove(from_name, withdrawal.prefix)
        if changed:
            self._bump_epoch(withdrawal.prefix)
            self._decide(withdrawal.prefix)
        return changed

    # -- decision process ---------------------------------------------------------

    def run_decision(self) -> bool:
        """Re-run best-path selection for every known prefix.

        Prefixes whose Adj-RIB-In is unchanged since their last decision
        (same epoch) are skipped: re-ranking an unchanged candidate set
        cannot alter the outcome, because the decision is a pure function
        of the candidates and the (stable) neighbor preferences.
        """
        changed = False
        prefixes = self.adj_rib_in.prefixes() | set(self.loc_rib.routes())
        # Sorted so decision order never depends on set iteration order
        # (TNG005; the replay-determinism invariant).
        for prefix in sorted(prefixes, key=prefix_text):
            if self._decided_epoch.get(prefix) == self._rib_epoch.get(prefix, 0):
                self.decisions_memoized += 1
                continue
            changed = self._decide(prefix) or changed
        return changed

    def _bump_epoch(self, prefix: Prefix) -> None:
        self._rib_epoch[prefix] = self._rib_epoch.get(prefix, 0) + 1

    def _decide(self, prefix: Prefix) -> bool:
        self.decisions_run += 1
        self._decided_epoch[prefix] = self._rib_epoch.get(prefix, 0)
        candidates = self.adj_rib_in.candidates(prefix)
        if not candidates:
            changed = self.loc_rib.set_best(prefix, None)
        else:
            best = min(candidates, key=self._decision_key)
            changed = self.loc_rib.set_best(prefix, best)
        if changed:
            self._pending_export.add(prefix)
        return changed

    def _decision_key(self, entry: RibEntry) -> tuple:
        """BGP decision process, expressed as a sort key (lower wins).

        Order: highest LOCAL_PREF, shortest AS path, lowest origin code,
        lowest MED, operator neighbor preference, neighbor name.
        """
        neighbor = self.neighbors[entry.neighbor]
        return (
            -entry.attributes.local_pref,
            entry.attributes.as_path.length,
            int(entry.attributes.origin),
            entry.attributes.med,
            neighbor.preference,
            entry.neighbor,
        )

    def best_route(self, prefix: Union[str, Prefix]) -> Optional[RibEntry]:
        """The Loc-RIB best route for ``prefix`` (None if unreachable)."""
        return self.loc_rib.best(as_prefix(prefix))

    def best_path(self, prefix: Union[str, Prefix]) -> Optional[AsPath]:
        """Convenience: the best route's AS path."""
        route = self.best_route(prefix)
        return route.attributes.as_path if route else None

    # -- export side ------------------------------------------------------------

    def exports_for(self, neighbor_name: str) -> dict[Prefix, Announcement]:
        """Compute the full set of announcements for one neighbor.

        Applies, in order: Gao–Rexford valley-freedom, split horizon,
        provider traffic-control communities (only interpreted when this
        router's ASN is the community's admin), custom export policies,
        private-ASN stripping, and AS-path prepending.
        """
        neighbor = self._require_neighbor(neighbor_name)
        exports: dict[Prefix, Announcement] = {}
        for prefix, best in sorted(
            self.loc_rib.routes().items(), key=lambda kv: prefix_text(kv[0])
        ):
            if prefix in self.originated:
                continue  # our origination supersedes the learned route
            if best.neighbor == neighbor_name:
                continue  # split horizon
            if not gao_rexford_allows_export(
                best.relationship, neighbor.relationship
            ):
                continue
            announcement = self._build_export(
                prefix, best.attributes, neighbor
            )
            if announcement is not None:
                exports[prefix] = announcement
        for prefix, attrs in sorted(
            self.originated.items(), key=lambda kv: prefix_text(kv[0])
        ):
            announcement = self._build_export(prefix, attrs, neighbor)
            if announcement is not None:
                exports[prefix] = announcement
        return exports

    def export_for(
        self, neighbor_name: str, prefix: Prefix
    ) -> Optional[Announcement]:
        """Export processing for a single (neighbor, prefix) pair.

        The same pipeline as :meth:`exports_for` restricted to one prefix
        — the incremental engine's unit of work.  Returns ``None`` when
        nothing is exportable (which the engine turns into a withdrawal if
        something was previously advertised).
        """
        neighbor = self._require_neighbor(neighbor_name)
        originated = self.originated.get(prefix)
        if originated is not None:
            # our origination supersedes any learned route
            return self._build_export(prefix, originated, neighbor)
        best = self.loc_rib.best(prefix)
        if best is None:
            return None
        if best.neighbor == neighbor_name:
            return None  # split horizon
        if not gao_rexford_allows_export(
            best.relationship, neighbor.relationship
        ):
            return None
        return self._build_export(prefix, best.attributes, neighbor)

    def drain_export_changes(self) -> tuple[Prefix, ...]:
        """Take (and clear) the prefixes whose exports may have changed.

        Sorted by prefix string so the engine's delivery order never
        depends on set iteration order (TNG005; the replay-determinism
        invariant).
        """
        if not self._pending_export:
            return ()
        changed = tuple(sorted(self._pending_export, key=prefix_text))
        self._pending_export.clear()
        return changed

    def clear_pending_exports(self) -> None:
        """Discard queued export work (a snapshot restore, like the
        full-scan test oracle's fixpoint, leaves nothing to ripple)."""
        self._pending_export.clear()

    def _build_export(
        self, prefix: Prefix, attrs: RouteAttributes, neighbor: Neighbor
    ) -> Optional[Announcement]:
        action = self.interpreter.evaluate(
            attrs,
            neighbor.asn,
            target_is_customer=neighbor.relationship is Relationship.CUSTOMER,
        )
        if not action.allow:
            return None
        for policy in self.export_policies:
            if not policy(neighbor.name, prefix, attrs):
                return None
        path = attrs.as_path
        if self.strip_private_on_export:
            path = path.strip_private()
        path = path.prepend(self.asn, 1 + action.prepend)
        exported = RouteAttributes(
            as_path=path,
            origin=attrs.origin,
            local_pref=100,  # LOCAL_PREF is not carried across eBGP
            med=0,
            communities=attrs.communities,
            large_communities=attrs.large_communities,
        )
        return Announcement(prefix=prefix, attributes=exported)

    # -- helpers ------------------------------------------------------------

    def _require_neighbor(self, name: str) -> Neighbor:
        try:
            return self.neighbors[name]
        except KeyError:
            raise KeyError(
                f"{self.name}: no session with {name!r}; "
                f"have {sorted(self.neighbors)}"
            ) from None

    def __repr__(self) -> str:
        return f"BgpRouter({self.name}, AS{self.asn})"
