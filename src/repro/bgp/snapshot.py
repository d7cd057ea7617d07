"""Convergence snapshot cache: fork converged control-plane state.

The discovery procedure and fault replays keep returning a network to
configurations it has already converged from — every suppression round
ends by withdrawing the probe and re-converging to the *base* state, and
a flapping fault alternates between the same two configurations.  Since
the fixpoint is a pure function of the network configuration (routers,
sessions, originations — Gao–Rexford plus deterministic tie-breaks make
it unique), converged state can be cached against a canonical fingerprint
of that configuration and restored in O(state) instead of re-propagating.

Snapshots are copy-on-write in the practical sense: every RIB entry,
announcement, and attribute bundle is a frozen dataclass, so capturing or
restoring a snapshot copies only the per-router dicts that index them,
never the entries themselves.

Custom import/export policies are opaque callables — they cannot be
fingerprinted — so a network using them is never cached (the cache
degrades to plain :meth:`BgpNetwork.converge`).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Optional

from .attributes import RouteAttributes
from .messages import Announcement, Prefix, prefix_text
from .network import BgpNetwork
from .rib import RibEntry

__all__ = [
    "NetworkSnapshot",
    "SnapshotCache",
    "network_fingerprint",
    "capture_snapshot",
    "restore_snapshot",
]


def _attr_token(attrs: RouteAttributes) -> str:
    """Canonical text form of an attribute bundle for fingerprinting."""
    communities = ",".join(sorted(str(c) for c in attrs.communities))
    large = ",".join(sorted(str(c) for c in attrs.large_communities))
    return (
        f"{attrs.as_path}|{int(attrs.origin)}|{attrs.local_pref}"
        f"|{attrs.med}|{communities}|{large}"
    )


def network_fingerprint(network: BgpNetwork) -> Optional[str]:
    """Canonical digest of everything the fixpoint depends on.

    Covers routers (name, ASN, knobs), sessions (endpoints, relationship,
    preferences), and originations (prefix plus full attributes).  Returns
    ``None`` — *uncacheable* — when any router carries custom import or
    export policies, since opaque callables cannot be hashed canonically.
    """
    digest = hashlib.sha256()
    for name in sorted(network.routers):
        router = network.routers[name]
        if router.import_policies or router.export_policies:
            return None
        digest.update(
            f"R|{name}|{router.asn}|{int(router.allowas_in)}"
            f"|{int(router.strip_private_on_export)}\n".encode()
        )
        originated = sorted(
            (prefix_text(prefix), attrs)
            for prefix, attrs in router.originated.items()
        )
        # Texts are unique per router, so the attributes never compare.
        for text, attrs in originated:
            digest.update(f"O|{name}|{text}|{_attr_token(attrs)}\n".encode())
    for a, b in sorted(network._session_meta):
        rel, a_pref, b_pref = network._session_meta[(a, b)]
        digest.update(f"S|{a}|{b}|{rel.name}|{a_pref}|{b_pref}\n".encode())
    return digest.hexdigest()


@dataclass(frozen=True)
class _RouterState:
    """One router's converged state: shallow copies of its four tables
    plus the decision-memoization epochs that must stay consistent with
    them."""

    adj_rib_in: dict[tuple[str, Prefix], RibEntry]
    loc_rib: dict[Prefix, RibEntry]
    adj_rib_out: dict[tuple[str, Prefix], Announcement]
    originated: dict[Prefix, RouteAttributes]
    rib_epoch: dict[Prefix, int]
    decided_epoch: dict[Prefix, int]


@dataclass(frozen=True)
class NetworkSnapshot:
    """A converged network state, restorable onto the same topology."""

    fingerprint: str
    routers: dict[str, _RouterState]


def capture_snapshot(
    network: BgpNetwork, fingerprint: Optional[str] = None
) -> NetworkSnapshot:
    """Fork the network's current (converged) state."""
    if fingerprint is None:
        fingerprint = network_fingerprint(network)
    if fingerprint is None:
        raise ValueError(
            "network with custom import/export policies is not snapshotable"
        )
    routers: dict[str, _RouterState] = {}
    for name, router in network.routers.items():
        routers[name] = _RouterState(
            adj_rib_in=router.adj_rib_in.snapshot(),
            loc_rib=router.loc_rib.snapshot(),
            adj_rib_out=router.adj_rib_out.snapshot(),
            originated=dict(router.originated),
            rib_epoch=dict(router._rib_epoch),
            decided_epoch=dict(router._decided_epoch),
        )
    return NetworkSnapshot(fingerprint=fingerprint, routers=routers)


def restore_snapshot(network: BgpNetwork, snapshot: NetworkSnapshot) -> None:
    """Load a captured state back onto the network.

    The snapshot is authoritative: queued incremental work describes
    mutations the captured state already reflects, so pending buffers are
    cleared.  Cumulative statistics (``total_rounds`` and friends) are
    deliberately left alone — a restore is not a convergence.
    """
    if set(snapshot.routers) != set(network.routers):
        raise ValueError("snapshot router set does not match this network")
    for name, state in snapshot.routers.items():
        router = network.routers[name]
        router.adj_rib_in.restore(state.adj_rib_in)
        router.loc_rib.restore(state.loc_rib)
        router.adj_rib_out.restore(state.adj_rib_out)
        router.originated = dict(state.originated)
        router._rib_epoch = dict(state.rib_epoch)
        router._decided_epoch = dict(state.decided_epoch)
        router.clear_pending_exports()
    network._pending_full_sync.clear()
    network.snapshot_restores += 1


class SnapshotCache:
    """An LRU cache of converged states keyed by network fingerprint.

    Drop-in accelerator for any ``network.converge()`` call site: use
    :meth:`converge` instead, and configurations already seen restore in
    O(state) with zero propagation waves.

    Args:
        capacity: snapshots retained (least recently used evicted first).
    """

    def __init__(self, capacity: int = 16) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._snapshots: dict[str, NetworkSnapshot] = {}
        self.hits = 0
        self.misses = 0
        self.bypasses = 0

    def __len__(self) -> int:
        return len(self._snapshots)

    def converge(self, network: BgpNetwork, max_rounds: int = 200) -> int:
        """Converge ``network``, restoring a cached fixpoint when one
        exists for its current configuration.

        Returns the wave count, 0 on a cache hit (no propagation ran).
        """
        key = network_fingerprint(network)
        if key is None:
            self.bypasses += 1
            return network.converge(max_rounds)
        snapshot = self._snapshots.get(key)
        if snapshot is not None:
            # Refresh LRU position.
            del self._snapshots[key]
            self._snapshots[key] = snapshot
            restore_snapshot(network, snapshot)
            self.hits += 1
            return 0
        waves = network.converge(max_rounds)
        self.misses += 1
        self._snapshots[key] = capture_snapshot(network, key)
        while len(self._snapshots) > self.capacity:
            del self._snapshots[next(iter(self._snapshots))]
        return waves

    def clear(self) -> None:
        """Drop every cached snapshot (counters are kept)."""
        self._snapshots.clear()
