"""AS-level topology and route propagation to convergence.

The engine deliberately ignores BGP timers (MRAI, convergence takes
"several minutes" in the paper — one reason BGP cannot do fast reroute).
Instead it computes the *converged* routing state: updates ripple from
router to router until a fixpoint.  Under Gao–Rexford policies with
deterministic tie-breaks the fixpoint exists and is unique, and reaching
it mirrors the "wait for BGP to propagate" step of the paper's discovery
procedure.

Wall-clock convergence latency is modeled separately: callers that care
(e.g. the route-change experiment) charge ``CONVERGENCE_DELAY_S`` per
convergence when translating control-plane activity onto the data-plane
timeline.

Propagation is a dirty-set work queue: routers buffer the prefixes whose
exports may have changed; each wave drains only those buffers and
delivers per-prefix deltas, so a single flapped session ripples outward
instead of re-evaluating the whole topology.  The full-scan reference
engine it is checked against (every round re-diffs every directed
session) lives in ``tests/oracles/bgp.py``; the engine-equivalence suite
holds the two to bit-exact identical routing state.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional, Union

from .attributes import AsPath
from .messages import Prefix, Withdrawal, as_prefix, prefix_text
from .policy import Relationship
from .router import BgpRouter

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..profiling.core import Profiler

__all__ = [
    "ConvergenceError",
    "BgpNetwork",
    "CONVERGENCE_DELAY_S",
]

#: Nominal wall-clock cost of one BGP convergence wave, for experiments
#: that put control-plane reactions on the data-plane timeline.  The paper
#: cites "BGP's several minute convergence time"; 180 s is a middle value.
CONVERGENCE_DELAY_S = 180.0


class ConvergenceError(RuntimeError):
    """Raised when propagation fails to reach a fixpoint (policy bug)."""


class BgpNetwork:
    """A set of BGP routers plus their sessions, with a propagation engine."""

    def __init__(self) -> None:
        self.routers: dict[str, BgpRouter] = {}
        #: Session establishment parameters, keyed by the (a, b) order
        #: :meth:`connect` was called with — what a session reset replays.
        self._session_meta: dict[
            tuple[str, str], tuple[Relationship, Optional[int], Optional[int]]
        ] = {}
        #: Directed sessions created since the last convergence; each gets
        #: a one-off full-table sync.
        self._pending_full_sync: list[tuple[str, str]] = []
        self.total_rounds = 0
        self.convergence_count = 0
        #: Profiling counters (cheap ints, always on).
        self.updates_delivered = 0
        self.withdrawals_delivered = 0
        self.routers_scanned = 0
        self.snapshot_restores = 0
        #: Optional attached profiler; when set, convergences are timed.
        self.profiler: Optional["Profiler"] = None

    # -- construction -----------------------------------------------------------

    def add_router(self, router: BgpRouter) -> BgpRouter:
        if router.name in self.routers:
            raise ValueError(f"duplicate router name: {router.name}")
        self.routers[router.name] = router
        return router

    def router(self, name: str) -> BgpRouter:
        try:
            return self.routers[name]
        except KeyError:
            raise KeyError(
                f"unknown router {name!r}; have {sorted(self.routers)}"
            ) from None

    def connect(
        self,
        a: str,
        b: str,
        relationship_of_b_to_a: Relationship,
        a_preference: Optional[int] = None,
        b_preference: Optional[int] = None,
    ) -> None:
        """Create a bidirectional eBGP session.

        Args:
            a, b: router names.
            relationship_of_b_to_a: how ``a`` sees ``b`` (e.g. PROVIDER
                means b is a's provider).
            a_preference: a's operator tie-break rank for this session.
            b_preference: b's rank for the reverse direction.
        """
        router_a = self.router(a)
        router_b = self.router(b)
        router_a.add_neighbor(
            b, router_b.asn, relationship_of_b_to_a, a_preference
        )
        router_b.add_neighbor(
            a, router_a.asn, relationship_of_b_to_a.inverse(), b_preference
        )
        self._session_meta[(a, b)] = (
            relationship_of_b_to_a,
            a_preference,
            b_preference,
        )
        self._pending_full_sync.append((a, b))
        self._pending_full_sync.append((b, a))

    def add_provider(
        self,
        customer: str,
        provider: str,
        customer_preference: Optional[int] = None,
    ) -> None:
        """Shorthand: ``provider`` sells transit to ``customer``."""
        self.connect(
            customer,
            provider,
            Relationship.PROVIDER,
            a_preference=customer_preference,
        )

    def add_peering(self, a: str, b: str) -> None:
        """Shorthand: settlement-free peering between ``a`` and ``b``."""
        self.connect(a, b, Relationship.PEER)

    def disconnect(self, a: str, b: str) -> None:
        """Tear down the session between ``a`` and ``b``.

        Both routers flush the routes learned over it and rerun their
        decision; call :meth:`converge` afterwards to propagate the
        fallout (withdrawals, new best paths).
        """
        router_a = self.router(a)
        router_b = self.router(b)
        if b not in router_a.neighbors:
            raise KeyError(f"no session between {a!r} and {b!r}")
        router_a.remove_neighbor(b)
        router_b.remove_neighbor(a)
        router_a.adj_rib_out.clear_neighbor(b)
        router_b.adj_rib_out.clear_neighbor(a)
        self._session_meta.pop((a, b), None)
        self._session_meta.pop((b, a), None)
        self._pending_full_sync = [
            s for s in self._pending_full_sync if s not in ((a, b), (b, a))
        ]

    def session_config(
        self, a: str, b: str
    ) -> tuple[str, str, Relationship, Optional[int], Optional[int]]:
        """The parameters :meth:`connect` was called with for this session.

        Returns ``(a, b, relationship_of_b_to_a, a_preference,
        b_preference)`` normalized to the original call orientation, so the
        tuple can be splatted straight back into :meth:`connect` — the
        capture half of a fault injector's session-down/session-up pair.
        """
        if (a, b) in self._session_meta:
            rel, a_pref, b_pref = self._session_meta[(a, b)]
            return (a, b, rel, a_pref, b_pref)
        if (b, a) in self._session_meta:
            rel, b_pref, a_pref = self._session_meta[(b, a)]
            return (b, a, rel, b_pref, a_pref)
        raise KeyError(f"no session between {a!r} and {b!r}")

    def reset_session(self, a: str, b: str) -> tuple[int, int]:
        """Bounce the a–b session: tear down, converge, re-establish, converge.

        Models a BGP session reset (hold-timer expiry, operator clear):
        routes learned over the session are withdrawn network-wide, then
        re-announced once it comes back.  Returns the convergence round
        counts of the (down, up) waves.

        Both waves run off the dirty set seeded by the torn-down /
        re-established session, so the counts reflect how far each
        ripple actually travelled.
        """
        config = self.session_config(a, b)
        self.disconnect(config[0], config[1])
        down_rounds = self.converge()
        self.connect(*config)
        up_rounds = self.converge()
        return down_rounds, up_rounds

    # -- propagation --------------------------------------------------------------

    def converge(self, max_rounds: int = 200) -> int:
        """Propagate updates until no router's state changes.

        Returns:
            The number of rounds (waves) taken, counting the final wave
            that verifies the fixpoint — so an already-converged network
            reports 1.

        Raises:
            ConvergenceError: if ``max_rounds`` is exceeded, which under
                valley-free policies indicates a modeling bug rather than a
                genuine BGP wedgie.
        """
        self.convergence_count += 1
        if self.profiler is not None:
            with self.profiler.time("bgp.converge"):
                waves = self._converge_incremental(max_rounds)
        else:
            waves = self._converge_incremental(max_rounds)
        self.total_rounds += waves
        return waves

    def _converge_incremental(self, max_rounds: int) -> int:
        """Dirty-set work queue: waves ripple outward from changed state.

        Each wave drains every router's pending-export buffer and
        delivers per-prefix deltas only for those (sender, prefix) pairs;
        receivers whose RIBs change queue their own exports for the next
        wave.  Newly created sessions get a one-off full-table sync.
        """
        waves = 0
        full_sync = self._take_full_sync()
        dirty = self._collect_dirty()
        while full_sync or dirty:
            waves += 1
            if waves > max_rounds:
                raise ConvergenceError(
                    f"no fixpoint after {max_rounds} waves; "
                    "check relationships/policies for dispute wheels"
                )
            for sender_name, receiver_name in full_sync:
                self._full_sync_session(sender_name, receiver_name)
            for sender_name in sorted(dirty):
                self._send_prefix_updates(sender_name, dirty[sender_name])
            self.routers_scanned += len(dirty) + len(full_sync)
            full_sync = []
            dirty = self._collect_dirty()
        # +1 for the implicit final wave that verifies the fixpoint (an
        # already-converged network reports one round).
        return waves + 1

    def _take_full_sync(self) -> list[tuple[str, str]]:
        """Directed sessions awaiting their initial full-table exchange."""
        pairs = list(dict.fromkeys(self._pending_full_sync))
        self._pending_full_sync.clear()
        return pairs

    def _collect_dirty(self) -> dict[str, tuple[Prefix, ...]]:
        """Drain every router's pending-export buffer (insertion order of
        ``routers`` is deterministic; prefix tuples arrive pre-sorted)."""
        dirty: dict[str, tuple[Prefix, ...]] = {}
        for name, router in self.routers.items():
            changed = router.drain_export_changes()
            if changed:
                dirty[name] = changed
        return dirty

    def _full_sync_session(self, sender_name: str, receiver_name: str) -> None:
        """Initial full-table exchange over one new directed session."""
        sender = self.routers[sender_name]
        if receiver_name not in sender.neighbors:
            return  # torn down again before the sync could run
        receiver = self.routers[receiver_name]
        exports = sender.exports_for(receiver_name)
        previously_sent = sender.adj_rib_out.prefixes_to(receiver_name)
        for prefix, announcement in exports.items():
            if sender.adj_rib_out.last_sent(receiver_name, prefix) == announcement:
                continue
            sender.adj_rib_out.record(receiver_name, announcement)
            self.updates_delivered += 1
            receiver.receive_announcement(sender_name, announcement)
        # Sorted so withdrawal delivery order never depends on set
        # iteration order (TNG005; the replay-determinism invariant).
        for prefix in sorted(previously_sent - set(exports), key=prefix_text):
            sender.adj_rib_out.forget(receiver_name, prefix)
            self.withdrawals_delivered += 1
            receiver.receive_withdrawal(sender_name, Withdrawal(prefix))

    def _send_prefix_updates(
        self, sender_name: str, prefixes: tuple[Prefix, ...]
    ) -> None:
        """Deliver one router's changed prefixes to all its neighbors."""
        sender = self.routers[sender_name]
        for receiver_name in sender.neighbors:
            receiver = self.routers[receiver_name]
            for prefix in prefixes:
                announcement = sender.export_for(receiver_name, prefix)
                last = sender.adj_rib_out.last_sent(receiver_name, prefix)
                if announcement is not None:
                    if announcement == last:
                        continue
                    sender.adj_rib_out.record(receiver_name, announcement)
                    self.updates_delivered += 1
                    receiver.receive_announcement(sender_name, announcement)
                elif last is not None:
                    sender.adj_rib_out.forget(receiver_name, prefix)
                    self.withdrawals_delivered += 1
                    receiver.receive_withdrawal(sender_name, Withdrawal(prefix))

    # -- queries ------------------------------------------------------------------

    def best_path(
        self, router_name: str, prefix: Union[str, Prefix]
    ) -> Optional[AsPath]:
        """Best AS path from ``router_name`` toward ``prefix``."""
        return self.router(router_name).best_path(as_prefix(prefix))

    def reachable(self, router_name: str, prefix: Union[str, Prefix]) -> bool:
        """Does ``router_name`` currently have any route for ``prefix``?"""
        router = self.router(router_name)
        normalized = as_prefix(prefix)
        if normalized in router.originated:
            return True
        return router.best_route(normalized) is not None

    def routers_originating(self, prefix: Union[str, Prefix]) -> list[str]:
        """Names of routers currently originating ``prefix``."""
        normalized = as_prefix(prefix)
        return sorted(
            name for name, r in self.routers.items() if normalized in r.originated
        )
