"""The full-scan BGP propagation engine, as an oracle for ``BgpNetwork``.

Every round re-diffs every directed session: each sender's whole export
table toward each receiver is compared with what that receiver last
heard, and the deltas are delivered.  Rounds repeat until one changes
nothing.  O(sessions × prefixes) per round however small the change —
slow, and obviously right.  Under Gao–Rexford policies with
deterministic tie-breaks the fixpoint is unique, so production's
dirty-set work queue must land on the same routing state bit for bit.
"""

from __future__ import annotations

from repro.bgp.messages import Withdrawal, prefix_text
from repro.bgp.network import BgpNetwork, ConvergenceError

ENGINE_INCREMENTAL = "incremental"
ENGINE_ROUNDS = "rounds"
ENGINES = (ENGINE_ROUNDS, ENGINE_INCREMENTAL)


def directed_sessions(net: BgpNetwork) -> list[tuple[str, str]]:
    """Every directed session (sender, receiver), in creation order."""
    return [
        session
        for a, b in net._session_meta
        for session in ((a, b), (b, a))
    ]


def _propagate_round(net: BgpNetwork) -> bool:
    """One synchronous delivery wave.  Returns True if anything changed."""
    changed = False
    for sender_name, receiver_name in directed_sessions(net):
        sender = net.routers[sender_name]
        receiver = net.routers[receiver_name]
        exports = sender.exports_for(receiver_name)
        previously_sent = sender.adj_rib_out.prefixes_to(receiver_name)
        for prefix, announcement in exports.items():
            if sender.adj_rib_out.last_sent(receiver_name, prefix) == announcement:
                continue
            sender.adj_rib_out.record(receiver_name, announcement)
            if receiver.receive_announcement(sender_name, announcement):
                changed = True
        for prefix in sorted(previously_sent - set(exports), key=prefix_text):
            sender.adj_rib_out.forget(receiver_name, prefix)
            if receiver.receive_withdrawal(sender_name, Withdrawal(prefix)):
                changed = True
    return changed


def converge_rounds(net: BgpNetwork, max_rounds: int = 200) -> int:
    """Full-scan rounds to the fixpoint; returns the rounds taken,
    counting the final round that verifies it (so an already-converged
    network reports 1, as production does)."""
    for round_number in range(1, max_rounds + 1):
        if not _propagate_round(net):
            # The fixpoint subsumes production's work queue: nothing is
            # left to ripple, so its queued markers are stale.
            for router in net.routers.values():
                router.clear_pending_exports()
            net._pending_full_sync.clear()
            return round_number
    raise ConvergenceError(f"no fixpoint after {max_rounds} rounds")


def use_engine(net: BgpNetwork, engine: str) -> None:
    """Make ``net.converge`` run ``engine`` on this one instance.

    ``"rounds"`` shadows the method with the oracle, so everything that
    converges through the instance (discovery, ``reset_session``, the
    fault injector) rides it too; ``"incremental"`` removes the shadow.
    Safe at any converged point: neither engine leaves work behind.
    """
    vars(net).pop("converge", None)
    if engine == ENGINE_INCREMENTAL:
        return
    if engine != ENGINE_ROUNDS:
        raise ValueError(f"unknown engine {engine!r}; expected one of {ENGINES}")

    def converge(max_rounds: int = 200) -> int:
        net.convergence_count += 1
        if net.profiler is not None:
            with net.profiler.time("bgp.converge"):
                rounds = converge_rounds(net, max_rounds)
        else:
            rounds = converge_rounds(net, max_rounds)
        net.total_rounds += rounds
        return rounds

    net.converge = converge  # type: ignore[method-assign]


class PassThroughCache:
    """A ``SnapshotCache`` stand-in that always converges for real."""

    def converge(self, net: BgpNetwork, max_rounds: int = 200) -> int:
        return net.converge(max_rounds)
