"""Vectorized fluid engine: per-tunnel state as contiguous float64 vectors.

:class:`VectorFluidEngine` evolves every (flow-class, tunnel) bucket of
the fluid congestion model with numpy array operations instead of the
scalar engine's per-tunnel Python loop.  The closed forms are exactly
those of :class:`~repro.traffic.fluid.FluidEngine` — M/D/1
Pollaczek–Khinchine wait, fluid backlog with the buffer bound, the
``1 - 1/rho`` overload shedding, Little's-law equilibrium seeding — and
the implementation is arranged so each elementwise operation evaluates
the *same IEEE-754 expression tree* the scalar engine does:

* vectorization runs across tunnels while the (few) flow classes keep
  the scalar engine's Python loop, so offered load accumulates per
  element in the same order (``offered += rate * fraction`` per class,
  with ``rate * 0.0`` adds for unselected tunnels, which are bitwise
  no-ops);
* reductions that the scalar engine performs with left-to-right Python
  ``sum()`` are reproduced with ``sum(vec.tolist())`` rather than
  numpy's pairwise ``np.sum``;
* integer ledger truncation uses ``astype(int64)``, which matches
  ``int()`` for the non-negative packet counts involved.

The scalar engine therefore serves as a seeded **bit-equivalence
oracle**: same deployment, same demand seed, same selector ⇒ identical
per-step rho/backlog/delay/loss, byte-identical telemetry series and
loss ledgers (see ``tests/traffic/test_vector.py``).

Telemetry leaves the engine through the batched store paths
(:meth:`~repro.telemetry.store.MeasurementStore.record_aggregate_many`,
:meth:`~repro.dataplane.seqnum.SequenceTracker.record_aggregate_many`)
so a step costs O(array ops) plus one store call per direction instead
of O(tunnels) attribute-resolved scalar calls.

Engine selection mirrors the PR-4 ``use_engine("rounds")`` pattern:
:func:`create_fluid_engine` keys the :data:`ENGINES` registry with an
``engine=`` knob (``"scalar"`` | ``"vector"``).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .demand import DemandModel
from .fluid import BLACKHOLE_LOSS, RHO_WAIT_CAP, FluidEngine, TunnelLoad

__all__ = ["VectorFluidEngine", "create_fluid_engine", "ENGINES"]


class VectorFluidEngine(FluidEngine):
    """Drop-in vectorized twin of :class:`FluidEngine`.

    Same constructor, lifecycle, observables and traces; only the step
    kernel differs.  ``last_loads`` is materialized lazily — the step
    stores the raw vectors and the per-tunnel :class:`TunnelLoad`
    dataclasses are built on first access, so steps whose loads nobody
    reads pay nothing for them.
    """

    def __init__(
        self,
        deployment: object,
        src: str,
        demand: DemandModel,
        **kwargs: object,
    ) -> None:
        super().__init__(deployment, src, demand, **kwargs)
        n = len(self.tunnels)
        self._pids: list[int] = [t.path_id for t in self.tunnels]
        self._pid_index = {pid: i for i, pid in enumerate(self._pids)}
        self._labels = [t.short_label for t in self.tunnels]
        self._cap_vec = np.array(
            [self._capacity[pid] for pid in self._pids], dtype=np.float64
        )
        self._bits_per_packet = self.packet_bytes * 8.0
        self._service_vec = self._bits_per_packet / self._cap_vec
        self._buffer_vec = self._cap_vec * self.buffer_delay_s
        self._backlog_vec = np.zeros(n, dtype=np.float64)
        self._lost_carry_vec = np.zeros(n, dtype=np.float64)
        self._delivered_carry_vec = np.zeros(n, dtype=np.float64)

        self._link_list = [self._links[pid] for pid in self._pids]
        self._delay_vals = np.zeros(n, dtype=np.float64)
        self._loss_vals = np.zeros(n, dtype=np.float64)

        # Per-class fraction vectors, keyed by the resolver's cached
        # items tuple (identity): rebuilt only when the split actually
        # changed (SplitResolver bumps its generation).
        self._frac_cache: dict[
            int, tuple[tuple[tuple[int, float], ...], np.ndarray]
        ] = {}
        self._step_arrays: Optional[
            tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]
        ] = None

    # ------------------------------------------------------------------
    # Lazy last_loads
    # ------------------------------------------------------------------

    @property
    def last_loads(self) -> dict[int, TunnelLoad]:  # type: ignore[override]
        if self._loads is None:
            self._loads = self._build_loads()
        return self._loads

    @last_loads.setter
    def last_loads(self, value: dict[int, TunnelLoad]) -> None:
        # The base constructor assigns the initial empty dict through
        # this setter before the subclass state exists.
        self._loads: Optional[dict[int, TunnelLoad]] = value

    def _build_loads(self) -> dict[int, TunnelLoad]:
        arrays = self._step_arrays
        if arrays is None:
            return {}
        offered, rho, backlog, delay, loss = arrays
        loads: dict[int, TunnelLoad] = {}
        for i, pid in enumerate(self._pids):
            loads[pid] = TunnelLoad(
                path_id=pid,
                label=self._labels[i],
                offered_bps=float(offered[i]),
                capacity_bps=float(self._cap_vec[i]),
                utilization=float(rho[i]),
                backlog_bits=float(backlog[i]),
                delay_s=float(delay[i]),
                loss=float(loss[i]),
            )
        return loads

    # ------------------------------------------------------------------
    # Step kernel
    # ------------------------------------------------------------------

    def _base_models(self, now: float) -> tuple[np.ndarray, np.ndarray]:
        """Per-tunnel base delay/loss, read live from each link's models."""
        delay_vals = self._delay_vals
        loss_vals = self._loss_vals
        for i, link in enumerate(self._link_list):
            delay_vals[i] = link.delay.delay_at(now)
            loss_vals[i] = link.loss.loss_probability(now)
        return delay_vals, loss_vals

    def _step(self) -> None:
        now = self.sim.now
        dt = now - self._last
        self._last = now
        if dt <= 0:
            return
        self.steps += 1

        # 1. Offered load: scalar class loop, vector accumulate.  The
        #    fraction vector for a class is cached until SplitResolver
        #    hands back a different items tuple.
        n = len(self._pids)
        offered = np.zeros(n, dtype=np.float64)
        for cls in self.demand.classes:
            rate = (
                self._flows[cls.flow_label]
                * cls.rate_bps
                * self.demand.surge_factor(cls.flow_label, now)
            )
            if rate <= 0:
                continue
            items = self._resolver.resolve(cls, now)
            cached = self._frac_cache.get(cls.flow_label)
            if cached is not None and cached[0] is items:
                vec = cached[1]
            else:
                vec = np.zeros(n, dtype=np.float64)
                index = self._pid_index
                for pid, fraction in items:
                    vec[index[pid]] = fraction
                self._frac_cache[cls.flow_label] = (items, vec)
            offered += rate * vec

        offered_list = offered.tolist()
        total_offered = sum(offered_list)

        # 2. Fluid queue update — same expression tree as the scalar
        #    engine, elementwise across tunnels.
        base_delay, base_loss = self._base_models(now)
        rho = offered / self._cap_vec
        inflow = offered * dt
        backlog = self._backlog_vec + inflow - self._cap_vec * dt
        over = backlog > self._buffer_vec
        lost_bits = np.where(over, backlog - self._buffer_vec, 0.0)
        backlog = np.where(over, self._buffer_vec, backlog)
        backlog = np.maximum(backlog, 0.0)
        self._backlog_vec = backlog

        overload = np.zeros(n, dtype=np.float64)
        np.divide(lost_bits, inflow, out=overload, where=inflow > 0.0)
        loss = 1.0 - (1.0 - base_loss) * (1.0 - overload)

        wait_rho = np.minimum(np.maximum(rho, 0.0), RHO_WAIT_CAP)
        wait = wait_rho / (2.0 * (1.0 - wait_rho)) * self._service_vec
        queue_wait = np.minimum(
            wait + backlog / self._cap_vec, self.buffer_delay_s
        )
        delay = base_delay + self._service_vec + queue_wait

        # 3. Telemetry: one batched store call per step (blackholed
        #    tunnels excluded, preserving staleness semantics).
        owd = delay + self._offset
        alive = loss < BLACKHOLE_LOSS
        if alive.all():
            self.receiver.inbound.record_aggregate_many(
                self._pids, now, owd.tolist()
            )
        elif alive.any():
            keep = np.flatnonzero(alive).tolist()
            self.receiver.inbound.record_aggregate_many(
                [self._pids[i] for i in keep], now, owd[keep].tolist()
            )

        # 4. Loss ledger: carries computed for every tunnel (a zero
        #    inflow contributes rate*0.0 terms that leave the carry
        #    bit-unchanged), folded in via the batched tracker path
        #    which skips all-zero pairs exactly like the scalar guard.
        packets = inflow / self._bits_per_packet
        lost_f = packets * loss + self._lost_carry_vec
        delivered_f = packets * (1.0 - loss) + self._delivered_carry_vec
        lost_n = lost_f.astype(np.int64)
        delivered_n = delivered_f.astype(np.int64)
        self._lost_carry_vec = lost_f - lost_n
        self._delivered_carry_vec = delivered_f - delivered_n
        self.sender.tracker.record_aggregate_many(
            self._pids, delivered_n.tolist(), lost_n.tolist()
        )

        # 5. Lazy loads + class bucket evolution + traces (identical to
        #    the scalar engine).
        self._step_arrays = (offered, rho, backlog, delay, loss)
        self._loads = None

        for cls in self.demand.classes:
            flows = self._flows[cls.flow_label]
            arrivals = self.demand.arrivals_between(cls, now - dt, now)
            departures = flows * dt / cls.mean_duration_s
            self._flows[cls.flow_label] = max(0.0, flows + arrivals - departures)

        self.peak_concurrent_flows = max(
            self.peak_concurrent_flows, self.concurrent_flows
        )

        if self.record_traces:
            if total_offered > 0:
                split = {
                    pid: off / total_offered
                    for pid, off in zip(self._pids, offered_list)
                }
            else:
                split = {pid: 0.0 for pid in self._pids}
            self.split_trace.append((now, split))
            self.concurrency_trace.append((now, self.concurrent_flows))

        profiler = self.profiler
        if profiler is not None:
            profiler.count("fluid.steps")
            profiler.count("fluid.bucket_updates", self._updates_per_step)


#: Engine registry for the ``engine=`` knob (PR-4 ``use_engine`` pattern).
ENGINES: dict[str, type[FluidEngine]] = {
    "scalar": FluidEngine,
    "vector": VectorFluidEngine,
}


def create_fluid_engine(
    deployment: object,
    src: str,
    demand: DemandModel,
    *,
    engine: str = "scalar",
    **kwargs: object,
) -> FluidEngine:
    """Build a fluid engine by name: ``"scalar"`` (oracle) or ``"vector"``."""
    try:
        engine_cls = ENGINES[engine]
    except KeyError:
        raise ValueError(
            f"unknown fluid engine {engine!r}; expected one of {sorted(ENGINES)}"
        ) from None
    return engine_cls(deployment, src, demand, **kwargs)
