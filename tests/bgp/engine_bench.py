"""Shared pieces of the E15 engine before/after comparison.

The benchmark (``benchmarks/test_bench_engine_perf.py``) times
production — the incremental engine plus the snapshot cache — against
the full-scan oracle of ``tests/oracles/bgp.py`` with no cache.  This
module holds what the tier-1 tests check as well: the report schema,
the BGP-heavy fault plan, and the one replay setup that both the
benchmark and the RecoveryLog cross-check run.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Callable

from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultEvent, FaultPlan
from repro.faults.recovery import RecoveryLog
from repro.profiling.core import Profiler
from tests.oracles.bgp import ENGINE_ROUNDS, PassThroughCache, use_engine

#: The E15 gate: production full-path discovery over the Vultr topology
#: must beat the full-scan oracle by at least this factor.
DISCOVERY_MIN_SPEEDUP = 3.0


@dataclass
class WorkloadResult:
    """Before/after wall-clock for one workload."""

    name: str
    baseline_s: float
    incremental_s: float
    detail: dict[str, float] = field(default_factory=dict)

    @property
    def speedup(self) -> float:
        if self.incremental_s <= 0.0:
            return float("inf")
        return self.baseline_s / self.incremental_s

    def as_dict(self) -> dict[str, object]:
        return {
            "baseline_s": self.baseline_s,
            "incremental_s": self.incremental_s,
            "speedup": self.speedup,
            "detail": dict(sorted(self.detail.items())),
        }


@dataclass
class PerfReport:
    """Everything one perf-suite run measured."""

    scenario: str
    smoke: bool
    workloads: dict[str, WorkloadResult]
    profile: dict[str, object]

    def as_dict(self) -> dict[str, object]:
        return {
            "schema": "tango-repro/bench-perf/v1",
            "scenario": self.scenario,
            "smoke": self.smoke,
            "thresholds": {"discovery_min_speedup": DISCOVERY_MIN_SPEEDUP},
            "workloads": {
                name: wl.as_dict() for name, wl in sorted(self.workloads.items())
            },
            "profile": self.profile,
        }

    def to_json(self) -> str:
        return json.dumps(self.as_dict(), indent=2, sort_keys=True) + "\n"


def bench_fault_plan() -> FaultPlan:
    """A BGP-heavy plan: two session flaps plus a prefix withdrawal."""
    return FaultPlan(
        name="bench-bgp-replay",
        seed=11,
        events=(
            FaultEvent(
                "bgp_session_down",
                at=1.0,
                duration=1.0,
                params={"a": "vultr-ny", "b": "ntt"},
            ),
            FaultEvent(
                "prefix_withdraw",
                at=3.5,
                duration=1.0,
                params={"edge": "ny", "prefix_index": 0},
            ),
            FaultEvent(
                "bgp_session_down",
                at=6.0,
                duration=1.0,
                params={"a": "vultr-la", "b": "telia"},
            ),
        ),
    )


def run_bench_replay(
    engine: str, clock: Callable[[], float]
) -> tuple[float, float, str]:
    """Arm the bench plan on a fresh deployment and run it.

    ``engine="rounds"`` replays on the full-scan oracle with every
    convergence run for real (the injector is the only converge site in
    a replay, so a pass-through cache there bypasses the snapshot
    cache); ``"incremental"`` is production.

    Returns ``(replay_wall_s, converge_wall_s, recovery_log_text)`` —
    establishment is setup, only the armed replay is timed.  The second
    element isolates the control-plane share: replay wall time is
    dominated by the packet-level simulation, which the engine does not
    touch.
    """
    from repro.core.controller import QuarantinePolicy, TangoController
    from repro.core.policy import LowestDelaySelector
    from repro.netsim.trace import PacketFactory
    from repro.scenarios.vultr import VultrDeployment

    plan = bench_fault_plan()
    deployment = VultrDeployment(include_events=False)
    deployment.establish()
    controllers = {}
    for edge in (deployment.pairing.a.name, deployment.pairing.b.name):
        deployment.start_path_probes(edge)
        deployment.set_data_policy(
            edge,
            LowestDelaySelector(deployment.gateway(edge).outbound, window_s=1.0),
        )
        controller = TangoController(
            deployment.gateway(edge),
            deployment.sim,
            interval_s=0.1,
            staleness_s=0.5,
            quarantine=QuarantinePolicy(),
        )
        controller.start()
        deployment.attach_controller(edge, controller)
        controllers[edge] = controller
    for edge in (deployment.pairing.a.name, deployment.pairing.b.name):
        peer = deployment.pairing.peer_of(edge)
        factory = PacketFactory(
            src=str(deployment.pairing.edge(edge).host_address(4)),
            dst=str(peer.host_address(4)),
            flow_label=9,
        )
        send = deployment.sender_for(edge)
        deployment.sim.call_every(0.02, lambda f=factory, s=send: s(f.build()))

    use_engine(deployment.bgp, engine)
    replay_prof = Profiler()
    deployment.bgp.profiler = replay_prof
    injector = FaultInjector(deployment, plan)
    if engine == ENGINE_ROUNDS:
        injector.snapshots = PassThroughCache()  # type: ignore[assignment]
    start = clock()
    injector.arm()
    deployment.net.run(until=plan.horizon + 2.0)
    elapsed = clock() - start
    converge = replay_prof.timers.get("bgp.converge")
    converge_s = converge.total_s if converge is not None else 0.0
    log = RecoveryLog.build(plan, controllers)
    return elapsed, converge_s, log.format()
