"""E15 — the incremental propagation engine vs the full-scan oracle.

The perf-regression gate for the incremental work-queue engine and the
convergence snapshot cache (see README "Performance").  Three workloads
over the shipped Vultr scenario, each run on the full-scan oracle of
``tests/oracles/bgp.py`` with no snapshot cache (the baseline) and on
production, the incremental engine plus the cache:

* **discovery** — both directions of the paper's Section 4.1 iterative
  suppression discovery, repeated as a periodic-rediscovery cycle.
* **reset_session** — repeated BGP session bounces of the Vultr-NY/NTT
  session with edge prefixes announced.
* **fault_replay_mttr** — a BGP-heavy chaos replay (session flaps and a
  prefix withdrawal under quarantine-enabled controllers and live
  probes), timing the armed simulation run.  Both sides must produce
  byte-identical recovery logs.

Prints the speedup table, writes ``BENCH_PERF.json``, and FAILS if
production full-path discovery is not at least 3x faster than the
oracle, or if either other workload is slower on production.

Environment:

* ``BENCH_SMOKE=1`` — CI mode: fewest repetitions, same workloads and
  the same 3x gate.
* ``BENCH_PERF_OUT`` — where to write the JSON report (default:
  ``BENCH_PERF.json`` in the current directory).
"""

import json
import os
from typing import Callable, Optional

from conftest import emit

from repro.analysis.report import format_table
from repro.bgp.network import BgpNetwork
from repro.bgp.snapshot import SnapshotCache
from repro.core.discovery import PathDiscovery
from repro.profiling.core import Profiler
from repro.scenarios.vultr import VULTR_ASN, build_bgp_network
from tests.bgp.engine_bench import (
    DISCOVERY_MIN_SPEEDUP,
    PerfReport,
    WorkloadResult,
    run_bench_replay,
)
from tests.oracles.bgp import ENGINE_INCREMENTAL, ENGINE_ROUNDS, use_engine

SMOKE = os.environ.get("BENCH_SMOKE", "") == "1"
OUT_PATH = os.environ.get("BENCH_PERF_OUT", "BENCH_PERF.json")

#: The probe prefix the discovery workload announces (same as the CLI).
PROBE_PREFIX = "2001:db8:fff::/48"


def best_of(repeat: int, fn: Callable[[], None], clock: Callable[[], float]) -> float:
    """Minimum wall time over ``repeat`` runs (noise-robust)."""
    best: Optional[float] = None
    for _ in range(max(repeat, 1)):
        start = clock()
        fn()
        elapsed = clock() - start
        if best is None or elapsed < best:
            best = elapsed
    return float(best if best is not None else 0.0)


def discovery_pass(
    engine: str, runs: int, profiler: Optional[Profiler] = None
) -> BgpNetwork:
    """One rediscovery cycle, both directions, ``runs`` times over; the
    snapshot cache rides with production only."""
    bgp = build_bgp_network()
    use_engine(bgp, engine)
    bgp.profiler = profiler
    snapshots = SnapshotCache() if engine == ENGINE_INCREMENTAL else None
    discovery = PathDiscovery(bgp, VULTR_ASN, snapshots=snapshots)
    discovery.profiler = profiler
    for _ in range(runs):
        for announcer, observer in (
            ("tango-ny", "tango-la"),
            ("tango-la", "tango-ny"),
        ):
            discovery.discover(
                announcer=announcer,
                observer=observer,
                probe_prefix=PROBE_PREFIX,
            )
    return bgp


def run_discovery_workload(
    repeat: int = 3, runs: int = 3, profiler: Optional[Profiler] = None
) -> WorkloadResult:
    """Full-path discovery over the Vultr topology, both engines."""
    prof = profiler if profiler is not None else Profiler()
    baseline_s = best_of(
        repeat, lambda: discovery_pass(ENGINE_ROUNDS, runs), prof.clock
    )
    incremental_s = best_of(
        repeat, lambda: discovery_pass(ENGINE_INCREMENTAL, runs), prof.clock
    )
    # One instrumented pass so the report carries engine counters.
    instrumented = discovery_pass(ENGINE_INCREMENTAL, runs, prof)
    prof.capture_network(instrumented, prefix="discovery.bgp")
    return WorkloadResult(
        name="discovery",
        baseline_s=baseline_s,
        incremental_s=incremental_s,
        detail={"repeat": float(repeat), "runs_per_pass": float(runs)},
    )


def reset_pass(engine: str, resets: int) -> None:
    bgp = build_bgp_network()
    use_engine(bgp, engine)
    # The edges' first route prefixes (see scenarios.vultr.make_pairing).
    bgp.router("tango-la").originate("2001:db8:a0::/48")
    bgp.router("tango-ny").originate("2001:db8:b0::/48")
    bgp.converge()
    for _ in range(resets):
        bgp.reset_session("vultr-ny", "ntt")


def run_reset_workload(
    repeat: int = 3, resets: int = 5, profiler: Optional[Profiler] = None
) -> WorkloadResult:
    """Repeated session bounces of the busiest Vultr transit session."""
    prof = profiler if profiler is not None else Profiler()
    baseline_s = best_of(
        repeat, lambda: reset_pass(ENGINE_ROUNDS, resets), prof.clock
    )
    incremental_s = best_of(
        repeat, lambda: reset_pass(ENGINE_INCREMENTAL, resets), prof.clock
    )
    return WorkloadResult(
        name="reset_session",
        baseline_s=baseline_s,
        incremental_s=incremental_s,
        detail={"repeat": float(repeat), "resets_per_pass": float(resets)},
    )


def run_fault_replay_workload(
    repeat: int = 1, profiler: Optional[Profiler] = None
) -> WorkloadResult:
    """The BGP-heavy chaos replay on both engines.

    Also cross-checks that both produce byte-identical recovery logs — a
    perf run that changed behavior is worthless.
    """
    prof = profiler if profiler is not None else Profiler()
    best: dict[str, tuple[float, float]] = {}
    logs: dict[str, str] = {}
    for _ in range(max(repeat, 1)):
        for engine in (ENGINE_ROUNDS, ENGINE_INCREMENTAL):
            elapsed, converge_s, logs[engine] = run_bench_replay(
                engine, prof.clock
            )
            if engine not in best or elapsed < best[engine][0]:
                best[engine] = (elapsed, converge_s)
    if logs[ENGINE_ROUNDS] != logs[ENGINE_INCREMENTAL]:
        raise AssertionError(
            "engines disagree on the recovery log; "
            "refusing to report perf numbers for divergent behavior"
        )
    baseline_s, baseline_converge = best[ENGINE_ROUNDS]
    incremental_s, incremental_converge = best[ENGINE_INCREMENTAL]
    converge_speedup = (
        baseline_converge / incremental_converge
        if incremental_converge > 0.0
        else float("inf")
    )
    return WorkloadResult(
        name="fault_replay_mttr",
        baseline_s=baseline_s,
        incremental_s=incremental_s,
        detail={
            "repeat": float(repeat),
            "baseline_converge_s": baseline_converge,
            "incremental_converge_s": incremental_converge,
            "converge_speedup": converge_speedup,
        },
    )


def run_perf_suite(repeat: int = 3, smoke: bool = False) -> PerfReport:
    """Run every workload and assemble the ``BENCH_PERF.json`` payload."""
    prof = Profiler()
    if smoke:
        repeat = min(repeat, 2)
    workloads: dict[str, WorkloadResult] = {}
    with prof.time("suite.total"):
        workloads["discovery"] = run_discovery_workload(
            repeat=repeat, profiler=prof
        )
        workloads["reset_session"] = run_reset_workload(
            repeat=repeat, profiler=prof
        )
        workloads["fault_replay_mttr"] = run_fault_replay_workload(
            repeat=1 if smoke else max(1, repeat - 1), profiler=prof
        )
    return PerfReport(
        scenario="vultr", smoke=smoke, workloads=workloads, profile=prof.as_dict()
    )


def test_engine_perf_suite(benchmark):
    # The benchmark fixture times the cheap, high-signal workload (one
    # discovery pass per engine); the full before/after suite runs once
    # around it and produces the report.
    benchmark(run_discovery_workload, repeat=1, runs=1)

    report = run_perf_suite(repeat=2 if SMOKE else 3, smoke=SMOKE)

    rows = []
    for name, wl in sorted(report.workloads.items()):
        rows.append(
            {
                "workload": name,
                "full_scan_s": f"{wl.baseline_s:.4f}",
                "incremental_s": f"{wl.incremental_s:.4f}",
                "speedup": f"{wl.speedup:.2f}x",
            }
        )
    emit(format_table(rows, title="E15 — engine before/after wall-clock"))
    replay = report.workloads["fault_replay_mttr"]
    emit(
        "fault replay control-plane share: "
        f"{replay.detail['baseline_converge_s']:.4f}s -> "
        f"{replay.detail['incremental_converge_s']:.4f}s "
        f"({replay.detail['converge_speedup']:.1f}x)"
    )

    with open(OUT_PATH, "w", encoding="utf-8") as handle:
        handle.write(report.to_json())
    emit(f"wrote {OUT_PATH}")

    payload = json.loads(report.to_json())
    assert payload["schema"] == "tango-repro/bench-perf/v1"

    # The gate: discovery must be at least 3x faster on production.
    discovery = report.workloads["discovery"]
    assert discovery.speedup >= DISCOVERY_MIN_SPEEDUP, (
        f"incremental discovery is only {discovery.speedup:.2f}x faster "
        f"than full-scan (gate: {DISCOVERY_MIN_SPEEDUP:.1f}x)"
    )
    # Sanity on the other workloads: production never loses.
    assert report.workloads["reset_session"].speedup >= 1.0
    assert replay.detail["converge_speedup"] >= 1.0
