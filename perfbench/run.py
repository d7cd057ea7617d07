"""Tango reproduction benchmark: one workload, end-to-end or traced.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload replay --seed 7 --seconds 20 --trace 0

Workloads (see ``BENCHMARK.json`` and ``perfbench/README.md``): ``replay``,
``federation``, ``surge`` and ``campaign``.  All load comes from one fresh
worker process (``perfbench/worker.py``); nothing runs in parallel.

``--trace 0`` reports the end-to-end metrics.  Both times are scaled to
a nominal host speed sampled while they run (``perfbench/hostspeed.py``),
because the shared host drifts by up to 2x; the raw times are printed too.

* ``setup_s``: the median, over four fresh processes, of the time from
  launching the worker to its "ready" line (interpreter start, imports,
  seeded inputs).  Three processes only set up; the fourth goes on to
  the timed phase.
* ``run_s``: the time of one pass over the workload's items, as the sum
  of each item's median unit time over the whole passes of the timed
  phase, which lasts about ``--seconds`` (and at least one pass).
* ``peak_rss_mb``: the worker's peak resident memory over set-up and
  the first pass over the workload's items.

``--trace 1`` runs the workload once untraced and twice traced and reports
the per-layer metrics (``perfbench/tracing.py``).

Either way the outputs are checked (``perfbench/workloads.py``); failed
checks over checks attempted is the run's ``fail_ratio``.  The last line
of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  Exit status: 0 when a result
was printed, 1 when the worker failed, 2 on bad usage or a checkout
without the program's sources.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy

HERE = Path(__file__).resolve().parent
CHECKOUT = HERE.parent
sys.path.insert(0, str(HERE))

from tracing import LAYER_METRICS  # noqa: E402
from worker import READY  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_ONLY_PROCESSES = 3
#: Kill a worker that has not finished by then (the contract allows 180 s).
WORKER_TIMEOUT_S = 170.0

END_TO_END = {"setup_s": "s", "run_s": "s", "peak_rss_mb": "MB"}


def host_facts() -> dict:
    """Facts that make timings from two hosts incomparable."""
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cpu": cpu,
    }


def run_worker(args: argparse.Namespace, mode: str, deadline: float) -> tuple[float, float, dict]:
    """Start one worker; return its raw and scaled set-up time and result."""
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--mode", mode, "--seconds", str(args.seconds),
    ]
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=CHECKOUT, stdout=subprocess.PIPE, text=True)
    watchdog = threading.Timer(max(deadline - time.monotonic(), 0.0), proc.kill)
    watchdog.start()
    ready_s = None
    last = ""
    try:
        for line in proc.stdout:
            if ready_s is None and line.startswith(READY + " "):
                ready_s = time.perf_counter() - start
                factor = float(line.split()[1])
            elif line.strip():
                last = line
        code = proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
    if code != 0 or ready_s is None:
        raise RuntimeError(f"worker ({mode}) exited with status {code}")
    return ready_s, ready_s * factor, json.loads(last) if mode != "setup" else {}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (CHECKOUT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources under {CHECKOUT / 'src'}", file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"expected one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + WORKER_TIMEOUT_S
    print("host: " + json.dumps(host_facts(), sort_keys=True))
    try:
        setups = [
            run_worker(args, "setup", deadline)[:2]
            for _ in range(0 if args.trace else SETUP_ONLY_PROCESSES)
        ]
        ready_s, ready_scaled, result = run_worker(
            args, "trace" if args.trace else "run", deadline
        )
    except (RuntimeError, ValueError) as exc:
        print(f"perfbench: {args.workload}: {exc}", file=sys.stderr)
        return 1

    if args.trace:
        values = result["metrics"]
        units = LAYER_METRICS
    else:
        setups.append((ready_s, ready_scaled))
        values = {
            "setup_s": statistics.median(s for _, s in setups),
            "run_s": result["run_s"],
            "peak_rss_mb": result["peak_rss_mb"],
        }
        units = END_TO_END
        print("raw unit s: " + " ".join(f"{s:.4f}" for s in result["unit_s"]))
        print("scaled unit s: " + " ".join(f"{s:.4f}" for s in result["scaled_unit_s"]))
        print("raw setup s: " + " ".join(f"{raw:.4f}" for raw, _ in setups))
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}

    checks = result["checks"]
    failed = [name for name, ok in checks if not ok]
    for name, metric in metrics.items():
        print(f"{name} = {metric['value']:.6g} {metric['unit']}")
    print(f"fail_ratio = {len(failed)}/{len(checks)} = "
          f"{len(failed) / len(checks) if checks else 0.0:.4f}")
    for name in failed:
        print(f"FAILED check: {name}")
    print(json.dumps({
        "correct": not failed and bool(checks),
        "attempted": len(checks),
        "failed": len(failed),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
