"""One workload in one fresh process: set-up, then a timed or traced phase.

``run.py`` starts this file; it is not meant to be run by hand, though it
can be::

    python3 perfbench/worker.py --workload replay --seed 7 --mode run --seconds 20

It prints ``perfbench-ready <factor>`` once set-up is done (imports and
seeded inputs), where ``factor`` scales a time taken during set-up to the
nominal host speed (``hostspeed.py``), then, unless ``--mode setup``, one
JSON line with its results:

* ``--mode run``: whole passes over the workload's items (one unit of
  work per item), run back to back for about ``--seconds`` and at least
  once.  Reports each unit's wall time, raw and scaled to the nominal
  host speed, the sum over items of each item's median scaled unit time
  as ``run_s``, the peak RSS over set-up and the first pass, and the
  output checks.  Tracing is off.
* ``--mode trace``: one untraced pass over the items, then two traced
  passes.  Reports the per-layer metrics of the second traced pass and
  checks that the per-layer counts repeat exactly; the spans of the last
  pass are written to ``.perfbench/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from hostspeed import SpeedSampler  # noqa: E402
from tracing import COUNT_METRICS, ROOT, Tracer, instrument, layer_metrics  # noqa: E402
from workloads import ROOT as CHECKOUT, WORKLOADS, Workload  # noqa: E402

READY = "perfbench-ready"
#: ROADMAP item 1: layer self times must cover this share of traced wall time.
MIN_COVERAGE = 0.90


class Checks:
    """Output checks plus byte-identity of repeated units of one item."""

    def __init__(self, workload: Workload) -> None:
        self.workload = workload
        self.results: list[tuple[str, bool]] = []
        self._first: dict[int, bytes] = {}

    def add(self, name: str, ok: bool) -> None:
        self.results.append((name, bool(ok)))

    def output(self, item: int, output: object, label: str = "repeat") -> None:
        fingerprint = self.workload.fingerprint(output)
        first = self._first.get(item)
        if first is None:
            self._first[item] = fingerprint
            for name, ok in self.workload.check(item, output):
                self.add(name, ok)
        else:
            self.add(f"{self.workload.name}.item{item}.{label}_identical", fingerprint == first)


def timed_phase(workload: Workload, seconds: float, sampler: SpeedSampler) -> dict:
    items = workload.items()
    checks = Checks(workload)
    outputs: list[tuple[int, object]] = []
    unit_s: list[float] = []
    run_s: list[float] = []
    pass_s: list[float] = []
    phase_start = time.perf_counter()
    # Whole passes only, so that every item has the same weight whatever
    # the host speed.  Start another pass while it would end within half a
    # pass of the target, so that long passes neither overshoot nor fall
    # short by one.
    while not pass_s or (
        time.perf_counter() - phase_start + statistics.median(pass_s) / 2 < seconds
    ):
        pass_start = time.perf_counter()
        for item in items:
            mark = len(sampler.samples)
            start = time.perf_counter()
            output = workload.run(item)
            unit_s.append(time.perf_counter() - start)
            run_s.append(sampler.scaled(unit_s[-1], since=mark))
            outputs.append((item, output))
        pass_s.append(time.perf_counter() - pass_start)
        if len(pass_s) == 1:
            # Peak of set-up plus one pass: later passes would only add the
            # garbage that a count of passes, set by host speed, leaves.
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    for item, output in outputs:
        checks.output(item, output)
    width = len(items)
    return {
        # One pass: each item's median unit time, summed.
        "run_s": sum(statistics.median(run_s[i::width]) for i in range(width)),
        "scaled_unit_s": run_s,
        "unit_s": unit_s,
        "peak_rss_mb": peak_rss_mb,
        "checks": checks.results,
    }


def traced_run(workload: Workload, out_dir: Path) -> dict:
    items = workload.items()
    checks = Checks(workload)
    start = time.perf_counter()
    for item in items:
        checks.output(item, workload.run(item))
    untraced_s = time.perf_counter() - start

    tracer = Tracer()
    instrumentation = instrument(tracer)
    passes = []
    try:
        for _ in range(2):
            tracer.reset()
            with tracer.span(ROOT):
                outputs = [workload.run(item) for item in items]
            metrics, per_layer = layer_metrics(tracer, root=0)
            wall_s = (tracer.end[0] - tracer.start[0]) / 1e9
            passes.append((metrics, per_layer, wall_s))
            for item, output in zip(items, outputs):
                checks.output(item, output, label="traced")
    finally:
        instrumentation.remove()

    first = passes[0][0]
    metrics, per_layer, _ = passes[1]
    checks.add(
        f"{workload.name}.trace.counts_repeat",
        all(first[k] == metrics[k] for k in COUNT_METRICS),
    )
    checks.add(f"{workload.name}.trace.coverage", metrics["trace.coverage"] >= MIN_COVERAGE)
    metrics["trace.overhead"] = statistics.median(p[2] for p in passes) / untraced_s

    out_dir.mkdir(exist_ok=True)
    stem = f"{workload.name}-seed{workload.seed}"
    tracer.write(str(out_dir / f"{stem}-spans.npz"))
    summary = {
        "untraced_s": untraced_s,
        "traced_s": [p[2] for p in passes],
        "layer_self_s": dict(sorted(per_layer.items(), key=lambda kv: -kv[1])),
        "metrics": metrics,
    }
    (out_dir / f"{stem}-layers.json").write_text(json.dumps(summary, indent=2) + "\n")
    return {"metrics": metrics, "checks": checks.results}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", required=True, choices=("setup", "run", "trace"))
    parser.add_argument("--seconds", type=float, required=True)
    args = parser.parse_args()

    workload = WORKLOADS[args.workload]
    with SpeedSampler() as sampler:
        workload.setup(args.seed)
        # The parent scales its launch-to-ready time by this speed.
        print(READY, sampler.scaled(1.0, since=0), flush=True)
        if args.mode == "run":
            result = timed_phase(workload, args.seconds, sampler)
    if args.mode == "trace":
        result = traced_run(workload, CHECKOUT / ".perfbench")
    elif args.mode == "setup":
        return 0
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
