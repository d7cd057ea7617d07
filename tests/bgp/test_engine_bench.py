"""The E15 report shape and bench plan (``tests/bgp/engine_bench.py``)."""

import json

from tests.bgp.engine_bench import (
    DISCOVERY_MIN_SPEEDUP,
    PerfReport,
    WorkloadResult,
    bench_fault_plan,
)


class TestBenchReportShape:
    def test_workload_speedup_math(self):
        wl = WorkloadResult(name="x", baseline_s=3.0, incremental_s=1.0)
        assert wl.speedup == 3.0
        degenerate = WorkloadResult(name="y", baseline_s=1.0, incremental_s=0.0)
        assert degenerate.speedup == float("inf")

    def test_report_schema_fields(self):
        report = PerfReport(
            scenario="vultr",
            smoke=True,
            workloads={
                "discovery": WorkloadResult(
                    name="discovery", baseline_s=0.4, incremental_s=0.1
                )
            },
            profile={"counters": {}, "timers": {}},
        )
        payload = json.loads(report.to_json())
        assert payload["schema"] == "tango-repro/bench-perf/v1"
        assert payload["thresholds"]["discovery_min_speedup"] == DISCOVERY_MIN_SPEEDUP
        assert payload["workloads"]["discovery"]["speedup"] == 4.0

    def test_bench_fault_plan_targets_exist_in_vultr(self):
        from repro.lint.plans import check_fault_plan, vultr_spec

        assert check_fault_plan(bench_fault_plan(), vultr_spec()) == []
