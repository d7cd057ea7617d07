"""BENCHMARK.json, the metric tables in code and the layer predictions agree."""

import json
import re
from pathlib import Path

import pytest

from run import END_TO_END
from tracing import LAYER_METRICS
from workloads import GOLDEN, WORKLOADS

BENCH = Path(__file__).resolve().parents[1]
CHECKOUT = BENCH.parent
MANIFEST = json.loads((CHECKOUT / "BENCHMARK.json").read_text())
PREDICTIONS = json.loads((BENCH / "predictions.json").read_text())
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def test_every_metric_name_is_well_formed():
    names = [m["name"] for m in MANIFEST["end_to_end"] + MANIFEST["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names + list(LAYER_METRICS))


def test_manifest_lists_exactly_the_metrics_the_benchmark_reports():
    assert {m["name"]: m["unit"] for m in MANIFEST["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in MANIFEST["per_layer"]} == LAYER_METRICS
    assert [w["name"] for w in MANIFEST["workloads"]] == list(WORKLOADS)


PREDICTED = {m: spec for spec in PREDICTIONS["layers"].values() for m in spec["metrics"]}


@pytest.mark.parametrize("metric", [m["name"] for m in MANIFEST["per_layer"]])
def test_every_layer_metric_names_what_it_should_move(metric):
    end_to_end = {m["name"] for m in MANIFEST["end_to_end"]}
    spec = PREDICTED[metric]
    # The tracer's own metrics move nothing: end-to-end runs are untraced.
    assert spec["moves"] or metric.startswith("trace.")
    named = {**spec["moves"], **spec.get("unchanged", {})}
    assert named
    for e2e, workloads in named.items():
        assert e2e in end_to_end
        assert workloads and set(workloads) <= set(WORKLOADS)


def test_golden_copies_match_the_committed_reports():
    federation = CHECKOUT / "BENCH_FEDERATION.json"
    robust = CHECKOUT / "BENCH_ROBUST.json"
    if not (federation.exists() and robust.exists()):
        pytest.skip("committed reports were removed; the golden copies stand alone")
    report = json.loads(federation.read_text())["report"]
    golden = json.loads((GOLDEN / "federation_seed42.json").read_text())
    for key, value in golden.items():
        if key == "scaling":
            assert value == [r for r in report["scaling"] if r["n"] == report["n_edges"]]
        else:
            assert value == report[key]
    e17 = json.loads(robust.read_text())["E17"]
    golden = json.loads((GOLDEN / "campaign_seed2026.json").read_text())
    assert golden["master_seed"] == e17["master_seed"]
    assert golden["baseline_median_ms"] == e17["baseline"]["median_ms"]
    assert golden["rows"] == e17["results"][: len(golden["rows"])]
