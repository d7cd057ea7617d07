"""Self-time arithmetic, callback attribution and host-speed scaling."""

import statistics
import time
from collections import defaultdict

import numpy as np
import pytest

from tracing import (
    CALLBACK, ROOT, SELF_METRICS, Tracer, instrument, layer_metrics, self_times,
)


class FakeClock:
    """Integer nanoseconds that advance only when told to."""

    def __init__(self) -> None:
        self.now = 0

    def __call__(self) -> int:
        return self.now


def spans(tracer: Tracer) -> dict[str, int]:
    """Self time per span name (each name used once in these tests)."""
    arrays = tracer.arrays()
    own = self_times(arrays["start_ns"], arrays["end_ns"], arrays["parent"])
    return {tracer.names[n]: int(t) for n, t in zip(arrays["name"], own)}


def test_nested_spans_subtract_only_direct_children():
    clock = FakeClock()
    tracer = Tracer(clock)
    with tracer.span("a"):
        clock.now = 10
        with tracer.span("b"):
            clock.now = 15
            with tracer.span("c"):
                clock.now = 45
            clock.now = 50
        clock.now = 100
    assert spans(tracer) == {"a": 60, "b": 10, "c": 30}


def test_sibling_spans_are_summed():
    clock = FakeClock()
    tracer = Tracer(clock)
    with tracer.span("root"):
        for name, (start, end) in {"x": (5, 25), "y": (30, 31), "z": (40, 90)}.items():
            clock.now = start
            with tracer.span(name):
                clock.now = end
        clock.now = 100
    assert spans(tracer) == {"root": 100 - 20 - 1 - 50, "x": 20, "y": 1, "z": 50}


def test_overlapping_children_count_their_union_once():
    # root [0,100]; children [10,40], [30,60] overlap by 10, [50,55] lies
    # inside the second, [90,120] runs past the parent and is clipped.
    start = np.array([0, 10, 30, 50, 90])
    end = np.array([100, 40, 60, 55, 120])
    parent = np.array([-1, 0, 0, 0, 0])
    own = self_times(start, end, parent)
    assert own[0] == 100 - (60 - 10) - (100 - 90)
    assert list(own[1:]) == [30, 30, 5, 30]


def test_children_of_different_parents_do_not_merge():
    # Two roots, each with one child; a running maximum leaking from the
    # first parent's child would swallow the second parent's child.
    start = np.array([0, 0, 200, 210])
    end = np.array([150, 150, 300, 220])
    parent = np.array([-1, 0, -1, 2])
    assert list(self_times(start, end, parent)) == [0, 150, 90, 10]


def loop_self_times(start, end, parent) -> list[int]:
    """The same arithmetic as :func:`self_times`, one parent at a time."""
    own = [int(e) - int(s) for s, e in zip(start, end)]
    children = defaultdict(list)
    for i, p in enumerate(parent):
        if p >= 0:
            cs = max(int(start[i]), int(start[p]))
            children[p].append((cs, max(min(int(end[i]), int(end[p])), cs)))
    for p, intervals in children.items():
        reach = None
        for cs, ce in sorted(intervals):
            if reach is None or cs >= reach:
                own[p] -= ce - cs
                reach = ce
            elif ce > reach:
                own[p] -= ce - reach
                reach = ce
    return own


def test_clock_epoch_does_not_overflow_the_per_parent_offsets():
    # perf_counter_ns counts from boot: after weeks of uptime, offsets of
    # (parent rank x clock value) would pass int64 for a few thousand parents.
    rng = np.random.default_rng(3)
    n = 12_000
    epoch = 5 * 10**15
    start = epoch + rng.integers(0, 10**9, n)
    end = start + rng.integers(0, 10**7, n)
    parent = np.array([int(rng.integers(-1, i)) if i else -1 for i in range(n)])
    assert len(set(parent[parent >= 0])) > 4_000
    assert list(self_times(start, end, parent)) == loop_self_times(start, end, parent)


def test_spans_without_parents_keep_their_duration():
    assert list(self_times(np.array([3, 7]), np.array([5, 17]), np.array([-1, -1]))) == [2, 10]


def test_callbacks_are_attributed_to_their_owner_and_wrappers_removed():
    from repro.netsim.events import Simulator
    from repro.netsim.ticks import TickScheduler

    class Probe:
        calls = 0

        def fire(self, *args):
            self.calls += 1

    original_schedule = Simulator.schedule_at
    tracer = Tracer()
    instrumentation = instrument(tracer)
    try:
        with tracer.span(ROOT):
            sim = Simulator()
            probe = Probe()
            sim.call_every(1.0, probe.fire, end=2.0)
            TickScheduler(sim, 1.0, end=2.0).register(probe.fire)
            sim.run(until=5.0)
        metrics, per_layer = layer_metrics(tracer, root=0)
    finally:
        instrumentation.remove()
    assert Simulator.schedule_at is original_schedule
    assert probe.calls == 6
    owner = f"ext.{Probe.__module__}:{CALLBACK}"
    assert tracer.names.count(owner) == 1
    assert metrics["netsim.events.processed"] == 6  # 3 probe fires, 3 wheel rounds
    assert metrics["netsim.ticks.rounds"] == 3
    assert metrics["netsim.ticks.callbacks"] == 3
    assert set(per_layer) >= {"netsim.events", "netsim.ticks", f"ext.{Probe.__module__}"}
    # The probe's own layer has no metric, so its time is not covered.
    wall = (tracer.end[0] - tracer.start[0]) / 1e9
    reported = sum(metrics[k] for k in SELF_METRICS)
    assert metrics["trace.coverage"] == pytest.approx(reported / wall)
    assert reported == pytest.approx(sum(
        t for layer, t in per_layer.items() if not layer.startswith("ext.")))


def test_tracer_reset_drops_spans_and_keeps_names():
    tracer = Tracer()
    nid = tracer.name_id("keep")
    with tracer.span("keep"):
        pass
    tracer.reset()
    assert tracer.name_id("keep") == nid
    assert len(tracer.start) == 0


def test_speed_sampler_scales_by_the_samples_taken_during_a_time():
    from hostspeed import REFERENCE_S, SpeedSampler

    with SpeedSampler(interval_s=0.01) as sampler:
        deadline = time.perf_counter() + 0.2
        while time.perf_counter() < deadline:
            pass
        mark = len(sampler.samples)
    assert mark >= 5
    median = statistics.median(sampler.samples)
    assert sampler.scaled(2.0, since=0) == pytest.approx(2.0 * REFERENCE_S / median)
    # No sample after ``since``: one is taken on the spot.
    assert sampler.scaled(1.0, since=mark) > 0
