"""Span tracing around the simulator's layer boundaries, from outside.

The benchmark does not touch ``src/``: :func:`instrument` replaces public
methods of the program's classes with thin wrappers that open a span on
entry and close it on return.  Every span is kept in memory as four
parallel integer arrays (name, start, end, parent), and written out once
the traced pass ends.

A span's *self time* is its duration minus the union of its children's
intervals (clipped to the parent), so overlapping children are not
counted twice.  A layer's self time is the sum over its spans.

Span names are ``"<layer>:<boundary>"``.  Callbacks handed to the event
loop (``Simulator.schedule_at``) or the tick wheel
(``TickScheduler.register``) are wrapped too, and named after the module
that owns the callback -- a bound method's class, or the function's
defining module -- so a controller tick lands in ``core.controller`` and
a fluid step in ``traffic.vector`` without any hook in the program.
"""

from __future__ import annotations

import functools
import time
from array import array
from typing import Callable

import numpy as np

__all__ = ["Tracer", "self_times", "instrument", "layer_metrics", "LAYER_METRICS"]

ROOT = "bench:pass"
CALLBACK = "callback"


class Tracer:
    """In-memory span store with an injectable integer nanosecond clock."""

    def __init__(self, clock: Callable[[], int] = time.perf_counter_ns) -> None:
        self.clock = clock
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.counters: dict[str, int] = {}
        #: Program objects whose own counters are read after the pass.
        self.instances: dict[str, dict[int, object]] = {}
        self.reset()

    def reset(self) -> None:
        self.name = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self._stack = [-1]
        self.counters = {}
        self.instances = {}

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, nid: int) -> int:
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1])
        self.end.append(0)
        self.start.append(self.clock())
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = self.clock()
        self._stack.pop()

    def span(self, name: str) -> "_Span":
        return _Span(self, self.name_id(name))

    def count(self, key: str, n: int = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + n

    def remember(self, kind: str, obj: object) -> None:
        self.instances.setdefault(kind, {})[id(obj)] = obj

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.name, dtype=np.int32).copy(),
            "start_ns": np.frombuffer(self.start, dtype=np.int64).copy(),
            "end_ns": np.frombuffer(self.end, dtype=np.int64).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
        }

    def write(self, path: str) -> None:
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())


class _Span:
    __slots__ = ("_tracer", "_nid", "_idx")

    def __init__(self, tracer: Tracer, nid: int) -> None:
        self._tracer = tracer
        self._nid = nid
        self._idx = -1

    def __enter__(self) -> "_Span":
        self._idx = self._tracer.open(self._nid)
        return self

    def __exit__(self, *exc: object) -> None:
        self._tracer.close(self._idx)


def self_times(
    start: np.ndarray, end: np.ndarray, parent: np.ndarray
) -> np.ndarray:
    """Each span's duration minus the union of its children's intervals.

    Children are clipped to their parent's interval.  Within one parent,
    intervals sorted by start are merged with a running maximum of the
    ends seen so far; integer offsets per parent keep the running maximum
    from leaking across parents, and integer nanoseconds keep it exact.
    Times are taken relative to the earliest start, so the offsets scale
    with the length of the traced pass, not with the clock's epoch.
    """
    start = np.asarray(start, dtype=np.int64)
    end = np.asarray(end, dtype=np.int64)
    parent = np.asarray(parent, dtype=np.int64)
    own = end - start
    has_parent = parent >= 0
    if not has_parent.any():
        return own
    p = parent[has_parent]
    cs = np.maximum(start[has_parent], start[p])
    ce = np.maximum(np.minimum(end[has_parent], end[p]), cs)
    order = np.lexsort((cs, p))
    p, cs, ce = p[order], cs[order], ce[order]
    base = int(start.min())
    cs, ce = cs - base, ce - base
    first = np.ones(len(p), dtype=bool)
    first[1:] = p[1:] != p[:-1]
    rank = np.cumsum(first) - 1
    span = int(ce.max()) + 1
    if int(rank[-1] + 1) * span >= 2**63:
        raise OverflowError("too many parents over too long a pass for int64 offsets")
    keyed = ce + rank * span
    running = np.maximum.accumulate(keyed)
    prev_end = np.empty_like(running)
    prev_end[0] = 0
    prev_end[1:] = running[:-1] - rank[1:] * span
    prev_end[first] = 0
    covered_part = np.maximum(ce - np.maximum(cs, prev_end), 0)
    covered = np.zeros(len(start), dtype=np.int64)
    np.add.at(covered, p, covered_part)
    return own - covered


# ---------------------------------------------------------------------------
# Instrumentation
# ---------------------------------------------------------------------------


def _subclasses(cls: type) -> list[type]:
    """``cls`` and every class below it, each once."""
    seen: dict[type, None] = {}
    todo = [cls]
    while todo:
        current = todo.pop()
        if current not in seen:
            seen[current] = None
            todo.extend(current.__subclasses__())
    return list(seen)


def _owner_layer(
    callback: object, tracer: Tracer, periodic: type, remembered: tuple[type, ...]
) -> str:
    """The layer a scheduled callback belongs to: its owner's module.

    Owners of a ``remembered`` class are kept so that their own counters
    can be read after the pass.
    """
    target = callback
    owner = getattr(target, "__self__", None)
    if isinstance(owner, periodic):
        target = getattr(owner, "_callback", target)
        owner = getattr(target, "__self__", None)
    while isinstance(target, functools.partial):
        target = target.func
        owner = getattr(target, "__self__", None)
    if owner is not None:
        module = type(owner).__module__
        for cls in remembered:
            if isinstance(owner, cls):
                tracer.remember(cls.__name__, owner)
    else:
        module = getattr(target, "__module__", None) or "unknown"
    if module.startswith("repro."):
        return module[len("repro."):]
    return "ext." + module


class Instrumentation:
    """Installed wrappers; :meth:`remove` restores the original methods."""

    def __init__(self) -> None:
        self._saved: list[tuple[type, str, object]] = []

    def patch(self, cls: type, attr: str, make: Callable[[Callable], Callable]) -> None:
        original = cls.__dict__[attr]
        self._saved.append((cls, attr, original))
        setattr(cls, attr, functools.wraps(original)(make(original)))

    def remove(self) -> None:
        for cls, attr, original in reversed(self._saved):
            setattr(cls, attr, original)
        self._saved.clear()


def _timed(tracer: Tracer, name: str) -> Callable[[Callable], Callable]:
    nid = tracer.name_id(name)
    open_, close = tracer.open, tracer.close

    def make(fn: Callable) -> Callable:
        def wrapper(*args, **kwargs):
            idx = open_(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                close(idx)

        return wrapper

    return make


def _timed_rejects(tracer: Tracer, name: str, counter: str) -> Callable[[Callable], Callable]:
    """Like :func:`_timed`, also counting calls that return ``False``."""
    nid = tracer.name_id(name)
    open_, close, count = tracer.open, tracer.close, tracer.count

    def make(fn: Callable) -> Callable:
        def wrapper(*args, **kwargs):
            idx = open_(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                close(idx)
            if result is False:
                count(counter)
            return result

        return wrapper

    return make


def _timed_deltas(
    tracer: Tracer, name: str, attrs: dict[str, str]
) -> Callable[[Callable], Callable]:
    """Like :func:`_timed`, also adding how much each of the receiver's own
    counters (``attrs``: attribute -> counter key) grew during the call."""
    nid = tracer.name_id(name)
    open_, close, count = tracer.open, tracer.close, tracer.count
    pairs = tuple(attrs.items())

    def make(fn: Callable) -> Callable:
        def wrapper(obj, *args, **kwargs):
            before = [getattr(obj, attr) for attr, _ in pairs]
            idx = open_(nid)
            try:
                return fn(obj, *args, **kwargs)
            finally:
                close(idx)
                for (attr, key), old in zip(pairs, before):
                    count(key, getattr(obj, attr) - old)

        return wrapper

    return make


def instrument(tracer: Tracer) -> Instrumentation:
    """Wrap every layer boundary the per-layer metrics read."""
    from repro.bgp.network import BgpNetwork
    from repro.bgp.rib import AdjRibIn
    from repro.bgp.router import BgpRouter
    from repro.bgp.snapshot import SnapshotCache
    from repro.core.discovery import PathDiscovery
    from repro.dataplane.programs import TangoReceiverProgram, TangoSenderProgram
    from repro.federation.registry import FederationRegistry
    from repro.netsim.delaymodels import DelayModel
    from repro.netsim.events import PeriodicTask, Simulator
    from repro.netsim.links import Link
    from repro.netsim.node import Fib, Node, RouterNode
    from repro.netsim.ticks import TickScheduler
    from repro.resilience.channel import ReliableTelemetryChannel
    from repro.telemetry.auth import TelemetryAuthenticator
    from repro.telemetry.store import MeasurementStore
    from repro.traffic.fluid import FluidEngine
    from repro.trust.plausibility import PlausibilityFilter

    inst = Instrumentation()
    simple = [
        (BgpNetwork, "converge", "bgp.network:converge"),
        (AdjRibIn, "candidates", "bgp.rib:candidates"),
        (PathDiscovery, "discover", "core.discovery:discover"),
        (FederationRegistry, "establish", "federation.registry:establish"),
        (FederationRegistry, "stitch_pair", "federation.registry:stitch_pair"),
        (Simulator, "run", "netsim.events:run"),
        (TangoSenderProgram, "__call__", "dataplane.programs:call"),
        (TangoReceiverProgram, "__call__", "dataplane.programs:call"),
        (MeasurementStore, "record", "telemetry.store:record"),
        (MeasurementStore, "record_aggregate_many", "telemetry.store:batch"),
        (Fib, "lookup", "netsim.node:lookup"),
    ]
    for cls, attr, name in simple:
        inst.patch(cls, attr, _timed(tracer, name))
    # Methods that subclasses override: wrap every class defining its own.
    for base, attr, name in (
        (DelayModel, "delay_at", "netsim.delaymodels:draw"),
        (DelayModel, "delays", "netsim.delaymodels:draw"),
        (Node, "receive", "netsim.node:receive"),
        (RouterNode, "forward", "netsim.node:forward"),
    ):
        for cls in _subclasses(base):
            if attr in cls.__dict__:
                inst.patch(cls, attr, _timed(tracer, name))
    inst.patch(SnapshotCache, "converge", _timed_deltas(
        tracer, "bgp.snapshot:converge",
        {"hits": "bgp.snapshot.hits", "misses": "bgp.snapshot.misses"},
    ))
    # Per-prefix decisions run inside the router's update entry points.
    for attr in ("receive_announcement", "receive_withdrawal", "run_decision"):
        inst.patch(BgpRouter, attr, _timed_deltas(
            tracer, "bgp.router:decide", {"decisions_run": "bgp.router.decisions"},
        ))
    inst.patch(Link, "transmit", _timed_rejects(tracer, "netsim.links:transmit", "netsim.links.drops"))
    inst.patch(PlausibilityFilter, "admit", _timed_rejects(tracer, "trust:admit", "trust.rejected"))
    inst.patch(TelemetryAuthenticator, "verify", _timed_rejects(tracer, "trust:verify", "trust.rejected"))

    open_, close = tracer.open, tracer.close
    remembered = (FluidEngine, ReliableTelemetryChannel)
    layer_ids: dict[str, int] = {}

    def wrap_callback(callback: Callable) -> Callable:
        layer = _owner_layer(callback, tracer, PeriodicTask, remembered)
        nid = layer_ids.get(layer)
        if nid is None:
            nid = layer_ids[layer] = tracer.name_id(f"{layer}:{CALLBACK}")

        def traced(*args):
            idx = open_(nid)
            try:
                return callback(*args)
            finally:
                close(idx)

        return traced

    def make_schedule(fn: Callable) -> Callable:
        def schedule_at(sim, at, callback):
            return fn(sim, at, wrap_callback(callback))

        return schedule_at

    def make_register(fn: Callable) -> Callable:
        def register(scheduler, callback, **kwargs):
            return fn(scheduler, wrap_callback(callback), **kwargs)

        return register

    inst.patch(Simulator, "schedule_at", make_schedule)
    inst.patch(TickScheduler, "register", make_register)
    return inst


# ---------------------------------------------------------------------------
# Per-layer metrics
# ---------------------------------------------------------------------------

#: Every per-layer metric the traced run reports, with its unit.
LAYER_METRICS: dict[str, str] = {
    "bgp.network.converge_calls": "count",
    "bgp.network.converge_self_s": "s",
    "bgp.rib.candidates_calls": "count",
    "bgp.rib.candidates_self_s": "s",
    "bgp.router.decisions": "count",
    "bgp.router.decision_self_s": "s",
    "bgp.snapshot.hits": "count",
    "bgp.snapshot.misses": "count",
    "bgp.snapshot.hit_rate": "ratio",
    "bgp.snapshot.self_s": "s",
    "core.discovery.calls": "count",
    "core.discovery.self_s": "s",
    "federation.registry.establish_self_s": "s",
    "federation.registry.stitch_self_s": "s",
    "netsim.events.processed": "count",
    "netsim.events.self_s": "s",
    "netsim.delaymodels.draws": "count",
    "netsim.delaymodels.self_s": "s",
    "netsim.links.transmits": "count",
    "netsim.links.drops": "count",
    "netsim.links.self_s": "s",
    "netsim.node.forwards": "count",
    "netsim.node.fib_lookups": "count",
    "netsim.node.self_s": "s",
    "dataplane.programs.packets": "count",
    "dataplane.programs.self_s": "s",
    "telemetry.store.records": "count",
    "telemetry.store.batches": "count",
    "telemetry.store.self_s": "s",
    "core.controller.ticks": "count",
    "core.controller.self_s": "s",
    "netsim.ticks.rounds": "count",
    "netsim.ticks.callbacks": "count",
    "netsim.ticks.self_s": "s",
    "traffic.vector.steps": "count",
    "traffic.vector.self_s": "s",
    "traffic.splitting.recomputed": "count",
    "traffic.splitting.recompute_ratio": "ratio",
    "trust.samples": "count",
    "trust.rejected": "count",
    "trust.self_s": "s",
    "resilience.channel.sent": "count",
    "resilience.channel.retransmits": "count",
    "resilience.channel.useful_ratio": "ratio",
    "resilience.channel.self_s": "s",
    # Callbacks of these modules: probe emission, telemetry mirroring,
    # the RTT/2 estimator and the campaign's data pump.
    "netsim.trace.self_s": "s",
    "core.session.self_s": "s",
    "resilience.degraded.self_s": "s",
    "campaign.runner.self_s": "s",
    "trace.coverage": "ratio",
    "trace.overhead": "ratio",
}

#: Metrics that must repeat exactly across two traced runs of one seed.
COUNT_METRICS = tuple(k for k, unit in LAYER_METRICS.items() if unit == "count")
#: Self times of distinct layers (or of distinct boundaries of one layer):
#: their sum over traced wall time is ``trace.coverage``.
SELF_METRICS = tuple(k for k in LAYER_METRICS if k.endswith("self_s"))


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(
    tracer: Tracer, root: int
) -> tuple[dict[str, float], dict[str, float]]:
    """Per-layer metrics of one traced pass, plus self seconds per layer.

    ``root`` is the index of the pass's root span; its own self time is
    the part of the pass that no layer span covers.  The second result
    has every layer seen, reported or not.
    """
    arrays = tracer.arrays()
    name, parent = arrays["name"], arrays["parent"]
    own = self_times(arrays["start_ns"], arrays["end_ns"], parent) / 1e9
    n_names = len(tracer.names)
    ids = {n: i for i, n in enumerate(tracer.names)}
    parent_name = np.where(parent >= 0, name[np.maximum(parent, 0)], -1)
    # A call nested in another call of the same boundary is one entry.
    outer = parent_name != name
    self_by_name = np.bincount(name, weights=own, minlength=n_names)
    calls_by_name = np.bincount(name, minlength=n_names)
    outer_by_name = np.bincount(name[outer], minlength=n_names)
    is_callback = np.array(
        [n.endswith(":" + CALLBACK) for n in tracer.names], dtype=bool
    )
    # Callback spans run directly by each span name (events, tick rounds).
    callback_spans = is_callback[name] if len(name) else np.zeros(0, dtype=bool)
    run_by = np.bincount(
        parent_name[callback_spans & (parent_name >= 0)], minlength=n_names
    )

    def calls(*boundaries: str, outer_only: bool = True) -> int:
        table = outer_by_name if outer_only else calls_by_name
        return int(sum(table[ids[b]] for b in boundaries if b in ids))

    def runs_under(boundary: str) -> int:
        return int(run_by[ids[boundary]]) if boundary in ids else 0

    layer_of = [n.split(":")[0] for n in tracer.names]
    per_layer: dict[str, float] = {}
    for i, lay in enumerate(layer_of):
        if lay != ROOT.split(":")[0]:
            per_layer[lay] = per_layer.get(lay, 0.0) + float(self_by_name[i])

    def self_s(key: str) -> float:
        if ":" in key:
            return float(self_by_name[ids[key]]) if key in ids else 0.0
        return per_layer.get(key, 0.0)

    counters = tracer.counters
    hits = counters.get("bgp.snapshot.hits", 0)
    misses = counters.get("bgp.snapshot.misses", 0)
    engines = tracer.instances.get("FluidEngine", {}).values()
    steps = sum(e.steps for e in engines)
    recomputed = sum(e.splits_recomputed for e in engines)
    channels = [
        c.stats for c in tracer.instances.get("ReliableTelemetryChannel", {}).values()
    ]
    sent = sum(s.records_sent for s in channels)
    retransmits = sum(s.retransmits for s in channels)
    delivered = sum(s.records_delivered for s in channels)
    wall = (arrays["end_ns"][root] - arrays["start_ns"][root]) / 1e9

    metrics = {
        "bgp.network.converge_calls": calls("bgp.network:converge"),
        "bgp.network.converge_self_s": self_s("bgp.network"),
        "bgp.rib.candidates_calls": calls("bgp.rib:candidates"),
        "bgp.rib.candidates_self_s": self_s("bgp.rib"),
        "bgp.router.decisions": counters.get("bgp.router.decisions", 0),
        "bgp.router.decision_self_s": self_s("bgp.router"),
        "bgp.snapshot.hits": hits,
        "bgp.snapshot.misses": misses,
        "bgp.snapshot.hit_rate": _ratio(hits, hits + misses),
        "bgp.snapshot.self_s": self_s("bgp.snapshot"),
        "core.discovery.calls": calls("core.discovery:discover"),
        "core.discovery.self_s": self_s("core.discovery"),
        "federation.registry.establish_self_s": self_s("federation.registry:establish"),
        "federation.registry.stitch_self_s": self_s("federation.registry:stitch_pair"),
        "netsim.events.processed": runs_under("netsim.events:run"),
        "netsim.events.self_s": self_s("netsim.events"),
        "netsim.delaymodels.draws": calls("netsim.delaymodels:draw"),
        "netsim.delaymodels.self_s": self_s("netsim.delaymodels"),
        "netsim.links.transmits": calls("netsim.links:transmit"),
        "netsim.links.drops": counters.get("netsim.links.drops", 0),
        "netsim.links.self_s": self_s("netsim.links"),
        "netsim.node.forwards": calls("netsim.node:forward"),
        "netsim.node.fib_lookups": calls("netsim.node:lookup"),
        "netsim.node.self_s": self_s("netsim.node"),
        "dataplane.programs.packets": calls("dataplane.programs:call"),
        "dataplane.programs.self_s": self_s("dataplane.programs"),
        "telemetry.store.records": calls("telemetry.store:record"),
        "telemetry.store.batches": calls("telemetry.store:batch"),
        "telemetry.store.self_s": self_s("telemetry.store"),
        "core.controller.ticks": calls("core.controller:" + CALLBACK, outer_only=False),
        "core.controller.self_s": self_s("core.controller"),
        "netsim.ticks.rounds": calls("netsim.ticks:" + CALLBACK, outer_only=False),
        "netsim.ticks.callbacks": runs_under("netsim.ticks:" + CALLBACK),
        "netsim.ticks.self_s": self_s("netsim.ticks"),
        "traffic.vector.steps": steps,
        "traffic.vector.self_s": self_s("traffic.vector"),
        "traffic.splitting.recomputed": recomputed,
        "traffic.splitting.recompute_ratio": _ratio(recomputed, steps),
        "trust.samples": calls("trust:admit", "trust:verify"),
        "trust.rejected": counters.get("trust.rejected", 0),
        "trust.self_s": self_s("trust"),
        "resilience.channel.sent": sent,
        "resilience.channel.retransmits": retransmits,
        "resilience.channel.useful_ratio": _ratio(delivered, sent + retransmits),
        "resilience.channel.self_s": self_s("resilience.channel"),
        "netsim.trace.self_s": self_s("netsim.trace"),
        "core.session.self_s": self_s("core.session"),
        "resilience.degraded.self_s": self_s("resilience.degraded"),
        "campaign.runner.self_s": self_s("campaign.runner"),
    }
    # Only layers with a metric count: time in any other module is time
    # the reported layers do not explain.
    metrics["trace.coverage"] = _ratio(sum(metrics[k] for k in SELF_METRICS), wall)
    return metrics, per_layer
