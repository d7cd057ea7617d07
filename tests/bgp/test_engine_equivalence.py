"""Engine-equivalence suite: production vs the full-scan oracle.

Production's incremental work-queue engine is an optimization, not a
semantics change: under Gao–Rexford policies with deterministic
tie-breaks the network has a unique fixpoint, so it must land on
bit-exact the same state as the round-based oracle
(``tests/oracles/bgp.py``) for any sequence of operations.  This suite
drives every shipped scenario (Vultr, enterprise, mesh) and generated
three-tier topologies through representative workloads under each
engine and compares:

* full RIB contents (adj-rib-in, loc-rib, adj-rib-out, originations),
* discovery results (the ``paths`` tuples — wave counts legitimately
  differ between engines),
* fault-replay recovery logs (byte-identical ``RecoveryLog.format()``).
"""

import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bgp.network import BgpNetwork
from repro.core.discovery import PathDiscovery
from repro.scenarios.enterprise import (
    BUSINESS_ISP_ASN,
    build_enterprise_bgp,
)
from repro.scenarios.topologies import build_mesh_scenario
from repro.scenarios.vultr import VULTR_ASN, build_bgp_network
from tests.bgp.engine_bench import run_bench_replay
from tests.bgp.test_properties import (
    PREFIXES,
    build_network,
    topology_spec,
    topology_strategy,
)
from tests.oracles.bgp import (
    ENGINE_INCREMENTAL,
    ENGINE_ROUNDS,
    ENGINES,
    converge_rounds,
    use_engine,
)


def rib_dump(net: BgpNetwork) -> dict:
    """Canonical, comparable image of every routing table in the network."""
    dump = {}
    for name in sorted(net.routers):
        router = net.routers[name]
        dump[name] = {
            "adj_rib_in": router.adj_rib_in.snapshot(),
            "loc_rib": router.loc_rib.snapshot(),
            "adj_rib_out": router.adj_rib_out.snapshot(),
            "originated": dict(router.originated),
        }
    return dump


def run_vultr_workload(engine: str) -> tuple[dict, list]:
    """Originations, discovery both ways, a session bounce, a withdrawal."""
    net = build_bgp_network()
    use_engine(net, engine)
    paths = []
    net.router("tango-la").originate("2001:db8:a0::/48")
    net.router("tango-ny").originate("2001:db8:b0::/48")
    net.converge()
    discovery = PathDiscovery(net, VULTR_ASN)
    for announcer, observer in (("tango-ny", "tango-la"), ("tango-la", "tango-ny")):
        result = discovery.discover(
            announcer=announcer,
            observer=observer,
            probe_prefix="2001:db8:fff::/48",
        )
        paths.append(result.paths)
    net.reset_session("vultr-ny", "ntt")
    net.router("tango-la").withdraw_origination("2001:db8:a0::/48")
    net.converge()
    return rib_dump(net), paths


def run_enterprise_workload(engine: str) -> tuple[dict, list]:
    net = build_enterprise_bgp()
    use_engine(net, engine)
    net.router("tango-factory").originate("2001:db8:e100::/48")
    net.router("tango-hq").originate("2001:db8:e200::/48")
    net.converge()
    discovery = PathDiscovery(net, BUSINESS_ISP_ASN)
    result = discovery.discover(
        announcer="tango-hq",
        observer="tango-factory",
        probe_prefix="2001:db8:efff::/48",
    )
    net.reset_session("business-isp", "ntt")
    return rib_dump(net), [result.paths]


def run_mesh_workload(engine: str) -> tuple[dict, list]:
    """The mesh builder runs all-pairs discovery internally; rerun one
    extra pair per engine on top of the (deterministic) built state."""
    scenario = build_mesh_scenario(3, seed=7)
    net = scenario.bgp
    use_engine(net, engine)
    discovery = PathDiscovery(net, 64901)
    result = discovery.discover(
        announcer="edge1",
        observer="edge0",
        probe_prefix="2001:db8:feed::/48",
    )
    return rib_dump(net), [result.paths]


WORKLOADS = {
    "vultr": run_vultr_workload,
    "enterprise": run_enterprise_workload,
    "mesh": run_mesh_workload,
}


@pytest.mark.parametrize("scenario", sorted(WORKLOADS))
def test_engines_agree_on_all_ribs_and_paths(scenario):
    workload = WORKLOADS[scenario]
    rounds_ribs, rounds_paths = workload(ENGINE_ROUNDS)
    incr_ribs, incr_paths = workload(ENGINE_INCREMENTAL)
    assert rounds_paths == incr_paths
    assert rounds_ribs == incr_ribs


@pytest.mark.parametrize("engine", ENGINES)
def test_engine_reaches_same_fixpoint_as_fresh_converge(engine):
    """Idempotence: converging a converged network changes nothing and
    reports exactly one (verification) wave under either engine."""
    net = build_bgp_network()
    use_engine(net, engine)
    net.router("tango-la").originate("2001:db8:a0::/48")
    net.converge()
    before = rib_dump(net)
    assert net.converge() == 1
    assert rib_dump(net) == before


def test_engines_agree_after_interleaved_switch():
    """Switching engines mid-stream must not corrupt state: pending work
    is either flushed or carried, never dropped."""
    reference = build_bgp_network()
    use_engine(reference, ENGINE_ROUNDS)
    mixed = build_bgp_network()
    use_engine(mixed, ENGINE_INCREMENTAL)
    for net in (reference, mixed):
        net.router("tango-la").originate("2001:db8:a0::/48")
        net.converge()
    use_engine(mixed, ENGINE_ROUNDS)
    for net in (reference, mixed):
        net.router("tango-ny").originate("2001:db8:b0::/48")
        net.converge()
        net.reset_session("vultr-la", "telia")
    use_engine(mixed, ENGINE_INCREMENTAL)
    for net in (reference, mixed):
        net.router("tango-la").withdraw_origination("2001:db8:a0::/48")
        net.converge()
    assert rib_dump(reference) == rib_dump(mixed)


def test_fault_replay_recovery_logs_identical():
    """The bench replay yields byte-identical recovery logs on the
    full-scan oracle without a cache and on production with one."""
    oracle_s, _, oracle_log = run_bench_replay(ENGINE_ROUNDS, time.perf_counter)
    production_s, _, production_log = run_bench_replay(
        ENGINE_INCREMENTAL, time.perf_counter
    )
    assert oracle_s > 0.0
    assert production_s > 0.0
    assert oracle_log
    assert oracle_log == production_log


def draw_op(data, net, live, down):
    """One random operation valid on ``net``, as ``(method, args)``.

    ``live`` and ``down`` track the sessions that are up, and the
    ``session_config`` of those torn down, across steps.
    """
    originated = [
        (name, prefix)
        for name, router in net.routers.items()
        for prefix in PREFIXES
        if prefix in router.originated
    ]
    ops = ["originate"]
    ops += ["withdraw_origination"] if originated else []
    ops += ["disconnect", "reset_session"] if live else []
    ops += ["connect"] if down else []
    op = data.draw(st.sampled_from(ops))
    if op == "originate":
        return op, (
            data.draw(st.sampled_from(sorted(net.routers))),
            data.draw(st.sampled_from(PREFIXES)),
        )
    if op == "withdraw_origination":
        return op, data.draw(st.sampled_from(originated))
    if op == "connect":
        config = data.draw(st.sampled_from(down))
        down.remove(config)
        live.append(config[:2])
        return op, config
    session = data.draw(st.sampled_from(live))
    if op == "disconnect":
        live.remove(session)
        down.append(net.session_config(*session))
    return op, session


def apply_op(net, op, args):
    if op in ("originate", "withdraw_origination"):
        name, prefix = args
        getattr(net.router(name), op)(prefix)
    else:
        getattr(net, op)(*args)


@given(topology_strategy, st.data())
@settings(max_examples=40, deadline=None)
def test_oracle_agrees_over_generated_topologies_and_op_sequences(topo, data):
    """Random originations, withdrawals, disconnects, reconnects and
    session resets: after every step production and a network that
    switches between production and the oracle at random hold the same
    RIBs, and a converged network reports one round under either."""
    routers, sessions, _ = topology_spec(*topo)
    production = build_network(routers, sessions)
    mixed = build_network(routers, sessions)
    live = [(a, b) for _, a, b in sessions]
    down = []
    for _ in range(data.draw(st.integers(min_value=1, max_value=8))):
        use_engine(mixed, data.draw(st.sampled_from(ENGINES)))
        op, args = draw_op(data, production, live, down)
        for net in (production, mixed):
            apply_op(net, op, args)
            net.converge()
        assert rib_dump(mixed) == rib_dump(production)
        assert production.converge() == 1
        assert converge_rounds(mixed) == 1
        assert rib_dump(mixed) == rib_dump(production)
