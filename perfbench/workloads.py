"""The benchmark's workloads: seeded inputs, one unit of work, its checks.

Each workload builds its inputs from the seed in :meth:`setup`, runs one
*item* per unit of work in :meth:`run`, reduces an item's output to
canonical bytes in :meth:`fingerprint` (repeated units of one item must
agree byte for byte) and checks it in :meth:`check`: always against the
workload's own gates, and on the workload's default seed also against the
committed golden output in ``perfbench/golden/``.

All program code is reached through ``repro``'s public API; nothing here
changes what the program computes.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
GOLDEN = HERE / "golden"

Check = tuple[str, bool]


def canonical(obj: object) -> bytes:
    return (json.dumps(obj, indent=2, sort_keys=True) + "\n").encode()


class Workload:
    name = ""
    default_seed = 0

    def setup(self, seed: int) -> None:
        self.seed = seed

    def items(self) -> list[int]:
        return [0]

    def run(self, item: int) -> object:
        raise NotImplementedError

    def fingerprint(self, output: object) -> bytes:
        return canonical(output)

    def check(self, item: int, output: object) -> list[Check]:
        raise NotImplementedError


class Replay(Workload):
    """``tango-repro faults run`` on the blackhole example plan."""

    name = "replay"
    default_seed = 7
    plan = ROOT / "examples" / "faults_blackhole.json"
    mttr_slo_s = 2.0

    def setup(self, seed: int) -> None:
        super().setup(seed)
        from repro import cli
        from repro.faults import FaultPlan

        FaultPlan.from_file(str(self.plan))  # fail in set-up, not mid-run
        self._main = cli.main

    def run(self, item: int) -> tuple[int, str]:
        argv = [
            "faults", "run", "--plan", str(self.plan),
            "--seed", str(self.seed), "--transitions",
        ]
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = self._main(argv)
        return code, out.getvalue()

    def fingerprint(self, output: tuple[int, str]) -> bytes:
        code, text = output
        return f"exit={code}\n{text}".encode()

    def check(self, item: int, output: tuple[int, str]) -> list[Check]:
        code, text = output
        lines = text.splitlines()
        blackhole = [ln.split() for ln in lines if ln.startswith("link_blackhole ")]
        mttr = [ln for ln in lines if ln.startswith("# mttr_s=")]
        checks = [
            ("replay.exit_0", code == 0),
            ("replay.seed_in_header", f"seed={self.seed} " in text),
            # kind target at cleared detected rerouted ...: both detected.
            ("replay.blackhole_rerouted", bool(blackhole) and all(
                row[4] != "-" and row[5] != "-" for row in blackhole)),
            ("replay.mttr_within_slo", len(mttr) == 1 and float(
                mttr[0].split()[1].split("=")[1]) < self.mttr_slo_s),
        ]
        if self.seed == self.default_seed:
            golden = (GOLDEN / "replay_seed7.txt").read_text()
            checks.append(("replay.golden_recovery_log", text == golden))
        return checks


class Federation(Workload):
    """E20 federation at N=8 in its smoke form: BGP-bound establishment."""

    name = "federation"
    default_seed = 42
    edges = 8

    def setup(self, seed: int) -> None:
        super().setup(seed)
        from repro.federation.experiment import run_federation_experiment

        self._run = run_federation_experiment

    def run(self, item: int) -> dict:
        return self._run(self.edges, seed=self.seed, smoke=True)

    def check(self, item: int, report: dict) -> list[Check]:
        cache = report["snapshot_cache"]
        baseline = report["independent_baseline"]
        # The gates of ``tango-repro federation run``.
        checks = [
            ("federation.established", report["established_pairs"] == report["pairs"]),
            ("federation.dedup", cache["hit_rate"] >= 0.5
             and cache["hit_rate"] > baseline["hit_rate"]),
            ("federation.stitched_rescue", report["degraded_pair"]["usable_routes"] >= 2),
            ("federation.reroute_within_budget", report["reroute"]["within_budget"]),
        ]
        if self.seed == self.default_seed:
            golden = json.loads((GOLDEN / "federation_seed42.json").read_text())
            for key, want in sorted(golden.items()):
                got = report["scaling"] if key == "scaling" else report[key]
                checks.append((f"federation.golden.{key}", canonical(got) == canonical(want)))
        return checks


class Surge(Workload):
    """E16: ~1M modelled flows and a 2.5x surge on the vector fluid engine."""

    name = "surge"
    default_seed = 42
    target_flows = 1_000_000
    duration_s = 150.0
    step_s = 0.1
    surge_factor = 2.5

    def setup(self, seed: int) -> None:
        super().setup(seed)
        import repro.scenarios.vultr  # noqa: F401  (import cost is set-up)
        import repro.traffic.vector  # noqa: F401

    def run(self, item: int) -> dict:
        from repro.core.controller import QuarantinePolicy, TangoController
        from repro.scenarios.vultr import VultrDeployment
        from repro.traffic.demand import DemandModel, standard_flow_classes
        from repro.traffic.splitting import LoadAwareWeights, WeightedSplitSelector
        from repro.traffic.vector import create_fluid_engine

        # The E16 scale run (``run_scale_workload``), with the demand seed
        # taken from the benchmark seed.
        deployment = VultrDeployment(include_events=False)
        deployment.establish()
        sim = deployment.sim
        gateway = deployment.gateway_ny
        demand = DemandModel(
            classes=standard_flow_classes(self.target_flows * 1.05), seed=self.seed
        )
        fluid = create_fluid_engine(
            deployment, "ny", demand, engine="vector", step_s=self.step_s
        )
        selector = WeightedSplitSelector(
            LoadAwareWeights(gateway.outbound, window_s=1.0, utilization=fluid.utilization),
            seed=9,
        )
        deployment.set_data_policy("ny", selector)
        controller = TangoController(
            gateway, sim, interval_s=0.1, quarantine=QuarantinePolicy()
        )
        deployment.attach_controller("ny", controller)
        controller.start()
        start = sim.now
        surge_at = start + self.duration_s / 3.0
        surge_end = start + 2.0 * self.duration_s / 3.0
        demand.add_surge(surge_at, surge_end, self.surge_factor)
        fluid.start()
        sim.run(until=start + self.duration_s)
        fluid.stop()
        controller.stop()

        digest = hashlib.sha256()
        for path_id, series in gateway.outbound.items():
            digest.update(f"{path_id}:".encode())
            digest.update(series.times.tobytes())
            digest.update(series.values.tobytes())
        digest.update(repr(fluid.split_trace).encode())
        digest.update(repr(fluid.concurrency_trace).encode())
        return {
            "peak_concurrent_flows": fluid.peak_concurrent_flows,
            "steps": fluid.steps,
            "splits_recomputed": fluid.splits_recomputed,
            "controller_ticks": controller.ticks,
            "dominant_path_pre_surge": fluid.dominant_path(at=surge_at - self.step_s),
            "dominant_path_during_surge": fluid.dominant_path(at=surge_end - self.step_s),
            "digest": digest.hexdigest(),
        }

    def check(self, item: int, out: dict) -> list[Check]:
        # The E16 scale gates, less the wall budget (time is measured here).
        checks = [
            ("surge.peak_flows", out["peak_concurrent_flows"] >= self.target_flows),
            ("surge.split_shifted",
             out["dominant_path_pre_surge"] != out["dominant_path_during_surge"]),
        ]
        if self.seed == self.default_seed:
            golden = json.loads((GOLDEN / "surge_seed42.json").read_text())
            checks.append(("surge.golden_digest", canonical(out) == canonical(golden)))
        return checks


class Campaign(Workload):
    """An in-process E17 shard: the first plan of each archetype."""

    name = "campaign"
    default_seed = 2026
    plans = 5

    def setup(self, seed: int) -> None:
        super().setup(seed)
        from repro.campaign.plans import generate_adversarial_plans
        from repro.campaign.runner import CampaignConfig, run_plan

        self.config = CampaignConfig()
        self._payloads = [
            adv.to_payload() for adv in generate_adversarial_plans(self.plans, seed)
        ]
        self._run_plan = run_plan
        self._golden = json.loads((GOLDEN / "campaign_seed2026.json").read_text())
        # E17's regret budget, from the committed fault-free baseline run
        # (the baseline has no faults, so it does not depend on the seed).
        self._budget_ms = max(
            self.config.regret_factor * (self._golden["baseline_median_ms"] or 0.0),
            self.config.regret_floor_ms,
        )

    def items(self) -> list[int]:
        return list(range(self.plans))

    def run(self, item: int) -> dict:
        return self._run_plan(self._payloads[item], self.config)

    def check(self, item: int, row: dict) -> list[Check]:
        # The per-plan E17 gates of ``run_campaign``.
        config = self.config
        defended = row["defended"]
        name = f"campaign.plan{item}"
        checks = [
            (f"{name}.regret", defended["median_ms"] is not None
             and defended["median_ms"] <= self._budget_ms),
            (f"{name}.availability", defended["availability"] is not None
             and defended["availability"] >= config.availability_slo),
            (f"{name}.mttr", defended["mttr_s"] is None
             or defended["mttr_s"] <= config.mttr_slo_s),
        ]
        if row["favored"] is not None:
            floor = config.min_undefended_steer_horizons * config.telemetry_horizon_s
            checks += [
                (f"{name}.defended_not_steered",
                 defended.get("steered_s", 0.0) <= config.telemetry_horizon_s),
                (f"{name}.undefended_steered",
                 row["undefended"].get("steered_s", 0.0) >= floor),
            ]
        if self.seed == self.default_seed:
            want = self._golden["rows"][item]
            checks.append((f"{name}.golden_row", canonical(row) == canonical(want)))
        return checks


WORKLOADS: dict[str, Workload] = {
    w.name: w for w in (Replay(), Federation(), Surge(), Campaign())
}
