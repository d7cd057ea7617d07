"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])

    def test_profile_is_no_longer_a_command(self):
        # The engine before/after comparison is benchmarks/, not the CLI.
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["profile"])
        assert exc.value.code == 2

    def test_campaign_defaults(self):
        args = build_parser().parse_args(["campaign"])
        assert args.direction == "ny"
        assert args.start_hour == 25.0


class TestCommands:
    def test_discover_prints_figure3(self, capsys):
        assert main(["discover"]) == 0
        out = capsys.readouterr().out
        assert "LA -> NY" in out
        assert "NTT Cogent" in out
        assert "20473:6000:2914" in out

    def test_campaign_prints_stats(self, capsys):
        assert (
            main(
                [
                    "campaign",
                    "--hours",
                    "0.02",
                    "--interval",
                    "0.1",
                    "--no-events",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "GTT" in out
        assert "mean_ms" in out

    def test_mesh_prints_sweep(self, capsys):
        assert main(["mesh", "--max-n", "3"]) == 0
        out = capsys.readouterr().out
        assert "Tango of N" in out

    def test_failover_reports_recovery(self, capsys):
        assert main(["failover", "--fail-at", "3.0"]) == 0
        out = capsys.readouterr().out
        assert "tango recovered" in out
        assert "BGP convergence" in out


class TestFaults:
    def test_faults_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["faults"])

    def test_run_defaults(self):
        args = build_parser().parse_args(["faults", "run"])
        assert args.faults_command == "run"
        assert args.plan is None
        assert args.seed is None
        assert args.duration is None
        assert not args.transitions

    def test_sample_plan_roundtrips(self, capsys):
        from repro.faults import FaultPlan

        assert main(["faults", "sample-plan"]) == 0
        out = capsys.readouterr().out
        plan = FaultPlan.from_json(out)
        assert plan.name == "blackhole-demo"
        assert len(plan.events) == 3

    def test_run_parses_resilient_flag(self):
        args = build_parser().parse_args(["faults", "run", "--resilient"])
        assert args.resilient


class TestFaultsRunBadPlan:
    """Malformed plans must exit non-zero with a message, not traceback."""

    def test_invalid_json_plan(self, tmp_path, capsys):
        plan = tmp_path / "broken.json"
        plan.write_text("{not json", encoding="utf-8")
        assert main(["faults", "run", "--plan", str(plan)]) == 2
        err = capsys.readouterr().err
        assert "invalid fault plan" in err
        assert "Traceback" not in err

    def test_unknown_fault_kind(self, tmp_path, capsys):
        plan = tmp_path / "unknown-kind.json"
        plan.write_text(
            '{"name": "bad", "events": [{"kind": "meteor_strike", "at": 1.0}]}',
            encoding="utf-8",
        )
        assert main(["faults", "run", "--plan", str(plan)]) == 2
        err = capsys.readouterr().err
        assert "meteor_strike" in err

    def test_missing_required_params(self, tmp_path, capsys):
        plan = tmp_path / "missing-params.json"
        plan.write_text(
            '{"name": "bad", "events": '
            '[{"kind": "link_blackhole", "at": 1.0, "duration": 2.0}]}',
            encoding="utf-8",
        )
        assert main(["faults", "run", "--plan", str(plan)]) == 2
        err = capsys.readouterr().err
        assert "missing parameter" in err

    def test_unreadable_plan_file(self, tmp_path, capsys):
        missing = tmp_path / "nope.json"
        assert main(["faults", "run", "--plan", str(missing)]) == 2
        err = capsys.readouterr().err
        assert "cannot read fault plan" in err

    def test_error_names_the_offending_event_index(self, tmp_path, capsys):
        """A 40-event plan with one bad event must say *which* one."""
        plan = tmp_path / "bad-second-event.json"
        plan.write_text(
            '{"name": "bad", "events": ['
            '{"kind": "link_blackhole", "at": 1.0, "duration": 2.0,'
            ' "src": "ny", "path": "GTT"},'
            '{"kind": "gray_loss", "at": 3.0, "duration": 2.0,'
            ' "src": "ny", "path": "GTT"}]}',
            encoding="utf-8",
        )
        assert main(["faults", "run", "--plan", str(plan)]) == 2
        err = capsys.readouterr().err
        assert "event #1:" in err
        assert "missing parameter" in err
        assert "Traceback" not in err


class TestFaultsCampaign:
    def test_parser_defaults(self):
        args = build_parser().parse_args(["faults", "campaign"])
        assert args.faults_command == "campaign"
        assert args.plans == 16
        assert args.workers == 1
        assert args.seed == 2026
        assert args.out == "BENCH_ROBUST.json"

    def test_nonpositive_counts_are_usage_errors(self, capsys):
        assert main(["faults", "campaign", "--plans", "0"]) == 2
        assert "plans" in capsys.readouterr().err
        assert main(["faults", "campaign", "--workers", "0"]) == 2
        assert "workers" in capsys.readouterr().err

    def test_tiny_campaign_writes_report(self, tmp_path, capsys):
        import json

        out = tmp_path / "robust.json"
        code = main(
            ["faults", "campaign", "--plans", "1", "--out", str(out)]
        )
        stdout = capsys.readouterr().out
        assert code == 0
        assert "all E17 gates passed" in stdout
        payload = json.loads(out.read_text())
        assert payload["experiment"] == "E17"
        assert payload["plans"] == 1
        assert payload["results"][0]["archetype"] == "favored_tamper"


class TestTraffic:
    def test_parser_defaults(self):
        args = build_parser().parse_args(["traffic", "run"])
        assert args.flows == 1_000_000
        assert args.out == "BENCH_TRAFFIC.json"
        assert not args.smoke

    def test_subcommand_required(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["traffic"])

    def test_nonpositive_flows_is_usage_error(self, capsys):
        assert main(["traffic", "run", "--flows", "0"]) == 2
        err = capsys.readouterr().err
        assert "--flows must be positive" in err

    def test_smoke_run_passes_and_writes_report(self, tmp_path, capsys):
        import json

        out = tmp_path / "BT.json"
        assert main(["traffic", "run", "--smoke", "--out", str(out)]) == 0
        printed = capsys.readouterr().out
        assert "peak flows" in printed
        assert "equivalence: ok" in printed
        assert f"wrote {out}" in printed
        payload = json.loads(out.read_text(encoding="utf-8"))
        assert payload["schema"] == "tango-repro/bench-traffic/v1"
        assert payload["passed"] is True
        assert payload["workloads"]["scale"]["passed"] is True

    def test_dash_out_skips_report(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["traffic", "run", "--smoke", "--out", "-"]) == 0
        assert not (tmp_path / "BENCH_TRAFFIC.json").exists()


class TestFederation:
    def test_parser_defaults(self):
        args = build_parser().parse_args(["federation", "run"])
        assert args.federation_command == "run"
        assert args.edges == 8
        assert args.seed == 42
        assert args.out == "-"
        assert not args.smoke

    def test_subcommand_required(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["federation"])

    def test_too_few_edges_is_usage_error(self, capsys):
        assert main(["federation", "run", "--edges", "2"]) == 2
        err = capsys.readouterr().err
        assert "--edges must be >= 3" in err

    def test_too_many_edges_is_usage_error(self, capsys):
        assert main(["federation", "run", "--edges", "11", "--smoke"]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "--edges must be <= 10" in err
        assert "scenarios/topologies.py" in err
        assert "Traceback" not in err

    def test_smoke_run_passes_and_writes_report(self, tmp_path, capsys):
        import json

        out = tmp_path / "fed.json"
        code = main(
            [
                "federation",
                "run",
                "--edges",
                "3",
                "--smoke",
                "--out",
                str(out),
            ]
        )
        printed = capsys.readouterr().out
        assert code == 0
        assert "shared cache hit rate" in printed
        assert "usable routes via relay" in printed
        assert f"wrote {out}" in printed
        payload = json.loads(out.read_text(encoding="utf-8"))
        assert payload["schema"] == "tango-repro/e20-federation/v1"
        assert payload["established_pairs"] == payload["pairs"] == 3
        assert payload["degraded_pair"]["usable_routes"] >= 2
        assert payload["reroute"]["within_budget"] is True
