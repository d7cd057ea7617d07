"""The benchmark's copy of a program scenario still matches the original."""

from workloads import Surge


def test_surge_on_the_e16_seed_matches_run_scale_workload():
    # Surge re-creates run_scale_workload so that the demand seed comes
    # from --seed and the outputs can be digested; on E16's seed both
    # must run the same scenario.
    from repro.traffic.bench import run_scale_workload

    surge = Surge()
    surge.setup(42)
    ours = surge.run(0)
    detail = run_scale_workload(duration_s=surge.duration_s, engine="vector").detail
    for key in ("steps", "splits_recomputed", "controller_ticks"):
        assert ours[key] == detail[key], key
    assert ours["peak_concurrent_flows"] == detail["peak_concurrent_flows"]
    assert ours["dominant_path_pre_surge"] == detail["dominant_path_pre_surge"]
    assert ours["dominant_path_during_surge"] == detail["dominant_path_during_surge"]
