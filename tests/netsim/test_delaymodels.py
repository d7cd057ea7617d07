"""Tests for delay processes, including property-based determinism."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.netsim.delaymodels import (
    AsymmetryEvent,
    CompositeDelay,
    ConstantDelay,
    DiurnalVariation,
    GaussianJitterDelay,
    InstabilityEvent,
    RouteChangeEvent,
    SpikeProcess,
    deterministic_normal,
    deterministic_uniform,
    normal_at,
    overlay,
    uniform_at,
)


class TestDeterministicNoise:
    @given(
        seed=st.integers(min_value=0, max_value=2**62),
        t=st.floats(min_value=0.0, max_value=1e7, allow_nan=False),
    )
    @settings(max_examples=100)
    def test_noise_is_pure_function_of_seed_and_time(self, seed, t):
        times = np.asarray([t])
        a = deterministic_uniform(seed, times)
        b = deterministic_uniform(seed, times)
        assert a[0] == b[0]
        assert 0.0 < a[0] < 1.0

    def test_different_seeds_differ(self):
        times = np.arange(0, 10, 0.01)
        a = deterministic_uniform(1, times)
        b = deterministic_uniform(2, times)
        assert not np.allclose(a, b)

    def test_vectorized_matches_scalar(self):
        times = np.arange(0, 1, 0.01)
        vec = deterministic_uniform(5, times)
        scalars = [float(deterministic_uniform(5, np.asarray([t]))[0]) for t in times]
        np.testing.assert_array_equal(vec, scalars)

    def test_uniform_distribution_roughly_flat(self):
        u = deterministic_uniform(9, np.arange(0, 100, 0.001))
        assert abs(float(np.mean(u)) - 0.5) < 0.01
        assert abs(float(np.std(u)) - (1 / 12) ** 0.5) < 0.01

    def test_normal_moments(self):
        z = deterministic_normal(11, np.arange(0, 100, 0.001))
        assert abs(float(np.mean(z))) < 0.02
        assert abs(float(np.std(z)) - 1.0) < 0.02


class TestConstantDelay:
    def test_constant_everywhere(self):
        model = ConstantDelay(0.030)
        assert model.delay_at(0.0) == 0.030
        assert model.delay_at(1e6) == 0.030
        assert model.floor == 0.030

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            ConstantDelay(-1.0)


class TestGaussianJitterDelay:
    def test_mean_converges_to_base(self):
        model = GaussianJitterDelay(0.028, 0.0003, seed=3)
        delays = model.delays(np.arange(0, 60, 0.01))
        assert float(np.mean(delays)) == pytest.approx(0.028, abs=1e-4)

    def test_std_converges_to_sigma(self):
        model = GaussianJitterDelay(0.028, 0.0003, seed=3)
        delays = model.delays(np.arange(0, 60, 0.01))
        assert float(np.std(delays)) == pytest.approx(0.0003, rel=0.1)

    def test_never_below_floor(self):
        model = GaussianJitterDelay(0.010, 0.005, seed=4)  # huge jitter
        delays = model.delays(np.arange(0, 100, 0.01))
        assert np.all(delays >= model.floor)

    def test_zero_sigma_is_constant(self):
        model = GaussianJitterDelay(0.020, 0.0, seed=5)
        delays = model.delays(np.arange(0, 1, 0.01))
        assert np.all(delays == 0.020)

    @given(seed=st.integers(min_value=0, max_value=1000))
    @settings(max_examples=25)
    def test_deterministic_across_calls(self, seed):
        model = GaussianJitterDelay(0.030, 0.001, seed=seed)
        times = np.arange(0, 1, 0.05)
        np.testing.assert_array_equal(model.delays(times), model.delays(times))


class TestDiurnalVariation:
    def test_nonnegative_and_bounded(self):
        model = DiurnalVariation(amplitude=0.002)
        delays = model.delays(np.arange(0, 86400, 60.0))
        assert np.all(delays >= 0.0)
        assert np.all(delays <= 0.002 + 1e-12)

    def test_period_repeats(self):
        model = DiurnalVariation(amplitude=0.002, period=3600.0)
        assert model.delay_at(100.0) == pytest.approx(model.delay_at(3700.0))

    def test_mean_is_half_amplitude(self):
        model = DiurnalVariation(amplitude=0.004, period=100.0)
        delays = model.delays(np.arange(0, 100, 0.01))
        assert float(np.mean(delays)) == pytest.approx(0.002, abs=1e-5)


class TestSpikeProcess:
    def test_spike_rate_approximately_honored(self):
        model = SpikeProcess(
            rate_per_second=50.0, min_magnitude=0.01, max_magnitude=0.05, seed=6
        )
        times = np.arange(0, 100, 0.0001)
        delays = model.delays(times)
        spike_fraction = float(np.mean(delays > 0))
        assert spike_fraction == pytest.approx(50.0 * 1e-4, rel=0.2)

    def test_magnitudes_in_range(self):
        model = SpikeProcess(
            rate_per_second=1000.0, min_magnitude=0.01, max_magnitude=0.05, seed=7
        )
        delays = model.delays(np.arange(0, 10, 0.0001))
        spikes = delays[delays > 0]
        assert spikes.size > 0
        assert np.all(spikes >= 0.01)
        assert np.all(spikes <= 0.05)

    def test_invalid_magnitudes_rejected(self):
        with pytest.raises(ValueError):
            SpikeProcess(1.0, min_magnitude=0.05, max_magnitude=0.01)


class TestRouteChangeEvent:
    def make(self):
        return RouteChangeEvent(
            start=100.0, duration=600.0, shift=0.005, transition=30.0
        )

    def test_zero_outside_window(self):
        event = self.make()
        times = np.asarray([0.0, 99.9, 700.1, 1e6])
        np.testing.assert_array_equal(event.extra_delays(times), 0.0)

    def test_plateau_is_exact_shift(self):
        event = self.make()
        times = np.arange(140.0, 690.0, 1.0)
        np.testing.assert_allclose(event.extra_delays(times), 0.005)

    def test_transition_is_erratic_but_bounded(self):
        event = self.make()
        times = np.arange(100.0, 130.0, 0.01)
        extra = event.extra_delays(times)
        assert np.all(extra >= 0.0)
        assert np.all(extra <= event.churn_max)
        assert float(np.std(extra)) > 0.0

    def test_transition_longer_than_duration_rejected(self):
        with pytest.raises(ValueError):
            RouteChangeEvent(start=0.0, duration=10.0, transition=20.0)

    def test_active_during_overlap_detection(self):
        event = self.make()
        assert event.active_during(0.0, 200.0)
        assert event.active_during(650.0, 800.0)
        assert not event.active_during(0.0, 100.0)
        assert not event.active_during(700.0, 800.0)


class TestInstabilityEvent:
    def make(self):
        return InstabilityEvent(
            start=1000.0,
            duration=300.0,
            spike_probability=0.05,
            spike_min=0.010,
            spike_max=0.050,
            minor_max=0.002,
            seed=8,
        )

    def test_zero_outside_window(self):
        event = self.make()
        np.testing.assert_array_equal(
            event.extra_delays(np.asarray([999.0, 1300.1])), 0.0
        )

    def test_spikes_reach_near_max(self):
        event = self.make()
        extra = event.extra_delays(np.arange(1000.0, 1300.0, 0.001))
        assert float(np.max(extra)) > 0.045

    def test_spike_fraction_near_probability(self):
        event = self.make()
        extra = event.extra_delays(np.arange(1000.0, 1300.0, 0.0001))
        fraction = float(np.mean(extra >= 0.010))
        assert fraction == pytest.approx(0.05, rel=0.15)

    def test_non_spike_samples_have_minor_bump(self):
        event = self.make()
        extra = event.extra_delays(np.arange(1000.0, 1300.0, 0.001))
        minor = extra[(extra > 0) & (extra < 0.010)]
        assert minor.size > 0
        assert np.all(minor <= 0.002)


class TestAsymmetryEvent:
    def test_constant_shift_inside_window_only(self):
        event = AsymmetryEvent(start=10.0, duration=5.0, shift=0.003)
        times = np.asarray([9.9, 10.0, 12.5, 14.99, 15.0])
        np.testing.assert_allclose(
            event.extra_delays(times), [0.0, 0.003, 0.003, 0.003, 0.0]
        )


class TestCompositeDelay:
    def test_sums_base_components_events(self):
        model = CompositeDelay(
            base=ConstantDelay(0.028),
            components=(ConstantDelay(0.001),),
            events=(AsymmetryEvent(start=0.0, duration=100.0, shift=0.002),),
        )
        assert model.delay_at(50.0) == pytest.approx(0.031)
        assert model.delay_at(200.0) == pytest.approx(0.029)

    def test_floor_comes_from_base(self):
        model = CompositeDelay(base=ConstantDelay(0.028))
        assert model.floor == 0.028

    def test_with_event_is_non_destructive(self):
        model = CompositeDelay(base=ConstantDelay(0.028))
        extended = model.with_event(
            AsymmetryEvent(start=0.0, duration=1.0, shift=0.01)
        )
        assert len(model.events) == 0
        assert len(extended.events) == 1

    def test_events_overlapping_query(self):
        event = RouteChangeEvent(start=100.0, duration=50.0)
        model = CompositeDelay(base=ConstantDelay(0.01), events=(event,))
        assert model.events_overlapping(120.0, 130.0) == [event]
        assert model.events_overlapping(200.0, 300.0) == []


# ---------------------------------------------------------------------------
# Scalar path: bit-identical to the vectorised one
# ---------------------------------------------------------------------------


def assert_same_bits(vector, scalars):
    """Exact float64 bit patterns, so even -0.0 vs 0.0 would fail."""
    vector = np.asarray(vector, dtype=np.float64)
    scalars = np.asarray(scalars, dtype=np.float64)
    np.testing.assert_array_equal(vector.view(np.uint64), scalars.view(np.uint64))


def evaluate_both(model, times):
    times = np.asarray(times, dtype=np.float64)
    return model.delays(times), [model.delay_at(float(t)) for t in times]


#: Seeds across the masking boundaries: negative, 64-bit, beyond 64 bits.
seeds = st.one_of(
    st.integers(min_value=-(2**70), max_value=-1),
    st.integers(min_value=0, max_value=2**64 - 1),
    st.integers(min_value=2**64, max_value=2**80),
)
#: Times at 0, on the noise grid, anywhere in a run, and far out.
sample_times = st.one_of(
    st.just(0.0),
    st.integers(min_value=0, max_value=10**9).map(lambda k: k * 1e-4),
    st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
    st.floats(min_value=1e6, max_value=1e9, allow_nan=False),
)
time_lists = st.lists(sample_times, min_size=1, max_size=40)
delays_s = st.floats(min_value=0.0, max_value=0.2, allow_nan=False)
small_seeds = st.integers(min_value=0, max_value=2**32)

constants = st.builds(ConstantDelay, delays_s)
jitters = st.builds(
    GaussianJitterDelay,
    delays_s,
    st.floats(min_value=0.0, max_value=0.05, allow_nan=False),
    seed=small_seeds,
)
diurnals = st.builds(
    DiurnalVariation,
    st.floats(min_value=0.0, max_value=0.01, allow_nan=False),
    period=st.floats(min_value=1.0, max_value=86400.0, allow_nan=False),
    phase=st.floats(min_value=-7.0, max_value=7.0, allow_nan=False),
)
spikes = st.builds(
    lambda rate, lo, span, seed: SpikeProcess(rate, lo, lo + span, seed=seed),
    st.floats(min_value=0.0, max_value=20000.0, allow_nan=False),
    delays_s,
    delays_s,
    small_seeds,
)
starts = st.floats(min_value=0.0, max_value=1e4, allow_nan=False)
durations = st.floats(min_value=0.0, max_value=1e3, allow_nan=False)
route_changes = st.builds(
    lambda start, duration, frac, shift, churn, seed: RouteChangeEvent(
        start=start,
        duration=duration,
        shift=shift,
        transition=duration * frac,
        churn_max=churn,
        seed=seed,
    ),
    starts,
    durations,
    st.floats(min_value=0.0, max_value=1.0),
    delays_s,
    delays_s,
    small_seeds,
)
instabilities = st.builds(
    lambda start, duration, p, lo, span, minor, seed: InstabilityEvent(
        start=start,
        duration=duration,
        spike_probability=p,
        spike_min=lo,
        spike_max=lo + span,
        minor_max=minor,
        seed=seed,
    ),
    starts,
    durations,
    st.floats(min_value=0.0, max_value=1.0),
    delays_s,
    delays_s,
    delays_s,
    small_seeds,
)
asymmetries = st.builds(AsymmetryEvent, starts, durations, delays_s)
events = st.one_of(route_changes, instabilities, asymmetries)
plain_models = st.one_of(constants, jitters, diurnals, spikes)
composites = st.builds(
    CompositeDelay,
    st.one_of(constants, jitters),
    st.lists(st.one_of(diurnals, spikes), max_size=3).map(tuple),
    st.lists(events, max_size=3).map(tuple),
)


def window_edges(event):
    """Each window boundary plus its float neighbours on both sides."""
    edges = [event.start, event.end]
    if isinstance(event, RouteChangeEvent):
        edges.append(event.start + event.transition)
    out = []
    for edge in edges:
        out += [np.nextafter(edge, -np.inf), edge, np.nextafter(edge, np.inf)]
    return [t for t in out if t >= 0.0]


class TestScalarDraws:
    @given(seed=seeds, times=time_lists)
    @settings(max_examples=200, deadline=None)
    def test_uniform_at_matches_vector(self, seed, times):
        vector = deterministic_uniform(seed, np.asarray(times))
        assert_same_bits(vector, [uniform_at(seed, t) for t in times])

    @given(seed=seeds, times=time_lists)
    @settings(max_examples=200, deadline=None)
    def test_normal_at_matches_vector(self, seed, times):
        vector = deterministic_normal(seed, np.asarray(times))
        assert_same_bits(vector, [normal_at(seed, t) for t in times])

    def test_dense_grid_matches_vector(self):
        # A whole run's worth of consecutive probes on one stream.
        times = np.arange(0.0, 4.5, 1e-4)
        assert_same_bits(
            deterministic_normal(7, times), [normal_at(7, t) for t in times]
        )

    def test_scalar_draws_return_python_floats(self):
        assert type(uniform_at(1, 0.5)) is float
        assert type(normal_at(1, 0.5)) is float


class TestScalarModels:
    @given(model=st.one_of(plain_models, composites), times=time_lists)
    @settings(max_examples=300, deadline=None)
    def test_delay_at_matches_delays(self, model, times):
        assert_same_bits(*evaluate_both(model, times))

    @given(event=events, times=time_lists)
    @settings(max_examples=300, deadline=None)
    def test_extra_at_matches_extra_delays(self, event, times):
        times = np.asarray(times + window_edges(event), dtype=np.float64)
        assert_same_bits(
            event.extra_delays(times), [event.extra_at(float(t)) for t in times]
        )

    @given(
        base=st.one_of(constants, jitters, composites),
        spikes=st.lists(asymmetries, min_size=1, max_size=4),
        times=time_lists,
    )
    @settings(max_examples=200, deadline=None)
    def test_overlay_stacks_match(self, base, spikes, times):
        # The fault injector overlays one delay spike per fault event.
        model = base
        for spike in spikes:
            model = overlay(model, spike)
        edges = [t for spike in spikes for t in window_edges(spike)]
        assert_same_bits(*evaluate_both(model, times + edges))

    def test_calibrated_vultr_paths_match(self):
        from repro.scenarios.vultr import (
            INSTABILITY_HOUR,
            LA_TO_NY_PATHS,
            NY_TO_LA_PATHS,
            ROUTE_CHANGE_HOUR,
        )

        # A minute of 10 ms probes, then a minute across each event edge.
        grid = np.arange(0.0, 60.0, 0.01)
        pieces = [grid]
        for hour in (ROUTE_CHANGE_HOUR, INSTABILITY_HOUR):
            for edge in (0.0, 30.0, 300.0, 600.0):
                pieces.append(hour * 3600.0 + edge - 30.0 + grid)
        times = np.concatenate(pieces)
        for paths in (NY_TO_LA_PATHS, LA_TO_NY_PATHS):
            for calibration in paths.values():
                assert_same_bits(*evaluate_both(calibration.build(), times))
