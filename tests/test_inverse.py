"""Reconstruction pipelines: goldens, round trips, solvability dichotomy."""

import math

import numpy as np
import pytest

from osckit.asymptotics import TwoTermExpansion
from osckit.catalog import (
    FastProfile,
    SineSeries,
    SlowFunction,
    duhamel_weight,
)
from osckit.inverse import (
    IllConditionedSystemError,
    MultiPointObservation,
    SnapshotObservation,
    TraceObservation,
    implied_initial_layer,
    mode_weight_spectrum,
    recover_both_factors,
    recover_space_factor,
    recover_space_factor_and_oscillation,
    recover_time_factor,
    solve_amplitude_system,
    solve_snapshot_system,
    derivative_from_samples,
)

from _oracles import snapshot_from_callable


ROOT3 = math.sqrt(3.0)
ENVELOPE = SineSeries({1: 1.0, 2: 1.0})
LINEAR_MEAN = SlowFunction.monomial(1.0, 1)
SINE_OSC = FastProfile([(1, 0.0, 1.0)])
PHI0 = SlowFunction([(1.0, 0, -1.0), (1.0, 1, 0.0), (-1.0, 0, 0.0)])  # e^-t + t - 1
PHI2 = FastProfile([(1, -1.0, 0.0)])                                  # -cos tau
ALPHA1 = SlowFunction([
    (0.5, 1, 0.0), (0.5, 0, -1.0), (-0.5, 0, 0.0),
    (ROOT3 / 8.0, 1, 0.0), (ROOT3 / 32.0, 0, -4.0), (-ROOT3 / 32.0, 0, 0.0),
])
ZERO_WEIGHT_MEAN = SlowFunction([(1.0, 1, 0.0), (-1.0 / (math.e - 1.0), 0, 0.0)])


def golden_observation(**overrides):
    kwargs = dict(
        t0=1.0, half_width=0.5,
        x_points=(math.pi / 2.0, math.pi / 6.0),
        leading=PHI0, oscillating=PHI2,
        interior_traces=(ALPHA1,), horizon=2.0,
    )
    kwargs.update(overrides)
    return MultiPointObservation(**kwargs)


def profiles_match(got: FastProfile, want: FastProfile, tol=1e-10) -> bool:
    if len(got.harmonics) != len(want.harmonics):
        return False
    grid = np.linspace(0.0, 1.0, 17)
    for (k1, a1, b1), (k2, a2, b2) in zip(got.harmonics, want.harmonics):
        if k1 != k2:
            return False
        if np.max(np.abs(a1(grid) - a2(grid))) > tol:
            return False
        if np.max(np.abs(b1(grid) - b2(grid))) > tol:
            return False
    return True


# ---------------------------------------------------------------------------
# randomized catalog sources for round trips
# ---------------------------------------------------------------------------

def random_source(rng):
    """Envelope with separable time factor, mean, and oscillation.

    Envelope coefficients decay like n^-3 (the smoothness class of the
    trace problem), which keeps the trace Volterra equation well
    conditioned; the trace value at x0 stays bounded away from zero.
    """
    x0 = rng.uniform(1.2, 1.9)
    while True:
        modes = sorted(rng.choice(np.arange(1, 5), size=rng.integers(2, 4),
                                  replace=False))
        amps = [rng.uniform(0.4, 1.2) * rng.choice([-1.0, 1.0]) / n**3
                for n in modes]
        if abs(sum(a * math.sin(n * x0) for n, a in zip(modes, amps))) >= 0.35:
            break
    gamma_f = rng.uniform(-0.3, 0.3) if rng.random() < 0.5 else 0.0
    envelope = SineSeries({int(n): SlowFunction.monomial(float(a), 0, gamma_f)
                           for n, a in zip(modes, amps)})

    while True:
        terms = [(rng.uniform(-1.0, 1.0), int(rng.integers(0, 3)),
                  rng.uniform(-1.5, 0.8)) for _ in range(rng.integers(1, 3))]
        if all(abs(gamma_f + g + 1.0) >= 0.3 for _, _, g in terms):
            break
    mean = SlowFunction(terms)

    harmonics = []
    for k in rng.choice(np.arange(1, 4), size=rng.integers(1, 3), replace=False):
        harmonics.append((
            int(k),
            SlowFunction.monomial(rng.uniform(-1.0, 1.0), int(rng.integers(0, 2)),
                                  rng.uniform(-0.5, 0.5)),
            SlowFunction.monomial(rng.uniform(-1.0, 1.0), 0, rng.uniform(-0.5, 0.5)),
        ))
    oscillation = FastProfile(harmonics)
    return x0, envelope, mean, oscillation


def trace_round_trip(rng, intervals=2048):
    x0, envelope, mean, oscillation = random_source(rng)
    expansion = TwoTermExpansion.build(envelope, mean, oscillation, n_max=8)
    obs = TraceObservation(
        x0=x0,
        leading=expansion.leading.at_x(x0),
        oscillating=expansion.fast.at_x(x0),
        horizon=1.0,
    )
    rec = recover_time_factor(obs, envelope, n_max=8, intervals=intervals)
    t = rec.mean_grid.axes[0]
    mean_err = float(np.max(np.abs(rec.mean_grid.values - mean(t))))
    return mean_err, rec.oscillation, oscillation


# ---------------------------------------------------------------------------
# initial layer implied by the oscillating trace
# ---------------------------------------------------------------------------

class TestImpliedInitialLayer:
    def test_reference_case(self):
        layer = implied_initial_layer(PHI2, ENVELOPE, math.pi / 2.0)
        t = np.linspace(0.0, 2.0, 9)
        assert np.max(np.abs(layer(t) - np.exp(-t))) < 1e-14

    def test_zero_oscillating_part(self):
        layer = implied_initial_layer(FastProfile.zero(), ENVELOPE, math.pi / 2.0)
        assert layer.is_zero

    def test_scales_linearly_with_oscillating_part(self):
        half = FastProfile([(2, -0.5, 0.0)])  # -(1/2) cos 2 tau
        layer = implied_initial_layer(half, ENVELOPE, math.pi / 2.0)
        t = np.linspace(0.0, 1.0, 7)
        assert np.max(np.abs(layer(t) - 0.5 * np.exp(-t))) < 1e-14

    def test_level_equals_minus_initial_value(self):
        # <integral_0^tau d(phi2)/dtau ds> = -phi2(0, 0) for zero-mean phi2
        rng = np.random.default_rng(61)
        for _ in range(5):
            prof = FastProfile([
                (int(k), rng.uniform(-1, 1), rng.uniform(-1, 1))
                for k in rng.choice(np.arange(1, 6), 2, replace=False)
            ])
            level = prof.tau_derivative().antiderivative_fast_mean()(0.0)
            assert abs(level + prof(0.0, 0.0)) < 1e-13

    def test_vanishing_envelope_rejected(self):
        with pytest.raises(ValueError):
            implied_initial_layer(PHI2, SineSeries({2: 1.0}), math.pi / 2.0)


# ---------------------------------------------------------------------------
# mode weights
# ---------------------------------------------------------------------------

class TestModeWeightSpectrum:
    def test_linear_mean_reference_values(self):
        spec = mode_weight_spectrum(LINEAR_MEAN, 1.0, 4)
        assert abs(spec.weight(1) - math.exp(-1.0)) < 1e-15
        assert abs(spec.weight(2) - (3.0 + math.exp(-4.0)) / 16.0) < 1e-15
        assert spec.zero_modes == ()

    def test_zero_mean_all_weights_vanish(self):
        spec = mode_weight_spectrum(SlowFunction.zero(), 1.0, 6)
        assert spec.zero_modes == (1, 2, 3, 4, 5, 6)

    def test_constructed_first_weight_zero(self):
        spec = mode_weight_spectrum(ZERO_WEIGHT_MEAN, 1.0, 4)
        assert spec.zero_modes == (1,)
        assert abs(spec.weight(2)) > 1e-3

    def test_one_signed_mean_floor(self):
        rng = np.random.default_rng(37)
        for _ in range(10):
            mean = SlowFunction([
                (rng.uniform(0.2, 1.5), 0, 0.0),
                (rng.uniform(0.0, 1.0), 1, 0.0),
                (rng.uniform(0.0, 0.8), 2, rng.uniform(-1.0, 0.5)),
            ])
            t0 = rng.uniform(0.5, 1.5)
            spec = mode_weight_spectrum(mean, t0, 32)
            scaled = [n * n * spec.weight(n) for n in range(1, 33)]
            assert min(scaled) > 0.0
            assert spec.floor_estimate > 0.0


# ---------------------------------------------------------------------------
# recovery 1: time factor
# ---------------------------------------------------------------------------

class TestRecoverTimeFactor:
    def test_reference_case(self):
        obs = TraceObservation(math.pi / 2.0, PHI0, PHI2, horizon=2.0)
        rec = recover_time_factor(obs, ENVELOPE, n_max=8)
        t = rec.mean_grid.axes[0]
        assert np.max(np.abs(rec.mean_grid.values - t)) < 1e-6
        assert profiles_match(rec.oscillation, SINE_OSC, tol=1e-12)

    def test_zero_data_gives_zero_source(self):
        obs = TraceObservation(math.pi / 2.0, SlowFunction.zero(),
                               FastProfile.zero(), horizon=1.0)
        rec = recover_time_factor(obs, ENVELOPE, n_max=4, intervals=256)
        assert rec.mean_grid.sup_norm() < 1e-14
        assert rec.oscillation.is_zero

    @pytest.mark.parametrize("seed", range(5))
    def test_randomized_round_trip(self, seed):
        rng = np.random.default_rng(9000 + seed)
        mean_err, got_osc, want_osc = trace_round_trip(rng)
        assert mean_err < 5e-6
        assert profiles_match(got_osc, want_osc)

    def test_sampled_leading_trace(self):
        intervals = 2048
        grid = np.linspace(0.0, 2.0, intervals + 1)
        obs = TraceObservation(math.pi / 2.0, PHI0(grid), PHI2, horizon=2.0)
        rec = recover_time_factor(obs, ENVELOPE, n_max=8, intervals=intervals)
        assert np.max(np.abs(rec.mean_grid.values - grid)) < 1e-5

    def test_vanishing_envelope_trace_rejected(self):
        with pytest.raises(ValueError, match="bounded away"):
            obs = TraceObservation(math.pi / 2.0, PHI0, PHI2, horizon=2.0)
            recover_time_factor(obs, SineSeries({2: 1.0}), n_max=4)

    def test_nonzero_initial_leading_value_rejected(self):
        with pytest.raises(ValueError, match="vanish at t = 0"):
            TraceObservation(1.0, SlowFunction.constant(1.0),
                             FastProfile.zero(), horizon=1.0)


class TestDerivativeFromSamples:
    def test_fourth_order_on_polynomial(self):
        t = np.linspace(0.0, 1.0, 101)
        vals = t**4 - 2.0 * t**2
        want = 4.0 * t**3 - 4.0 * t
        got = derivative_from_samples(vals, float(t[1] - t[0]))
        assert np.max(np.abs(got - want)) < 1e-10

    def test_needs_five_samples(self):
        with pytest.raises(ValueError):
            derivative_from_samples(np.ones(4), 0.1)


# ---------------------------------------------------------------------------
# recovery 2: envelope
# ---------------------------------------------------------------------------

class TestRecoverSpaceFactor:
    def test_reference_snapshot(self):
        psi = SineSeries({1: math.exp(-1.0), 2: (3.0 + math.exp(-4.0)) / 16.0})
        rec = recover_space_factor(SnapshotObservation(1.0, psi), LINEAR_MEAN,
                                   n_max=8)
        assert rec.report.status == "unique"
        assert abs(rec.envelope.coefficient(1)(0.0) - 1.0) < 1e-9
        assert abs(rec.envelope.coefficient(2)(0.0) - 1.0) < 1e-9

    def test_zero_snapshot_zero_envelope(self):
        rec = recover_space_factor(SnapshotObservation(1.0, SineSeries({})),
                                   LINEAR_MEAN, n_max=8)
        assert rec.envelope.is_zero
        assert rec.report.status == "unique"

    def test_round_trip_from_generated_snapshot(self):
        rng = np.random.default_rng(314)
        mean = SlowFunction([(0.8, 0, 0.0), (0.4, 1, -0.6)])
        coeffs = {n: float(rng.uniform(-1.0, 1.0)) for n in range(1, 9)}
        t0 = 0.8
        psi = SineSeries({n: c * duhamel_weight(n, mean, t0)
                          for n, c in coeffs.items()})
        rec = recover_space_factor(SnapshotObservation(t0, psi), mean, n_max=8)
        for n, c in coeffs.items():
            assert abs(rec.envelope.coefficient(n)(0.0) - c) < 1e-9

    def test_unsolvable_when_zero_weight_meets_nonzero_coefficient(self):
        psi = SineSeries({1: 0.3, 2: 0.1})
        rec = recover_space_factor(SnapshotObservation(1.0, psi),
                                   ZERO_WEIGHT_MEAN, n_max=4)
        assert rec.report.status == "unsolvable"
        assert rec.report.offending_modes == (1,)

    def test_non_unique_zero_representative(self):
        weight2 = duhamel_weight(2, ZERO_WEIGHT_MEAN, 1.0)
        psi = SineSeries({2: 0.5 * weight2})
        rec = recover_space_factor(SnapshotObservation(1.0, psi),
                                   ZERO_WEIGHT_MEAN, n_max=4)
        assert rec.report.status == "non_unique"
        assert rec.report.zero_modes == (1,)
        assert rec.envelope.coefficient(1)(0.0) == 0.0
        assert abs(rec.envelope.coefficient(2)(0.0) - 0.5) < 1e-9

    def test_least_squares_cannot_beat_genuine_obstruction(self):
        # when the report says unsolvable, no coefficient choice drives the
        # snapshot mismatch to zero: brute-force least squares confirms
        psi_vec = np.array([0.3, 0.1, 0.0, 0.0])
        spec = mode_weight_spectrum(ZERO_WEIGHT_MEAN, 1.0, 4)
        x = np.linspace(0.0, math.pi, 201)[1:-1]
        design = np.column_stack([
            spec.weight(n) * np.sin(n * x) for n in range(1, 5)
        ])
        target = sum(psi_vec[n - 1] * np.sin(n * x) for n in range(1, 5))
        coeffs, *_ = np.linalg.lstsq(design, target, rcond=None)
        rms = math.sqrt(float(np.mean((design @ coeffs - target) ** 2)))
        assert rms > 0.9 * abs(psi_vec[0]) / math.sqrt(2.0)

    def test_callable_snapshot_of_numpy_ufunc(self):
        obs = snapshot_from_callable(1.0, np.sin, 8)
        assert abs(obs.coefficient_value(1) - 1.0) < 1e-13
        for n in range(2, 9):
            assert abs(obs.coefficient_value(n)) < 1e-13

    def test_callable_snapshot_decay_check(self):
        obs = snapshot_from_callable(
            1.0, lambda x: (x * (math.pi - x)) ** 3, 16)
        assert obs.decay_warning is None

    def test_callable_snapshot_warns_on_rough_profile(self):
        # x does not extend oddly through pi: coefficients decay like 1/n
        obs = snapshot_from_callable(1.0, lambda x: x, 16)
        assert obs.decay_warning is not None


# ---------------------------------------------------------------------------
# recovery 3: envelope and oscillation with known mean
# ---------------------------------------------------------------------------

def golden_snapshot():
    return SnapshotObservation(1.0, SineSeries({
        1: math.exp(-1.0), 2: (3.0 + math.exp(-4.0)) / 16.0}))


class TestRecoverSpaceFactorAndOscillation:
    def test_consistent_reference_data(self):
        trace_obs = TraceObservation(math.pi / 2.0, PHI0, PHI2, horizon=2.0)
        rec = recover_space_factor_and_oscillation(
            golden_snapshot(), trace_obs, LINEAR_MEAN, n_max=8)
        assert abs(rec.envelope.coefficient(1)(0.0) - 1.0) < 1e-9
        assert abs(rec.envelope.coefficient(2)(0.0) - 1.0) < 1e-9
        assert profiles_match(rec.oscillation, SINE_OSC, tol=1e-9)
        assert rec.congruence.residual_sup < 1e-8
        assert rec.congruence.consistent

    def test_zero_oscillating_part(self):
        trace_obs = TraceObservation(math.pi / 2.0, PHI0, FastProfile.zero(),
                                     horizon=2.0)
        rec = recover_space_factor_and_oscillation(
            golden_snapshot(), trace_obs, LINEAR_MEAN, n_max=8)
        assert rec.oscillation.is_zero

    def test_perturbed_leading_trace_flagged(self):
        # adding 1e-3 t^2 shifts the congruence residual by 2e-3 t
        perturbed = PHI0 + SlowFunction.monomial(1e-3, 2)
        trace_obs = TraceObservation(math.pi / 2.0, perturbed, PHI2, horizon=2.0)
        rec = recover_space_factor_and_oscillation(
            golden_snapshot(), trace_obs, LINEAR_MEAN, n_max=8)
        assert not rec.congruence.consistent
        assert abs(rec.congruence.residual_sup - 4e-3) < 5e-4

    def test_initial_layer_compatibility_reported(self):
        layer = implied_initial_layer(PHI2, ENVELOPE, math.pi / 2.0)
        trace_obs = TraceObservation(math.pi / 2.0, PHI0, PHI2, horizon=2.0,
                                     initial_layer=layer)
        rec = recover_space_factor_and_oscillation(
            golden_snapshot(), trace_obs, LINEAR_MEAN, n_max=8)
        assert rec.congruence.initial_layer_mismatch < 1e-9

    def test_zero_weight_rejected(self):
        trace_obs = TraceObservation(math.pi / 2.0, PHI0, PHI2, horizon=2.0)
        with pytest.raises(ValueError, match="weights vanish"):
            recover_space_factor_and_oscillation(
                golden_snapshot(), trace_obs, ZERO_WEIGHT_MEAN, n_max=4)


# ---------------------------------------------------------------------------
# recovery 4: both factors
# ---------------------------------------------------------------------------

class TestLinearSystems:
    def test_reference_snapshot_system(self):
        psi = solve_snapshot_system(golden_observation())
        assert abs(psi[0] - math.exp(-1.0)) < 1e-12
        assert abs(psi[1] - (3.0 + math.exp(-4.0)) / 16.0) < 1e-12

    def test_reference_amplitude_system(self):
        obs = golden_observation()
        psi = solve_snapshot_system(obs)
        amps = solve_amplitude_system(obs, psi)
        assert np.max(np.abs(amps - 1.0)) < 1e-12

    def test_zero_data(self):
        obs = golden_observation(leading=SlowFunction.zero(),
                                 interior_traces=(SlowFunction.zero(),))
        psi = solve_snapshot_system(obs)
        amps = solve_amplitude_system(obs, psi)
        assert np.max(np.abs(psi)) == 0.0
        assert np.max(np.abs(amps)) == 0.0

    def test_three_mode_manufactured_recovery(self):
        rng = np.random.default_rng(555)
        t0, horizon = 1.0, 2.0
        x_points = (1.0, 0.4, 2.2)
        amps = np.array([0.7, -0.3, 0.5])
        mean = SlowFunction.monomial(math.exp(-0.3 * t0), 0, 0.3)  # mean(t0)=1
        envelope = SineSeries.from_coefficients(amps)
        expansion = TwoTermExpansion.build(envelope, mean, FastProfile.zero(), 3)
        obs = MultiPointObservation(
            t0=t0, half_width=0.4, x_points=x_points,
            leading=expansion.leading.at_x(x_points[0]),
            oscillating=FastProfile.zero(),
            interior_traces=tuple(expansion.leading.at_x(x) for x in x_points[1:]),
            horizon=horizon,
        )
        psi = solve_snapshot_system(obs)
        got = solve_amplitude_system(obs, psi)
        assert np.max(np.abs(got - amps)) < 1e-10

    def test_nearly_coincident_points_rejected(self):
        with pytest.raises(IllConditionedSystemError):
            solve_snapshot_system(golden_observation(
                x_points=(1.0, 1.0 + 1e-13),
                interior_traces=(ALPHA1,)))


class TestRecoverBothFactors:
    def test_reference_pipeline(self):
        rec = recover_both_factors(golden_observation())
        assert abs(rec.snapshot_coeffs[0] - math.exp(-1.0)) < 1e-10
        assert abs(rec.snapshot_coeffs[1] - (3.0 + math.exp(-4.0)) / 16.0) < 1e-10
        assert abs(rec.envelope.coefficient(1)(0.0) - 1.0) < 1e-10
        assert abs(rec.envelope.coefficient(2)(0.0) - 1.0) < 1e-10
        t = rec.mean_grid.axes[0]
        assert np.max(np.abs(rec.mean_grid.values - t)) < 1e-6
        assert profiles_match(rec.oscillation, SINE_OSC, tol=1e-12)
        assert rec.consistency.residual_sup < 1e-8
        assert rec.solvable

    def test_gauge_is_exact_for_reference(self):
        rec = recover_both_factors(golden_observation())
        assert abs(rec.gauge - 1.0) < 1e-12

    def test_zero_oscillating_part_recovers_zero(self):
        obs = golden_observation(oscillating=FastProfile.zero())
        rec = recover_both_factors(obs)
        assert rec.oscillation.is_zero
        assert rec.solvable

    def test_window_bump_reported_unsolvable(self):
        # a 1e-3 bump vanishing to second order at t0 leaves the linear
        # systems untouched, so the residual is the bump itself
        bump = SlowFunction([(4e-3, 2, 0.0), (-8e-3, 1, 0.0), (4e-3, 0, 0.0)])
        obs = golden_observation(interior_traces=(ALPHA1 + bump,))
        rec = recover_both_factors(obs)
        assert not rec.solvable
        assert 5e-4 < rec.consistency.residual_sup < 2e-3

    def test_round_trip_with_oscillation_and_gauge(self):
        rng = np.random.default_rng(777)
        for _ in range(3):
            t0, horizon = 1.0, 2.0
            x_points = (1.3, 0.6, 2.4)
            amps = rng.uniform(0.4, 1.2, 3) * rng.choice([-1.0, 1.0], 3) \
                / np.arange(1, 4) ** 2
            if abs(sum(a * math.sin((n + 1) * x_points[0])
                       for n, a in enumerate(amps))) < 0.25:
                continue
            gamma = rng.uniform(-0.5, 0.5)
            mean = SlowFunction.monomial(math.exp(-gamma * t0), 0, gamma)
            oscillation = FastProfile([
                (1, rng.uniform(-1, 1), rng.uniform(-1, 1)),
                (3, 0.0, rng.uniform(-1, 1)),
            ])
            envelope = SineSeries.from_coefficients(amps)
            expansion = TwoTermExpansion.build(envelope, mean, oscillation, 3)
            obs = MultiPointObservation(
                t0=t0, half_width=0.4, x_points=x_points,
                leading=expansion.leading.at_x(x_points[0]),
                oscillating=expansion.fast.at_x(x_points[0]),
                interior_traces=tuple(expansion.leading.at_x(x)
                                      for x in x_points[1:]),
                horizon=horizon,
            )
            rec = recover_both_factors(obs)
            assert rec.solvable
            assert rec.consistency.residual_sup < 1e-7
            for n, a in enumerate(amps, start=1):
                assert abs(rec.envelope.coefficient(n)(0.0) - a) < 1e-9
            t = rec.mean_grid.axes[0]
            # mean matches to the O(h^2) marching error of the T=2 grid
            assert np.max(np.abs(rec.mean_grid.values - mean(t))) < 2e-5
            assert profiles_match(rec.oscillation, oscillation, tol=1e-9)

    def test_single_point_case_runs(self):
        mean = SlowFunction.monomial(math.exp(-1.0), 0, 1.0)  # e^{t-1}, =1 at t0
        envelope = SineSeries({1: 1.0})
        expansion = TwoTermExpansion.build(envelope, mean, FastProfile.zero(), 1)
        obs = MultiPointObservation(
            t0=1.0, half_width=0.3, x_points=(math.pi / 2.0,),
            leading=expansion.leading.at_x(math.pi / 2.0),
            oscillating=FastProfile.zero(), interior_traces=(), horizon=2.0)
        rec = recover_both_factors(obs)
        assert rec.solvable
        assert abs(rec.envelope.coefficient(1)(0.0) - 1.0) < 1e-8

    def test_envelope_vanishing_at_x0_rejected(self):
        # with x0 = pi/2 an envelope carried by mode 2 alone vanishes there
        envelope = SineSeries({2: 1.0})
        mean = SlowFunction.monomial(math.exp(-1.0), 0, 1.0)
        expansion = TwoTermExpansion.build(envelope, mean, FastProfile.zero(), 2)
        obs = MultiPointObservation(
            t0=1.0, half_width=0.3, x_points=(math.pi / 2.0, math.pi / 4.0),
            leading=expansion.leading.at_x(math.pi / 2.0),
            oscillating=FastProfile.zero(),
            interior_traces=(expansion.leading.at_x(math.pi / 4.0),),
            horizon=2.0)
        with pytest.raises(ValueError, match="vanishes at x0"):
            recover_both_factors(obs)


class TestObservationValidation:
    def test_duplicate_points_rejected(self):
        with pytest.raises(ValueError, match="distinct"):
            golden_observation(x_points=(1.0, 1.0), interior_traces=(ALPHA1,))

    def test_window_must_fit_inside_domain(self):
        with pytest.raises(ValueError, match="window"):
            golden_observation(half_width=1.5)

    def test_point_count_must_match_traces(self):
        with pytest.raises(ValueError, match="interior trace"):
            golden_observation(interior_traces=())
