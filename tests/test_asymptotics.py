"""Two-term expansion: component formulas, structural identities, orders."""

import math
import tracemalloc

import numpy as np
import pytest

import osckit.asymptotics as asymptotics
import osckit.catalog as catalog
from osckit.asymptotics import (
    TwoTermExpansion,
    corrector,
    initial_layer,
    leading_term,
    residual_norm,
    resolving_time_count,
)
from osckit.catalog import (
    FastProfile,
    SineSeries,
    SlowFunction,
    SourceFactor,
)
from osckit.forward import HeatProblem, solve_heat
from osckit.scenarios import builtin_scenario

from _oracles import (
    central_derivative,
    compose,
    grid_remainder,
    outer_sum,
    residual_norm_one_shot,
    time_derivative_grid,
    xx_derivative_grid,
)

ENVELOPE = SineSeries({1: 1.0, 2: 1.0})
LINEAR_MEAN = SlowFunction.monomial(1.0, 1)
SINE_OSC = FastProfile([(1, 0.0, 1.0)])


def reference_problem(omega, horizon=1.0):
    return HeatProblem(ENVELOPE, SourceFactor(LINEAR_MEAN, SINE_OSC),
                       omega, horizon)


class TestLeadingTerm:
    def test_interior_point_values(self):
        # at x = pi/6: (t + e^-t - 1)/2 + (sqrt 3/32)(4t + e^-4t - 1)
        u0 = leading_term(ENVELOPE, LINEAR_MEAN)
        t = np.linspace(0.0, 2.0, 9)
        want = 0.5 * (t + np.exp(-t) - 1.0) \
            + math.sqrt(3.0) / 32.0 * (4.0 * t + np.exp(-4.0 * t) - 1.0)
        got = u0.evaluate_grid([math.pi / 6.0], t)[0]
        assert np.max(np.abs(got - want)) < 1e-14

    def test_zero_mean_gives_zero(self):
        u0 = leading_term(ENVELOPE, SlowFunction.zero())
        assert u0.evaluate_grid(np.linspace(0, math.pi, 9),
                                np.linspace(0, 1, 5)).max() == 0.0

    def test_single_mode_constant_mean(self):
        u0 = leading_term(SineSeries({1: 1.0}), SlowFunction.constant(1.0))
        x, t = 1.1, 0.7
        assert abs(u0(x, t) - (1.0 - math.exp(-t)) * math.sin(x)) < 1e-14

    def test_trace_slow_function_matches_grid(self):
        u0 = leading_term(ENVELOPE, LINEAR_MEAN)
        x0 = 0.8
        slow = u0.at_x(x0)
        t = np.linspace(0.0, 1.5, 11)
        assert np.allclose(slow(t), u0.evaluate_grid([x0], t)[0], atol=1e-13)


class TestCorrector:
    def test_reference_profile_at_center(self):
        v1 = corrector(ENVELOPE, SINE_OSC)
        tau = np.linspace(0.0, 2.0 * math.pi, 9)
        got = np.array([v1(math.pi / 2.0, 0.4, s) for s in tau])
        assert np.max(np.abs(got + np.cos(tau))) < 1e-14

    def test_zero_oscillation(self):
        v1 = corrector(ENVELOPE, FastProfile.zero())
        assert v1.profile.is_zero

    def test_cosine_oscillation(self):
        v1 = corrector(SineSeries({1: 1.0}), FastProfile([(1, 1.0, 0.0)]))
        x, t, tau = 0.6, 0.2, 2.5
        assert abs(v1(x, t, tau) - math.sin(x) * math.sin(tau)) < 1e-15

    def test_phase_derivative_recovers_forcing(self):
        # dv1/dtau = envelope * oscillation, exactly on the catalog
        rng = np.random.default_rng(17)
        osc = FastProfile([(1, rng.uniform(-1, 1), rng.uniform(-1, 1)),
                           (3, 0.0, rng.uniform(-1, 1))])
        v1 = corrector(ENVELOPE, osc)
        d = v1.profile.tau_derivative()
        t = np.linspace(0.0, 1.0, 7)
        tau = np.linspace(0.0, 2.0 * math.pi, 11)
        for ts in t:
            for taus in tau:
                want = osc(ts, taus)
                assert abs(d(ts, taus) - want) < 1e-14


class TestInitialLayer:
    def test_reference_level_and_trace(self):
        u1 = initial_layer(ENVELOPE, SINE_OSC)
        assert u1.level == 1.0
        t = np.linspace(0.0, 1.0, 9)
        got = u1.evaluate_grid([math.pi / 2.0], t)[0]
        assert np.max(np.abs(got - np.exp(-t))) < 1e-15

    def test_zero_initial_slice(self):
        osc = FastProfile([(1, SlowFunction.monomial(1.0, 1), 0.0)])
        u1 = initial_layer(ENVELOPE, osc)
        assert u1.level == 0.0

    def test_pure_cosine_oscillation_gives_zero_layer(self):
        u1 = initial_layer(ENVELOPE, FastProfile([(1, 1.0, 0.0)]))
        assert u1.level == 0.0
        assert u1.evaluate_grid([0.3], [0.5])[0, 0] == 0.0

    def test_matching_condition_cancels_corrector(self):
        rng = np.random.default_rng(23)
        for _ in range(5):
            osc = FastProfile([(1, rng.uniform(-1, 1), rng.uniform(-1, 1)),
                               (2, rng.uniform(-1, 1), rng.uniform(-1, 1))])
            u1 = initial_layer(ENVELOPE, osc)
            v1 = corrector(ENVELOPE, osc)
            x = np.linspace(0.0, math.pi, 33)
            defect = u1.evaluate_grid(x, [0.0])[:, 0] \
                + v1.envelope.evaluate_grid(x, [0.0])[:, 0] * v1.profile(0.0, 0.0)
            assert np.max(np.abs(defect)) < 1e-12


class TestComposition:
    def test_large_omega_limit_is_leading_term(self):
        expansion = TwoTermExpansion.build(ENVELOPE, LINEAR_MEAN, SINE_OSC)
        u = compose(expansion, 1e12, 17, 17, 1.0)
        u0 = expansion.leading.evaluate_grid(u.axes[0], u.axes[1])
        assert np.max(np.abs(u.values - u0)) < 1e-11

    def test_reference_trace_formula(self):
        # at x0 = pi/2: u0 + (e^-t - cos(omega t)) / omega
        omega = 50.0
        expansion = TwoTermExpansion.build(ENVELOPE, LINEAR_MEAN, SINE_OSC)
        t = np.linspace(0.0, 1.0, 257)
        grid = expansion.evaluate_grid([math.pi / 2.0], t, omega)[0]
        phi0 = np.exp(-t) + t - 1.0
        want = phi0 + (np.exp(-t) - np.cos(omega * t)) / omega
        assert np.max(np.abs(grid - want)) < 1e-13

    def test_additivity_in_envelope(self):
        omega = 30.0
        e1 = SineSeries({1: 0.7})
        e2 = SineSeries({2: -0.4})
        e12 = SineSeries({1: 0.7, 2: -0.4})
        x = np.linspace(0.0, math.pi, 17)
        t = np.linspace(0.0, 1.0, 17)

        def values(env):
            return TwoTermExpansion.build(env, LINEAR_MEAN, SINE_OSC) \
                .evaluate_grid(x, t, omega)

        assert np.max(np.abs(values(e12) - values(e1) - values(e2))) < 1e-13


class TestStructuralChecks:
    def test_leading_term_satisfies_heat_equation(self):
        # du0/dt - d2u0/dx2 - envelope * mean = 0; the time derivative comes
        # from the termwise-differentiated closed forms, cross-checked by
        # central differences
        u0 = leading_term(ENVELOPE, LINEAR_MEAN)
        rng = np.random.default_rng(31)
        x = rng.uniform(0.3, math.pi - 0.3, 8)
        t = rng.uniform(0.1, 1.9, 8)
        dudt = time_derivative_grid(u0, x, t)
        dudxx = xx_derivative_grid(u0, x, t)
        forcing = ENVELOPE.evaluate_grid(x, t) * LINEAR_MEAN(t)[None, :]
        assert np.max(np.abs(dudt - dudxx - forcing)) < 1e-8
        for i in (0, 3):
            fd = central_derivative(lambda s: u0(float(x[i]), s), float(t[i]))
            assert abs(dudt[i, i] - fd) < 1e-7

    def test_components_vanish_at_walls(self):
        expansion = TwoTermExpansion.build(ENVELOPE, LINEAR_MEAN, SINE_OSC)
        t = np.linspace(0.0, 1.0, 9)
        for x_wall in (0.0, math.pi):
            vals = expansion.evaluate_grid([x_wall], t, omega=40.0)
            assert np.max(np.abs(vals)) < 1e-12


class TestResidualNorm:
    def test_exact_when_no_oscillation(self):
        problem = HeatProblem(ENVELOPE, SourceFactor(LINEAR_MEAN, FastProfile.zero()),
                              100.0, 1.0)
        assert resolving_time_count(problem.omega, problem.horizon) == 513
        assert residual_norm(problem, x_count=17)[1] < 1e-10

    def test_order_one_residual_decreases(self):
        values = [residual_norm(reference_problem(w), x_count=33)[0]
                  for w in (100.0, 200.0)]
        assert values[1] < values[0]

    def test_remainder_beats_first_order(self):
        ladder = (64.0, 128.0, 256.0, 512.0)
        weighted = []
        for w in ladder:
            problem = reference_problem(w)
            r1, r2 = residual_norm(problem, x_count=33)
            assert r2 < r1
            weighted.append(w * r2)
        assert all(a > b for a, b in zip(weighted, weighted[1:]))

    def test_resolving_count_scales_with_omega(self):
        assert resolving_time_count(2.0 * math.pi * 100.0, 1.0) >= 1601

    @staticmethod
    def traced(omega):
        """``residual_norm`` at order 2 and its tracemalloc peak in bytes."""
        problem = reference_problem(omega)
        tracemalloc.start()
        try:
            r2 = residual_norm(problem)[1]
            return r2, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_peak_memory_flat_in_omega(self):
        # omega * T = 2e5 needs about 509k time nodes; only the 8-byte time
        # axis grows with them
        assert resolving_time_count(2e5, 1.0) > 500_000
        _, peak_low = self.traced(2e4)
        _, peak_high = self.traced(2e5)
        assert peak_high - peak_low < 8e6

    def test_peak_memory_at_large_omega(self):
        # the README's figure at omega * T = 2e5 is 6.8 MB; the moment
        # batches of one block must not add whole-block temporaries to it
        _, peak = self.traced(2e5)
        assert peak < 8e6

    def test_remainder_scaled_by_omega_squared_settles(self):
        reference = residual_norm(reference_problem(1e4))[1] * 1e4 ** 2
        r2, _ = self.traced(2e5)
        assert abs(r2 * 2e5 ** 2 / reference - 1.0) < 0.01


def ladder_problem(omega, seed=13):
    """Shaped like the benchmark's ladder: 4 modes, a two-term mean, 2 harmonics."""
    rng = np.random.default_rng(seed)

    def term(lo, hi, power=0, scale=1.0):
        coeff = scale * float(rng.uniform(lo, hi))
        return SlowFunction([(coeff, power, float(rng.uniform(-0.5, 0.0)))])

    envelope = SineSeries({n: term(0.5, 1.0, scale=1.0 / n ** 2) for n in range(1, 5)})
    mean = SlowFunction.constant(float(rng.uniform(0.5, 1.5))) + term(-1.0, 1.0, 1)
    oscillation = FastProfile([(k, term(-1.0, 1.0), term(-1.0, 1.0)) for k in (1, 2)])
    return HeatProblem(envelope, SourceFactor(mean, oscillation), omega, 1.0)


def omega_for_count(count, horizon=1.0):
    """An omega whose resolving grid on [0, horizon] has ``count`` nodes."""
    return 2.0 * math.pi * (count - 1.5) / (asymptotics.POINTS_PER_PERIOD * horizon)


class TestBlockedResidualNorm:
    """The blocked walk against the one-shot synthesis, bit for bit."""

    @pytest.mark.parametrize("omega", [64.0, 128.0, 256.0, 512.0, 1e4])
    def test_golden_convergence_problems(self, omega):
        f = builtin_scenario("golden-convergence").functions
        problem = HeatProblem(f["f"], SourceFactor(f["r0"], f["r1"]), omega, 1.0)
        assert residual_norm(problem) == residual_norm_one_shot(problem)

    @pytest.mark.parametrize("omega", [2500.0, 5000.0, 10000.0])
    def test_ladder_shaped_problem(self, omega):
        problem = ladder_problem(omega)
        assert residual_norm(problem) == residual_norm_one_shot(problem)

    @pytest.mark.parametrize("offset, blocks", [(-1, 1), (0, 1), (1, 1), (1, 2)])
    def test_counts_on_block_boundaries(self, offset, blocks):
        count = blocks * asymptotics.TIME_BLOCK + offset
        problem = ladder_problem(omega_for_count(count))
        assert resolving_time_count(problem.omega, problem.horizon) == count
        for x_count in (17, 65):
            want = residual_norm_one_shot(problem, x_count)
            assert residual_norm(problem, x_count) == want

    @staticmethod
    def recorded_slices(problem, monkeypatch):
        """``residual_norm(problem)``, and per grid bounded by ``_column_bounds``
        (both orders of each block, in turn) its bounds and the ``(column,
        width)`` of each slice synthesized from it, with every ``out``."""
        grids, outs = [], []
        bounds, synthesis = asymptotics._column_bounds, asymptotics.sine_synthesis

        def recorded_bounds(grid):
            grids.append((grid, bounds(grid), []))
            return grids[-1][1]

        def recorded(x, modes, amplitudes, out=None):
            grid, _, slices = grids[-1]
            assert np.shares_memory(amplitudes, grid)
            offset = amplitudes.ctypes.data - grid.ctypes.data
            slices.append((offset // grid.itemsize, amplitudes.shape[1]))
            outs.append(out)
            return synthesis(x, modes, amplitudes, out=out)

        monkeypatch.setattr(asymptotics, "_column_bounds", recorded_bounds)
        monkeypatch.setattr(asymptotics, "sine_synthesis", recorded)
        return residual_norm(problem), grids, outs

    @pytest.mark.parametrize("offset, blocks", [(-1, 1), (1, 1), (1, 2)])
    def test_every_node_synthesized_once_in_bounded_slices(self, offset, blocks,
                                                           monkeypatch):
        count = blocks * asymptotics.TIME_BLOCK + offset
        slice_ = asymptotics.SYNTHESIS_SLICE
        sups, grids, outs = self.recorded_slices(
            ladder_problem(omega_for_count(count)), monkeypatch)
        assert sum(grid.shape[1] for grid, _, _ in grids) == 2 * count  # both orders
        assert all(out is not None and np.shares_memory(out, outs[0]) for out in outs)
        for index, (grid, bound, slices) in enumerate(grids):
            columns = [column for column, _ in slices]
            assert len(set(columns)) == len(columns)  # no node twice
            for column, width in slices:
                assert column % slice_ == 0
                assert width == min(slice_, grid.shape[1] - column)
            for column in set(range(0, grid.shape[1], slice_)) - set(columns):
                assert np.max(bound[column:column + slice_]) < sups[index % 2]

    def test_bound_skips_slices_on_ladder(self, monkeypatch):
        problem = ladder_problem(1e4)
        count = resolving_time_count(problem.omega, problem.horizon)
        _, grids, _ = self.recorded_slices(problem, monkeypatch)
        synthesized = sum(width for *_, slices in grids for _, width in slices)
        assert synthesized < count  # under half of both orders' nodes

    @pytest.mark.parametrize("value, rows, want", [
        (math.nan, [0], math.nan),
        (math.inf, [0], math.nan),  # inf * sin(0) at x = 0
        (np.finfo(float).max, [0, 1], math.inf),  # sin x + sin 2x > 1 overflows
    ])
    def test_non_finite_values_reach_the_sup(self, value, rows, want, monkeypatch):
        # one column of the last slice of the last block, which has three
        # slices; a column with a non-finite bound is never skipped, its
        # slice is still visited after skips, and a NaN stays in the sup
        count = 2 * asymptotics.TIME_BLOCK + 3 * asymptotics.SYNTHESIS_SLICE - 100
        problem = ladder_problem(omega_for_count(count))
        amplitudes = asymptotics.oscillatory_amplitudes

        def poisoned(problem, modes, t):
            out = amplitudes(problem, modes, t)
            if t[-1] == problem.horizon:
                out[rows, -2] = value
            return out

        monkeypatch.setattr(asymptotics, "oscillatory_amplitudes", poisoned)
        monkeypatch.setattr("_oracles.oscillatory_amplitudes", poisoned)
        with np.errstate(over="ignore", invalid="ignore"):
            np.testing.assert_equal(residual_norm_one_shot(problem), (want, want))
            np.testing.assert_equal(residual_norm(problem), (want, want))


def rich_problem(omega, n_max=32):
    envelope = SineSeries({1: SlowFunction([(1.0, 0, 0.0), (0.5, 1, -1.0)]),
                           2: 0.7, 3: SlowFunction.monomial(0.3, 2), 5: -0.2})
    mean = SlowFunction([(1.0, 1, 0.0), (0.5, 0, -2.0)])
    oscillation = FastProfile([(1, 0.3, 1.0), (2, SlowFunction.monomial(0.5, 1), 0.0)])
    return HeatProblem(envelope, SourceFactor(mean, oscillation), omega, 1.0, n_max)


class TestModalRemainder:
    """Both values of residual_norm against the grid remainder it replaced."""

    @pytest.mark.parametrize("omega", [64.0, 128.0, 256.0, 512.0])
    @pytest.mark.parametrize("order", [1, 2])
    def test_reference_ladder_matches_grid_remainder(self, omega, order):
        problem = reference_problem(omega)
        expansion = TwoTermExpansion.for_problem(problem)
        want = grid_remainder(problem, expansion, order, x_count=33)
        got = residual_norm(problem, x_count=33)[order - 1]
        assert abs(got - want) < 1e-14

    @pytest.mark.parametrize("order", [1, 2])
    def test_rich_problem_matches_grid_remainder(self, order):
        problem = rich_problem(2500.0)
        expansion = TwoTermExpansion.for_problem(problem)
        want = grid_remainder(problem, expansion, order)
        assert abs(residual_norm(problem)[order - 1] - want) < 1e-14

    def test_truncated_envelope_matches_grid_remainder(self):
        # mode 5 lies above n_max: it enters v1 but neither u nor u0
        problem = rich_problem(1000.0, n_max=4)
        expansion = TwoTermExpansion.for_problem(problem)
        got = residual_norm(problem)
        for order in (1, 2):
            assert abs(got[order - 1] - grid_remainder(problem, expansion, order)) < 1e-14

    def test_steady_source_matches_grid_remainder(self):
        problem = HeatProblem(ENVELOPE, SourceFactor(LINEAR_MEAN, FastProfile.zero()),
                              100.0, 1.0)
        expansion = TwoTermExpansion.for_problem(problem)
        got = residual_norm(problem, x_count=17)
        for order in (1, 2):
            want = grid_remainder(problem, expansion, order, x_count=17)
            assert abs(got[order - 1] - want) < 1e-14

    @staticmethod
    def count_moments(monkeypatch, problem):
        # (power, rate, decay) of every moment row the batches take
        calls = []
        block = catalog._moment_block

        def counted(grid, powers, rates, ms):
            calls.extend(zip(powers, rates, [grid.decays[m] for m in ms]))
            return block(grid, powers, rates, ms)

        monkeypatch.setattr(catalog, "_moment_block", counted)
        residual_norm(problem)
        monkeypatch.undo()
        return calls

    def test_own_expansion_moments_are_oscillatory_only(self, monkeypatch):
        problem = rich_problem(500.0)
        # one moment per distinct (power, rate) of a (mode, harmonic)
        expected = 0
        for n in problem.active_modes:
            fn = problem.envelope.coefficient(n)
            for _, a, b in problem.factor.oscillation.harmonics:
                expected += len({term[1:] for c in (a, b) if not c.is_zero
                                 for term in (fn * c).terms})
        calls = self.count_moments(monkeypatch, problem)
        assert len(calls) == expected
        assert all(complex(rate).imag != 0.0 for _, rate, _ in calls)

    def test_cos_and_sin_parts_share_moments(self, monkeypatch):
        # constant harmonic coefficients: cos and sin parts of every harmonic
        # have the same terms, so each moment serves both
        envelope = rich_problem(500.0).envelope
        oscillation = FastProfile([(1, 0.3, 1.0), (3, -0.4, 0.6)])
        problem = HeatProblem(envelope, SourceFactor(LINEAR_MEAN, oscillation), 500.0, 1.0)
        per_part = sum(len((envelope.coefficient(n) * c).terms)
                       for n in problem.active_modes
                       for _, a, b in oscillation.harmonics for c in (a, b))
        calls = self.count_moments(monkeypatch, problem)
        assert 2 * len(calls) == per_part


def test_work_counts_do_not_depend_on_omega(monkeypatch):
    # the paper's first claim as counts: on a fixed grid a forward solve takes
    # the same moment blocks and series chunks, of the same sizes, at any
    # omega, and residual_norm takes the amplitudes of exactly its resolving
    # grid's nodes
    calls, nodes = [], []
    block, series = catalog._moment_block, catalog._series_sums
    monkeypatch.setattr(catalog, "_moment_block", lambda grid, powers, rates, ms:
                        calls.append(("block", len(powers), grid.t.size))
                        or block(grid, powers, rates, ms))
    monkeypatch.setattr(catalog, "_series_sums", lambda power, lams, ts, owner:
                        calls.append(("series", len(lams), ts.size))
                        or series(power, lams, ts, owner))
    # spectral-shaped: 48 modes of two-term coefficients, a two-term mean,
    # three harmonics with cos and sin pieces
    envelope = SineSeries({n: SlowFunction([(0.9 / n, 0, 1.2 - 0.1 * n),
                                            (-0.6 / n, 1, -0.05 * n)])
                           for n in range(1, 49)})
    oscillation = FastProfile([(k, SlowFunction([(0.4, 0, 0.5 * k), (-0.3, 1, -1.1)]),
                                SlowFunction.monomial(0.7, 0, -0.2 * k)) for k in (1, 2, 3)])
    factor = SourceFactor(SlowFunction([(1.0, 0, 0.0), (0.5, 1, -0.3)]), oscillation)
    sequences = []
    for omega in (1e3, 1e5, 1e8, 1e12):
        calls.clear()
        solve_heat(HeatProblem(envelope, factor, omega, 1.0, n_max=64), 65, 513)
        sequences.append(list(calls))
    assert any(kind == "series" for kind, _, _ in sequences[0])
    assert all(sequence == sequences[0] for sequence in sequences)

    amplitudes = asymptotics.oscillatory_amplitudes
    monkeypatch.setattr(asymptotics, "oscillatory_amplitudes", lambda problem, modes, t:
                        nodes.append(t.size) or amplitudes(problem, modes, t))
    for omega, count in ((64.0, 513), (1e3, 2548), (3e4, 76396)):
        nodes.clear()
        residual_norm(reference_problem(omega))
        assert sum(nodes) == resolving_time_count(omega, 1.0) == count


class TestSynthesis:
    """The grid methods against the per-mode np.outer sums they replaced."""

    X = np.linspace(0.0, math.pi, 17)
    T = np.linspace(0.0, 2.0, 33)

    def test_leading_term_grids(self):
        problem = rich_problem(10.0)
        u0 = leading_term(problem.envelope, problem.factor.mean)
        x, t = self.X, self.T
        assert np.max(np.abs(u0.evaluate_grid(x, t) - outer_sum(
            x, t, u0.modes, lambda n: u0.mode_amplitude(n, t)))) < 1e-14
        assert np.max(np.abs(time_derivative_grid(u0, x, t) - outer_sum(
            x, t, u0.modes,
            lambda n: u0.mode_amplitude_slow(n).derivative()(t)))) < 1e-14
        assert np.max(np.abs(xx_derivative_grid(u0, x, t) - outer_sum(
            x, t, u0.modes, lambda n: -n * n * u0.mode_amplitude(n, t)))) < 1e-14

    def test_initial_layer_grid(self):
        u1 = initial_layer(ENVELOPE, FastProfile([(1, 0.0, 0.8), (3, 0.2, -0.6)]))
        x, t = self.X, self.T
        want = outer_sum(x, t, u1.modes, lambda n: u1.level
                         * u1.envelope.coefficient(n)(0.0) * np.exp(-n * n * t))
        assert np.max(np.abs(u1.evaluate_grid(x, t) - want)) < 1e-14

    def test_sine_series_grid(self):
        envelope = rich_problem(10.0).envelope
        x, t = self.X, self.T
        want = outer_sum(x, t, envelope.modes, lambda n: envelope.coefficient(n)(t))
        assert np.max(np.abs(envelope.evaluate_grid(x, t) - want)) < 1e-14
