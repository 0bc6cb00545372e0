"""Volterra solver: kernels, marching accuracy, order, exact resolvent."""

import math
from dataclasses import replace

import numpy as np
import pytest

from osckit import catalog
from osckit.catalog import SineSeries, SlowFunction, duhamel_slow, exp_kernel_moment
from osckit.volterra import (
    Kernel,
    SeparableResolvent,
    SingularEquationError,
    VolterraProblem,
    _chunk_rows,
    build_kernel,
    convergence_order,
    solve,
)

from _oracles import discrete_residual, march_separable, resolvent_from_problem

LINEAR = SlowFunction.monomial(1.0, 1)


def reference_problem(intervals=2048, horizon=2.0):
    """l(t) - integral_0^t e^{-(t-s)} l(s) ds = 1 - e^-t, solution l(t) = t."""
    kernel = Kernel(((1, SlowFunction.constant(-1.0)),))
    rhs = SlowFunction([(1.0, 0, 0.0), (-1.0, 0, -1.0)])
    return VolterraProblem(SlowFunction.constant(1.0), kernel, rhs,
                           horizon, intervals)


class TestBuildKernel:
    def test_two_mode_envelope_collapses_to_single_exponential(self):
        kernel = build_kernel(SineSeries({1: 1.0, 2: 1.0}), math.pi / 2.0)
        t = np.linspace(0.2, 2.0, 7)
        s = t - 0.1
        assert np.max(np.abs(kernel(t, s) + np.exp(-(t - s)))) < 1e-12

    def test_zero_envelope(self):
        kernel = build_kernel(SineSeries({}), 1.0)
        assert kernel.modes == ()

    def test_third_mode_off_center(self):
        kernel = build_kernel(SineSeries({3: 1.0}), math.pi / 4.0)
        t, s = 0.9, 0.5
        want = -9.0 * math.sin(3.0 * math.pi / 4.0) * math.exp(-9.0 * (t - s))
        assert abs(kernel(t, s) - want) < 1e-14

    def test_tail_bound_recorded(self):
        kernel = build_kernel(SineSeries({1: 1.0, 40: 0.25}), 1.0, n_max=8)
        assert kernel.tail_bound > 0

    def test_tail_bound_sums_the_sups_of_dropped_terms(self):
        # the dropped f_3 = 1 + e^{-s} gives 9 (1 + e^{-s}) at x0 = pi/2,
        # which is 18 at s = 0; a term that grows has no bound
        for f3, want in ((SlowFunction([(1.0, 0, 0.0), (1.0, 0, -1.0)]), 18.0),
                         (SlowFunction([(1.0, 0, 0.0), (1.0, 1, 0.0)]), math.inf)):
            kernel = build_kernel(SineSeries({1: 1.0, 3: f3}), math.pi / 2.0, n_max=2)
            assert kernel.tail_bound == want

    def test_point_outside_interval_rejected(self):
        with pytest.raises(ValueError):
            build_kernel(SineSeries({1: 1.0}), math.pi)


class TestSolve:
    def test_reference_equation_second_order_accuracy(self):
        sol = solve(reference_problem())
        t = sol.axes[0]
        assert np.max(np.abs(sol.values - t)) < 1e-6

    def test_zero_kernel_identity(self):
        rhs = SlowFunction([(1.0, 0, -0.7), (0.5, 2, 0.0)])
        problem = VolterraProblem(SlowFunction.constant(1.0), Kernel(()),
                                  rhs, 1.0, 256)
        sol = solve(problem)
        assert np.max(np.abs(sol.values - rhs(sol.axes[0]))) < 1e-14

    def test_constant_kernel(self):
        # l + integral_0^t l = 1  =>  l(t) = e^-t
        problem = VolterraProblem(
            diagonal=SlowFunction.constant(1.0),
            kernel=Kernel(((0, SlowFunction.constant(1.0)),)),
            rhs=SlowFunction.constant(1.0),
            horizon=2.0, intervals=1024)
        sol = solve(problem)
        assert np.max(np.abs(sol.values - np.exp(-sol.axes[0]))) < 1e-6

    def test_non_separable_kernel_rejected(self):
        problem = replace(reference_problem(intervals=64),
                          kernel=lambda t, s: np.ones_like(s))
        with pytest.raises(TypeError, match="Kernel"):
            solve(problem)

    def test_discrete_residual_at_machine_level(self):
        problem = reference_problem(intervals=512)
        sol = solve(problem)
        rhs_sup = float(np.max(np.abs(problem.rhs(sol.axes[0]))))
        res = discrete_residual(problem, sol)
        assert np.max(np.abs(res)) < 1e-12 * (1.0 + rhs_sup)

    def test_linearity_in_rhs(self):
        rng = np.random.default_rng(404)
        base = reference_problem(intervals=256)
        for _ in range(4):
            mu1 = SlowFunction([(rng.uniform(-1, 1), 1, 0.0),
                                (rng.uniform(-1, 1), 0, -0.5)])
            mu2 = SlowFunction([(rng.uniform(-1, 1), 0, 0.3)])
            s1 = solve(replace(base, rhs=mu1)).values
            s2 = solve(replace(base, rhs=mu2)).values
            s12 = solve(replace(base, rhs=mu1 + mu2)).values
            assert np.max(np.abs(s12 - s1 - s2)) < 1e-10

    def test_grid_halving_error_ratio_near_four(self):
        errors = []
        for m in (512, 1024):
            sol = solve(reference_problem(intervals=m))
            errors.append(np.max(np.abs(sol.values - sol.axes[0])))
        assert 3.3 < errors[0] / errors[1] < 4.7

    def test_vanishing_diagonal_rejected(self):
        problem = replace(reference_problem(intervals=64),
                          diagonal=SlowFunction.monomial(1.0, 1))
        with pytest.raises(SingularEquationError):
            solve(problem)

    def test_non_finite_rhs_rejected(self):
        base = reference_problem(intervals=64)
        t = base.grid()
        problem = replace(base, rhs=np.where(t > 1.0, np.nan, t))
        with pytest.raises(ValueError, match="non-finite"):
            solve(problem)

    @pytest.mark.parametrize("field, value", [
        ("intervals", 0), ("intervals", -3), ("intervals", 2.5), ("intervals", True),
        ("horizon", -1.0), ("horizon", 0.0), ("horizon", math.nan), ("horizon", math.inf),
    ])
    def test_bad_grid_rejected_at_construction(self, field, value):
        with pytest.raises(ValueError, match=field):
            replace(reference_problem(), **{field: value})

    @pytest.mark.parametrize("field", ["diagonal", "rhs"])
    def test_callable_data_rejected(self, field):
        problem = replace(reference_problem(intervals=64),
                          **{field: lambda t: np.ones_like(t)})
        with pytest.raises(TypeError, match=field):
            solve(problem)


def time_varying_problem(intervals, horizon=2.0, x0=1.3):
    """Trace equation of procedure 1 for an envelope whose coefficients vary
    in time: diagonal f(x0, t), kernel from build_kernel, sampled rhs."""
    envelope = SineSeries({1: SlowFunction([(1.0, 0, 0.0), (0.3, 1, -0.5)]),
                           2: SlowFunction([(0.4, 0, -0.2)]),
                           3: SlowFunction([(-0.2, 0, 0.1), (0.05, 2, 0.0)])})
    t = np.linspace(0.0, horizon, intervals + 1)
    return VolterraProblem(envelope.at_x(x0), build_kernel(envelope, x0),
                           np.cos(3.0 * t) + 0.5 * t, horizon, intervals)


def assert_matches_march(problem):
    want = march_separable(problem)
    got = solve(problem).values
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


# rows of the last chunk: one-row chunks at 1 and 2 steps; 16-row chunks
# at 1039..1041, the last one short by one, whole, and a single row
LAST_CHUNK_ROWS = {1: 1, 2: 1, 1039: 15, 1040: 16, 1041: 1}


class TestBlockedMarch:
    """The chunked separable solve against the per-step march it replaced."""

    def test_time_varying_coefficients(self):
        assert_matches_march(time_varying_problem(2**12))

    def test_time_varying_coefficients_at_reconstruct_grid(self):
        assert_matches_march(time_varying_problem(2**15))

    def test_constant_coefficients(self):
        assert_matches_march(reference_problem())

    @pytest.mark.parametrize("intervals", sorted(LAST_CHUNK_ROWS))
    def test_grids_at_chunk_edges(self, intervals):
        b = _chunk_rows(intervals)
        assert intervals - b * ((intervals - 1) // b) == LAST_CHUNK_ROWS[intervals]
        assert_matches_march(time_varying_problem(intervals))

    def test_partial_last_block(self):
        intervals = 2**11 + 37
        assert intervals % _chunk_rows(intervals) != 0
        assert_matches_march(time_varying_problem(intervals))

    def test_block_decay_underflows(self):
        # e^{-64^2 h} is about 1e-111, but its power over one chunk is 0
        envelope = SineSeries({n: 1.0 / n**3 for n in range(1, 65)})
        problem = VolterraProblem(envelope.at_x(1.0), build_kernel(envelope, 1.0, 64),
                                  SlowFunction.constant(1.0), 8.0, 128)
        h = problem.horizon / problem.intervals
        assert math.exp(-64.0**2 * h) > 0.0
        assert math.exp(-64.0**2 * h * _chunk_rows(problem.intervals)) == 0.0
        assert_matches_march(problem)

    def test_singular_step_named_like_march(self):
        # den_i = 1 + (h/2) c(t_i) vanishes at t = 3 (node 192 of 256)
        kernel = Kernel(((1, SlowFunction.monomial(-128.0 / 3.0, 1)),))
        problem = VolterraProblem(SlowFunction.constant(1.0), kernel,
                                  SlowFunction.constant(1.0), 4.0, 256)
        with pytest.raises(SingularEquationError) as chunked:
            solve(problem)
        with pytest.raises(SingularEquationError) as stepped:
            march_separable(problem)
        assert str(chunked.value) == str(stepped.value) == "singular step at t = 3"


class TestConvergenceOrder:
    def test_reference_equation_is_second_order(self):
        report = convergence_order(reference_problem(), (256, 512, 1024, 2048),
                                   lambda t: t)
        assert report.monotone and not report.degenerate
        assert 1.8 <= report.order <= 2.2

    def test_ode_reducible_case_second_order(self):
        problem = VolterraProblem(
            diagonal=SlowFunction.constant(1.0),
            kernel=Kernel(((0, SlowFunction.constant(1.0)),)),
            rhs=SlowFunction.constant(1.0),
            horizon=2.0, intervals=256)
        report = convergence_order(problem, (256, 512, 1024),
                                   lambda t: np.exp(-t))
        assert 1.8 <= report.order <= 2.2

    def test_zero_kernel_flagged_degenerate(self):
        problem: VolterraProblem = replace(reference_problem(), kernel=Kernel(()),
                                           rhs=SlowFunction.monomial(1.0, 1))
        report = convergence_order(problem, (64, 128, 256), lambda t: t)
        assert report.degenerate


class TestSeparableResolvent:
    def test_reference_equation_exact_solution(self):
        resolvent = resolvent_from_problem(reference_problem())
        t = np.linspace(0.0, 2.0, 41)
        assert np.max(np.abs(resolvent(t) - t)) < 1e-13

    def test_mode_integrals_match_closed_forms(self):
        resolvent = resolvent_from_problem(reference_problem())
        t = np.linspace(0.0, 2.0, 21)
        # solution is l(s) = s, so y_1(t) = integral e^{-(t-s)} s ds
        want = duhamel_slow(1, LINEAR)(t)
        got = resolvent.mode_integrals(t)[0]
        assert np.max(np.abs(got - want)) < 1e-13

    def test_matches_marching_solution_for_random_data(self):
        rng = np.random.default_rng(88)
        for _ in range(5):
            modes = [1, 2, 3]
            coeffs = rng.uniform(-1.0, 1.0, 3)
            g0 = rng.uniform(1.0, 2.0)
            rhs = SlowFunction([(rng.uniform(-1, 1), 1, 0.0),
                                (rng.uniform(-1, 1), 0, rng.uniform(-1, 0.5))])
            kernel = Kernel(tuple((n, SlowFunction.constant(c))
                                  for n, c in zip(modes, coeffs)))
            problem = VolterraProblem(SlowFunction.constant(g0), kernel, rhs,
                                      1.5, 2048)
            marching = solve(problem)
            resolvent = resolvent_from_problem(problem)
            diff = np.max(np.abs(marching.values - resolvent(marching.axes[0])))
            assert diff < 5e-6  # marching O(h^2) against the exact path

    def test_mode_integrals_share_exponentials(self, monkeypatch):
        # one table for all eigenvalues has the bytes of the per-term moments,
        # for real eigenvalues and for a complex pair beside a real one
        rhs = SlowFunction([(0.7, 1, 0.0), (-0.4, 0, -0.6), (0.2, 2, 0.3)])
        t = np.linspace(0.0, 2.0, 97)
        batches = []
        form = catalog._rate_exponentials
        for coeffs in ([0.5, -0.8, 0.3], [30.0, -40.0, 10.0]):
            resolvent = SeparableResolvent(1.3, [1, 2, 3], coeffs, rhs)
            want = np.zeros((3, t.size), dtype=complex)
            for row, w, lam in zip(want, resolvent.weights, resolvent.eigenvalues):
                acc = np.zeros(t.size, dtype=complex)
                for coeff, power, rate in rhs.terms:
                    acc += coeff * exp_kernel_moment(power, rate, -lam, t)
                row[:] = w * acc / resolvent.g0
            with monkeypatch.context() as patch:
                patch.setattr(catalog, "_rate_exponentials", lambda grid, rates:
                              batches.append([complex(r) for r in rates]) or form(grid, rates))
                batches.clear()
                got = resolvent.mode_integrals(t)
            # one e^{lam t} per eigenvalue, then one real exp per rhs rate for
            # all eigenvalues: the rate rows do not depend on the decay
            assert batches[:3] == [[lam] for lam in resolvent.eigenvalues]
            rates = [set(batch) for batch in batches[3:]]
            assert sum(map(len, rates)) <= len(rhs.terms)
            assert set().union(*rates) <= {complex(rate) for _, _, rate in rhs.terms}
            assert sum(len(batch) for batch in batches[3:]) > sum(map(len, rates))
            assert got.tobytes() == (resolvent.vectors @ want).real.tobytes()
        assert np.iscomplexobj(resolvent.eigenvalues)

    def test_no_modes_divides_by_g0(self):
        rhs = SlowFunction([(0.7, 1, 0.0), (-0.4, 0, -0.6)])
        resolvent = SeparableResolvent(2.0, [], [], rhs)
        t = np.linspace(0.0, 2.0, 33)
        assert resolvent(t).tobytes() == (rhs(t) / 2.0).tobytes()
        assert resolvent.mode_integrals(t).shape == (0, t.size)

    def test_requires_constant_coefficients(self):
        problem = replace(reference_problem(),
                          kernel=Kernel(((1, LINEAR),)))
        with pytest.raises(ValueError, match="constant"):
            resolvent_from_problem(problem)
