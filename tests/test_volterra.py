"""Volterra solver: kernels, marching accuracy, order, exact resolvent."""

import math
from dataclasses import replace

import numpy as np
import pytest

from osckit.catalog import SineSeries, SlowFunction, duhamel_slow
from osckit.volterra import (
    Kernel,
    SingularEquationError,
    VolterraProblem,
    build_kernel,
    convergence_order,
    solve,
)

from _oracles import discrete_residual, resolvent_from_problem

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

    def test_constant_kernel_callable_path(self):
        # l + integral_0^t l = 1  =>  l(t) = e^-t
        problem = VolterraProblem(
            diagonal=lambda t: np.ones_like(t),
            kernel=lambda t, s: np.ones_like(s),
            rhs=lambda t: np.ones_like(t),
            horizon=2.0, intervals=1024)
        sol = solve(problem)
        assert np.max(np.abs(sol.values - np.exp(-sol.axes[0]))) < 1e-6

    def test_separable_and_callable_paths_agree(self):
        problem = reference_problem(intervals=512)
        fast = solve(problem).values
        generic = solve(replace(problem, kernel=problem.kernel.__call__)).values
        assert np.max(np.abs(fast - generic)) < 1e-12

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
        problem = replace(reference_problem(intervals=64),
                          rhs=lambda t: np.where(t > 1.0, np.nan, t))
        with pytest.raises(ValueError, match="non-finite"):
            solve(problem)


class TestConvergenceOrder:
    def test_reference_equation_is_second_order(self):
        report = convergence_order(reference_problem(), (256, 512, 1024, 2048),
                                   lambda t: t)
        assert report.monotone and not report.degenerate
        assert 1.8 <= report.order <= 2.2

    def test_ode_reducible_case_second_order(self):
        problem = VolterraProblem(
            diagonal=lambda t: np.ones_like(t),
            kernel=lambda t, s: np.ones_like(s),
            rhs=lambda t: np.ones_like(t),
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

    def test_requires_constant_coefficients(self):
        problem = replace(reference_problem(),
                          kernel=Kernel(((1, LINEAR),)))
        with pytest.raises(ValueError, match="constant"):
            resolvent_from_problem(problem)
