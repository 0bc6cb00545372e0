"""Catalog layer: closed-form calculus, profiles, series, Duhamel weights."""

import ast
import functools
import math
import warnings
from pathlib import Path

import numpy as np
import pytest

import osckit.catalog as catalog
from osckit.catalog import (
    CatalogError,
    FastProfile,
    GridFunction,
    SineSeries,
    SlowFunction,
    duhamel_oscillatory,
    duhamel_slow,
    duhamel_weight,
    exp_kernel_moment,
    sine_coefficients,
)

from _oracles import (
    adaptive_integral,
    central_derivative,
    exp_kernel_moment_40,
    fast_mean,
    times_exp,
)

RNG = np.random.default_rng(20240817)


def random_slow(rng, max_terms=3, coeff=1.5, rates=(-2.0, 1.0)):
    n_terms = rng.integers(1, max_terms + 1)
    return SlowFunction([
        (rng.uniform(-coeff, coeff), int(rng.integers(0, 3)),
         rng.uniform(*rates))
        for _ in range(n_terms)
    ])


# ---------------------------------------------------------------------------
# slow functions
# ---------------------------------------------------------------------------

class TestSlowCalculus:
    def test_derivative_of_worked_leading_trace(self):
        # d/dt (e^-t + t - 1) = -e^-t + 1
        f = SlowFunction([(1.0, 0, -1.0), (1.0, 1, 0.0), (-1.0, 0, 0.0)])
        expected = SlowFunction([(-1.0, 0, -1.0), (1.0, 0, 0.0)])
        assert f.derivative() == expected

    def test_derivative_of_constant_is_zero(self):
        assert SlowFunction.constant(3.7).derivative().is_zero

    def test_integral_by_parts_example(self):
        # integral_0^t s e^{4s} ds = (t/4 - 1/16) e^{4t} + 1/16
        g = SlowFunction.monomial(1.0, 1, 4.0).integral()
        t = np.linspace(0.0, 1.5, 7)
        exact = (t / 4.0 - 1.0 / 16.0) * np.exp(4.0 * t) + 1.0 / 16.0
        assert np.allclose(g(t), exact, rtol=1e-14, atol=1e-14)

    @pytest.mark.parametrize("seed", range(6))
    def test_integral_matches_adaptive_quadrature(self, seed):
        g = random_slow(np.random.default_rng(seed))
        anti = g.integral()
        for t in (0.3, 1.0, 1.7):
            ref = adaptive_integral(g, 0.0, t)
            assert abs(anti(t) - ref) < 1e-12 * (1.0 + abs(ref))

    @pytest.mark.parametrize("seed", range(6))
    def test_derivative_matches_finite_differences(self, seed):
        g = random_slow(np.random.default_rng(100 + seed))
        d = g.derivative()
        for t in (0.2, 0.9, 1.4):
            assert abs(d(t) - central_derivative(g, t)) < 1e-7 * (1.0 + abs(d(t)))

    def test_product_and_times_exp(self):
        a = SlowFunction([(2.0, 1, -0.5)])
        b = SlowFunction([(3.0, 2, 1.0)])
        t = np.linspace(0.0, 2.0, 9)
        assert np.allclose((a * b)(t), a(t) * b(t), rtol=1e-14)
        assert np.allclose(times_exp(a, 0.7)(t), a(t) * np.exp(0.7 * t), rtol=1e-14)

    def test_integral_then_derivative_round_trip(self):
        for seed in range(5):
            g = random_slow(np.random.default_rng(200 + seed))
            t = np.linspace(0.0, 2.0, 33)
            back = g.integral().derivative()
            assert np.allclose(back(t), g(t), rtol=1e-12, atol=1e-12)

    def test_reciprocal_single_exponential(self):
        g = SlowFunction.monomial(2.0, 0, -0.75)
        inv = g.reciprocal()
        t = np.linspace(0.0, 1.0, 5)
        assert np.allclose(g(t) * inv(t), 1.0, rtol=1e-15)

    def test_reciprocal_rejects_general_sums(self):
        with pytest.raises(CatalogError):
            SlowFunction([(1.0, 1, 0.0), (1.0, 0, 0.0)]).reciprocal()

    def test_non_finite_term_rejected(self):
        with pytest.raises(CatalogError):
            SlowFunction([(math.inf, 0, 0.0)])


# ---------------------------------------------------------------------------
# fast profiles
# ---------------------------------------------------------------------------

class TestFastProfile:
    def test_antiderivative_of_sine_is_minus_cosine(self):
        p = FastProfile([(1, 0.0, 1.0)])  # sin tau
        q = p.antiderivative_zero_mean()
        tau = np.linspace(0.0, 2.0 * math.pi, 17)
        assert np.allclose(q(0.0, tau), -np.cos(tau), rtol=1e-15, atol=1e-15)

    def test_antiderivative_of_zero_is_zero(self):
        assert FastProfile.zero().antiderivative_zero_mean().is_zero

    def test_antiderivative_slow_amplitude(self):
        # t cos(2 tau) -> (t/2) sin(2 tau); the raw antiderivative of a pure
        # cosine already has zero fast mean, so numeric integration agrees
        p = FastProfile([(2, SlowFunction.monomial(1.0, 1), 0.0)])
        q = p.antiderivative_zero_mean()
        t_s, tau_s = 0.7, 1.3
        assert abs(q(t_s, tau_s) - (t_s / 2.0) * math.sin(2.0 * tau_s)) < 1e-15
        raw = adaptive_integral(lambda s: p(t_s, s), 0.0, tau_s)
        assert abs(q(t_s, tau_s) - raw) < 1e-12

    def test_derivative_of_minus_cosine_is_sine(self):
        p = FastProfile([(1, -1.0, 0.0)])
        d = p.tau_derivative()
        tau = np.linspace(0.0, 2.0 * math.pi, 17)
        assert np.allclose(d(0.0, tau), np.sin(tau), atol=1e-15)

    def test_derivative_zero(self):
        assert FastProfile.zero().tau_derivative().is_zero

    def test_derivative_finite_difference_check(self):
        p = FastProfile([(3, 0.0, 1.0)])  # sin(3 tau) -> 3 cos(3 tau)
        d = p.tau_derivative()
        t_s, tau_s = 0.3, 1.1
        fd = central_derivative(lambda tau: p(t_s, tau), tau_s)
        assert abs(d(t_s, tau_s) - 3.0 * math.cos(3.0 * tau_s)) < 1e-15
        assert abs(d(t_s, tau_s) - fd) < 1e-8

    def test_antiderivative_then_derivative_identity(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            ks = rng.choice(np.arange(1, 7), size=2, replace=False)
            p = FastProfile([
                (int(k), random_slow(rng, 2), random_slow(rng, 2)) for k in ks
            ])
            back = p.antiderivative_zero_mean().tau_derivative()
            assert len(back.harmonics) == len(p.harmonics)
            grid = np.linspace(0.0, 1.5, 9)
            for (k1, a1, b1), (k2, a2, b2) in zip(back.harmonics, p.harmonics):
                assert k1 == k2
                assert np.allclose(a1(grid), a2(grid), rtol=4e-16, atol=1e-18)
                assert np.allclose(b1(grid), b2(grid), rtol=4e-16, atol=1e-18)

    def test_identity_exact_for_dyadic_harmonics(self):
        p = FastProfile([(2, 0.25, -1.5), (4, 1.0, 3.0)])
        assert p.antiderivative_zero_mean().tau_derivative() == p

    def test_fast_mean_is_structurally_zero(self):
        rng = np.random.default_rng(11)
        p = FastProfile([(1, random_slow(rng), random_slow(rng)),
                         (3, random_slow(rng), random_slow(rng))])
        for t in (0.0, 0.8):
            assert abs(fast_mean(p, t)) < 1e-12

    def test_mean_level_of_antiderivative(self):
        # <integral_0^tau sin s ds> = 1, <integral_0^tau cos s ds> = 0
        assert FastProfile([(1, 0.0, 1.0)]).antiderivative_fast_mean()(0.0) == 1.0
        assert FastProfile([(1, 1.0, 0.0)]).antiderivative_fast_mean()(0.0) == 0.0

    def test_zero_mean_constructor_guard(self):
        with pytest.raises(CatalogError):
            FastProfile([(0, 1.0, 0.0)])


# ---------------------------------------------------------------------------
# sine series
# ---------------------------------------------------------------------------

class TestSineSeries:
    def test_orthogonality_single_mode(self):
        series = sine_coefficients(np.sin, 3)
        assert abs(series.coefficient(1)(0.0) - 1.0) < 1e-13
        assert abs(series.coefficient(2)(0.0)) < 1e-13
        assert abs(series.coefficient(3)(0.0)) < 1e-13

    def test_two_mode_reference_envelope(self):
        series = sine_coefficients(lambda x: np.sin(x) + np.sin(2 * x), 2)
        assert abs(series.coefficient(1)(0.0) - 1.0) < 1e-13
        assert abs(series.coefficient(2)(0.0) - 1.0) < 1e-13

    def test_parabola_first_coefficient(self):
        # (2/pi) integral_0^pi x (pi - x) sin x dx = 8/pi
        series = sine_coefficients(lambda x: x * (math.pi - x), 1)
        ref = (2.0 / math.pi) * adaptive_integral(
            lambda x: x * (math.pi - x) * math.sin(x), 0.0, math.pi)
        assert abs(ref - 8.0 / math.pi) < 1e-12
        assert abs(series.coefficient(1)(0.0) - 8.0 / math.pi) < 1e-12

    def test_roundtrip_recovers_finite_series(self):
        target = SineSeries({1: 0.3, 2: -1.1, 5: 0.7})
        series = sine_coefficients(lambda x: target(x), 6)
        for n in range(1, 7):
            want = target.coefficient(n)(0.0)
            assert abs(series.coefficient(n)(0.0) - want) < 1e-10

    def test_smooth_input_coefficient_decay(self):
        # x(pi - x) extends oddly with C^1 regularity: decay at least n^-2
        series = sine_coefficients(lambda x: x * (math.pi - x), 16)
        bound = max(abs(series.coefficient(n)(0.0)) * n * n
                    for n in range(1, 17))
        assert bound <= 8.0 / math.pi + 1e-9  # attained at n = 1

    @pytest.mark.parametrize("func, want", [
        (SineSeries({1: 0.3, 2: -1.1}), (0.3, -1.1, 0.0)),
        (lambda x, scale=2.0: scale * np.sin(x), (2.0, 0.0, 0.0)),
        (np.vectorize(math.sin), (1.0, 0.0, 0.0)),
        (functools.partial(lambda x, a: a * np.sin(2 * x), a=2.0),
         (0.0, 2.0, 0.0)),
    ], ids=["sine_series", "default_keyword", "vectorize", "keyword_partial"])
    def test_x_profile_with_extra_parameters_is_catalog(self, func, want):
        # each signature shows more than one parameter, yet f is called as f(x)
        series = sine_coefficients(func, 3)
        for n, c in enumerate(want, start=1):
            assert abs(series.coefficient(n)(0.0) - c) < 1e-12

    def test_two_argument_profile_rejected(self):
        # f(x, t) is outside the catalog, never silently sampled at one t
        with pytest.raises(TypeError):
            sine_coefficients(lambda x, t: (1.0 + t) * np.sin(x), 2)

    def test_non_finite_sample_rejected(self):
        with pytest.raises(ValueError):
            sine_coefficients(lambda x: np.where(x > 1.0, np.nan, x), 2)

    def test_boundary_values_vanish(self):
        series = SineSeries({1: 1.0, 2: -0.5, 7: 2.0})
        assert abs(series(0.0)) < 1e-12
        assert abs(series(math.pi)) < 1e-12

    def test_at_x_matches_pointwise(self):
        series = SineSeries({1: SlowFunction.monomial(1.0, 1),
                             3: SlowFunction.constant(-0.5)})
        x0 = 0.9
        slow = series.at_x(x0)
        for t in (0.0, 0.4, 1.3):
            assert abs(slow(t) - series(x0, t)) < 1e-14

    @pytest.mark.parametrize("value", [lambda t: t, "1.0", None])
    def test_sine_series_admits_only_catalog_coefficients(self, value):
        with pytest.raises(CatalogError):
            SineSeries({1: value})

    def test_unconverged_coefficients_rejected(self):
        def step(x):
            return (x > 1.0).astype(float)

        with pytest.raises(ValueError, match=r"did not converge.*tol 1\.0e-12"):
            sine_coefficients(step, 4)
        series = sine_coefficients(step, 4, tol=1e-2)
        for n in range(1, 5):
            exact = 2.0 / (n * math.pi) * (math.cos(n) - math.cos(n * math.pi))
            assert abs(series.coefficient(n)(0.0) - exact) < 1e-2


# ---------------------------------------------------------------------------
# Duhamel weights
# ---------------------------------------------------------------------------

class TestDuhamel:
    def test_linear_mean_mode_weights(self):
        g = SlowFunction.monomial(1.0, 1)
        assert abs(duhamel_weight(1, g, 1.0) - math.exp(-1.0)) < 1e-15
        assert abs(duhamel_weight(2, g, 1.0) - (3.0 + math.exp(-4.0)) / 16.0) < 1e-15

    def test_zero_integrand(self):
        assert duhamel_weight(5, SlowFunction.zero(), 1.3) == 0.0

    def test_resonant_branch(self):
        g = SlowFunction.monomial(1.0, 0, -1.0)  # rate equals -n^2 for n = 1
        t = np.linspace(0.0, 2.0, 9)
        assert np.allclose(duhamel_weight(1, g, t), t * np.exp(-t), rtol=1e-13)

    @pytest.mark.parametrize("seed", range(20))
    def test_randomized_against_adaptive_quadrature(self, seed):
        rng = np.random.default_rng(3000 + seed)
        g = random_slow(rng)
        n = int(rng.choice([1, 2, 3, 5, 8, 13, 21, 33, 64]))
        t = float(rng.uniform(0.1, 2.0))
        ref = adaptive_integral(lambda s: g(s) * math.exp(-n * n * (t - s)), 0.0, t)
        val = duhamel_weight(n, g, t)
        assert abs(val - ref) < 1e-11 * max(abs(ref), abs(val), 1e-8)

    def test_symbolic_convolution_matches_pointwise(self):
        rng = np.random.default_rng(99)
        for n in (1, 2, 4, 7):
            g = random_slow(rng)
            slow = duhamel_slow(n, g)
            t = np.linspace(0.0, 2.0, 17)
            assert np.allclose(slow(t), duhamel_weight(n, g, t),
                               rtol=1e-11, atol=1e-13)

    def test_symbolic_resonant_branch(self):
        slow = duhamel_slow(1, SlowFunction.monomial(2.0, 0, -1.0))
        assert slow == SlowFunction([(2.0, 1, -1.0)])
        # the exactly resonant antiderivative keeps rate +0.0
        rate = SlowFunction.monomial(1.0, 2).integral().terms[0][2]
        assert math.copysign(1.0, rate) == 1.0

    @pytest.mark.parametrize("m", range(4))
    @pytest.mark.parametrize("n", [0, 1, 2, 5])
    def test_symbolic_near_resonance_matches_pointwise(self, n, m):
        # n = 0 is the antiderivative; lam = rate + n^2 sweeps 0 and +-1e-12..1
        t = np.linspace(0.0, 2.0, 129)
        lams = [0.0] + [sign * 10.0**k for k in range(-12, 1) for sign in (1, -1)]
        for lam in lams:
            g = SlowFunction.monomial(1.0, m, lam - n * n)
            slow = g.integral() if n == 0 else duhamel_slow(n, g)
            ref = duhamel_weight(n, g, t)
            bound = 1e-12 * (1.0 + np.max(np.abs(ref)))
            assert np.max(np.abs(slow(t) - ref)) <= bound, lam


    def test_oscillatory_parts_share_moments(self, monkeypatch):
        cos = SlowFunction([(0.5, 1, -1.0), (1.0, 0, 0.0)])
        sin = SlowFunction([(-2.0, 0, 0.0), (0.3, 2, 0.0)])
        t = np.linspace(0.0, 1.0, 65)
        singles = [duhamel_oscillatory(3, g, 40.0, t) for g in (cos, sin)]
        calls = []
        block = catalog._moment_block
        monkeypatch.setattr(catalog, "_moment_block", lambda powers, *args, **work:
                            calls.extend(powers) or block(powers, *args, **work))
        decays = []
        decay = catalog._decay_exponential
        monkeypatch.setattr(catalog, "_decay_exponential",
                            lambda *args: decays.append(args) or decay(*args))
        pair = catalog._duhamel_table([[(0, cos, 40.0, False)], [(0, sin, 40.0, False)]], t,
                                      [9.0])
        assert len(calls) == 3  # (0, 0.0) is shared
        assert all(np.array_equal(p, q) for p, q in zip(pair, singles))
        assert len(decays) == 1  # one e^{-n^2 t} serves all three moments


class TestExpKernelMomentZeroNode:
    SPECTRAL_GRID = np.linspace(0.0, 1.0, 513)
    OSCILLATORY = (-0.3 + 1e4j, 16.0)  # |rate + decay| t > 1 on every t > 0
    NEAR_RESONANT = (-15.9 + 0.2j, 16.0)  # |rate + decay| t <= 1 on every t <= 1

    def test_oscillatory_grid_sums_no_series_terms(self, monkeypatch):
        requested = []
        terms = catalog._moment_terms

        def recorded(power, lam, series, count):
            requested.append(series)
            return terms(power, lam, series, count)

        monkeypatch.setattr(catalog, "_moment_terms", recorded)
        for power in (0, 1, 3):
            exp_kernel_moment(power, *self.OSCILLATORY, self.SPECTRAL_GRID)
        assert requested == [False, False, False]

    @pytest.mark.parametrize("rate, decay", [OSCILLATORY, NEAR_RESONANT])
    @pytest.mark.parametrize("power", [0, 2])
    def test_zero_node_is_positive_zero(self, rate, decay, power):
        scalar = exp_kernel_moment(power, rate, decay, 0.0)
        first = exp_kernel_moment(power, rate, decay, self.SPECTRAL_GRID)[0]
        for value in (scalar, first):
            assert value == 0j
            assert math.copysign(1.0, value.real) == 1.0
            assert math.copysign(1.0, value.imag) == 1.0

    @pytest.mark.parametrize("rate, decay", [OSCILLATORY, NEAR_RESONANT, (2.0, 1.0)])
    def test_other_nodes_unchanged_by_zero_node(self, rate, decay):
        t = self.SPECTRAL_GRID
        full = exp_kernel_moment(1, rate, decay, t)
        rest = exp_kernel_moment(1, rate, decay, t[1:])
        assert np.array_equal(full[1:], rest)


class TestExpKernelMomentWholeAxis:
    """By parts on the whole axis, series nodes written over it."""

    def test_long_grid_matches_40_term_oracle(self):
        # past numpy's 256 KiB temporary-elision threshold, in both regimes
        t = np.linspace(0.0, 1.0, 25466)
        for power, rate, decay in [(0, -0.3 + 1e4j, 1.0), (2, -0.2 + 3e4j, 16.0),
                                   (1, 2e-5, 0.0), (3, -0.5, 9.0)]:
            want = exp_kernel_moment_40(power, rate, decay, t)
            assert exp_kernel_moment(power, rate, decay, t).tobytes() == want.tobytes()

    @pytest.mark.parametrize("t", [0.7, np.linspace(0.0, 2.0, 65)])
    @pytest.mark.parametrize("rate, decay", [(0.0, 0.0), (-4.0, 4.0), (1e-200, 0.0),
                                             (-1.0 + 1e-300j, 1.0)])
    def test_resonance_raises_no_warnings(self, rate, decay, t):
        # every node is in the series regime: no 1/lam^(j+1) is formed
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for power in range(4):
                got = exp_kernel_moment(power, rate, decay, t)
                want = exp_kernel_moment_40(power, rate, decay, t)
                assert np.asarray(got).tobytes() == np.asarray(want).tobytes()

    def test_overflowing_rate_is_not_finite(self):
        # e^{400 t} overflows past t = 709.78 / 400 = 1.77: only the node t = 2
        t = np.linspace(0.0, 2.0, 9)
        g = SlowFunction.monomial(1.0, 0, 400.0)
        with np.errstate(over="ignore", invalid="ignore"):
            moments = [exp_kernel_moment(0, 400.0 + 1e4j, 1.0, t),
                       duhamel_oscillatory(1, g, 1e4, t),
                       catalog._duhamel_table([[(0, g, 1e4, False)]], t, [1.0])[0]]
        for got in moments:
            assert np.all(np.isfinite(got[:-1]))
            assert not np.isfinite(got[-1].real) and not np.isfinite(got[-1].imag)


def test_only_catalog_touches_the_exponentials_and_work_arrays():
    # the Duhamel table forms its own exponentials; other modules pass it data
    private = {"_decay_rows", "_phase_exponential", "_rate_exponentials",
               "_decay_exponential", "_Work", "_work"}
    for path in sorted(Path(catalog.__file__).parent.glob("*.py")):
        if path.name != "catalog.py":
            tree = ast.parse(path.read_text())
            names = {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                     for alias in node.names}
            names |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
            assert not names & private, path.name


# ---------------------------------------------------------------------------
# grid functions
# ---------------------------------------------------------------------------

class TestGridFunction:
    def test_sup_norm(self):
        t = np.linspace(0.0, 1.0, 9)
        assert GridFunction((t,), t**2 - 0.25).sup_norm() == 0.75

    def test_too_few_nodes_rejected(self):
        with pytest.raises(ValueError):
            GridFunction((np.array([0.0]),), np.array([1.0]))
