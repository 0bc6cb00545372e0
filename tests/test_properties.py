"""Property tests for the closed-form catalog and the scenario format."""

import json
import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from osckit.catalog import (
    SERIES_HORIZON,
    FastProfile,
    SineSeries,
    SlowFunction,
    duhamel_slow,
    exp_kernel_moment,
)
from osckit.scenarios import Scenario, parse_scenario_dict, serialize_scenario

from _oracles import times_exp

PROPERTY = settings(max_examples=60, deadline=None, derandomize=True)
T = np.linspace(0.0, 2.0, 65)

# rates near 0 and near -n^2 exercise the series branch of the symbolic routine
small = st.builds(lambda mag, sign: sign * 10.0**mag,
                  st.floats(-12.0, 0.0), st.sampled_from([1.0, -1.0]))
rates = st.one_of(st.floats(-3.0, 3.0), small, st.just(0.0))
terms = st.tuples(st.floats(-2.0, 2.0), st.integers(0, 3), rates)
slow_functions = st.lists(terms, min_size=1, max_size=4).map(SlowFunction)
modes = st.sampled_from([1, 2, 3, 5])


def sup(values) -> float:
    return float(np.max(np.abs(values)))


@PROPERTY
@given(slow_functions)
def test_derivative_of_integral_is_identity(g):
    back = g.integral().derivative()
    assert sup(back(T) - g(T)) <= 1e-11 * (1.0 + sup(g(T)))


@PROPERTY
@given(modes, slow_functions, st.floats(-0.3, 0.3))
def test_duhamel_solves_mode_ode(n, g, shift):
    # move g's rates next to the resonance -n^2 as well as far from it
    g = times_exp(g, shift - n * n) + g
    d = duhamel_slow(n, g)
    residual = d.derivative()(T) + n * n * d(T) - g(T)
    scale = 1.0 + sup(g(T)) + n * n * sup(d(T))
    assert abs(d(0.0)) <= 1e-12 * scale
    assert sup(residual) <= 1e-11 * scale


@PROPERTY
@given(st.sampled_from([0, 1, 2, 5]), st.integers(0, 3), st.sampled_from([1.0, -1.0]),
       st.floats(1e-15, 1e-13))
def test_symbolic_branches_meet_at_the_switch(n, m, sign, gap):
    switch = 1.0 / SERIES_HORIZON

    def convolve(lam):
        g = SlowFunction.monomial(1.0, m, lam - n * n)
        return g.integral() if n == 0 else duhamel_slow(n, g)

    inner = convolve(sign * switch * (1.0 - gap))(T)
    outer = convolve(sign * switch * (1.0 + gap))(T)
    assert sup(inner - outer) <= 1e-12 * (1.0 + sup(inner))


@PROPERTY
@given(st.integers(0, 3), st.floats(0.5, 50.0), st.floats(0.0, 2.0 * math.pi),
       st.sampled_from([0.0, 1.0, 4.0, 25.0]))
def test_moment_branches_meet_at_the_switch(power, size, angle, decay):
    lam = size * complex(math.cos(angle), math.sin(angle))
    edge = 1.0 / abs(lam)
    t = np.array([edge * (1.0 - 1e-14), edge * (1.0 + 1e-14)])
    assert np.abs(lam) * t[0] <= 1.0 < np.abs(lam) * t[1]
    series, closed = exp_kernel_moment(power, lam - decay, decay, t)
    assert abs(series - closed) <= 1e-12 * abs(series)


coefficients = st.floats(-5.0, 5.0)
catalog_slow = st.lists(st.tuples(coefficients, st.integers(0, 3),
                                  st.floats(-5.0, 5.0)), max_size=3).map(SlowFunction)
profiles = st.lists(st.tuples(st.integers(1, 4), catalog_slow, catalog_slow),
                    max_size=3).map(FastProfile)
series = st.dictionaries(st.integers(1, 8), catalog_slow, max_size=4).map(SineSeries)
forward_params = st.fixed_dictionaries({
    "omega": st.floats(1.0, 1e6),
    "T": st.floats(0.1, 5.0),
    "x_count": st.integers(2, 129),
    "t_count": st.integers(2, 1025),
    "n_max": st.integers(1, 64),
    "x0": st.floats(0.01, 3.1),
})


@PROPERTY
@given(forward_params, series, catalog_slow, profiles)
def test_serialize_then_parse_round_trip(params, envelope, mean, oscillation):
    original = Scenario("forward", params, {"f": envelope, "r0": mean, "r1": oscillation})
    text = json.dumps(serialize_scenario(original))
    assert parse_scenario_dict(json.loads(text)) == original
