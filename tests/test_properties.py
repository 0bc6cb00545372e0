"""Property tests for the closed-form catalog, the scenario format and the
Volterra march."""

import json
import math

import mpmath as mp
import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from osckit.catalog import (
    SERIES_HORIZON,
    FastProfile,
    SineSeries,
    SlowFunction,
    _decay_exponential,
    _phase_exponential,
    _rate_exponential,
    duhamel_slow,
    exp_kernel_moment,
)
from osckit.scenarios import (
    Scenario,
    _json_text,
    parse_scenario_dict,
    serialize_scenario,
)
from osckit.volterra import Kernel, VolterraProblem, solve

from _oracles import exp_kernel_moment_40, march_separable, times_exp

PROPERTY = settings(max_examples=60, deadline=None, derandomize=True)
T = np.linspace(0.0, 2.0, 65)
EPS = float(np.finfo(float).eps)

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


# lam = rate + decay: real or complex with |lam| in [1e-6, 30], exactly 0, or
# an oscillatory rate whose imaginary part is 1e3..1e8
signs = st.sampled_from([1.0, -1.0])
lam_sizes = st.floats(-6.0, math.log10(30.0)).map(lambda e: 10.0 ** e)
lams = st.one_of(
    st.builds(lambda size, sign: complex(sign * size), lam_sizes, signs),
    st.builds(lambda size, angle: size * complex(math.cos(angle), math.sin(angle)),
              lam_sizes, st.floats(0.0, 2.0 * math.pi)),
    st.builds(lambda re, e, sign: complex(re, sign * 10.0 ** e),
              st.floats(-30.0, 30.0), st.floats(3.0, 8.0), signs),
    st.just(0j))


@st.composite
def moment_nodes(draw, lam):
    """Scalar t, or unsorted nodes with a duplicate and an interior 0, on a
    scale of 1/|lam| (both regimes) or of 1."""
    scale = draw(st.sampled_from([1.0 / abs(lam) if lam else 1.0, 1.0]))
    values = draw(st.lists(st.floats(0.0, 3.0), min_size=1, max_size=40))
    if draw(st.booleans()):
        return scale * values[0]
    where = draw(st.integers(0, len(values)))
    values = values[:where] + [0.0] + values[where:] + values[:draw(st.integers(1, 3))]
    return scale * np.array(values)


def shared_exponentials(rate, decay, t, shared):
    """The keywords a caller sharing ``e^{-decay t}``, or also a phase, passes."""
    if shared is None:
        return {}
    keywords = {"e_decay": _decay_exponential(decay, t)}
    if shared == "phase":
        phase = _phase_exponential(complex(rate).imag, t)
        keywords["e_rate"] = _rate_exponential(rate, t, phase)
    return keywords


@settings(max_examples=400, deadline=None, derandomize=True)
@given(st.data(), st.integers(0, 3), lams, st.sampled_from([0.0, 1.0, 4.0, 25.0, 2304.0]),
       st.sampled_from([None, "decay", "phase"]))
def test_moment_matches_40_term_oracle_bit_for_bit(data, power, lam, decay, shared):
    t = data.draw(moment_nodes(lam))
    rate = lam - decay
    want = exp_kernel_moment_40(power, rate, decay, t)
    got = exp_kernel_moment(power, rate, decay, t, **shared_exponentials(rate, decay, t, shared))
    assert np.shape(got) == np.shape(want)
    assert np.array_equal(got, want)
    assert np.asarray(got).tobytes() == np.asarray(want).tobytes()  # signed zeros too


# |w| in [1, 1e8] of either sign; |g| <= 5, exactly 0 included
frequencies = st.builds(lambda e, sign: sign * 10.0 ** e, st.floats(0.0, 8.0), signs)
slow_rates = st.one_of(st.floats(-5.0, 5.0), st.just(0.0))


@st.composite
def split_grids(draw):
    """``(g, w, t)``: unsorted t > 0 with ``|g| max(t)`` up to 760, past the
    overflow of ``e^{g t}`` at 709.78; 40000 nodes pass numpy's 256 KiB
    temporary-elision size."""
    g, w = draw(slow_rates), draw(frequencies)
    horizon = draw(st.floats(1e-3, 760.0)) / max(abs(g), 0.1)
    size, seed = draw(st.integers(1, 40000)), draw(st.integers(0, 2**32 - 1))
    t = np.random.default_rng(seed).uniform(0.0, horizon, size)
    t[t == 0.0] = horizon
    return g, w, t


@settings(max_examples=150, deadline=None, derandomize=True)
@given(split_grids())
def test_rate_exponential_is_real_exponential_times_phase(case):
    g, w, t = case
    with np.errstate(over="ignore"):
        want = np.exp(g * t) * np.exp(1j * w * t)
        for phase in (None, _phase_exponential(w, t)):
            got = _rate_exponential(complex(g, w), t, phase)
            assert got.tobytes() == want.tobytes()  # signed zeros too


@settings(max_examples=150, deadline=None, derandomize=True)
@given(split_grids())
def test_rate_exponential_within_two_ulp_of_complex_exponential(case):
    g, w, t = case
    with np.errstate(over="ignore", invalid="ignore"):
        got = _rate_exponential(complex(g, w), t, _phase_exponential(w, t))
        want = np.exp(complex(g, w) * t)
        ulp = np.spacing(np.exp(g * t))
    finite = np.isfinite(got) & np.isfinite(want)
    for part in (np.real, np.imag):
        assert np.all(np.abs(part(got) - part(want))[finite] <= 2.0 * ulp[finite])


@PROPERTY
@given(st.integers(0, 3), st.floats(-5.0, 5.0),
       st.one_of(st.just(0.0), st.builds(lambda e, sign: sign * 10.0 ** e,
                                         st.floats(0.0, 6.0), signs)),
       st.integers(1, 63), st.lists(st.floats(1e-3, 2.0), min_size=1, max_size=4))
def test_moment_matches_mpmath(power, rate, frequency, n, nodes):
    # Kummer's form of the integral, as in bench/workloads._mp_moment:
    # e^{-d t} t^(p+1)/(p+1) 1F1(p+1; p+2; (rate + d) t).  Rounding w t to a
    # double moves the phase by up to eps |w| t / 2, so that is allowed for.
    decay, t = float(n * n), np.array(nodes)
    got = exp_kernel_moment(power, complex(rate, frequency), decay, t)
    with mp.workdps(40):
        for tj, value in zip(nodes, got):
            s = mp.mpf(tj)
            want = (mp.exp(-decay * s) * s ** (power + 1) / (power + 1)
                    * mp.hyp1f1(power + 1, power + 2, (mp.mpc(rate, frequency) + decay) * s))
            error = float(abs(mp.mpc(value) - want) / abs(want))
            assert error <= 1e-14 + 2.0 * EPS * abs(frequency) * tj


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


# JSON values of the types ``scenarios._jsonable`` returns.  Floats include the
# non-finite values, signed zero, the smallest subnormal and a repr in exponent
# form; strings include control and non-ASCII characters.
edge_floats = st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 5e-324, 1e16])
json_floats = st.one_of(st.floats(), edge_floats)
json_text = st.text(st.sampled_from("az\x00\x1f\"\\\n\t\x7f\xe9\u03c9\u2028\U0001f600"),
                    max_size=6)
scalars = st.one_of(st.none(), st.booleans(), st.integers(), json_floats, json_text)
finite_grids = st.lists(st.floats(allow_nan=False, allow_infinity=False),
                        min_size=40, max_size=200)
grids = st.one_of(finite_grids, st.builds(
    lambda items, where, bad: items[:where] + [bad] + items[where:],
    finite_grids, st.integers(0, 200), st.sampled_from([math.nan, math.inf, -math.inf])))
json_values = st.recursive(
    st.one_of(scalars, grids, st.lists(scalars, max_size=6), st.just([]), st.just({})),
    lambda children: st.one_of(st.lists(children, max_size=4),
                               st.dictionaries(json_text, children, max_size=4)),
    max_leaves=12)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(json_values)
def test_report_writer_matches_indented_dumps(value):
    assert _json_text(value) == json.dumps(value, sort_keys=True, indent=2)


# |c_n(t)| <= 0.28 keeps every step's denominator above 0.15 on [0, 1]
kernel_modes = st.lists(st.tuples(st.integers(0, 40), st.floats(-0.2, 0.2),
                                  st.floats(-0.2, 0.2)),
                        min_size=1, max_size=6, unique_by=lambda mode: mode[0])


@PROPERTY
@given(st.integers(1, 3000), kernel_modes, st.booleans())
def test_chunked_march_matches_per_step_march(intervals, modes, varying):
    def coefficient(a, b):
        return SlowFunction([(a, 0, 0.0), (b, 1, -1.0)] if varying else [(a, 0, 0.0)])

    kernel = Kernel(tuple((n, coefficient(a, b)) for n, a, b in modes))
    problem = VolterraProblem(SlowFunction.constant(1.0), kernel,
                              SlowFunction([(1.0, 0, 0.0), (0.5, 1, -0.7)]), 1.0, intervals)
    want = march_separable(problem)
    assert sup(solve(problem).values - want) <= 1e-12 * sup(want)
