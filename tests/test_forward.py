"""Forward spectral solver against analytic cases and quadrature oracles."""

import math
import tracemalloc

import numpy as np
import pytest

from osckit import catalog
from osckit.asymptotics import leading_term
from osckit.catalog import (
    FastProfile,
    SineSeries,
    SlowFunction,
    SourceFactor,
    duhamel_oscillatory,
    duhamel_weight,
)
from osckit.forward import (
    HeatProblem,
    mode_amplitudes,
    oscillatory_amplitudes,
    solve_heat,
    trace,
)

from _oracles import field_oracle, mode_oracle, outer_sum, solve_mode


def steady(mean, oscillation=None):
    return SourceFactor(
        mean if isinstance(mean, SlowFunction) else SlowFunction.constant(mean),
        oscillation or FastProfile.zero(),
    )


REFERENCE_ENVELOPE = SineSeries({1: 1.0, 2: 1.0})
LINEAR_MEAN = SlowFunction.monomial(1.0, 1)
UNIT_SINE_OSC = FastProfile([(1, 0.0, 1.0)])


class TestSolveMode:
    def test_constant_forcing_single_mode(self):
        problem = HeatProblem(SineSeries({1: 1.0}), steady(1.0), 10.0, 2.0)
        t = np.linspace(0.0, 2.0, 9)
        assert np.allclose(solve_mode(problem, 1, t), 1.0 - np.exp(-t), rtol=1e-14)

    def test_linear_mean_second_mode_reference_value(self):
        problem = HeatProblem(REFERENCE_ENVELOPE, steady(LINEAR_MEAN), 10.0, 2.0)
        want = (3.0 + math.exp(-4.0)) / 16.0
        assert abs(solve_mode(problem, 2, 1.0) - want) < 1e-15

    def test_oscillatory_mode_against_quadrature(self):
        problem = HeatProblem(SineSeries({1: 1.0}),
                              SourceFactor(SlowFunction.zero(), UNIT_SINE_OSC),
                              100.0, 1.0)
        got = solve_mode(problem, 1, 0.5)
        ref = mode_oracle(problem.envelope, problem.factor, 100.0, 1, [0.5])[0]
        assert abs(got - ref) < 1e-10

    def test_mode_out_of_range(self):
        problem = HeatProblem(SineSeries({1: 1.0}), steady(1.0), 10.0, 1.0, n_max=4)
        with pytest.raises(ValueError):
            solve_mode(problem, 5, 0.5)

    def test_quadrature_fallback_matches_closed_path(self):
        problem = HeatProblem(REFERENCE_ENVELOPE,
                              SourceFactor(LINEAR_MEAN, UNIT_SINE_OSC),
                              50.0, 1.0)
        t = np.linspace(0.0, 1.0, 7)
        closed = solve_mode(problem, 1, t)
        quad = mode_oracle(problem.envelope, problem.factor, 50.0, 1, t)
        assert np.max(np.abs(closed - quad)) < 1e-12


class TestSolveHeat:
    def test_reference_trace_without_oscillation(self):
        # forcing (sin x + sin 2x) * t: trace at pi/2 is e^-t + t - 1
        problem = HeatProblem(REFERENCE_ENVELOPE, steady(LINEAR_MEAN), 10.0, 2.0)
        u = solve_heat(problem, 65, 129)
        tr = trace(u, math.pi / 2.0)
        t = tr.axes[0]
        assert np.max(np.abs(tr.values - (np.exp(-t) + t - 1.0))) < 1e-13

    def test_zero_envelope_gives_zero_field(self):
        problem = HeatProblem(SineSeries({}), steady(1.0), 10.0, 1.0)
        u = solve_heat(problem, 17, 17)
        assert u.sup_norm() == 0.0

    def test_full_field_against_resolving_oracle(self):
        problem = HeatProblem(SineSeries({1: 1.0}),
                              SourceFactor(LINEAR_MEAN, UNIT_SINE_OSC),
                              200.0, 1.0)
        u = solve_heat(problem, 33, 129)
        ref = field_oracle(problem.envelope, problem.factor, 200.0,
                           u.axes[0], u.axes[1])
        assert np.max(np.abs(u.values - ref)) < 1e-8

    @pytest.mark.parametrize("omega,n", [(1.0e3, 8), (1.0e4, 32)])
    def test_high_frequency_modes_match_oracle(self, omega, n):
        envelope = SineSeries({n: SlowFunction.monomial(0.8, 1, -0.3)})
        factor = SourceFactor(SlowFunction.constant(0.5),
                              FastProfile([(2, 0.6, -0.4)]))
        problem = HeatProblem(envelope, factor, omega, 1.0)
        for t in (0.3, 1.0):
            got = solve_mode(problem, n, t)
            ref = mode_oracle(envelope, factor, omega, n, [t])[0]
            assert abs(got - ref) < 1e-9

    def test_linearity_in_envelope_and_factor(self):
        rng = np.random.default_rng(5150)
        t_counts = (33, 65)
        for _ in range(3):
            e1 = SineSeries({1: rng.uniform(-1, 1), 3: rng.uniform(-1, 1)})
            e2 = SineSeries({2: rng.uniform(-1, 1), 3: rng.uniform(-1, 1)})
            r1 = SourceFactor(SlowFunction.monomial(rng.uniform(-1, 1), 1),
                              FastProfile([(1, rng.uniform(-1, 1), 0.0)]))
            r2 = SourceFactor(SlowFunction.constant(rng.uniform(-1, 1)),
                              FastProfile([(2, 0.0, rng.uniform(-1, 1))]))
            omega, horizon = 40.0, 1.0
            xc, tc = rng.choice(t_counts), 65

            def field(env, fac):
                return solve_heat(HeatProblem(env, fac, omega, horizon), xc, tc).values

            e_sum = SineSeries({n: e1.coefficient(n) + e2.coefficient(n)
                                for n in set(e1.modes) | set(e2.modes)})
            assert np.max(np.abs(field(e_sum, r1) - field(e1, r1) - field(e2, r1))) < 1e-11
            r_sum = SourceFactor(r1.mean + r2.mean, r1.oscillation + r2.oscillation)
            assert np.max(np.abs(field(e1, r_sum) - field(e1, r1) - field(e1, r2))) < 1e-11

    def test_boundary_and_initial_data_vanish(self):
        problem = HeatProblem(REFERENCE_ENVELOPE,
                              SourceFactor(LINEAR_MEAN, UNIT_SINE_OSC),
                              75.0, 1.0)
        u = solve_heat(problem, 33, 65)
        assert np.max(np.abs(u.values[0, :])) < 1e-12   # x = 0
        assert np.max(np.abs(u.values[-1, :])) < 1e-12  # x = pi
        assert np.max(np.abs(u.values[:, 0])) < 1e-12   # t = 0

    def test_synthesis_matches_per_mode_outer_sum(self):
        envelope = SineSeries({1: SlowFunction([(1.0, 0, 0.0), (0.5, 1, -1.0)]),
                               2: 0.7, 5: -0.2, 40: 0.1})
        factor = SourceFactor(LINEAR_MEAN, FastProfile([(1, 0.3, 1.0), (2, 0.5, 0.0)]))
        problem = HeatProblem(envelope, factor, 300.0, 1.0, n_max=8)
        u = solve_heat(problem, 33, 257)
        x, t = u.axes

        def closed_mode(n):
            fn = envelope.coefficient(n)
            out = duhamel_weight(n, fn * factor.mean, t)
            for k, a, b in factor.oscillation.harmonics:
                z = 300.0 * k
                out = out + duhamel_oscillatory(n, fn * a, z, t).real \
                    + duhamel_oscillatory(n, fn * b, z, t).imag
            return out

        want = outer_sum(x, t, problem.active_modes, closed_mode)
        assert np.max(np.abs(u.values - want)) < 1e-14

    # a ladder-shaped 8192-node block of the residual grid (omega 1e4, two
    # harmonics, one-term coefficients) and a spectral-shaped 513-node grid
    # (omega 1e7, three harmonics, two-term coefficients)
    SHARED_CASES = {
        "small": (SineSeries({1: SlowFunction([(1.0, 0, 0.0), (0.5, 1, -1.0)]),
                              2: 0.7, 3: SlowFunction.monomial(0.3, 2)}),
                  FastProfile([(1, 0.3, 1.0),
                               (2, SlowFunction([(0.5, 1, 0.0), (0.2, 0, -1.0)]),
                                SlowFunction.monomial(-0.4, 1))]),
                  300.0, np.linspace(0.0, 1.0, 129)),
        "ladder": (SineSeries({n: SlowFunction.monomial(0.8 / n**2, 0, 0.3 - 0.4 * n)
                               for n in range(1, 5)}),
                   FastProfile([(k, SlowFunction.monomial(0.6, 0, -0.7 * k),
                                 SlowFunction.monomial(-0.5, 0, 0.45 * k)) for k in (1, 2)]),
                   1e4, np.linspace(0.0, 1.0, 25466)[8192:16384]),
        "spectral": (SineSeries({n: SlowFunction([(0.9 / n, 0, 1.2 - 0.1 * n),
                                                  (-0.6 / n, 1, -0.05 * n)])
                                 for n in range(1, 7)}),
                     FastProfile([(k, SlowFunction([(0.4, 0, 0.5 * k), (-0.3, 1, -1.1)]),
                                   SlowFunction.monomial(0.7, 0, -0.2 * k)) for k in (1, 2, 3)]),
                     1e7, np.linspace(0.0, 1.0, 513)),
    }

    def test_shared_moments_keep_per_part_bytes(self):
        # each part alone forms its own decay and rate exponentials
        for case, (envelope, oscillation, omega, t) in self.SHARED_CASES.items():
            problem = HeatProblem(envelope, SourceFactor(LINEAR_MEAN, oscillation), omega, 1.0)
            modes = problem.active_modes
            want = np.zeros((len(modes), t.size))
            for row, n in zip(want, modes):
                fn = envelope.coefficient(n)
                for k, a, b in oscillation.harmonics:
                    row += duhamel_oscillatory(n, fn * a, omega * k, t).real
                    row += duhamel_oscillatory(n, fn * b, omega * k, t).imag
            got = oscillatory_amplitudes(problem, modes, t)
            assert got.tobytes() == want.tobytes(), case

    def test_part_without_terms_keeps_each_mode_its_own_parts(self):
        # f_1 * cos underflows to a SlowFunction with no terms; mode 1 must
        # still get its own sin part, not mode 2's cos part
        envelope = SineSeries({1: 1e-200, 2: 1.0})
        problem = HeatProblem(envelope, SourceFactor(SlowFunction.zero(),
                                                     FastProfile([(1, 1e-200, 1.0)])), 50.0, 1.0)
        t = np.linspace(0.0, 1.0, 9)
        got = mode_amplitudes(problem, [1, 2], t)[1]
        for row, n in zip(got, (1, 2)):
            fn = envelope.coefficient(n)
            want = (duhamel_oscillatory(n, fn * 1e-200, 50.0, t).real
                    + duhamel_oscillatory(n, fn * 1.0, 50.0, t).imag)
            assert row.tobytes() == want.tobytes(), n

    def test_one_phase_per_harmonic_one_decay_per_mode(self, monkeypatch):
        formed, batches = [], []
        phase, form = catalog._phase_exponential, catalog._rate_exponentials
        monkeypatch.setattr(catalog, "_phase_exponential",
                            lambda w, t: formed.append(w) or phase(w, t))
        monkeypatch.setattr(catalog, "_rate_exponentials", lambda grid, batch:
                            batches.append((grid, [complex(r) for r in batch]))
                            or form(grid, batch))
        # in "small" the cos and sin parts of harmonic 2 share rates across
        # powers, and the modes share rates; each harmonic is one block there
        for case in ("small", "spectral"):
            envelope, oscillation, omega, t = self.SHARED_CASES[case]
            problem = HeatProblem(envelope, SourceFactor(LINEAR_MEAN, oscillation), omega, 1.0)
            formed.clear()
            batches.clear()
            mode_amplitudes(problem, problem.active_modes, t)
            # one grid for the whole table forms the decays first, one row
            # per mode; the moment batches form neither decays nor phases
            modes = problem.active_modes
            assert len({id(grid) for grid, _ in batches}) == 1
            assert [batch for _, batch in batches[:len(modes)]] == [[-float(n * n)]
                                                                    for n in modes]
            assert formed == [omega * k for k, _, _ in oscillation.harmonics]
            # a block asks for e^{(r + i k omega) t} per moment row, each row
            # with its own real exp, whichever modes share the term rate r;
            # in "small" no rate is asked for by two blocks.  The decays'
            # own rates -n^2 and the mean's rates are the real ones
            wanted = {r + 1j * (k * omega) for n in modes for k, a, b in oscillation.harmonics
                      for c in (a, b) for _, _, r in (envelope.coefficient(n) * c).terms}
            blocks = [set(batch) for _, batch in batches[len(modes):] if batch[0].imag]
            assert set().union(*blocks) == wanted
            if case == "small":
                assert sum(map(len, blocks)) == len(wanted)

    def test_tail_warning_for_truncated_modes(self):
        envelope = SineSeries({1: 1.0, 40: 0.5})
        problem = HeatProblem(envelope, steady(1.0), 10.0, 1.0, n_max=8)
        u = solve_heat(problem, 17, 17)
        assert u.meta["tail_estimate"] > 0
        assert u.meta["warnings"]


class TestModeAmplitudes:
    def test_peak_memory_stays_small(self):
        # spectral-shaped: 48 modes of two-term coefficients, three harmonics,
        # 513 nodes; its 1056 moments as one complex array would be 8.7 MB
        envelope = SineSeries({n: SlowFunction([(0.9 / n, 0, 1.2 - 0.1 * n),
                                                (-0.6 / n, 1, -0.05 * n)])
                               for n in range(1, 49)})
        oscillation = FastProfile([(k, SlowFunction([(0.4, 0, 0.5 * k), (-0.3, 1, -1.1)]),
                                    SlowFunction.monomial(0.7, 0, -0.2 * k)) for k in (1, 2, 3)])
        problem = HeatProblem(envelope, SourceFactor(LINEAR_MEAN, oscillation), 1e6, 1.0,
                              n_max=64)
        t = np.linspace(0.0, 1.0, 513)
        tracemalloc.start()
        try:
            mode_amplitudes(problem, problem.active_modes, t)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4e6

    def test_empty_grid_gives_empty_amplitudes(self):
        modes = self.PROBLEM.active_modes
        mean, osc = mode_amplitudes(self.PROBLEM, modes, np.array([]))
        assert mean.shape == osc.shape == (len(modes), 0)

    def test_complex_table_keeps_the_real_parts_array(self):
        # the thread's arena keeps one array per name and dtype, so a complex
        # one-part table between two real solves takes nothing from them
        t = np.linspace(0.0, 1.0, 513)
        modes = self.PROBLEM.active_modes
        arrays = catalog._work()._arrays

        def real_parts():
            return [a for key, a in arrays.items() if key[0] == "parts" and a.dtype == float]

        mode_amplitudes(self.PROBLEM, modes, t)
        before = real_parts()
        duhamel_oscillatory(1, LINEAR_MEAN, 50.0, t)
        mode_amplitudes(self.PROBLEM, modes, t)
        assert len(before) == 1
        assert real_parts()[0] is before[0]

    PROBLEM = HeatProblem(REFERENCE_ENVELOPE,
                          SourceFactor(LINEAR_MEAN, FastProfile([(1, 0.4, 1.0)])),
                          50.0, 1.0, n_max=4)

    def test_mean_part_is_the_leading_term(self):
        t = np.linspace(0.0, 1.0, 33)
        modes = self.PROBLEM.active_modes
        mean, _ = mode_amplitudes(self.PROBLEM, modes, t)
        u0 = leading_term(REFERENCE_ENVELOPE, LINEAR_MEAN, 4)
        for row, n in zip(mean, modes):
            assert np.array_equal(row, u0.mode_amplitude(n, t))

    def test_quadrature_fills_the_same_parts(self):
        # the resolving oracle, fed the mean and the oscillation apart,
        # fills the same two arrays as the closed forms
        t = np.linspace(0.0, 1.0, 7)
        modes = [1, 2, 3]
        closed = mode_amplitudes(self.PROBLEM, modes, t)
        factor = self.PROBLEM.factor
        parts = (SourceFactor(factor.mean, FastProfile.zero()),
                 SourceFactor(SlowFunction.zero(), factor.oscillation))
        quad = [np.array([mode_oracle(REFERENCE_ENVELOPE, part, self.PROBLEM.omega, n, t)
                          for n in modes])
                for part in parts]
        for c, q in zip(closed, quad):
            assert c.shape == q.shape == (3, 7)
            assert np.max(np.abs(c - q)) < 1e-12
        assert np.max(np.abs(closed[1])) > 1e-3  # the oscillatory part is there


class TestTrace:
    def test_identity_at_grid_node(self):
        problem = HeatProblem(REFERENCE_ENVELOPE, steady(1.0), 10.0, 1.0)
        u = solve_heat(problem, 65, 33)
        x0 = u.axes[0][32]
        tr = trace(u, float(x0))
        assert np.array_equal(tr.values, u.values[32])

    def test_midpoint_uses_linear_interpolation(self):
        problem = HeatProblem(REFERENCE_ENVELOPE, steady(LINEAR_MEAN), 10.0, 1.0)
        u = solve_heat(problem, 33, 17)
        x = u.axes[0]
        mid = 0.5 * (x[10] + x[11])
        tr = trace(u, float(mid))
        manual = 0.5 * (u.values[10] + u.values[11])
        assert np.max(np.abs(tr.values - manual)) < 1e-12

    def test_outside_domain_rejected(self):
        problem = HeatProblem(REFERENCE_ENVELOPE, steady(1.0), 10.0, 1.0)
        u = solve_heat(problem, 17, 17)
        for bad in (0.0, math.pi, -0.3, 4.0):
            with pytest.raises(ValueError):
                trace(u, bad)


class TestProblemValidation:
    @pytest.mark.parametrize("kwargs", [
        {"omega": 0.0}, {"omega": -1.0}, {"horizon": 0.0}, {"n_max": 0},
        {"n_max": 2.5}, {"n_max": True},
    ])
    def test_bad_parameters_rejected(self, kwargs):
        base = {"envelope": REFERENCE_ENVELOPE, "factor": steady(1.0),
                "omega": 10.0, "horizon": 1.0, "n_max": 4}
        base.update(kwargs)
        with pytest.raises(ValueError):
            HeatProblem(**base)

    @pytest.mark.parametrize("envelope", [{1: 1.0}, lambda x, t: np.sin(x), 1.0])
    def test_envelope_of_other_type_rejected(self, envelope):
        with pytest.raises(TypeError, match="is not a SineSeries"):
            HeatProblem(envelope, steady(1.0), 10.0, 1.0)
