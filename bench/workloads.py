"""The benchmark's workloads: seeded inputs, the timed operation, and its checks.

An operation is what one CLI call does after the interpreter has started:
``osckit.scenarios.run`` on a parsed scenario, then
``osckit.scenarios.emit(report, "json", sink)``.  Inputs are generated from
``(seed, stream, index)`` as scenario documents in the JSON grammar of the
README and parsed once before they are timed.  Within a workload every input
has the same shape (term structure, mode count, grid sizes); only values such
as coefficients and omega vary, so every operation costs about the same.

The checks never call the code path that is timed: they read the emitted
JSON and compare it with the manufactured truth, an mpmath closed form, or
the paper's claim.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os

import numpy as np

from osckit import catalog, scenarios

WARMUP, TIMED = 0, 1  # generator streams


def eval_terms(terms, t) -> np.ndarray:
    """``sum c t^m e^{g t}`` of a term list, evaluated with numpy."""
    t = np.asarray(t, dtype=float)
    out = np.zeros(t.shape)
    for c, m, g in terms:
        out = out + c * t**m * np.exp(g * t)
    return out


def _product(p, q) -> list:
    return [[c1 * c2, m1 + m2, g1 + g2] for c1, m1, g1 in p for c2, m2, g2 in q]


def _signed(rng, lo: float, hi: float) -> float:
    return float(rng.uniform(lo, hi) * rng.choice((-1.0, 1.0)))


def _rate(rng) -> float:
    return float(rng.uniform(-0.5, 0.0))


@dataclasses.dataclass
class Prepared:
    """Parsed scenarios of one operation plus what its checks need."""

    index: int
    scenarios: list
    truth: dict
    profile: object = None  # sampled snapshot profile (reconstruct only)


@dataclasses.dataclass
class Verdict:
    err_over_tol: float
    problems: list
    samples: dict = dataclasses.field(default_factory=dict)


def _verdict(errors, problems=None, samples=None) -> Verdict:
    """``errors`` holds ``(label, error, tolerance)``; an error above its
    tolerance, or not finite, is a problem."""
    problems = list(problems or [])
    worst = 0.0
    for label, err, tol in errors:
        ratio = err / tol
        if not ratio <= 1.0:
            problems.append(f"{label}: error {err:.3e} above tolerance {tol:.1e}")
            ratio = ratio if math.isfinite(ratio) else math.inf
        worst = max(worst, ratio)
    return Verdict(worst, problems, samples or {})


class Workload:
    name = ""
    why = ""
    probe = "calls"  # SpeedProbe kind that matches the hot path

    def __init__(self, seed: int):
        self.seed = int(seed)

    def documents(self, index: int, stream: int = TIMED):
        """Scenario documents and truth for one operation (same seed, same output)."""
        return self.generate(np.random.default_rng([self.seed, stream, index]), index)

    def prepare(self, index: int, stream: int = TIMED) -> Prepared:
        docs, truth = self.documents(index, stream)
        # parsed from JSON text, as the CLI parses a scenario file
        parsed = [scenarios.parse_scenario_dict(json.loads(json.dumps(d)))
                  for d in docs]
        return Prepared(index, parsed, truth)

    def operate(self, p: Prepared) -> list[str]:
        return [scenarios.emit(scenarios.run(s), "json", os.devnull)
                for s in p.scenarios]

    def generate(self, rng, index: int):
        raise NotImplementedError

    def check(self, p: Prepared, texts: list[str]) -> Verdict:
        raise NotImplementedError

    def deep_sample(self, records) -> list:
        """The checked operations of a run that also get ``deep_check``."""
        return []

    def deep_check(self, p: Prepared, verdict: Verdict) -> Verdict:
        return Verdict(0.0, [])


class Ladder(Workload):
    name = "ladder"
    probe = "arrays"
    why = ("convergence on fast-phase-resolving grids, omega 2500 to 10000: "
           "long-array residual_norm, solve_heat, exp_kernel_moment and "
           "synthesis work; volterra and inverse stay idle")
    harmonics = 2

    def __init__(self, seed, omegas=(2500.0, 5000.0, 10000.0), modes=4,
                 x_count=65):
        super().__init__(seed)
        self.omegas = [float(w) for w in omegas]
        self.modes = modes
        self.x_count = x_count

    def generate(self, rng, index):
        f = {str(n): [[_signed(rng, 0.5, 1.0) / n**2, 0, _rate(rng)]]
             for n in range(1, self.modes + 1)}
        r0 = [[float(rng.uniform(0.5, 1.5)), 0, 0.0],
              [float(rng.uniform(-1.0, 1.0)), 1, _rate(rng)]]
        r1 = [{"k": k, "cos": [[float(rng.uniform(-1, 1)), 0, _rate(rng)]],
               "sin": [[float(rng.uniform(-1, 1)), 0, _rate(rng)]]}
              for k in range(1, self.harmonics + 1)]
        doc = {"kind": "convergence",
               "params": {"omega_ladder": self.omegas, "T": 1.0,
                          "x_count": self.x_count},
               "functions": {"f": {"series": f}, "r0": {"slow": r0},
                             "r1": {"fast": r1}}}
        return [doc], {}

    def check(self, p, texts):
        """The paper's claim: residual_order2 < residual_order1 at every rung
        and omega * residual_order2 decreasing along the ladder."""
        rows = json.loads(texts[0])["results"]["ladder"]
        problems = []
        if [r["omega"] for r in rows] != self.omegas:
            problems.append("reported rungs differ from the scenario's ladder")
        errors = [(f"residual_order2/residual_order1 at omega {r['omega']:g}",
                   r["residual_order2"] / r["residual_order1"], 1.0) for r in rows]
        scaled = [r["omega"] * r["residual_order2"] for r in rows]
        errors += [(f"omega*residual_order2 growth at omega {rows[i + 1]['omega']:g}",
                    scaled[i + 1] / scaled[i], 1.0) for i in range(len(rows) - 1)]
        return _verdict(errors, problems)


class Spectral(Workload):
    name = "spectral"
    why = ("forward solves on a fixed 65x513 grid, 48 modes, omega log-uniform "
           "in [1e3, 1e8]: about 1000 small exp_kernel_moment calls per "
           "operation, so call overhead dominates; cost should be flat in omega")
    harmonics = 3
    decades = (3, 4, 5, 6, 7)  # log10 omega; operation i draws from decades[i % 5]
    mp_dps = 30

    def __init__(self, seed, modes=48, n_max=64, x_count=65, t_count=513):
        super().__init__(seed)
        self.modes = modes
        self.n_max = n_max
        self.x_count = x_count
        self.t_count = t_count

    def generate(self, rng, index):
        f = {str(n): [[_signed(rng, 0.5, 1.0) / n, 0, _rate(rng)],
                      [_signed(rng, 0.5, 1.0) / n, 1, _rate(rng)]]
             for n in range(1, self.modes + 1)}
        r0 = [[float(rng.uniform(0.5, 1.5)), 0, 0.0],
              [float(rng.uniform(-1.0, 1.0)), 1, _rate(rng)]]
        r1 = [{"k": k,
               "cos": [[float(rng.uniform(-1, 1)), 0, 0.0],
                       [float(rng.uniform(-1, 1)), 1, _rate(rng)]],
               "sin": [[float(rng.uniform(-1, 1)), 0, _rate(rng)]]}
              for k in range(1, self.harmonics + 1)]
        # log-uniform in [1e3, 1e8], every decade once in five operations
        decade = self.decades[index % len(self.decades)]
        omega = float(10.0 ** (decade + rng.uniform(0.0, 1.0)))
        # an odd node of a 2^k + 1 grid: the trace is a grid row, not an
        # interpolation, and sin(n x0) vanishes for no mode below 2^k
        quarter = (self.x_count - 1) // 10
        node = 2 * int(rng.integers(quarter, 4 * quarter)) + 1
        x0 = float(np.linspace(0.0, math.pi, self.x_count)[node])
        t_index = [int(rng.integers(1, self.t_count))]
        doc = {"kind": "forward",
               "params": {"omega": omega, "T": 1.0, "x_count": self.x_count,
                          "t_count": self.t_count, "n_max": self.n_max, "x0": x0},
               "functions": {"f": {"series": f}, "r0": {"slow": r0},
                             "r1": {"fast": r1}}}
        return [doc], {"t_index": t_index, "doc": doc}

    def check(self, p, texts):
        trace = json.loads(texts[0])["results"]["trace"]
        params = p.truth["doc"]["params"]
        t = np.asarray(trace["t"], dtype=float)
        v = np.asarray(trace["values"], dtype=float)
        problems = []
        if trace["x0"] != params["x0"]:
            problems.append("trace reported at another x0")
        if not np.array_equal(t, np.linspace(0.0, params["T"], self.t_count)):
            problems.append("trace time axis is not the scenario's grid")
        if not np.all(np.isfinite(v)):
            problems.append("non-finite trace values")
        errors = [("trace at t = 0", abs(float(v[0])), 1e-14)] if v.size else []
        samples = {"omega": params["omega"],
                   "points": [(float(t[j]), float(v[j])) for j in p.truth["t_index"]]
                   if not problems else []}
        return _verdict(errors, problems, samples)

    def deep_sample(self, records):
        """One operation from the middle of each omega decade, and the one
        with the largest omega: a defect confined to one band of omega is
        seen whatever the run's length."""
        def omega(r):
            return r.verdict.samples["omega"]

        by_decade = {}
        for r in records:
            by_decade.setdefault(math.floor(math.log10(omega(r))), []).append(r)
        picks = [rs[len(rs) // 2] for _, rs in sorted(by_decade.items())]
        top = max(records, key=omega, default=None)
        return picks + [top] if top is not None and top not in picks else picks

    def deep_check(self, p, verdict):
        """The trace at the sampled times against an mpmath closed form."""
        import mpmath as mp

        doc = p.truth["doc"]
        errors = []
        with mp.workdps(self.mp_dps):
            for t, value in verdict.samples["points"]:
                exact = _mp_trace(mp, doc, t)
                errors.append((f"trace at t = {t:.6g}", abs(value - exact),
                               1e-11 * (1.0 + abs(exact))))
        return _verdict(errors)


def _mp_moment(mp, power: int, rate, decay: float, t):
    """``e^{-decay t} int_0^t s^power e^{(rate + decay) s} ds``.

    The integral is the lower incomplete gamma function in Kummer's form,
    ``t^(p+1)/(p+1) * 1F1(p+1; p+2; lam t)``, which has no resonance case and
    needs no division by ``lam``.
    """
    lam_t = (rate + decay) * t
    return (mp.exp(-decay * t) * t ** (power + 1) / (power + 1)
            * mp.hyp1f1(power + 1, power + 2, lam_t))


def _mp_trace(mp, doc, t: float) -> float:
    """``u(x0, t)`` of a forward scenario, summed mode by mode in mpmath."""
    params, fns = doc["params"], doc["functions"]
    omega, x0, t = params["omega"], params["x0"], mp.mpf(t)
    total = mp.mpf(0)
    for key, f_terms in fns["f"]["series"].items():
        n = int(key)
        n2 = float(n * n)
        mode = mp.mpf(0)
        for c, m, g in _product(f_terms, fns["r0"]["slow"]):
            mode += c * _mp_moment(mp, m, mp.mpf(g), n2, t)
        for h in fns["r1"]["fast"]:
            freq = h["k"] * omega
            for c, m, g in _product(f_terms, h["cos"]):
                mode += c * mp.re(_mp_moment(mp, m, mp.mpc(g, freq), n2, t))
            for c, m, g in _product(f_terms, h["sin"]):
                mode += c * mp.im(_mp_moment(mp, m, mp.mpc(g, freq), n2, t))
        total += mp.sin(n * mp.mpf(x0)) * mode
    return float(total)


class Reconstruct(Workload):
    name = "reconstruct"
    why = ("inverse1 to inverse4 on one manufactured source per operation at a "
           "2^15 Volterra grid: volterra marching, the separable resolvent and "
           "emission of long grids; forward and asymptotics stay idle")

    t0, horizon, delta = 1.0, 2.0, 0.4
    harmonics = 3                  # N; inverse4 needs N sensor points
    x_points = (1.3, 0.6, 2.4)
    snapshot_modes = 16

    def __init__(self, seed, grid=2**15):
        super().__init__(seed)
        self.grid = grid

    def generate(self, rng, index):
        """A constant-coefficient N-harmonic envelope, a slow mean with
        r0(t0) = 1 and a two-harmonic oscillation, with its traces and
        snapshot written in closed form."""
        big_n, t0, horizon = self.harmonics, self.t0, self.horizon
        modes = np.arange(1, big_n + 1)
        x_points = self.x_points
        while True:
            amps = rng.uniform(0.4, 1.2, big_n) * rng.choice((-1.0, 1.0), big_n) \
                / modes.astype(float) ** 2
            env_x0 = float(np.sin(modes * x_points[0]) @ amps)
            if abs(env_x0) >= 0.25:
                break
        g = float(rng.uniform(-0.5, 0.5))
        b = float(rng.uniform(0.2, 1.0))
        scale = 1.0 / (math.exp(g * t0) + b * t0)
        mean = [[scale, 0, g], [scale * b, 1, 0.0]]
        osc = [(k, float(rng.uniform(-1, 1)), float(rng.uniform(-1, 1)))
               for k in (1, 2)]

        def weight(n):  # int_0^t e^{-n^2 (t-s)} r0(s) ds
            n2 = float(n * n)
            c0, c1 = scale / (g + n2), scale * b
            return [[c0, 0, g], [-c0, 0, -n2], [c1 / n2, 1, 0.0],
                    [-c1 / n2**2, 0, 0.0], [c1 / n2**2, 0, -n2]]

        def leading(x):
            return [[a * math.sin(n * x) * c, m, r]
                    for n, a in zip(modes, amps) for c, m, r in weight(n)]

        phi2 = [{"k": k, "cos": [[-bk / k * env_x0, 0, 0.0]],
                 "sin": [[ak / k * env_x0, 0, 0.0]]} for k, ak, bk in osc]
        snapshot = [float(a * eval_terms(weight(n), t0))
                    for n, a in zip(modes, amps)]
        envelope = {str(n): [[float(a), 0, 0.0]] for n, a in zip(modes, amps)}
        trace_fns = {"phi0": {"slow": leading(x_points[0])}, "phi2": {"fast": phi2}}
        placeholder = {"series": {}}  # replaced by the sampled coefficients
        docs = [
            {"kind": "inverse1",
             "params": {"x0": x_points[0], "T": horizon, "grid": self.grid},
             "functions": dict(trace_fns, f={"series": envelope})},
            {"kind": "inverse4",
             "params": {"t0": t0, "delta": self.delta, "x_points": list(x_points),
                        "T": horizon, "grid": self.grid},
             "functions": dict(trace_fns, alpha=[{"slow": leading(x)}
                                                 for x in x_points[1:]])},
            {"kind": "inverse2",
             "params": {"t0": t0, "n_max": self.snapshot_modes},
             "functions": {"r0": {"slow": mean}, "psi": placeholder}},
            {"kind": "inverse3",
             "params": {"x0": x_points[0], "t0": t0, "T": horizon,
                        "n_max": self.snapshot_modes},
             "functions": dict(trace_fns, r0={"slow": mean}, psi=placeholder)},
        ]
        truth = {"amps": [float(a) for a in amps], "mean": mean, "osc": osc,
                 "snapshot": snapshot}
        return docs, truth

    def prepare(self, index, stream=TIMED):
        p = super().prepare(index, stream)
        ns = np.arange(1, self.harmonics + 1)
        coeffs = np.asarray(p.truth["snapshot"])

        def profile(x):
            return np.sin(np.outer(x, ns)) @ coeffs

        p.profile = profile
        return p

    def operate(self, p):
        psi = catalog.sine_coefficients(p.profile, self.snapshot_modes)
        texts = []
        for s in p.scenarios:
            if "psi" in s.functions:
                s = dataclasses.replace(s, functions=dict(s.functions, psi=psi))
            texts.append(scenarios.emit(scenarios.run(s), "json", os.devnull))
        return texts

    def check(self, p, texts):
        inv1, inv4, inv2, inv3 = (json.loads(t) for t in texts)
        truth = p.truth
        problems = []
        if inv2["results"]["status"] != "unique":
            problems.append(f"inverse2 status {inv2['results']['status']!r}, not 'unique'")
        for label, doc in (("inverse2", inv2), ("inverse3", inv3),
                           ("inverse4", inv4)):
            if doc["flags"]["inconsistent"]:
                problems.append(f"{label} reports the data inconsistent")
        errors = []
        for label, doc in (("inverse1", inv1), ("inverse4", inv4)):
            grid = doc["results"]["mean"]
            errors.append((f"{label} mean", _sup(np.asarray(grid["values"])
                                                 - eval_terms(truth["mean"], grid["t"])),
                           1e-6))
        for label, doc in (("inverse1", inv1), ("inverse3", inv3),
                           ("inverse4", inv4)):
            errors.append((f"{label} oscillation",
                           _oscillation_error(doc["results"]["oscillation"],
                                              truth["osc"], self.horizon), 1e-9))
        for label, doc in (("inverse2", inv2), ("inverse3", inv3),
                           ("inverse4", inv4)):
            errors.append((f"{label} envelope",
                           _envelope_error(doc["results"]["envelope"], truth["amps"]),
                           1e-8))
        return _verdict(errors, problems)


def _sup(values) -> float:
    return float(np.max(np.abs(values))) if np.size(values) else math.inf


def _oscillation_error(payload, osc, horizon: float) -> float:
    t = np.linspace(0.0, horizon, 9)
    got = {h["k"]: h for h in payload}
    want = {k: (a, b) for k, a, b in osc}
    err = 0.0
    for k in set(got) | set(want):
        a, b = want.get(k, (0.0, 0.0))
        h = got.get(k, {"cos": [], "sin": []})
        err = max(err, _sup(eval_terms(h["cos"], t) - a),
                  _sup(eval_terms(h["sin"], t) - b))
    return err


def _envelope_error(payload, amps) -> float:
    t = np.linspace(0.0, 1.0, 5)
    keys = set(payload) | {str(n) for n in range(1, len(amps) + 1)}
    err = 0.0
    for key in keys:
        n = int(key)
        want = amps[n - 1] if n <= len(amps) else 0.0
        err = max(err, _sup(eval_terms(payload.get(key, []), t) - want))
    return err


WORKLOADS = {w.name: w for w in (Ladder, Spectral, Reconstruct)}
