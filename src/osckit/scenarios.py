"""Scenario files: parse, validate, run, and emit machine-readable reports.

A scenario is a JSON document with three top-level keys::

    {"kind": "...", "params": {...}, "functions": {...}}

``kind`` is one of forward, asymptotics, convergence, inverse1, inverse2,
inverse3, inverse4.  Functions are given only in catalog term-list form
(no expression parser): a slow function is ``{"slow": [[coeff, power,
rate], ...]}``, a fast profile ``{"fast": [{"k": 1, "cos": [...], "sin":
[...]}]}`` with term lists as amplitudes, and a sine series ``{"series":
{"1": [...], "2": [...]}}`` keyed by mode number.  Reports echo the full
scenario so every run is reproducible from its own output.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, field

import numpy as np

from . import asymptotics as asy
from . import inverse as inv
from .catalog import FastProfile, SineSeries, SlowFunction, SourceFactor
from .forward import HeatProblem, solve_heat, trace

__all__ = [
    "ScenarioError",
    "Scenario",
    "RunReport",
    "parse_scenario",
    "parse_scenario_dict",
    "serialize_scenario",
    "builtin_scenario",
    "builtin_names",
    "run",
    "emit",
]

KINDS = ("forward", "asymptotics", "convergence",
         "inverse1", "inverse2", "inverse3", "inverse4")

DEFAULTS = {"grid": 2048, "n_max": 32, "x_count": 65}
# Lower bounds the solvers put on the integer parameters.
INTEGER_BOUNDS = {"grid": 2, "n_max": 1, "x_count": 2, "t_count": 2}
FLOAT_PARAMS = ("T", "omega", "x0", "t0", "delta",
                "tol_lambda", "tol_coeff", "tol_consistency")


class ScenarioError(ValueError):
    """Malformed or incomplete scenario input."""


@dataclass(frozen=True)
class Scenario:
    kind: str
    params: dict
    functions: dict

    def __post_init__(self):
        _validate_ranges(self)

    def param(self, name: str, default=None):
        if name in self.params:
            return self.params[name]
        if default is not None:
            return default
        if name in DEFAULTS:
            return DEFAULTS[name]
        raise ScenarioError(f"missing parameter {name!r} for kind {self.kind!r}")

    def function(self, name: str, default=None):
        if name in self.functions:
            return self.functions[name]
        if default is not None:
            return default
        raise ScenarioError(f"missing function {name!r} for kind {self.kind!r}")


@dataclass
class RunReport:
    kind: str
    scenario: dict
    results: dict
    flags: dict = field(default_factory=dict)
    timing_seconds: float = 0.0

    @property
    def inconsistent(self) -> bool:
        return bool(self.flags.get("inconsistent"))


# ---------------------------------------------------------------------------
# catalog (de)serialization
# ---------------------------------------------------------------------------

def slow_to_payload(f: SlowFunction) -> list:
    return [[c, m, g] for c, m, g in f.terms]


def payload_to_slow(payload, where: str) -> SlowFunction:
    try:
        return SlowFunction([(float(c), int(m), float(g)) for c, m, g in payload])
    except (TypeError, ValueError) as exc:
        raise ScenarioError(f"bad slow-function term list at {where}: {exc}") from exc


def fast_to_payload(p: FastProfile) -> list:
    return [{"k": k, "cos": slow_to_payload(a), "sin": slow_to_payload(b)}
            for k, a, b in p.harmonics]


def payload_to_fast(payload, where: str) -> FastProfile:
    harmonics = []
    for rec in payload:
        try:
            harmonics.append((
                int(rec["k"]),
                payload_to_slow(rec.get("cos", []), where),
                payload_to_slow(rec.get("sin", []), where),
            ))
        except (KeyError, TypeError) as exc:
            raise ScenarioError(f"bad fast-profile record at {where}: {exc}") from exc
    return FastProfile(harmonics)


def series_to_payload(s: SineSeries) -> dict:
    return {str(n): slow_to_payload(s.coefficient(n)) for n in s.modes}


def payload_to_series(payload, where: str) -> SineSeries:
    try:
        return SineSeries({int(n): payload_to_slow(terms, f"{where}[{n}]")
                           for n, terms in payload.items()})
    except (TypeError, AttributeError) as exc:
        raise ScenarioError(f"bad sine-series payload at {where}: {exc}") from exc


def _function_to_payload(obj):
    if isinstance(obj, SlowFunction):
        return {"slow": slow_to_payload(obj)}
    if isinstance(obj, FastProfile):
        return {"fast": fast_to_payload(obj)}
    if isinstance(obj, SineSeries):
        return {"series": series_to_payload(obj)}
    if isinstance(obj, (list, tuple)):
        return [_function_to_payload(item) for item in obj]
    raise ScenarioError(f"cannot serialize function object {obj!r}")


def _payload_to_function(payload, where: str):
    if isinstance(payload, list):
        return tuple(_payload_to_function(item, f"{where}[{i}]")
                     for i, item in enumerate(payload))
    if not isinstance(payload, dict) or len(payload) != 1:
        raise ScenarioError(f"function {where} must be a single-key object")
    (tag, body), = payload.items()
    if tag == "slow":
        return payload_to_slow(body, where)
    if tag == "fast":
        return payload_to_fast(body, where)
    if tag == "series":
        return payload_to_series(body, where)
    raise ScenarioError(f"unknown function tag {tag!r} at {where}")


# ---------------------------------------------------------------------------
# parse / serialize
# ---------------------------------------------------------------------------

REQUIRED = {
    "forward": ({"omega", "T"}, {"f", "r0"}),
    "asymptotics": ({"omega", "T"}, {"f", "r0"}),
    "convergence": ({"omega_ladder", "T"}, {"f", "r0"}),
    "inverse1": ({"x0", "T"}, {"f", "phi0", "phi2"}),
    "inverse2": ({"t0"}, {"r0", "psi"}),
    "inverse3": ({"x0", "t0", "T"}, {"r0", "psi", "phi0", "phi2"}),
    "inverse4": ({"t0", "delta", "x_points", "T"}, {"phi0", "phi2", "alpha"}),
}


def parse_scenario_dict(data: dict) -> Scenario:
    if not isinstance(data, dict):
        raise ScenarioError("scenario must be a JSON object")
    kind = data.get("kind")
    if kind not in KINDS:
        raise ScenarioError(f"unknown kind {kind!r}; expected one of {KINDS}")
    params = dict(data.get("params", {}))
    raw_functions = data.get("functions", {})
    need_params, need_funcs = REQUIRED[kind]
    for name in sorted(need_params):
        if name not in params:
            raise ScenarioError(f"missing parameter {name!r} for kind {kind!r}")
    for name in sorted(need_funcs):
        if name not in raw_functions:
            raise ScenarioError(f"missing function {name!r} for kind {kind!r}")
    functions = {name: _payload_to_function(payload, name)
                 for name, payload in raw_functions.items()}
    return Scenario(kind, params, functions)


def _finite(value, what: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)) \
            or not math.isfinite(value):
        raise ScenarioError(f"{what} must be a finite number, got {value!r}")
    return float(value)


def _validate_ranges(s: Scenario):
    for name, low in INTEGER_BOUNDS.items():
        value = s.params.get(name, low)
        if isinstance(value, bool) or not isinstance(value, int) or value < low:
            raise ScenarioError(f"parameter {name!r} must be an integer >= {low}, "
                                f"got {value!r}")
    num = {name: _finite(s.params[name], f"parameter {name!r}")
           for name in FLOAT_PARAMS if s.params.get(name) is not None}
    horizon = num.get("T", 1.0)
    if horizon <= 0:
        raise ScenarioError("parameter 'T' must be positive")
    if num.get("omega", 1.0) <= 0:
        raise ScenarioError("parameter 'omega' must be positive")
    if "x0" in num and not 0.0 < num["x0"] < math.pi:
        raise ScenarioError("parameter 'x0' must lie in (0, pi)")
    if "t0" in num:
        if num["t0"] <= 0:
            raise ScenarioError("parameter 't0' must be positive")
        if "T" in num and num["t0"] > horizon:
            raise ScenarioError("parameter 't0' must not exceed 'T'")
    if "x_points" in s.params:
        pts = s.params["x_points"]
        if not isinstance(pts, (list, tuple)) or not pts:
            raise ScenarioError("parameter 'x_points' must be a non-empty list")
        pts = [_finite(x, "x_points entry") for x in pts]
        for x in pts:
            if not 0.0 < x < math.pi:
                raise ScenarioError(f"x_points entry {x!r} outside (0, pi)")
        if len(set(pts)) != len(pts):
            raise ScenarioError("x_points entries must be distinct")
    if "omega_ladder" in s.params:
        ladder = s.params["omega_ladder"]
        if not isinstance(ladder, (list, tuple)) or not ladder:
            raise ScenarioError("parameter 'omega_ladder' must be a non-empty list")
        if any(_finite(w, "omega_ladder entry") <= 0 for w in ladder):
            raise ScenarioError("omega_ladder entries must be positive")
    # The two-term expansion averages over fast periods; with less than one
    # on [0, T] the source does not oscillate and its residuals mean nothing.
    # The forward solve is exact at any omega.
    expansion_omegas = {"asymptotics": [num.get("omega")],
                        "convergence": s.params.get("omega_ladder", [])}
    for omega in expansion_omegas.get(s.kind, []):
        if omega is not None and omega * horizon < 2.0 * math.pi:
            raise ScenarioError(f"omega {omega!r} completes less than one period "
                                f"on [0, T] (omega * T < 2*pi) for kind {s.kind!r}")


def parse_scenario(path: str) -> Scenario:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ScenarioError(f"cannot read scenario file {path!r}: {exc}") from exc
    if not text.strip():
        raise ScenarioError(f"scenario file {path!r} is empty")
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"scenario file {path!r} is not valid JSON: {exc}") from exc
    return parse_scenario_dict(data)


def serialize_scenario(s: Scenario) -> dict:
    return {
        "kind": s.kind,
        "params": _jsonable(s.params),
        "functions": {name: _function_to_payload(obj)
                      for name, obj in s.functions.items()},
    }


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, (bool, int, float, str)) or obj is None:
        return obj
    raise ScenarioError(f"cannot serialize value {obj!r}")


# ---------------------------------------------------------------------------
# built-in scenarios
# ---------------------------------------------------------------------------

def _golden_functions() -> dict:
    root3 = math.sqrt(3.0)
    phi0 = SlowFunction([(1.0, 0, -1.0), (1.0, 1, 0.0), (-1.0, 0, 0.0)])
    alpha1 = SlowFunction([
        (0.5, 1, 0.0), (0.5, 0, -1.0), (-0.5, 0, 0.0),
        (root3 / 8.0, 1, 0.0), (root3 / 32.0, 0, -4.0), (-root3 / 32.0, 0, 0.0),
    ])
    phi2 = FastProfile([(1, SlowFunction.constant(-1.0), SlowFunction.zero())])
    envelope = SineSeries({1: 1.0, 2: 1.0})
    mean = SlowFunction.monomial(1.0, 1)
    oscillation = FastProfile([(1, SlowFunction.zero(), SlowFunction.constant(1.0))])
    return {"phi0": phi0, "alpha1": alpha1, "phi2": phi2,
            "envelope": envelope, "mean": mean, "oscillation": oscillation}


def _builtins() -> dict[str, Scenario]:
    g = _golden_functions()
    golden = Scenario(
        "inverse4",
        {"t0": 1.0, "delta": 0.5, "x_points": [math.pi / 2.0, math.pi / 6.0],
         "T": 2.0, "grid": 2048},
        {"phi0": g["phi0"], "phi2": g["phi2"], "alpha": (g["alpha1"],)},
    )
    forward = Scenario(
        "forward",
        {"omega": 100.0, "T": 1.0, "x_count": 65, "t_count": 513,
         "x0": math.pi / 2.0},
        {"f": g["envelope"], "r0": g["mean"], "r1": g["oscillation"]},
    )
    convergence = Scenario(
        "convergence",
        {"omega_ladder": [64.0, 128.0, 256.0, 512.0], "T": 1.0, "x_count": 65},
        {"f": g["envelope"], "r0": g["mean"], "r1": g["oscillation"]},
    )
    return {"golden": golden, "golden-forward": forward,
            "golden-convergence": convergence}


def builtin_names() -> tuple[str, ...]:
    return tuple(sorted(_builtins()))


def builtin_scenario(name: str) -> Scenario:
    table = _builtins()
    if name not in table:
        raise ScenarioError(
            f"unknown built-in scenario {name!r}; available: {sorted(table)}"
        )
    return table[name]


# ---------------------------------------------------------------------------
# running
# ---------------------------------------------------------------------------

def _heat_problem(s: Scenario, omega: float) -> HeatProblem:
    envelope = s.function("f")
    mean = s.function("r0")
    oscillation = s.function("r1", FastProfile.zero())
    return HeatProblem(envelope, SourceFactor(mean, oscillation),
                       omega, float(s.param("T")), int(s.param("n_max")))


def _grid_payload(g) -> dict:
    return {"t": _jsonable(g.axes[-1]), "values": _jsonable(g.values)}


def _run_forward(s: Scenario) -> tuple[dict, dict]:
    problem = _heat_problem(s, float(s.param("omega")))
    u = solve_heat(problem, int(s.param("x_count")),
                   int(s.param("t_count", 513)))
    results = {
        "sup_norm": u.sup_norm(),
        "x_count": len(u.axes[0]),
        "t_count": len(u.axes[1]),
        "tail_estimate": u.meta.get("tail_estimate", 0.0),
    }
    if "x0" in s.params:
        tr = trace(u, float(s.params["x0"]))
        results["trace"] = dict(_grid_payload(tr), x0=float(s.params["x0"]))
    if s.params.get("emit_field"):
        results["field"] = {"x": _jsonable(u.axes[0]),
                            "t": _jsonable(u.axes[1]),
                            "values": _jsonable(u.values)}
    return results, {"warnings": list(u.meta.get("warnings", []))}


def _ladder_row(problem: HeatProblem, expansion) -> dict:
    r1 = asy.residual_norm(problem, expansion, order=1)
    r2 = asy.residual_norm(problem, expansion, order=2)
    return {"omega": problem.omega, "residual_order1": r1,
            "residual_order2": r2, "omega_times_residual2": problem.omega * r2}


def _run_asymptotics(s: Scenario) -> tuple[dict, dict]:
    problem = _heat_problem(s, float(s.param("omega")))
    expansion = asy.TwoTermExpansion.for_problem(problem)
    row = _ladder_row(problem, expansion)
    x = np.linspace(0.0, math.pi, int(s.param("x_count")))
    match = expansion.layer.evaluate_grid(x, [0.0])[:, 0] \
        + expansion.fast.evaluate_grid(x, [0.0], problem.omega)[:, 0]
    row["matching_defect"] = float(np.max(np.abs(match)))
    return row, {}


def _run_convergence(s: Scenario) -> tuple[dict, dict]:
    ladder = [float(w) for w in s.param("omega_ladder")]
    rows = []
    for omega in ladder:
        problem = _heat_problem(s, omega)
        expansion = asy.TwoTermExpansion.for_problem(problem)
        rows.append(_ladder_row(problem, expansion))
    return {"ladder": rows}, {}


def _run_inverse1(s: Scenario) -> tuple[dict, dict]:
    obs = inv.TraceObservation(
        x0=float(s.param("x0")),
        leading=s.function("phi0"),
        oscillating=s.function("phi2"),
        horizon=float(s.param("T")),
    )
    rec = inv.recover_time_factor(obs, s.function("f"),
                                  n_max=int(s.param("n_max")),
                                  intervals=int(s.param("grid")))
    results = {
        "mean": _grid_payload(rec.mean_grid),
        "oscillation": fast_to_payload(rec.oscillation),
        "diagnostics": _jsonable(rec.diagnostics),
    }
    return results, {}


def _run_inverse2(s: Scenario) -> tuple[dict, dict]:
    obs = inv.SnapshotObservation(float(s.param("t0")), s.function("psi"))
    rec = inv.recover_space_factor(
        obs, s.function("r0"), n_max=int(s.param("n_max")),
        tol_weight=float(s.param("tol_lambda", inv.WEIGHT_ZERO_TOL)),
        tol_coeff=float(s.param("tol_coeff", inv.COEFF_ZERO_TOL)))
    results = {
        "envelope": series_to_payload(rec.envelope),
        "status": rec.report.status,
        "zero_modes": list(rec.report.zero_modes),
        "offending_modes": list(rec.report.offending_modes),
        "mode_weights": list(rec.report.spectrum.values),
    }
    flags = {"inconsistent": not rec.report.solvable,
             "warnings": list(rec.report.warnings)}
    return results, flags


def _run_inverse3(s: Scenario) -> tuple[dict, dict]:
    snapshot = inv.SnapshotObservation(float(s.param("t0")), s.function("psi"))
    trace_obs = inv.TraceObservation(
        x0=float(s.param("x0")),
        leading=s.function("phi0"),
        oscillating=s.function("phi2"),
        horizon=float(s.param("T")),
    )
    rec = inv.recover_space_factor_and_oscillation(
        snapshot, trace_obs, s.function("r0"), n_max=int(s.param("n_max")),
        congruence_tol=s.params.get("tol_consistency"))
    results = {
        "envelope": series_to_payload(rec.envelope),
        "oscillation": fast_to_payload(rec.oscillation),
        "congruence_residual": rec.congruence.residual_sup,
        "congruence_tolerance": rec.congruence.tolerance,
    }
    flags = {"inconsistent": not rec.congruence.consistent}
    return results, flags


def _run_inverse4(s: Scenario) -> tuple[dict, dict]:
    alpha = s.function("alpha", ())
    obs = inv.MultiPointObservation(
        t0=float(s.param("t0")),
        half_width=float(s.param("delta")),
        x_points=tuple(float(x) for x in s.param("x_points")),
        leading=s.function("phi0"),
        oscillating=s.function("phi2"),
        interior_traces=alpha if isinstance(alpha, tuple) else (alpha,),
        horizon=float(s.param("T")),
    )
    rec = inv.recover_both_factors(
        obs, intervals=int(s.param("grid")),
        consistency_tol=s.params.get("tol_consistency"))
    results = {
        "snapshot_coeffs": _jsonable(rec.snapshot_coeffs),
        "envelope": series_to_payload(rec.envelope),
        "gauge": rec.gauge,
        "mean": _grid_payload(rec.mean_grid),
        "oscillation": fast_to_payload(rec.oscillation),
        "consistency_residual": rec.consistency.residual_sup,
        "consistency_tolerance": rec.consistency.tolerance,
    }
    flags = {"inconsistent": not rec.consistency.consistent}
    return results, flags


_RUNNERS = {
    "forward": _run_forward,
    "asymptotics": _run_asymptotics,
    "convergence": _run_convergence,
    "inverse1": _run_inverse1,
    "inverse2": _run_inverse2,
    "inverse3": _run_inverse3,
    "inverse4": _run_inverse4,
}


def run(scenario: Scenario) -> RunReport:
    started = time.perf_counter()
    results, flags = _RUNNERS[scenario.kind](scenario)
    flags.setdefault("inconsistent", False)
    flags.setdefault("warnings", [])
    return RunReport(
        kind=scenario.kind,
        scenario=serialize_scenario(scenario),
        results=results,
        flags=flags,
        timing_seconds=time.perf_counter() - started,
    )


# ---------------------------------------------------------------------------
# emission (timing goes to the caller's log, never into the payload,
# so identical scenarios produce byte-identical files)
# ---------------------------------------------------------------------------

def _csv_rows(report: RunReport) -> tuple[list[str], list[list]]:
    kind = report.kind
    r = report.results
    if kind in ("asymptotics", "convergence"):
        cols = ["omega", "residual_order1", "residual_order2",
                "omega_times_residual2"]
        ladder = r["ladder"] if kind == "convergence" else [r]
        return cols, [[row[c] for c in cols] for row in ladder]
    if kind == "forward":
        if "trace" in r:
            tr = r["trace"]
            return ["t", "value"], [[t, v] for t, v in zip(tr["t"], tr["values"])]
        return ["sup_norm"], [[r["sup_norm"]]]
    if kind in ("inverse1", "inverse4"):
        mean = r["mean"]
        return ["t", "mean"], [[t, v] for t, v in zip(mean["t"], mean["values"])]
    if kind in ("inverse2", "inverse3"):
        env = r["envelope"]
        rows = []
        for n in sorted(env, key=int):
            terms = env[n]
            value = sum(c for c, m, g in terms if (m, g) == (0, 0.0))
            rows.append([int(n), value])
        return ["n", "coefficient"], rows
    raise ScenarioError(f"no CSV layout for kind {kind!r}")


def emit(report: RunReport, fmt: str, path: str) -> str:
    """Write the report; returns the emitted text."""
    if fmt == "json":
        payload = {
            "kind": report.kind,
            "scenario": report.scenario,
            "results": _jsonable(report.results),
            "flags": _jsonable(report.flags),
        }
        text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    elif fmt == "csv":
        cols, rows = _csv_rows(report)
        lines = [",".join(cols)]
        for row in rows:
            lines.append(",".join(repr(v) if isinstance(v, float) else str(v)
                                  for v in row))
        text = "\n".join(lines) + "\n"
    else:
        raise ScenarioError(f"unknown output format {fmt!r}")
    if path == "-":
        import sys
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    return text
