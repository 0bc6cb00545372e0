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
import sys
import time
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii

import numpy as np

from . import asymptotics as asy
from . import inverse as inv
from .catalog import CatalogError, FastProfile, SineSeries, SlowFunction, SourceFactor
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


class ScenarioError(ValueError):
    """Malformed or incomplete scenario input."""


# Parameter rules take (value, what, bound) and return the typed value.

def _bounded(value, what: str, bound):
    if bound is None or bound[0](value):
        return value
    raise ScenarioError(f"{what} must be {bound[1]}, got {value!r}")


def _finite(value, what: str, bound=None) -> float:
    """A finite JSON number, as a float.  The range test compares exactly, so
    an integer beyond float range fails it rather than overflow."""
    if isinstance(value, bool) or not isinstance(value, (int, float)) \
            or not -sys.float_info.max <= value <= sys.float_info.max:
        raise ScenarioError(f"{what} must be a finite number, got {value!r}")
    return _bounded(float(value), what, bound)


def _integer(value, what: str, bound=None) -> int:
    """The one integer rule: a JSON integer, not 2.0, a bool or a string."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ScenarioError(f"{what} must be an integer, got {value!r}")
    return _bounded(value, what, bound)


def _boolean(value, what: str, bound=None) -> bool:
    if not isinstance(value, bool):
        raise ScenarioError(f"{what} must be true or false, got {value!r}")
    return value


def _numbers(value, what: str, bound=None) -> tuple:
    """A non-empty list of finite numbers, each within ``bound``."""
    if not isinstance(value, (list, tuple)) or not value:
        raise ScenarioError(f"{what} must be a non-empty list of numbers, got {value!r}")
    return tuple(_finite(v, f"entry {i} of {what}", bound) for i, v in enumerate(value))


def _at_least(low: int):
    return (lambda v: v >= low, f">= {low}")


POSITIVE = (lambda v: v > 0, "positive")
INTERIOR = (lambda v: 0.0 < v < math.pi, "in (0, pi)")

# name -> (rule, bound, default): everything known about a parameter.  A
# missing or null parameter reads its default; a None default means none,
# so a required parameter is an error and an optional one reads None (for
# tol_consistency, the solvers' own tolerance).
PARAMS = {
    "T": (_finite, POSITIVE, None),
    "omega": (_finite, POSITIVE, None),
    "omega_ladder": (_numbers, POSITIVE, None),
    "x0": (_finite, INTERIOR, None),
    "x_points": (_numbers, INTERIOR, None),
    "t0": (_finite, POSITIVE, None),
    "delta": (_finite, None, None),
    "grid": (_integer, _at_least(2), 2048),
    "n_max": (_integer, _at_least(1), 32),
    "x_count": (_integer, _at_least(2), 65),
    "t_count": (_integer, _at_least(2), 513),
    "emit_field": (_boolean, None, False),
    "tol_lambda": (_finite, _at_least(0), inv.WEIGHT_ZERO_TOL),
    "tol_coeff": (_finite, _at_least(0), inv.COEFF_ZERO_TOL),
    "tol_consistency": (_finite, _at_least(0), None),
}


def _reads(required: str, optional: str = "") -> dict:
    """Space-separated names, each mapped to whether it is required."""
    return dict.fromkeys(required.split(), True) | dict.fromkeys(optional.split(), False)


# kind -> (parameters, functions) that its runner reads, each name mapped to
# whether it is required.  A kind rejects every other name, so a report
# never echoes a setting that did not run.
READS = {
    "forward": (_reads("omega T", "n_max x_count t_count x0 emit_field"),
                _reads("f r0", "r1")),
    "asymptotics": (_reads("omega T", "n_max x_count"), _reads("f r0", "r1")),
    "convergence": (_reads("omega_ladder T", "n_max x_count"), _reads("f r0", "r1")),
    "inverse1": (_reads("x0 T", "n_max grid"), _reads("f phi0 phi2")),
    "inverse2": (_reads("t0", "n_max tol_lambda tol_coeff"), _reads("r0 psi")),
    "inverse3": (_reads("x0 t0 T", "n_max tol_consistency"), _reads("r0 psi phi0 phi2")),
    "inverse4": (_reads("t0 delta x_points T", "grid tol_consistency"),
                 _reads("phi0 phi2 alpha")),
}
KINDS = tuple(READS)

# name -> (catalog type, default): everything known about a function.  A
# missing or null function reads its default; only the optional ``r1`` has
# one (zero), and every kind that reads another function requires it.
# ``alpha`` is a list of slow functions, one per interior point, or one
# such function alone.
FUNCTIONS = {
    "f": (SineSeries, None),
    "r0": (SlowFunction, None),
    "r1": (FastProfile, FastProfile.zero()),
    "phi0": (SlowFunction, None),
    "phi2": (FastProfile, None),
    "psi": (SineSeries, None),
    "alpha": (SlowFunction, None),
}


@dataclass(frozen=True)
class Scenario:
    kind: str
    params: dict
    functions: dict

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ScenarioError(f"unknown kind {self.kind!r}; expected one of {KINDS}")
        for what, given, known, reads in zip(("parameter", "function"),
                                             (self.params, self.functions),
                                             (PARAMS, FUNCTIONS), READS[self.kind]):
            for name in sorted(given):
                if name not in known:
                    raise ScenarioError(f"unknown {what} {name!r}; known: "
                                        f"{', '.join(sorted(known))}")
                if name not in reads:
                    raise ScenarioError(f"{what} {name!r} is not read by kind "
                                        f"{self.kind!r}, which reads: "
                                        f"{', '.join(sorted(reads))}")
        for name, required in sorted(READS[self.kind][1].items()):
            self._check_function(name, required)
        p = {name: self.param(name) for name in READS[self.kind][0]}
        if None not in (p.get("t0"), p.get("T")) and p["t0"] > p["T"]:
            raise ScenarioError("parameter 't0' must not exceed 'T'")
        if p.get("x_points") is not None and len(set(p["x_points"])) != len(p["x_points"]):
            raise ScenarioError("parameter 'x_points' entries must be distinct")
        # The two-term expansion averages over fast periods; with less than
        # one on [0, T] the source does not oscillate and its residuals mean
        # nothing.  The forward solve is exact at any omega.
        expansion_omegas = {"asymptotics": (p.get("omega"),),
                            "convergence": p.get("omega_ladder")}.get(self.kind, ())
        for omega in expansion_omegas:
            if omega * p["T"] < 2.0 * math.pi:
                raise ScenarioError(f"omega {omega!r} completes less than one period "
                                    f"on [0, T] (omega * T < 2*pi) for kind {self.kind!r}")

    def param(self, name: str):
        """The checked, typed value of a parameter the kind reads, or its default."""
        required = READS[self.kind][0][name]
        rule, bound, default = PARAMS[name]
        value = self.params.get(name)
        if value is not None:
            return rule(value, f"parameter {name!r}", bound)
        if required:
            raise ScenarioError(f"missing parameter {name!r} for kind {self.kind!r}")
        return default

    def _check_function(self, name: str, required: bool) -> None:
        """A function the kind reads is present if required, and of its type."""
        value = self.functions.get(name)
        if value is None:
            if required:
                raise ScenarioError(f"missing function {name!r} for kind {self.kind!r}")
            return
        cls = FUNCTIONS[name][0]
        lists = name == "alpha"
        items = value if lists and isinstance(value, (list, tuple)) else (value,)
        for item in items:
            if not isinstance(item, cls):
                tag = next(tag for tag, (other, _) in FUNCTION_TAGS.items() if other is cls)
                raise ScenarioError(f"function {name!r} must be a {tag!r} function"
                                    f"{' or a list of them' if lists else ''} for kind "
                                    f"{self.kind!r}, got {type(item).__name__}")

    def function(self, name: str):
        """A function the kind reads, or its default."""
        value = self.functions.get(name)
        return FUNCTIONS[name][1] if value is None else value


@dataclass
class RunReport:
    """What ``run`` computed: values as the solvers return them (arrays,
    catalog objects, report tuples).  ``emit`` encodes them."""

    scenario: Scenario
    results: dict
    flags: dict
    timing_seconds: float

    @property
    def inconsistent(self) -> bool:
        return bool(self.flags.get("inconsistent"))


# ---------------------------------------------------------------------------
# catalog (de)serialization
# ---------------------------------------------------------------------------

def payload_to_slow(payload, where: str) -> SlowFunction:
    if not isinstance(payload, list) or not all(
            isinstance(term, list) and len(term) == 3 for term in payload):
        raise ScenarioError(f"bad slow-function term list at {where}: expected "
                            f"[[coeff, power, rate], ...], got {payload!r}")
    return SlowFunction([(_finite(c, f"coefficient of term {i} at {where}"),
                          _integer(m, f"power of term {i} at {where}"),
                          _finite(g, f"rate of term {i} at {where}"))
                         for i, (c, m, g) in enumerate(payload)])


def payload_to_fast(payload, where: str) -> FastProfile:
    if not isinstance(payload, list):
        raise ScenarioError(f"bad fast-profile payload at {where}: expected a list "
                            f"of harmonic records, got {payload!r}")
    harmonics = []
    for i, rec in enumerate(payload):
        at = f"{where}[{i}]"
        if not isinstance(rec, dict) or "k" not in rec or rec.keys() - {"k", "cos", "sin"}:
            raise ScenarioError(f"bad fast-profile record at {at}: expected keys 'k' "
                                f"and optionally 'cos', 'sin', got {rec!r}")
        k = _integer(rec["k"], f"harmonic 'k' at {at}")
        harmonics.append((k, payload_to_slow(rec.get("cos", []), f"{at}.cos"),
                          payload_to_slow(rec.get("sin", []), f"{at}.sin")))
    return FastProfile(harmonics)


def payload_to_series(payload, where: str) -> SineSeries:
    if not isinstance(payload, dict):
        raise ScenarioError(f"bad sine-series payload at {where}: expected an object "
                            f"keyed by mode number, got {payload!r}")
    modes = {}
    for n, terms in payload.items():
        if not (isinstance(n, str) and n.isascii() and n.isdecimal() and n[0] != "0"):
            raise ScenarioError(f"bad sine-series mode {n!r} at {where}: mode keys "
                                f"are positive integers without leading zeros")
        modes[int(n)] = payload_to_slow(terms, f"{where}[{n}]")
    return SineSeries(modes)


# function tag -> (catalog type, decoder)
FUNCTION_TAGS = {"slow": (SlowFunction, payload_to_slow),
                 "fast": (FastProfile, payload_to_fast),
                 "series": (SineSeries, payload_to_series)}


def _function_to_payload(obj):
    """Tag a catalog object with its kind; ``_jsonable`` encodes the body."""
    if obj is None:
        return None
    if isinstance(obj, (list, tuple)):
        return [_function_to_payload(item) for item in obj]
    for tag, (cls, _) in FUNCTION_TAGS.items():
        if isinstance(obj, cls):
            return {tag: obj}
    raise ScenarioError(f"cannot serialize function object {obj!r}")


def _payload_to_function(payload, where: str):
    if isinstance(payload, list):
        return tuple(_payload_to_function(item, f"{where}[{i}]")
                     for i, item in enumerate(payload))
    if not isinstance(payload, dict) or len(payload) != 1:
        raise ScenarioError(f"function {where} must be a single-key object")
    (tag, body), = payload.items()
    if tag not in FUNCTION_TAGS:
        raise ScenarioError(f"unknown function tag {tag!r} at {where}")
    try:
        return FUNCTION_TAGS[tag][1](body, where)
    except CatalogError as exc:  # well-formed terms the catalog refuses
        raise ScenarioError(f"bad {tag} function at {where}: {exc}") from exc


# ---------------------------------------------------------------------------
# parse / serialize
# ---------------------------------------------------------------------------

def parse_scenario_dict(data: dict) -> Scenario:
    if not isinstance(data, dict):
        raise ScenarioError("scenario must be a JSON object")
    kind = data.get("kind")
    if kind not in KINDS:
        raise ScenarioError(f"unknown kind {kind!r}; expected one of {KINDS}")
    params = data.get("params", {})
    raw_functions = data.get("functions", {})
    for section, table in (("params", params), ("functions", raw_functions)):
        if not isinstance(table, dict):
            raise ScenarioError(f"{section!r} must be a JSON object, got {table!r}")
    # a null function is kept as None, which reads as missing
    functions = {name: None if payload is None else _payload_to_function(payload, name)
                 for name, payload in raw_functions.items()}
    return Scenario(kind, dict(params), functions)


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
    return _jsonable({
        "kind": s.kind,
        "params": s.params,
        "functions": {name: _function_to_payload(obj)
                      for name, obj in s.functions.items()},
    })


def _jsonable(obj):
    """The one place a value becomes JSON data.  A float64 array stays an
    array if 1-D, else becomes a list of its rows: ``_json_text`` and
    ``_csv_text`` write it as a list of floats."""
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        if obj.dtype != np.float64 or obj.ndim == 0:
            return obj.tolist()
        return obj if obj.ndim == 1 else [_jsonable(row) for row in obj]
    if isinstance(obj, SlowFunction):
        return _jsonable(obj.terms)
    if isinstance(obj, FastProfile):
        return [{"k": k, "cos": _jsonable(a), "sin": _jsonable(b)}
                for k, a, b in obj.harmonics]
    if isinstance(obj, SineSeries):
        return _jsonable(obj.modes)
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, (bool, int, float, str)) or obj is None:
        return obj
    raise ScenarioError(f"cannot serialize value {obj!r}")


_FLOAT_TOKENS = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}

# From this many floats on, a list of floats is written by
# ``_floattext.float_text``, below it by a join of ``float.__repr__``.  On
# a smooth grid float_text took 1.02 times the join's time at 512 floats
# and 0.93 times at 576 (2-core x86_64, Python 3.11, numpy 2.4), so each
# list takes the faster writer; the trace of a forward solve (513 floats)
# stays on the join.  ``_floattext`` is imported at the first long list:
# its tables take a few milliseconds and 0.3 MB to build, which reports
# without long lists never need.
FLOAT_TEXT_CROSSOVER = 560


def _json_text(obj, indent: str = "\n") -> str:
    """``json.dumps(obj, sort_keys=True, indent=2)`` of a ``_jsonable`` value.

    The stdlib encoder turns to its pure-Python path when ``indent`` is set,
    paying a generator step per float; here a 1-D float64 array, or a list
    of floats, of ``FLOAT_TEXT_CROSSOVER`` or more items is one
    ``float_text`` call, and a shorter one is one ``join`` of
    ``float.__repr__``.  Finite float reprs contain no ``n``, so an ``n`` in
    the joined text means a nan or inf to be spelled as JSON's ``NaN`` /
    ``Infinity`` tokens, item by item.
    """
    inner = indent + "  "
    sep = "," + inner
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = (encode_basestring_ascii(k) + ": " + _json_text(v, inner)
                 for k, v in sorted(obj.items()))
        return "{" + inner + sep.join(items) + indent + "}"
    if isinstance(obj, np.ndarray) and len(obj) < FLOAT_TEXT_CROSSOVER:
        obj = obj.tolist()
    if isinstance(obj, (list, np.ndarray)):
        if not len(obj):
            return "[]"
        floats = isinstance(obj, np.ndarray) or set(map(type, obj)) == {float}
        if floats and len(obj) >= FLOAT_TEXT_CROSSOVER:
            from ._floattext import JSON_TOKENS, float_text
            return "[" + inner + float_text(obj, (sep,), JSON_TOKENS) + indent + "]"
        if floats:
            text = sep.join(map(float.__repr__, obj))
            if "n" not in text:
                return "[" + inner + text + indent + "]"
        return "[" + inner + sep.join(_json_text(v, inner) for v in obj) + indent + "]"
    if isinstance(obj, str):
        return encode_basestring_ascii(obj)
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, int):
        return int.__repr__(obj)
    if isinstance(obj, float):
        text = float.__repr__(obj)
        return _FLOAT_TOKENS.get(text, text)
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
    return HeatProblem(s.function("f"), SourceFactor(s.function("r0"), s.function("r1")),
                       omega, s.param("T"), s.param("n_max"))


def _on_grid(g) -> dict:
    return {"t": g.axes[-1], "values": g.values}


def _run_forward(s: Scenario) -> tuple[dict, dict]:
    problem = _heat_problem(s, s.param("omega"))
    u = solve_heat(problem, s.param("x_count"), s.param("t_count"))
    results = {
        "sup_norm": u.sup_norm(),
        "x_count": len(u.axes[0]),
        "t_count": len(u.axes[1]),
        "tail_estimate": u.meta.get("tail_estimate", 0.0),
    }
    x0 = s.param("x0")
    if x0 is not None:
        results["trace"] = dict(_on_grid(trace(u, x0)), x0=x0)
    if s.param("emit_field"):
        results["field"] = {"x": u.axes[0], "t": u.axes[1], "values": u.values}
    return results, {"warnings": u.meta.get("warnings", [])}


def _ladder_row(s: Scenario, problem: HeatProblem) -> dict:
    r1, r2 = asy.residual_norm(problem, x_count=s.param("x_count"))
    return {"omega": problem.omega, "residual_order1": r1,
            "residual_order2": r2, "omega_times_residual2": problem.omega * r2}


def _run_asymptotics(s: Scenario) -> tuple[dict, dict]:
    problem = _heat_problem(s, s.param("omega"))
    expansion = asy.TwoTermExpansion.for_problem(problem)
    row = _ladder_row(s, problem)
    x = np.linspace(0.0, math.pi, s.param("x_count"))
    match = expansion.layer.evaluate_grid(x, [0.0])[:, 0] \
        + expansion.fast.evaluate_grid(x, [0.0], problem.omega)[:, 0]
    row["matching_defect"] = float(np.max(np.abs(match)))
    return row, {}


def _run_convergence(s: Scenario) -> tuple[dict, dict]:
    rows = [_ladder_row(s, _heat_problem(s, omega))
            for omega in s.param("omega_ladder")]
    return {"ladder": rows}, {}


def _trace_observation(s: Scenario) -> inv.TraceObservation:
    return inv.TraceObservation(x0=s.param("x0"), leading=s.function("phi0"),
                                oscillating=s.function("phi2"), horizon=s.param("T"))


def _run_inverse1(s: Scenario) -> tuple[dict, dict]:
    rec = inv.recover_time_factor(_trace_observation(s), s.function("f"),
                                  n_max=s.param("n_max"), intervals=s.param("grid"))
    results = {
        "mean": _on_grid(rec.mean_grid),
        "oscillation": rec.oscillation,
        "diagnostics": rec.diagnostics,
    }
    return results, {}


def _run_inverse2(s: Scenario) -> tuple[dict, dict]:
    obs = inv.SnapshotObservation(s.param("t0"), s.function("psi"))
    rec = inv.recover_space_factor(
        obs, s.function("r0"), n_max=s.param("n_max"),
        tol_weight=s.param("tol_lambda"), tol_coeff=s.param("tol_coeff"))
    results = {
        "envelope": rec.envelope,
        "status": rec.report.status,
        "zero_modes": rec.report.zero_modes,
        "offending_modes": rec.report.offending_modes,
        "mode_weights": rec.report.spectrum.values,
    }
    flags = {"inconsistent": not rec.report.solvable,
             "warnings": rec.report.warnings}
    return results, flags


def _run_inverse3(s: Scenario) -> tuple[dict, dict]:
    snapshot = inv.SnapshotObservation(s.param("t0"), s.function("psi"))
    rec = inv.recover_space_factor_and_oscillation(
        snapshot, _trace_observation(s), s.function("r0"), n_max=s.param("n_max"),
        congruence_tol=s.param("tol_consistency"))
    results = {
        "envelope": rec.envelope,
        "oscillation": rec.oscillation,
        "congruence_residual": rec.congruence.residual_sup,
        "congruence_tolerance": rec.congruence.tolerance,
    }
    flags = {"inconsistent": not rec.congruence.consistent,
             "warnings": rec.report.warnings}
    return results, flags


def _run_inverse4(s: Scenario) -> tuple[dict, dict]:
    alpha = s.function("alpha")
    obs = inv.MultiPointObservation(
        t0=s.param("t0"),
        half_width=s.param("delta"),
        x_points=s.param("x_points"),
        leading=s.function("phi0"),
        oscillating=s.function("phi2"),
        interior_traces=alpha if isinstance(alpha, (list, tuple)) else (alpha,),
        horizon=s.param("T"),
    )
    rec = inv.recover_both_factors(
        obs, intervals=s.param("grid"),
        consistency_tol=s.param("tol_consistency"))
    results = {
        "snapshot_coeffs": rec.snapshot_coeffs,
        "envelope": rec.envelope,
        "gauge": rec.gauge,
        "mean": _on_grid(rec.mean_grid),
        "oscillation": rec.oscillation,
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
        scenario=scenario,
        results=results,
        flags=flags,
        timing_seconds=time.perf_counter() - started,
    )


# ---------------------------------------------------------------------------
# emission (timing goes to the caller's log, never into the payload,
# so identical scenarios produce byte-identical files)
# ---------------------------------------------------------------------------

def _csv_columns(kind: str, r: dict) -> tuple[list[str], list]:
    """Names and columns of a kind's table, read from the JSON results."""
    if kind in ("asymptotics", "convergence"):
        cols = ["omega", "residual_order1", "residual_order2",
                "omega_times_residual2"]
        ladder = r["ladder"] if kind == "convergence" else [r]
        return cols, [[row[c] for row in ladder] for c in cols]
    if kind == "forward":
        if "trace" in r:
            return ["t", "value"], [r["trace"]["t"], r["trace"]["values"]]
        return ["sup_norm"], [[r["sup_norm"]]]
    if kind in ("inverse1", "inverse4"):
        return ["t", "mean"], [r["mean"]["t"], r["mean"]["values"]]
    if kind in ("inverse2", "inverse3"):
        env = r["envelope"]
        modes = sorted(env, key=int)
        return ["n", "coefficient"], [
            [int(n) for n in modes],
            [sum(c for c, m, g in env[n] if (m, g) == (0, 0.0)) for n in modes]]
    raise ScenarioError(f"no CSV layout for kind {kind!r}")


def _csv_text(cols: list[str], columns: list) -> str:
    """The header, then one line per row, each line ending in a newline.
    Float64 array columns of ``FLOAT_TEXT_CROSSOVER`` or more values in
    all are one ``float_text`` call; other cells are ``repr`` of a float
    and ``str`` of anything else."""
    header = ",".join(cols) + "\n"
    if all(isinstance(c, np.ndarray) for c in columns) \
            and len(columns) * len(columns[0]) >= FLOAT_TEXT_CROSSOVER:
        from ._floattext import REPR_TOKENS, float_text
        seps = (",",) * (len(cols) - 1) + ("\n",)
        return header + float_text(np.column_stack(columns), seps, REPR_TOKENS) + "\n"
    rows = zip(*(c.tolist() if isinstance(c, np.ndarray) else c for c in columns))
    return header + "".join(",".join(repr(v) if isinstance(v, float) else str(v) for v in row)
                            + "\n" for row in rows)


def emit(report: RunReport, fmt: str, path: str) -> str:
    """Write the report; returns the emitted text."""
    kind = report.scenario.kind
    payload = _jsonable({"kind": kind, "results": report.results, "flags": report.flags})
    payload["scenario"] = serialize_scenario(report.scenario)
    if fmt == "json":
        text = _json_text(payload) + "\n"
    elif fmt == "csv":
        text = _csv_text(*_csv_columns(kind, payload["results"]))
    else:
        raise ScenarioError(f"unknown output format {fmt!r}")
    if path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    return text
