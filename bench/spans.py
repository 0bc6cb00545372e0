"""In-memory span tracing around osckit's public functions, from outside ``src/``.

A traced run replaces each public name at the place where osckit looks it
up (the defining module, and every module that imported the name) with a
wrapper that records a span: operation id, span id, parent span id, name,
start, end and optional work counts.  Spans stay in memory; per-layer
metrics are computed from them when the run ends.

A site whose attribute no longer exists (a refactor removed or merged the
function) is skipped and reported as absent; the layer's metrics then read 0.
"""

from __future__ import annotations

import functools
import importlib
import statistics
from time import perf_counter

import numpy as np


def _points(args, kwargs, result):
    return {"points": int(np.size(args[3] if len(args) > 3 else kwargs["t"]))}


def _grid_nodes(args, kwargs, result):
    # omega labels the call for the omega exponent; it is not summed
    return {"nodes": int(result.values.size), "omega": float(args[0].omega)}


def _steps(args, kwargs, result):
    return {"steps": int(args[0].intervals)}


def _bytes(args, kwargs, result):
    return {"bytes": len(result.encode("utf-8"))}


# (layer name, module, attribute path, work counter).  Every module that
# imports a traced name under its own binding is listed, so calls made
# inside osckit are seen too.
SITES = (
    ("catalog.exp_kernel_moment", "osckit.catalog", "exp_kernel_moment", _points),
    ("catalog.exp_kernel_moment", "osckit.volterra", "exp_kernel_moment", _points),
    ("catalog.duhamel", "osckit.forward", "duhamel_weight", None),
    ("catalog.duhamel", "osckit.forward", "duhamel_oscillatory", None),
    ("catalog.duhamel", "osckit.asymptotics", "duhamel_weight", None),
    ("catalog.duhamel", "osckit.asymptotics", "duhamel_slow", None),
    ("catalog.duhamel", "osckit.inverse", "duhamel_weight", None),
    ("catalog.duhamel", "osckit.inverse", "duhamel_slow", None),
    ("catalog.sine_coefficients", "osckit.catalog", "sine_coefficients", None),
    ("catalog.sine_coefficients", "osckit.inverse", "sine_coefficients", None),
    ("forward.solve_heat", "osckit.scenarios", "solve_heat", _grid_nodes),
    ("forward.solve_heat", "osckit.asymptotics", "solve_heat", _grid_nodes),
    ("asymptotics.residual_norm", "osckit.asymptotics", "residual_norm", None),
    ("asymptotics.expansion_eval", "osckit.asymptotics",
     "TwoTermExpansion.evaluate_grid", None),
    ("volterra.solve", "osckit.volterra", "solve", _steps),
    ("volterra.solve", "osckit.inverse", "solve", _steps),
    ("volterra.resolvent", "osckit.volterra", "SeparableResolvent.__init__", None),
    ("volterra.resolvent", "osckit.volterra", "SeparableResolvent.__call__", None),
    ("volterra.resolvent", "osckit.volterra",
     "SeparableResolvent.mode_integrals", None),
    ("inverse.recover_time_factor", "osckit.inverse", "recover_time_factor", None),
    ("inverse.recover_space_factor", "osckit.inverse", "recover_space_factor", None),
    ("inverse.recover_space_factor_and_oscillation", "osckit.inverse",
     "recover_space_factor_and_oscillation", None),
    ("inverse.recover_both_factors", "osckit.inverse", "recover_both_factors", None),
    ("scenarios.run", "osckit.scenarios", "run", None),
    ("scenarios.emit", "osckit.scenarios", "emit", _bytes),
)

# Per-layer metrics: name -> (unit, better).  Times and counts are medians
# over the traced operations of the per-operation total.
LAYER_METRICS = {
    "catalog.exp_kernel_moment.s": ("s/op", "lower"),
    "catalog.exp_kernel_moment.calls": ("count/op", "lower"),
    "catalog.exp_kernel_moment.points": ("count/op", "lower"),
    "catalog.duhamel.self_s": ("s/op", "lower"),
    "catalog.sine_coefficients.s": ("s/op", "lower"),
    "forward.solve_heat.s": ("s/op", "lower"),
    "forward.solve_heat.self_s": ("s/op", "lower"),
    "forward.solve_heat.calls": ("count/op", "lower"),
    "forward.solve_heat.nodes": ("count/op", "lower"),
    "forward.solve_heat.omega_exponent": ("1", "lower"),
    "asymptotics.residual_norm.s": ("s/op", "lower"),
    "asymptotics.residual_norm.self_s": ("s/op", "lower"),
    "asymptotics.residual_norm.ns_per_node": ("ns/node", "lower"),
    "asymptotics.expansion_eval.s": ("s/op", "lower"),
    "volterra.solve.s": ("s/op", "lower"),
    "volterra.solve.steps": ("count/op", "lower"),
    "volterra.solve.us_per_step": ("us/step", "lower"),
    "volterra.resolvent.s": ("s/op", "lower"),
    "inverse.recover_time_factor.self_s": ("s/op", "lower"),
    "inverse.recover_space_factor.self_s": ("s/op", "lower"),
    "inverse.recover_space_factor_and_oscillation.self_s": ("s/op", "lower"),
    "inverse.recover_both_factors.self_s": ("s/op", "lower"),
    "scenarios.run.s": ("s/op", "lower"),
    "scenarios.emit.s": ("s/op", "lower"),
    "scenarios.emit.bytes": ("B/op", "lower"),
    "check.err_over_tol_max": ("ratio", "lower"),
    "trace.overhead_frac": ("frac", "lower"),
}


class Span:
    __slots__ = ("op", "id", "parent", "name", "start", "end", "counts")

    def __init__(self, op, sid, parent, name, start=0.0, end=0.0, counts=None):
        self.op = op
        self.id = sid
        self.parent = parent
        self.name = name
        self.start = start
        self.end = end
        self.counts = counts

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans while ``op`` is set; calls outside an operation pass through."""

    def __init__(self):
        self.spans: list[Span] = []
        self.op = None
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    def wrap(self, name: str, fn, count=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer.op is None:
                return fn(*args, **kwargs)
            parent = tracer._stack[-1] if tracer._stack else None
            span = Span(tracer.op, len(tracer.spans), parent, name)
            tracer.spans.append(span)
            tracer._stack.append(span.id)
            span.start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                tracer._stack.pop()
            if count is not None:
                span.counts = count(args, kwargs, result)
            return result

        return traced

    def install(self, sites=SITES):
        for name, module_name, path, count in sites:
            try:
                owner = importlib.import_module(module_name)
            except ImportError:
                self.absent.append(f"{module_name}.{path}")
                continue
            *chain, attr = path.split(".")
            for part in chain:
                owner = getattr(owner, part, None)
            # only names the module or class defines itself: an inherited
            # method would be a different function under the same name
            if owner is None or attr not in vars(owner):
                self.absent.append(f"{module_name}.{path}")
                continue
            original = vars(owner)[attr]
            setattr(owner, attr, self.wrap(name, original, count))
            self._undo.append((owner, attr, original))

    def uninstall(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def absent_layers(self, sites=SITES) -> list[str]:
        """Layer names none of whose sites could be wrapped."""
        wrapped = {name for name, module_name, path, _ in sites
                   if f"{module_name}.{path}" not in self.absent}
        return sorted({name for name, *_ in sites} - wrapped)


def self_time(span: Span, children: list[Span]) -> float:
    """Duration minus the part of the span that its children cover."""
    covered = 0.0
    cursor = span.start
    for child in sorted(children, key=lambda c: c.start):
        lo = max(child.start, cursor)
        hi = min(child.end, span.end)
        if hi > lo:
            covered += hi - lo
            cursor = hi
    return span.duration - covered


def _omega_exponent(pairs) -> float:
    """Slope of log(time) against log(omega); 0 when omega never varies."""
    if len({w for w, _ in pairs}) < 2:
        return 0.0
    logw = np.log([w for w, _ in pairs])
    logt = np.log([max(d, 1e-12) for _, d in pairs])
    return float(np.polyfit(logw, logt, 1)[0])


def layer_metrics(spans: list[Span], scale: dict) -> dict[str, float]:
    """Per-layer metrics from the spans of the traced operations.

    ``scale`` maps each traced operation to the factor that turns its wall
    times into reference-speed times.  Times (``.s``) and ``.calls`` count
    only outermost spans of a name, so a layer that re-enters itself is not
    counted twice; ``.self_s`` sums the self time of every span of the name.
    """
    by_id = {s.id: s for s in spans}
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)

    def outermost(s: Span) -> bool:
        p = s.parent
        while p is not None:
            if by_id[p].name == s.name:
                return False
            p = by_id[p].parent
        return True

    def subtree(s: Span):
        for c in children.get(s.id, []):
            yield c
            yield from subtree(c)

    per_op = {op: {} for op in scale}
    totals = {"residual_s": 0.0, "residual_nodes": 0, "solve_s": 0.0, "steps": 0}
    omega_pairs = []
    for s in spans:
        acc = per_op.get(s.op)
        if acc is None:
            continue
        k = scale[s.op]
        self_s = k * self_time(s, children.get(s.id, []))
        acc[f"{s.name}.self_s"] = acc.get(f"{s.name}.self_s", 0.0) + self_s
        if not outermost(s):
            continue
        duration = k * s.duration
        acc[f"{s.name}.s"] = acc.get(f"{s.name}.s", 0.0) + duration
        acc[f"{s.name}.calls"] = acc.get(f"{s.name}.calls", 0) + 1
        counts = s.counts or {}  # None when the call raised
        for key, value in counts.items():
            if f"{s.name}.{key}" in LAYER_METRICS:
                acc[f"{s.name}.{key}"] = acc.get(f"{s.name}.{key}", 0) + value
        if s.name == "forward.solve_heat" and counts:
            omega_pairs.append((counts["omega"], duration))
        elif s.name == "asymptotics.residual_norm":
            totals["residual_s"] += duration
            totals["residual_nodes"] += sum(
                c.counts["nodes"] for c in subtree(s)
                if c.name == "forward.solve_heat" and c.counts)
        elif s.name == "volterra.solve" and counts:
            totals["solve_s"] += duration
            totals["steps"] += counts["steps"]

    out = {}
    for name in LAYER_METRICS:
        values = [acc.get(name, 0) for acc in per_op.values()]
        out[name] = float(statistics.median(values)) if values else 0.0
    out["forward.solve_heat.omega_exponent"] = _omega_exponent(omega_pairs)
    out["asymptotics.residual_norm.ns_per_node"] = (
        1e9 * totals["residual_s"] / totals["residual_nodes"]
        if totals["residual_nodes"] else 0.0)
    out["volterra.solve.us_per_step"] = (
        1e6 * totals["solve_s"] / totals["steps"] if totals["steps"] else 0.0)
    for name in ("check.err_over_tol_max", "trace.overhead_frac"):
        out.pop(name)  # filled in by the runner
    return out
