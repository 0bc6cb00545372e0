"""osckit benchmark: closed-loop workloads, end-to-end and per-layer metrics.

    python3 bench/run.py --workload ladder --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 25

One client in one process runs operations back to back for ``--seconds``
seconds of operation time.  An operation is ``osckit.scenarios.run`` on a
parsed scenario followed by ``osckit.scenarios.emit(report, "json", sink)``;
inputs come from ``--seed``.  Correctness checks, input generation and the
determinism re-runs happen between or after operations, with the clock
stopped.  With ``--trace 0`` the run reports the end-to-end metrics; with
``--trace 1`` it runs half the time untraced and half traced and reports the
per-layer metrics from the spans.  The last line of standard output is the
result object; the line before it holds provenance and details.
``--workload all`` runs every workload both ways and prints a table.

Times are reported at a fixed reference speed (see ``SpeedProbe``); the raw
wall times are in the details.  osckit is imported from ``src/`` next to
this directory, never from an installed copy; without it the benchmark
exits with status 1.
"""

import argparse
import gc
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("ladder", "spectral", "reconstruct")

THREAD_CAP = 1      # BLAS/OpenMP threads; at most nproc
SETUP_REPEATS = 5   # fresh interpreters whose set-up is timed
PREFETCH = 8        # operations generated and parsed during set-up
RERUNS = 4          # operations run again for the byte-identity check

END_TO_END = {
    "setup_s": ("s", "lower"),
    "op_p50_s": ("s", "lower"),
    "op_tail_s": ("s", "lower"),
    "ops_per_s": ("1/s", "higher"),
    "peak_rss_mb": ("MB", "lower"),
}


def pin_cpu() -> int | None:
    """Keep this process, and the set-up interpreters it starts, on one CPU.

    The host slows one virtual CPU at a time; a probe says little about an
    operation or a set-up that ran on another CPU.
    """
    if not hasattr(os, "sched_setaffinity"):
        return None
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def load_workload(name: str, seed: int):
    """Pin the thread cap, import osckit from ``src/`` and build the workload."""
    if not (SRC / "osckit" / "__init__.py").is_file():
        sys.exit(f"bench: no osckit sources under {SRC}")
    for var in ("OSK_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
        os.environ[var] = str(THREAD_CAP)
    sys.path.insert(0, str(SRC))
    import osckit

    if Path(osckit.__file__).resolve().parent != (SRC / "osckit").resolve():
        sys.exit(f"bench: osckit imported from {osckit.__file__}, not {SRC}")
    from workloads import WORKLOADS

    return WORKLOADS[name](seed)


class SpeedProbe:
    """Wall time of fixed numpy work that touches no osckit code.

    On shared virtual machines the host slows a core down by up to 2x for
    seconds at a time, which moves the median of a 30 s run by 20-30%
    between runs.  The probe runs after every operation; scaling an
    operation's wall time by the probe's nominal time over the mean probe
    time on either side of it gives its time at a fixed reference speed.
    Code of different kinds slows down by different amounts, so a workload
    names the kind that matches its hot path: ``arrays`` (interpreter loop
    plus vectorized work on arrays of 500 to 130k elements) or ``calls``
    (numpy calls on one-element arrays, where per-call overhead dominates).
    A change that moves a workload's hot path from one kind to the other
    must first change that workload's probe kind, in a benchmark change of
    its own, so that parent and change are scaled alike.
    """

    NOMINAL_S = {"arrays": 0.015, "calls": 0.015}

    def __init__(self, kind: str):
        import numpy as np

        self.kind = kind
        self._np = np
        self._work = {"arrays": self._arrays, "calls": self._calls}[kind]
        self._phases = np.linspace(0.0, 3.0, 513) * 1j
        self._rows = np.linspace(0.0, 1.0, 65)
        self._cols = np.linspace(0.0, 1.0, 2000)
        self._one = np.ones(1, dtype=complex)
        self._tiny = np.full(1, 0.5)

    def __call__(self) -> float:
        began = time.perf_counter()
        self._work()
        return time.perf_counter() - began

    def _arrays(self):
        acc = 0
        for i in range(60000):
            acc += i * i
        for _ in range(150):
            self._np.exp(self._phases)
        for _ in range(60):
            self._np.outer(self._rows, self._cols).sum()

    def _calls(self):
        acc = self._np.zeros(1, dtype=complex)
        for _ in range(3000):
            acc += self._one * self._tiny ** 3 / 7.0
            acc *= 0.5

    def scale(self, samples) -> float:
        """Factor from wall time to reference-speed time."""
        return self.NOMINAL_S[self.kind] / statistics.mean(samples)


def set_up(workload) -> dict:
    """Generate and parse the first inputs, then run one warm-up operation."""
    from workloads import WARMUP

    prepared = {i: workload.prepare(i) for i in range(PREFETCH)}
    workload.operate(workload.prepare(0, stream=WARMUP))
    return prepared


@dataclass
class OpRecord:
    index: int
    seconds: float           # wall time
    scale: float = math.nan  # wall time to reference-speed time
    error: str | None = None
    digests: list = field(default_factory=list)
    verdict: object = None

    @property
    def scaled(self) -> float:
        return self.seconds * self.scale

    @property
    def failed(self) -> bool:
        return self.error is not None or bool(self.verdict.problems)


def _checked(check, *args):
    """A check that raises counts as a failed check, not a crashed benchmark."""
    from workloads import Verdict

    try:
        return check(*args)
    except Exception as exc:  # the reason is reported with the result
        return Verdict(math.inf, [f"check raised {type(exc).__name__}: {exc}"])


def _digests(texts) -> list:
    return [hashlib.sha256(t.encode("utf-8")).hexdigest() for t in texts]


def timed_phase(workload, seconds: float, start: int, prepared: dict,
                probe: SpeedProbe, tracer=None) -> list:
    """Run operations back to back until their summed wall time reaches
    ``seconds``; only the operations themselves are inside the clock."""
    records = []
    busy = 0.0
    index = start
    before = probe()
    while busy < seconds or not records:
        p = prepared.pop(index, None) or workload.prepare(index)
        gc.collect()
        if tracer is not None:
            tracer.op = index
        began = time.perf_counter()
        try:
            texts = workload.operate(p)
            error = None
        except Exception as exc:  # counted in failed, reported with the result
            texts, error = None, f"{type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - began
        if tracer is not None:
            tracer.op = None
        after = probe()
        busy += elapsed
        rec = OpRecord(index, elapsed, probe.scale([before, after]), error)
        before = after
        if texts is not None:
            rec.digests = _digests(texts)
            rec.verdict = _checked(workload.check, p, texts)
        records.append(rec)
        index += 1
    return records


def _spread_sample(records, count: int) -> list:
    """Up to ``count`` records evenly spaced from the first to the last."""
    if count <= 0 or not records:
        return []
    if len(records) <= count:
        return list(records)
    step = (len(records) - 1) / (count - 1) if count > 1 else 0
    return [records[round(j * step)] for j in range(count)]


def after_checks(workload, records) -> dict:
    """Expensive checks and byte-identity re-runs on samples of the operations."""
    usable = [r for r in records if r.error is None and not r.verdict.problems]
    deep = workload.deep_sample(usable)
    for rec in deep:
        verdict = _checked(workload.deep_check, workload.prepare(rec.index), rec.verdict)
        rec.verdict.problems += verdict.problems
        rec.verdict.err_over_tol = max(rec.verdict.err_over_tol, verdict.err_over_tol)
    reruns = _spread_sample([r for r in records if r.error is None], RERUNS)
    for rec in reruns:
        try:
            again = _digests(workload.operate(workload.prepare(rec.index)))
        except Exception as exc:  # a re-run that raises is a failed operation
            again = [f"{type(exc).__name__}: {exc}"]
        if again != rec.digests:
            rec.verdict.problems.append("emitted JSON differs when the scenario runs again")
    return {"deep_checked": len(deep), "rerun": len(reruns)}


def tail(times) -> tuple[float, float]:
    """Value and percentile of the highest order statistic with ten samples
    beyond it (the maximum when there are fewer than eleven samples)."""
    s = sorted(times)
    k = len(s) - 11 if len(s) > 10 else len(s) - 1
    return s[k], 100.0 * (k + 1) / len(s)


def _clock() -> float:
    """A clock that reads the same in every process of the machine."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def setups(args, count: int, probe: SpeedProbe) -> list:
    """``(wall, reference-speed, peak RSS in MB)`` set-up times and memory
    of ``count`` fresh interpreters, one after another.  Each is timed from
    just before it is started to the moment it is ready for its first timed
    operation, and scaled like an operation; its peak RSS is that of one
    operation, the warm-up, as in one CLI call."""
    out = []
    before = probe()
    for _ in range(count):
        spawned = _clock()
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload",
             args.workload, "--seed", str(args.seed), "--setup-only"],
            capture_output=True, text=True, timeout=150, check=True)
        child = json.loads(done.stdout.strip().splitlines()[-1])
        after = probe()
        wall = child["ready"] - spawned
        out.append((wall, wall * probe.scale([before, after]), child["peak_rss_mb"]))
        before = after
    return out


def git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def provenance(seed: int, cpu: int | None) -> dict:
    import numpy
    import osckit

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "osckit": osckit.__version__,
        "machine": platform.machine(),
        "nproc": os.cpu_count(),
        "thread_cap": THREAD_CAP,
        "pinned_cpu": cpu,
        "seed": seed,
        "commit": git_commit(),
    }


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _ops_per_s(records, seconds) -> float:
    return sum(r.error is None for r in records) / sum(seconds)


def end_to_end(args, workload, prepared, probe, detail) -> tuple[list, dict]:
    setup_samples = setups(args, SETUP_REPEATS, probe)
    records = timed_phase(workload, args.seconds, 0, prepared, probe)
    ok = [r for r in records if r.error is None] or records
    scaled = [r.scaled for r in ok]
    wall = [r.seconds for r in ok]
    value, pct = tail(scaled)
    metrics = {
        "setup_s": statistics.median(s for _, s, _ in setup_samples),
        "op_p50_s": statistics.median(scaled),
        "op_tail_s": value,
        "ops_per_s": _ops_per_s(records, [r.scaled for r in records]),
        "peak_rss_mb": statistics.median(m for _, _, m in setup_samples),
    }
    detail.update(
        op_samples=len(scaled), op_tail_percentile=pct,
        wall={"setup_s": statistics.median(w for w, _, _ in setup_samples),
              "op_p50_s": statistics.median(wall), "op_tail_s": tail(wall)[0],
              "ops_per_s": _ops_per_s(records, [r.seconds for r in records])},
        reference_speed=statistics.median(r.scale for r in records),
        setup_samples=setup_samples,
        timed_phase_peak_rss_mb=_peak_rss_mb())
    return records, metrics


def per_layer(args, workload, prepared, probe, detail) -> tuple[list, dict]:
    from spans import Tracer, layer_metrics

    plain = timed_phase(workload, args.seconds / 2, 0, prepared, probe)
    tracer = Tracer()
    tracer.install()
    try:
        traced = timed_phase(workload, args.seconds / 2, plain[-1].index + 1,
                             prepared, probe, tracer)
    finally:
        tracer.uninstall()
    untraced_p50 = statistics.median(r.scaled for r in plain)
    traced_p50 = statistics.median(r.scaled for r in traced)
    metrics = layer_metrics(tracer.spans, {r.index: r.scale for r in traced})
    metrics["trace.overhead_frac"] = traced_p50 / untraced_p50 - 1.0
    detail.update(untraced_op_p50_s=untraced_p50, traced_op_p50_s=traced_p50,
                  traced_ops=len(traced), absent_sites=tracer.absent,
                  absent_layers=tracer.absent_layers())
    return plain + traced, metrics


def measure(args) -> tuple[dict, dict]:
    workload = load_workload(args.workload, args.seed)
    prepared = set_up(workload)
    ready = _clock()
    if args.setup_only:
        return {"ready": ready, "peak_rss_mb": _peak_rss_mb()}, {}
    probe = SpeedProbe(workload.probe)

    detail = {"workload": workload.name, "why": workload.why,
              "seconds": args.seconds, "trace": args.trace}
    if args.trace:
        from spans import LAYER_METRICS as units

        records, metrics = per_layer(args, workload, prepared, probe, detail)
    else:
        units = END_TO_END
        records, metrics = end_to_end(args, workload, prepared, probe, detail)
    detail.update(after_checks(workload, records))
    worst = max((r.verdict.err_over_tol for r in records if r.verdict), default=0.0)
    metrics["check.err_over_tol_max"] = min(worst, 1e300)

    failed = [r for r in records if r.failed]
    detail["attempted"] = len(records)
    detail["failed_frac"] = len(failed) / len(records)
    detail["problems"] = sorted({f"op {r.index}: {msg}" for r in failed
                                 for msg in ([r.error] if r.error else r.verdict.problems)})[:10]
    detail["provenance"] = provenance(args.seed, args.cpu)
    result = {
        "correct": not failed,
        "attempted": len(records),
        "failed": len(failed),
        "metrics": {name: {"value": metrics[name], "unit": units[name][0]}
                    for name in units},
    }
    return result, detail


def run_all(args) -> int:
    """Every workload untraced and traced, printed as one table."""
    ok = True
    for name in WORKLOAD_NAMES:
        for trace in (0, 1):
            out = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                 "--seed", str(args.seed), "--seconds", str(args.seconds),
                 "--trace", str(trace)],
                capture_output=True, text=True, timeout=900)
            lines = out.stdout.strip().splitlines()
            if out.returncode != 0 or len(lines) < 2:
                print(f"{name} trace {trace}: failed\n{out.stderr}")
                ok = False
                continue
            detail = json.loads(lines[-2])["detail"]
            result = json.loads(lines[-1])
            ok = ok and result["correct"]
            if trace == 0:
                print(f"\n== {name}: {detail['why']}")
                print(f"   provenance {json.dumps(detail['provenance'])}")
                print(f"   end to end (untraced, {detail['attempted']} operations, "
                      f"op_tail_s = p{detail['op_tail_percentile']:.1f} of "
                      f"{detail['op_samples']} samples, reference speed "
                      f"{detail['reference_speed']:.3f}; wall: "
                      + ", ".join(f"{k} {v:.4g}" for k, v in detail["wall"].items())
                      + ")")
            else:
                print(f"   per layer (traced run, {detail['traced_ops']} traced operations"
                      f"; absent layers: {', '.join(detail['absent_layers']) or 'none'})")
            print(f"   {'failed_frac':<52} {detail['failed_frac']:<14.6g} "
                  f"({result['failed']} of {result['attempted']})")
            for metric, entry in result["metrics"].items():
                print(f"   {metric:<52} {entry['value']:<14.6g} {entry['unit']}")
            for problem in detail["problems"]:
                print(f"   problem: {problem}")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    args.cpu = pin_cpu()
    if args.workload == "all":
        return run_all(args)
    result, detail = measure(args)
    if detail:
        print(json.dumps({"detail": detail}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
