"""One benchmark process: set up a workload, time its rounds, report JSON.

Started by run.py as a fresh interpreter, either with --setup-only (a setup
probe that exits once it is ready) or to measure.  The last line of its
standard output is a JSON object that run.py turns into the result line.

Set-up is everything a fresh process pays before its first operation:
interpreter start, importing padicpme and its dependencies, generating the
seeded inputs, and one warm-up dense solve.  Like the operations, it is
scaled by the speed of the reference work (calibrate.py), sampled right
after it.  A fresh process sometimes stalls on its first BLAS solve (up to
about 1 s), so that one-time cost lands in setup_s and not in the first
timed operation.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from typing import NamedTuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy as np  # noqa: E402
import mpmath  # noqa: E402
import scipy  # noqa: E402

from padicpme import (cli, fractional, functions, heat, padic, pme,  # noqa: E402
                      verification)
from padicpme.errors import SolverError  # noqa: E402

import calibrate  # noqa: E402
import workloads  # noqa: E402
from spans import Tracer  # noqa: E402

WARMUP_DIM = 256
TAIL_BEYOND = 10      # op_tail_s: highest percentile with this many beyond
TAIL_MIN_CALLS = 20
REF_EVERY_S = 1.0     # operation time between two reference samples, at most
REF_SHARE = 0.1       # reference work per sample, as a share of that time
REF_MIN_UNITS = 2
SETUP_REF_UNITS = 6   # the sample that scales set-up time


class Row(NamedTuple):
    label: str
    seconds: float
    outcome: str
    once: bool = False    # of an operation that runs in the first round only


class Reference:
    """Samples of the reference work (calibrate.py), spread over a run.

    A sample follows whenever REF_EVERY_S of operation time has passed since
    the last one, and its length is REF_SHARE of that time, so the samples
    cover the run evenly.  scale() is nominal over measured seconds per unit
    across all of them.  It is one factor for the whole run: the reference
    and an operation run at different moments, and over moments shorter
    than a run the host's speed does not repeat.
    """

    def __init__(self, helper: calibrate.Helper):
        self.helper = helper
        self.units = 0
        self.seconds = 0.0
        self.pending = 0.0
        self.take()

    def take(self) -> None:
        units = REF_MIN_UNITS
        if self.units:
            units = max(units, math.ceil(REF_SHARE * self.pending
                                         / self.unit_s()))
        self.seconds += units * self.helper.sample(units)
        self.units += units
        self.pending = 0.0

    def count(self, seconds: float) -> None:
        """Count an operation's time; sample when enough has passed."""
        self.pending += seconds
        if self.pending >= REF_EVERY_S:
            self.take()

    def unit_s(self) -> float:
        return self.seconds / self.units

    def scale(self) -> float:
        return calibrate.NOMINAL_UNIT_S / self.unit_s()


def attempt(op, tracer) -> Row:
    """Time one call of op and gate its result."""
    start = time.perf_counter()
    try:
        result = op.run(tracer)
    except SolverError:
        return Row(op.label, time.perf_counter() - start, workloads.REFUSED)
    except Exception:
        traceback.print_exc()
        return Row(op.label, time.perf_counter() - start, workloads.FAILED)
    seconds = time.perf_counter() - start
    try:
        outcome = op.gate(result)
    except Exception:
        traceback.print_exc()
        outcome = workloads.FAILED
    return Row(op.label, seconds, outcome)


def run_round(workload, tracer=None, first_round: bool = True,
              reference: Reference | None = None) -> list:
    """Call every operation once; those marked once only in the first
    round.  With a reference, sample it between operations.  Returns one
    Row per call."""
    rows = []
    for op in workload.operations:
        if first_round or not op.once:
            rows.append(attempt(op, tracer)._replace(once=op.once))
            if reference is not None:
                reference.count(rows[-1].seconds)
    for row in rows:
        if row.outcome == workloads.FAILED:
            print(f"failed operation: {row.label}", file=sys.stderr)
    return rows


def per_operation(rows: list) -> tuple:
    """({label: latency}, {label: outcome}) over the calls of a run.

    An operation's latency is the median of its calls, its outcome the worst
    of them.
    """
    calls, outcome = {}, {}
    rank = {workloads.OK: 0, workloads.REFUSED: 1, workloads.FAILED: 2}
    for row in rows:
        calls.setdefault(row.label, []).append(row.seconds)
        worst = outcome.get(row.label, workloads.OK)
        outcome[row.label] = max(worst, row.outcome, key=rank.get)
    return {k: statistics.median(v) for k, v in calls.items()}, outcome


def tail(calls: list) -> tuple:
    """(value, percentile) of the highest percentile of the call times with
    TAIL_BEYOND calls beyond it; the slowest call when there are fewer than
    TAIL_MIN_CALLS."""
    ordered = sorted(calls)
    n = len(ordered)
    if n < TAIL_MIN_CALLS:
        return ordered[-1], 100.0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def end_to_end(rounds: list, scale: float = 1.0) -> tuple:
    """(metrics, detail) of the untraced rounds.

    ref_wall_s is the sum of the operations' latencies times scale, the
    run's Reference.scale(), so that episodes of a slow host cancel.  An
    operation that runs once a run counts in ok_ratio, but its latency,
    a single call that spreads with the host's speed during it, goes to
    the detail line as once_s.

    The raw sum and the latency percentiles of single calls go to the
    detail line, not to the metrics: on a shared 2-core machine they spread
    by 20-40 % from run to run, more than any bound a regression gate can
    use.
    """
    rows = [row for r in rounds for row in r]
    latency, outcome = per_operation(rows)
    once = {row.label for row in rows if row.once}
    timed = sum(s for label, s in latency.items() if label not in once)
    calls = [row.seconds for row in rows]
    tail_s, percentile = tail(calls)
    ok = sum(1 for o in outcome.values() if o == workloads.OK)
    metrics = {
        "ref_wall_s": (scale * timed, "s"),
        "ok_ratio": (ok / len(outcome), "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024.0, "MB"),
    }
    detail = {"rounds": len(rounds), "operations": len(latency),
              "calls": len(calls),
              "wall_s": {"value": timed, "unit": "s"},
              "scale": scale,
              "once_s": {label: {"value": latency[label], "unit": "s"}
                         for label in sorted(once)},
              "op_p50_s": {"value": statistics.median(calls), "unit": "s"},
              "op_tail_s": {"value": tail_s, "unit": "s",
                            "percentile": percentile},
              "refused": sorted(k for k, o in outcome.items()
                                if o == workloads.REFUSED),
              "round_s": [sum(row.seconds for row in r) for r in rounds]}
    return metrics, detail


# ---------------------------------------------------------------------------
# traced rounds
# ---------------------------------------------------------------------------

def _add(name, amount):
    def hook(tracer, out, args, kwargs):
        tracer.counters[name] += amount(out, args)
    return hook


def _count_solver_errors(tracer, exc):
    if isinstance(exc, SolverError):
        tracer.counters["pme.implicit_step.failed"] += 1


def install(tracer: Tracer) -> None:
    """Wrap each layer at the attribute its callers look it up through."""
    patch = tracer.patch
    patch(cli, "main", "cli.main")
    patch(pme, "implicit_step", "pme.implicit_step",
          on_error=_count_solver_errors)
    patch(pme, "stationary_solve", "pme.stationary_solve",
          on_return=_add("pme.newton_iterations", lambda out, a: out.iterations))
    for owner in (fractional, pme, heat, cli, verification):
        patch(owner, "ball_matrix", "fractional.ball_matrix",
              on_return=_add("fractional.ball_matrix.bytes",
                             lambda out, a: out.matrix.nbytes))
    for name in ("ball_semigroup_matrix", "semigroup_matrix"):
        patch(heat, name, f"heat.{name}",
              on_return=_add(f"heat.{name}.bytes", lambda out, a: out.nbytes))
    patch(heat, "kernel_Z", "heat.kernel_Z")
    patch(heat, "resolvent_apply", "heat.resolvent_apply")
    for owner in (fractional, verification):
        patch(owner, "hypersingular_quadrature",
              "fractional.hypersingular_quadrature")
        patch(owner, "apply_testfunction_at", "fractional.apply_testfunction_at")
    patch(functions.TestFunction, "value_at", "functions.TestFunction.value_at",
          hot=True)
    patch(padic.Ball, "contains_value", "padic.Ball.contains_value", hot=True)
    for owner in (functions, cli):
        patch(owner, "write_grid_csv", "functions.write_grid_csv",
              on_return=_add("functions.write_grid_csv.bytes",
                             lambda out, a: os.path.getsize(a[0])))
    patch(padic.GridSpec, "representative", "padic.GridSpec.representative",
          hot=True)
    patch(cli, "read_grid_csv", "functions.read_grid_csv")
    for owner in (functions, cli, verification):
        patch(owner, "to_grid", "functions.to_grid")
    for owner in (fractional, heat):
        patch(owner, "int_valuation", "padic.int_valuation", hot=True)


def per_layer(tracer: Tracer, traced: list, untraced: list,
              layer_metrics: list) -> dict:
    """Every per_layer metric of BENCHMARK.json, for one traced pass."""
    traced_s = sum(row.seconds for row in traced)
    special = {
        "trace.overhead_s": traced_s - sum(row.seconds for row in untraced),
        "trace.unattributed_s": traced_s - tracer.top_level_s,
    }
    out = {}
    for spec in layer_metrics:
        name = spec["name"]
        if name in special:
            value = special[name]
        elif name.endswith(".calls"):
            value = tracer.calls[name[:-len(".calls")]]
        elif name.endswith(".s"):
            value = tracer.self_s[name[:-len(".s")]]
        else:
            value = tracer.counters[name]
        out[name] = (value, spec["unit"])
    return out


# ---------------------------------------------------------------------------
# environment
# ---------------------------------------------------------------------------

def git_rev() -> str:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() or "unknown"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def blas_vendor() -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        return "unknown"


def environment(warmup_s: float) -> dict:
    return {
        "git_rev": git_rev(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "mpmath": mpmath.__version__,
        "blas": blas_vendor(),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
        "first_dense_solve": {"lands_in": "setup_s",
                              "warmup_dim": WARMUP_DIM,
                              "warmup_solve_s": warmup_s},
    }


def warm_up() -> float:
    rng = np.random.default_rng(0)
    a = rng.standard_normal((WARMUP_DIM, WARMUP_DIM)) + WARMUP_DIM * np.eye(WARMUP_DIM)
    start = time.perf_counter()
    np.linalg.solve(a, rng.standard_normal(WARMUP_DIM))
    return time.perf_counter() - start


# ---------------------------------------------------------------------------
# main
# ---------------------------------------------------------------------------

def measure(workload, seconds: float, trace: bool, run_id: str,
            trace_path: str, layer_metrics: list,
            helper: calibrate.Helper) -> tuple:
    """Untraced rounds until the calls that count in ref_wall_s have taken
    `seconds` (at least one round); returns (metrics, detail, rows).

    With trace, one untraced and one traced pass instead: per-layer values
    are then exact counts for one pass, and trace.overhead_s compares two
    passes timed alike.
    """
    if trace:
        untraced = run_round(workload)
        tracer = Tracer(run_id)
        install(tracer)
        try:
            traced = run_round(workload, tracer)
        finally:
            tracer.unpatch()
        tracer.write_jsonl(trace_path)
        _, detail = end_to_end([untraced])
        detail["trace_file"] = os.path.relpath(trace_path, ROOT)
        return (per_layer(tracer, traced, untraced, layer_metrics), detail,
                untraced + traced)
    rounds = []
    start = time.perf_counter()
    reference = Reference(helper)
    timed = 0.0       # seconds of the calls that count in ref_wall_s
    while not rounds or timed < seconds:
        rounds.append(run_round(workload, first_round=not rounds,
                                reference=reference))
        timed += sum(row.seconds for row in rounds[-1] if not row.once)
    reference.take()
    metrics, detail = end_to_end(rounds, reference.scale())
    detail["reference"] = {
        "unit_s": reference.unit_s(), "nominal_unit_s": calibrate.NOMINAL_UNIT_S,
        "units": reference.units,
        "share": reference.seconds / (time.perf_counter() - start)}
    return metrics, detail, [row for r in rounds for row in r]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.BUILDERS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--size", default="full", choices=("full", "tiny"))
    ap.add_argument("--seconds", type=float, default=1.0)
    ap.add_argument("--trace", type=int, default=0, choices=(0, 1))
    ap.add_argument("--spawned", type=float, required=True,
                    help="time.time() just before this process was started")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    scratch = os.path.join(ROOT, ".perfbench")
    os.makedirs(scratch, exist_ok=True)
    workdir = tempfile.mkdtemp(dir=scratch, prefix=f"{args.workload}-")
    try:
        workload = workloads.build(args.workload, args.seed, args.size, workdir)
        warmup_s = warm_up()
        setup_raw_s = time.time() - args.spawned
        with calibrate.Helper() as helper:
            setup_s = setup_raw_s * (calibrate.NOMINAL_UNIT_S
                                     / helper.sample(SETUP_REF_UNITS))
            if args.setup_only:
                print(json.dumps({"setup_s": setup_s,
                                  "setup_raw_s": setup_raw_s}))
                return 0
            with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
                layer_metrics = json.load(fh)["per_layer"]
            run_id = f"{args.workload}-seed{args.seed}-{os.getpid()}"
            trace_path = os.path.join(scratch, "traces",
                                      f"{args.workload}-seed{args.seed}.jsonl")
            metrics, detail, rows = measure(workload, args.seconds,
                                            bool(args.trace), run_id,
                                            trace_path, layer_metrics, helper)
        print(json.dumps({
            "setup_s": setup_s,
            "setup_raw_s": setup_raw_s,
            "attempted": len(rows),
            "failed": sum(1 for row in rows if row.outcome == workloads.FAILED),
            "metrics": metrics,
            "detail": detail,
            "inputs": workload.inputs,
            "environment": environment(warmup_s),
        }))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
