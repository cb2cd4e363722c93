"""padicpme benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs from the root of a source checkout; needs only the interpreter with
numpy, scipy and mpmath.  Each run measures one workload (see
perfbench/README.md) in a fresh worker process, with BLAS pinned to two
threads.  With --trace 0 it also starts SETUP_PROBES further fresh
processes that only set up, and reports the median set-up time of all of
them.  The second-to-last line of standard output is a JSON record
of the environment and run details; the last line is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with every end_to_end metric of BENCHMARK.json under --trace 0 and every
per_layer metric under --trace 1.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("pme-dense", "heat-snapshots", "certify", "pme-hard")
SETUP_PROBES = 2
PROBE_TIMEOUT_S = 60
RUN_DEADLINE_S = 170    # whole run, probes included
# BLAS threads, fixed so that every machine rounds alike.  The count moves
# the outcome: with one thread the p=3 dim-729 evolve of pme-dense fails
# (Gauss-Seidel does not converge after Newton and the epsilon ladder
# fail), with two it converges.
BLAS_THREADS = "2"


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def worker(args, extra: list, env: dict, timeout: float) -> dict:
    """Start a fresh worker; returns its last stdout line as JSON."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--size", args.size, "--spawned", repr(time.time()), *extra]
    proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                          text=True, timeout=timeout)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return json.loads(lines[-1])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, default=0, choices=(0, 1))
    ap.add_argument("--size", default="full", choices=("full", "tiny"),
                    help="tiny: small grids for the benchmark's own tests")
    args = ap.parse_args(argv)
    if args.seconds < 1:
        return fail("--seconds must be at least 1")
    if not os.path.isfile(os.path.join(ROOT, "src", "padicpme", "__init__.py")):
        return fail(f"no padicpme sources under {ROOT}/src")
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
            spec = json.load(fh)
    except (OSError, ValueError) as exc:
        return fail(f"cannot read BENCHMARK.json: {exc}")

    env = dict(os.environ, OPENBLAS_NUM_THREADS=BLAS_THREADS,
               OMP_NUM_THREADS=BLAS_THREADS, MKL_NUM_THREADS=BLAS_THREADS)
    deadline = time.monotonic() + RUN_DEADLINE_S
    try:
        probes = []
        if not args.trace:
            for _ in range(SETUP_PROBES):
                probes.append(worker(args, ["--setup-only"], env,
                                     PROBE_TIMEOUT_S))
        result = worker(args, ["--seconds", str(args.seconds),
                               "--trace", str(args.trace)],
                        env, deadline - time.monotonic())
    except (RuntimeError, OSError, ValueError, subprocess.TimeoutExpired) as exc:
        return fail(str(exc))

    metrics = dict(result["metrics"])
    if not args.trace:
        probes.append(result)
        metrics["setup_s"] = (statistics.median(p["setup_s"] for p in probes),
                              "s")
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        return fail(f"metrics not measured: {missing}")

    print(json.dumps({"environment": result["environment"],
                      "detail": {**result["detail"],
                                 "setup_samples_s": [p["setup_s"] for p in probes],
                                 "setup_raw_s": [p["setup_raw_s"] for p in probes]},
                      "inputs": result["inputs"]}))
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {m["name"]: {"value": metrics[m["name"]][0],
                                "unit": metrics[m["name"]][1]}
                    for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
