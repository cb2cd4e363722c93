"""Run the benchmark over several seeds and summarise each end-to-end metric.

    python3 perfbench/spread.py --seeds 1-10 [--workloads pme-dense,certify]
                                [--out FILE] [--against FILE]

For every workload and metric it prints the median of the runs, the
distance between their first and third quartiles as a share of the median
(statistics.quantiles(values, n=4)), and that spread against the metric's
bound in BENCHMARK.json.  --out writes every run's values and the summary as
JSON; --against compares the medians with such a file from the parent
commit and flags each metric that got worse by more than its bound.  Runs
one benchmark process at a time.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seeds(text: str) -> list:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run(workload: str, seed: int, seconds: int) -> tuple:
    """(values of one run, its environment record)."""
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=200)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}\n"
                           f"{proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    values = {"seed": seed, "correct": result["correct"],
              "attempted": result["attempted"], "failed": result["failed"],
              "metrics": {k: v["value"] for k, v in result["metrics"].items()}}
    return values, json.loads(lines[-2])["environment"]


def summarise(values: list) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else float("inf")}


def worse_by(metric: dict, new: float, old: float) -> float:
    """Share by which new is worse than old (negative when better)."""
    change = (new - old) / old
    return change if metric["better"] == "lower" else -change


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    ap.add_argument("--workloads", default=",".join(w["name"] for w in
                                                    spec["workloads"]))
    ap.add_argument("--out")
    ap.add_argument("--against")
    args = ap.parse_args(argv)
    parent = None
    if args.against:
        with open(args.against) as fh:
            parent = json.load(fh)["summary"]

    runs, summary, bad, environment = {}, {}, [], None
    for workload in args.workloads.split(","):
        runs[workload] = []
        for seed in args.seeds:
            r, environment = run(workload, seed, spec["run_seconds"])
            runs[workload].append(r)
            print(f"{workload} seed {seed}: correct={r['correct']} "
                  f"attempted={r['attempted']} failed={r['failed']} "
                  + " ".join(f"{k}={v:.6g}" for k, v in r["metrics"].items()),
                  flush=True)
            if not r["correct"]:
                bad.append(f"{workload} seed {seed}: incorrect")
        summary[workload] = {}
        for metric in spec["end_to_end"]:
            name = metric["name"]
            s = summarise([r["metrics"][name] for r in runs[workload]])
            summary[workload][name] = s
            line = (f"  {workload:15s} {name:12s} median {s['median']:.6g} "
                    f"spread {s['spread']:.3f} bound {metric['bound']}")
            if name != "setup_s" and s["spread"] > metric["bound"]:
                bad.append(f"{workload} {name}: spread {s['spread']:.3f}")
                line += "  SPREAD OVER BOUND"
            if parent and workload in parent:
                w = worse_by(metric, s["median"],
                             parent[workload][name]["median"])
                line += f"  vs parent {w:+.3f}"
                if w > metric["bound"]:
                    bad.append(f"{workload} {name}: {w:+.3f} vs parent")
                    line += "  WORSE THAN BOUND"
            print(line, flush=True)
    if args.out:
        with open(args.out, "w") as fh:
            json.dump({"run_seconds": spec["run_seconds"],
                       "environment": environment, "summary": summary,
                       "runs": runs}, fh, indent=1)
            fh.write("\n")
    for line in bad:
        print("problem:", line)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
