"""Reference work: a fixed computation that measures how fast the host runs
right now.

    python3 perfbench/calibrate.py            # time 50 units, print JSON
    python3 perfbench/calibrate.py --serve    # helper: see Helper

A shared host changes speed by up to 1.5x, in episodes that last from
seconds to minutes, and every computation in the process slows with it.
The worker runs samples of this reference work between operations and
scales a run's times by how much slower than nominal the reference ran.
That cancels the episodes, while a change in the program's own code moves
the scaled time exactly as it moves the raw time.

One unit gathers 2M doubles at random indices and takes exp(-x^2) of them:
memory-bound work over 32 MB of arrays.  Of the kinds of reference work
tried on the 2-core host (exact Fraction arithmetic, numpy calls on small
vectors, a Gauss-Seidel sweep with brentq, float formatting, dense solves,
and mixes of these), its speed followed the speed of pme-hard, certify and
heat-snapshots best from run to run, the pure-Python ones included; on
pme-dense, whose time is dense solves on two BLAS threads, none helped and
this one did no harm.  The work does not touch padicpme.

The arrays live in a helper process, so that they do not count in the
worker's peak RSS.  For each sample the helper moves to the CPU the worker
last ran on, which the worker leaves idle while it waits: a reference run
on the other CPU followed the workloads less well.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time

import numpy as np

# One unit took this long, median over calm minutes, on the 2-core Intel
# Xeon (Sapphire Rapids) VM with Python 3.11 and numpy 2.4.  It only sets
# the scale of the reported times: a scaled time reads in seconds as that
# machine would run it when calm.
NOMINAL_UNIT_S = 0.034

N = 2_000_000


def make_arrays() -> tuple:
    """(source, index): the fixed inputs of the reference work."""
    rng = np.random.default_rng(12345)
    return rng.standard_normal(N), rng.integers(0, N, N)


def unit(arrays: tuple) -> float:
    """Run one unit of reference work; returns a checksum so that the work
    is used."""
    source, index = arrays
    return float(np.exp(-source[index] ** 2).sum())


def sample(arrays: tuple, units: int) -> float:
    """Seconds per unit over `units` back-to-back units."""
    start = time.perf_counter()
    for _ in range(units):
        unit(arrays)
    return (time.perf_counter() - start) / units


def current_cpu() -> int:
    """The CPU this process last ran on, or -1 where that is unknown."""
    try:
        with open("/proc/self/stat") as fh:
            return int(fh.read().rsplit(")", 1)[1].split()[36])
    except (OSError, IndexError, ValueError):
        return -1


class Helper:
    """The reference work in a process of its own.  sample(units) asks it
    for one sample on the caller's CPU and waits for the answer; close()
    ends it."""

    def __init__(self):
        self.proc = subprocess.Popen(
            [sys.executable, __file__, "--serve"], stdin=subprocess.PIPE,
            stdout=subprocess.PIPE, text=True)

    def sample(self, units: int) -> float:
        self.proc.stdin.write(f"{units} {current_cpu()}\n")
        self.proc.stdin.flush()
        answer = self.proc.stdout.readline()
        if not answer:
            raise RuntimeError("reference helper ended early")
        return float(answer)

    def close(self) -> None:
        try:
            self.proc.stdin.close()
            self.proc.wait(timeout=30)
        except (OSError, subprocess.TimeoutExpired):
            self.proc.kill()
            self.proc.wait()

    def __enter__(self) -> "Helper":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def serve() -> None:
    """Answer each "units cpu" line read from stdin with seconds per unit,
    measured on that CPU (any CPU for -1)."""
    arrays = make_arrays()
    unit(arrays)                                  # warm
    cpus = os.sched_getaffinity(0)
    for line in sys.stdin:
        units, cpu = map(int, line.split())
        os.sched_setaffinity(0, {cpu} if cpu in cpus else cpus)
        print(repr(sample(arrays, units)), flush=True)


if __name__ == "__main__":
    if sys.argv[1:] == ["--serve"]:
        serve()
    else:
        arrays = make_arrays()
        unit(arrays)
        print(json.dumps({"unit_s": sample(arrays, 50)}))
