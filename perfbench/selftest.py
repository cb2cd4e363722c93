"""Tests of the benchmark itself, at tiny sizes.

    python3 perfbench/selftest.py

Checks that every metric of BENCHMARK.json is emitted with its unit in both
modes, that refusals and corrupted outputs are counted, and that the
benchmark refuses to run without the padicpme sources.  Takes about a minute.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys
import tempfile
import unittest
from unittest import mock

import numpy as np

import calibrate
import worker
import workloads
from padicpme import heat, pme

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SCRATCH = os.path.join(ROOT, ".perfbench")

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)


def bench(cwd: str, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "7", "--seconds", "1", "--trace", str(trace),
         "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170)


class EmitsEveryMetric(unittest.TestCase):
    def check(self, workload: str, trace: int) -> dict:
        proc = bench(ROOT, workload, trace)
        self.assertEqual(proc.returncode, 0, proc.stderr)
        record, result = map(json.loads, proc.stdout.strip().splitlines()[-2:])
        self.assertEqual(set(result), {"correct", "attempted", "failed",
                                       "metrics"})
        if not trace:
            # the latency percentiles are reported, but not gated
            for name in ("op_p50_s", "op_tail_s"):
                self.assertEqual(record["detail"][name]["unit"], "s")
                self.assertGreater(record["detail"][name]["value"], 0)
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        wanted = SPEC["per_layer" if trace else "end_to_end"]
        self.assertEqual(list(result["metrics"]), [m["name"] for m in wanted])
        for m in wanted:
            got = result["metrics"][m["name"]]
            self.assertEqual(got["unit"], m["unit"], m["name"])
            self.assertTrue(math.isfinite(got["value"]), m["name"])
            if not trace:
                self.assertGreater(got["value"], 0, m["name"])
        return result

    def test_end_to_end(self):
        for name in workloads.BUILDERS:
            with self.subTest(workload=name):
                result = self.check(name, 0)
                ok = result["metrics"]["ok_ratio"]["value"]
                # only pme-hard reaches inputs the solver refuses
                self.assertEqual(ok < 1.0, name == "pme-hard")

    def test_per_layer(self):
        for name in workloads.BUILDERS:
            with self.subTest(workload=name):
                self.check(name, 1)


class CountsCorruptedOutputs(unittest.TestCase):
    """A wrong result from the program is a failed operation."""

    def setUp(self):
        os.makedirs(SCRATCH, exist_ok=True)
        self.workdir = tempfile.mkdtemp(dir=SCRATCH, prefix="selftest-")
        self.addCleanup(shutil.rmtree, self.workdir, True)

    def outcomes(self, name: str) -> list:
        wl = workloads.build(name, 7, "tiny", self.workdir)
        return [row.outcome for row in worker.run_round(wl)]

    def test_clean_runs_pass(self):
        for name in workloads.BUILDERS:
            with self.subTest(workload=name):
                self.assertNotIn(workloads.FAILED, self.outcomes(name))

    def test_perturbed_heat_snapshot(self):
        original = heat.ball_semigroup_matrix

        def leaky(op, t):
            return 1.001 * original(op, t)
        with mock.patch.object(heat, "ball_semigroup_matrix", leaky):
            self.assertEqual(set(self.outcomes("heat-snapshots")),
                             {workloads.FAILED})

    def test_negative_pme_snapshot(self):
        original = pme.implicit_step

        def dipping(problem, u):
            u_next, res = original(problem, u)
            u_next = u_next.copy()
            u_next[0] = -1e-3
            return u_next, res
        with mock.patch.object(pme, "implicit_step", dipping):
            self.assertEqual(set(self.outcomes("pme-dense")),
                             {workloads.FAILED})

    def test_growing_step(self):
        original = pme.stationary_solve

        def growing(problem, f, *args, **kwargs):
            res = original(problem, f, *args, **kwargs)
            res.w = res.w + 2.0 * np.abs(f).max()
            return res
        with mock.patch.object(pme, "stationary_solve", growing):
            outcomes = self.outcomes("pme-hard")
        self.assertNotIn(workloads.OK, outcomes)
        self.assertIn(workloads.FAILED, outcomes)

    def test_failing_check(self):
        with mock.patch.object(pme, "explicit_rho", lambda p, a, m: -0.3):
            self.assertIn(workloads.FAILED, self.outcomes("certify"))

    def test_failures_reach_the_metrics(self):
        rounds = [[worker.Row("a", 1.0, workloads.OK),
                   worker.Row("b", 2.0, workloads.FAILED),
                   worker.Row("c", 3.0, workloads.REFUSED),
                   worker.Row("d", 4.0, workloads.OK)]]
        metrics, detail = worker.end_to_end(rounds)
        self.assertEqual(metrics["ok_ratio"][0], 0.5)
        self.assertEqual(detail["refused"], ["c"])


class Latency(unittest.TestCase):
    def test_median_call_worst_outcome(self):
        rounds = [[worker.Row("a", 3.0, workloads.OK),
                   worker.Row("b", 5.0, workloads.OK)],
                  [worker.Row("a", 2.5, workloads.REFUSED),
                   worker.Row("b", 4.0, workloads.OK)]]
        latency, outcome = worker.per_operation(rounds[0] + rounds[1])
        self.assertEqual(latency, {"a": 2.75, "b": 4.5})
        self.assertEqual(outcome, {"a": workloads.REFUSED, "b": workloads.OK})
        metrics, detail = worker.end_to_end(rounds)
        self.assertEqual(metrics["ref_wall_s"][0], 7.25)
        self.assertEqual(detail["wall_s"]["value"], 7.25)
        self.assertEqual(metrics["ok_ratio"][0], 0.5)
        self.assertEqual(detail["op_p50_s"]["value"], 3.5)
        self.assertEqual(detail["op_tail_s"]["value"], 5.0)

    def test_reference_scales_the_run(self):
        # the reference ran at half its nominal speed over the run
        reference = object.__new__(worker.Reference)
        reference.units, reference.seconds = 10, 20 * calibrate.NOMINAL_UNIT_S
        self.assertAlmostEqual(reference.scale(), 0.5)
        rounds = [[worker.Row("a", 1.0, workloads.OK),
                   worker.Row("b", 3.0, workloads.OK)]]
        metrics, detail = worker.end_to_end(rounds, reference.scale())
        self.assertAlmostEqual(metrics["ref_wall_s"][0], 2.0)
        self.assertEqual(detail["wall_s"]["value"], 4.0)

    def test_once_operation_is_counted_but_not_timed(self):
        rounds = [[worker.Row("step", 1.0, workloads.OK),
                   worker.Row("evolve", 13.0, workloads.REFUSED, once=True)],
                  [worker.Row("step", 3.0, workloads.OK)]]
        metrics, detail = worker.end_to_end(rounds)
        self.assertEqual(metrics["ref_wall_s"][0], 2.0)
        self.assertEqual(metrics["ok_ratio"][0], 0.5)
        self.assertEqual(detail["once_s"], {"evolve": {"value": 13.0,
                                                       "unit": "s"}})

    def test_once_operations_run_in_the_first_round(self):
        calls = []
        ops = [workloads.Operation(name, lambda tracer, n=name: calls.append(n),
                                   lambda result: workloads.OK, once=once)
               for name, once in (("every", False), ("once", True))]
        wl = workloads.Workload("toy", ops)
        worker.run_round(wl)
        worker.run_round(wl, first_round=False)
        self.assertEqual(calls, ["every", "once", "every"])

    def test_tail_has_ten_calls_beyond(self):
        self.assertEqual(worker.tail([float(i) for i in range(40)]),
                         (29.0, 75.0))
        self.assertEqual(worker.tail([3.0, 1.0, 2.0]), (3.0, 100.0))


class RefusesWithoutSources(unittest.TestCase):
    def test_bare_benchmark_directory(self):
        os.makedirs(SCRATCH, exist_ok=True)
        bare = tempfile.mkdtemp(dir=SCRATCH, prefix="bare-")
        self.addCleanup(shutil.rmtree, bare, True)
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = bench(bare, "certify", 0)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"metrics"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
