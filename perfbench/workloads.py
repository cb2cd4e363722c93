"""The four benchmark workloads: seeded inputs, operations and output gates.

An operation is the unit the benchmark times: one CLI run (``pme-dense``,
``heat-snapshots``), one certified check (``certify``), or one implicit step
or evolve (``pme-hard``).  ``Operation.run`` is the timed part.
``Operation.gate`` runs afterwards, untimed, and turns a wrong result into a
failed operation.  A ``SolverError`` (or the CLI's exit code 1, which is how
the CLI reports one) is a refusal: the solver failed cleanly on an input in
the domain it accepts.

Every gate reads the program's outputs with its own code (``csv`` and numpy),
never through padicpme, so a bug in the program cannot hide from it.
"""

from __future__ import annotations

import contextlib
import csv
import io
import itertools
import json
import os
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from padicpme import cli, pme, verification
from padicpme.functions import GridFunction, write_grid_csv
from padicpme.padic import GridSpec

OK, REFUSED, FAILED = "ok", "refused", "failed"

# Relative slack for the monotonicity and conservation gates.  The library's
# own invariant checks use an absolute 1e-12 on data of size ~1.
GATE_RTOL = 1e-12

# (p, alpha, N, M, m, steps, initial) per evolve run; tau = 0.05 throughout.
PME_DENSE = {
    "full": ((2, 2.0, 5, 6, 2.0, 3, "indicator"),
             (3, 1.5, 2, 4, 3.0, 5, "radial_power"),
             (5, 0.7, 2, 2, 2.0, 5, "csv")),
    "tiny": ((2, 2.0, 1, 2, 2.0, 3, "indicator"),
             (3, 1.5, 1, 1, 3.0, 2, "radial_power"),
             (5, 0.7, 1, 1, 2.0, 2, "csv")),
}
PME_TAU = 0.05

# (p, alpha, N, M, t_end) per evolve-heat run.
HEAT = {
    "full": ((2, 2.0, 6, 6, 1.0), (3, 1.5, 3, 4, 1.0)),
    "tiny": ((2, 2.0, 1, 2, 1.0), (3, 1.5, 1, 1, 1.0)),
}
HEAT_SNAPSHOTS = 8

# certify runs every registered check; the tiny size keeps one fast suite.
CERTIFY_SUITES = {"full": None, "tiny": ("explicit",)}

# pme-hard: one implicit step per (m, scale, kind) cell.  The grid, alpha and
# tau of a cell are fixed by its index, and so is a base data draw.  The seed
# moves each draw by a cyclic translation of the grid, and flips the sign of
# signed data; both are exact symmetries of the step (the operator is
# translation invariant and phi is odd), so every seed poses the same 36
# problems in other coordinates and the cost of a round does not depend on it.
HARD_GRIDS = {"full": ((2, 2, 2), (3, 1, 2)), "tiny": ((2, 1, 1), (3, 1, 0))}
HARD_MS = {"full": (1.0, 2.0, 4.0, 8.0), "tiny": (1.0, 8.0)}
HARD_SCALES = (1e-6, 1.0, 1e6)
HARD_KINDS = ("signed", "gapped", "point")
HARD_ALPHAS = (0.5, 2.0)
HARD_TAUS = (1e-3, 1.0, 1e3)
# The 5-step evolve that fails at the seed commit after about 14 s.
HARD_EVOLVE = {"full": (5, 1.5, 2, 2, 3.0), "tiny": (2, 1.5, 1, 2, 3.0)}


@dataclass
class Operation:
    label: str                        # unique within its workload
    run: object                       # run(tracer) -> result, timed
    gate: object                      # gate(result) -> OK | FAILED, untimed
    once: bool = False                # first round only; not in ref_wall_s


@dataclass
class Workload:
    name: str
    operations: list
    inputs: dict = field(default_factory=dict)  # what the seed chose


# ---------------------------------------------------------------------------
# reading artifacts back
# ---------------------------------------------------------------------------

def read_values(path: str) -> np.ndarray:
    """Real parts of a grid CSV (header index,center,abs,re,im)."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if rows[0][:1] != ["index"]:
        raise ValueError(f"{path}: unexpected header {rows[0]}")
    vals = np.empty(len(rows) - 1)
    for row in rows[1:]:
        vals[int(row[0])] = float(row[3])
    return vals


def read_snapshots(outdir: str) -> list:
    names = sorted(n for n in os.listdir(outdir)
                   if n.startswith("snapshot_") and n.endswith(".csv"))
    return [read_values(os.path.join(outdir, n)) for n in names]


def norms(u: np.ndarray, meas: float) -> tuple:
    """(mass, L1, sup) of a grid function with cell measure meas."""
    return (float(np.sum(u)) * meas, float(np.sum(np.abs(u))) * meas,
            float(np.max(np.abs(u))))


def non_increasing(seq, scale: float) -> bool:
    tol = GATE_RTOL * max(1.0, scale)
    return all(b <= a + tol for a, b in zip(seq, seq[1:]))


def evolve_gate(snaps: list, meas: float, expected: int) -> str:
    """Bounds of check_evolve_invariants: u >= 0, and mass, L1 and sup do
    not increase from one snapshot to the next."""
    if len(snaps) != expected or not all(np.all(np.isfinite(s)) for s in snaps):
        return FAILED
    stats = [norms(s, meas) for s in snaps]
    scale = max(max(abs(x) for x in row) for row in stats)
    if min(float(s.min()) for s in snaps) < -GATE_RTOL * max(1.0, scale):
        return FAILED
    for column in zip(*stats):
        if not non_increasing(column, scale):
            return FAILED
    return OK


def heat_gate(snaps: list, meas: float, expected: int) -> str:
    """Mass stays within 1e-12 (relative) of the initial mass; L1 does not
    grow."""
    if len(snaps) != expected or not all(np.all(np.isfinite(s)) for s in snaps):
        return FAILED
    stats = [norms(s, meas) for s in snaps]
    mass0 = stats[0][0]
    if any(abs(m - mass0) > GATE_RTOL * max(1.0, abs(mass0))
           for m, _, _ in stats):
        return FAILED
    return OK if non_increasing([l1 for _, l1, _ in stats],
                                stats[0][1]) else FAILED


def step_gate(u: np.ndarray, u_next: np.ndarray) -> str:
    """A step returns finite values and raises neither L1 nor sup."""
    if u_next.shape != u.shape or not np.all(np.isfinite(u_next)):
        return FAILED
    l1, sup = float(np.sum(np.abs(u))), float(np.max(np.abs(u)))
    ok = (float(np.sum(np.abs(u_next))) <= l1 * (1 + GATE_RTOL)
          and float(np.max(np.abs(u_next))) <= sup * (1 + GATE_RTOL))
    return OK if ok else FAILED


# ---------------------------------------------------------------------------
# CLI plumbing
# ---------------------------------------------------------------------------

def run_cli(argv: list) -> int:
    """cli.main with its console output swallowed; looked up at call time so
    a traced wrapper is seen."""
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        return cli.main(argv)


def cli_outcome(code: int, gate) -> str:
    if code == 1:
        return REFUSED        # the CLI's exit code for a SolverError
    if code != 0:
        return FAILED
    return gate()


def ball_center(rng, p: int, N: int) -> str:
    """A seeded center a / p^N: picks one of the p^N cosets of B_0 in B_N."""
    return str(Fraction(int(rng.integers(p ** N)), p ** N))


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

def build_pme_dense(seed: int, size: str, workdir: str) -> Workload:
    rng = np.random.default_rng(seed)
    ops, inputs = [], []
    for k, (p, alpha, N, M, m, steps, kind) in enumerate(PME_DENSE[size]):
        grid = GridSpec(p, N, M)
        if kind == "indicator":
            initial = {"kind": "indicator", "radius_exp": 0,
                       "center": ball_center(rng, p, N)}
        elif kind == "radial_power":
            initial = {"kind": "radial_power", "exponent": 1.0}
        else:
            # nonnegative data supported on one seeded coset of B_0
            path = os.path.join(workdir, f"initial_{k}.csv")
            vals = np.zeros(grid.dim)
            first = int(rng.integers(p ** N))
            vals[first::p ** N] = rng.uniform(0.2, 1.0, p ** M)
            write_grid_csv(path, GridFunction(grid, vals.astype(np.complex128)))
            initial = {"kind": "csv", "path": path}
        config = {"p": p, "alpha": alpha, "N": N, "M": M, "m": m,
                  "tau": PME_TAU, "t_end": PME_TAU * steps, "initial": initial}
        config_path = os.path.join(workdir, f"evolve_{k}.json")
        with open(config_path, "w") as fh:
            json.dump(config, fh)
        inputs.append({"dim": grid.dim, **config})
        ops.append(_evolve_operation(f"evolve p={p} dim={grid.dim}",
                                     config_path, workdir, k,
                                     float(grid.coset_measure), steps + 1))
    return Workload("pme-dense", ops, {"evolve": inputs})


def _evolve_operation(label, config_path, workdir, k, meas, expected):
    outdir = os.path.join(workdir, f"evolve_out_{k}")

    def run(tracer):
        return run_cli(["evolve", "--config", config_path, "--out", outdir])

    def gate(code):
        return cli_outcome(code, lambda: evolve_gate(read_snapshots(outdir),
                                                     meas, expected))
    return Operation(label, run, gate)


def build_heat(seed: int, size: str, workdir: str) -> Workload:
    rng = np.random.default_rng(seed)
    ops, inputs = [], []
    for k, (p, alpha, N, M, t_end) in enumerate(HEAT[size]):
        grid = GridSpec(p, N, M)
        initial = json.dumps({"kind": "indicator", "radius_exp": 0,
                              "center": ball_center(rng, p, N)})
        argv = ["evolve-heat", "--p", str(p), "--alpha", str(alpha),
                "--N", str(N), "--M", str(M), "--t-end", str(t_end),
                "--snapshots", str(HEAT_SNAPSHOTS), "--initial", initial,
                "--out", os.path.join(workdir, f"heat_out_{k}")]
        inputs.append({"dim": grid.dim, "argv": argv[:-2]})
        ops.append(_heat_operation(f"evolve-heat p={p} dim={grid.dim}", argv,
                                   float(grid.coset_measure)))
    return Workload("heat-snapshots", ops, {"evolve_heat": inputs})


def _heat_operation(label, argv, meas):
    outdir = argv[-1]

    def run(tracer):
        return run_cli(argv)

    def gate(code):
        return cli_outcome(code, lambda: heat_gate(read_snapshots(outdir), meas,
                                                   HEAT_SNAPSHOTS + 1))
    return Operation(label, run, gate)


def build_certify(seed: int, size: str, workdir: str) -> Workload:
    """Every check of verification.SUITES, as `padicpme verify all` runs
    them.  The checks carry their own fixed inputs; the seed only shuffles
    their order."""
    keep = CERTIFY_SUITES[size]
    checks = [(suite, fn) for suite in sorted(verification.SUITES)
              if keep is None or suite in keep
              for fn in verification.SUITES[suite]]
    order = np.random.default_rng(seed).permutation(len(checks))
    ops = [_check_operation(*checks[i]) for i in order]
    return Workload("certify", ops, {"order": [op.label for op in ops]})


def _check_operation(suite, fn):
    def run(tracer):
        if tracer is None:
            return fn()
        return tracer.call(f"verification.{suite}", fn)

    def gate(result):
        return OK if result.passed else FAILED
    return Operation(f"{suite}.{fn.__name__}", run, gate)


def hard_data(rng, kind: str, dim: int) -> np.ndarray:
    if kind == "signed":
        return rng.uniform(-1.0, 1.0, dim)
    u = np.zeros(dim)
    if kind == "point":
        u[int(rng.integers(dim))] = 1.0
        return u
    # gapped: nonnegative, zero on a seeded half of the cells
    cells = rng.permutation(dim)[: max(1, dim // 2)]
    u[cells] = rng.uniform(0.1, 1.0, len(cells))
    return u


def build_pme_hard(seed: int, size: str, workdir: str) -> Workload:
    rng = np.random.default_rng(seed)
    ops, cells = [], []
    design = itertools.product(HARD_MS[size], HARD_SCALES, HARD_KINDS)
    grids = HARD_GRIDS[size]
    for c, (m, scale, kind) in enumerate(design):
        p, N, M = grids[c % len(grids)]
        alpha = HARD_ALPHAS[(c // 2) % 2]
        tau = HARD_TAUS[c % 3]
        base = hard_data(np.random.default_rng(c), kind, p ** (N + M))
        sign = rng.choice((-1.0, 1.0)) if kind == "signed" else 1.0
        u = sign * scale * np.roll(base, rng.integers(len(base)))
        params = {"p": p, "alpha": alpha, "N": N, "M": M, "m": m,
                  "tau": tau, "t_end": tau}
        cells.append({"scale": scale, "kind": kind, **params})
        ops.append(_step_operation(f"step {kind} m={m} scale={scale:g}",
                                   params, u))
    p, alpha, N, M, m = HARD_EVOLVE[size]
    params = {"p": p, "alpha": alpha, "N": N, "M": M, "m": m,
              "tau": PME_TAU, "t_end": 5 * PME_TAU}
    problem = pme.PMEProblem(**params)
    u0 = cli.build_initial(problem.grid, {"kind": "radial_power",
                                          "exponent": 1.0})
    ops.append(_hard_evolve_operation(params, u0))
    # the seed also orders the operations, which changes what each step
    # finds in the caches, not what it computes
    order = rng.permutation(len(ops))
    return Workload("pme-hard", [ops[i] for i in order],
                    {"steps": cells, "evolve": params,
                     "order": [ops[i].label for i in order]})


def _step_operation(label, params, u):
    def run(tracer):
        u_next, _ = pme.implicit_step(pme.PMEProblem(**params), u)
        return u_next

    def gate(u_next):
        return step_gate(u, u_next)
    return Operation(label, run, gate)


def _hard_evolve_operation(params, u0):
    def run(tracer):
        return pme.evolve(pme.PMEProblem(**params), u0)

    def gate(result):
        meas = float(result.grid.coset_measure)
        return evolve_gate(result.snapshots, meas, 6)
    # It costs 12-16 s at the seed commit, most of a run, so it runs once a
    # run.  As a single call its time spreads with the host's speed during
    # it (+-13 % from run to run), so the worker counts its outcome but
    # reports its time apart from ref_wall_s.
    return Operation(f"evolve p={params['p']} m={params['m']:g} radial_power",
                     run, gate, once=True)


BUILDERS = {
    "pme-dense": build_pme_dense,
    "heat-snapshots": build_heat,
    "certify": build_certify,
    "pme-hard": build_pme_hard,
}


def build(name: str, seed: int, size: str, workdir: str) -> Workload:
    return BUILDERS[name](seed, size, workdir)
