"""Batch command line front door.

Subcommands: kernel (heat / restricted / resolvent kernel tabulation),
operator (matrix dump), evolve-heat (linear runs), evolve (nonlinear runs
from a JSON config), verify (named check suites), explicit (closed-form
profile tabulation).  Every run writes CSV artifacts, a JSON sidecar with
certificates, and a manifest listing each output file, together or not at
all.

Exit codes: 0 success, 1 computation or verification failure, 2 usage or
configuration error.
"""

from __future__ import annotations

import argparse
import contextlib
import datetime
import errno
import functools
import json
import math
import os
import stat
import sys
import tempfile
import time
from fractions import Fraction
from pathlib import Path

import numpy as np

from . import heat, pme, verification
from .errors import (DomainError, PrecisionError, ResourceError, SolverError,
                     check_int, check_real)
from .fractional import (OperatorParams, ball_eigenvalue_floor, ball_matrix,
                         ball_spectrum)
from .functions import (RadialFunction, TestFunction, read_grid_csv, to_grid,
                        write_grid_csvs, write_radial_csv)
# the benchmark's tracer wraps cli.write_grid_csv; nothing here calls it
from .functions import write_grid_csv  # noqa: F401
from .heat import KernelParams
from .padic import Ball, GridSpec, parse_point

_USAGE_ERRORS = (DomainError, ResourceError, PrecisionError)
_MATRIX_DUMP_CAP = 512


# ---------------------------------------------------------------------------
# artifact plumbing
# ---------------------------------------------------------------------------

@contextlib.contextmanager
def _naming(path: str):
    """Turn an OSError into a DomainError that names the output path."""
    try:
        yield
    except OSError as exc:
        raise DomainError(f"cannot write {path}: {exc.strerror}") from None


def _check_out(path: str, run: bool = False) -> None:
    """Refuse, before a command computes, an --out that _publish could
    not write, with the line the write would give: a run directory that
    is or lies under a file, or a data file that is a directory, lies in
    none, or ends in .json and so would be its own sidecar."""
    top = os.path.abspath(path)
    if run:
        base = top
        while not os.path.exists(base):
            base = os.path.dirname(base)
        code = (0 if os.path.isdir(base) else
                errno.EEXIST if base == top else errno.ENOTDIR)
    else:
        if os.path.splitext(path)[1] == ".json":
            raise DomainError(f"cannot write {path}: a data file ending in "
                              ".json would be its own sidecar")
        with _naming(path):
            parent = os.stat(os.path.dirname(top)).st_mode
        code = (errno.ENOTDIR if not stat.S_ISDIR(parent) else
                errno.EISDIR if os.path.isdir(top) else 0)
    if code:
        raise DomainError(f"cannot write {path}: {os.strerror(code)}")


def _publish(paths: list, write, doc: dict, command: str, config: dict,
             started: float) -> None:
    """Publish a command's files together or not at all: paths are the
    data files, which write(*tmps) fills, then the JSON doc's and the
    manifest's, all in one directory, made if missing.  Each path must
    take a file and gets a temp file beside it; none is renamed until all
    are written.  A failure removes the temp files and made directories."""
    home = os.path.abspath(os.path.dirname(paths[-1]))
    made, top = [], home
    while not os.path.exists(top):  # deepest first
        made.append(top)
        top = os.path.dirname(top)
    tmps = []
    try:
        with _naming(os.path.dirname(paths[-1])):
            os.makedirs(home, exist_ok=True)
        for path in paths:
            with _naming(path):
                if os.path.isdir(path):
                    raise IsADirectoryError(errno.EISDIR, "Is a directory")
                fd, tmp = tempfile.mkstemp(dir=home, prefix=".tmp_")
            os.close(fd)
            tmps.append(tmp)
        write(*tmps[:-2])
        manifest = {
            "command": command,
            "config": config,
            "artifacts": sorted(os.path.abspath(a) for a in paths[:-1]),
            "started_utc": datetime.datetime.fromtimestamp(
                started, datetime.timezone.utc).isoformat(),
            "wall_seconds": time.time() - started,
            "seed": 0,  # all randomized checks use fixed internal seeds
            "versions": {"numpy": np.__version__},
        }
        for tmp, obj in zip(tmps[-2:], (doc, manifest)):
            Path(tmp).write_text(json.dumps(obj, indent=2, sort_keys=True)
                                 + "\n")
        for tmp, path in zip(tmps, paths):
            with _naming(path):
                os.replace(tmp, path)
    except BaseException:
        for tmp in tmps:
            if os.path.exists(tmp):
                os.unlink(tmp)
        for path in made:
            with contextlib.suppress(OSError):
                os.rmdir(path)
        raise


def _config(args, **over) -> dict:
    """The manifest's config: the parsed arguments but command, func and
    out, with over's entries in place of theirs."""
    skip = ("command", "func", "out")
    return {**{k: v for k, v in vars(args).items() if k not in skip}, **over}


def _write_artifacts(out: str, write, sidecar: dict, args,
                     started: float) -> None:
    """Publish the data file out through write(tmp), its JSON sidecar
    <root>.json and a manifest <root>.manifest.json listing both."""
    root = os.path.splitext(out)[0]
    _publish([out, root + ".json", root + ".manifest.json"], write, sidecar,
             args.command, _config(args), started)


def _write_run(outdir: str, grid: GridSpec, snapshots, diagnostics: dict,
               command: str, config: dict, started: float) -> None:
    """Publish the arrays that snapshots yields, one per entry of
    diagnostics["times"], as outdir/snapshot_jjjj.csv, then
    diagnostics.json, which the generator may still fill, and a manifest."""
    n = len(diagnostics["times"])
    paths = [os.path.join(outdir, name) for name in
             [f"snapshot_{j:04d}.csv" for j in range(n)]
             + ["diagnostics.json", "manifest.json"]]
    _publish(paths, lambda *tmps: write_grid_csvs(tmps, grid, snapshots),
             diagnostics, command, config, started)
    print(f"wrote {n} snapshots to {outdir} "
          f"(final mass {diagnostics['mass'][-1]:.12f})")


def _shell_table(p: int, S: int, evaluate, tail=None) -> tuple:
    """A certified radial kernel on the shells |x| = p^k for k in [-S, S]
    and at 0, from one call evaluate([-S, ..., S, None]): returns the
    shell evaluations, the profile and the sidecar fields of the values
    and their bounds."""
    ks = range(-S, S + 1)
    *evs, zero = evaluate([*ks, None])
    shells = dict(zip(ks, evs))
    prof = RadialFunction(p, tuple((k, ev.value) for k, ev in shells.items()),
                          value_at_zero=zero.value, tail=tail,
                          head_constant=True)
    return shells, prof, {
        "value_at_zero": zero.value,
        "zero_truncation_bound": zero.truncation_bound,
        "shell_truncation_bounds": {str(k): ev.truncation_bound
                                    for k, ev in shells.items()},
    }


# ---------------------------------------------------------------------------
# kernel
# ---------------------------------------------------------------------------

def cmd_kernel(args) -> int:
    _check_out(args.out)
    if args.shells < 0:
        raise DomainError(f"--shells must be nonnegative, got {args.shells}")
    if args.mu is not None:
        if args.t is not None or args.ball is not None:
            raise DomainError("--mu computes the resolvent kernel; "
                              "--t and --ball do not apply")
        return _kernel_resolvent(args)
    if args.t is None:
        raise DomainError("--t is required unless --mu is given")
    if args.ball is not None:
        return _kernel_ball(args)
    return _kernel_heat(args)


def _kernel_heat(args) -> int:
    started = time.time()
    p, alpha, t, S = args.p, args.alpha, args.t, args.shells
    params = KernelParams(p, alpha, t)
    shells, prof, fields = _shell_table(
        p, S, lambda ks: heat.kernel_Z(params, ks))
    mass, mass_bound = heat.kernel_mass_estimate(params)
    agreement = max((ev.series_gap for ev in shells.values()
                     if ev.series_gap is not None), default=0.0)

    _write_artifacts(args.out, lambda tmp: write_radial_csv(tmp, prof), {
        "kind": "heat_kernel",
        "p": p, "alpha": alpha, "t": t, "shells": S,
        **fields,
        "mass": mass,
        "mass_certificate": mass_bound,
        "series_agreement_max": agreement,
    }, args, started)
    print(f"wrote {args.out} (mass {mass:.12f}, certificate {mass_bound:.3e})")
    return 0


def _kernel_ball(args) -> int:
    started = time.time()
    p, alpha, t, S, N = args.p, args.alpha, args.t, args.shells, args.ball
    params = KernelParams(p, alpha, t)
    if -S > N:
        raise DomainError(f"--shells {S} leaves no shells inside B_{N}")
    prof, bound, mass, mass_bound = heat.ball_kernel_ZN(params, N, -S)
    c, c_bound = heat.ball_c_coefficient(params, N)
    if not math.isfinite(c):  # c(t) ~ -e^{lam t} left the double range
        c = c_bound = None
    _write_artifacts(args.out, lambda tmp: write_radial_csv(tmp, prof), {
        "kind": "ball_kernel",
        "p": p, "alpha": alpha, "t": t, "shells": S, "ball": N,
        "lambda": ball_eigenvalue_floor(p, alpha, N),
        "mass_return_coefficient": c,
        "mass_return_certificate": c_bound,
        "pointwise_certificate": bound,
        "mass_over_ball": mass,
        "mass_certificate": mass_bound,
    }, args, started)
    print(f"wrote {args.out} (mass over B_{N}: {mass:.12f}, "
          f"certificate {mass_bound:.3e})")
    return 0


def _kernel_resolvent(args) -> int:
    started = time.time()
    p, alpha, mu, S = args.p, args.alpha, args.mu, args.shells
    tail_c = heat.green_tail_constant(p, alpha, mu)
    if not math.isfinite(tail_c):  # mu^-2 left the double range
        tail_c = None
    _, prof, fields = _shell_table(
        p, S, lambda ks: heat.green_kernel(p, alpha, mu, ks),
        tail=None if tail_c is None else (tail_c, -(alpha + 1.0)))
    _write_artifacts(args.out, lambda tmp: write_radial_csv(tmp, prof), {
        "kind": "resolvent_kernel",
        "p": p, "alpha": alpha, "mu": mu, "shells": S,
        **fields,
        "tail_constant": tail_c,
        "tail_exponent": -(alpha + 1.0),
    }, args, started)
    print(f"wrote {args.out} (E_mu at zero: {fields['value_at_zero']:.12f})")
    return 0


# ---------------------------------------------------------------------------
# operator
# ---------------------------------------------------------------------------

def cmd_operator(args) -> int:
    started = time.time()
    _check_out(args.out)
    grid = GridSpec(args.p, args.N, args.M)
    if grid.dim > _MATRIX_DUMP_CAP:
        raise ResourceError(f"matrix dump capped at dim {_MATRIX_DUMP_CAP}, "
                            f"requested {grid.dim}")
    op = OperatorParams(args.p, args.alpha, grid)
    B = ball_matrix(op)
    lines = ["i,j,value"]
    for i in range(grid.dim):
        for j in range(grid.dim):
            lines.append(f"{i},{j},{float(B.matrix[i, j])!r}")
    text = "\n".join(lines) + "\n"
    _write_artifacts(args.out, lambda tmp: Path(tmp).write_text(text), {
        "kind": "ball_operator_matrix",
        "p": args.p, "alpha": args.alpha, "N": args.N, "M": args.M,
        "dim": grid.dim,
        "lambda": B.lam,
        "row_sum_max_deviation": float(
            np.max(np.abs(B.matrix.sum(axis=1) - B.lam))),
    }, args, started)
    print(f"wrote {args.out} ({grid.dim}x{grid.dim}, lambda {B.lam:.12e})")
    return 0


# ---------------------------------------------------------------------------
# initial data shared by the evolution commands
# ---------------------------------------------------------------------------

def build_initial(grid: GridSpec, spec: dict) -> np.ndarray:
    """Initial data from a JSON object; a malformed field raises
    DomainError."""
    if not isinstance(spec, dict):
        raise DomainError(f"initial data must be a JSON object, got {spec!r}")
    kind = spec.get("kind")
    coeff = float(check_real("coeff", spec.get("coeff", 1.0)))
    if kind == "indicator":
        radius = check_int("radius_exp", spec.get("radius_exp", 0))
        center = parse_point(grid.p, str(spec.get("center", "0")))
        f = TestFunction.indicator(Ball(grid.p, center, radius), coeff)
        return np.real(to_grid(f, grid))
    if kind == "radial_power":
        beta = float(check_real("exponent", spec.get("exponent", 1.0)))
        if beta <= 0:
            raise DomainError("radial_power initial data needs exponent > 0 "
                              "to stay bounded at the origin")

        def value(k):
            try:
                x = coeff * float(Fraction(grid.p) ** k) ** beta
            except OverflowError:
                x = math.inf
            if not math.isfinite(x):
                raise ArithmeticError(f"radial_power initial data {coeff!r} "
                                      f"|x|^{beta!r} at |x| = {grid.p}^{k} "
                                      "leaves the double range")
            return x
        return grid.radial(lambda k: 0.0 if k is None else value(k))
    if kind == "csv":
        path = spec.get("path")
        if not isinstance(path, str) or not path:
            raise DomainError("csv initial data needs a 'path' field")
        try:
            return pme.real_initial(read_grid_csv(path, grid))
        except (OSError, ValueError, DomainError) as exc:
            raise DomainError(f"initial data {path}: {exc}") from exc
    raise DomainError(f"unknown initial kind {kind!r} "
                      "(choices: indicator, radial_power, csv)")


# ---------------------------------------------------------------------------
# evolve-heat
# ---------------------------------------------------------------------------

def cmd_evolve_heat(args) -> int:
    started = time.time()
    _check_out(args.out, run=True)
    grid = GridSpec(args.p, args.N, args.M)
    op = OperatorParams(args.p, args.alpha, grid)
    if not check_real("--t-end", args.t_end) > 0:
        raise DomainError("--t-end must be positive")
    if args.snapshots < 1:
        raise DomainError("--snapshots must be at least 1")
    try:
        init_spec = json.loads(args.initial)
    except json.JSONDecodeError as exc:
        raise DomainError(f"--initial is not valid JSON: {exc}") from exc
    u0 = build_initial(grid, init_spec)

    meas = float(grid.coset_measure)
    times = [args.t_end * j / args.snapshots
             for j in range(args.snapshots + 1)]
    diags = {
        "kind": "heat_evolution",
        "p": args.p, "alpha": args.alpha, "N": args.N, "M": args.M,
        "t_end": args.t_end, "snapshots": args.snapshots,
        # the whole spectrum, so that one past the double range refuses
        # before the run directory is made
        "lambda": ball_spectrum(op)[0],
        "times": times, "mass": [], "l1": [], "linf": [],
    }

    def snapshots():
        for j, t in enumerate(times):
            u = heat.ball_semigroup_matrix(op, t) @ u0 if j else u0
            for key, x in zip(("mass", "l1", "linf"), pme.norms(u, meas)):
                diags[key].append(x)
            yield u

    _write_run(args.out, grid, snapshots(), diags,
               args.command, _config(args, initial=init_spec), started)
    return 0


# ---------------------------------------------------------------------------
# evolve
# ---------------------------------------------------------------------------

def cmd_evolve(args) -> int:
    started = time.time()
    _check_out(args.out, run=True)
    try:
        with open(args.config) as fh:
            cfg = json.load(fh)
    except OSError as exc:
        raise DomainError(f"cannot read config: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise DomainError(f"config is not valid JSON: {exc}") from exc

    problem = pme.PMEProblem.from_config(cfg)
    u0 = build_initial(problem.grid, cfg.get("initial"))
    result = pme.evolve(problem, u0)
    diags = {"kind": "pme_evolution", "config": problem.to_config(),
             "times": result.times, **result.diagnostics}
    _write_run(args.out, problem.grid, result.snapshots,
               diags, args.command,
               {"config_path": os.path.abspath(args.config), **cfg}, started)
    return 0


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def cmd_verify(args) -> int:
    names = sorted(verification.SUITES) if args.suite == "all" else [args.suite]
    failed = []
    for name in names:
        for res in verification.run_suite(name):
            tag = "PASS" if res.passed else "FAIL"
            print(f"{tag} {name}.{res.name}: {res.detail}")
            if not res.passed:
                failed.append(f"{name}.{res.name}")
    if failed:
        print(f"{len(failed)} check(s) failed: {', '.join(failed)}")
        return 1
    print(f"all checks passed ({', '.join(names)})")
    return 0


# ---------------------------------------------------------------------------
# explicit
# ---------------------------------------------------------------------------

def cmd_explicit(args) -> int:
    started = time.time()
    _check_out(args.out)
    sol = pme.explicit_solution(args.p, args.alpha, args.m, args.t0,
                                companion=args.companion)
    if args.k_min > args.k_max:
        raise DomainError("--k-min must not exceed --k-max")
    shells = {k: sol.value(args.t, k) for k in range(args.k_min, args.k_max + 1)}
    prof = RadialFunction(args.p, tuple(shells.items()),
                          value_at_zero=sol.value(args.t, None))
    defect = pme.amplitude_defect(args.p, args.alpha, args.m, sol.rho)
    _write_artifacts(args.out, lambda tmp: write_radial_csv(tmp, prof), {
        "kind": "explicit_solution",
        "p": args.p, "alpha": args.alpha, "m": args.m,
        "t0": args.t0, "t": args.t,
        "k_min": args.k_min, "k_max": args.k_max,
        "companion": args.companion,
        "rho": sol.rho,
        "nu": sol.nu,
        "amplitude": sol.amplitude,
        "time_factor": sol.time_factor(args.t),
        "amplitude_defect": defect,
    }, args, started)
    print(f"wrote {args.out} (amplitude defect {defect:.3e})")
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="padicpme",
        description="p-adic fractional heat and porous-medium toolbox")
    sub = parser.add_subparsers(dest="command", required=True)

    k = sub.add_parser("kernel", help="tabulate heat / ball / resolvent kernels")
    k.add_argument("--p", type=int, required=True)
    k.add_argument("--alpha", type=float, required=True)
    k.add_argument("--t", type=float, default=None)
    k.add_argument("--shells", type=int, default=12,
                   help="tabulate shells |x| = p^k for k in [-shells, shells]")
    k.add_argument("--ball", type=int, default=None, metavar="N",
                   help="restricted kernel Z_N on the ball B_N")
    k.add_argument("--mu", type=float, default=None,
                   help="resolvent kernel E_mu instead (needs alpha > 1)")
    k.add_argument("--out", default="kernel.csv")
    k.set_defaults(func=cmd_kernel)

    o = sub.add_parser("operator", help="dump the ball operator matrix")
    o.add_argument("--p", type=int, required=True)
    o.add_argument("--alpha", type=float, required=True)
    o.add_argument("--N", type=int, required=True)
    o.add_argument("--M", type=int, required=True)
    o.add_argument("--out", default="operator.csv")
    o.set_defaults(func=cmd_operator)

    eh = sub.add_parser("evolve-heat", help="linear heat flow on a ball grid")
    eh.add_argument("--p", type=int, required=True)
    eh.add_argument("--alpha", type=float, required=True)
    eh.add_argument("--N", type=int, required=True)
    eh.add_argument("--M", type=int, required=True)
    eh.add_argument("--t-end", type=float, required=True, dest="t_end")
    eh.add_argument("--snapshots", type=int, default=8)
    eh.add_argument("--initial", default='{"kind": "indicator"}',
                    help="initial data as JSON (kinds: indicator, "
                         "radial_power, csv)")
    eh.add_argument("--out", default="evolve_heat_out")
    eh.set_defaults(func=cmd_evolve_heat)

    ev = sub.add_parser("evolve", help="nonlinear evolution from a JSON config")
    ev.add_argument("--config", required=True)
    ev.add_argument("--out", default="evolve_out")
    ev.set_defaults(func=cmd_evolve)

    v = sub.add_parser("verify", help="run a named verification suite")
    v.add_argument("suite",
                   choices=sorted(verification.SUITES) + ["all"])
    v.set_defaults(func=cmd_verify)

    ex = sub.add_parser("explicit", help="tabulate the closed-form profile")
    ex.add_argument("--p", type=int, required=True)
    ex.add_argument("--alpha", type=float, required=True)
    ex.add_argument("--m", type=float, required=True)
    ex.add_argument("--t0", type=float, required=True)
    ex.add_argument("--t", type=float, required=True)
    ex.add_argument("--k-min", type=int, default=-10, dest="k_min")
    ex.add_argument("--k-max", type=int, default=10, dest="k_max")
    ex.add_argument("--companion", action="store_true",
                    help="globally defined decaying branch")
    ex.add_argument("--out", default="explicit.csv")
    ex.set_defaults(func=cmd_explicit)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except _USAGE_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (SolverError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
