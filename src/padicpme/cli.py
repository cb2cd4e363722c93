"""Batch command line front door.

Subcommands: kernel (heat / restricted / resolvent kernel tabulation),
operator (matrix dump), evolve-heat (linear runs), evolve (nonlinear runs
from a JSON config), verify (named check suites), explicit (closed-form
profile tabulation).  Every run writes CSV artifacts, a JSON sidecar with
certificates, and a manifest listing each output file.

Exit codes: 0 success, 1 computation or verification failure, 2 usage or
configuration error.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import sys
import tempfile
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import scipy

from . import heat, pme, verification
from .errors import (DomainError, PrecisionError, ResourceError, SolverError,
                     SupportError)
from .fractional import OperatorParams, ball_eigenvalue_floor, ball_matrix
from .functions import (GridFunction, RadialFunction, TestFunction,
                        read_grid_csv, to_grid, write_grid_csv,
                        write_radial_csv)
from .heat import KernelParams
from .padic import LEVEL_GRID_CAP, Ball, GridSpec, PAdicExpansion

_USAGE_ERRORS = (DomainError, ResourceError, PrecisionError, SupportError)
_MATRIX_DUMP_CAP = 512


# ---------------------------------------------------------------------------
# artifact plumbing
# ---------------------------------------------------------------------------

def _atomic_write(path: str, write) -> None:
    """Call write(tmp) on a temp file in path's directory, then rename it
    to path; the temp file is removed if anything fails."""
    target = os.path.abspath(path)
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(target), prefix=".tmp_")
    os.close(fd)
    try:
        write(tmp)
        os.replace(tmp, target)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _atomic_json(path: str, obj) -> None:
    text = json.dumps(obj, indent=2, sort_keys=True) + "\n"
    _atomic_write(path, lambda tmp: Path(tmp).write_text(text))


def _manifest(path: str, command: str, config: dict, artifacts: list,
              started: float) -> None:
    _atomic_json(path, {
        "command": command,
        "config": config,
        "artifacts": sorted(os.path.abspath(a) for a in artifacts),
        "started_utc": datetime.datetime.fromtimestamp(
            started, datetime.timezone.utc).isoformat(),
        "wall_seconds": time.time() - started,
        "seed": 0,  # all randomized checks use fixed internal seeds
        "versions": {"numpy": np.__version__, "scipy": scipy.__version__},
    })


def _sidecar_path(csv_path: str) -> str:
    root, _ = os.path.splitext(csv_path)
    return root + ".json"


def _manifest_path(csv_path: str) -> str:
    root, _ = os.path.splitext(csv_path)
    return root + ".manifest.json"


def _parse_point(p: int, text: str) -> PAdicExpansion:
    """Accept either the digit encoding ('0', '-1:1,0:1') or a rational."""
    text = text.strip()
    if text == "0" or ":" in text:
        return PAdicExpansion.parse(p, text)
    return PAdicExpansion.from_rational(p, Fraction(text))


# ---------------------------------------------------------------------------
# kernel
# ---------------------------------------------------------------------------

def cmd_kernel(args) -> int:
    p, alpha = args.p, args.alpha
    if args.mu is not None:
        if args.t is not None or args.ball is not None:
            raise DomainError("--mu computes the resolvent kernel; "
                              "--t and --ball do not apply")
        if alpha <= 1.0:
            raise DomainError("resolvent kernel E_mu needs alpha > 1")
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
    shells = {}
    bounds = {}
    for k in range(-S, S + 1):
        ev = heat.kernel_Z(params, k)
        shells[k] = ev.value
        bounds[str(k)] = ev.truncation_bound
    zero = heat.kernel_Z(params, None)
    prof = RadialFunction(p, tuple(shells.items()),
                          value_at_zero=zero.value, head_constant=True)
    mass, mass_bound = heat.kernel_mass_estimate(params)

    agreement = 0.0
    for k in range(-S, S + 1):
        z = t * float(p) ** (alpha * (1 - k))
        if z <= 8.0:
            v1 = heat.kernel_Z_shell_series(params, k).value
            v2 = heat.kernel_Z_alternating(params, k).value
            agreement = max(agreement, abs(v1 - v2))

    out = args.out or "kernel.csv"
    _atomic_write(out, lambda tmp: write_radial_csv(tmp, prof))
    _atomic_json(_sidecar_path(out), {
        "kind": "heat_kernel",
        "p": p, "alpha": alpha, "t": t, "shells": S,
        "value_at_zero": zero.value,
        "zero_truncation_bound": zero.truncation_bound,
        "shell_truncation_bounds": bounds,
        "mass": mass,
        "mass_certificate": mass_bound,
        "series_agreement_max": agreement,
    })
    _manifest(_manifest_path(out), "kernel",
              {"p": p, "alpha": alpha, "t": t, "shells": S,
               "ball": None, "mu": None},
              [out, _sidecar_path(out)], started)
    print(f"wrote {out} (mass {mass:.12f}, certificate {mass_bound:.3e})")
    return 0


def _kernel_ball(args) -> int:
    started = time.time()
    p, alpha, t, S, N = args.p, args.alpha, args.t, args.shells, args.ball
    params = KernelParams(p, alpha, t, N=N)
    if -S > N:
        raise DomainError(f"--shells {S} leaves no shells inside B_{N}")
    prof, bound, mass, mass_bound = heat.ball_kernel_ZN(params, -S)
    c, c_bound = heat.ball_c_coefficient(params)
    out = args.out or "kernel.csv"
    _atomic_write(out, lambda tmp: write_radial_csv(tmp, prof))
    _atomic_json(_sidecar_path(out), {
        "kind": "ball_kernel",
        "p": p, "alpha": alpha, "t": t, "shells": S, "ball": N,
        "lambda": params.lam,
        "mass_return_coefficient": c,
        "mass_return_certificate": c_bound,
        "pointwise_certificate": bound,
        "mass_over_ball": mass,
        "mass_certificate": mass_bound,
    })
    _manifest(_manifest_path(out), "kernel",
              {"p": p, "alpha": alpha, "t": t, "shells": S,
               "ball": N, "mu": None},
              [out, _sidecar_path(out)], started)
    print(f"wrote {out} (mass over B_{N}: {mass:.12f}, "
          f"certificate {mass_bound:.3e})")
    return 0


def _kernel_resolvent(args) -> int:
    started = time.time()
    p, alpha, mu, S = args.p, args.alpha, args.mu, args.shells
    if mu <= 0:
        raise DomainError("--mu must be positive")
    shells = {k: heat.green_kernel_value(p, alpha, mu, k)
              for k in range(-S, S + 1)}
    zero = heat.green_zero_value(p, alpha, mu)
    tail_c = heat.green_tail_constant(p, alpha, mu)
    prof = RadialFunction(p, tuple(shells.items()), value_at_zero=zero,
                          tail=(tail_c, -(alpha + 1.0)), head_constant=True)
    out = args.out or "kernel.csv"
    _atomic_write(out, lambda tmp: write_radial_csv(tmp, prof))
    _atomic_json(_sidecar_path(out), {
        "kind": "resolvent_kernel",
        "p": p, "alpha": alpha, "mu": mu, "shells": S,
        "value_at_zero": zero,
        "tail_constant": tail_c,
        "tail_exponent": -(alpha + 1.0),
        "series_target": 1e-18,
    })
    _manifest(_manifest_path(out), "kernel",
              {"p": p, "alpha": alpha, "t": None, "shells": S,
               "ball": None, "mu": mu},
              [out, _sidecar_path(out)], started)
    print(f"wrote {out} (E_mu at zero: {zero:.12f})")
    return 0


# ---------------------------------------------------------------------------
# operator
# ---------------------------------------------------------------------------

def cmd_operator(args) -> int:
    started = time.time()
    grid = GridSpec(args.p, args.N, args.M)
    if grid.dim > _MATRIX_DUMP_CAP:
        raise ResourceError(f"matrix dump capped at dim {_MATRIX_DUMP_CAP}, "
                            f"requested {grid.dim}")
    op = OperatorParams(args.p, args.alpha, grid)
    B = ball_matrix(op)
    out = args.out or "operator.csv"
    lines = ["i,j,value"]
    for i in range(grid.dim):
        for j in range(grid.dim):
            lines.append(f"{i},{j},{float(B.matrix[i, j])!r}")
    text = "\n".join(lines) + "\n"
    _atomic_write(out, lambda tmp: Path(tmp).write_text(text))
    _atomic_json(_sidecar_path(out), {
        "kind": "ball_operator_matrix",
        "p": args.p, "alpha": args.alpha, "N": args.N, "M": args.M,
        "dim": grid.dim,
        "lambda": B.lam,
        "row_sum_max_deviation": float(
            np.max(np.abs(B.matrix.sum(axis=1) - B.lam))),
    })
    _manifest(_manifest_path(out), "operator",
              {"p": args.p, "alpha": args.alpha, "N": args.N, "M": args.M},
              [out, _sidecar_path(out)], started)
    print(f"wrote {out} ({grid.dim}x{grid.dim}, lambda {B.lam:.12e})")
    return 0


# ---------------------------------------------------------------------------
# initial data shared by the evolution commands
# ---------------------------------------------------------------------------

def build_initial(grid: GridSpec, spec: dict) -> np.ndarray:
    kind = spec.get("kind")
    if kind == "indicator":
        radius = int(spec.get("radius_exp", 0))
        center = _parse_point(grid.p, str(spec.get("center", "0")))
        coeff = float(spec.get("coeff", 1.0))
        f = TestFunction.indicator(Ball(center, radius), coeff)
        return np.real(to_grid(f, grid).values)
    if kind == "radial_power":
        beta = float(spec.get("exponent", 1.0))
        if beta <= 0:
            raise DomainError("radial_power initial data needs exponent > 0 "
                              "to stay bounded at the origin")
        coeff = float(spec.get("coeff", 1.0))
        return grid.radial(lambda k: 0.0 if k is None
                           else coeff * float(Fraction(grid.p) ** k) ** beta)
    if kind == "csv":
        path = spec.get("path")
        if not path:
            raise DomainError("csv initial data needs a 'path' field")
        return np.real(read_grid_csv(path, grid).values)
    raise DomainError(f"unknown initial kind {kind!r} "
                      "(choices: indicator, radial_power, csv)")


# ---------------------------------------------------------------------------
# evolve-heat
# ---------------------------------------------------------------------------

def cmd_evolve_heat(args) -> int:
    started = time.time()
    grid = GridSpec(args.p, args.N, args.M, cap=LEVEL_GRID_CAP)
    op = OperatorParams(args.p, args.alpha, grid)
    if args.t_end <= 0:
        raise DomainError("--t-end must be positive")
    if args.snapshots < 1:
        raise DomainError("--snapshots must be at least 1")
    try:
        init_spec = json.loads(args.initial)
    except json.JSONDecodeError as exc:
        raise DomainError(f"--initial is not valid JSON: {exc}") from exc
    u0 = build_initial(grid, init_spec)

    outdir = args.out or "evolve_heat_out"
    os.makedirs(outdir, exist_ok=True)
    meas = float(grid.coset_measure)
    artifacts = []
    diags = {"times": [], "mass": [], "l1": [], "linf": []}
    for j in range(args.snapshots + 1):
        t = args.t_end * j / args.snapshots
        if j == 0:
            u = u0.copy()
        else:
            T = heat.ball_semigroup_matrix(op, t)
            u = T @ u0
        path = os.path.join(outdir, f"snapshot_{j:04d}.csv")
        u_grid = GridFunction(grid, u.astype(np.complex128))
        _atomic_write(path, lambda tmp: write_grid_csv(tmp, u_grid))
        artifacts.append(path)
        diags["times"].append(t)
        diags["mass"].append(float(np.sum(u) * meas))
        diags["l1"].append(float(np.sum(np.abs(u)) * meas))
        diags["linf"].append(float(np.max(np.abs(u))))

    diag_path = os.path.join(outdir, "diagnostics.json")
    _atomic_json(diag_path, {
        "kind": "heat_evolution",
        "p": args.p, "alpha": args.alpha, "N": args.N, "M": args.M,
        "t_end": args.t_end, "snapshots": args.snapshots,
        "lambda": ball_eigenvalue_floor(args.p, args.alpha, args.N),
        **diags,
    })
    artifacts.append(diag_path)
    _manifest(os.path.join(outdir, "manifest.json"), "evolve-heat",
              {"p": args.p, "alpha": args.alpha, "N": args.N, "M": args.M,
               "t_end": args.t_end, "snapshots": args.snapshots,
               "initial": init_spec},
              artifacts, started)
    print(f"wrote {args.snapshots + 1} snapshots to {outdir} "
          f"(final mass {diags['mass'][-1]:.12f})")
    return 0


# ---------------------------------------------------------------------------
# evolve
# ---------------------------------------------------------------------------

def cmd_evolve(args) -> int:
    started = time.time()
    try:
        with open(args.config) as fh:
            cfg = json.load(fh)
    except OSError as exc:
        raise DomainError(f"cannot read config: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise DomainError(f"config is not valid JSON: {exc}") from exc

    problem = pme.PMEProblem.from_config(cfg)
    init_spec = cfg.get("initial")
    if not isinstance(init_spec, dict):
        raise DomainError("config needs an 'initial' object")
    u0 = build_initial(problem.grid, init_spec)

    result = pme.evolve(problem, u0)

    outdir = args.out or "evolve_out"
    os.makedirs(outdir, exist_ok=True)
    artifacts = []
    for j, (t, snap) in enumerate(zip(result.times, result.snapshots)):
        path = os.path.join(outdir, f"snapshot_{j:04d}.csv")
        u_grid = GridFunction(problem.grid, snap.astype(np.complex128))
        _atomic_write(path, lambda tmp: write_grid_csv(tmp, u_grid))
        artifacts.append(path)

    diag_path = os.path.join(outdir, "diagnostics.json")
    _atomic_json(diag_path, {
        "kind": "pme_evolution",
        "config": problem.to_config(),
        "times": result.times,
        **result.diagnostics,
    })
    artifacts.append(diag_path)
    _manifest(os.path.join(outdir, "manifest.json"), "evolve",
              {"config_path": os.path.abspath(args.config), **cfg},
              artifacts, started)
    print(f"wrote {len(result.snapshots)} snapshots to {outdir} "
          f"(final mass {result.diagnostics['mass'][-1]:.12f})")
    return 0


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def cmd_verify(args) -> int:
    names = sorted(verification.SUITES) if args.suite == "all" else [args.suite]
    for name in names:
        if name not in verification.SUITES:
            raise DomainError(f"unknown suite {name!r}; choices: "
                              f"{sorted(verification.SUITES) + ['all']}")
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
    sol = pme.explicit_solution(args.p, args.alpha, args.m, args.t0,
                                companion=args.companion)
    if args.k_min > args.k_max:
        raise DomainError("--k-min must not exceed --k-max")
    shells = {k: sol.value(args.t, k) for k in range(args.k_min, args.k_max + 1)}
    prof = RadialFunction(args.p, tuple(shells.items()),
                          value_at_zero=sol.value(args.t, None))
    residual = pme.residual_check_explicit(args.p, args.alpha, args.m,
                                           t0=args.t0, t=args.t,
                                           k_lo=args.k_min, k_hi=args.k_max,
                                           companion=args.companion)
    out = args.out or "explicit.csv"
    _atomic_write(out, lambda tmp: write_radial_csv(tmp, prof))
    _atomic_json(_sidecar_path(out), {
        "kind": "explicit_solution",
        "p": args.p, "alpha": args.alpha, "m": args.m,
        "t0": args.t0, "t": args.t,
        "k_min": args.k_min, "k_max": args.k_max,
        "companion": args.companion,
        "rho": sol.rho,
        "nu": sol.nu,
        "amplitude": sol.amplitude,
        "time_factor": sol.time_factor(args.t),
        "residual_sup": residual,
    })
    _manifest(_manifest_path(out), "explicit",
              {"p": args.p, "alpha": args.alpha, "m": args.m,
               "t0": args.t0, "t": args.t, "k_min": args.k_min,
               "k_max": args.k_max, "companion": args.companion},
              [out, _sidecar_path(out)], started)
    print(f"wrote {out} (residual sup {residual:.3e})")
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

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
    k.add_argument("--out", default=None)
    k.set_defaults(func=cmd_kernel)

    o = sub.add_parser("operator", help="dump the ball operator matrix")
    o.add_argument("--p", type=int, required=True)
    o.add_argument("--alpha", type=float, required=True)
    o.add_argument("--N", type=int, required=True)
    o.add_argument("--M", type=int, required=True)
    o.add_argument("--out", default=None)
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
    eh.add_argument("--out", default=None)
    eh.set_defaults(func=cmd_evolve_heat)

    ev = sub.add_parser("evolve", help="nonlinear evolution from a JSON config")
    ev.add_argument("--config", required=True)
    ev.add_argument("--out", default=None)
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
    ex.add_argument("--out", default=None)
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
