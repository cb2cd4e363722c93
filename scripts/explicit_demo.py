"""The separable profile's amplitude, and the solver against the exact
discrete solution that the profile's companion branch gives.

Prints rho, nu and the relative defect of rho in its amplitude equation
nu rho + |rho|^m C = 0.  Then it solves `--steps` implicit steps of the
companion profile a |x|^{alpha nu} on the grid B_N / B_-M, each from the
data of pme.DiscreteOracle: every step must return a_{n+1} |x|^{alpha nu}
exactly, up to the solver's tolerance.  Per step it prints the gap
max |w - a_{n+1} g| and the gap over its bound, 2 (Newton target +
rounding floor), which must stay <= 1; the exit code is 1 if it does not.
"""

import argparse

import numpy as np

from padicpme.pme import (DiscreteOracle, PMEProblem, amplitude_defect,
                          explicit_rho)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--p", type=int, default=2)
    ap.add_argument("--alpha", type=float, default=2.0)
    ap.add_argument("--m", type=float, default=2.0)
    ap.add_argument("--N", type=int, default=1)
    ap.add_argument("--M", type=int, default=2)
    ap.add_argument("--tau", type=float, default=0.01)
    ap.add_argument("--steps", type=int, default=20)
    args = ap.parse_args()

    rho = explicit_rho(args.p, args.alpha, args.m)
    defect = amplitude_defect(args.p, args.alpha, args.m, rho)
    print(f"rho = {rho:.12f}, nu = {1 / (args.m - 1):.6f}, "
          f"relative amplitude defect {defect:.3e}")
    problem = PMEProblem(p=args.p, alpha=args.alpha, N=args.N, M=args.M,
                         m=args.m, tau=args.tau, t_end=args.tau * args.steps)
    gap, target, floor = DiscreteOracle(problem).step_gap(args.steps)
    bound = 2 * (target + floor)
    print(f"oracle gap over {args.steps} steps ending at amplitude 1:")
    print(f"{'step':>5} {'gap':>12} {'gap / bound':>12}")
    for n, (e, b) in enumerate(zip(gap, bound), 1):
        print(f"{n:5d} {e:12.3e} {e / b:12.3e}")
    return 0 if np.all(gap <= bound) else 1


if __name__ == "__main__":
    raise SystemExit(main())
