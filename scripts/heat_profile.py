"""Tabulate the radial heat kernel over a (t, shell) window.

Writes one long-format CSV (t, shell, value, certificate) suitable for
log-log plotting of the |x|^{-alpha-1} far field and the t^{-1/alpha}
short-time spike at the origin.
"""

import argparse
import csv

from padicpme.heat import KernelParams, kernel_Z


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--p", type=int, default=2)
    ap.add_argument("--alpha", type=float, default=2.0)
    ap.add_argument("--times", default="0.05,0.2,1.0,5.0",
                    help="comma-separated evaluation times")
    ap.add_argument("--k-min", type=int, default=-8)
    ap.add_argument("--k-max", type=int, default=14)
    ap.add_argument("--out", default="heat_profile.csv")
    args = ap.parse_args()

    times = [float(s) for s in args.times.split(",") if s.strip()]
    worst_cert = 0.0
    with open(args.out, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["t", "shell", "value", "certificate"])
        for t in times:
            params = KernelParams(args.p, args.alpha, t)
            ks = range(args.k_min, args.k_max + 1)
            ev0, *evs = kernel_Z(params, [None, *ks])
            w.writerow([repr(t), "zero", repr(ev0.value),
                        repr(ev0.truncation_bound)])
            for k, ev in zip(ks, evs):
                w.writerow([repr(t), k, repr(ev.value),
                            repr(ev.truncation_bound)])
                worst_cert = max(worst_cert, ev.truncation_bound)
    print(f"wrote {args.out}: {len(times)} times x shells "
          f"[{args.k_min}, {args.k_max}], worst certificate {worst_cert:.3e}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
