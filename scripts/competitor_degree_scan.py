#!/usr/bin/env python3
"""Degree sweep of the brute-force competitor against the solver.

For one two-point instance, runs the rational competitor search at
increasing numerator degree and prints the gap to the structured
solver's sigma.  The gap should shrink toward the bisection tolerance
and never go meaningfully negative on a convex domain.  Beside the wall
time, each row counts the L-BFGS runs and the objective evaluations of
the search, which do not depend on the machine.
"""

import argparse
import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from ellipsogeo import solver
from ellipsogeo.ellipsoid import Ellipsoid
from ellipsogeo.solver import TwoPointProblem, brute_force_disc, \
    solve_two_point


def count_lbfgs():
    """Route `solver.minimize` through a counting wrapper; return its counts."""
    counts = {"runs": 0, "evals": 0}
    forwarded = solver.minimize

    def counting(*args, **kwargs):
        res = forwarded(*args, **kwargs)
        counts["runs"] += 1
        counts["evals"] += res.nfev
        return res

    solver.minimize = counting
    return counts


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--p", default="1,2",
                    help="comma-separated exponents, e.g. 1,2")
    ap.add_argument("--z", default="0,0")
    ap.add_argument("--w", default="0.2,0.3")
    ap.add_argument("--max-degree", type=int, default=4)
    args = ap.parse_args()

    p = tuple(float(v) for v in args.p.split(","))
    z = tuple(complex(v) for v in args.z.split(","))
    w = tuple(complex(v) for v in args.w.split(","))
    E = Ellipsoid(p)
    prob = TwoPointProblem(z, w)

    t0 = time.monotonic()
    res = solve_two_point(E, prob)
    print(f"solver sigma = {res.scalar:.12f}   "
          f"({time.monotonic() - t0:.2f} s, label: {res.label})")
    counts = count_lbfgs()
    print(f"{'degree':>8}{'competitor':>16}{'gap':>12}{'lbfgs_runs':>12}"
          f"{'objective_evals':>17}{'seconds':>10}")
    for d in range(1, args.max_degree + 1):
        counts.update(runs=0, evals=0)
        t0 = time.monotonic()
        bf = brute_force_disc(E, prob, d)
        gap = bf.value - res.scalar
        print(f"{d:>8}{bf.value:>16.10f}{gap:>12.2e}{counts['runs']:>12}"
              f"{counts['evals']:>17}{time.monotonic() - t0:>10.2f}")


if __name__ == "__main__":
    main()
