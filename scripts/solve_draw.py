#!/usr/bin/env python3
"""Seeded draw of random solver problems, one line per solve.

The draw: `rng = np.random.default_rng(--seed)`; per problem i,
n = rng.integers(2, 5), p = rng.uniform(0.5, 3.0, n) (a convex E(p);
with --nonconvex p = rng.uniform(0.25, 1.5, n)) and
slack = rng.choice([0.3, 0.1, 0.03]); then z and w are points with
defining value below -slack, drawn as `ellipsoid_point` in
tests/test_acceptance.py draws them.  Even i is the two-point problem
(z, w), odd i the point-direction problem (z, w - z).  Each is solved
with the default `SolverConfig`.

Each line gives the kind, n, the outcome, the scalar as `float.hex`, the
flag pattern, patterns / starts / Newton iterations, the candidates
(pattern:scalar.hex) and, for a failed solve, the `SolveError` message.
The last line totals the Newton iterations, the residual rows, the
batched residual calls that evaluate them, the line-search guard calls
and the solve seconds.  Every count is read from the solve's
`SolveDiagnostics` (for a failed solve, the one its `SolveError`
carries), so the starts of a batch after its winner count as never run,
by the solver's own rule.  Everything but the residual calls, the guard
calls and the seconds is the search's result, so two versions of the
solver that take the same Newton path print the same lines.

    python3 scripts/solve_draw.py --seed 2026 --count 120
    python3 scripts/solve_draw.py --nonconvex --seed 77 --count 30
"""

import argparse
import os
import sys
import time

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from ellipsogeo import solver
from ellipsogeo.ellipsoid import Ellipsoid
from ellipsogeo.solver import (PointDirectionProblem, SolveError,
                               TwoPointProblem)


def disc_point(rng, rmax=0.85):
    r = rmax * np.sqrt(rng.uniform())
    t = rng.uniform(0, 2 * np.pi)
    return r * np.exp(1j * t)


def ellipsoid_point(rng, ellipsoid, slack=0.15):
    p = np.asarray(ellipsoid.exponents)
    while True:
        v = np.array([disc_point(rng, 0.95) for _ in range(p.size)])
        if ellipsoid.defining_value(v) < -slack:
            return v


def problems(seed, count, nonconvex):
    rng = np.random.default_rng(seed)
    lo, hi = (0.25, 1.5) if nonconvex else (0.5, 3.0)
    for i in range(count):
        n = int(rng.integers(2, 5))
        p = rng.uniform(lo, hi, n)
        slack = rng.choice([0.3, 0.1, 0.03])
        E = Ellipsoid(tuple(p))
        z = ellipsoid_point(rng, E, slack)
        w = ellipsoid_point(rng, E, slack)
        if i % 2 == 0:
            yield E, TwoPointProblem(z, w), solver.solve_two_point
        else:
            yield E, PointDirectionProblem(z, w - z), \
                solver.solve_point_direction


def flags(pattern):
    return "".join(str(f) for f in pattern)


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seed", type=int, default=2026)
    ap.add_argument("--count", type=int, default=120,
                    help="problems to draw and solve")
    ap.add_argument("--nonconvex", action="store_true",
                    help="draw p in [0.25, 1.5] instead of [0.5, 3.0]")
    args = ap.parse_args()

    totals = dict.fromkeys(("newton_iterations", "residual_rows",
                            "residual_calls", "guard_calls"), 0)
    failures, seconds = 0, 0.0
    for i, (E, prob, solve) in enumerate(problems(args.seed, args.count,
                                                  args.nonconvex)):
        t0 = time.perf_counter()
        try:
            res = solve(E, prob)
            d = res.diagnostics
        except SolveError as exc:
            res, d, error = None, exc.diagnostics, str(exc)
        seconds += time.perf_counter() - t0
        for key in totals:
            totals[key] += getattr(d, key)
        work = f"{d.patterns_tried}/{d.starts_tried}/{d.newton_iterations}"
        kind = "tp" if isinstance(prob, TwoPointProblem) else "pd"
        if res is None:
            failures += 1
            print(f"{i} {kind} n={E.dim} fail - - {work} - {error}")
            continue
        cands = ",".join(f"{flags(q)}:{s.hex()}" for q, s in d.candidates)
        print(f"{i} {kind} n={E.dim} ok {res.scalar.hex()} "
              f"{flags(d.pattern)} {work} {cands}")
    print(f"problems={args.count} failures={failures} "
          f"newton_iterations={totals['newton_iterations']} "
          f"residuals={totals['residual_rows']} "
          f"residual_calls={totals['residual_calls']} "
          f"guards={totals['guard_calls']} "
          f"seconds={seconds:.2f}")


if __name__ == "__main__":
    main()
