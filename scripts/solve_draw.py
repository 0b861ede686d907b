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
and the solve seconds, counted through wrappers around `solver._system`,
`solver._damped_newton` and `solver._validate` (see `count_search`).
Everything but the residual calls, the guard calls and the seconds is
the search's result, so two versions of the solver that take the same
Newton path print the same lines.

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


def count_search():
    """Route the solver's flag patterns, Newton batches and validations
    through counters; returns the counts and the `settle` to call after
    each solve.

    A row of a Newton batch is one start, and the batch reports the
    iterations, residual rows and guard calls of each.  The search
    validates a batch's converged starts in start order and keeps the
    first that passes, so the starts after it count as never run: the
    counts are those of a search that runs its starts one at a time.
    `residual_calls` counts the batched residual calls themselves.
    """
    counts = {"patterns": 0, "starts": 0, "iterations": 0,
              "residuals": 0, "residual_calls": 0, "guards": 0}
    system, newton, validate = (solver._system, solver._damped_newton,
                                solver._validate)
    batch = {}      # the last batch, until the search is done with it

    def settle(last=None):
        """Count the open batch's starts, up to start `last` if given."""
        if batch:
            used = slice(None if last is None else last + 1)
            counts["starts"] += len(batch["iterations"][used])
            for key in ("iterations", "residuals", "guards"):
                counts[key] += sum(batch[key][used])
            batch.clear()

    def counting_system(*args):
        counts["patterns"] += 1
        F, jac = system(*args)

        def residual(x):
            counts["residual_calls"] += 1
            return F(x)
        return residual, jac

    def counting_newton(*args):
        settle()
        found, iters, evals, tests = newton(*args)
        batch.update(iterations=iters, residuals=evals, guards=tests,
                     converged=[k for k, x in enumerate(found)
                                if x is not None])
        return found, iters, evals, tests

    def counting_validate(*args):
        ok, report = validate(*args)
        start = batch["converged"].pop(0)
        if ok:
            settle(start)
        return ok, report

    solver._system = counting_system
    solver._damped_newton = counting_newton
    solver._validate = counting_validate
    return counts, settle


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

    counts, settle = count_search()
    failures, seconds = 0, 0.0
    for i, (E, prob, solve) in enumerate(problems(args.seed, args.count,
                                                  args.nonconvex)):
        before = dict(counts)
        t0 = time.perf_counter()
        try:
            res = solve(E, prob)
        except SolveError as exc:
            res, error = None, str(exc)
        seconds += time.perf_counter() - t0
        settle()
        work = "/".join(str(counts[k] - before[k])
                        for k in ("patterns", "starts", "iterations"))
        kind = "tp" if isinstance(prob, TwoPointProblem) else "pd"
        if res is None:
            failures += 1
            print(f"{i} {kind} n={E.dim} fail - - {work} - {error}")
            continue
        d = res.diagnostics
        cands = ",".join(f"{flags(q)}:{s.hex()}" for q, s in d.candidates)
        print(f"{i} {kind} n={E.dim} ok {res.scalar.hex()} "
              f"{flags(d.pattern)} {work} {cands}")
    print(f"problems={args.count} failures={failures} "
          f"newton_iterations={counts['iterations']} "
          f"residuals={counts['residuals']} "
          f"residual_calls={counts['residual_calls']} "
          f"guards={counts['guards']} "
          f"seconds={seconds:.2f}")


if __name__ == "__main__":
    main()
