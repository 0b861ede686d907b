#!/usr/bin/env python3
"""Seeded round trip of boundary.fit_extremal_family over hidden members.

Member i draws from its own generator seeded by (--seed, i): n in 1-4,
band degree m in 1-4, exponents p in [0.6, 2.8], a grid of M = 64 or
256 samples, then `random_valid_params`.  Its boundary trace is fitted
back at degree m with the member's own zeros pinned.  A member misses
when the fit is not in the family or its RMS or singular defect is
1e-6 or more (the check of the `family` benchmark workload).

Beside the misses, the worst RMS and the fit seconds, the row counts the
Levenberg-Marquardt work through a wrapper around
`boundary.least_squares`: the runs, their summed `nfev`, and the calls
of the residual and of the Jacobian that the runs made.  The counts do
not depend on the machine.
"""

import argparse
import os
import sys
import time

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from ellipsogeo import boundary, extremal_map
from ellipsogeo.ellipsoid import Ellipsoid


def count_least_squares():
    """Route `boundary.least_squares` through a counting wrapper."""
    counts = {"runs": 0, "nfev": 0, "residuals": 0, "jacobians": 0}
    forwarded = boundary.least_squares

    def counted(fun, key):
        def call(*args, **kwargs):
            counts[key] += 1
            return fun(*args, **kwargs)
        return call

    def counting(fun, x0, jac="2-point", **kwargs):
        if callable(jac):
            jac = counted(jac, "jacobians")
        res = forwarded(counted(fun, "residuals"), x0, jac=jac, **kwargs)
        counts["runs"] += 1
        counts["nfev"] += res.nfev
        return res

    boundary.least_squares = counting
    return counts


def member(seed: int, index: int):
    """(samples, zeros, ellipsoid, m) of hidden member `index`."""
    rng = np.random.default_rng([seed, index])
    n = int(rng.integers(1, 5))
    m = int(rng.integers(1, 5))
    p = tuple(float(v) for v in rng.uniform(0.6, 2.8, n))
    M = int(rng.choice([64, 256]))
    E = Ellipsoid(p)
    params = extremal_map.random_valid_params(rng, p, m)
    trace = extremal_map.boundary_trace(params, E, M)
    return trace, extremal_map.component_zeros(params), E, m


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--count", type=int, default=200, help="members to fit")
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    counts = count_least_squares()
    missed, worst, seconds = [], 0.0, 0.0
    for i in range(args.count):
        inputs = member(args.seed, i)
        t0 = time.perf_counter()
        rep = boundary.fit_extremal_family(*inputs)
        seconds += time.perf_counter() - t0
        worst = max(worst, rep.rms_total)
        if not (rep.in_family and rep.rms_total < 1e-6
                and rep.singular_defect < 1e-6):
            missed.append(i)
    print(f"{'members':>8}{'misses':>8}{'worst_rms':>11}{'lm_runs':>9}"
          f"{'nfev':>9}{'residuals':>11}{'jacobians':>11}{'seconds':>9}"
          "  first missed")
    first = " ".join(str(i) for i in missed[:5])
    print(f"{args.count:>8}{len(missed):>8}{worst:>11.1e}{counts['runs']:>9}"
          f"{counts['nfev']:>9}{counts['residuals']:>11}"
          f"{counts['jacobians']:>11}{seconds:>9.2f}  {first}".rstrip())


if __name__ == "__main__":
    main()
