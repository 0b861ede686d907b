#!/usr/bin/env python3
"""Showcase run: extremal discs in three ellipsoids, with CSV dumps.

Solves a disc problem, a ball problem, and a p=(1,2) problem, compares
against the closed-form oracles where they exist, and writes boundary
grids for the last solve into --outdir for external plotting.
"""

import argparse
import json
import os
import sys
import tempfile
import time

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from ellipsogeo import cli
from ellipsogeo.ellipsoid import Ellipsoid
from ellipsogeo.extremal_map import evaluate, params_to_json
from ellipsogeo.solver import (
    TwoPointProblem,
    ball_oracle,
    mobius_oracle,
    solve_two_point,
)


def showcase(outdir):
    rows = []

    E1 = Ellipsoid((1.0,))
    prob = TwoPointProblem((0.2,), (0.6,))
    t0 = time.monotonic()
    res = solve_two_point(E1, prob)
    rows.append(("disc p=(1)", res.scalar, mobius_oracle(prob)[0],
                 time.monotonic() - t0))

    E2 = Ellipsoid((1.0, 1.0))
    prob = TwoPointProblem((0.1, 0.2j), (0.4, -0.3))
    t0 = time.monotonic()
    res = solve_two_point(E2, prob)
    rows.append(("ball p=(1,1)", res.scalar, ball_oracle(E2, prob),
                 time.monotonic() - t0))

    E3 = Ellipsoid((1.0, 2.0))
    prob = TwoPointProblem((0.0, 0.0), (0.2, 0.3))
    t0 = time.monotonic()
    res = solve_two_point(E3, prob)
    rows.append(("ellipsoid p=(1,2)", res.scalar, None,
                 time.monotonic() - t0))

    print(f"{'domain':<20}{'sigma':>14}{'oracle':>14}{'seconds':>10}")
    for name, sigma, oracle, dt in rows:
        otxt = f"{oracle:.10f}" if oracle is not None else "-"
        print(f"{name:<20}{sigma:>14.10f}{otxt:>14}{dt:>10.2f}")

    # dump the p=(1,2) geodesic for plotting; the boundary grid is the
    # CLI's `eval --boundary` CSV
    os.makedirs(outdir, exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        bundle = os.path.join(tmp, "bundle.json")
        with open(bundle, "w", encoding="utf-8") as fh:
            json.dump({"ellipsoid": E3.to_json(),
                       "params": params_to_json(res.params)}, fh)
        code = cli.main(["eval", "--input", bundle, "--boundary",
                         "--grid", "512", "--output",
                         os.path.join(outdir, "boundary.csv")])
    if code != 0:
        sys.exit(code)
    radii = np.linspace(0.0, res.scalar, 64)
    inner = np.stack([evaluate(res.params, E3, r) for r in radii]).T
    with open(os.path.join(outdir, "segment.csv"), "w") as fh:
        fh.write("lam," + ",".join(f"re_{j},im_{j}" for j in range(2)) + "\n")
        for i, r in enumerate(radii):
            vals = ",".join(f"{float(inner[j, i].real)!r},"
                            f"{float(inner[j, i].imag)!r}" for j in range(2))
            fh.write(f"{float(r)!r},{vals}\n")
    print(f"\nwrote boundary.csv and segment.csv to {outdir}")
    print(f"residuals: interpolation {res.residuals.interpolation:.2e}, "
          f"constraint {res.residuals.constraint:.2e}, "
          f"boundary {res.residuals.boundary:.2e}")


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--outdir", default="demo_out")
    args = ap.parse_args()
    showcase(args.outdir)


if __name__ == "__main__":
    main()
