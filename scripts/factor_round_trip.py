#!/usr/bin/env python3
"""Seeded round trip of polyfactor.factor over fixed sets of products.

Each product r * prod_k (zeta - a_k)(1 - conj(a_k) zeta) is expanded,
factored back and compared with its own scale and zeros, the zeros
paired greedily (closest pair first).  A product misses when the scale
or a paired zero is off by 1e-8 or more; a FactorError is counted
apart.  The sets are:

  family-like  a doubled unimodular zero plus 0-3 disc points (|a| <= 0.9)
  circle       a 1- to 3-fold unimodular zero plus 0-2 disc points
  generic      1-5 disc points (|a| <= 0.95)
  close-<d>    unimodular zeros u and u exp(i d) plus 0-2 disc points,
               for d in 1e-4, 1e-3, 3e-3, 1e-2 (count / 10 products each)

Every set draws from its own generator seeded by (--seed, set index),
so a set's products do not depend on --count of the others.
"""

import argparse
import math
import os
import sys

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from ellipsogeo.polyfactor import (FactorError, SelfInversivePoly,
                                   expand_circle_product, factor)

CLOSE_DELTAS = (1e-4, 1e-3, 3e-3, 1e-2)


def disc_point(rng, rmax):
    return rmax * math.sqrt(rng.uniform()) * \
        complex(np.exp(1j * rng.uniform(0.0, 2.0 * math.pi)))


def unimodular(rng):
    return complex(np.exp(1j * rng.uniform(0.0, 2.0 * math.pi)))


def family_like(rng):
    u = unimodular(rng)
    return [u, u] + [disc_point(rng, 0.9) for _ in range(rng.integers(0, 4))]


def circle(rng):
    u = unimodular(rng)
    return [u] * int(rng.integers(1, 4)) + \
        [disc_point(rng, 0.9) for _ in range(rng.integers(0, 3))]


def generic(rng):
    return [disc_point(rng, 0.95) for _ in range(rng.integers(1, 6))]


def close_pair(delta):
    def draw(rng):
        u = unimodular(rng)
        return [u, u * complex(np.exp(1j * delta))] + \
            [disc_point(rng, 0.9) for _ in range(rng.integers(0, 3))]
    return draw


def product_sets(seed: int, count: int) -> list:
    """(name, [(scale, zeros), ...]) for every set, in a fixed order."""
    draws = [("family-like", family_like, count), ("circle", circle, count),
             ("generic", generic, count)]
    draws += [(f"close-{d:.0e}", close_pair(d), max(1, count // 10))
              for d in CLOSE_DELTAS]
    out = []
    for index, (name, draw, size) in enumerate(draws):
        rng = np.random.default_rng([seed, index])
        products = []
        for _ in range(size):
            zeros = draw(rng)
            products.append((float(rng.uniform(0.2, 3.0)), zeros))
        out.append((name, products))
    return out


def greedy_pair_error(got, want) -> float:
    got, want = list(got), list(want)
    worst = 0.0
    while want:
        d, i, j = min((abs(g - w), i, j) for i, g in enumerate(got)
                      for j, w in enumerate(want))
        worst = max(worst, d)
        got.pop(i)
        want.pop(j)
    return worst


def round_trip_error(scale, zeros, tol) -> float | None:
    """Worst scale or paired-zero error, or None on a FactorError."""
    poly = SelfInversivePoly(tuple(expand_circle_product(scale, zeros)))
    try:
        form = factor(poly, tol=tol)
    except FactorError:
        return None
    return max(abs(form.scale - scale), greedy_pair_error(form.zeros, zeros))


def main():
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("--count", type=int, default=3000,
                    help="products per set (close sets: count / 10)")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--tol", type=float, default=1e-6,
                    help="tolerance passed to factor")
    args = ap.parse_args()

    print(f"{'set':<14}{'products':>9}{'misses':>8}{'errors':>8}"
          "  first missed")
    for name, products in product_sets(args.seed, args.count):
        missed, errors = [], 0
        for i, (scale, zeros) in enumerate(products):
            err = round_trip_error(scale, zeros, args.tol)
            if err is None:
                errors += 1
            elif not err < 1e-8:
                missed.append(i)
        first = " ".join(str(i) for i in missed[:5])
        print(f"{name:<14}{len(products):>9}{len(missed):>8}{errors:>8}"
              f"  {first}".rstrip())


if __name__ == "__main__":
    main()
