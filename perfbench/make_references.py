#!/usr/bin/env python3
"""Regenerate references.json: solver scalars of the unrotated instances.

Run from the repository root:  python3 perfbench/make_references.py

The stored values are what later commits are checked against (to 1e-7),
so regenerate them only when a change to the extremal values is intended.
"""

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import numpy as np  # noqa: E402

from ellipsogeo.ellipsoid import Ellipsoid  # noqa: E402


def main() -> int:
    # workloads reads references.json at import; start from an empty one
    path = os.path.join(HERE, "references.json")
    if not os.path.exists(path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"geodesic": {}}, fh)
    import workloads

    out = {}
    for iid, p, kind, z, second in workloads.GEODESIC:
        prob = workloads.problem(kind, np.asarray(z), np.asarray(second))
        res = workloads.solve(kind, Ellipsoid(p), prob)
        out[iid] = res.scalar
        print(f"{iid:28s} {res.scalar!r}", file=sys.stderr)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"geodesic": out}, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
