"""Exact-count self-test of the benchmark.

    python3 -m pytest -q perfbench/test_counts.py

Operation counts do not depend on the machine, so they must repeat
exactly: two runs with the same seed give identical starts, Newton
iterations, bisection levels, feasibility calls, objective evaluations,
factor calls and nfev.  The roadmap baseline counts are pinned too.
"""

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import numpy as np  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402
from ellipsogeo.ellipsoid import Ellipsoid  # noqa: E402


def traced(calls):
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for call in calls:
            call()
    finally:
        tracer.restore()
    return tracer.spans


def counts(spans):
    """Every machine-independent count the spans carry, in call order."""
    keep = ("patterns", "starts", "newton", "useful", "levels",
            "feasibility", "evals", "nfev", "nit", "success", "error")
    return [(s.name, {k: v for k, v in s.attrs.items() if k in keep})
            for s in spans]


def plan_ops(workload, seed, tmp_path, ids=None, count=None):
    plan = workloads.PLANS[workload](seed, str(tmp_path))
    if count is not None:
        return [op.run for op in plan.next_pass()[:count]]
    return [op.run for op in plan.next_pass() if op.instance in ids]


def test_same_seed_same_counts(tmp_path):
    for workload, kw in (
            ("geodesic", {"ids": ("n1-pd", "p12-baseline-tp")}),
            ("competitor", {"ids": ("n1-d2-pd",)}),
            ("family", {"count": 12})):
        first = counts(traced(plan_ops(workload, 7, tmp_path, **kw)))
        second = counts(traced(plan_ops(workload, 7, tmp_path, **kw)))
        assert first == second, workload
        names = {name for name, _ in first}
        if workload == "family":
            assert {"polyfactor.factor", "boundary.least_squares"} <= names
        if workload == "competitor":
            assert "solver.minimize" in names


def test_roadmap_baseline_counts():
    E = Ellipsoid((1.0, 2.0))
    prob = workloads.problem("tp", np.asarray(workloads.BASE_Z),
                             np.asarray(workloads.BASE_W))
    spans = traced([lambda: workloads.solve("tp", E, prob),
                    lambda: workloads.solver.brute_force_disc(E, prob, 3)])
    solve = next(s for s in spans if s.name == "solver.solve")
    assert (solve.attrs["patterns"], solve.attrs["starts"],
            solve.attrs["newton"]) == (4, 28, 630)
    brute = next(s for s in spans if s.name == "solver.brute")
    assert (brute.attrs["levels"], brute.attrs["feasibility"]) == (21, 22)
    metrics = tracing.layer_metrics(spans)
    assert metrics["solver.solve.starts_per_call"][0] == 28
    assert metrics["solver.brute.levels_per_call"][0] == 21
    runs = [s for s in spans if s.name == "solver.minimize"]
    assert metrics["solver.brute.objective_evals_per_call"][0] == \
        sum(s.attrs["nfev"] for s in runs) == sum(s.attrs["evals"]
                                                  for s in runs)
