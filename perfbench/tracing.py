"""Outside-in spans around the package's layer boundaries.

The tracer patches public functions (and the two scipy entry points the
package reaches through its own module namespaces, `solver.minimize` and
`boundary.least_squares`) with wrappers that record one span per call:
name, start, end, parent span and operation id.  Spans stay in memory
and are written out once, at the end of a traced run.  Nothing in the
package source is edited; `Tracer.restore` puts the originals back.

Per-layer metrics are derived from the spans after the run.  A layer's
self time is its span minus the time its child spans cover.  Every
time-valued metric is seconds per call of the named function, except
`extremal_map.validate.s`, which is validation time per solve call.
`extremal_map.boundary_defect.samples_per_s` is computed, not counted:
n * M summed over calls, divided by the time in those calls.
"""

from __future__ import annotations

import contextlib
import json
import time
from dataclasses import dataclass, field

from ellipsogeo import (boundary, cli, extremal_map, functionals, polyfactor,
                        solver)
from ellipsogeo.ellipsoid import Ellipsoid


@dataclass
class Span:
    name: str
    start: float
    parent: int | None
    op: int | None
    end: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


# (owner, attribute, span name) for every plain layer boundary; the two
# scipy entry points get their own wrappers below because they also
# count objective evaluations and solver iterations.
_BOUNDARIES = (
    (solver, "solve_two_point", "solver.solve"),
    (solver, "solve_point_direction", "solver.solve"),
    (solver, "brute_force_disc", "solver.brute"),
    (extremal_map, "evaluate", "extremal_map.evaluate"),
    (extremal_map, "derivative", "extremal_map.derivative"),
    (extremal_map, "constraint_residual", "extremal_map.constraint_residual"),
    (extremal_map, "boundary_defect_info", "extremal_map.boundary_defect"),
    (extremal_map, "boundary_trace", "extremal_map.boundary_trace"),
    (extremal_map, "random_valid_params", "extremal_map.random_valid_params"),
    (Ellipsoid, "defining_values", "ellipsoid.defining_values"),
    (polyfactor, "factor", "polyfactor.factor"),
    (boundary, "fit_extremal_family", "boundary.fit"),
    (functionals, "eval_functional", "functionals.eval_functional"),
    (functionals, "build_point_direction_problem",
     "functionals.build_point_direction_problem"),
    (cli, "main", "cli.main"),
)

# Span names a workload is built to exercise.  Zero calls on one of these
# means a wrapper was bypassed (a rename, a lazy or direct import), which
# would silently zero the layer's metrics, so it is reported as an error.
EXPECTED = {
    "geodesic": ("solver.solve", "extremal_map.evaluate",
                 "extremal_map.derivative", "extremal_map.constraint_residual",
                 "extremal_map.boundary_defect", "extremal_map.boundary_trace",
                 "ellipsoid.defining_values"),
    "competitor": ("solver.brute", "solver.minimize"),
    "family": ("extremal_map.random_valid_params", "polyfactor.factor",
               "extremal_map.boundary_defect", "extremal_map.boundary_trace",
               "ellipsoid.defining_values", "boundary.fit",
               "boundary.least_squares", "functionals.eval_functional",
               "functionals.build_point_direction_problem"),
    "cli": ("cli.main", "solver.solve", "polyfactor.factor", "boundary.fit",
            "boundary.least_squares", "functionals.eval_functional",
            "extremal_map.boundary_trace"),
}

CLI_SUBCOMMANDS = ("eval", "validate", "solve", "factor", "fit",
                   "functional", "oracle", "plot-data")

LBFGS_SUCCESS = 1e-20   # the feasibility threshold brute_force_disc uses


class Tracer:
    """Span recorder installed by monkeypatching layer boundaries."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self._paused = False
        self.op: int | None = None

    # -- recording ---------------------------------------------------------

    def _open(self, name: str) -> Span:
        parent = self._stack[-1] if self._stack else None
        span = Span(name, time.perf_counter(), parent, self.op)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def paused(self):
        """Run benchmark-side checks without recording their calls."""
        old, self._paused = self._paused, True
        try:
            yield
        finally:
            self._paused = old

    def _plain(self, original, name):
        def wrapper(*args, **kwargs):
            if self._paused:
                return original(*args, **kwargs)
            span = self._open(name)
            try:
                result = original(*args, **kwargs)
            except Exception as exc:
                span.attrs["error"] = type(exc).__name__
                raise
            finally:
                self._close(span)
            if name == "solver.solve":
                d = result.diagnostics
                span.attrs.update(patterns=d.patterns_tried,
                                  starts=d.starts_tried,
                                  newton=d.newton_iterations,
                                  useful=len(d.candidates),
                                  convex=bool(args[0].is_convex))
            elif name == "solver.brute":
                span.attrs.update(levels=result.bisection_levels,
                                  feasibility=result.feasibility_calls)
            elif name == "extremal_map.boundary_defect":
                span.attrs["samples"] = args[0].n * args[2]
            elif name == "cli.main":
                span.attrs["subcommand"] = args[0][0]
            return result
        return wrapper

    def _minimize(self, original):
        def wrapper(fun, x0, *args, **kwargs):
            if self._paused:
                return original(fun, x0, *args, **kwargs)
            span = self._open("solver.minimize")
            span.attrs.update(evals=0, objective_s=0.0)

            def objective(x, *fargs):
                t0 = time.perf_counter()
                try:
                    return fun(x, *fargs)
                finally:
                    span.attrs["objective_s"] += time.perf_counter() - t0
                    span.attrs["evals"] += 1
            try:
                res = original(objective, x0, *args, **kwargs)
            finally:
                self._close(span)
            span.attrs.update(nfev=int(res.nfev), nit=int(res.nit),
                              success=bool(res.fun < LBFGS_SUCCESS))
            return res
        return wrapper

    def _least_squares(self, original):
        def wrapper(*args, **kwargs):
            if self._paused:
                return original(*args, **kwargs)
            span = self._open("boundary.least_squares")
            try:
                res = original(*args, **kwargs)
            except Exception as exc:
                span.attrs["error"] = type(exc).__name__
                raise
            finally:
                self._close(span)
            span.attrs["nfev"] = int(res.nfev)
            return res
        return wrapper

    def install(self) -> None:
        for owner, attr, name in _BOUNDARIES:
            self._patch(owner, attr, self._plain(getattr(owner, attr), name))
        self._patch(solver, "minimize", self._minimize(solver.minimize))
        self._patch(boundary, "least_squares",
                    self._least_squares(boundary.least_squares))

    def _patch(self, owner, attr, wrapper) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def restore(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": s.name, "start": s.start,
                                     "end": s.end, "parent": s.parent,
                                     "op": s.op, **s.attrs}) + "\n")


# ---------------------------------------------------------------------------
# per-layer metrics


def _ancestors(spans: list[Span], i: int):
    p = spans[i].parent
    while p is not None:
        yield spans[p]
        p = spans[p].parent


def _per(total, calls):
    return total / calls if calls else 0.0


def coverage_errors(spans: list[Span], workload: str) -> list[str]:
    seen = {s.name for s in spans}
    return [f"layer wrapper {name!r} recorded no calls on workload "
            f"{workload!r}" for name in EXPECTED[workload] if name not in seen]


def layer_metrics(spans: list[Span]) -> dict[str, tuple[float, str]]:
    """Every per-layer metric as name -> (value, unit), 0 where unused."""
    child_em_time = [0.0] * len(spans)   # extremal_map children only
    child_min_time = [0.0] * len(spans)  # solver.minimize children only
    for s in spans:
        if s.parent is None:
            continue
        if s.name.startswith("extremal_map."):
            child_em_time[s.parent] += s.duration
        if s.name == "solver.minimize":
            child_min_time[s.parent] += s.duration

    by_name: dict[str, list[int]] = {}
    for i, s in enumerate(spans):
        by_name.setdefault(s.name, []).append(i)

    def idx(name):
        return by_name.get(name, [])

    out: dict[str, tuple[float, str]] = {}

    # solver: Newton path
    solves = idx("solver.solve")
    ok = [i for i in solves if "patterns" in spans[i].attrs]
    out["solver.solve.calls"] = (len(solves), "count")
    out["solver.solve.s"] = (_per(sum(spans[i].duration for i in solves),
                                  len(solves)), "s")
    for field_, key in (("patterns_per_call", "patterns"),
                        ("starts_per_call", "starts"),
                        ("newton_iters_per_call", "newton")):
        out[f"solver.solve.{field_}"] = (
            _per(sum(spans[i].attrs[key] for i in ok), len(ok)), "count")
        for label, want in (("convex", True), ("nonconvex", False)):
            sel = [i for i in ok if spans[i].attrs["convex"] is want]
            out[f"solver.solve.{field_}.{label}"] = (
                _per(sum(spans[i].attrs[key] for i in sel), len(sel)), "count")
    out["solver.solve.useful_start_ratio"] = (
        _per(sum(spans[i].attrs["useful"] for i in ok),
             sum(spans[i].attrs["starts"] for i in ok)), "ratio")
    out["solver.newton.self_s"] = (
        _per(sum(spans[i].duration - child_em_time[i] for i in solves),
             len(solves)), "s")

    # extremal_map: public calls the solver makes while validating
    in_solve = [i for i, s in enumerate(spans)
                if s.name.startswith("extremal_map.") and s.parent is not None
                and spans[s.parent].name == "solver.solve"]
    out["extremal_map.validate.calls"] = (len(in_solve), "count")
    out["extremal_map.validate.s"] = (
        _per(sum(spans[i].duration for i in in_solve), len(solves)), "s")
    bd = idx("extremal_map.boundary_defect")
    bd_time = sum(spans[i].duration for i in bd)
    out["extremal_map.boundary_defect.calls"] = (len(bd), "count")
    out["extremal_map.boundary_defect.s"] = (_per(bd_time, len(bd)), "s")
    out["extremal_map.boundary_defect.samples_per_s"] = (
        _per(sum(spans[i].attrs["samples"] for i in bd), bd_time),
        "samples/s")
    rvp = idx("extremal_map.random_valid_params")
    factor_in_rvp = sum(1 for i in idx("polyfactor.factor")
                        if spans[i].parent is not None
                        and spans[spans[i].parent].name
                        == "extremal_map.random_valid_params")
    out["extremal_map.random_valid_params.calls"] = (len(rvp), "count")
    out["extremal_map.random_valid_params.s"] = (
        _per(sum(spans[i].duration for i in rvp), len(rvp)), "s")
    out["extremal_map.random_valid_params.draws_per_call"] = (
        _per(factor_in_rvp, len(rvp)), "count")
    dv = idx("ellipsoid.defining_values")
    out["ellipsoid.defining_values.calls"] = (len(dv), "count")
    out["ellipsoid.defining_values.s"] = (
        _per(sum(spans[i].duration for i in dv), len(dv)), "s")

    # polyfactor, boundary, functionals
    fac = idx("polyfactor.factor")
    out["polyfactor.factor.calls"] = (len(fac), "count")
    out["polyfactor.factor.s"] = (
        _per(sum(spans[i].duration for i in fac), len(fac)), "s")
    out["polyfactor.factor.errors"] = (
        sum(1 for i in fac if "error" in spans[i].attrs), "count")
    fits = idx("boundary.fit")
    lm = [i for i in idx("boundary.least_squares") if "nfev" in spans[i].attrs]
    out["boundary.fit.calls"] = (len(fits), "count")
    out["boundary.fit.s"] = (
        _per(sum(spans[i].duration for i in fits), len(fits)), "s")
    out["boundary.fit.lm_runs_per_call"] = (
        _per(len(idx("boundary.least_squares")), len(fits)), "count")
    out["boundary.fit.nfev_per_call"] = (
        _per(sum(spans[i].attrs["nfev"] for i in lm), len(fits)), "count")
    ef = idx("functionals.eval_functional")
    out["functionals.eval_functional.calls"] = (len(ef), "count")
    out["functionals.eval_functional.s"] = (
        _per(sum(spans[i].duration for i in ef), len(ef)), "s")

    # solver: brute-force competitor
    brutes = idx("solver.brute")
    okb = [i for i in brutes if "levels" in spans[i].attrs]
    runs = [i for i in idx("solver.minimize")
            if any(a.name == "solver.brute" for a in _ancestors(spans, i))]
    done = [i for i in runs if "nfev" in spans[i].attrs]
    nb = len(brutes)
    evals = sum(spans[i].attrs["evals"] for i in runs)
    out["solver.brute.calls"] = (nb, "count")
    out["solver.brute.s"] = (_per(sum(spans[i].duration for i in brutes), nb),
                             "s")
    out["solver.brute.levels_per_call"] = (
        _per(sum(spans[i].attrs["levels"] for i in okb), len(okb)), "count")
    out["solver.brute.feasibility_calls_per_call"] = (
        _per(sum(spans[i].attrs["feasibility"] for i in okb), len(okb)),
        "count")
    out["solver.brute.lbfgs_runs_per_call"] = (_per(len(runs), nb), "count")
    out["solver.brute.objective_evals_per_call"] = (
        _per(sum(spans[i].attrs["nfev"] for i in done), nb), "count")
    out["solver.brute.lbfgs_iters_per_call"] = (
        _per(sum(spans[i].attrs["nit"] for i in done), nb), "count")
    out["solver.brute.lbfgs_s"] = (
        _per(sum(spans[i].duration for i in runs), nb), "s")
    out["solver.brute.objective_us_per_eval"] = (
        1e6 * _per(sum(spans[i].attrs["objective_s"] for i in runs), evals),
        "us")
    out["solver.brute.lbfgs_success_ratio"] = (
        _per(sum(1 for i in done if spans[i].attrs["success"]), len(done)),
        "ratio")
    out["solver.brute.outside_lbfgs_s"] = (
        _per(sum(spans[i].duration - child_min_time[i] for i in brutes), nb),
        "s")

    # cli: in-process main per subcommand
    mains = idx("cli.main")
    for sub in CLI_SUBCOMMANDS:
        sel = [i for i in mains if spans[i].attrs.get("subcommand") == sub]
        out[f"cli.main_s.{sub}"] = (
            _per(sum(spans[i].duration for i in sel), len(sel)), "s")
    return out
