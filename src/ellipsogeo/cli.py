"""Command-line front end.

Subcommands: eval, validate, solve, factor, fit, functional, oracle,
plot-data.  Grid dumps are CSV; every JSON document (stdout, --output
and the plot-data manifest) carries `schema`, `command` (the
subcommand) and `config` (the options that shaped it).  A domain
failure is a document with status "failed" and an `error` message.
Exit codes: 0 success, 2 validation failure (with a machine-readable
report), 1 usage or malformed input.  Outputs are written atomically
and are byte-identical across runs for equal inputs.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import tempfile

import numpy as np

from . import boundary, extremal_map, functionals, polyfactor, solver
from .ellipsoid import Ellipsoid
from .extremal_map import SCHEMA, pair, unpair


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse insists on exiting 2 for usage problems; the contract here
    # reserves 2 for validation failures, so route through status 1
    def error(self, message):
        raise _UsageError(message)


def _tolerance(text: str) -> float:
    """The value of a --tol or --boundary-tol option: a finite number
    >= 0."""
    try:
        return polyfactor.check_tolerance(float(text), "tolerance")
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def _load_json(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        obj = json.load(fh)
    if isinstance(obj, dict) and "schema" in obj and obj["schema"] != SCHEMA:
        raise _UsageError(f"unsupported schema {obj['schema']!r}")
    return obj


def _write(path: str | None, text: str) -> None:
    """Write text atomically to path, or to stdout when no path is given."""
    if not path:
        sys.stdout.write(text)
        return
    d = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".tmp-", suffix=".part")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _document(args, config: dict, **body) -> str:
    """The JSON text of one output document of the running subcommand."""
    doc = {"schema": SCHEMA, "command": args.command, "config": config,
           **body}
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _emit(args, config: dict, **body) -> None:
    _write(args.output, _document(args, config, **body))


def _failed(args, config: dict, exc: Exception) -> int:
    """Report a domain failure as a document; exit code 2."""
    _emit(args, config, status="failed", error=str(exc))
    return 2


def _grid_csv(names, columns) -> str:
    """CSV with one row per sample of the circle grid the columns share."""
    M = len(columns[0])
    lines = [",".join(["index", "angle", *names])]
    for i in range(M):
        vals = ",".join(repr(float(col[i])) for col in columns)
        lines.append(f"{i},{2 * math.pi * i / M!r},{vals}")
    return "\n".join(lines) + "\n"


def _boundary_csv(trace) -> str:
    names = [f"{part}_{j}" for j in range(len(trace)) for part in ("re", "im")]
    return _grid_csv(names, [c for row in trace for c in (row.real, row.imag)])


def _bundle_in(obj: dict):
    ellipsoid = Ellipsoid.from_json(obj["ellipsoid"])
    params = extremal_map.params_from_json(obj["params"])
    return ellipsoid, params


def _problem_in(obj: dict):
    """The two_point or point_direction section as a solver problem."""
    if "two_point" in obj:
        spec = obj["two_point"]
        return solver.TwoPointProblem(tuple(map(unpair, spec["z"])),
                                      tuple(map(unpair, spec["w"])))
    if "point_direction" in obj:
        spec = obj["point_direction"]
        return solver.PointDirectionProblem(tuple(map(unpair, spec["z"])),
                                            tuple(map(unpair, spec["X"])))
    raise _UsageError("input needs a two_point or point_direction section")


def _result_json(res: solver.SolveResult) -> dict:
    return {
        "kind": res.kind,
        "scalar": res.scalar,
        "params": extremal_map.params_to_json(res.params),
        "residuals": {
            "interpolation": res.residuals.interpolation,
            "constraint": res.residuals.constraint,
            "boundary": res.residuals.boundary,
            "boundary_grid": res.residuals.boundary_grid,
        },
        "certified": res.certified,
        "label": res.label,
        "active": list(res.active),
        "dropped": list(res.dropped),
        "alternates": [
            {"pattern": list(pat), "scalar": s} for pat, s in res.alternates
        ],
        "diagnostics": {
            "pattern": list(res.diagnostics.pattern),
            "patterns_tried": res.diagnostics.patterns_tried,
            "starts_tried": res.diagnostics.starts_tried,
            "newton_iterations": res.diagnostics.newton_iterations,
        },
    }


def cmd_eval(args, obj: dict) -> int:
    ellipsoid, params = _bundle_in(obj)
    if args.boundary:
        trace = extremal_map.boundary_trace(params, ellipsoid, args.grid)
        _write(args.output, _boundary_csv(trace))
        return 0
    if args.at is None:
        raise _UsageError("eval needs --at RE,IM or --boundary")
    try:
        re_s, im_s = args.at.split(",")
        lam = complex(float(re_s), float(im_s))
    except ValueError as exc:
        raise _UsageError(f"bad --at value {args.at!r}") from exc
    vals = extremal_map.evaluate(params, ellipsoid, lam)
    _emit(args, {"at": pair(lam)}, values=[pair(v) for v in vals],
          defining_value=ellipsoid.defining_value(vals))
    return 0


def cmd_validate(args, obj: dict) -> int:
    ellipsoid, params = _bundle_in(obj)
    failures = []
    box_ok = True
    try:
        params.check_box()
    except extremal_map.ParameterError as exc:
        box_ok = False
        failures.append({"check": "box", "detail": str(exc)})
    cres = bdef = excluded = None
    if box_ok:
        cres = extremal_map.constraint_residual(params, ellipsoid)
        if cres > args.tol:
            failures.append({"check": "constraint", "value": cres,
                             "tol": args.tol})
        info = extremal_map.boundary_defect_info(params, ellipsoid, args.grid)
        bdef, excluded = info.defect, info.excluded
        if bdef > args.boundary_tol:
            failures.append({"check": "boundary", "value": bdef,
                             "tol": args.boundary_tol})
    passed = not failures
    _emit(args, {"tol": args.tol, "boundary_tol": args.boundary_tol,
                 "grid": args.grid},
          passed=passed, box_ok=box_ok, constraint_residual=cres,
          boundary_defect=bdef, excluded_samples=excluded, failures=failures)
    return 0 if passed else 2


def cmd_solve(args, obj: dict) -> int:
    ellipsoid = Ellipsoid.from_json(obj["ellipsoid"])
    config = solver.SolverConfig(
        seed=args.seed, starts=args.starts,
        interpolation_tol=args.tol, constraint_tol=args.tol,
        boundary_tol=args.boundary_tol, boundary_grid=args.grid,
    )
    echo = {"seed": args.seed, "starts": args.starts, "tol": args.tol,
            "boundary_tol": args.boundary_tol, "grid": args.grid,
            "r_pattern": args.r_pattern}
    problem = _problem_in(obj)
    solve = (solver.solve_two_point
             if isinstance(problem, solver.TwoPointProblem)
             else solver.solve_point_direction)
    try:
        res = solve(ellipsoid, problem, config, r_pattern=args.r_pattern)
    except solver.SolveError as exc:
        return _failed(args, echo, exc)
    _emit(args, echo, status="ok", **_result_json(res))
    return 0


def cmd_factor(args, obj: dict) -> int:
    coeffs = tuple(map(unpair, obj["coefficients"]))
    config = {"tol": args.tol}
    try:
        poly = polyfactor.SelfInversivePoly(coeffs, tol=max(args.tol, 1e-9))
        form = polyfactor.factor(poly, tol=args.tol)
    except (ValueError, polyfactor.FactorError) as exc:
        return _failed(args, config, exc)
    _emit(args, config, status="ok", scale=form.scale,
          zeros=[pair(a) for a in form.zeros])
    return 0


def cmd_fit(args, obj: dict) -> int:
    ellipsoid = Ellipsoid.from_json(obj["ellipsoid"])
    m = int(obj.get("m", args.m))
    samples = np.array([[unpair(v) for v in row] for row in obj["samples"]])
    zeros = [[unpair(v) for v in row] for row in obj["zeros"]]
    config = {"tol": args.tol, "m": m}
    try:
        report = boundary.fit_extremal_family(samples, zeros, ellipsoid, m,
                                              tol=args.tol)
    except boundary.FitPreconditionError as exc:
        return _failed(args, config, exc)
    _emit(args, config,
          status="ok" if report.in_family else "rejected",
          in_family=report.in_family,
          rms_total=report.rms_total,
          rms_by_component=list(report.rms_by_component),
          singular_defect=report.singular_defect,
          constraint_residual=report.constraint_residual,
          u_defect=report.u_defect,
          masked_samples=report.masked,
          params=extremal_map.params_to_json(report.params))
    return 0 if report.in_family else 2


def _spec_to_json(spec: functionals.ProblemSpec) -> dict:
    return {
        "functionals": [
            {
                "nu": f.nu,
                "terms": [
                    {str(s): pair(c) for s, c in table.items()}
                    for table in f.terms
                ],
            }
            for f in spec.functionals
        ],
        "targets": list(spec.targets),
        "band_degree": spec.band_degree,
        "sigma": [pair(s) for s in spec.sigma],
    }


def _spec_from_json(obj: dict) -> functionals.ProblemSpec:
    funcs = []
    for f in obj["functionals"]:
        terms = tuple({int(s): unpair(c) for s, c in table.items()}
                      for table in f["terms"])
        funcs.append(functionals.BoundaryFunctional(terms, float(f["nu"])))
    return functionals.ProblemSpec(
        tuple(funcs), tuple(obj["targets"]),
        int(obj["band_degree"]),
        tuple(map(unpair, obj["sigma"])))


def cmd_functional(args, obj: dict) -> int:
    if "build" in obj:
        spec_in = obj["build"]
        kind = spec_in["kind"]
        z = tuple(map(unpair, spec_in["z"]))
        if kind == "two-point":
            spec = functionals.build_two_point_problem(
                z, tuple(map(unpair, spec_in["w"])),
                float(spec_in["sigma"]))
        elif kind == "point-direction":
            spec = functionals.build_point_direction_problem(
                z, tuple(map(unpair, spec_in["X"])))
        else:
            raise _UsageError(f"unknown build kind {kind!r}")
        _emit(args, {"build": kind}, status="ok",
              problem=_spec_to_json(spec),
              rank=functionals.independence_rank(spec),
              type_defect=functionals.type_defect(spec))
        return 0
    if "evaluate" in obj:
        section = obj["evaluate"]
        spec = _spec_from_json(section["problem"])
        disc = np.array([[unpair(v) for v in row]
                         for row in section["disc"]])
        M = section.get("grid")
        values = [functionals.eval_functional(f, disc, M)
                  for f in spec.functionals]
        mism = max(abs(v - t) for v, t in zip(values, spec.targets))
        _emit(args, {"grid": M}, status="ok", values=values,
              targets=list(spec.targets), max_mismatch=mism)
        return 0
    raise _UsageError("input needs a build or evaluate section")


def cmd_oracle(args, obj: dict) -> int:
    ellipsoid = Ellipsoid.from_json(obj["ellipsoid"])
    problem = _problem_in(obj)
    kind = obj["kind"]
    config = {"kind": kind, "degree": args.degree, "seed": args.seed}
    if kind == "mobius":
        # the closed form reads only the problem, so check it against the
        # ellipsoid here; the other oracles go through solver._intake
        if len(problem.z) != ellipsoid.dim:
            raise ValueError("problem dimension does not match the ellipsoid")
        value, params = solver.mobius_oracle(problem)
        _emit(args, config, status="ok", value=value,
              params=extremal_map.params_to_json(params))
        return 0
    if kind == "ball":
        _emit(args, config, status="ok",
              value=solver.ball_oracle(ellipsoid, problem))
        return 0
    if kind == "brute":
        try:
            res = solver.brute_force_disc(ellipsoid, problem, args.degree,
                                          seed=args.seed)
        except solver.BruteForceError as exc:
            return _failed(args, config, exc)
        _emit(args, config, status="ok", value=res.value,
              degree=res.degree, certified_sup_u=res.certified_sup_u,
              numerator=[[pair(c) for c in row] for row in res.numerator],
              denominator_zeros=[pair(b) for b in res.denominator_zeros])
        return 0
    raise _UsageError(f"unknown oracle kind {kind!r}")


def cmd_plot_data(args, obj: dict) -> int:
    ellipsoid, params = _bundle_in(obj)
    M = args.grid
    trace = extremal_map.boundary_trace(params, ellipsoid, M)
    os.makedirs(args.output, exist_ok=True)
    _write(os.path.join(args.output, "boundary.csv"), _boundary_csv(trace))
    finite = np.all(np.isfinite(trace), axis=0)
    u = np.full(M, float("nan"))
    u[finite] = ellipsoid.defining_values(trace[:, finite])
    _write(os.path.join(args.output, "residual.csv"), _grid_csv(["u"], [u]))
    _write(os.path.join(args.output, "manifest.json"),
           _document(args, {"grid": M},
                     files=["boundary.csv", "residual.csv"]))
    return 0


def _build_parser() -> _Parser:
    parser = _Parser(prog="ellipsogeo",
                     description="extremal discs in complex ellipsoids")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--input", required=True)
        sp.add_argument("--output", default=None)

    sp = sub.add_parser("eval", help="evaluate a parametrized map")
    common(sp)
    sp.add_argument("--at", default=None, metavar="RE,IM")
    sp.add_argument("--boundary", action="store_true")
    sp.add_argument("--grid", type=int, default=512)
    sp.set_defaults(func=cmd_eval)

    sp = sub.add_parser("validate", help="check family invariants")
    common(sp)
    sp.add_argument("--tol", type=_tolerance, default=1e-10)
    sp.add_argument("--boundary-tol", type=_tolerance, default=1e-8)
    sp.add_argument("--grid", type=int, default=512)
    sp.set_defaults(func=cmd_validate)

    sp = sub.add_parser("solve", help="solve an extremal problem")
    common(sp)
    sp.add_argument("--tol", type=_tolerance, default=1e-9)
    sp.add_argument("--boundary-tol", type=_tolerance, default=1e-8)
    sp.add_argument("--grid", type=int, default=512)
    sp.add_argument("--starts", type=int, default=8)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--r-pattern", default=None)
    sp.set_defaults(func=cmd_solve)

    sp = sub.add_parser("factor", help="factor a self-inversive polynomial")
    common(sp)
    sp.add_argument("--tol", type=_tolerance, default=1e-6)
    sp.set_defaults(func=cmd_factor)

    sp = sub.add_parser("fit", help="fit boundary data to the family")
    common(sp)
    sp.add_argument("--tol", type=_tolerance, default=1e-6)
    sp.add_argument("--m", type=int, default=1)
    sp.set_defaults(func=cmd_fit)

    sp = sub.add_parser("functional", help="build or evaluate functionals")
    common(sp)
    sp.set_defaults(func=cmd_functional)

    sp = sub.add_parser("oracle", help="closed-form and brute-force bounds")
    common(sp)
    sp.add_argument("--degree", type=int, default=2)
    sp.add_argument("--seed", type=int, default=0)
    sp.set_defaults(func=cmd_oracle)

    sp = sub.add_parser("plot-data", help="dump boundary grids as CSV")
    sp.add_argument("--input", required=True)
    sp.add_argument("--output", required=True)
    sp.add_argument("--grid", type=int, default=512)
    sp.set_defaults(func=cmd_plot_data)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args, _load_json(args.input))
    except (_UsageError, OSError, KeyError, TypeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
