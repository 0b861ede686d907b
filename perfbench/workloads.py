"""The four benchmark workloads: instances, timed operations and checks.

Every workload is a closed loop with one client and one operation in
flight.  An operation is one call into the package (or one CLI process);
its check runs after the clock stops and names the instance and the
reason when it fails.

A workload is run in whole passes over its instance list, so every run
of a workload times the same mix of instances and the median does not
depend on where the clock happened to stop.

Seeds.  `--seed` makes all inputs.  Geodesic instances are fixed
problems from the classes below, moved by a seeded rotation
z_j -> exp(i theta_j) z_j (applied to both data).  The rotations are
automorphisms of every E(p), so the extremal scalar is the same for all
seeds and can be checked against the value stored from the commit that
introduced this benchmark (`references.json`), while the solver still
receives different numbers for each seed.  Competitor instances are
fixed (see there).  Family inputs come from a fixed pool that the
seed orders (see there).  CLI inputs are drawn from the seed.

Sizing noise, for reading the bounds in BENCHMARK.json: on a 2-core
machine one convex solve varied from 0.64 to 0.91 s across back-to-back
calls, and the same 4 competitor calls took 16.2 s in one pass and
19.2 s in the next.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

from ellipsogeo import (boundary, cli, extremal_map, functionals, polyfactor,
                        solver)
from ellipsogeo.ellipsoid import Ellipsoid

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

with open(os.path.join(HERE, "references.json"), encoding="utf-8") as _fh:
    REFERENCES = json.load(_fh)

GATES = solver.SolverConfig()   # the solver's own validation gates

# Failures the package shows at the commit that introduced this benchmark,
# by workload, instance and reason prefix.  They are counted in `failed`
# and listed like every other failure; a run is reported incorrect only
# when a failure matches none of them.
#   family: `polyfactor.factor` misses the 1e-8 round trip (errors up to
#   about 3e-3) on about 0.5% of products with a repeated unimodular zero
#   (17 of 3000 drawn as in `family_op`); acceptance 2 draws such products
#   rarely.  In the fixed family pool this is one member,
#   family-n3-m3#65 (error 2.4e-4), so every pass fails exactly once.
KNOWN_FAILURES = {
    "family": {"family-n3-m3#65": "factor round trip error"},
}


def known_failure(workload: str, instance: str, reason: str) -> bool:
    known = KNOWN_FAILURES.get(workload, {}).get(instance)
    return known is not None and reason.startswith(known)


@dataclass
class Op:
    """One timed call and the check of its result."""

    instance: str
    run: Callable[[], object]
    check: Callable[[object], str | None]   # failure reason, or None


@dataclass
class Plan:
    warmup: Op
    next_pass: Callable[[], list[Op]]
    # cli only: the commands, and the peak RSS over all child processes
    commands: tuple = ()
    child_rss_mb: Callable[[], float] | None = None


def rotations(rng: np.random.Generator, n: int) -> np.ndarray:
    return np.exp(1j * rng.uniform(0.0, 2.0 * math.pi, n))


def problem(kind: str, z, second):
    if kind == "tp":
        return solver.TwoPointProblem(tuple(z), tuple(second))
    return solver.PointDirectionProblem(tuple(z), tuple(second))


# ---------------------------------------------------------------------------
# geodesic: solve_two_point / solve_point_direction in process
#
# Why: the Newton search is about 99% of solve time, so exact-Jacobian
# and search-order changes show here.  Convex early exit should cut the
# convex share; the non-convex share is what early exit must leave alone.
# Both problem kinds are present so that merging the two residual
# builders cannot speed one kind by slowing the other.  The two n = 3
# classes appear with one kind each, so a pass fits in one run; the
# n = 2 classes appear with both, so the median falls among many
# operations of similar cost rather than on one.

BASE_Z = (0.1, 0.2 + 0.1j)          # the baseline instance of the roadmap
BASE_W = (0.3 - 0.1j, 0.1)

GEODESIC = (
    # id, exponents, kind, z, w or X
    ("n1-tp", (1.0,), "tp", (0.2 + 0.1j,), (-0.3 + 0.5j,)),
    ("n1-pd", (2.5,), "pd", (0.3 - 0.2j,), (0.5 + 0.4j,)),
    ("ball2-tp", (1.0, 1.0), "tp", (0.1, 0.2j), (0.3, -0.1)),
    ("ball2-pd", (1.0, 1.0), "pd", (0.1, 0.2j), (0.3, -0.1)),
    ("ball3-pd", (1.0, 1.0, 1.0), "pd", (0.1, 0.2j, 0.1), (0.3, -0.1, 0.05j)),
    ("p12-baseline-tp", (1.0, 2.0), "tp", BASE_Z, BASE_W),
    ("p12-pd", (1.0, 2.0), "pd", BASE_Z, BASE_W),
    ("p0.6-3-tp", (0.6, 3.0), "tp", (0.1, 0.2j), (0.3, -0.1)),
    ("p0.6-3-pd", (0.6, 3.0), "pd", (0.1, 0.2j), (0.3, -0.1)),
    ("p0.5-1.5-tp", (0.5, 1.5), "tp", (0.1, 0.2j), (0.3, -0.1)),
    ("p0.5-1.5-pd", (0.5, 1.5), "pd", (0.1, 0.2j), (0.3, -0.1)),
    ("p123-tp", (1.0, 2.0, 3.0), "tp", (0.1, 0.2j, 0.1), (0.3, -0.1, 0.05j)),
    ("nonconvex-0.3-1-tp", (0.3, 1.0), "tp", (0.05, 0.2j), (0.1, -0.1)),
    ("nonconvex-0.3-1-pd", (0.3, 1.0), "pd", (0.05, 0.2j), (0.1, -0.1)),
    ("nonconvex-0.4-2-tp", (0.4, 2.0), "tp", (0.05, 0.2j), (0.1, -0.1)),
    ("nonconvex-0.4-2-pd", (0.4, 2.0), "pd", (0.05, 0.2j), (0.1, -0.1)),
    ("zero-z-tp", (1.0, 2.0), "tp", (0.0, 0.0), (0.2, 0.3)),
    ("tiny-z-tp", (1.0, 2.0), "tp", (1e-14, 0.0), (0.2, 0.3)),
    ("vanishing-component-tp", (1.0, 2.0), "tp", (0.1, 0.0), (0.3, 0.0)),
)


def solve(kind: str, ellipsoid: Ellipsoid, prob):
    if kind == "tp":
        return solver.solve_two_point(ellipsoid, prob)
    return solver.solve_point_direction(ellipsoid, prob)


def check_solve(kind, ellipsoid, prob, ref, res) -> str | None:
    """Gates recomputed through public functions, then the scalar."""
    z = np.asarray(prob.z)[list(res.active)]
    tg = np.asarray(prob.w if kind == "tp" else prob.X)[list(res.active)]
    sub = Ellipsoid(tuple(ellipsoid.exponents[j] for j in res.active))
    p0 = extremal_map.evaluate(res.params, sub, 0.0)
    if kind == "tp":
        p1 = extremal_map.evaluate(res.params, sub, res.scalar)
        interp = max(np.max(np.abs(p0 - z)), np.max(np.abs(p1 - tg)))
    else:
        d0 = extremal_map.derivative(res.params, sub, 0.0)
        interp = max(np.max(np.abs(p0 - z)),
                     np.max(np.abs(d0 - res.scalar * tg)))
    cres = extremal_map.constraint_residual(res.params, sub)
    bdef = extremal_map.boundary_defect(res.params, sub, GATES.boundary_grid)
    if interp > GATES.interpolation_tol:
        return f"interpolation residual {interp:.3e}"
    if cres > GATES.constraint_tol:
        return f"tying residual {cres:.3e}"
    if bdef > GATES.boundary_tol:
        return f"boundary defect {bdef:.3e}"
    if ellipsoid.dim == 1:
        want, tol, what = solver.mobius_oracle(prob)[0], 1e-8, "Mobius oracle"
    elif kind == "tp" and all(p == 1.0 for p in ellipsoid.exponents):
        want, tol, what = solver.ball_oracle(ellipsoid, prob), 1e-6, \
            "ball oracle"
    else:
        # 1e-7 is the solver's own tolerance for equal candidates
        want, tol, what = ref, 1e-7, "stored scalar"
    if not abs(res.scalar - want) <= tol:
        return f"scalar {res.scalar!r} vs {what} {want!r} (tol {tol:.0e})"
    return None


def geodesic_plan(seed: int, workdir: str) -> Plan:
    rng = np.random.default_rng(seed)
    ops = []
    for iid, p, kind, z, second in GEODESIC:
        rot = rotations(rng, len(p))
        E = Ellipsoid(p)
        prob = problem(kind, np.asarray(z) * rot, np.asarray(second) * rot)
        ref = REFERENCES["geodesic"][iid]
        ops.append(Op(iid,
                      lambda k=kind, E=E, q=prob: solve(k, E, q),
                      lambda r, k=kind, E=E, q=prob, ref=ref:
                      check_solve(k, E, q, ref, r)))
    return Plan(warmup=ops[0], next_pass=lambda: ops)


# ---------------------------------------------------------------------------
# competitor: brute_force_disc only, in process
#
# Why: the competitor is about 85% of Tier-1 time, and L-BFGS on the
# hinge objective is nearly all of one call.  Vectorising cost_grad, a
# single bisection and a bracket hint show here, as does the cost of
# rigorous certification.  The timed operation contains no Newton solve:
# the solver values it is checked against are stored in references.json.
# Above dimension 1 each class appears with one kind only (both kinds
# are covered), so a pass fits in one run.
#
# These inputs are not rotated by the seed: the competitor's random
# L-BFGS starts are not rotation-equivariant, so a rotated instance takes
# a different path.  Over seeds 11-15 the objective evaluations of
# p12-d4-pd ranged from 7116 to 11615, which alone would swamp the
# bounds.  The seed only orders the pass.

COMPETITOR = (
    # id, exponents, kind, z, w or X, degree, stored solver reference
    ("n1-d2-pd", (1.0,), "pd", (0.2,), (0.5j,), 2, None),
    ("n1-d2-tp", (1.0,), "tp", (0.2,), (0.5j,), 2, None),
    ("ball2-d3-pd", (1.0, 1.0), "pd", (0.1, 0.2j), (0.3, -0.1), 3,
     "ball2-pd"),
    ("p12-baseline-d3-tp", (1.0, 2.0), "tp", BASE_Z, BASE_W, 3,
     "p12-baseline-tp"),
    ("p12-d4-pd", (1.0, 2.0), "pd", BASE_Z, BASE_W, 4, "p12-pd"),
)

COMPETITOR_MARGIN = 1e-4   # acceptance tolerance against solver and oracle


def check_brute(kind, prob, ref, res) -> str | None:
    if not res.certified_sup_u <= 0.0:
        return f"certified_sup_u {res.certified_sup_u:.3e} > 0"
    if ref is None:
        want = solver.mobius_oracle(prob)[0]
        if not abs(res.value - want) <= COMPETITOR_MARGIN:
            return f"value {res.value!r} vs Mobius oracle {want!r}"
        return None
    # two-point: smaller sigma is better; point-direction: larger t
    beat = ref - res.value if kind == "tp" else res.value - ref
    if not beat < COMPETITOR_MARGIN:
        return f"competitor {res.value!r} beats solver {ref!r} by {beat:.3e}"
    return None


def competitor_plan(seed: int, workdir: str) -> Plan:
    ops = []
    for iid, p, kind, z, second, degree, ref_id in COMPETITOR:
        E = Ellipsoid(p)
        prob = problem(kind, np.asarray(z), np.asarray(second))
        ref = REFERENCES["geodesic"][ref_id] if ref_id else None
        ops.append(Op(iid,
                      lambda E=E, q=prob, d=degree:
                      solver.brute_force_disc(E, q, d),
                      lambda r, k=kind, q=prob, ref=ref:
                      check_brute(k, q, ref, r)))
    order = np.random.default_rng(seed).permutation(len(ops))
    return Plan(warmup=ops[0], next_pass=lambda: [ops[i] for i in order])


# ---------------------------------------------------------------------------
# family: one round-trip on a seeded random family member
#
# Why: family evaluation here works on large vectorised grids and carries
# the factor, fit and functional layers, whereas `geodesic` evaluates the
# family only at a few scalar points.  An `_eval_components` change tuned
# for one regime that costs the other shows as a regression on one of
# these two workloads.
#
# The members come from one fixed pool (FAMILY_POOL_SEED), the same in
# every run, and so do the factor and readout inputs of each member;
# `--seed` only orders the pool.  Factor inputs drawn from `--seed` would
# make the failure count depend on the seed (see KNOWN_FAILURES: 4 of
# 2112 operations failed over one set of seeds and 5 over another); with
# them fixed, every pass meets the same failing member.
# Members drawn from `--seed` made ops_per_s
# swing by half between seeds: a few members in a few hundred (4 of the
# first 260 drawn from seed 13) need 200-1000 LM evaluations in the fit
# (0.7-2.5 s, against a 0.05 s median), and how many of them a run met
# decided its throughput.  The pool's slowest fit takes 151 LM
# evaluations, so that rare tail is not part of this workload.

FAMILY_POOL_SEED = 0
FAMILY_MEMBERS = 192    # one pass, 10-20 s on a 2-core machine


@dataclass
class FamilyResult:
    params: object
    info512: object
    info8192: object
    fit: object
    form: object
    values: list
    spec: object


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


def disc_point(rng, rmax):
    return rmax * math.sqrt(rng.uniform()) * \
        complex(np.exp(1j * rng.uniform(0.0, 2.0 * math.pi)))


def family_members() -> list[tuple]:
    """(index, n, m, exponents, member seed) of every pool member."""
    rng = np.random.default_rng(FAMILY_POOL_SEED)
    out = []
    for index in range(FAMILY_MEMBERS):
        n = int(rng.integers(1, 5))
        m = int(rng.integers(1, 5))
        p = tuple(float(v) for v in rng.uniform(0.6, 2.8, n))
        out.append((index, n, m, p, int(rng.integers(2 ** 63))))
    return out


def family_op(member: tuple) -> Op:
    index, n, m, p, member_seed = member
    E = Ellipsoid(p)
    rng = np.random.default_rng([FAMILY_POOL_SEED, index])
    # a product with a repeated unimodular zero (m + 1 >= 2 zeros)
    u = complex(np.exp(1j * rng.uniform(0.0, 2.0 * math.pi)))
    zeros = [u, u] + [disc_point(rng, 0.9) for _ in range(m - 1)]
    scale = float(rng.uniform(0.2, 3.0))
    coeffs = tuple(polyfactor.expand_circle_product(scale, zeros))
    deg = int(rng.integers(1, 7))
    h = rng.uniform(-1, 1, (n, deg + 1)) + 1j * rng.uniform(-1, 1, (n, deg + 1))
    # a random direction: phi'(0) vanishes identically when n = 1
    X = np.array([disc_point(rng, 1.0) + 0.2 for _ in range(n)])

    def run():
        params = extremal_map.random_valid_params(
            np.random.default_rng(member_seed), p, m)
        info512 = extremal_map.boundary_defect_info(params, E, 512)
        info8192 = extremal_map.boundary_defect_info(params, E, 8192)
        trace = extremal_map.boundary_trace(params, E, 256)
        fit = boundary.fit_extremal_family(
            trace, extremal_map.component_zeros(params), E, m)
        form = polyfactor.factor(polyfactor.SelfInversivePoly(coeffs))
        spec = functionals.build_point_direction_problem(
            extremal_map.evaluate(params, E, 0.0), X)
        values = [functionals.eval_functional(f, h) for f in spec.functionals]
        return FamilyResult(params, info512, info8192, fit, form, values, spec)

    def check(r: FamilyResult) -> str | None:
        # acceptance thresholds 1, 2, 6 and 7 of the package's test suite
        cres = extremal_map.constraint_residual(r.params, E)
        worst_b = max(r.info512.defect, r.info8192.defect)
        if not (worst_b < 1e-9 and cres < 1e-12):
            return f"family: boundary {worst_b:.3e}, constraint {cres:.3e}"
        err = max(abs(r.form.scale - scale),
                  greedy_pair_error(r.form.zeros, zeros))
        if not err < 1e-8:
            return f"factor round trip error {err:.3e}"
        if not (r.fit.in_family and r.fit.rms_total < 1e-6
                and r.fit.singular_defect < 1e-6):
            return (f"fit: in_family={r.fit.in_family} rms "
                    f"{r.fit.rms_total:.3e} singular {r.fit.singular_defect:.3e}")
        truth = np.concatenate([h[:, 0].real, h[:, 0].imag,
                                h[:, 1].real, h[:, 1].imag])
        read = float(np.max(np.abs(np.asarray(r.values) - truth)))
        moved = max(abs(functionals.eval_functional(
            functionals.BoundaryFunctional(f.terms, 0.7), h) - v)
            for f, v in zip(r.spec.functionals, r.values))
        if not (read < 1e-12 and moved < 1e-10):
            return f"readout error {read:.3e}, radius dependence {moved:.3e}"
        return None

    return Op(f"family-n{n}-m{m}#{index}", run, check)


def family_plan(seed: int, workdir: str) -> Plan:
    rng = np.random.default_rng(seed)
    ops = [family_op(member) for member in family_members()]
    return Plan(warmup=ops[0],
                next_pass=lambda: [ops[i] for i in rng.permutation(len(ops))])


# ---------------------------------------------------------------------------
# cli: `python -m ellipsogeo.cli` as a fresh child process, one at a time
#
# Why: about 0.9 s of the roughly 1 s process time is interpreter start
# plus imports (scipy.optimize alone is about 0.66 s).  This is the only
# workload where lazy imports can show, and compute-side optimisations
# should leave it unchanged.


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    return env


def run_child(argv: list[str]) -> tuple[int, float, bytes]:
    """Run one child to completion: (exit code, peak RSS in MB, stderr)."""
    with open(os.devnull, "wb") as null, \
            subprocess.Popen([sys.executable, *argv], stdout=null,
                             stderr=subprocess.PIPE, env=child_env(),
                             cwd=ROOT) as proc:
        err = proc.stderr.read()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage.ru_maxrss / 1024.0, err


def _pairs(values) -> list:
    return [[float(np.real(v)), float(np.imag(v))] for v in values]


def _write_json(path: str, obj) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh)


def _read_bytes(path: str) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


def _read_output(path: str) -> dict[str, bytes]:
    """The bytes of an output file, or of every file in an output dir."""
    if os.path.isdir(path):
        return {name: _read_bytes(os.path.join(path, name))
                for name in sorted(os.listdir(path))}
    return {"": _read_bytes(path)}


def _remove_output(path: str) -> None:
    if os.path.isdir(path):
        shutil.rmtree(path)
    elif os.path.exists(path):
        os.remove(path)


def _parsed(files: dict[str, bytes]):
    """JSON outputs as values; CSV outputs stay bytes."""
    return {k: (json.loads(v) if v.startswith(b"{") else v)
            for k, v in files.items()}


def cli_inputs(seed: int, workdir: str) -> list[tuple[str, list[str]]]:
    """Write the seeded input files; return (instance id, argv) pairs."""
    rng = np.random.default_rng(seed)

    def path(name):
        return os.path.join(workdir, name)

    p = tuple(float(v) for v in rng.uniform(0.6, 2.8, 2))
    E = Ellipsoid(p)
    params = extremal_map.random_valid_params(rng, p, 1)
    _write_json(path("bundle.json"), {"ellipsoid": E.to_json(),
                                      "params": extremal_map.params_to_json(
                                          params)})
    zeros = [disc_point(rng, 0.9) for _ in range(2)]
    scale = float(rng.uniform(0.2, 3.0))
    _write_json(path("poly.json"), {"coefficients": _pairs(
        polyfactor.expand_circle_product(scale, zeros))})
    trace = extremal_map.boundary_trace(params, E, 64)
    _write_json(path("fit.json"), {
        "ellipsoid": E.to_json(), "m": 1,
        "samples": [_pairs(row) for row in trace],
        "zeros": [_pairs(zl) for zl in extremal_map.component_zeros(params)]})
    z = [disc_point(rng, 0.5) for _ in range(2)]
    X = [disc_point(rng, 1.0) + 0.2 for _ in range(2)]
    _write_json(path("build.json"), {"build": {
        "kind": "point-direction", "z": _pairs(z), "X": _pairs(X)}})
    if cli.main(["functional", "--input", path("build.json"),
                 "--output", path("built.json")]) != 0:
        raise RuntimeError("functional build failed on the generated input")
    with open(path("built.json"), encoding="utf-8") as fh:
        built = json.load(fh)
    disc = rng.uniform(-1, 1, (2, 4)) + 1j * rng.uniform(-1, 1, (2, 4))
    _write_json(path("evaluate.json"), {"evaluate": {
        "problem": built["problem"],
        "disc": [_pairs(row) for row in disc]}})
    z1, w1 = disc_point(rng, 0.8), disc_point(rng, 0.8)
    disc_problem = {"ellipsoid": {"p": [1.0]},
                    "two_point": {"z": _pairs([z1]), "w": _pairs([w1])}}
    _write_json(path("mobius.json"), {"kind": "mobius", **disc_problem})
    _write_json(path("solve.json"), disc_problem)
    ball = Ellipsoid((1.0, 1.0))
    # |z_j| <= 0.6 keeps both points inside the ball
    zb = [disc_point(rng, 0.6) for _ in range(2)]
    wb = [disc_point(rng, 0.6) for _ in range(2)]
    _write_json(path("ball.json"), {
        "kind": "ball", "ellipsoid": ball.to_json(),
        "two_point": {"z": _pairs(zb), "w": _pairs(wb)}})
    return [
        ("eval-point", ["eval", "--input", path("bundle.json"),
                        "--at", "0.3,0.1"]),
        ("eval-boundary", ["eval", "--input", path("bundle.json"),
                           "--boundary", "--grid", "64"]),
        ("validate", ["validate", "--input", path("bundle.json")]),
        ("factor", ["factor", "--input", path("poly.json")]),
        ("fit", ["fit", "--input", path("fit.json")]),
        ("functional-build", ["functional", "--input", path("build.json")]),
        ("functional-evaluate", ["functional", "--input",
                                 path("evaluate.json")]),
        ("oracle-mobius", ["oracle", "--input", path("mobius.json")]),
        ("oracle-ball", ["oracle", "--input", path("ball.json")]),
        ("solve-n1", ["solve", "--input", path("solve.json")]),
        ("plot-data", ["plot-data", "--input", path("bundle.json"),
                       "--grid", "64"]),
    ]


@dataclass
class CliResult:
    code: int
    stderr: bytes
    files: dict


def cli_plan(seed: int, workdir: str) -> Plan:
    commands = cli_inputs(seed, workdir)
    refs = {}
    for iid, argv in commands:
        out = os.path.join(workdir, f"ref-{iid}")
        code = cli.main([*argv, "--output", out])
        if code != 0:
            raise RuntimeError(f"in-process reference for {iid} exited {code}")
        refs[iid] = _parsed(_read_output(out))
    first: dict[str, dict] = {}
    peak = [0.0]

    def make(iid, argv):
        out = os.path.join(workdir, f"out-{iid}")

        def run():
            code, rss, err = run_child(["-m", "ellipsogeo.cli", *argv,
                                        "--output", out])
            peak[0] = max(peak[0], rss)
            files = _read_output(out) if code == 0 else {}
            _remove_output(out)   # a later run must write its own output
            return CliResult(code, err, files)

        def check(r: CliResult) -> str | None:
            if r.code != 0:
                return f"exit code {r.code}: {r.stderr[-200:]!r}"
            if _parsed(r.files) != refs[iid]:
                return "output differs from the in-process reference"
            if first.setdefault(iid, r.files) != r.files:
                return "output not byte-identical to the first run"
            return None

        return Op(iid, run, check)

    ops = [make(iid, argv) for iid, argv in commands]
    return Plan(warmup=ops[0], next_pass=lambda: ops,
                commands=tuple(commands), child_rss_mb=lambda: peak[0])


PLANS = {
    "geodesic": geodesic_plan,
    "competitor": competitor_plan,
    "family": family_plan,
    "cli": cli_plan,
}


def median_child_seconds(argv: list[str], repeats: int) -> float:
    """Median wall time of a short child process (cli.* probes)."""
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        code, _, err = run_child(argv)
        times.append(time.perf_counter() - t0)
        if code != 0:
            raise RuntimeError(f"probe {argv} exited {code}: {err[-200:]!r}")
    return float(np.median(times))
