"""End-to-end command line checks run through a real subprocess."""

import json
import subprocess
import sys

import numpy as np
import pytest

from ellipsogeo import cli
from ellipsogeo.extremal_map import params_to_json
import ellipsogeo.extremal_map as em
from ellipsogeo.ellipsoid import Ellipsoid


def run_cli(*argv, cwd=None):
    proc = subprocess.run(
        [sys.executable, "-m", "ellipsogeo.cli", *argv],
        capture_output=True, text=True, cwd=cwd)
    return proc


def write_json(path, obj):
    path.write_text(json.dumps(obj) + "\n", encoding="utf-8")


def flat_bundle():
    p = (1.0, 2.0)
    E = Ellipsoid(p)
    a = np.array([np.sqrt(0.5), 0.5 ** 0.25])
    params = em.ExtremalMapParams(
        m=1, n=2, a=a,
        alpha0=np.zeros(1, dtype=complex),
        alpha=np.zeros((1, 2), dtype=complex),
        r=np.ones((1, 2), dtype=int))
    return {"ellipsoid": E.to_json(), "params": params_to_json(params)}


def test_solve_reports_schwarz_pick_value(tmp_path):
    inp = tmp_path / "prob.json"
    out = tmp_path / "res.json"
    write_json(inp, {
        "ellipsoid": {"p": [1.0]},
        "two_point": {"z": [[0.2, 0.0]], "w": [[0.6, 0.0]]},
    })
    proc = run_cli("solve", "--input", str(inp), "--output", str(out))
    assert proc.returncode == 0, proc.stderr
    res = json.loads(out.read_text())
    assert res["status"] == "ok"
    assert res["scalar"] == pytest.approx(0.4 / 0.88, abs=1e-8)
    assert res["residuals"]["constraint"] < 1e-9
    assert res["config"]["seed"] == 0


def test_solve_then_validate_round_trip(tmp_path):
    inp = tmp_path / "prob.json"
    out = tmp_path / "res.json"
    write_json(inp, {
        "ellipsoid": {"p": [1.0, 2.0]},
        "two_point": {"z": [[0.0, 0.0], [0.0, 0.0]],
                      "w": [[0.2, 0.0], [0.3, 0.0]]},
    })
    proc = run_cli("solve", "--input", str(inp), "--output", str(out))
    assert proc.returncode == 0, proc.stderr
    res = json.loads(out.read_text())
    bundle = tmp_path / "bundle.json"
    write_json(bundle, {"ellipsoid": {"p": [1.0, 2.0]},
                        "params": res["params"]})
    check = run_cli("validate", "--input", str(bundle))
    assert check.returncode == 0, check.stderr
    rep = json.loads(check.stdout)
    assert rep["passed"] is True
    assert rep["constraint_residual"] < 1e-9


def test_factor_reports_scale_and_zeros(tmp_path):
    inp = tmp_path / "poly.json"
    write_json(inp, {"coefficients": [[-0.5, 0.0], [1.25, 0.0], [-0.5, 0.0]]})
    proc = run_cli("factor", "--input", str(inp))
    assert proc.returncode == 0, proc.stderr
    res = json.loads(proc.stdout)
    assert res["scale"] == pytest.approx(1.0, abs=1e-9)
    assert len(res["zeros"]) == 1
    assert res["zeros"][0] == pytest.approx([0.5, 0.0], abs=1e-9)


def test_factor_rejects_sign_changing_input(tmp_path):
    inp = tmp_path / "poly.json"
    write_json(inp, {"coefficients": [[0.5, 0.0], [-1.25, 0.0], [0.5, 0.0]]})
    proc = run_cli("factor", "--input", str(inp))
    assert proc.returncode == 2
    assert json.loads(proc.stdout)["status"] == "failed"


def test_validate_passes_flat_member(tmp_path):
    inp = tmp_path / "bundle.json"
    write_json(inp, flat_bundle())
    proc = run_cli("validate", "--input", str(inp))
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["passed"] is True


def test_validate_fails_broken_member(tmp_path):
    bundle = flat_bundle()
    bundle["params"]["a"] = [[0.9, 0.0], [0.9, 0.0]]
    inp = tmp_path / "bundle.json"
    write_json(inp, bundle)
    proc = run_cli("validate", "--input", str(inp))
    assert proc.returncode == 2
    rep = json.loads(proc.stdout)
    assert rep["passed"] is False
    assert any(f["check"] == "constraint" for f in rep["failures"])


def test_eval_reads_interior_point(tmp_path):
    inp = tmp_path / "bundle.json"
    write_json(inp, flat_bundle())
    proc = run_cli("eval", "--input", str(inp), "--at", "0.3,0.0")
    assert proc.returncode == 0, proc.stderr
    res = json.loads(proc.stdout)
    want = [np.sqrt(0.5) * 0.3, 0.5 ** 0.25 * 0.3]
    got = [v[0] for v in res["values"]]
    assert got == pytest.approx(want, abs=1e-12)
    assert res["defining_value"] < 0


def test_eval_boundary_csv_header(tmp_path):
    inp = tmp_path / "bundle.json"
    write_json(inp, flat_bundle())
    proc = run_cli("eval", "--input", str(inp), "--boundary", "--grid", "16")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    assert lines[0] == "index,angle,re_0,im_0,re_1,im_1"
    assert len(lines) == 17
    for line in lines[1:]:
        cells = line.split(",")
        assert len(cells) == 6
        [float(c) for c in cells]  # every cell must parse as a number


def test_plot_data_emits_three_files(tmp_path):
    inp = tmp_path / "bundle.json"
    write_json(inp, flat_bundle())
    outdir = tmp_path / "plots"
    proc = run_cli("plot-data", "--input", str(inp),
                   "--output", str(outdir), "--grid", "32")
    assert proc.returncode == 0, proc.stderr
    names = sorted(f.name for f in outdir.iterdir())
    assert names == ["boundary.csv", "manifest.json", "residual.csv"]
    manifest = json.loads((outdir / "manifest.json").read_text())
    assert manifest["files"] == ["boundary.csv", "residual.csv"]
    res_lines = (outdir / "residual.csv").read_text().strip().splitlines()
    assert res_lines[0] == "index,angle,u"
    # flat member sits on the boundary: all u values at roundoff
    for line in res_lines[1:]:
        assert abs(float(line.split(",")[2])) < 1e-12


def test_eval_boundary_matches_plot_data(tmp_path):
    inp = tmp_path / "bundle.json"
    write_json(inp, flat_bundle())
    proc = run_cli("eval", "--input", str(inp), "--boundary", "--grid", "32")
    assert proc.returncode == 0, proc.stderr
    outdir = tmp_path / "plots"
    assert run_cli("plot-data", "--input", str(inp), "--output", str(outdir),
                   "--grid", "32").returncode == 0
    assert proc.stdout == (outdir / "boundary.csv").read_text()


def test_oracle_mobius_point_direction(tmp_path):
    inp = tmp_path / "prob.json"
    write_json(inp, {
        "kind": "mobius",
        "ellipsoid": {"p": [1.0]},
        "point_direction": {"z": [[0.3, 0.4]], "X": [[0.0, 2.0]]},
    })
    proc = run_cli("oracle", "--input", str(inp))
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["value"] == \
        pytest.approx((1 - 0.25) / 2.0, abs=1e-15)


def test_oracle_mobius_refuses_a_dimension_mismatch(tmp_path, capsys):
    inp = tmp_path / "prob.json"
    write_json(inp, {
        "kind": "mobius",
        "ellipsoid": {"p": [1.0, 2.0]},
        "two_point": {"z": [[0.2, 0.0]], "w": [[0.6, 0.0]]},
    })
    assert cli.main(["oracle", "--input", str(inp)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: problem dimension does not match the "
                            "ellipsoid\n")


def test_oracle_kinds(tmp_path):
    inp = tmp_path / "prob.json"
    write_json(inp, {
        "kind": "mobius",
        "ellipsoid": {"p": [1.0]},
        "two_point": {"z": [[0.0, 0.0]], "w": [[0.5, 0.0]]},
    })
    proc = run_cli("oracle", "--input", str(inp))
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["value"] == pytest.approx(0.5, abs=1e-12)

    write_json(inp, {
        "kind": "ball",
        "ellipsoid": {"p": [1.0, 1.0]},
        "two_point": {"z": [[0.0, 0.0], [0.0, 0.0]],
                      "w": [[0.3, 0.0], [0.4, 0.0]]},
    })
    proc = run_cli("oracle", "--input", str(inp))
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["value"] == pytest.approx(0.5, abs=1e-12)

    write_json(inp, {
        "kind": "brute",
        "ellipsoid": {"p": [1.0]},
        "two_point": {"z": [[0.0, 0.0]], "w": [[0.5, 0.0]]},
    })
    proc = run_cli("oracle", "--input", str(inp), "--degree", "1")
    assert proc.returncode == 0, proc.stderr
    res = json.loads(proc.stdout)
    assert res["value"] == pytest.approx(0.5, abs=1e-5)
    assert res["certified_sup_u"] <= 0.0


def test_functional_build_and_evaluate(tmp_path):
    inp = tmp_path / "req.json"
    write_json(inp, {
        "build": {"kind": "point-direction",
                  "z": [[0.0, 0.0]], "X": [[1.0, 0.0]]},
    })
    proc = run_cli("functional", "--input", str(inp))
    assert proc.returncode == 0, proc.stderr
    built = json.loads(proc.stdout)
    assert built["rank"] == 4
    assert built["type_defect"] == 0.0
    write_json(inp, {
        "evaluate": {"problem": built["problem"],
                     "disc": [[[0.0, 0.0], [1.0, 0.0]]]},
    })
    proc = run_cli("functional", "--input", str(inp))
    assert proc.returncode == 0, proc.stderr
    res = json.loads(proc.stdout)
    assert res["values"] == pytest.approx([0.0, 0.0, 1.0, 0.0], abs=1e-12)
    assert res["max_mismatch"] < 1e-12


def test_usage_errors_exit_one(tmp_path):
    assert run_cli("solve").returncode == 1
    assert run_cli("nonsense").returncode == 1
    assert run_cli("solve", "--input", str(tmp_path / "nope.json")
                   ).returncode == 1
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    assert run_cli("solve", "--input", str(bad)).returncode == 1
    # structurally valid JSON with the wrong shape is still a usage error
    write_json(bad, {"ellipsoid": {"p": [1.0]}})
    assert run_cli("solve", "--input", str(bad)).returncode == 1


def test_solve_short_flag_pattern_is_an_input_error(tmp_path, capsys):
    # one component is dropped, but the pattern must still cover both
    inp = tmp_path / "prob.json"
    write_json(inp, {
        "ellipsoid": {"p": [1.0, 2.0]},
        "two_point": {"z": [[0.0, 0.0], [0.1, 0.0]],
                      "w": [[0.0, 0.0], [0.3, 0.0]]},
    })
    code = cli.main(["solve", "--input", str(inp), "--r-pattern", "1"])
    assert code == 1
    assert capsys.readouterr().err.startswith("error: bad flag pattern")


@pytest.mark.parametrize("flag, value", [("--grid", "100"),
                                         ("--starts", "-1")])
def test_solve_unusable_config_is_an_input_error(tmp_path, flag, value):
    # exit 2 is kept for validation failures; a bad option fails at once
    inp = tmp_path / "prob.json"
    write_json(inp, {
        "ellipsoid": {"p": [1.0, 2.0]},
        "two_point": {"z": [[0.1, 0.0], [0.2, 0.1]],
                      "w": [[0.3, -0.1], [0.1, 0.0]]},
    })
    proc = run_cli("solve", "--input", str(inp), flag, value)
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: ")
    assert value in proc.stderr


@pytest.mark.parametrize("command, flag, value", [
    ("factor", "--tol", "nan"), ("factor", "--tol", "-1e-6"),
    ("validate", "--tol", "nan"), ("validate", "--boundary-tol", "-1"),
    ("solve", "--tol", "-1e-9"), ("solve", "--boundary-tol", "nan"),
    ("fit", "--tol", "nan"), ("factor", "--tol", "inf"),
])
def test_tolerance_that_is_not_a_finite_number_at_least_0_is_an_input_error(
        tmp_path, command, flag, value):
    # refused before any input is read: a NaN tolerance switches off the
    # checks it feeds, and a document echoing it would print "NaN" or
    # "Infinity", which are not JSON.  (1, 0.3, 2) is not self-inversive;
    # with --tol nan it used to pass the symmetry and sign checks
    inp = tmp_path / "poly.json"
    write_json(inp, {"coefficients": [[1.0, 0.0], [0.3, 0.0], [2.0, 0.0]]})
    proc = run_cli(command, "--input", str(inp), f"{flag}={value}")
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr.startswith(f"error: argument {flag}: tolerance = ")


def test_outputs_are_deterministic(tmp_path):
    inp = tmp_path / "prob.json"
    write_json(inp, {
        "ellipsoid": {"p": [1.0, 1.0]},
        "two_point": {"z": [[0.0, 0.0], [0.0, 0.0]],
                      "w": [[0.3, 0.0], [0.4, 0.0]]},
    })
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    assert run_cli("solve", "--input", str(inp), "--output",
                   str(out1)).returncode == 0
    assert run_cli("solve", "--input", str(inp), "--output",
                   str(out2)).returncode == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_cli_import_leaves_scipy_unloaded():
    # scipy.optimize is most of a CLI process's start-up; only `fit` and
    # a `brute` oracle need it, and they load it on first use
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, ellipsogeo, ellipsogeo.cli; "
         "print(sorted(m for m in sys.modules "
         "if m == 'scipy' or m.startswith('scipy.')))"],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_fit_rejects_data_of_a_higher_band_degree(tmp_path):
    # a member of band degree 2 fitted at m = 1, as in test_boundary.py
    rng = np.random.default_rng(1)
    E = Ellipsoid((1.0, 2.0))
    params = em.random_valid_params(rng, E.exponents, 2)
    trace = em.boundary_trace(params, E, 64)
    inp = tmp_path / "fit.json"
    write_json(inp, {
        "ellipsoid": E.to_json(),
        "m": 1,
        "samples": [[em.pair(v) for v in row] for row in trace],
        "zeros": [[em.pair(z) for z in zs[:1]]
                  for zs in em.component_zeros(params)],
    })
    proc = run_cli("fit", "--input", str(inp))
    assert proc.returncode == 2, proc.stderr
    res = json.loads(proc.stdout)
    assert res["status"] == "rejected"
    assert res["in_family"] is False
    assert res["rms_total"] > 1e-2


def fit_input(band_degree, scale=1.0):
    # boundary data of a random member, fitted at band degree 1
    rng = np.random.default_rng(1)
    E = Ellipsoid((1.0, 2.0))
    params = em.random_valid_params(rng, E.exponents, band_degree)
    trace = scale * em.boundary_trace(params, E, 64)
    return {"ellipsoid": E.to_json(), "m": 1,
            "samples": [[em.pair(v) for v in row] for row in trace],
            "zeros": [[em.pair(z) for z in zs[:1]]
                      for zs in em.component_zeros(params)]}


def underdetermined_fit_input():
    # 16 usable samples for 17 unknowns, as in test_boundary.py: a typed
    # refusal, not a traceback
    rng = np.random.default_rng(3)
    E = Ellipsoid((1.5,))
    params = em.random_valid_params(rng, E.exponents, 4)
    trace = em.boundary_trace(params, E, 32)
    trace[:, [0, 1, 8, 9, 16, 17, 24, 25]] = np.nan
    return {"ellipsoid": E.to_json(), "m": 4,
            "samples": [[em.pair(v) for v in row] for row in trace],
            "zeros": [[]]}


def broken_bundle():
    bundle = flat_bundle()
    bundle["params"]["a"] = [[0.9, 0.0], [0.9, 0.0]]
    return bundle


TWO_POINT_N2 = {"ellipsoid": {"p": [1.0, 2.0]},
                "two_point": {"z": [[0.1, 0.05], [0.2, -0.1]],
                              "w": [[0.3, -0.1], [0.1, 0.2]]}}

# (subcommand, input, extra argv, exit code, status or None)
ENVELOPE_CASES = {
    "eval": ("eval", flat_bundle, ["--at", "0.3,0.0"], 0, None),
    "validate-pass": ("validate", flat_bundle, [], 0, None),
    "validate-fail": ("validate", broken_bundle, [], 2, None),
    "solve-ok": ("solve", lambda: {
        "ellipsoid": {"p": [1.0]},
        "two_point": {"z": [[0.2, 0.0]], "w": [[0.6, 0.0]]}}, [], 0, "ok"),
    "solve-failed": ("solve", lambda: TWO_POINT_N2,
                     ["--starts", "0", "--r-pattern", "00"], 2, "failed"),
    "factor-ok": ("factor", lambda: {"coefficients": [
        [-0.5, 0.0], [1.25, 0.0], [-0.5, 0.0]]}, [], 0, "ok"),
    "factor-failed": ("factor", lambda: {"coefficients": [
        [0.5, 0.0], [-1.25, 0.0], [0.5, 0.0]]}, [], 2, "failed"),
    "fit-ok": ("fit", lambda: fit_input(1), [], 0, "ok"),
    "fit-rejected": ("fit", lambda: fit_input(2), [], 2, "rejected"),
    "fit-failed": ("fit", lambda: fit_input(1, scale=2.0), [], 2, "failed"),
    "fit-underdetermined": ("fit", underdetermined_fit_input, [], 2,
                            "failed"),
    "functional-build": ("functional", lambda: {"build": {
        "kind": "point-direction", "z": [[0.0, 0.0]], "X": [[1.0, 0.0]]}},
        [], 0, "ok"),
    "oracle-mobius": ("oracle", lambda: {
        "kind": "mobius", "ellipsoid": {"p": [1.0]},
        "two_point": {"z": [[0.0, 0.0]], "w": [[0.5, 0.0]]}}, [], 0, "ok"),
    "oracle-ball": ("oracle", lambda: {
        **TWO_POINT_N2, "kind": "ball", "ellipsoid": {"p": [1.0, 1.0]}},
        [], 0, "ok"),
}


@pytest.mark.parametrize("case", sorted(ENVELOPE_CASES))
def test_every_json_document_carries_the_envelope(tmp_path, capsys, case):
    command, make_input, extra, code, status = ENVELOPE_CASES[case]
    inp = tmp_path / "in.json"
    write_json(inp, make_input())
    out = tmp_path / "out.json"
    argv = [command, "--input", str(inp), *extra]
    assert cli.main(argv) == code
    printed = capsys.readouterr().out
    assert cli.main([*argv, "--output", str(out)]) == code
    assert capsys.readouterr().out == ""
    assert out.read_text(encoding="utf-8") == printed
    doc = json.loads(printed)
    assert doc["schema"] == em.SCHEMA
    assert doc["command"] == command
    assert isinstance(doc["config"], dict)
    assert doc.get("status") == status
    if status == "failed":
        assert isinstance(doc["error"], str) and doc["error"]


def test_functional_evaluate_and_plot_data_carry_the_envelope(tmp_path):
    inp = tmp_path / "in.json"
    write_json(inp, {"build": {"kind": "point-direction",
                               "z": [[0.0, 0.0]], "X": [[1.0, 0.0]]}})
    built = tmp_path / "built.json"
    assert cli.main(["functional", "--input", str(inp),
                     "--output", str(built)]) == 0
    write_json(inp, {"evaluate": {
        "problem": json.loads(built.read_text())["problem"],
        "disc": [[[0.0, 0.0], [1.0, 0.0]]]}})
    out = tmp_path / "evaluated.json"
    assert cli.main(["functional", "--input", str(inp),
                     "--output", str(out)]) == 0
    write_json(inp, flat_bundle())
    plots = tmp_path / "plots"
    assert cli.main(["plot-data", "--input", str(inp), "--output", str(plots),
                     "--grid", "32"]) == 0
    for path, command, config in (
            (out, "functional", {"grid": None}),
            (plots / "manifest.json", "plot-data", {"grid": 32})):
        doc = json.loads(path.read_text(encoding="utf-8"))
        assert doc["schema"] == em.SCHEMA
        assert doc["command"] == command
        assert doc["config"] == config
