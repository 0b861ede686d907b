"""Smoke runs of the scripts in scripts/ as fresh processes."""

import os
import subprocess
import sys

SCRIPTS = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "scripts")


def run_script(name, *argv):
    return subprocess.run(
        [sys.executable, os.path.join(SCRIPTS, name), *argv],
        capture_output=True, text=True)


def test_demo_geodesics_writes_both_csv_files(tmp_path):
    proc = run_script("demo_geodesics.py", "--outdir", str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    assert sorted(os.listdir(tmp_path)) == ["boundary.csv", "segment.csv"]


def test_competitor_degree_scan_prints_one_row_per_degree():
    proc = run_script("competitor_degree_scan.py", "--max-degree", "1")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    header = next(i for i, line in enumerate(lines)
                  if line.split()[:1] == ["degree"])
    assert lines[header].split() == ["degree", "competitor", "gap",
                                     "lbfgs_runs", "objective_evals",
                                     "seconds"]
    rows = [line.split() for line in lines[header + 1:] if line.strip()]
    assert [row[0] for row in rows] == ["1"]
    # the counts are machine-independent and positive
    assert int(rows[0][3]) > 0 and int(rows[0][4]) >= int(rows[0][3])


def test_factor_round_trip_prints_one_row_per_set():
    proc = run_script("factor_round_trip.py", "--count", "20")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0].split()[0] == "set"
    assert [line.split()[0] for line in lines[1:]] == [
        "family-like", "circle", "generic", "close-1e-04", "close-1e-03",
        "close-3e-03", "close-1e-02"]


def test_fit_round_trip_counts_the_fits():
    proc = run_script("fit_round_trip.py", "--count", "5")
    assert proc.returncode == 0, proc.stderr
    header, row = proc.stdout.splitlines()
    assert header.split() == ["members", "misses", "worst_rms", "lm_runs",
                              "nfev", "residuals", "jacobians", "seconds",
                              "first", "missed"]
    members, misses, _, runs, nfev, residuals, jacobians = \
        [float(v) for v in row.split()[:7]]
    assert (members, misses) == (5, 0)
    # the counts are machine-independent; the closed-form Jacobian
    # leaves at most one residual call per evaluation LM counted
    assert runs >= 5 and jacobians >= runs and 0 < residuals <= nfev
