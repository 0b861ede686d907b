#!/usr/bin/env python3
"""ellipsogeo benchmark: one closed-loop workload per run.

    python3 perfbench/run.py --workload geodesic --seed 1 --seconds 30 --trace 0

Run from the repository root; the package is imported from ./src.  The
last line of stdout is one JSON object with `correct`, `attempted`,
`failed` and `metrics`: the end-to-end metrics with `--trace 0`, the
per-layer metrics with `--trace 1`.  The line before it is a report with
the environment, sample counts, every failure (instance id and reason)
and, where a run has enough operations, the tail percentile.

End-to-end metrics are measured with tracing off:
  setup_s      process start to the first timed operation (imports, input
               generation, one untimed warm-up operation); the median of
               this process and two probe processes that only set up
  op_s_p50     median wall time of one operation
  ops_per_s    operations completed per second of the timed phase
  peak_rss_mb  peak resident memory (getrusage) of this process, or of
               the CLI child processes on the cli workload
A traced run repeats the timed phase untraced and then traced, and
reports the tracing overhead as the ratio of the two ops_per_s.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import tempfile
import time
import traceback

_T0 = time.perf_counter()

# One BLAS/OpenMP thread, inherited by every child process: one load
# generating process on a 2-core machine, with nothing else competing.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")
WORKLOADS = ("geodesic", "competitor", "family", "cli")
SETUP_PROBES = 2
CLI_PROBES = 3
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0)


def process_age() -> float:
    """Seconds since this process was created (10 ms resolution)."""
    try:
        with open("/proc/self/stat", encoding="ascii") as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
        start = int(fields[19]) / os.sysconf("SC_CLK_TCK")
        return time.clock_gettime(time.CLOCK_BOOTTIME) - start
    except (OSError, ValueError, IndexError, AttributeError):
        return time.perf_counter() - _T0


def git_commit() -> str:
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head, encoding="ascii") as fh:
            ref = fh.read().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = os.path.join(ROOT, ".git", name)
        if os.path.exists(loose):
            with open(loose, encoding="ascii") as fh:
                return fh.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs"),
                  encoding="ascii") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + name):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def environment() -> dict:
    import numpy
    import scipy
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_commit": git_commit(),
        "threads": {v: os.environ[v] for v in ("OMP_NUM_THREADS",
                                               "OPENBLAS_NUM_THREADS",
                                               "MKL_NUM_THREADS")},
        "load_processes": 1,
        "clients": 1,
    }


def run_op(op, tracer):
    """(seconds, result) of one operation, or (seconds, None, reason)."""
    t0 = time.perf_counter()
    try:
        result = op.run()
    except Exception as exc:  # one failed operation must not end the run
        last = traceback.format_exception_only(type(exc), exc)[-1].strip()
        return time.perf_counter() - t0, None, f"raised {last}"
    return time.perf_counter() - t0, result, None


def timed_loop(plan, seconds: float, tracer=None) -> dict:
    """Whole passes over the plan while the next pass is expected to fit.

    A geodesic or competitor pass takes 8 to 27 s on a 2-core machine, as
    the shared host speeds up or slows down, so a run measures one to
    three passes.  Only the first pass may run past `seconds`, which keeps
    the length of a run bounded.
    """
    times, by_instance, failures = [], {}, []
    attempted, check_s = 0, 0.0
    start = time.perf_counter()
    last_pass, passes = 0.0, 0
    while passes == 0 or (time.perf_counter() - start) + last_pass <= seconds:
        p0 = time.perf_counter()
        for op in plan.next_pass():
            attempted += 1
            if tracer is not None:
                tracer.op = attempted
            dt, result, reason = run_op(op, tracer)
            c0 = time.perf_counter()
            if reason is None:
                times.append(dt)
                # a family id ends in #<draw>; time its (n, m) class
                by_instance.setdefault(op.instance.split("#")[0],
                                       []).append(dt)
                with (tracer.paused() if tracer is not None
                      else contextlib.nullcontext()):
                    reason = op.check(result)
            if reason is not None:
                failures.append({"instance": op.instance, "reason": reason})
            check_s += time.perf_counter() - c0
        last_pass = time.perf_counter() - p0
        passes += 1
    wall = time.perf_counter() - start - check_s
    return {"times": times, "by_instance": by_instance, "failures": failures,
            "attempted": attempted, "passes": passes, "wall_s": wall,
            "ops_per_s": len(times) / wall}


def tail(times: list[float]):
    """Highest listed percentile with at least ten samples beyond it."""
    import numpy as np
    for q in TAIL_PERCENTILES:
        value = float(np.percentile(times, q))
        if sum(1 for t in times if t > value) >= 10:
            return q, value
    return None


def setup_probe_seconds(args) -> list[float]:
    out = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload",
             args.workload, "--seed", str(args.seed), "--seconds",
             str(args.seconds), "--trace", "0", "--setup-probe"],
            capture_output=True, text=True, timeout=150, cwd=ROOT)
        if proc.returncode != 0:
            raise RuntimeError(f"setup probe exited {proc.returncode}: "
                               f"{proc.stderr[-500:]}")
        out.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return out


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "ellipsogeo", "__init__.py")):
        print(f"error: package source not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import numpy as np
    import ellipsogeo
    if os.path.dirname(os.path.abspath(ellipsogeo.__file__)) != \
            os.path.join(SRC, "ellipsogeo"):
        print(f"error: imported ellipsogeo from {ellipsogeo.__file__}, "
              f"not from {SRC}", file=sys.stderr)
        return 2
    import tracing
    import workloads

    os.makedirs(WORK, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK)
    try:
        plan = workloads.PLANS[args.workload](args.seed, workdir)
        warm_failures = []
        _, result, reason = run_op(plan.warmup, None)
        if reason is None:
            reason = plan.warmup.check(result)
        if reason is not None:
            warm_failures.append({"instance": plan.warmup.instance,
                                  "reason": reason, "warmup": True})
        setup_self = process_age()
        if args.setup_probe:
            print(json.dumps({"setup_s": setup_self}))
            return 0

        loop = timed_loop(plan, args.seconds)
        if not loop["times"]:
            print(f"error: every operation failed: {loop['failures'][:3]}",
                  file=sys.stderr)
            return 1
        report = {"workload": args.workload, "seed": args.seed,
                  "trace": args.trace, "seconds": args.seconds,
                  "env": environment(), "passes": loop["passes"],
                  "samples": len(loop["times"]),
                  "attempted": loop["attempted"],
                  "failed_ratio": len(loop["failures"]) / loop["attempted"],
                  "failures": warm_failures + loop["failures"],
                  "instance_median_s": {
                      k: float(np.median(v))
                      for k, v in loop["by_instance"].items()}}
        tl = tail(loop["times"])
        report["op_s_tail"] = (None if tl is None else
                               {"percentile": tl[0], "value": tl[1]})

        if args.trace:
            tracer = tracing.Tracer()
            tracer.install()
            try:
                traced = timed_loop(plan, args.seconds, tracer)
                if args.workload == "cli":
                    for i, (iid, cmd) in enumerate(plan.commands):
                        tracer.op = traced["attempted"] + i + 1
                        out = os.path.join(workdir, f"traced-{iid}")
                        workloads.cli.main([*cmd, "--output", out])
            finally:
                tracer.restore()
            errors = tracing.coverage_errors(tracer.spans, args.workload)
            if errors:
                for e in errors:
                    print(f"error: {e}", file=sys.stderr)
                return 1
            metrics = {k: metric(v, u) for k, (v, u)
                       in tracing.layer_metrics(tracer.spans).items()}
            if args.workload == "cli":
                interp = workloads.median_child_seconds(
                    ["-c", "pass"], CLI_PROBES)
                imp = workloads.median_child_seconds(
                    ["-c", "import ellipsogeo.cli"], CLI_PROBES)
            else:
                interp = imp = 0.0
            metrics["cli.interpreter_s"] = metric(interp, "s")
            metrics["cli.import_s"] = metric(imp, "s")
            metrics["trace.ops_per_s"] = metric(traced["ops_per_s"], "1/s")
            metrics["trace.untraced_ops_per_s"] = metric(loop["ops_per_s"],
                                                         "1/s")
            metrics["trace.ops_per_s_ratio"] = metric(
                traced["ops_per_s"] / loop["ops_per_s"], "ratio")
            metrics["trace.spans_per_op"] = metric(
                len(tracer.spans) / traced["attempted"], "count")
            report["traced_failures"] = traced["failures"]
            os.makedirs(WORK, exist_ok=True)
            span_file = os.path.join(
                WORK, f"spans-{args.workload}.jsonl")
            tracer.write(span_file)
            report["span_file"] = os.path.relpath(span_file, ROOT)
            attempted = loop["attempted"] + traced["attempted"]
            failed = len(loop["failures"]) + len(traced["failures"])
        else:
            probes = setup_probe_seconds(args)
            report["setup_samples_s"] = [setup_self, *probes]
            if plan.child_rss_mb is not None:
                rss = plan.child_rss_mb()
            else:
                rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            metrics = {
                "setup_s": metric(float(np.median([setup_self, *probes])),
                                  "s"),
                "op_s_p50": metric(float(np.median(loop["times"])), "s"),
                "ops_per_s": metric(loop["ops_per_s"], "1/s"),
                "peak_rss_mb": metric(rss, "MB"),
            }
            attempted, failed = loop["attempted"], len(loop["failures"])
        print(json.dumps({"report": report}, sort_keys=True))
        correct = all(workloads.known_failure(args.workload,
                                              f["instance"], f["reason"])
                      for f in report["failures"]
                      + report.get("traced_failures", []))
        print(json.dumps({"correct": correct,
                          "attempted": attempted, "failed": failed,
                          "metrics": metrics}, sort_keys=True))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
