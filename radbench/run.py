"""radmul benchmark driver.

Usage (from the repository root):

    python3 radbench/run.py --workload cy3-L5 --seed 1 --seconds 40 --trace 0

Each run generates the workload's configuration from ``--seed``, then runs
``radmul verify --suite all`` as child processes, one at a time.  With
``--trace 0`` it runs a fixed number of children per workload, as many as
fit in ``--seconds`` at the workload's typical child time, and reports
their end-to-end metrics plus the set-up time; with ``--trace 1`` it runs
one untraced and one traced child on the same input and reports per-layer
metrics from the traced one's spans.

Every child is gated: it passes when it exits 0, its report holds exactly
the expected checks (``workloads.CHECKS``), every one ``pass``, and its
report bytes equal those of every other child of the run.  A failing child
counts all the expected checks as failed; it does not stop the run.  The
last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; the line before it holds
provenance and per-metric sample statistics.  Scratch files go to
``.radbench/`` in the repository root.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

from tracer import COUNTS, MATERIALIZE_KINDS, SUITES, layer_metrics
from workloads import CHECKS, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".radbench"

# Fresh set-up processes per run, half before and half after the timed
# children so that they sample the same stretch of time; the median is reported.
SETUP_REPEATS = 12
# A run must end within 180 s: a child still running after CHILD_TIMEOUT_S is
# killed and counted failed, and on a machine too slow for the workload's
# child count no timed child starts after LAST_START_S.
CHILD_TIMEOUT_S = 75.0
LAST_START_S = 90.0
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END = {"verify_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s",
              "check_pass_share": "share"}
PER_LAYER = (
    ["fock.space_build.s"]
    + [name + ".calls" for name in COUNTS]
    + ["algebra.verify_pp_basis.s",
       "symbols.hankel_pair.s", "symbols.factorize.calls", "symbols.factorize.s",
       "symbols.trace_norm.s", "symbols.svd.calls", "symbols.svd.self_s",
       "symbols.svd.max_dim",
       "operators.build_T.calls", "operators.build_T.s",
       "operators.materialize.calls", "operators.materialize.s",
       "operators.materialize.self_s"]
    + ["operators.materialize.%s.%s" % (kind, stat)
       for kind in MATERIALIZE_KINDS for stat in ("calls", "s")]
    + ["operators.rho.calls", "operators.rho.s", "operators.rho.gflop_computed",
       "operators.rho_tower.s", "operators.eps_rho_tower.s",
       "operators.apply_matrix.calls", "operators.apply_matrix.self_s",
       "operators.op_norm.s", "operators.svd.calls", "operators.svd.self_s",
       "verify.embed.calls", "verify.embed.s", "verify.word_operator.calls",
       "verify.spec_norm.calls", "verify.spec_norm.self_s", "verify.spec_norm.max_dim"]
    + ["verify.%s.s" % suite for suite in SUITES]
    + ["trace.wall_s", "trace.overhead_s", "trace.uncovered_s", "trace.uncovered_share"]
)


def layer_unit(name: str) -> str:
    if name.endswith((".calls", ".max_dim")):
        return "count"
    if name.endswith("gflop_computed"):
        return "GFLOP"
    if name.endswith("share"):
        return "share"
    return "s"


@dataclass
class Child:
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    exit_code: int


def spawn(argv, env, log_path) -> Child:
    """Run one child to completion; wall time is spawn to exit, CPU and
    peak RSS come from the child's own rusage."""
    with open(log_path, "ab") as log:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
                                stdout=subprocess.DEVNULL, stderr=log)
    timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
    wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0,
                 proc.returncode)


class Gate:
    """Per-child correctness gate; tallies checks attempted and failed."""

    def __init__(self):
        self.reference = None   # report bytes of the run's first child
        self.attempted = 0
        self.failed = 0
        self.failures = []

    def judge(self, label: str, child: Child, report: Path) -> None:
        try:
            data = report.read_bytes()
            checks = {c["name"]: c["status"] for c in json.loads(data)["checks"]}
        except (OSError, ValueError, KeyError, TypeError):
            data, checks = None, None
        reasons = []
        if child.exit_code != 0:
            reasons.append("exit code %d" % child.exit_code)
        if checks is None:
            reasons.append("no readable report")
        else:
            missing = sorted(set(CHECKS) - set(checks))
            extra = sorted(set(checks) - set(CHECKS))
            if missing:
                reasons.append("checks missing: %s" % missing)
            if extra:
                reasons.append("checks not expected: %s" % extra)
            not_pass = sum(status != "pass" for status in checks.values())
            if not_pass:
                reasons.append("%d checks not pass" % not_pass)
        if data is not None:
            if self.reference is None:
                self.reference = data
            elif data != self.reference:
                reasons.append("report bytes differ from the run's first child")
        self.attempted += len(CHECKS)
        if reasons:
            self.failed += len(CHECKS)
            self.failures.append({"run": label, "reasons": reasons})


def blas_threads() -> int:
    """The BLAS thread count children get: the first thread variable set,
    else the number of usable cores, capped at that number."""
    nproc = len(os.sched_getaffinity(0))
    requested = next((int(os.environ[v]) for v in BLAS_VARS
                      if os.environ.get(v, "").isdigit()), nproc)
    return max(1, min(requested, nproc))


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env.update({var: str(blas_threads()) for var in BLAS_VARS})
    return env


def verify_argv(config: Path, seed: int, report: Path) -> list:
    return ["-m", "radmul.cli", "verify", "--suite", "all", "--config", str(config),
            "--seed", str(seed), "--report", str(report)]


def probe(config: Path, env, work: Path) -> dict:
    out = subprocess.run([sys.executable, str(HERE / "setup_probe.py"), str(config)],
                         cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
                         capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    if out.returncode != 0:
        (work / "probe.log").write_text(out.stderr)
        raise RuntimeError("set-up probe failed (exit %d): %s"
                           % (out.returncode, out.stderr.strip().splitlines()[-1:]))
    info = json.loads(out.stdout.strip().splitlines()[-1])
    if not Path(info["radmul_file"]).resolve().is_relative_to(SRC.resolve()):
        raise RuntimeError("radmul imported from %s, not from %s"
                           % (info["radmul_file"], SRC))
    return info


def setup_times(config: Path, env, work: Path, n: int) -> list:
    return [probe(config, env, work)["setup_s"] for _ in range(n)]


def stats(values) -> dict:
    values = sorted(values)
    q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": median, "q1": q1, "q3": q3, "min": values[0], "max": values[-1],
            "n": len(values)}


def commit() -> str | None:
    """The checked-out commit, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return None


def environment(info: dict) -> dict:
    return {"nproc": len(os.sched_getaffinity(0)), "python": info["python"],
            "numpy": info["numpy"], "blas_threads": blas_threads(),
            "blas_env_inherited": {var: os.environ.get(var) for var in BLAS_VARS},
            "commit": commit()}


def timed_runs(config: Path, seed: int, count: int, env, work: Path,
               gate: Gate) -> list:
    """``count`` children back to back, fewer only past LAST_START_S."""
    children = []
    start = time.perf_counter()
    while len(children) < count and (not children
                                     or time.perf_counter() - start < LAST_START_S):
        i = len(children)
        report = work / ("report-%d.json" % i)
        child = spawn([sys.executable] + verify_argv(config, seed, report), env,
                      work / "children.log")
        gate.judge("timed-%d" % i, child, report)
        children.append(child)
    return children


def traced_run(config: Path, seed: int, env, work: Path, gate: Gate) -> dict:
    plain_report = work / "report-untraced.json"
    plain = spawn([sys.executable] + verify_argv(config, seed, plain_report), env,
                  work / "children.log")
    gate.judge("untraced", plain, plain_report)
    spans = work / "spans.json"
    traced_report = work / "report-traced.json"
    traced = spawn([sys.executable, str(HERE / "traced_verify.py"), str(spans)]
                   + verify_argv(config, seed, traced_report)[2:], env,
                   work / "children.log")
    gate.judge("traced", traced, traced_report)
    try:
        trace = json.loads(spans.read_text())
    except (OSError, ValueError) as exc:
        raise RuntimeError("the traced run left no span dump: %s" % exc) from exc
    layers = layer_metrics(trace)
    covered = layers["root.s"] - layers["root.self_s"]
    layers["trace.wall_s"] = traced.wall_s
    layers["trace.overhead_s"] = traced.wall_s - plain.wall_s
    layers["trace.uncovered_s"] = traced.wall_s - covered
    layers["trace.uncovered_share"] = (traced.wall_s - covered) / traced.wall_s
    return {name: layers[name] for name in PER_LAYER}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "radmul" / "__init__.py").is_file():
        print("radbench: no radmul sources at %s" % SRC, file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    work = WORK / ("%s-seed%d-trace%d" % (workload.name, args.seed, args.trace))
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    config = workload.write_config(args.seed, work)
    env = child_env()
    gate = Gate()

    try:
        info = probe(config, env, work)  # also compiles bytecode
        samples = {}
        if args.trace:
            metrics = traced_run(config, args.seed, env, work, gate)
            units = {name: layer_unit(name) for name in metrics}
        else:
            samples["setup_s"] = setup_times(config, env, work, SETUP_REPEATS // 2)
            children = timed_runs(config, args.seed, workload.children(args.seconds),
                                  env, work, gate)
            samples["setup_s"] += setup_times(config, env, work,
                                              SETUP_REPEATS - SETUP_REPEATS // 2)
            samples["verify_s"] = [c.wall_s for c in children]
            samples["cpu_s"] = [c.cpu_s for c in children]
            samples["peak_rss_mb"] = [c.peak_rss_mb for c in children]
            metrics = {name: statistics.median(samples[name]) for name in samples}
            metrics["check_pass_share"] = 1.0 - gate.failed / gate.attempted
            metrics = {name: metrics[name] for name in END_TO_END}
            units = END_TO_END
    except (RuntimeError, OSError, subprocess.TimeoutExpired) as exc:
        print("radbench: %s" % exc, file=sys.stderr)
        return 1

    provenance = {key: info[key] for key in
                  ("dim", "words", "dim_N", "fock_len", "hankel_dim", "tail_error")}
    provenance["checks"] = len(CHECKS)
    detail = {"workload": workload.name, "seed": args.seed, "trace": args.trace,
              "provenance": provenance, "environment": environment(info),
              "samples": {name: stats(v) for name, v in samples.items()},
              "check_fail_share": gate.failed / gate.attempted,
              "failures": gate.failures}
    for name, value in metrics.items():
        spread = ""
        if name in samples:
            st = detail["samples"][name]
            spread = "  (q1 %.6g, q3 %.6g, n %d)" % (st["q1"], st["q3"], st["n"])
        print("%-42s %14.6g %s%s" % (name, value, units[name], spread))
    print("%-42s %14.6g share  (%d of %d checks failed)"
          % ("check_fail_share", detail["check_fail_share"], gate.failed, gate.attempted))
    print(json.dumps({"detail": detail}, sort_keys=True))
    print(json.dumps({
        "correct": gate.failed == 0,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
