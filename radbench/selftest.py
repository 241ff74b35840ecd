"""Self-test of the benchmark itself (not of radmul).

Usage (from the repository root):

    python3 radbench/selftest.py

1. Two traced runs of the ``mat2`` workload, the fastest, on seed 0 give
   identical counts: every ``.calls`` and ``.max_dim`` metric and the
   computed GFLOP count.
2. The correctness gate fails a report that lacks an expected check, has
   an empty check list, has an unexpected check or has a check that did
   not pass, and passes the expected report.
3. ``BENCHMARK.json`` declares only workloads ``run.py`` offers, and
   exactly the metrics, with their units, that it reports.
4. In a directory holding only ``BENCHMARK.json`` and this directory, the
   benchmark exits non-zero without printing a result.

Exits 0 when all four hold.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

from run import END_TO_END, HERE, PER_LAYER, ROOT, WORK, Child, Gate, layer_unit
from workloads import CHECKS, WORKLOADS

WORKLOAD = "mat2"
SEED = 0
EXACT_SUFFIXES = (".calls", ".max_dim", ".gflop_computed")


def bench(cwd) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "radbench/run.py", "--workload", WORKLOAD,
                           "--seed", str(SEED), "--seconds", "1", "--trace", "1"],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


def counts_repeat() -> list:
    results = []
    for _ in range(2):
        out = bench(ROOT)
        if out.returncode != 0:
            return ["traced run exited %d: %s" % (out.returncode, out.stderr.strip())]
        results.append(json.loads(out.stdout.strip().splitlines()[-1]))
    errors = ["run %d not correct" % i for i, r in enumerate(results) if not r["correct"]]
    first, second = (r["metrics"] for r in results)
    for name in PER_LAYER:
        if name.endswith(EXACT_SUFFIXES) and first[name]["value"] != second[name]["value"]:
            errors.append("%s differs: %r vs %r"
                          % (name, first[name]["value"], second[name]["value"]))
    return errors


def gate_rejects() -> list:
    expected = [{"name": name, "status": "pass"} for name in CHECKS]
    cases = {
        "expected checks": (expected, False),
        "one check missing": (expected[1:], True),
        "no checks": ([], True),
        "unexpected check": (expected + [{"name": "extra", "status": "pass"}], True),
        "one check failed": ([dict(expected[0], status="fail")] + expected[1:], True),
    }
    work = WORK / "gate-selftest"
    work.mkdir(parents=True, exist_ok=True)
    report = work / "report.json"
    errors = []
    try:
        for label, (checks, should_fail) in cases.items():
            report.write_text(json.dumps({"checks": checks}))
            gate = Gate()
            gate.judge(label, Child(1.0, 1.0, 1.0, 0), report)
            if (gate.failed > 0) != should_fail or gate.attempted != len(CHECKS):
                errors.append("%s: %d of %d checks counted failed"
                              % (label, gate.failed, gate.attempted))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return errors


def declaration_matches() -> list:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    errors = []
    unknown = {w["name"] for w in spec["workloads"]} - set(WORKLOADS)
    if unknown:
        errors.append("workloads not in workloads.py: %s" % sorted(unknown))
    declared = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    if declared != END_TO_END:
        errors.append("end_to_end differs from run.py: %r" % declared)
    declared = {m["name"]: m["unit"] for m in spec["per_layer"]}
    if declared != {name: layer_unit(name) for name in PER_LAYER}:
        errors.append("per_layer differs from run.py")
    return errors


def fails_without_sources() -> list:
    bare = WORK / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / HERE.name,
                        ignore=shutil.ignore_patterns("__pycache__"))
        out = bench(bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if out.returncode == 0 or '"correct"' in out.stdout:
        return ["benchmark without radmul sources exited %d with output %r"
                % (out.returncode, out.stdout[-200:])]
    return []


def main() -> int:
    failed = False
    for label, errors in (("traced counts repeat", counts_repeat()),
                          ("gate rejects wrong check sets", gate_rejects()),
                          ("BENCHMARK.json matches run.py", declaration_matches()),
                          ("fails without sources", fails_without_sources())):
        print("%s  %s" % ("FAIL" if errors else "ok  ", label))
        for err in errors:
            print("      " + err)
        failed = failed or bool(errors)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
