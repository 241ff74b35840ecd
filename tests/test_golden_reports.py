"""Pinned reports: ``radmul verify --suite all`` on the six models at seed
1, on radbench's cy3-L5 model (``MODELS["cy3"]``) and on geo-dih at seeds
2-4, and on ``noncommuting_config(4)`` at seed 1 must give the reports in
``tests/data``, each made by this module on one core.

Check names, statuses, tolerances, strings and integers must match exactly,
and every other float to 1e-12 relative or 1e-15 absolute: platform
rounding passes, a change of draws or of what a check computes fails.  A
change that is meant to move a report rewrites the files with

    PYTHONPATH=src:tests taskset -c 0 python tests/test_golden_reports.py

and says which values moved and by how much.
"""

import json
import math
import os
import sys
import tempfile
from pathlib import Path

import pytest

from conftest import MODELS, noncommuting_config
from radmul.cli import main

DATA = Path(__file__).resolve().parent / "data"

# each pinned report by its file name: the factory of its configuration and the seed
PINNED = {**{name: (config, 1) for name, config in MODELS.items()},
          **{"%s-seed%d" % (name, seed): (MODELS[name], seed)
             for name in ("cy3", "geo-dih") for seed in (2, 3, 4)},
          "noncommuting4": (lambda: noncommuting_config(4), 1)}


def verify(name: str, workdir: Path, report: Path) -> int:
    config = workdir / ("%s-config.json" % name)
    factory, seed = PINNED[name]
    config.write_text(json.dumps(factory()))
    return main(["verify", "--suite", "all", "--seed", str(seed), "--config", str(config),
                 "--report", str(report)])


def mismatches(got, want, path="report") -> list:
    """Where ``got`` differs from ``want``: exactly for names, statuses,
    tolerances, strings and integers, to 1e-12 relative or 1e-15 absolute
    for the other floats."""
    if isinstance(want, dict):
        if not isinstance(got, dict) or sorted(got) != sorted(want):
            return ["%s: keys %s, want %s" % (path, sorted(got), sorted(want))]
        return [m for key in want for m in mismatches(got[key], want[key],
                                                      "%s.%s" % (path, key))]
    if isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            return ["%s: length differs" % path]
        out = []
        for i, (g, w) in enumerate(zip(got, want)):
            label = w["name"] if isinstance(w, dict) and "name" in w else i
            out += mismatches(g, w, "%s[%s]" % (path, label))
        return out
    close = (isinstance(want, float) and isinstance(got, float) and not path.endswith("tolerance")
             and math.isclose(got, want, rel_tol=1e-12, abs_tol=1e-15))
    if close or (type(got) is type(want) and got == want):
        return []
    return ["%s: %r, want %r" % (path, got, want)]


@pytest.mark.parametrize("name", sorted(PINNED))
def test_report_matches_the_pinned_one(monkeypatch, tmp_path, capsys, name):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    report = tmp_path / "report.json"
    assert verify(name, tmp_path, report) == 0
    capsys.readouterr()
    want = json.loads((DATA / ("%s.json" % name)).read_text())
    assert mismatches(json.loads(report.read_text()), want) == []


def test_a_moved_value_is_caught():
    want = {"checks": [{"name": "a", "status": "pass", "max_residual": 1e-16,
                        "tolerance": 1e-12, "details": {"rank": 5, "observed": 0.5}}]}
    assert mismatches(want, want) == []
    near = json.loads(json.dumps(want))
    near["checks"][0]["max_residual"] = 9e-16
    near["checks"][0]["details"]["observed"] = 0.5 + 4e-13
    assert mismatches(near, want) == []
    moved = json.loads(json.dumps(want))
    moved["checks"][0]["details"] = {"rank": 6, "observed": 0.5 + 1e-11}
    moved["checks"][0]["tolerance"] = tol = 1e-12 * (1 + 1e-15)
    assert mismatches(moved, want) == [
        "report.checks[a].tolerance: %r, want 1e-12" % tol,
        "report.checks[a].details.rank: 6, want 5",
        "report.checks[a].details.observed: 0.50000000001, want 0.5"]


if __name__ == "__main__":
    DATA.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as workdir:
        for model in sorted(PINNED):
            if verify(model, Path(workdir), DATA / ("%s.json" % model)) != 0:
                sys.exit("verify failed on %s" % model)
