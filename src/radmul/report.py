"""Named verification checks with residuals, tolerances and stable JSON output.

Every suite in the package reports its results as a ``VerificationReport``:
a list of named checks, each carrying the worst residual observed, the
tolerance it was held to, and a pass/fail status.  Reports are
merged by concatenation and serialized deterministically (checks sorted by
name, keys sorted, no timestamps), so identical configuration + seed pairs
produce byte-identical files.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

# fixed tolerances of the exact identities, guard-band rules and norm envelope
ALGEBRAIC_TOL = 1e-13
EIGEN_TOL = 1e-10
SPECTRAL_TOL = 1e-8

PASS = "pass"
FAIL = "fail"


def _json_float(value):
    """``value``, or for a non-finite float, which strict JSON has no token
    for, the string "inf", "-inf" or "nan"."""
    if isinstance(value, float) and not math.isfinite(value):
        return str(float(value))
    return value


@dataclass
class Check:
    name: str
    max_residual: float
    tolerance: float
    status: str = field(init=False)
    details: dict = field(default_factory=dict)

    def __post_init__(self):
        self.status = PASS if self.max_residual <= self.tolerance else FAIL

    def line(self) -> str:
        return "%-4s  %-48s  residual %.3e  (tol %.1e)" % (
            self.status.upper(), self.name, self.max_residual, self.tolerance)


@dataclass
class VerificationReport:
    """Deterministic collection of named checks.

    ``context`` carries the configuration digest and the seed that produced
    the checks; both end up in the serialized report.
    """

    context: dict = field(default_factory=dict)
    checks: list[Check] = field(default_factory=list)

    def add(self, name: str, max_residual: float, tolerance: float, **details) -> Check:
        check = Check(name, float(max_residual), float(tolerance), details=details)
        self.checks.append(check)
        return check

    def extend(self, other: "VerificationReport") -> None:
        self.checks.extend(other.checks)

    @property
    def passed(self) -> bool:
        return all(c.status != FAIL for c in self.checks)

    def summary_lines(self) -> list[str]:
        return [c.line() for c in sorted(self.checks, key=lambda c: c.name)]

    def to_payload(self) -> dict:
        """The report as JSON-ready data; a non-finite residual, tolerance or
        detail is written as the string "inf", "-inf" or "nan"."""
        return {
            "config_digest": self.context.get("config_digest", ""),
            "seed": int(self.context.get("seed", 0)),
            "checks": [
                {
                    "name": c.name,
                    "status": c.status,
                    "max_residual": _json_float(c.max_residual),
                    "tolerance": _json_float(c.tolerance),
                    "details": {k: _json_float(v) for k, v in c.details.items()},
                }
                for c in sorted(self.checks, key=lambda c: c.name)
            ],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_payload(), indent=2, sort_keys=True, allow_nan=False) + "\n"

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.to_json())
