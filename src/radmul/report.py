"""Named verification checks with residuals, tolerances and stable JSON output.

Every suite in the package reports its results as a ``VerificationReport``:
a list of named checks, each carrying the worst residual observed, the
tolerance of its family (``family``) in ``TOLERANCES``, and a pass/fail
status.  Reports are merged by concatenation and serialized
deterministically (checks sorted by name, keys sorted, no timestamps), so
identical configuration + seed pairs produce byte-identical files.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

TOLERANCES = {
    **dict.fromkeys("pp_orthogonality pp_normalization pp_partition_of_unity pp_expansion "
                    "fock_word_orthonormality fock_inner_right_linear fock_left_right_commute "
                    "fock_projection_right_commute fock_length_projection_split".split(), 1e-13),
    **dict.fromkeys("partition_identity adjoint_matrix adjoint_pairing right_module_blocks "
                    "rho_of_identity epsilon_of_identity multiplier_linearity".split(), 1e-12),
    **dict.fromkeys("embedding_unital embedding_multiplicative embedding_star "
                    "embedding_matrix_coefficients".split(), 1e-11),
    **dict.fromkeys("phi_factorization_bound rho_power_sector_rule epsilon_case_rules "
                    "phi1_eigenvalue_rule phi2_eigenvalue_rule t1_t2_component_rules "
                    "multiplier_case_rules theorem_action_on_words theorem_vacuum_coefficients "
                    "multiplier_right_module".split(), 1e-10),
    **dict.fromkeys("norm_bound_upper norm_bound_lower".split(), 1e-8),
    **dict.fromkeys("fock_lambda_span_rank spanning_rank_len".split(), 0.5),
}

PASS = "pass"
FAIL = "fail"


def family(name: str) -> str:
    """A check's family: its name without a "[...]" tag or trailing length."""
    return name.split("[")[0].rstrip("0123456789")


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

    def add(self, name: str, max_residual: float, **details) -> None:
        """Add the check ``name`` at its family's tolerance; an unknown family raises."""
        tolerance = TOLERANCES.get(family(name))
        if tolerance is None:
            raise ValueError("no tolerance for check %r" % name)
        self.checks.append(Check(name, float(max_residual), tolerance, details=details))

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
