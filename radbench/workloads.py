"""Benchmark workloads: each is a radmul preset plus the workload seed.

The program under test only ever sees the written configuration file and
the ``--seed`` argument; everything here runs in the benchmark process.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

# The config schema and presets live in radmul.config; they are copied here
# so that generating inputs does not import the program being measured.
_FACTORS = {
    "dih": [
        {"group": {"kind": "cyclic", "order": 2}, "action": "trivial"},
        {"group": {"kind": "cyclic", "order": 2}, "action": "trivial"},
    ],
    "mat2": [
        {"group": {"kind": "cyclic", "order": 2}, "action": "trivial"},
        {"group": {"kind": "cyclic", "order": 2},
         "action": {"kind": "inner", "unitary": [[[1, 0], [0, 0]], [[0, 0], [-1, 0]]]}},
    ],
    "cy3": [
        {"group": {"kind": "cyclic", "order": 3}, "action": "trivial"},
        {"group": {"kind": "cyclic", "order": 3}, "action": "trivial"},
    ],
}
_BASES = {"dih": {"kind": "scalar"}, "mat2": {"kind": "matrix", "dim": 2},
          "cy3": {"kind": "scalar"}}
_PRESET_SYMBOL = {"head": [1.0, 1.0], "tail": {"kind": "constant", "limit": 0}}


# The checks `radmul verify --suite all` reports, sorted by name.  They are
# the same for every workload below (two factors, fock_len 5, one symbol) and
# every seed; a report with any other set of names fails the gate, so a change
# that drops or skips a check cannot pass as a faster run.
CHECKS = (
    'adjoint_matrix[D]',
    'adjoint_matrix[L(0, 1)]',
    'adjoint_matrix[R(0, 1)]',
    'adjoint_pairing[D]',
    'adjoint_pairing[L(0, 1)]',
    'adjoint_pairing[R(0, 1)]',
    'embedding_matrix_coefficients',
    'embedding_multiplicative',
    'embedding_star',
    'embedding_unital',
    'epsilon_case_rules',
    'epsilon_of_identity',
    'fock_inner_right_linear',
    'fock_lambda_span_rank',
    'fock_left_right_commute',
    'fock_length_projection_split',
    'fock_projection_right_commute',
    'fock_word_orthonormality',
    'multiplier_case_rules',
    'multiplier_linearity',
    'multiplier_right_module',
    'norm_bound_lower[0]',
    'norm_bound_upper[0]',
    'partition_identity',
    'phi1_eigenvalue_rule',
    'phi2_eigenvalue_rule',
    'phi_factorization_bound',
    'pp_expansion[f0]',
    'pp_expansion[f1]',
    'pp_normalization[f0]',
    'pp_normalization[f1]',
    'pp_orthogonality[f0]',
    'pp_orthogonality[f1]',
    'pp_partition_of_unity[f0]',
    'pp_partition_of_unity[f1]',
    'rho_of_identity',
    'rho_power_sector_rule',
    'right_module_blocks',
    'spanning_rank_len5',
    't1_t2_component_rules',
    'theorem_action_on_words',
    'theorem_vacuum_coefficients',
)


@dataclass(frozen=True)
class Workload:
    name: str
    preset: str
    symbol: dict
    fock_len: int
    hankel_dim: int
    # Typical wall seconds of one child on a 2-core machine.  A timed run
    # starts seconds // child_s children (at least one), a number fixed by
    # the workload and --seconds, so every run's median has as many samples.
    child_s: float

    def config(self, seed: int) -> dict:
        return {
            "base_algebra": _BASES[self.preset],
            "factors": _FACTORS[self.preset],
            "symbol": self.symbol,
            "truncation": {"fock_len": self.fock_len, "hankel_dim": self.hankel_dim},
            "seed": seed,
        }

    def children(self, seconds: float) -> int:
        return max(1, int(seconds // self.child_s))

    def write_config(self, seed: int, out_dir: Path) -> Path:
        path = out_dir / ("%s-seed%d.json" % (self.name, seed))
        path.write_text(json.dumps(self.config(seed), indent=1, sort_keys=True) + "\n")
        return path


WORKLOADS = {w.name: w for w in (
    Workload("cy3-L5", "cy3", _PRESET_SYMBOL, fock_len=5, hankel_dim=32, child_s=15.0),
    Workload("geo-dih", "dih",
             {"head": [1.0],
              "tail": {"kind": "geometric", "coefficient": 1.0, "ratio": 0.97, "limit": 0}},
             fock_len=5, hankel_dim=1200, child_s=11.0),
    Workload("mat2", "mat2", _PRESET_SYMBOL, fock_len=5, hankel_dim=32, child_s=1.5),
)}
