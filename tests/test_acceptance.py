"""Acceptance gate: every criterion at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion.  The two named model configurations are the scalar two-order-2
model (dim 11 at length 5) and the 2x2-matrix two-order-2 model with one
inner action (dim 44 at length 5).
"""

import math
import time

import numpy as np

from radmul.algebra import verify_pp_basis
from radmul.cli import _run_suites
from radmul.config import parse_config, preset_config
from radmul.symbols import RadialSymbol, hankel_pair, norm_C, ricard_xu_bound
from radmul.verify import lemma_suite, main_theorem_suite, norm_bound_suite

from conftest import symbol_zoo
from oracles import partition_identity_residual, worst_residual

ACCEPT_SEED = 2024


def _line(num, name, ok, detail=""):
    print("ACCEPTANCE %d %-28s %s  %s" % (num, name, "PASS" if ok else "FAIL", detail))
    assert ok, "criterion %d (%s) failed: %s" % (num, name, detail)


def test_criterion_1_norm_values():
    t0 = time.perf_counter()
    v_delta = norm_C(RadialSymbol.delta0())
    v_ind = norm_C(RadialSymbol.indicator01())
    ok = abs(v_delta - 1.0) <= 1e-12 and abs(v_ind - 3.0) <= 1e-12
    worst_geo = 0.0
    for z in (0.3, 0.5, 0.7):
        value = norm_C(RadialSymbol.geometric(z))
        worst_geo = max(worst_geo, abs(value - 1.0))
    elapsed = time.perf_counter() - t0
    ok = ok and worst_geo <= 1e-8 and elapsed < 1.0
    _line(1, "norm_values", ok,
          "delta=%.2e ind=%.2e geo=%.2e t=%.2fs" % (
              abs(v_delta - 1), abs(v_ind - 3), worst_geo, elapsed))


def test_criterion_2_psi_consistency():
    worst = 0.0
    M = 24
    for phi in symbol_zoo():
        hp = hankel_pair(phi, M)
        for n in range(2 * M):
            worst = max(worst, abs(phi(n) - phi.psi1(n) - phi.psi2(n) - phi.limit))
        for i in range(M):
            for j in range(M):
                worst = max(worst, abs(hp.h[i, j] - phi.psi1(i + j) + phi.psi1(i + j + 2)))
                worst = max(worst, abs(hp.k[i, j] - phi.psi2(i + j) + phi.psi2(i + j + 2)))
    _line(2, "psi_consistency", worst <= 1e-10, "residual=%.2e" % worst)


def test_criterion_3_partition_identity(dih_space):
    rng = np.random.default_rng(ACCEPT_SEED)
    worst = 0.0
    for _ in range(100):
        x = rng.standard_normal(48) + 1j * rng.standard_normal(48)
        x /= np.linalg.norm(x)
        worst = max(worst, partition_identity_residual(dih_space, x))
    _line(3, "partition_identity", worst <= 1e-12, "residual=%.2e (100 x)" % worst)


def test_criterion_4_module_basis_suite(dih_space, mat2_space):
    worst = 0.0
    ok = True
    for space in (dih_space, mat2_space):
        for fac in space.amalgam.factors:
            rep = verify_pp_basis(fac, tol=1e-13)
            ok = ok and rep.passed
            worst = max(worst, worst_residual(rep))
    _line(4, "module_basis_properties", ok and worst <= 1e-13,
          "residual=%.2e (both configs)" % worst)


def test_criterion_5_lemma_suite(dih_space, mat2_space, acceptance_symbols):
    t0 = time.perf_counter()
    worst = 0.0
    ok = True
    total_dim = 0
    for space in (dih_space, mat2_space):
        assert space.L_max == 5
        total_dim += space.dim
        rep = lemma_suite(space, acceptance_symbols, seed=ACCEPT_SEED, tol=1e-10)
        ok = ok and rep.passed
        worst = max(worst, worst_residual(rep))
    elapsed = time.perf_counter() - t0
    ok = ok and total_dim <= 2100 and elapsed < 60.0
    _line(5, "generator_lemma_suite", ok,
          "residual=%.2e dim=%d t=%.1fs" % (worst, total_dim, elapsed))


def test_criterion_6_theorem_action(dih_space, mat2_space, acceptance_symbols):
    worst = 0.0
    ok = True
    for space in (dih_space, mat2_space):
        rep = main_theorem_suite(space, acceptance_symbols, seed=ACCEPT_SEED,
                                 tol=1e-10, words_per_length=50, max_len=3)
        ok = ok and rep.passed
        for c in rep.checks:
            if c.name == "theorem_action_on_words":
                worst = max(worst, c.max_residual)
    _line(6, "theorem_action", ok and worst <= 1e-10,
          "residual=%.2e (50 words/length, n<=3)" % worst)


def test_criterion_7_norm_bound(dih_space, acceptance_symbols):
    rep = norm_bound_suite(dih_space, acceptance_symbols, seed=ACCEPT_SEED,
                           samples=200, tol=1e-8)
    upper = max(c.max_residual for c in rep.checks if c.name.startswith("norm_bound_upper"))
    lower = max(c.max_residual for c in rep.checks if c.name.startswith("norm_bound_lower"))
    _line(7, "cb_norm_envelope", rep.passed,
          "upper_excess=%.2e lower_gap=%.2e (200 samples, m<=3)" % (upper, lower))


def test_criterion_8_comparison_bound():
    phi = RadialSymbol.indicator01()
    ours = norm_C(phi)
    theirs = ricard_xu_bound(phi)
    ok = abs(ours - 3.0) <= 1e-12 and theirs == 5.0 and ours < theirs
    _line(8, "comparison_bound", ok, "class_C=%.12g linear_growth=%.12g" % (ours, theirs))


def test_criterion_9_determinism(tmp_path):
    data = preset_config("dih")
    data["truncation"] = {"fock_len": 4, "hankel_dim": 24}
    data["seed"] = ACCEPT_SEED
    cfg = parse_config(data)
    blobs = []
    for _ in range(2):
        rep = _run_suites(cfg, "theorem")
        blobs.append(rep.to_json().encode("utf-8"))
    ok = blobs[0] == blobs[1]
    _line(9, "byte_identical_reports", ok, "%d bytes" % len(blobs[0]))


def test_infinite_comparison_case():
    # supplementary to criterion 8: the constant symbol has class-C norm 1
    # while the linear-growth series diverges
    value = norm_C(RadialSymbol.constant(1.0))
    assert abs(value - 1.0) <= 1e-12
    assert math.isinf(ricard_xu_bound(RadialSymbol.constant(1.0)))
