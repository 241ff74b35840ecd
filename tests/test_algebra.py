import itertools

import numpy as np
import pytest

from conftest import noncommuting_config
from oracles import (failed_names, pp_coords, pp_residuals_by_products, product_by_loop,
                     worst_residual)
from radmul.algebra import (CrossedFactor, FactorElement, FiniteGroup, TracialAlgebra,
                            _coords, cond_exp, verify_pp_basis)
from radmul.config import parse_config, preset_config
from radmul.report import ALGEBRAIC_TOL, VerificationReport

V2 = np.diag([1.0, -1.0]).astype(complex)
HADAMARD = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2)


def scalar_factor(order=2):
    return CrossedFactor(TracialAlgebra(1), FiniteGroup.cyclic(order))


def inner_factor():
    return CrossedFactor.inner_cyclic(TracialAlgebra(2), FiniteGroup.cyclic(2), V2)


# ---------------------------------------------------------------- base algebra

def test_trace_axioms():
    alg = TracialAlgebra(3)
    rng = np.random.default_rng(0)
    assert alg.trace(alg.identity()) == pytest.approx(1.0)
    x, y = alg.random(rng), alg.random(rng)
    assert alg.trace(x @ y) == pytest.approx(alg.trace(y @ x))
    # faithfulness: the Gram matrix of the basis is positive definite
    basis = alg.basis()
    G = np.array([[alg.trace(a.conj().T @ b) for b in basis] for a in basis])
    assert np.linalg.eigvalsh(G).min() > 0


# ---------------------------------------------------------------- groups

def test_cyclic_group_tables():
    g = FiniteGroup.cyclic(4)
    assert g.table[1, 3] == 0
    assert g.inv(1) == 3
    assert g.inv(0) == 0


def test_group_rejects_non_identity_at_zero():
    with pytest.raises(ValueError):
        FiniteGroup([[1, 0], [0, 1]])


def test_group_rejects_non_associative():
    # Latin square with identity at 0 that is not a group table
    bad = [[0, 1, 2, 3, 4],
           [1, 0, 3, 4, 2],
           [2, 4, 0, 1, 3],
           [3, 2, 4, 0, 1],
           [4, 3, 1, 2, 0]]
    with pytest.raises(ValueError):
        FiniteGroup(bad)


def test_associativity_error_names_first_failing_triple():
    bad = np.array([[0, 1, 2, 3, 4],
                    [1, 0, 3, 4, 2],
                    [2, 4, 0, 1, 3],
                    [3, 2, 4, 0, 1],
                    [4, 3, 1, 2, 0]])
    first = next((a, b, c) for a in range(5) for b in range(5) for c in range(5)
                 if bad[bad[a, b], c] != bad[a, bad[b, c]])
    with pytest.raises(ValueError, match=r"associative at \(%d, %d, %d\)" % first):
        FiniteGroup(bad)


def test_large_cyclic_group_validates():
    g = FiniteGroup.cyclic(200)
    assert g.table[150, 70] == 20
    assert g.inv(1) == 199


# ---------------------------------------------------------------- crossed product

def test_crossed_product_arithmetic():
    fac = inner_factor()
    rng = np.random.default_rng(2)
    x, y, z = (fac.random(rng) for _ in range(3))
    assoc = (x * y) * z - x * (y * z)
    assert np.abs(assoc.coeffs).max() < 1e-12
    anti = (x * y).star() - y.star() * x.star()
    assert np.abs(anti.coeffs).max() < 1e-12


def test_trace_state_is_tracial():
    fac = inner_factor()
    rng = np.random.default_rng(3)
    x, y = fac.random(rng), fac.random(rng)
    assert (x * y).trace() == pytest.approx((y * x).trace())
    # faithfulness on a sample
    assert (x.star() * x).trace().real > 0


def test_random_kernel_rejects_trivial_group():
    # the trivial group has no nonzero kernel element; sampling must fail
    # at once instead of redrawing forever
    with pytest.raises(ValueError):
        scalar_factor(order=1).random_kernel(np.random.default_rng(0))
    x = scalar_factor(order=2).random_kernel(np.random.default_rng(0))
    assert np.abs(cond_exp(x)).max() < 1e-12


def test_cond_exp_properties():
    fac = inner_factor()
    rng = np.random.default_rng(4)
    x = fac.random(rng)
    b, c = fac.base.random(rng), fac.base.random(rng)
    assert np.allclose(cond_exp(fac.identity()), np.eye(2))
    lhs = cond_exp(fac.from_base(b) * x * fac.from_base(c))
    assert np.allclose(lhs, b @ cond_exp(x) @ c)
    assert x.trace() == pytest.approx(fac.base.trace(cond_exp(x)))


def test_cond_exp_spec_examples():
    fac = scalar_factor()
    assert cond_exp(fac.unitary(1)) == pytest.approx(0.0)
    b = 2.5 - 1.0j
    assert cond_exp(fac.from_base([[b]]))[0, 0] == pytest.approx(b)
    x = fac.from_base([[1.5]]) * fac.unitary(1) + fac.from_base([[b]])
    assert cond_exp(x)[0, 0] == pytest.approx(b)


# ------------------------------------------- regular representation oracle

def s3_factor():
    """S_3 acting on M_3 by conjugation with its permutation matrices."""
    perms = list(itertools.permutations(range(3)))
    table = [[perms.index(tuple(p[q[i]] for i in range(3))) for q in perms] for p in perms]
    return CrossedFactor(TracialAlgebra(3), FiniteGroup(table),
                         [np.eye(3)[:, list(p)] for p in perms])


def pauli_factor():
    """Z_2 x Z_2 acting on M_2 by Ad(1), Ad(X), Ad(Z), Ad(XZ): the unitaries
    multiply only up to signs, and the crossed product is the factor M_4."""
    X = np.array([[0, 1], [1, 0]])
    Z = np.diag([1, -1])
    idx = np.arange(4)
    return CrossedFactor(TracialAlgebra(2), FiniteGroup(idx[:, None] ^ idx[None, :]),
                         [np.eye(2), X, Z, X @ Z])


CROSSED_FACTORS = {
    "trivial-z2": lambda: scalar_factor(2),
    "trivial-z3": lambda: scalar_factor(3),
    "inner-mat2": inner_factor,
    "s3-on-m3": s3_factor,
    "pauli-z2xz2": pauli_factor,
}


def regular_rep(x):
    """pi(x) on C^d (x) l2(G) for x = sum_g b_g u_g, where
    pi(b u_g) = (+)_h alpha_{h^-1}(b) . (1 (x) lambda_g): the term of g sends
    the copy h to the copy gh, acting there by alpha_{(gh)^-1}(b_g).  Built
    from the group table and the unitaries alone."""
    fac = x.factor
    n, d, table = fac.group.order, fac.base.d, fac.group.table
    inverse = [list(table[g]).index(0) for g in range(n)]
    out = np.zeros((n, d, n, d), dtype=complex)
    for g in range(n):
        for h in range(n):
            W = fac.unitaries[inverse[table[g, h]]]
            out[table[g, h], :, h, :] += W @ x.coeffs[g] @ W.conj().T
    return out.reshape(n * d, n * d)


@pytest.mark.parametrize("name", CROSSED_FACTORS)
def test_crossed_product_matches_regular_representation(name):
    fac = CROSSED_FACTORS[name]()
    n, d = fac.group.order, fac.base.d
    rng = np.random.default_rng(10)
    x, y = fac.random(rng), fac.random(rng)
    px, py = regular_rep(x), regular_rep(y)
    assert np.abs(regular_rep(x * y) - px @ py).max() < 1e-12
    assert np.abs(regular_rep(x.star()) - px.conj().T).max() < 1e-12
    assert np.abs(regular_rep(x - (2 - 1j) * y) - (px - (2 - 1j) * py)).max() < 1e-12
    assert x.trace() == pytest.approx(np.trace(px) / (n * d), abs=1e-13)
    for g in range(n):
        pu = regular_rep(fac.unitary(g))
        assert np.allclose(pu.conj().T @ pu, np.eye(n * d))
        assert np.allclose(regular_rep(fac.unitary(g) * fac.from_base(x.coeffs[1])),
                           regular_rep(fac.from_base(fac.alpha(g, x.coeffs[1])) * fac.unitary(g)))
    k = fac.random_kernel(rng)
    assert abs(np.trace(regular_rep(k))) < 1e-12


PRODUCT_FACTORS = {
    "cyclic-2": lambda: scalar_factor(2),
    "cyclic-7": lambda: scalar_factor(7),
    "cyclic-48": lambda: scalar_factor(48),
    "s3-on-m3": s3_factor,
    "pauli-z2xz2": pauli_factor,
    "inner-mat2": lambda: parse_config(preset_config("mat2")).factors[1],
    "inner-noncommuting": lambda: parse_config(noncommuting_config()).factors[1],
}


@pytest.mark.parametrize("name", PRODUCT_FACTORS)
def test_product_matches_loop_oracle_exactly(name):
    # the gather adds the (g, h) terms at gh in the order of g, as the loop
    fac = PRODUCT_FACTORS[name]()
    rng = np.random.default_rng(12)
    for x, y in [(fac.random(rng), fac.random(rng)), (fac.random_kernel(rng), fac.random(rng)),
                 (fac.unitary(1), fac.random(rng)), (fac.random(rng), fac.identity())]:
        assert np.array_equal((x * y).coeffs, product_by_loop(x, y))


def test_pauli_crossed_product_is_a_factor():
    # pi is faithful on the |G| d^2 = 16 elements E_pq u_g, and the only
    # combinations of them that commute with all of them are the scalars
    fac = pauli_factor()
    images = np.array([regular_rep(fac.from_base(e) * fac.unitary(g))
                       for g in range(4) for e in fac.base.basis()])
    assert np.linalg.matrix_rank(images.reshape(16, -1)) == 16
    brackets = np.array([[a @ b - b @ a for b in images] for a in images]).reshape(16, -1)
    assert 16 - np.linalg.matrix_rank(brackets) == 1


# ---------------------------------------------------------------- module basis

def pp_expand(x):
    """Coefficients (E(x u_g))_g of the module-basis expansion of x, one
    (|G|, d, d) array: E(x u_g) picks out the coefficient of x at g^{-1}, so
    the expansion sum_g E(x u_g) u_g* reproduces x exactly."""
    return x.coeffs[x.factor.group.inverses]


def pp_reconstruct(factor, coeffs):
    """sum_g coeffs[g] u_g* for the canonical basis: coeffs[g] u_{g^{-1}}."""
    return FactorElement(factor, np.array(coeffs, dtype=complex)[factor.group.inverses])


def e0_vanishing(factor, g, b):
    """For gamma = u_g with g != e and b in N, the expansion of gamma*b has
    no component along e_0 = 1, and the sum over j >= 1 already
    reconstructs gamma*b, both to ``ALGEBRAIC_TOL``."""
    if g == 0:
        raise ValueError("gamma must avoid the identity element")
    x = factor.unitary(g) * factor.from_base(b)
    coeffs = pp_expand(x)
    report = VerificationReport()
    report.add("e0_coefficient_vanishes", float(np.abs(coeffs[0]).max()), ALGEBRAIC_TOL, g=g)
    coeffs[0] = 0
    diff = pp_reconstruct(factor, coeffs) - x
    report.add("e0_truncated_reconstruction", float(np.abs(diff.coeffs).max()), ALGEBRAIC_TOL,
               g=g)
    return report


def test_pp_expand_identity():
    fac = scalar_factor()
    coeffs = pp_expand(fac.identity())
    assert coeffs[0][0, 0] == pytest.approx(1.0)
    assert all(np.abs(c).max() < 1e-15 for c in coeffs[1:])


def test_pp_expand_single_unitary_component():
    fac = CrossedFactor(TracialAlgebra(2), FiniteGroup.cyclic(3))
    rng = np.random.default_rng(5)
    b = fac.base.random(rng)
    x = fac.from_base(b) * fac.unitary(1)
    coeffs = pp_expand(x)
    # E(x u_g) is nonzero only at g = h^{-1}
    inv = fac.group.inv(1)
    for g, c in enumerate(coeffs):
        if g == inv:
            assert np.allclose(c, b)
        else:
            assert np.abs(c).max() < 1e-15


def test_pp_expand_two_unitaries():
    fac = CrossedFactor(TracialAlgebra(1), FiniteGroup.cyclic(3))
    x = fac.unitary(1) + fac.unitary(2)
    coeffs = pp_expand(x)
    nonzero = [g for g, c in enumerate(coeffs) if np.abs(c).max() > 0]
    assert len(nonzero) == 2
    assert all(coeffs[g][0, 0] == pytest.approx(1.0) for g in nonzero)


def test_pp_reconstruction_exact():
    for fac in (scalar_factor(), inner_factor()):
        rng = np.random.default_rng(6)
        x = fac.random(rng)
        rec = pp_reconstruct(fac, pp_expand(x))
        assert np.abs((rec - x).coeffs).max() < 1e-13


def test_verify_pp_basis_passes():
    for fac in (scalar_factor(), inner_factor(),
                CrossedFactor(TracialAlgebra(1), FiniteGroup.cyclic(3))):
        report = verify_pp_basis(fac)
        assert report.passed
        assert worst_residual(report) <= 1e-13


@pytest.mark.parametrize("name", ["mat2_space", "noncomm_space", "cy3_space"])
def test_coords_match_trace_route(request, name):
    rng = np.random.default_rng(8)
    for fac in request.getfixturevalue(name).amalgam.factors:
        for x in (fac.random(rng), fac.random_kernel(rng), fac.identity()):
            assert np.abs(_coords(x) - pp_coords(x)).max() <= 1e-14


@pytest.mark.parametrize("name", ["mat2_space", "noncomm_space", "cy3_space"])
def test_pp_residuals_match_product_route(request, name):
    """On random families of 1 to |G| + 1 elements, none a module basis,
    the matrix identities read the residuals of the pair-by-pair products."""
    rng = np.random.default_rng(9)
    for fac in request.getfixturevalue(name).amalgam.factors:
        for size in range(1, fac.group.order + 2):
            family = [fac.random(rng) for _ in range(size)]
            got = {c.name: c.max_residual for c in verify_pp_basis(fac, basis=family).checks}
            assert got == pytest.approx(pp_residuals_by_products(fac, family), rel=1e-14, abs=0)


def test_verify_pp_basis_catches_a_scaled_element():
    fac = inner_factor()
    basis = fac.pp_basis()
    basis[1] = 1.001 * basis[1]
    failed = set(failed_names(verify_pp_basis(fac, basis=basis)))
    assert "pp_normalization" in failed and "pp_orthogonality" not in failed


def test_verify_pp_basis_detects_duplicate():
    fac = scalar_factor()
    corrupted = [fac.unitary(0), fac.unitary(1), fac.unitary(1)]
    report = verify_pp_basis(fac, basis=corrupted)
    failed = set(failed_names(report))
    assert "pp_orthogonality" in failed


def test_e0_vanishing():
    fac = inner_factor()
    rng = np.random.default_rng(7)
    herm = fac.base.random(rng)
    herm = herm + herm.conj().T
    for b in (np.eye(2, dtype=complex), herm, np.zeros((2, 2))):
        report = e0_vanishing(fac, 1, b)
        assert report.passed
    with pytest.raises(ValueError):
        e0_vanishing(fac, 0, herm)


def first_table_defect(t):
    """Oracle: the first failure of the per-element table checks, element by
    element, or None."""
    n = len(t)
    for g in range(n):
        if sorted(t[g]) != list(range(n)) or sorted(t[:, g]) != list(range(n)):
            return "table is not a Latin square"
        if not np.any(t[g] == 0):
            return "element %d has no inverse" % g
    return None


@pytest.mark.parametrize("n", [3, 40])
def test_latin_square_defect_at_the_last_element_is_caught(n):
    t = FiniteGroup.cyclic(n).table.copy()
    assert first_table_defect(t) is None
    t[n - 1, n - 1] = t[n - 1, n - 2]  # row and column n - 1 repeat an entry
    assert first_table_defect(t) == "table is not a Latin square"
    with pytest.raises(ValueError, match="^table is not a Latin square$"):
        FiniteGroup(t)


# ---------------------------------------------------------------- actions

def test_inner_action_is_trace_preserving_homomorphism():
    fac = inner_factor()
    rng = np.random.default_rng(8)
    b = fac.base.random(rng)
    assert np.allclose(fac.alpha(0, b), b)
    for g in range(2):
        for h in range(2):
            lhs = fac.alpha(g, fac.alpha(h, b))
            rhs = fac.alpha(fac.group.table[g, h], b)
            assert np.allclose(lhs, rhs)
        assert fac.base.trace(fac.alpha(g, b)) == pytest.approx(fac.base.trace(b))


def test_non_unitary_action_rejected():
    bad = np.array([[1.0, 0.0], [0.0, 2.0]], dtype=complex)
    with pytest.raises(ValueError):
        CrossedFactor.inner_cyclic(TracialAlgebra(2), FiniteGroup.cyclic(2), bad)


def test_non_homomorphic_powers_rejected():
    # unitary whose square is not scalar: Ad(V^2) != id breaks an order-2 action
    theta = 0.7
    V = np.array([[np.cos(theta), -np.sin(theta)],
                  [np.sin(theta), np.cos(theta)]], dtype=complex)
    with pytest.raises(ValueError):
        CrossedFactor.inner_cyclic(TracialAlgebra(2), FiniteGroup.cyclic(2), V)


def first_action_defect(base, group, W):
    """Oracle: the first failure of the per-element and per-pair action
    checks, in element and pair order, or None."""
    d, eye = base.d, np.eye(base.d)
    for g, w in enumerate(W):
        if np.abs(w.conj().T @ w - eye).max() > 1e-10:
            return "matrix for group element %d is not unitary" % g
    if np.abs(W[0] - eye).max() > 1e-12:
        return "identity element must act trivially"
    for g in range(group.order):
        for h in range(group.order):
            m = W[g] @ W[h] @ W[group.table[g, h]].conj().T
            lam = np.trace(m) / d
            if np.abs(m - lam * eye).max() > 1e-10 or abs(abs(lam) - 1) > 1e-10:
                return "unitaries do not implement a group action"
    return None


@pytest.mark.parametrize("n", [3, 40])
def test_action_defect_at_the_last_element_is_caught(n):
    # powers of V = diag(1, exp(2 pi i / n)) act by a genuine Z_n action;
    # the last unitary is then spoiled in two ways
    base, group = TracialAlgebra(2), FiniteGroup.cyclic(n)
    V = np.diag([1.0, np.exp(2j * np.pi / n)])
    W = np.array([np.linalg.matrix_power(V, k) for k in range(n)])
    assert first_action_defect(base, group, W) is None
    CrossedFactor(base, group, W)
    for spoil, message in ((np.diag([1.0, 1.5]), "matrix for group element %d is not unitary"
                            % (n - 1)),
                           (HADAMARD, "unitaries do not implement a group action")):
        bad = W.copy()
        bad[n - 1] = bad[n - 1] @ spoil
        assert first_action_defect(base, group, bad) == message
        with pytest.raises(ValueError, match="^%s$" % message):
            CrossedFactor(base, group, bad)

