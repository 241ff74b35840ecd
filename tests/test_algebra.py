import numpy as np
import pytest

from radmul.algebra import (CrossedFactor, FactorElement, FiniteGroup, TracialAlgebra,
                            cond_exp, e0_vanishing, pp_expand, pp_reconstruct,
                            verify_pp_basis)

V2 = np.diag([1.0, -1.0]).astype(complex)


def scalar_factor(order=2):
    return CrossedFactor.trivial(TracialAlgebra.scalar(), FiniteGroup.cyclic(order))


def inner_factor():
    return CrossedFactor.inner_cyclic(TracialAlgebra.matrix(2), 2, V2)


# ---------------------------------------------------------------- base algebra

def test_trace_axioms():
    alg = TracialAlgebra.matrix(3)
    rng = np.random.default_rng(0)
    assert alg.trace(alg.identity()) == pytest.approx(1.0)
    x, y = alg.random(rng), alg.random(rng)
    assert alg.trace(x @ y) == pytest.approx(alg.trace(y @ x))
    # faithfulness: the Gram matrix of the basis is positive definite
    basis = alg.basis()
    G = np.array([[alg.inner(a, b) for b in basis] for a in basis])
    assert np.linalg.eigvalsh(G).min() > 0


def test_involution_axioms():
    alg = TracialAlgebra.matrix(2)
    rng = np.random.default_rng(1)
    x, y = alg.random(rng), alg.random(rng)
    assert np.allclose(alg.star(x @ y), alg.star(y) @ alg.star(x))
    assert np.allclose(alg.star(alg.star(x)), x)
    tbl = alg.involution_table()
    basis = alg.basis()
    for i, e in enumerate(basis):
        rec = sum(tbl[i, j] * basis[j] for j in range(len(basis)))
        assert np.allclose(rec, alg.star(e))


def test_structure_constants_reproduce_products():
    alg = TracialAlgebra.matrix(2)
    c = alg.structure_constants()
    basis = alg.basis()
    for i, ei in enumerate(basis):
        for j, ej in enumerate(basis):
            rec = sum(c[i, j, k] * basis[k] for k in range(len(basis)))
            assert np.allclose(rec, ei @ ej)


# ---------------------------------------------------------------- groups

def test_cyclic_group_tables():
    g = FiniteGroup.cyclic(4)
    assert g.mul(1, 3) == 0
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
    assert g.mul(150, 70) == 20
    assert g.inv(1) == 199


# ---------------------------------------------------------------- crossed product

def test_crossed_product_arithmetic():
    fac = inner_factor()
    rng = np.random.default_rng(2)
    x, y, z = (fac.random(rng) for _ in range(3))
    assoc = (x * y) * z - x * (y * z)
    assert max((np.abs(b).max() for b in assoc.coeffs.values()), default=0) < 1e-12
    anti = (x * y).star() - y.star() * x.star()
    assert max((np.abs(b).max() for b in anti.coeffs.values()), default=0) < 1e-12


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


# ---------------------------------------------------------------- module basis

def test_pp_expand_identity():
    fac = scalar_factor()
    coeffs = pp_expand(fac.identity())
    assert coeffs[0][0, 0] == pytest.approx(1.0)
    assert all(np.abs(c).max() < 1e-15 for c in coeffs[1:])


def test_pp_expand_single_unitary_component():
    fac = CrossedFactor.trivial(TracialAlgebra.matrix(2), FiniteGroup.cyclic(3))
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
    fac = CrossedFactor.trivial(TracialAlgebra.scalar(), FiniteGroup.cyclic(3))
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
        diff = rec - x
        assert max((np.abs(b).max() for b in diff.coeffs.values()), default=0) < 1e-13


def test_verify_pp_basis_passes():
    for fac in (scalar_factor(), inner_factor(),
                CrossedFactor.trivial(TracialAlgebra.scalar(), FiniteGroup.cyclic(3))):
        report = verify_pp_basis(fac)
        assert report.passed
        assert report.worst_residual() <= 1e-13


def test_verify_pp_basis_detects_duplicate():
    fac = scalar_factor()
    corrupted = [fac.unitary(0), fac.unitary(1), fac.unitary(1)]
    report = verify_pp_basis(fac, basis=corrupted)
    failed = {c.name for c in report.failed()}
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


# ---------------------------------------------------------------- actions

def test_inner_action_is_trace_preserving_homomorphism():
    fac = inner_factor()
    rng = np.random.default_rng(8)
    b = fac.base.random(rng)
    assert np.allclose(fac.alpha(0, b), b)
    for g in range(2):
        for h in range(2):
            lhs = fac.alpha(g, fac.alpha(h, b))
            rhs = fac.alpha(fac.group.mul(g, h), b)
            assert np.allclose(lhs, rhs)
        assert fac.base.trace(fac.alpha(g, b)) == pytest.approx(fac.base.trace(b))


def test_non_unitary_action_rejected():
    bad = np.array([[1.0, 0.0], [0.0, 2.0]], dtype=complex)
    with pytest.raises(ValueError):
        CrossedFactor.inner_cyclic(TracialAlgebra.matrix(2), 2, bad)


def test_non_homomorphic_powers_rejected():
    # unitary whose square is not scalar: Ad(V^2) != id breaks an order-2 action
    theta = 0.7
    V = np.array([[np.cos(theta), -np.sin(theta)],
                  [np.sin(theta), np.cos(theta)]], dtype=complex)
    with pytest.raises(ValueError):
        CrossedFactor.inner_cyclic(TracialAlgebra.matrix(2), 2, V)
