import itertools

import numpy as np
import pytest

from radmul.algebra import CrossedFactor, FiniteGroup, TracialAlgebra
from radmul.fock import (Amalgam, FockSpace, FockVector, Word, canonicalize,
                         enumerate_words, lambda_span)
from radmul.operators import ends_in_factor_op, length_at_least_op, length_exactly_op

V2 = np.diag([1.0, -1.0]).astype(complex)


def brute_words(letters, max_len):
    """Oracle: filter raw letter strings by the adjacency constraint."""
    out = [()]
    for n in range(1, max_len + 1):
        for tup in itertools.product(letters, repeat=n):
            if all(tup[j][0] != tup[j + 1][0] for j in range(n - 1)):
                out.append(tup)
    return set(out)


# ---------------------------------------------------------------- words

def test_word_validation():
    Word(((0, 1), (1, 1)))
    with pytest.raises(ValueError):
        Word(((0, 1), (0, 1)))
    with pytest.raises(ValueError):
        Word(((0, 0),))


def test_enumerate_counts_dih(dih_space):
    am = dih_space.amalgam
    words = enumerate_words(am, 2)
    assert len(words) == 5
    assert [w.letters for w in words] == [
        (), ((0, 1),), ((1, 1),), ((0, 1), (1, 1)), ((1, 1), (0, 1))]


def test_enumerate_matches_brute_force(cy3_space):
    am = cy3_space.amalgam
    words = enumerate_words(am, 3)
    assert {w.letters for w in words} == brute_words(am.letters(), 3)
    # length-lexicographic order is part of the contract
    keys = [(len(w), w.letters) for w in words]
    assert keys == sorted(keys)


def test_single_factor_words_stop_at_length_one():
    fac = CrossedFactor.trivial(TracialAlgebra.scalar(), FiniteGroup.cyclic(3))
    am = Amalgam([fac])
    assert len(enumerate_words(am, 4)) == 3  # vacuum plus the two letters


def test_enumerate_length_zero(dih_space):
    assert [w.letters for w in enumerate_words(dih_space.amalgam, 0)] == [()]


# ---------------------------------------------------------------- canonical form

def test_canonicalize_single_letter(dih_space):
    v = canonicalize(dih_space, [(0, 1)], [np.array([[1.0]]), np.array([[2.0]])])
    assert v.coeff(Word(((0, 1),)))[0, 0] == pytest.approx(2.0)


def test_canonicalize_trivial_action_commutes(mat2_space):
    rng = np.random.default_rng(0)
    b = mat2_space.base.random(rng)
    v = canonicalize(mat2_space, [(0, 1)], [b, np.eye(2)])
    assert np.allclose(v.coeff(Word(((0, 1),))), b)


def test_canonicalize_inner_action_twists(mat2_space):
    rng = np.random.default_rng(1)
    b = mat2_space.base.random(rng)
    v = canonicalize(mat2_space, [(1, 1)], [b, np.eye(2)])
    assert np.allclose(v.coeff(Word(((1, 1),))), V2 @ b @ V2)


def test_canonicalize_rejects_adjacent_same_factor(dih_space):
    with pytest.raises(ValueError):
        canonicalize(dih_space, [(0, 1), (0, 1)])


def test_canonicalize_truncates_to_zero(dih_space):
    letters = [(0, 1), (1, 1)] * 3  # length 6 > L_max = 5
    assert canonicalize(dih_space, letters).is_zero()


def test_left_mul_matches_canonicalize(mat2_space):
    rng = np.random.default_rng(2)
    b = mat2_space.base.random(rng)
    w = Word(((1, 1), (0, 1)))
    direct = mat2_space.word_vector(w).left_mul(b)
    via = canonicalize(mat2_space, list(w.letters), [b, np.eye(2), np.eye(2)])
    diff = direct - via
    assert diff.is_zero(1e-13)


# ---------------------------------------------------------------- inner product

def test_inner_orthonormality(dih_space):
    w1 = dih_space.word_vector(Word(((0, 1),)))
    w2 = dih_space.word_vector(Word(((1, 1),)))
    assert w1.inner(w1) == pytest.approx(1.0)
    assert w1.inner(w2) == pytest.approx(0.0)


def test_inner_module_property(mat2_space):
    rng = np.random.default_rng(3)
    b, c = mat2_space.base.random(rng), mat2_space.base.random(rng)
    w = Word(((0, 1),))
    lhs = mat2_space.word_vector(w, b).inner_N(mat2_space.word_vector(w, c))
    assert np.allclose(lhs, b.conj().T @ c)


def test_array_roundtrip_preserves_inner(mat2_space):
    rng = np.random.default_rng(4)
    x = rng.standard_normal(mat2_space.dim) + 1j * rng.standard_normal(mat2_space.dim)
    y = rng.standard_normal(mat2_space.dim) + 1j * rng.standard_normal(mat2_space.dim)
    vx, vy = mat2_space.from_array(x), mat2_space.from_array(y)
    assert vx.inner(vy) == pytest.approx(complex(np.vdot(x, y)))
    assert np.allclose(vx.to_array(), x)


def test_coordinate_maps_match_word_loop(mat2_space):
    # oracle: one word segment at a time, skipping all-zero segments
    space = mat2_space
    k, d, s = space.dim_N, space.base.d, np.sqrt(space.base.d)
    rng = np.random.default_rng(6)
    x = rng.standard_normal(space.dim) + 1j * rng.standard_normal(space.dim)
    x[3 * k:5 * k] = 0  # two zero words
    x[7 * k] = 1e-300  # a tiny entry keeps its word
    want = {w: x[j * k:(j + 1) * k].reshape(d, d) * s for j, w in enumerate(space.words)
            if np.any(x[j * k:(j + 1) * k])}
    got = space.from_array(x)
    assert list(got.coeffs) == list(want)
    assert all(np.array_equal(got.coeffs[w], want[w]) for w in want)
    back = np.zeros(space.dim, dtype=complex)
    for w, b in got.items():
        j = space.word_index[w]
        back[j * k:(j + 1) * k] = b.reshape(-1) / s
    assert np.array_equal(got.to_array(), back)
    assert space.to_array(space.zero_vector()).shape == (space.dim,)


def test_vector_constructor_matches_word_loop(mat2_space):
    # oracle: one word at a time, dropping over-length and all-zero words
    space = mat2_space
    rng = np.random.default_rng(7)
    words = list(space.words[:6]) + [Word(((0, 1), (1, 1)) * 3)]  # beyond L_max = 5
    coeffs = {w: rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)) for w in words}
    coeffs[words[2]] = np.zeros((2, 2))
    coeffs[words[4]] = np.array([[0, 1e-300], [0, 0]])  # a tiny entry keeps its word
    coeffs[words[5]] = np.eye(2, dtype=int)  # cast to complex
    want = {w: np.asarray(b, dtype=complex) for w, b in coeffs.items()
            if len(w) <= space.L_max and np.any(b)}
    got = FockVector(space, coeffs).coeffs
    assert list(got) == list(want)
    assert all(got[w].dtype == complex and np.array_equal(got[w], want[w]) for w in want)
    assert FockVector(space, {}).coeffs == {}
    assert FockVector(space, {words[-1]: np.eye(2)}).coeffs == {}


# ---------------------------------------------------------------- projections

def test_projection_examples(dih_space):
    vac = dih_space.vacuum()
    assert length_at_least_op(dih_space, 1)(vac).is_zero()
    for i in range(len(dih_space.amalgam.factors)):
        assert ends_in_factor_op(dih_space, i)(vac).is_zero()
    w = dih_space.word_vector(Word(((0, 1), (1, 1))))
    assert ends_in_factor_op(dih_space, 0)(w).is_zero()
    kept = ends_in_factor_op(dih_space, 1)(w)
    assert not kept.is_zero()


def test_projection_idempotent_selfadjoint(dih_space):
    for op in (length_at_least_op(dih_space, 2), length_exactly_op(dih_space, 1),
               ends_in_factor_op(dih_space, 1)):
        P = op.matrix()
        assert np.allclose(P @ P, P)
        assert np.allclose(P.conj().T, P)


def test_projection_commutes_with_right_action(mat2_space):
    rng = np.random.default_rng(5)
    b = mat2_space.base.random(rng)
    v = mat2_space.from_array(rng.standard_normal(mat2_space.dim) + 0j)
    P = ends_in_factor_op(mat2_space, 1)
    diff = P(v.right_mul(b)) - P(v).right_mul(b)
    assert diff.is_zero(1e-13)


# ---------------------------------------------------------------- spanning sets

def test_lambda_span_dimensions(dih_space, mat2_space):
    assert len(lambda_span(dih_space, 0)) == 1
    assert len(lambda_span(mat2_space, 0)) == 4
    vecs = lambda_span(dih_space, 1)
    assert {tuple(v.coeffs)[0].letters for v in vecs} == {((0, 1),), ((1, 1),)}
    # spanning: each sector family is linearly independent and full
    for space in (dih_space, mat2_space):
        for k in (0, 1, 2):
            fam = lambda_span(space, k)
            G = np.stack([v.to_array() for v in fam], axis=1)
            assert np.linalg.matrix_rank(G, tol=1e-10) == len(fam)


def test_word_count_scaling(mat2_space):
    assert mat2_space.dim == len(mat2_space.words) * 4
    assert len(mat2_space.words) == 11
