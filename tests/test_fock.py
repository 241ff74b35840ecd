import itertools

import numpy as np
import pytest

from conftest import noncommuting_config
from oracles import lambda_span_dense
from radmul.algebra import CrossedFactor, FiniteGroup, TracialAlgebra
from radmul.config import parse_config, preset_config
from radmul.fock import Amalgam, FockSpace, FockVector, Word, canonicalize
from radmul.operators import ends_in_factor_op, length_at_least_op, length_exactly_op
from radmul.verify import lambda_span

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


def test_word_letter_maps_check_the_new_letter_only():
    w = Word(((0, 1), (1, 2), (0, 1)))
    for bad in ((0, 2), (1, 0), (2, 0)):
        with pytest.raises(ValueError):
            w.append(bad)
    for bad in ((0, 2), (1, 0), (2, 0)):
        with pytest.raises(ValueError):
            w.prepend(bad)
    for letter in ((0, 0), (3, 0)):
        with pytest.raises(ValueError):
            Word().append(letter)
        with pytest.raises(ValueError):
            Word().prepend(letter)
    # built without re-checking, the words equal (and hash as) checked ones
    built = [w.append((1, 1)), w.prepend((1, 1)), w.drop_first(), w.drop_last(),
             Word().append([2, 1]), Word().prepend([2, 1]), Word(((0, 1),)).drop_last()]
    checked = [Word(((0, 1), (1, 2), (0, 1), (1, 1))), Word(((1, 1), (0, 1), (1, 2), (0, 1))),
               Word(((1, 2), (0, 1))), Word(((0, 1), (1, 2))), Word(((2, 1),)),
               Word(((2, 1),)), Word()]
    assert built == checked
    assert [hash(b) for b in built] == [hash(c) for c in checked]
    assert all(type(x) is tuple for b in built for x in (b.letters,) + b.letters)


def test_enumerate_counts_dih(dih_space):
    am = dih_space.amalgam
    words = FockSpace(am, 2).words
    assert len(words) == 5
    assert [w.letters for w in words] == [
        (), ((0, 1),), ((1, 1),), ((0, 1), (1, 1)), ((1, 1), (0, 1))]


def test_enumerate_matches_brute_force(cy3_space):
    am = cy3_space.amalgam
    words = FockSpace(am, 3).words
    assert {w.letters for w in words} == brute_words(am.letters(), 3)
    # length-lexicographic order is part of the contract
    keys = [(len(w), w.letters) for w in words]
    assert keys == sorted(keys)


def test_single_factor_words_stop_at_length_one():
    fac = CrossedFactor(TracialAlgebra(1), FiniteGroup.cyclic(3))
    am = Amalgam([fac])
    assert len(FockSpace(am, 4).words) == 3  # vacuum plus the two letters


def test_enumerate_length_zero(dih_space):
    assert [w.letters for w in FockSpace(dih_space.amalgam, 0).words] == [()]


# ---------------------------------------------------------------- word graph

def _graph_space(name):
    """The spaces the word-graph tables are checked on, by name."""
    if name == "single":
        fac = CrossedFactor(TracialAlgebra(1), FiniteGroup.cyclic(3))
        return FockSpace(Amalgam([fac]), 4)
    if name == "three":  # M_2 base, orders 2, 3, 2 with non-commuting actions
        base = TracialAlgebra(2)
        H = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2)
        V3 = np.diag([1.0, np.exp(2j * np.pi / 3)])
        return FockSpace(Amalgam([CrossedFactor.inner_cyclic(base, FiniteGroup.cyclic(order), V)
                                  for order, V in ((2, V2), (3, V3), (2, H))]), 3)
    preset, fock_len = name.split("-L")
    cfg = noncommuting_config() if preset == "noncomm" else preset_config(preset)
    return FockSpace(Amalgam(parse_config(cfg).factors), int(fock_len))


@pytest.mark.parametrize("name", ["dih-L5", "mat2-L4", "cy3-L5", "noncomm-L3", "cy3-L0",
                                  "cy3-L1", "single", "three"])
def test_word_graph_tables_match_word_rules(name):
    space = _graph_space(name)
    if name == "single":
        assert len(space.words) == 3
    if name == "three":
        assert len(space.words) == 41
    letters = space.amalgam.letters()
    assert space.letters == tuple(letters)

    def index(make, *args):
        """The index of the word ``make`` gives, -1 where it is not reduced
        or not in the space."""
        try:
            return space.word_index.get(make(*args), -1)
        except ValueError:
            return -1

    want_app = [[index(w.append, x) for w in space.words] for x in letters]
    want_pre = [[index(w.prepend, x) for w in space.words] for x in letters]
    assert np.array_equal(space.appended, want_app)
    assert np.array_equal(space.prepended, want_pre)
    nonempty = [w for w in space.words if w.letters]
    assert list(space.parent) == [-1] + [space.word_index[w.drop_last()] for w in nonempty]
    assert list(space.rest) == [-1] + [space.word_index[w.drop_first()] for w in nonempty]
    assert list(space.last_letter) == [-1] + [letters.index(w.letters[-1]) for w in nonempty]
    assert list(space.first_letter) == [-1] + [letters.index(w.letters[0]) for w in nonempty]
    want_strip = [[space.word_index[w.drop_first()] if w.letters[:1] == (x,) else -1
                   for w in space.words] for x in letters]
    assert np.array_equal(space.stripped, want_strip)
    for t, (i, g) in enumerate(letters):
        fac = space.amalgam.factors[i]
        assert letters[space.star[t]] == (i, fac.group.inv(g))
        W = fac.unitaries[g]
        assert np.array_equal(space.twists[t], np.kron(W, W.conj()))
    # oracle: one word at a time, U_w = W_{g^{-1}} U_{w without gamma} for w's last letter (i, g)
    U = [space.base.identity()]
    for w in nonempty:
        i, g = w.letters[-1]
        fac = space.amalgam.factors[i]
        U.append(fac.unitaries[fac.group.inv(g)] @ U[space.word_index[w.drop_last()]])
    assert np.array_equal(space.push_unitaries, np.array(U))


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
    for w, b in got.coeffs.items():
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
    def columns(space, k):
        """The family's columns: one per word of length k and N-basis element."""
        return lambda_span(space, k).matrix()[:, space.guard_mask(k) & ~space.guard_mask(k - 1)]

    assert columns(dih_space, 0).shape[1] == 1
    assert columns(mat2_space, 0).shape[1] == 4
    fam = lambda_span(dih_space, 1)
    assert {dih_space.words[r].letters for r in fam.rows} == {((0, 1),), ((1, 1),)}
    assert np.array_equal(fam.rows, fam.cols)
    # spanning: each sector family is linearly independent and full, and
    # column (w, b) is the word vector w b
    for space in (dih_space, mat2_space):
        for k in (0, 1, 2):
            G = columns(space, k)
            assert np.linalg.matrix_rank(G, tol=1e-10) == G.shape[1]
            assert np.array_equal(G, np.stack(list(lambda_span_dense(space, k)), axis=1))


def test_word_count_scaling(mat2_space):
    assert mat2_space.dim == len(mat2_space.words) * 4
    assert len(mat2_space.words) == 11
