import itertools
import tracemalloc

import numpy as np
import pytest

from conftest import noncommuting_config
from oracles import (Word, apply, block_inner_N, by_words, canonicalize, coeffs, from_array,
                     index_of, is_zero, lambda_span_dense, left_mul, right_mul, to_array,
                     word_list, word_vector)
from radmul.algebra import CrossedFactor, FiniteGroup, TracialAlgebra
from radmul.config import parse_config, preset_config
import radmul.fock as fock
from radmul.fock import Amalgam, FockSpace, FockVector
from radmul.operators import ends_in_factor_op, length_at_least_op, length_exactly_op
from radmul.verify import lambda_span

V2 = np.diag([1.0, -1.0]).astype(complex)


def spelled(space):
    """The letters of every word, read off the rows of ``space.words``."""
    return [tuple(space.letters[t] for t in row if t >= 0) for row in space.words]


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
    for letter in ((0, 0), (3, 0)):
        with pytest.raises(ValueError):
            Word().append(letter)
    # built without re-checking, the words equal (and hash as) checked ones
    built = [w.append((1, 1)), w.drop_first(), w.drop_last(),
             Word().append([2, 1]), Word(((0, 1),)).drop_last()]
    checked = [Word(((0, 1), (1, 2), (0, 1), (1, 1))),
               Word(((1, 2), (0, 1))), Word(((0, 1), (1, 2))), Word(((2, 1),)), Word()]
    assert built == checked
    assert [hash(b) for b in built] == [hash(c) for c in checked]
    assert all(type(x) is tuple for b in built for x in (b.letters,) + b.letters)


def test_enumerate_counts_dih(dih_space):
    space = FockSpace(dih_space.amalgam, 2)
    assert len(space.words) == 5
    assert spelled(space) == [(), ((0, 1),), ((1, 1),), ((0, 1), (1, 1)), ((1, 1), (0, 1))]
    assert space.words.tolist() == [[-1, -1], [0, -1], [1, -1], [0, 1], [1, 0]]


def test_enumerate_matches_brute_force(cy3_space):
    am = cy3_space.amalgam
    words = spelled(FockSpace(am, 3))
    assert set(words) == brute_words(am.letters(), 3)
    assert len(words) == len(set(words))
    # length-lexicographic order is part of the contract
    keys = [(len(w), w) for w in words]
    assert keys == sorted(keys)


def test_single_factor_words_stop_at_length_one():
    fac = CrossedFactor(TracialAlgebra(1), FiniteGroup.cyclic(3))
    am = Amalgam([fac])
    assert len(FockSpace(am, 4).words) == 3  # vacuum plus the two letters


def test_enumerate_length_zero(dih_space):
    space = FockSpace(dih_space.amalgam, 0)
    assert spelled(space) == [()]
    assert space.words.shape == (1, 0)


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
    # oracle: the words enumerated by the Word rules, and every table read
    # off them one word at a time
    words, n = word_list(space), len(space.words)
    index = {w: j for j, w in enumerate(words)}
    assert len(words) == n
    rows = [[letters.index(x) for x in w.letters] + [-1] * (space.L_max - len(w)) for w in words]
    assert np.array_equal(space.words, np.array(rows, dtype=np.intp).reshape(n, space.L_max))
    assert space.lengths.tolist() == [len(w) for w in words]
    assert space.first_factors.tolist() == [w.first_factor for w in words]
    assert space.last_factors.tolist() == [w.last_factor for w in words]
    assert space.dim == n * space.dim_N

    def at(make, *args):
        """The index of the word ``make`` gives, -1 where it is not reduced
        or not in the space."""
        try:
            return index.get(make(*args), -1)
        except ValueError:
            return -1

    want_app = [[at(w.append, x) for w in words] for x in letters]
    want_pre = [[at(Word, (x,) + w.letters) for w in words] for x in letters]
    assert np.array_equal(space.appended, np.array(want_app).reshape(-1, n))
    assert np.array_equal(space.prepended, np.array(want_pre).reshape(-1, n))
    nonempty = [w for w in words if w.letters]
    assert list(space.parent) == [-1] + [index[w.drop_last()] for w in nonempty]
    assert list(space.rest) == [-1] + [index[w.drop_first()] for w in nonempty]
    assert list(space.last_letter) == [-1] + [letters.index(w.letters[-1]) for w in nonempty]
    assert list(space.first_letter) == [-1] + [letters.index(w.letters[0]) for w in nonempty]
    want_strip = [[index[w.drop_first()] if w.letters[:1] == (x,) else -1
                   for w in words] for x in letters]
    assert np.array_equal(space.stripped, np.array(want_strip).reshape(-1, n))
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
        U.append(fac.unitaries[fac.group.inv(g)] @ U[index[w.drop_last()]])
    assert np.array_equal(space.push_unitaries, np.array(U))


def test_space_build_allocates_near_what_it_keeps():
    """The word tables are built as arrays one length at a time: the peak
    allocation of the build stays within twice the bytes of the arrays the
    space keeps (cy3 at fock_len 10: 4093 words)."""
    cfg = preset_config("cy3")
    cfg["truncation"]["fock_len"] = 10
    amalgam = Amalgam(parse_config(cfg).factors)
    tracemalloc.start()
    try:
        space = FockSpace(amalgam, 10)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    kept = sum(x.nbytes for x in vars(space).values() if isinstance(x, np.ndarray))
    assert len(space.words) == 4093
    assert peak <= 2 * kept, (peak, kept)


# ---------------------------------------------------------------- canonical form

def test_canonicalize_single_letter(dih_space):
    v = canonicalize(dih_space, [(0, 1)], [np.array([[1.0]]), np.array([[2.0]])])
    assert v.blocks[index_of(dih_space, (0, 1))][0, 0] == pytest.approx(2.0)


def test_canonicalize_trivial_action_commutes(mat2_space):
    rng = np.random.default_rng(0)
    b = mat2_space.base.random(rng)
    v = canonicalize(mat2_space, [(0, 1)], [b, np.eye(2)])
    assert np.allclose(v.blocks[index_of(mat2_space, (0, 1))], b)


def test_canonicalize_inner_action_twists(mat2_space):
    rng = np.random.default_rng(1)
    b = mat2_space.base.random(rng)
    v = canonicalize(mat2_space, [(1, 1)], [b, np.eye(2)])
    assert np.allclose(v.blocks[index_of(mat2_space, (1, 1))], V2 @ b @ V2)


def test_canonicalize_rejects_adjacent_same_factor(dih_space):
    with pytest.raises(ValueError):
        canonicalize(dih_space, [(0, 1), (0, 1)])


def test_canonicalize_truncates_to_zero(dih_space):
    letters = [(0, 1), (1, 1)] * 3  # length 6 > L_max = 5
    assert is_zero(canonicalize(dih_space, letters))


def test_left_mul_matches_canonicalize(mat2_space):
    rng = np.random.default_rng(2)
    b = mat2_space.base.random(rng)
    letters = [(1, 1), (0, 1)]
    direct = left_mul(word_vector(mat2_space, index_of(mat2_space, *letters)), b)
    via = canonicalize(mat2_space, letters, [b, np.eye(2), np.eye(2)])
    assert np.abs(direct.blocks - via.blocks).max() <= 1e-13


# ---------------------------------------------------------------- inner product

def test_inner_orthonormality(dih_space):
    w1 = to_array(word_vector(dih_space, index_of(dih_space, (0, 1))))
    w2 = to_array(word_vector(dih_space, index_of(dih_space, (1, 1))))
    trace = dih_space.base.trace
    assert trace(fock.inner_N(dih_space, w1, w1)) == pytest.approx(1.0)
    assert trace(fock.inner_N(dih_space, w1, w2)) == pytest.approx(0.0)


def test_inner_module_property(mat2_space):
    rng = np.random.default_rng(3)
    b, c = mat2_space.base.random(rng), mat2_space.base.random(rng)
    w = index_of(mat2_space, (0, 1))
    lhs = fock.inner_N(mat2_space, to_array(word_vector(mat2_space, w, b)),
                       to_array(word_vector(mat2_space, w, c)))
    assert np.allclose(lhs, b.conj().T @ c)


def test_array_roundtrip_preserves_inner(mat2_space):
    rng = np.random.default_rng(4)
    x = rng.standard_normal(mat2_space.dim) + 1j * rng.standard_normal(mat2_space.dim)
    y = rng.standard_normal(mat2_space.dim) + 1j * rng.standard_normal(mat2_space.dim)
    inner = fock.inner_N(mat2_space, x, y)
    assert mat2_space.base.trace(inner) == pytest.approx(complex(np.vdot(x, y)))
    assert np.allclose(to_array(from_array(mat2_space, x)), x)


@pytest.mark.parametrize("name", ["dih_space", "mat2_space", "cy3_space", "noncomm_space"])
def test_inner_N_matches_block_form(request, name):
    # oracle: the vectors' coefficient blocks, sum_w c_w* d_w; on a scalar
    # base the two routes add the same numbers in the same order
    space = request.getfixturevalue(name)
    rng = np.random.default_rng(8)
    x, y = space.random_array(rng), space.random_array(rng)
    w = 1
    b = to_array(word_vector(space, w, space.base.random(rng)))
    pairs = [(x, y), (y, x), (x, x), (b, to_array(word_vector(space, w)))]
    tol = 0.0 if space.base.d == 1 else 1e-15
    for u, v in pairs:
        want = block_inner_N(from_array(space, u), from_array(space, v))
        assert np.abs(fock.inner_N(space, u, v) - want).max() <= tol


def test_coordinate_maps_match_word_loop(mat2_space):
    # oracle: one word segment at a time, skipping all-zero segments
    space = mat2_space
    k, d, s = space.dim_N, space.base.d, np.sqrt(space.base.d)
    rng = np.random.default_rng(6)
    x = rng.standard_normal(space.dim) + 1j * rng.standard_normal(space.dim)
    x[3 * k:5 * k] = 0  # two zero words
    x[7 * k] = 1e-300  # a tiny entry keeps its word
    want = {j: x[j * k:(j + 1) * k].reshape(d, d) * s for j in range(len(space.words))
            if np.any(x[j * k:(j + 1) * k])}
    got = coeffs(from_array(space, x))
    assert list(got) == list(want)
    assert all(np.array_equal(got[j], want[j]) for j in want)
    back = np.zeros(space.dim, dtype=complex)
    for j, b in got.items():
        back[j * k:(j + 1) * k] = b.reshape(-1) / s
    assert np.array_equal(to_array(from_array(space, x)), back)
    assert to_array(FockVector(space)).shape == (space.dim,)


def test_vector_constructor_matches_word_loop(mat2_space):
    # oracle: one word index at a time, dropping all-zero words; by_words
    # drops the words past the truncation
    space = mat2_space
    rng = np.random.default_rng(7)
    given = {j: rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
             for j in (5, 0, 1, 2, 3, 4)}
    given[2] = np.zeros((2, 2))
    given[4] = np.array([[0, 1e-300], [0, 0]])  # a tiny entry keeps its word
    given[5] = np.eye(2, dtype=int)  # cast to complex
    want = {j: np.asarray(given[j], dtype=complex) for j in sorted(given) if np.any(given[j])}
    got = coeffs(FockVector(space, given))
    assert list(got) == list(want)
    assert all(got[j].dtype == complex and np.array_equal(got[j], want[j]) for j in want)
    assert coeffs(FockVector(space, {})) == {}
    too_long = Word(((0, 1), (1, 1)) * 3)  # beyond L_max = 5
    assert index_of(space, *too_long.letters) == -1
    assert coeffs(by_words(space, {too_long: np.eye(2)})) == {}


# ---------------------------------------------------------------- projections

def test_projection_examples(dih_space):
    vac = word_vector(dih_space, index_of(dih_space))
    assert is_zero(apply(length_at_least_op(dih_space, 1), vac))
    for i in range(len(dih_space.amalgam.factors)):
        assert is_zero(apply(ends_in_factor_op(dih_space, i), vac))
    w = word_vector(dih_space, index_of(dih_space, (0, 1), (1, 1)))
    assert is_zero(apply(ends_in_factor_op(dih_space, 0), w))
    kept = apply(ends_in_factor_op(dih_space, 1), w)
    assert not is_zero(kept)


def test_projection_idempotent_selfadjoint(dih_space):
    for op in (length_at_least_op(dih_space, 2), length_exactly_op(dih_space, 1),
               ends_in_factor_op(dih_space, 1)):
        P = op.matrix()[0]
        assert np.allclose(P @ P, P)
        assert np.allclose(P.conj().T, P)


def test_projection_commutes_with_right_action(mat2_space):
    rng = np.random.default_rng(5)
    b = mat2_space.base.random(rng)
    v = from_array(mat2_space, rng.standard_normal(mat2_space.dim) + 0j)
    P = ends_in_factor_op(mat2_space, 1)
    diff = apply(P, right_mul(v, b)).blocks - right_mul(apply(P, v), b).blocks
    assert np.abs(diff).max() <= 1e-13


# ---------------------------------------------------------------- spanning sets

def test_lambda_span_dimensions(dih_space, mat2_space):
    def columns(space, k):
        """The family's columns: one per word of length k and N-basis element."""
        return lambda_span(space, k).matrix()[0][:, space.guard_mask(k) & ~space.guard_mask(k - 1)]

    assert columns(dih_space, 0).shape[1] == 1
    assert columns(mat2_space, 0).shape[1] == 4
    fam = lambda_span(dih_space, 1)
    assert set(fam.rows.tolist()) == {index_of(dih_space, (0, 1)), index_of(dih_space, (1, 1))}
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
