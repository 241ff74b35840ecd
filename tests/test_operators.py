import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from radmul.algebra import cond_exp
from radmul.config import parse_config, preset_config
from radmul.fock import Word
from conftest import noncommuting_config
from oracles import (GeneratorWord, append_star, apply, as_op, coeffs, column_matrix,
                     epsilon_dense, expand, family, generator, generator_words, is_zero,
                     left_action, partition_identity_residual, phi_block_matrix, prepend,
                     random_word, right_action, rho_dense, strip_first, strip_star, to_array,
                     tower_dense, weighted_sum_dense, word_vector, zero_op)
from radmul.sparse import coalesce, max_column_norm, op_norm, schur_bound
from radmul.operators import (StructuredOperator, adjoint_check, amplify, annihilation,
                              apply_weights, build_T, creation, diag, eps_rho_tower,
                              epsilon_matrix, identity_op, left_mult, length_at_least_op,
                              partition_sum, phi_cb_bound, phi_weights, right_annihilation,
                              right_creation, right_mult, rho_matrix, rho_tower, stack)
from radmul.symbols import RadialSymbol, factorize, hankel_pair
from radmul.verify import (ReducedWord, amplified_stacks, embed, random_reduced_word,
                           word_operator)

SPACES = ["dih_space", "mat2_space", "cy3_space", "noncomm_space"]
SCALAR_BASE = {"dih_space", "cy3_space"}


def brute_phi_scalar(x, y, k, l, shift=0):
    """Oracle: sum_t x(k+t-shift) conj(y(l+t-shift)) with zero padding."""
    def at(v, i):
        return v[i] if 0 <= i < len(v) else 0.0
    return sum(at(x, k + t - shift) * np.conj(at(y, l + t - shift))
               for t in range(len(x) + shift + 1))


# ---------------------------------------------------------------- creation

def test_creation_on_vacuum(dih_space):
    v = apply(creation(dih_space, (0, 1)), word_vector(dih_space, Word()))
    assert not is_zero(v)
    assert list(coeffs(v)) == [Word(((0, 1),))]


def test_creation_same_factor_vanishes(dih_space):
    w = word_vector(dih_space, Word(((0, 1),)))
    assert is_zero(apply(creation(dih_space, (0, 1)), w))


def test_creation_overflow_truncates(dih_space):
    top = dih_space.words[-1]
    assert len(top) == dih_space.L_max
    lead = 0 if top.first_factor != 0 else 1  # admissible factor, only length blocks
    assert is_zero(apply(creation(dih_space, (lead, 1)), word_vector(dih_space, top)))


def test_right_creation_adjoint_convention(dih_space):
    # appending gamma* inverts the group element; for order two it returns itself
    w = word_vector(dih_space, Word(((1, 1),)))
    out = apply(right_creation(dih_space, (0, 1)), w)
    assert list(coeffs(out)) == [Word(((1, 1), (0, 1)))]


def test_right_creation_inverts_element(cy3_space):
    out = apply(right_creation(cy3_space, (0, 1)), word_vector(cy3_space, Word()))
    assert list(coeffs(out)) == [Word(((0, 2),))]  # (u_1)* = u_2 in Z/3


def test_annihilation_matching_letter(dih_space):
    w = word_vector(dih_space, Word(((0, 1),)))
    out = apply(annihilation(dih_space, (0, 1)), w)
    assert out.blocks[dih_space.word_index[Word()]][0, 0] == pytest.approx(1.0)


def test_annihilation_mismatch(cy3_space):
    w = word_vector(cy3_space, Word(((0, 2),)))
    assert is_zero(apply(annihilation(cy3_space, (0, 1)), w))


def test_annihilation_kills_vacuum(dih_space):
    assert is_zero(apply(annihilation(dih_space, (0, 1)), word_vector(dih_space, Word())))


def test_right_annihilation_coefficient_twist(mat2_space):
    rng = np.random.default_rng(0)
    b = mat2_space.base.random(rng)
    V = np.diag([1.0, -1.0]).astype(complex)
    w = word_vector(mat2_space, Word(((0, 1), (1, 1))), b)
    out = apply(right_annihilation(mat2_space, (1, 1)), w)
    assert np.allclose(out.blocks[mat2_space.word_index[Word(((0, 1),))]], V @ b @ V)


def test_direct_matrices_match_action(request):
    # oracle: the word-level rules, materialized column by column
    rng = np.random.default_rng(11)
    for name in SPACES:
        space = request.getfixturevalue(name)
        pairs = []
        for letter in space.amalgam.letters():
            pairs += [(creation(space, letter), prepend(space, letter)),
                      (annihilation(space, letter), strip_first(space, letter)),
                      (right_creation(space, letter), append_star(space, letter)),
                      (right_annihilation(space, letter), strip_star(space, letter))]
        b = space.base.random(rng)
        pairs += [(left_mult(space, b), left_action(b)), (right_mult(space, b), right_action(b))]
        for op, rule in pairs:
            diff = np.abs(op.matrix() - column_matrix(space, rule)).max()
            assert diff <= 1e-13, (name, op.name)


@pytest.mark.parametrize("make", [creation, annihilation, right_creation, right_annihilation])
def test_letter_constructors_reject_group_identity(dih_space, make):
    with pytest.raises(ValueError):
        make(dih_space, (0, 0))


@pytest.mark.parametrize("make", [creation, annihilation, right_creation, right_annihilation])
@pytest.mark.parametrize("letter, message", [
    ((2, 1), r"letter \(2, 1\) is not one of the configured letters \(\(0, 1\), \(1, 1\)\)"),
    ((0, 2), r"letter \(0, 2\) is not one of the configured letters"),
    ((0, 0), "avoid the group identity")], ids=["other-factor", "other-element", "identity"])
def test_letter_maps_reject_unconfigured_letters(dih_space, make, letter, message):
    with pytest.raises(ValueError, match=message):
        make(dih_space, letter)


def test_letter_maps_build_no_words(monkeypatch):
    """The letter maps, rho and left multiplication read the space's word
    graph: building them makes no ``Word``."""
    cfg = preset_config("cy3")
    cfg["truncation"]["fock_len"] = 8
    space = parse_config(cfg).space()
    made = []
    monkeypatch.setattr(Word, "__post_init__", lambda self: made.append(self))
    for letter in space.letters:
        for make in (creation, annihilation, right_creation, right_annihilation):
            make(space, letter)
    rho_matrix(space, identity_op(space))
    left_mult(space, 1.0)
    assert made == []
    assert not hasattr(space, "cache")


# ---------------------------------------------------------------- adjoints

def test_adjoint_pairs(dih_space, mat2_space):
    rng = np.random.default_rng(1)
    for space in (dih_space, mat2_space):
        x = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        for op, op_star in ((creation(space, (0, 1)), annihilation(space, (0, 1))),
                            (right_creation(space, (1, 1)), right_annihilation(space, (1, 1))),
                            (diag(space, x), diag(space, x.conj()))):
            assert adjoint_check(op, op_star, tol=1e-12).passed


def test_adjoint_check_rejects_wrong_adjoint(cy3_space):
    # L*(0, 2) strips a different letter than L(0, 1) prepends
    report = adjoint_check(creation(cy3_space, (0, 1)), annihilation(cy3_space, (0, 2)))
    assert [c.status for c in report.checks] == ["fail", "fail"]


def test_diag_adjoint_is_conjugate(dih_space):
    x = np.array([0.5 + 1j, -2.0, 3j, 1.0])
    D = diag(dih_space, x)
    Dbar = diag(dih_space, x.conj())
    assert np.allclose(D.adjoint().matrix(), Dbar.matrix())


def test_zero_operator_self_adjoint(dih_space):
    assert adjoint_check(zero_op(dih_space), zero_op(dih_space), tol=0.0).passed


# ---------------------------------------------------------------- diagonal maps

def test_diag_ones_is_identity_on_short_lengths(dih_space):
    ones = np.ones(dih_space.L_max + 1)
    assert np.allclose(diag(dih_space, ones).matrix(), np.eye(dih_space.dim))


def test_diag_e0_kills_length_one(dih_space):
    e0 = np.zeros(4)
    e0[0] = 1.0
    D = diag(dih_space, e0)
    assert is_zero(apply(D, word_vector(dih_space, Word(((0, 1),)))))
    assert not is_zero(apply(D, word_vector(dih_space, Word())))


def test_diag_backward_shift(dih_space):
    x = np.array([1.0, 2.0, 3.0, 4.0])
    D = diag(dih_space, x[1:])  # (S*)x
    w = word_vector(dih_space, Word(((0, 1),)))  # length 1 -> x(2) = 3
    assert apply(D, w).blocks[dih_space.word_index[Word(((0, 1),))]][0, 0] == pytest.approx(3.0)


def test_diag_forward_shift_vanishes_below(dih_space):
    x = np.array([1.0, 2.0, 3.0])
    D = diag(dih_space, np.concatenate([np.zeros(2), x]))  # S^2 x
    assert is_zero(apply(D, word_vector(dih_space, Word(((0, 1),)))))  # k=1 < n=2


# ---------------------------------------------------------------- partition identity

def test_partition_identity_scalar(dih_space):
    # the oracle: the partition of ||x||^2 by lengths, on scalars
    rng = np.random.default_rng(2)
    for _ in range(20):
        x = rng.standard_normal(40) + 1j * rng.standard_normal(40)
        x /= np.linalg.norm(x)
        assert partition_identity_residual(dih_space, x) <= 1e-12


def test_partition_identity_as_operators(dih_space):
    # sum_n D_{(S*)^n x} D*_{(S*)^n x} + sum_n D_{S^n x} rho^n(1) D*_{S^n x} = ||x||^2
    rng = np.random.default_rng(3)
    x = rng.standard_normal(12) + 1j * rng.standard_normal(12)
    total = np.zeros((dih_space.dim, dih_space.dim), dtype=complex)
    for n in range(len(x)):
        D = diag(dih_space, x[n:]).matrix()[0]
        total += D @ D.conj().T
    Q = as_op(dih_space, np.eye(dih_space.dim))
    for n in range(1, dih_space.L_max + 1):
        Q = rho_matrix(dih_space, Q)
        D = diag(dih_space, np.concatenate([np.zeros(n), x])).matrix()[0]
        total += D @ Q.matrix()[0] @ D.conj().T
    want = float(np.vdot(x, x).real) * np.eye(dih_space.dim)
    assert np.abs(total - want).max() <= 1e-12 * np.vdot(x, x).real
    # the package's sum adds the same terms as operators
    assert np.abs(partition_sum(dih_space, x).matrix()[0] - total).max() <= 1e-13


# ---------------------------------------------------------------- rho / epsilon

def test_rho_identity_is_q1(dih_space, mat2_space):
    for space in (dih_space, mat2_space):
        got = rho_matrix(space, as_op(space, np.eye(space.dim))).matrix()
        q1 = length_at_least_op(space, 1).matrix()
        assert np.abs(got - q1).max() == 0


def push_loop_left_mult(space, b):
    """Oracle: push b through every word letter by letter, one kron per word."""
    k = space.dim_N
    out = np.zeros((space.dim, space.dim), dtype=complex)
    for j, w in enumerate(space.words):
        pushed = b
        for letter in w.letters:
            pushed = space.amalgam.push(pushed, letter)
        out[j * k:(j + 1) * k, j * k:(j + 1) * k] = np.kron(pushed, np.eye(space.base.d))
    return out


@pytest.mark.parametrize("name", SPACES)
def test_rho_matrix_matches_dense_sum(request, name):
    # oracle: rho(A) = sum_gamma R A R^H, each R_{gamma*} materialized from
    # the word-level rule
    space = request.getfixturevalue(name)
    rng = np.random.default_rng(12)
    A = rng.standard_normal((space.dim, space.dim)) + 1j * rng.standard_normal((space.dim, space.dim))
    want = np.zeros_like(A)
    for letter in space.amalgam.letters():
        R = column_matrix(space, append_star(space, letter))
        want += R @ A @ R.conj().T
    diff = np.abs(rho_matrix(space, as_op(space, A)).matrix() - want).max()
    assert diff == 0 if name in SCALAR_BASE else diff <= 1e-13


@pytest.mark.parametrize("name", SPACES)
def test_left_mult_matrix_matches_push_loop(request, name):
    space = request.getfixturevalue(name)
    rng = np.random.default_rng(13)
    for _ in range(3):
        b = space.base.random(rng)
        diff = np.abs(left_mult(space, b).matrix() - push_loop_left_mult(space, b)).max()
        assert diff == 0 if name in SCALAR_BASE else diff <= 1e-13


def test_noncommuting_fixture_push_order_matters(noncomm_space):
    # pushing through the letters in reverse order gives a different operator,
    # so the left-multiplication oracle above pins the order
    space = noncomm_space
    b = space.base.random(np.random.default_rng(14))
    M = left_mult(space, b).matrix()[0]
    k = space.dim_N
    worst = 0.0
    for j, w in enumerate(space.words):
        pushed = b
        for letter in reversed(w.letters):
            pushed = space.amalgam.push(pushed, letter)
        block = M[j * k:(j + 1) * k, j * k:(j + 1) * k]
        worst = max(worst, np.abs(block - np.kron(pushed, np.eye(2))).max())
    assert worst > 0.1


def test_rho_kills_vacuum(dih_space):
    R = rho_matrix(dih_space, identity_op(dih_space)).matrix()
    assert not np.any(R @ to_array(word_vector(dih_space, Word())))


def test_rho_case2_generator_fixed_on_guarded_words(dih_space):
    gen = GeneratorWord(((0, 1),), ((0, 1),))
    A = generator(dih_space, gen)
    # a guarded length-2 word
    chi = to_array(word_vector(dih_space, Word(((0, 1), (1, 1)))))
    lhs = rho_matrix(dih_space, A).matrix() @ chi
    assert np.abs(lhs - A @ chi).max() <= 1e-13


def test_epsilon_identity_is_q1(dih_space):
    got = epsilon_matrix(dih_space, as_op(dih_space, np.eye(dih_space.dim))).matrix()
    q1 = length_at_least_op(dih_space, 1).matrix()
    assert np.abs(got - q1).max() == 0


def test_epsilon_case_rules(cy3_space):
    space = cy3_space
    g2 = GeneratorWord(((0, 1),), ((0, 2),))  # same factor: case 2
    assert family(space, [g2]).case2(space).tolist() == [True]
    A = generator(space, g2)
    assert np.abs(epsilon_matrix(space, A).matrix() - A.matrix()).max() <= 1e-13

    g1 = GeneratorWord(((0, 1),), ((1, 1),))  # different factors: case 1
    assert family(space, [g1]).case2(space).tolist() == [False]
    A = generator(space, g1)
    assert np.abs(epsilon_matrix(space, A).matrix()
                  - rho_matrix(space, A).matrix()).max() <= 1e-13


# ---------------------------------------------------------------- phi blocks

def test_phi1_of_identity_is_norm_squared(dih_space):
    rng = np.random.default_rng(4)
    x = rng.standard_normal(10) + 1j * rng.standard_normal(10)
    out = phi_block_matrix(dih_space, 1, x, x, as_op(dih_space, np.eye(dih_space.dim))).matrix()
    want = float(np.vdot(x, x).real) * np.eye(dih_space.dim)
    assert np.abs(out - want).max() <= 1e-12 * np.vdot(x, x).real


def test_phi_eigen_formula_on_generators(dih_space):
    rng = np.random.default_rng(5)
    x = rng.standard_normal(12) + 1j * rng.standard_normal(12)
    y = rng.standard_normal(12) + 1j * rng.standard_normal(12)
    for cre, ann in [((), ()), (((0, 1),), ()), (((0, 1),), ((0, 1),)),
                     (((0, 1),), ((1, 1),)), (((0, 1), (1, 1)), ((0, 1),))]:
        gen = GeneratorWord(cre, ann)
        op = generator(dih_space, gen)
        A = op.matrix()[0]
        k, l = gen.k, gen.l
        guard = dih_space.guard_mask(dih_space.L_max - max(k - l, 0) - 1)
        s1 = brute_phi_scalar(x, y, k, l)
        out1 = phi_block_matrix(dih_space, 1, x, y, op).matrix()[0]
        assert np.abs((out1 - s1 * A)[:, guard]).max() <= 1e-10
        s2 = s1 if gen.case == 1 else brute_phi_scalar(x, y, k, l, shift=1)
        out2 = phi_block_matrix(dih_space, 2, x, y, op).matrix()[0]
        assert np.abs((out2 - s2 * A)[:, guard]).max() <= 1e-10


def test_phi_zero_vector_gives_zero(dih_space):
    out = phi_block_matrix(dih_space, 1, np.zeros(6), np.ones(6),
                           as_op(dih_space, np.eye(dih_space.dim))).matrix()
    assert np.abs(out).max() == 0


def test_phi_cb_bound_values(dih_space):
    e0 = np.zeros(5)
    e0[0] = 1.0
    assert phi_cb_bound(dih_space, e0, e0) == pytest.approx(1.0, abs=1e-12)
    assert phi_cb_bound(dih_space, np.zeros(5), e0) == 0.0
    rng = np.random.default_rng(7)
    x = rng.standard_normal(16) + 1j * rng.standard_normal(16)
    y = rng.standard_normal(16) + 1j * rng.standard_normal(16)
    x /= np.linalg.norm(x)
    y /= np.linalg.norm(y)
    assert phi_cb_bound(dih_space, x, y) <= 1.0 + 1e-10


# ---------------------------------------------------------------- cases

def test_case_classification(cy3_space):
    # the array form's case against the letter tuples': case 2 when xi_k and
    # eta_l, the letters that meet, share a factor
    gens = [GeneratorWord(), GeneratorWord((), ((0, 1),)), GeneratorWord(((0, 1),), ()),
            GeneratorWord(((0, 1),), ((1, 1),)), GeneratorWord(((0, 1),), ((0, 2),)),
            GeneratorWord(((1, 1), (0, 1)), ((1, 1), (0, 1))),
            GeneratorWord(((0, 1), (1, 1)), ((1, 2), (0, 1))),
            GeneratorWord(((0, 2), (1, 1)), ((0, 1), (1, 2)))]
    want = [False, False, False, False, True, True, False, True]
    fam = family(cy3_space, gens)
    assert [gw.case == 2 for gw in gens] == fam.case2(cy3_space).tolist() == want
    assert (fam.k.tolist(), fam.l.tolist()) == ([gw.k for gw in gens], [gw.l for gw in gens])
    assert generator_words(cy3_space, fam) == gens



def generator_factor_matrices(space, gw):
    """Oracle: b_0, L_{xi_1}, b_1, ..., L_{xi_k}, b_k, then L*_{eta_l}, bt_l,
    ..., L*_{eta_1}, bt_1 as matrices from the word-level rules, identity
    coefficients spelled out."""
    one = space.base.identity()
    b = gw.cre_coeffs or (one,) * (gw.k + 1)
    bt = gw.ann_coeffs or (one,) * gw.l
    mats = [column_matrix(space, left_action(b[0]))]
    for xi, coeff in zip(gw.cre_letters, b[1:]):
        mats += [column_matrix(space, prepend(space, xi)),
                 column_matrix(space, left_action(coeff))]
    for j in range(gw.l - 1, -1, -1):
        mats += [column_matrix(space, strip_first(space, gw.ann_letters[j])),
                 column_matrix(space, left_action(bt[j]))]
    return mats


@pytest.mark.parametrize("name", ["dih_space", "mat2_space", "noncomm_space"])
def test_generator_operator_matches_factor_product(request, name):
    space = request.getfixturevalue(name)
    rng = np.random.default_rng(16)
    gens = [GeneratorWord((), ()),
            GeneratorWord((), (), cre_coeffs=(space.base.random(rng),))]
    for k, l in [(1, 0), (0, 1), (2, 1), (1, 2), (2, 2)]:
        for c in (False, True):
            gw = random_word(rng, space, k, l)
            gens.append(gw if c else GeneratorWord(gw.cre_letters, gw.ann_letters))
    for gw in gens:
        want = np.linalg.multi_dot(generator_factor_matrices(space, gw) + [np.eye(space.dim)])
        got = generator(space, gw).matrix()
        assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()

def test_words_count_by_length(dih_space, cy3_space):
    # dih: one letter per factor, so two words of every length >= 1; cy3:
    # 4 letters, the first free (4), each next one of the other factor's 2
    assert [sum(len(w) == n for w in dih_space.words) for n in range(6)] == [1, 2, 2, 2, 2, 2]
    assert [sum(len(w) == n for w in cy3_space.words) for n in range(5)] == [1, 4, 8, 16, 32]



def tower(space, op):
    """[A, rho(A), ..., rho^L(A), eps(A), rho(eps(A)), ..., rho^{L-1}(eps(A))]
    from the package's two towers."""
    return [op] + rho_tower(space, op, space.L_max) + eps_rho_tower(space, op, space.L_max)


@pytest.mark.parametrize("name", SPACES)
def test_tower_layout(request, name):
    # the package's towers iterate rho on A and on eps(A); the weight set
    # of a multiplier lays its tables out on them as ``expand`` says: an
    # entry of A at lengths (a, b) sits at (a + n, b + n) in rho^n(A), and
    # keeps the weight P1[a, b] (P2[a, b] from eps(A))
    space = request.getfixturevalue(name)
    rng = np.random.default_rng(17)
    A = rng.standard_normal((space.dim, space.dim)) + 1j * rng.standard_normal((space.dim, space.dim))
    L = space.L_max
    op = as_op(space, A)
    tw = tower(space, op)
    assert len(tw) == 2 * L + 1
    W = random_complex(rng, (3, L + 1, L + 1))
    tables = expand(W)
    assert np.array_equal(tables[0], W[0])
    for n in range(1, L + 1):
        for a in range(n, L + 1):
            for b in range(n, L + 1):
                assert tables[n, a, b] == W[1, a - n, b - n]
                assert tables[L + n, a, b] == W[2, a - n + 1, b - n + 1]
        assert not tables[n, :n].any() and not tables[n, :, :n].any()
    B, E = op, epsilon_matrix(space, op)
    for n in range(L + 1):
        assert np.array_equal(tw[n].matrix(), B.matrix())
        B = rho_matrix(space, B)
    for n in range(L):
        assert np.array_equal(tw[L + 1 + n].matrix(), E.matrix())
        E = rho_matrix(space, E)


@pytest.mark.parametrize("name", SPACES)
def test_weighted_sum_matches_expanded_tables(request, name):
    # apply_weights (Horner's rule) against the weighted sum of the package's
    # towers with every table expanded to a full matrix
    space = request.getfixturevalue(name)
    rng = np.random.default_rng(18)
    L = space.L_max
    W = random_complex(rng, (3, L + 1, L + 1))
    W[0, 1] = W[1, :, 0] = W[2, L - 1] = 0  # lengths with no weight
    A = rng.standard_normal((space.dim, space.dim)) + 1j * rng.standard_normal((space.dim, space.dim))
    op = as_op(space, A)
    want = weighted_sum_dense(space, expand(W), [member.matrix() for member in tower(space, op)])
    got = apply_weights(space, W, op).matrix()
    assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()

WEIGHT_SYMBOLS = [RadialSymbol.indicator01(), RadialSymbol.geometric(0.5),
                  RadialSymbol.geometric(-0.5),
                  RadialSymbol(head=(1.0, 0.5j), coefficient=0.8 - 0.3j, ratio=-0.6 + 0.5j,
                               limit=0.2 + 0.1j)]


@pytest.mark.parametrize("name", SPACES)
@pytest.mark.parametrize("phi", WEIGHT_SYMBOLS, ids=["preset", "geometric", "geometric-negative",
                                                    "complex-tail"])
def test_multiplier_matches_weighted_dense_tower(request, name, phi):
    # T1, T2 and T by Horner's rule against the weighted dense tower, on a
    # dense random matrix: bit for bit for the preset's 0/1 weights, where
    # no two weighted terms meet on one entry, else to rounding; noncomm's
    # twists are not exact in floating point, and rho_dense applies them in
    # another order than rho_matrix
    space = request.getfixturevalue(name)
    rng = np.random.default_rng(19)
    A = random_complex(rng, (space.dim, space.dim))
    T, tw = build_T(space, phi), tower_dense(space, A)
    for W in (T.t1_weights, T.t2_weights, T.weights):
        got = apply_weights(space, W, as_op(space, A)).matrix()[0]
        want = weighted_sum_dense(space, expand(W), tw)
        if np.isin(W, (0, 1)).all() and name != "noncomm_space":
            assert np.array_equal(got, want)
        else:
            assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()


# ---------------------------------------------------------------- entries against dense oracles

def random_operator(space, rng, density=0.2):
    """Operator with random blocks on a random set of word pairs."""
    n, k = len(space.words), space.dim_N
    r, c = np.nonzero(rng.random((n, n)) < density)
    return StructuredOperator(space, r, c, random_complex(rng, (r.size, k, k)), "random")


def entry_cases(space, rng):
    """A random operator, the empty operator and one whose blocks are all zero."""
    op = random_operator(space, rng)
    return [op, zero_op(space),
            StructuredOperator(space, op.rows, op.cols, np.zeros_like(op.blocks), "zeros")]


def assert_close(got, want):
    assert np.abs(got - want).max() <= 1e-14 * max(np.abs(want).max(), 1.0)


@pytest.mark.parametrize("name", SPACES)
def test_entry_rho_epsilon_tower_match_dense_oracles(request, name):
    space = request.getfixturevalue(name)
    rng = np.random.default_rng(21)
    L = space.L_max
    for op in entry_cases(space, rng):
        A = op.matrix()
        rho = rho_matrix(space, op)
        assert isinstance(rho, StructuredOperator)
        assert_close(rho.matrix(), rho_dense(space, A))
        assert_close(epsilon_matrix(space, op).matrix(), epsilon_dense(space, A))
        tw, want = tower(space, op), tower_dense(space, A)
        assert len(tw) == len(want) == 2 * L + 1
        for member, dense in zip(tw, want):
            assert_close(member.matrix(), dense)
        W = random_complex(rng, (3, L + 1, L + 1))
        W[1] = 0
        assert_close(apply_weights(space, W, op).matrix(),
                     weighted_sum_dense(space, expand(W), want))


@pytest.mark.parametrize("name", SPACES)
def test_product_matches_dense_product(request, name):
    # left factors: a partial word map (a gather), a map sending every word
    # to the vacuum (a gather whose rows repeat) and a random operator (a join)
    space = request.getfixturevalue(name)
    rng = np.random.default_rng(26)
    n, k = len(space.words), space.dim_N
    to_vacuum = StructuredOperator(space, np.zeros(n, dtype=int), np.arange(n),
                                   random_complex(rng, (n, k, k)), "to vacuum")
    for a in (creation(space, space.amalgam.letters()[-1]), to_vacuum,
              random_operator(space, rng)):
        for b in entry_cases(space, rng):
            want = a.matrix() @ b.matrix()
            assert_close((a @ b).matrix(), want)
            assert_close((a + b).matrix(), a.matrix() + b.matrix())
            assert_close((a - 2j * b.adjoint()).matrix()[0],
                         a.matrix()[0] - 2j * b.matrix()[0].conj().T)


@pytest.mark.parametrize("name", SPACES)
def test_stacked_operations_repeat_each_sample_exactly(request, name):
    # every sample of a stack comes out bit for bit, entries in the same
    # order, as its single operator does: the left factors mix a gather, a
    # gather with repeated rows, a join with repeated pairs and an empty one.
    # The stacks are built once from the single operators and once by
    # joining two stacks of two samples each
    space = request.getfixturevalue(name)
    rng = np.random.default_rng(27)
    n, k, L = len(space.words), space.dim_N, space.L_max
    to_vacuum = StructuredOperator(space, np.zeros(n, dtype=int), np.arange(n),
                                   random_complex(rng, (n, k, k)), "to vacuum")
    lefts = [creation(space, space.amalgam.letters()[-1]), to_vacuum,
             random_operator(space, rng), zero_op(space)]
    rights = [random_operator(space, rng) for _ in lefts]
    scale = random_complex(rng, len(lefts))
    W = random_complex(rng, (3, L + 1, L + 1))
    pairs = list(zip(lefts, rights, scale))
    for A, B in ((stack(lefts), stack(rights)),
                 (stack([stack(lefts[:2]), stack(lefts[2:])]),
                  stack([stack(rights[:2]), stack(rights[2:])]))):
        cases = [(A @ B, [a @ b for a, b, _ in pairs]),
                 (scale * A - B.adjoint(), [c * a - b.adjoint() for a, b, c in pairs]),
                 (rho_matrix(space, B), [rho_matrix(space, b) for b in rights]),
                 (epsilon_matrix(space, B), [epsilon_matrix(space, b) for b in rights]),
                 (apply_weights(space, W, A @ B),
                  [apply_weights(space, W, a @ b) for a, b, _ in pairs])]
        for got, want in cases:
            assert got.n_samples == len(want)
            for s, single in enumerate(want):
                on = got.samples == s
                for field in ("rows", "cols", "blocks"):
                    assert np.array_equal(getattr(got, field)[on], getattr(single, field))
        assert op_norm(A @ B).tolist() == [op_norm(a @ b)[0] for a, b, _ in pairs]
        assert (A @ B).block_max().tolist() == [(a @ b).block_max()[0] for a, b, _ in pairs]
        with pytest.raises(ValueError):
            A @ stack(rights[:2])
    # a single operator is a stack of one: stacking it alone keeps its
    # entries and its results, and the two mix in a product
    x = random_complex(rng, space.dim)
    for single in lefts + rights:
        one = stack([single])
        assert one.n_samples == 1 and not one.samples.any()
        for field in ("rows", "cols", "blocks"):
            assert np.array_equal(getattr(one, field), getattr(single, field))
            assert np.array_equal(getattr(single @ one, field), getattr(single @ single, field))
        assert np.array_equal(one.matrix(), single.matrix())
        assert np.array_equal(one @ x, single @ x)
        assert one.block_max().tolist() == single.block_max().tolist()
        assert op_norm(one).tolist() == op_norm(single).tolist()
    # T of stacks joined into one and split back by ``select`` is T of each
    # stack, entry for entry
    T = build_T(space, WEIGHT_SYMBOLS[-1])
    ops = [stack(lefts) @ stack(rights), stack(rights[:3]), stack(lefts[1:3])]
    images = T.apply_matrix(stack(ops))
    first = np.cumsum([0] + [op.n_samples for op in ops])
    sample = np.arange(images.n_samples)
    assert images.n_samples == first[-1]
    for op, start, stop in zip(ops, first, first[1:]):
        got, want = images.select((sample >= start) & (sample < stop)), T.apply_matrix(op)
        assert got.n_samples == want.n_samples
        for field in ("samples", "rows", "cols", "blocks"):
            assert np.array_equal(getattr(got, field), getattr(want, field))


def dense_embed(space, a):
    """Oracle: sum_{j,k} L_{e_j} E(e_j* a e_k) L*_{e_k} as dense matrices from
    the word-level rules, the e_0 slots being the projection onto words that
    do not start in the factor."""
    i = next(j for j, fac in enumerate(space.amalgam.factors) if fac is a.factor)
    basis = a.factor.pp_basis()
    guard = np.diag(np.repeat([w.first_factor != i for w in space.words],
                              space.dim_N)).astype(complex)
    total = np.zeros((space.dim, space.dim), dtype=complex)
    for j, ej in enumerate(basis):
        up = guard if j == 0 else column_matrix(space, prepend(space, (i, j)))
        for k, ek in enumerate(basis):
            down = guard if k == 0 else column_matrix(space, strip_first(space, (i, k)))
            coef = column_matrix(space, left_action(cond_exp(ej.star() * a * ek)))
            total += np.linalg.multi_dot([up, coef, down])
    return total


@pytest.mark.parametrize("name", ["dih_space", "mat2_space", "cy3_space", "noncomm_space"])
def test_embed_and_word_operator_match_factor_products(request, name):
    space = request.getfixturevalue(name)
    rng = np.random.default_rng(22)
    for fac in space.amalgam.factors:
        a, b = fac.random(rng), fac.random(rng)
        want = dense_embed(space, a)
        assert np.abs(embed(space, a).matrix() - want).max() <= 1e-14 * np.abs(want).max()
        # a product through an embed adds several terms on one word pair
        want = want @ dense_embed(space, b)
        got = (embed(space, a) @ embed(space, b)).matrix()
        assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()
    for n in (1, 2, 3):
        w = random_reduced_word(rng, space, n)
        mats = [column_matrix(space, left_action(w.coeffs[0]))]
        for a, b in zip(w.letters, w.coeffs[1:]):
            mats += [dense_embed(space, a), column_matrix(space, left_action(b))]
        want = np.linalg.multi_dot(mats)
        got = word_operator(space, w).matrix()
        assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()
    b = space.base.random(rng)
    got = word_operator(space, ReducedWord((), (b,))).matrix()
    assert np.array_equal(got, left_mult(space, b).matrix())


def random_sparse(rng, n, density=0.08):
    A = np.zeros((n, n), dtype=complex)
    r, c = np.nonzero(rng.random((n, n)) < density)
    A[r, c] = random_complex(rng, r.size)
    return A


@pytest.mark.parametrize("n", [40, 60])
def test_op_norm_on_entries_matches_full_svd(n):
    rng = np.random.default_rng(23)
    A = random_sparse(rng, n)
    assert abs(op_norm(A) - svd_norm(A)) <= 1e-13 * svd_norm(A)
    r, c = np.nonzero(A)
    for bad in (np.inf, np.nan):
        B = A.copy()
        B[r[3], c[3]] = bad
        assert op_norm(B) == float("inf")
    assert op_norm(np.zeros((n, n))) == 0.0
    assert op_norm(np.zeros((0, n))) == 0.0


@pytest.mark.parametrize("name", SPACES)
def test_op_norm_on_operators_matches_full_svd(request, name):
    space = request.getfixturevalue(name)
    rng = np.random.default_rng(25)
    for op in entry_cases(space, rng):
        want = svd_norm(op.matrix()[0])
        assert abs(op_norm(op)[0] - want) <= 1e-13 * want


@pytest.mark.parametrize("name", SPACES)
def test_norm_bounds_bracket_op_norm(request, name):
    # the theorem suite's one-pass bounds: the largest column 2-norm is at
    # most the norm, sqrt(largest column abs-sum * largest row abs-sum) at
    # least; on an operator, a stack of them and the dense array alike
    space = request.getfixturevalue(name)
    rng = np.random.default_rng(28)
    words = [random_reduced_word(rng, space, n) for n in (1, 2, 2, 3)]
    ops = entry_cases(space, rng) + [random_operator(space, rng, density=0.05)]
    ops += [word_operator(space, w) for w in words]
    for op in ops:
        lower, exact, upper = max_column_norm(op)[0], op_norm(op)[0], schur_bound(op)[0]
        assert lower <= exact * (1 + 1e-14) and exact <= upper * (1 + 1e-14), op.name
        dense = op.matrix()[0]
        assert (max_column_norm(dense)[0], schur_bound(dense)[0]) == (lower, upper)
    stacked = stack(ops)
    assert max_column_norm(stacked).tolist() == [max_column_norm(op)[0] for op in ops]
    assert schur_bound(stacked).tolist() == [schur_bound(op)[0] for op in ops]
    # a creation word's columns are unit vectors or zero, and its rows too:
    # both bounds are its norm, 1
    letters = next(w.letters for w in space.words if len(w) == 2)
    A = generator(space, GeneratorWord(letters, ()))
    assert max_column_norm(A) == schur_bound(A) == 1.0
    assert op_norm(A) == pytest.approx(1.0, abs=1e-15)
    # a non-finite entry gives inf, as op_norm does
    bad = StructuredOperator(space, A.rows, A.cols, A.blocks.copy(), "bad")
    bad.blocks[0, 0, 0] = np.nan
    assert max_column_norm(bad) == schur_bound(bad) == op_norm(bad) == np.inf


def test_op_norm_of_generator_killed_by_T(dih_space):
    # the preset symbol vanishes from length 2 on, so T leaves no entries
    T = build_T(dih_space, RadialSymbol(head=(1.0, 1.0), limit=0.0))
    TA = T.apply_matrix(generator(dih_space, GeneratorWord(((0, 1), (1, 1)), ())))
    assert TA.rows.size == 0
    assert op_norm(TA) == 0.0


# ---------------------------------------------------------------- the multiplier

def test_constant_symbol_gives_identity(dih_space):
    T = build_T(dih_space, RadialSymbol.constant(1.0))
    rng = np.random.default_rng(8)
    A = rng.standard_normal((dih_space.dim, dih_space.dim)) + 0j
    op = as_op(dih_space, A)
    assert np.abs(apply_weights(dih_space, T.t1_weights, op).matrix()).max() == 0
    assert np.abs(apply_weights(dih_space, T.t2_weights, op).matrix()).max() == 0
    assert np.allclose(T.apply_matrix(op).matrix(), A)


def test_delta0_rules(dih_space):
    T = build_T(dih_space, RadialSymbol.delta0())
    a00 = identity_op(dih_space)
    assert np.abs(T.apply_matrix(a00).matrix() - a00.matrix()).max() <= 1e-12
    a10 = generator(dih_space, GeneratorWord(((0, 1),), ()))
    assert np.abs(T.apply_matrix(a10).matrix()).max() <= 1e-12


def test_indicator_t1_rule(dih_space):
    phi = RadialSymbol.indicator01()
    T = build_T(dih_space, phi)
    for cre, ann in [((), ()), (((0, 1),), ()), (((0, 1),), ((1, 1),))]:
        gen = GeneratorWord(cre, ann)
        op = generator(dih_space, gen)
        want = phi.psi1(gen.k + gen.l)
        guard = dih_space.guard_mask(dih_space.L_max - max(gen.k - gen.l, 0) - 1)
        t1 = apply_weights(dih_space, T.t1_weights, op).matrix()[0]
        assert np.abs((t1 - want * op.matrix()[0])[:, guard]).max() <= 1e-11


def _svd_pairs(phi, M):
    # the paper's route: rank-one pairs of the truncated Hankel matrices
    hp = hankel_pair(phi, M)
    return factorize(hp.h).pairs, factorize(hp.k).pairs


def test_t1_equals_sum_of_phi_blocks(dih_space):
    phi = RadialSymbol.geometric(0.5)
    T = build_T(dih_space, phi)
    h_pairs, k_pairs = _svd_pairs(phi, 24)
    gen = GeneratorWord(((0, 1),), ((0, 1),))
    op = generator(dih_space, gen)
    total = np.zeros((dih_space.dim, dih_space.dim), dtype=complex)
    for x, y in h_pairs:
        total += phi_block_matrix(dih_space, 1, x, y, op).matrix()[0]
    assert np.abs(total - apply_weights(dih_space, T.t1_weights, op).matrix()[0]).max() <= 1e-11
    total2 = np.zeros((dih_space.dim, dih_space.dim), dtype=complex)
    for z, w in k_pairs:
        total2 += phi_block_matrix(dih_space, 2, z, w, op).matrix()[0]
    assert np.abs(total2 - apply_weights(dih_space, T.t2_weights, op).matrix()[0]).max() <= 1e-11


@pytest.mark.parametrize("phi", [
    RadialSymbol.indicator01(),
    RadialSymbol.geometric(-0.5),
    RadialSymbol.geometric(0.4 + 0.3j, coefficient=1 - 0.5j),
    RadialSymbol(head=(1.0, 0.5j, -0.25), coefficient=0.8 - 0.3j, ratio=-0.6 + 0.5j, limit=0.2 + 0.1j),
], ids=["indicator01", "geometric-negative", "geometric-complex", "head-complex-tail-limit"])
def test_weight_stacks_equal_sums_of_phi_weights(phi):
    # the paper's factorization, entry by entry: the closed-form T1 and T2
    # weight sets against the Phi sets summed over the rank-one pairs of the
    # truncated h (variant 1) and k (variant 2), on cy3 at L = 5; a complex
    # ratio is where a wrong conjugate would show
    space = parse_config(preset_config("cy3")).space()
    T = build_T(space, phi)
    hp = hankel_pair(phi, 96)
    for variant, A, want in ((1, hp.h, T.t1_weights), (2, hp.k, T.t2_weights)):
        got = sum(phi_weights(space, variant, x, y) for x, y in factorize(A).pairs)
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def test_case_convention_pinned_by_scaling(dih_space):
    # l = 2 separates the two possible readings of the case rule: the letter
    # adjacent to the final creation is the LAST annihilation entry.  Here
    # cre[-1] and ann[-1] share factor 0 while ann[0] lives in factor 1, so
    # the word is case 2 and must scale by phi(k+l-1), not phi(k+l).
    gen = GeneratorWord(((0, 1),), ((1, 1), (0, 1)))
    assert family(dih_space, [gen]).case2(dih_space).tolist() == [True]
    phi = RadialSymbol.geometric(0.5)  # phi(2) = 0.25 != phi(3) = 0.125
    T = build_T(dih_space, phi)
    op = generator(dih_space, gen)
    A, TA = op.matrix()[0], T.apply_matrix(op).matrix()[0]
    guard = dih_space.guard_mask(dih_space.L_max - 1)
    res2 = np.abs((TA - phi(2) * A)[:, guard]).max()
    res1 = np.abs((TA - phi(3) * A)[:, guard]).max()
    assert res2 <= 1e-10
    assert res1 > 1e-3


def test_multiplier_collapse_on_arbitrary_matrix(dih_space):
    # the length-indexed weight tables must agree with summing the Phi
    # blocks pair by pair, for inputs far outside the generated algebra
    rng = np.random.default_rng(12)
    phi = RadialSymbol(head=(1.0, -0.5, 0.25), limit=0.1)
    T = build_T(dih_space, phi)
    h_pairs, k_pairs = _svd_pairs(phi, 24)
    A = rng.standard_normal((dih_space.dim, dih_space.dim)) \
        + 1j * rng.standard_normal((dih_space.dim, dih_space.dim))
    op = as_op(dih_space, A)
    total = phi.limit * A
    for x, y in h_pairs:
        total = total + phi_block_matrix(dih_space, 1, x, y, op).matrix()
    for z, w in k_pairs:
        total = total + phi_block_matrix(dih_space, 2, z, w, op).matrix()
    assert np.abs(total - T.apply_matrix(op).matrix()).max() <= 1e-11 * np.abs(A).max()


def truncated(data, fock_len):
    return parse_config(dict(data, truncation=dict(data["truncation"], fock_len=fock_len))).space()


COMPRESSIONS = [("cy3", preset_config("cy3"), 4, 6), ("mat2", preset_config("mat2"), 3, 5),
                ("dih", preset_config("dih"), 5, 8), ("noncomm", noncommuting_config(), 2, 3)]


@pytest.mark.parametrize("data, L, L_big", [c[1:] for c in COMPRESSIONS],
                         ids=["%s-%d-%d" % (c[0], c[2], c[3]) for c in COMPRESSIONS])
def test_truncation_is_a_compression(data, L, L_big):
    # T_L(A) = P_L T_L'(A + 0) P_L for L' > L, and so for rho and eps, bit
    # for bit: a bound on the truncated multiplier bounds the longer ones
    small, big = truncated(data, L), truncated(data, L_big)
    n = small.dim
    assert big.words[:len(small.words)] == small.words  # so A + 0 pads A's words
    rng = np.random.default_rng(L_big)
    A = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    padded = np.zeros((big.dim, big.dim), dtype=complex)
    padded[:n, :n] = A
    maps = [rho_matrix, epsilon_matrix] + [
        lambda space, X, phi=phi: build_T(space, phi).apply_matrix(X)
        for phi in (RadialSymbol.indicator01(), RadialSymbol.geometric(-0.5),
                    RadialSymbol.geometric(0.4 + 0.3j, coefficient=1 - 0.5j))]
    for f in maps:
        compressed = f(big, as_op(big, padded)).matrix()[0][:n, :n]
        assert np.array_equal(f(small, as_op(small, A)).matrix()[0], compressed)


# ---------------------------------------------------------------- coalesce

@st.composite
def stacks_with_repeats(draw):
    """(samples, rows, cols, values, n_samples, n_cols) of a random stack
    in which at least one position repeats."""
    n_samples, n = draw(st.integers(1, 4)), draw(st.integers(1, 3))
    position = st.tuples(st.integers(0, n_samples - 1), st.integers(0, n - 1),
                         st.integers(0, n - 1))
    positions = draw(st.lists(position, min_size=1, max_size=30))
    positions.insert(draw(st.integers(0, len(positions))), draw(st.sampled_from(positions)))
    values = draw(st.lists(st.complex_numbers(max_magnitude=1e6, allow_nan=False),
                           min_size=len(positions), max_size=len(positions)))
    samples, rows, cols = (np.array(x, dtype=np.intp) for x in zip(*positions))
    return samples, rows, cols, np.array(values, dtype=complex), n_samples, n


@settings(max_examples=200, derandomize=True, deadline=None, database=None)
@given(stacks_with_repeats())
def test_coalesce_sorts_positions_and_adds_in_entry_order(stack):
    samples, rows, cols, values, n_samples, n = stack
    out = coalesce(samples, rows, cols, values, n)
    expected = {}
    for key, v in zip(zip(samples.tolist(), rows.tolist(), cols.tolist()), values.tolist()):
        expected[key] = expected[key] + v if key in expected else v
    keys = list(zip(*(x.tolist() for x in out[:3])))
    assert keys == sorted(expected)
    assert out[3].tolist() == [expected[k] for k in keys]
    for s in range(n_samples):
        on, mine = samples == s, out[0] == s
        alone = coalesce(np.zeros(np.count_nonzero(on), dtype=np.intp), rows[on], cols[on],
                         values[on], n)
        for x, y in zip(alone[1:], out[1:]):
            assert np.array_equal(x, y[mine])


# ---------------------------------------------------------------- norms

def test_op_norm_identity(dih_space):
    assert op_norm(identity_op(dih_space).matrix()[0])[0] == pytest.approx(1.0)


def test_op_norm_creation_is_isometry(dih_space):
    assert op_norm(creation(dih_space, (0, 1)).matrix()[0])[0] == pytest.approx(1.0)


def test_op_norm_diag(dih_space):
    x = np.array([0.5, -2.0, 1.0, 0.0, 0.0, 0.0])
    assert op_norm(diag(dih_space, x).matrix()[0])[0] == pytest.approx(2.0)


def svd_norm(A):
    """Oracle: largest singular value from one SVD of the whole matrix."""
    s = np.linalg.svd(A, compute_uv=False)
    return float(s[0]) if s.size else 0.0


def random_complex(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def permuted_block_diagonal(rng, shapes, zero_rows=0, zero_cols=0, scales=None):
    """Blocks of the given shapes (times the given scales) on the diagonal,
    padded with all-zero rows and columns, then rows and columns shuffled."""
    n_r = sum(a for a, _ in shapes) + zero_rows
    n_c = sum(b for _, b in shapes) + zero_cols
    A = np.zeros((n_r, n_c), dtype=complex)
    i = j = 0
    for (a, b), scale in zip(shapes, scales or [1.0] * len(shapes)):
        A[i:i + a, j:j + b] = scale * random_complex(rng, (a, b))
        i, j = i + a, j + b
    return A[rng.permutation(n_r)][:, rng.permutation(n_c)]


def _joined_blocks():
    A = np.zeros((55, 55), dtype=complex)
    A[:30, :25] = random_complex(np.random.default_rng(3), (30, 25))
    A[30:, 25:] = 2.0 * random_complex(np.random.default_rng(4), (25, 30))
    A[29, 40] = 1e-300  # one component, however small the link
    return A


@pytest.mark.parametrize("A", [
    np.zeros((50, 60)),
    np.zeros((0, 3)),
    random_complex(np.random.default_rng(0), (70, 30)),
    random_complex(np.random.default_rng(1), (1, 60)),
    random_complex(np.random.default_rng(2), (60, 60)),
    permuted_block_diagonal(np.random.default_rng(5),
                            [(3, 2), (1, 1), (4, 4), (2, 5), (2, 3), (1, 3), (6, 6)] * 3,
                            zero_rows=3, zero_cols=2),
    _joined_blocks(),
    # transposed shapes must not share a batch; the norm sits in either one
    permuted_block_diagonal(np.random.default_rng(6), [(3, 2)] * 10 + [(2, 3)] * 10,
                            scales=[1.0] * 10 + [3.0] * 10),
    permuted_block_diagonal(np.random.default_rng(7), [(3, 2)] * 10 + [(2, 3)] * 10,
                            scales=[3.0] * 10 + [1.0] * 10),
], ids=["zero", "empty", "rectangular", "row", "dense", "permuted-blocks", "joined-1e-300",
        "transposed-shapes-a", "transposed-shapes-b"])
def test_op_norm_matches_full_svd(A):
    assert abs(op_norm(A) - svd_norm(A)) <= 1e-13 * svd_norm(A)


@pytest.mark.parametrize("space_name", ["dih_space", "mat2_space", "cy3_space",
                                        "noncomm_space"])
def test_op_norm_matches_full_svd_on_amplified_samples(request, space_name):
    space = request.getfixturevalue(space_name)
    T = build_T(space, RadialSymbol(head=(1.0, -0.5, 0.25), limit=0.1))
    rng = np.random.default_rng(8)
    for _, big, tbig in amplified_stacks(rng, space, T, samples=4):
        for A in (big, tbig):
            for dense, norm in zip(A.matrix(), op_norm(A)):
                assert abs(norm - svd_norm(dense)) <= 1e-13 * svd_norm(dense)


@pytest.mark.parametrize("space_name", SPACES)
def test_amplify_matches_dense_kron(request, space_name):
    # a stack of three samples, the middle one without entries in any term
    space = request.getfixturevalue(space_name)
    rng = np.random.default_rng(26)
    ops = [stack([random_operator(space, rng), zero_op(space), random_operator(space, rng)])
           for _ in range(3)]
    x = random_complex(rng, 3 * space.dim)
    for m in (1, 2, 3):
        coeffs = [random_complex(rng, (3, m, m)) for _ in ops]
        big = amplify(coeffs, ops)
        assert isinstance(big, StructuredOperator) and big.shape == (m * space.dim,) * 2
        want = np.array([sum(np.kron(C[t], A.matrix()[t]) for C, A in zip(coeffs, ops))
                         for t in range(3)])
        assert not want[1].any()
        assert np.abs(big.matrix() - want).max() <= 1e-15 * np.abs(want).max()
        assert_close(big @ x[:m * space.dim], want @ x[:m * space.dim])
        for dense, norm in zip(want, op_norm(big)):
            assert abs(norm - svd_norm(dense)) <= 1e-13 * max(svd_norm(dense), 1.0)


def test_op_norm_small_blocks_stay_exact():
    # each 3 x 3 support component gets its own exact SVD
    A = permuted_block_diagonal(np.random.default_rng(9), [(3, 3)] * 20)
    assert abs(op_norm(A) - svd_norm(A)) <= 1e-13 * svd_norm(A)


class EntryStack:
    """A stack of matrices of any shape given by its entries, as ``op_norm``
    reads an operator: ``entries()``, ``n_samples``, ``shape``, ``select``."""

    def __init__(self, samples, rows, cols, values, n_samples, shape):
        self.samples, self.rows, self.cols, self.values = samples, rows, cols, values
        self.n_samples, self.shape = n_samples, shape

    def entries(self):
        return self.samples, self.rows, self.cols, self.values

    def select(self, keep):
        on = keep[self.samples]
        return EntryStack((np.cumsum(keep) - 1)[self.samples[on]], self.rows[on],
                          self.cols[on], self.values[on], int(np.count_nonzero(keep)),
                          self.shape)

    def matrix(self):
        out = np.zeros((self.n_samples,) + self.shape, dtype=complex)
        out[self.samples, self.rows, self.cols] = self.values
        return out


@settings(max_examples=40, derandomize=True, deadline=None, database=None)
@given(st.integers(1, 70), st.integers(1, 70), st.integers(3, 5),
       st.floats(0.01, 0.3), st.sampled_from([np.inf, -np.inf, np.nan]),
       st.integers(0, 2 ** 32 - 1))
def test_op_norm_of_a_stack_with_a_non_finite_sample(n_r, n_c, n_samples, density, bad_value,
                                                     seed):
    # one sample holds a non-finite entry and one none at all; every other
    # sample gets the norm of its dense matrix, and the same norm to the bit
    # without the bad sample in the stack
    rng = np.random.default_rng(seed)
    bad, zero = rng.choice(n_samples, 2, replace=False)
    samples, rows, cols = np.nonzero(rng.random((n_samples, n_r, n_c)) < density)
    on = samples != zero
    samples = np.append(samples[on], bad)
    rows = np.append(rows[on], rng.integers(n_r))
    cols = np.append(cols[on], rng.integers(n_c))
    values = np.append(random_complex(rng, np.count_nonzero(on)), bad_value)
    A = EntryStack(samples, rows, cols, values, n_samples, (n_r, n_c))
    norms = op_norm(A)
    assert norms[bad] == np.inf and norms[zero] == 0.0
    good = np.arange(n_samples) != bad
    assert np.array_equal(op_norm(A.select(good)), norms[good])
    for t in np.flatnonzero(good):
        want = svd_norm(A.matrix()[t])
        assert abs(norms[t] - want) <= 1e-13 * want
