import inspect

import numpy as np
import pytest

import radmul.fock as fock
import radmul.operators as operators
import radmul.verify as verify
from oracles import (apply, as_op, coefficient_gaps_by_vectors, coeffs, failed_names, to_array,
                     word_vector)
from radmul.algebra import verify_pp_basis
from radmul.config import parse_config, preset_config
from radmul.fock import Word
from radmul.operators import RadialMultiplier, build_T, left_mult
from radmul.symbols import RadialSymbol
from radmul.verify import (ReducedWord, embed, embedding_suite, fock_suite,
                           lemma_suite, main_theorem_suite, norm_bound_suite,
                           operator_suite, random_reduced_word, spanning_check,
                           word_operator, word_vacuum_images)


def unit_word(space, *indexed_letters, right=None):
    """Reduced word of group unitaries with an optional right coefficient."""
    letters = tuple(space.amalgam.factors[i].unitary(g) for i, g in indexed_letters)
    coeffs = [space.base.identity()] * len(indexed_letters)
    coeffs.append(space.base.identity() if right is None else right)
    return ReducedWord(letters=letters, coeffs=tuple(coeffs))


# ---------------------------------------------------------------- embedding

def test_embed_base_element_is_left_multiplication(mat2_space):
    rng = np.random.default_rng(0)
    b = mat2_space.base.random(rng)
    got = embed(mat2_space, mat2_space.amalgam.factors[1].from_base(b)).matrix()
    want = left_mult(mat2_space, b).matrix()
    assert np.abs(got - want).max() <= 1e-13


def test_embed_identity_acts_as_identity(dih_space):
    got = embed(dih_space, dih_space.amalgam.factors[0].identity()).matrix()
    assert np.abs(got - np.eye(dih_space.dim)).max() <= 1e-13


def test_embed_unitary_creates_on_vacuum(dih_space):
    a = dih_space.amalgam.factors[0].unitary(1)
    v = apply(embed(dih_space, a), word_vector(dih_space, Word()))
    assert list(coeffs(v)) == [Word(((0, 1),))]


def test_embed_unitary_annihilates_matching_letter(dih_space):
    a = dih_space.amalgam.factors[0].unitary(1)
    w = word_vector(dih_space, Word(((0, 1), (1, 1))))
    v = apply(embed(dih_space, a), w)  # u^2 = 1 strips the leading letter
    assert list(coeffs(v)) == [Word(((1, 1),))]


def test_embedding_suite_passes(dih_space, mat2_space, cy3_space):
    for space in (dih_space, mat2_space, cy3_space):
        assert embedding_suite(space).passed


@pytest.mark.parametrize("name", ["mat2_space", "noncomm_space", "cy3_space"])
def test_coefficient_gaps_match_vector_route(request, name):
    """Families of 1 to |G| + 1 random elements, each embedding against the
    elements' own coefficients (gaps at rounding) and against those of
    other elements (gaps of order one): the block identities read the gaps
    of the pair-by-pair Fock-vector route."""
    space = request.getfixturevalue(name)
    rng = np.random.default_rng(11)
    for fac in space.amalgam.factors:
        for size in range(1, fac.group.order + 2):
            elements = [fac.random(rng) for _ in range(size)]
            own = embed(space, elements)
            got = list(verify._coefficient_gaps(space, own, elements))
            assert max(got + list(coefficient_gaps_by_vectors(space, own, elements))) <= 1e-13
            other = embed(space, [fac.random(rng) for _ in range(size)])
            got = list(verify._coefficient_gaps(space, other, elements))
            want = list(coefficient_gaps_by_vectors(space, other, elements))
            assert min(got) > 1 and got == pytest.approx(want, rel=1e-14, abs=0)


def test_embedding_coefficients_catch_an_untwisted_coefficient(monkeypatch, noncomm_space):
    """embed with alpha_{g_j} in place of alpha_{g_j^{-1}} in E(e_j* a e_k)
    fails the coefficient check.  The noncommuting model's order-3 twists
    tell the two apart; an order-2 or trivial twist would not."""
    source = inspect.getsource(verify.embed)
    assert source.count("alpha(inv[j]") == 1
    namespace = dict(vars(verify))
    exec(source.replace("alpha(inv[j]", "alpha(j"), namespace)
    monkeypatch.setattr(verify, "embed", namespace["embed"])
    assert "embedding_matrix_coefficients" in failed_names(embedding_suite(noncomm_space))


def test_module_basis_checks_pass_at_large_cyclic_order():
    """The pp and embedding checks take O(|G| d^2) products per basis or
    sampled element, so a cyclic factor of order 48 stays in tier 1."""
    cfg = preset_config("dih")
    cfg["factors"][0]["group"]["order"] = 48
    cfg["truncation"]["fock_len"] = 2
    space = parse_config(cfg).space()
    for fac in space.amalgam.factors:
        assert verify_pp_basis(fac).passed
    assert embedding_suite(space).passed


# ---------------------------------------------------------------- word operators

def test_word_operator_vacuum_images(mat2_space):
    rng = np.random.default_rng(1)
    b = mat2_space.base.random(rng)
    # n = 0: plain left multiplication
    rw = ReducedWord(letters=(), coeffs=(b,))
    vac = word_vector(mat2_space, Word())
    v = apply(word_operator(mat2_space, rw), vac)
    assert np.allclose(v.blocks[mat2_space.word_index[Word()]], b)
    # n = 1 and n = 2 unitary words land on the canonical word vectors
    v = apply(word_operator(mat2_space, unit_word(mat2_space, (0, 1))), vac)
    assert list(coeffs(v)) == [Word(((0, 1),))]
    v = apply(word_operator(mat2_space, unit_word(mat2_space, (0, 1), (1, 1))), vac)
    assert list(coeffs(v)) == [Word(((0, 1), (1, 1)))]
    assert np.allclose(v.blocks[mat2_space.word_index[Word(((0, 1), (1, 1)))]], np.eye(2))


def test_word_operator_rejects_bad_words(dih_space):
    fac = dih_space.amalgam.factors[0]
    with pytest.raises(ValueError):
        ReducedWord(letters=(fac.identity(),),
                    coeffs=(np.eye(1), np.eye(1)))  # expectation not zero
    with pytest.raises(ValueError):
        ReducedWord(letters=(fac.unitary(1), fac.unitary(1)),
                    coeffs=(np.eye(1),) * 3)


def test_reduced_word_tells_factors_apart_by_identity(cy3_space):
    # cy3's two factors are equal order-3 crossed products, yet distinct
    # objects: letters alternate between factor objects, not their contents
    f0, f1 = cy3_space.amalgam.factors
    assert f0 is not f1 and np.array_equal(f0.group.table, f1.group.table)
    coeffs = (np.eye(1),) * 3
    assert ReducedWord(letters=(f0.unitary(1), f1.unitary(2)), coeffs=coeffs).length == 2
    with pytest.raises(ValueError, match="adjacent letters"):
        ReducedWord(letters=(f1.unitary(1), f1.unitary(2)), coeffs=coeffs)


def vacuum_expectation(space, A):
    """Vacuum-sector coefficient of A applied to the vacuum; realizes the
    conditional expectation onto N for embedded words."""
    return apply(A, word_vector(space, Word())).blocks[space.word_index[Word()]]


def test_vacuum_expectation(dih_space):
    from radmul.operators import identity_op
    assert vacuum_expectation(dih_space, identity_op(dih_space))[0, 0] == pytest.approx(1.0)
    a = dih_space.amalgam.factors[0].unitary(1)
    assert np.abs(vacuum_expectation(dih_space, embed(dih_space, a))).max() < 1e-15
    b = np.array([[1.5 - 0.5j]])
    rw = ReducedWord(letters=(), coeffs=(b,))
    assert vacuum_expectation(dih_space, word_operator(dih_space, rw))[0, 0] \
        == pytest.approx(b[0, 0])


# ---------------------------------------------------------------- multiplier action

def test_multiplier_on_identity(dih_space):
    phi = RadialSymbol.indicator01()
    T = build_T(dih_space, phi)
    TA = T.apply_matrix(as_op(dih_space, np.eye(dih_space.dim))).matrix()
    assert np.abs(TA - phi(0) * np.eye(dih_space.dim)).max() <= 1e-12


def test_delta0_kills_embedded_letter(dih_space):
    T = build_T(dih_space, RadialSymbol.delta0())
    A = embed(dih_space, dih_space.amalgam.factors[0].unitary(1))
    guard = dih_space.guard_mask(dih_space.L_max - 1)
    assert np.abs(T.apply_matrix(A).matrix()[0][:, guard]).max() <= 1e-12


def test_indicator_kills_length_two_word(dih_space):
    T = build_T(dih_space, RadialSymbol.indicator01())
    A = word_operator(dih_space, unit_word(dih_space, (0, 1), (1, 1)))
    guard = dih_space.guard_mask(dih_space.L_max - 2)
    assert np.abs(T.apply_matrix(A).matrix()[0][:, guard]).max() <= 1e-11


def test_constant_symbol_fixes_all_words(dih_space):
    T = build_T(dih_space, RadialSymbol.constant(1.0))
    rng = np.random.default_rng(2)
    for n in range(3):
        A = word_operator(dih_space, random_reduced_word(rng, dih_space, n))
        assert np.abs(T.apply_matrix(A).matrix() - A.matrix()).max() <= 1e-12


def test_delta0_reproduces_vacuum_expectation(mat2_space):
    # T for the unit point mass keeps exactly the length-0 part: on sums of
    # reduced words it reproduces the expectation onto N as an operator
    rng = np.random.default_rng(3)
    T = build_T(mat2_space, RadialSymbol.delta0())
    b = mat2_space.base.random(rng)
    w1 = word_operator(mat2_space, random_reduced_word(rng, mat2_space, 1))
    w2 = word_operator(mat2_space, random_reduced_word(rng, mat2_space, 2))
    A_op = left_mult(mat2_space, b)
    A = A_op.matrix()[0] + w1.matrix()[0] + w2.matrix()[0]
    want = left_mult(mat2_space, b).matrix()[0]  # = lambda(vacuum expectation)
    guard = mat2_space.guard_mask(mat2_space.L_max - 2)
    TA = T.apply_matrix(as_op(mat2_space, A)).matrix()[0]
    assert np.abs((TA - want)[:, guard]).max() <= 1e-10


def test_main_theorem_suites_pass(dih_space, mat2_space, acceptance_symbols):
    for space in (dih_space, mat2_space):
        rep = main_theorem_suite(space, acceptance_symbols, seed=11,
                                 words_per_length=6)
        assert rep.passed, failed_names(rep)


def test_case_two_pipeline_on_cyclic3(cy3_space, acceptance_symbols):
    rep = main_theorem_suite(cy3_space, acceptance_symbols, seed=12,
                             words_per_length=4, max_len=2)
    assert rep.passed, failed_names(rep)
    rep = lemma_suite(cy3_space, [RadialSymbol.indicator01()], seed=12)
    assert rep.passed, failed_names(rep)


def test_scaled_case_rules_still_catch_a_perturbed_weight(cy3_space, monkeypatch):
    # dividing by phi's scale keeps the case rules sharp: one weight of T
    # off by a relative 1e-6 still fails them on a symbol of size 1e6
    phi = RadialSymbol(head=(1e6, -1e6), limit=0.0)

    def case_rules():
        checks = {c.name: c for c in lemma_suite(cy3_space, [phi]).checks}
        return checks["multiplier_case_rules"].status

    assert case_rules() == "pass"

    def perturbed(space, symbol):
        T = RadialMultiplier(space, symbol)
        at = np.unravel_index(np.abs(T.weights).argmax(), T.weights.shape)
        T.weights[at] *= 1 + 1e-6
        return T

    monkeypatch.setattr(verify, "build_T", perturbed)
    assert case_rules() == "fail"


@pytest.mark.parametrize("stack, check", [("t1_weights", "t1_t2_component_rules"),
                                          ("t2_weights", "t1_t2_component_rules"),
                                          ("weights", "multiplier_case_rules")])
def test_rules_near_ratio_minus_one_catch_a_perturbed_weight(dih_space, monkeypatch,
                                                             stack, check):
    # at tail ratio -0.999999, psi1 ~ 1/(1 + z) = 1e6 while |phi| <= 1: the
    # component rules are divided by the largest weight of T1 and T2, and
    # the case rules by phi's scale, so a relative 1e-6 error in the
    # largest weight of T1, T2 or T still fails at about 1e-6
    phi = RadialSymbol(head=(1.0,), coefficient=1.0, ratio=-0.999999)

    def rule():
        return {c.name: c for c in lemma_suite(dih_space, [phi]).checks}[check]

    assert rule().status == "pass"

    def perturbed(space, symbol):
        T = RadialMultiplier(space, symbol)
        W = getattr(T, stack)
        W[np.unravel_index(np.abs(W).argmax(), W.shape)] *= 1 + 1e-6
        return T

    monkeypatch.setattr(verify, "build_T", perturbed)
    assert rule().status == "fail"
    assert 1e-7 < rule().max_residual < 1e-5


# ---------------------------------------------------------------- spanning

def test_spanning_ranks(dih_space, mat2_space):
    rep = spanning_check(dih_space, 2)
    assert rep.passed
    assert rep.checks[0].details["rank"] == 5

    rep = spanning_check(dih_space, 0)
    assert rep.checks[0].details["rank"] == dih_space.dim_N == 1

    rep = spanning_check(mat2_space, 1)
    count = sum(1 for w in mat2_space.words if len(w) <= 1)
    assert rep.checks[0].details["rank"] == count * mat2_space.dim_N == 12


def test_spanning_full_truncation(dih_space):
    rep = spanning_check(dih_space)
    assert rep.passed
    assert rep.checks[0].details["rank"] == dih_space.dim


@pytest.mark.parametrize("name", ["mat2_space", "cy3_space", "noncomm_space"])
def test_word_vacuum_images_match_word_operators(request, name):
    # oracle: one word operator per word and N-basis element, applied to the vacuum
    space = request.getfixturevalue(name)
    vac = word_vector(space, Word())
    words = [unit_word(space, *w.letters, right=b) for w in space.words if len(w) <= 2
             for b in space.base.basis()]
    want = np.stack([to_array(apply(word_operator(space, rw), vac)) for rw in words], axis=1)
    got = word_vacuum_images(space, 2).matrix()[0]
    assert np.abs(got[:, :want.shape[1]] - want).max() <= 1e-13
    assert not got[:, want.shape[1]:].any()


# ---------------------------------------------------------------- misc suites

def test_fock_and_operator_suites(dih_space, mat2_space):
    for space in (dih_space, mat2_space):
        assert fock_suite(space).passed
        assert operator_suite(space).passed


def test_adjoint_pairing_holds_at_large_dim():
    # on unit vectors the pairing residual is rounding on the operators'
    # scale; on unnormalized Gaussian vectors (norm product ~ 2 dim) it was
    # 2e-13 here and over its 1e-12 tolerance at fock_len 12
    cfg = preset_config("cy3")
    cfg["truncation"]["fock_len"] = 10
    checks = operator_suite(parse_config(cfg).space(), seed=1).checks
    pairing = [c.max_residual for c in checks if c.name.startswith("adjoint_pairing")]
    assert len(pairing) == 3
    assert max(pairing) <= 1e-14


def test_adjoint_checks_compare_two_constructions():
    """The right creations come from the enumeration's links (``appended``)
    and the right annihilations from the ``Word`` rules (``parent``), the
    left annihilations from ``stripped`` (built from ``rest``): breaking one
    side fails its check."""
    def status(space, name):
        return {c.name: c.status for c in operator_suite(space).checks}[name]

    def cy3():
        return parse_config(preset_config("cy3")).space()

    space = cy3()
    assert status(space, "adjoint_matrix[R(0, 1)]") == "pass"
    assert status(space, "adjoint_matrix[L(0, 1)]") == "pass"
    space.appended[space.star[0], 0] = -1  # the vacuum no longer links to (0, 2)
    assert status(space, "adjoint_matrix[R(0, 1)]") == "fail"
    space = cy3()
    j = space.word_index[Word(((0, 1), (1, 1)))]
    space.stripped[space.first_letter[j], j] = 0  # (0, 1)(1, 1) stripped "is" the vacuum
    assert status(space, "adjoint_matrix[L(0, 1)]") == "fail"


def seed_defect(monkeypatch, name, old, new):
    """Replace the one ``old`` in the source of ``name``, a function of the
    fock or the operator module, by ``new``, and put the result in place of
    ``name`` in the fock, operator and verify modules for the rest of the
    test."""
    home = fock if name in vars(fock) else operators
    source = inspect.getsource(getattr(home, name))
    assert source.count(old) == 1
    namespace = dict(vars(home))
    exec(source.replace(old, new), namespace)
    for module in (fock, operators, verify):
        if hasattr(module, name):
            monkeypatch.setattr(module, name, namespace[name])


@pytest.mark.parametrize("name, old, new, space, check", [
    # left multiplication acting on the coefficient's right factor
    ("lmul_blocks", '"wpr,qs->wpqrs"', '"wsq,pr->wpqrs"', "mat2_space", "fock_left_right_commute"),
    # c -> c b^T in place of c -> c b
    ("right_mult", "element(b).T", "element(b)", "mat2_space", "fock_inner_right_linear"),
    ("right_mult", "element(b).T", "element(b)", "noncomm_space", "right_module_blocks"),
    # R_{gamma*} twisting by alpha_{g^{-1}} in place of alpha_g
    ("right_creation", "space.twists[t]", "space.twists[space.star[t]]", "noncomm_space",
     "right_module_blocks"),
    # the N-valued inner product without the conjugate on its first slot;
    # right linearity holds without it
    ("inner_N", ".conj().transpose(0, 2, 1)", ".transpose(0, 2, 1)", "mat2_space",
     "fock_word_orthonormality"),
    # the N-valued inner product with its slots swapped, Y* X
    ("inner_N", "(x, (-1, d, d)).conj().transpose(0, 2, 1) @ np.reshape(y",
     "(y, (-1, d, d)).conj().transpose(0, 2, 1) @ np.reshape(x", "mat2_space",
     "fock_word_orthonormality"),
    ("inner_N", "(x, (-1, d, d)).conj().transpose(0, 2, 1) @ np.reshape(y",
     "(y, (-1, d, d)).conj().transpose(0, 2, 1) @ np.reshape(x", "mat2_space",
     "fock_inner_right_linear"),
    # D_x scaling the length-k sector by x(k - 1): the shifted weights no
    # longer partition ||x||^2
    ("diag", "values[space.lengths]", "values[space.lengths - 1]", "dih_space",
     "partition_identity"),
])
def test_module_checks_catch_a_seeded_defect(monkeypatch, request, name, old, new, space, check):
    """Each of these defects in a building block or in the N-valued inner
    product fails its check; the M_2 base tells c b from c b^T and b* c
    from b^T c or c* b, and the noncommuting model's order-3 twists alpha_g
    from alpha_{g^{-1}}."""
    seed_defect(monkeypatch, name, old, new)
    space = request.getfixturevalue(space)
    assert check in failed_names(fock_suite(space)) + failed_names(operator_suite(space))


@pytest.mark.parametrize("name, old, new, space, check", [
    # rho conjugating by its twist the wrong way, alpha* X alpha; the
    # noncommuting model's order-3 twists tell it apart, where mat2's are
    # self-adjoint and cy3's scalar
    ("rho_matrix", "alpha[t] @ A.blocks[e] @ alpha[t].conj().transpose(0, 2, 1)",
     "alpha[t].conj().transpose(0, 2, 1) @ A.blocks[e] @ alpha[t]", "noncomm_space",
     "rho_power_sector_rule"),
    # epsilon keeping the pairs that end in different factors
    ("epsilon_matrix", "last[A.rows] == last[A.cols]", "last[A.rows] != last[A.cols]",
     "cy3_space", "epsilon_case_rules"),
    # T1's tail weights read from k = 1, as T2's are
    ("_multiplier_weights", "d[total[:L, :L] + shift]", "d[total[:L, :L] + 1]", "cy3_space",
     "multiplier_case_rules"),
    # T1 weighted by psi2 in place of psi1
    ("_multiplier_weights", "phi.psi1(s + shift)", "phi.psi1(s + 1)", "cy3_space",
     "t1_t2_component_rules"),
])
def test_multiplier_checks_catch_a_seeded_defect(monkeypatch, request, name, old, new, space,
                                                 check):
    """Each of these defects in rho, epsilon or the multiplier's weights
    fails its lemma or theorem check on a geometric symbol, whose tail
    reaches every weight."""
    seed_defect(monkeypatch, name, old, new)
    space = request.getfixturevalue(space)
    symbols = [RadialSymbol.geometric(0.5)]
    assert check in (failed_names(lemma_suite(space, symbols))
                     + failed_names(main_theorem_suite(space, symbols)))


def test_norm_bound_suite(dih_space, acceptance_symbols):
    rep = norm_bound_suite(dih_space, acceptance_symbols, seed=13, samples=20)
    assert rep.passed, failed_names(rep)


def test_report_determinism(dih_space):
    a = main_theorem_suite(dih_space, [RadialSymbol.delta0()], seed=21,
                           words_per_length=3)
    b = main_theorem_suite(dih_space, [RadialSymbol.delta0()], seed=21,
                           words_per_length=3)
    assert a.to_json() == b.to_json()


def test_complex_symbol_pipeline(dih_space):
    # fully complex head, tail coefficient, ratio and limit: catches any
    # conjugation slip in the weight tables and towers
    phi = RadialSymbol(head=(1.0, 0.3j),
                       coefficient=0.8 - 0.2j, ratio=0.4 + 0.35j, limit=0.15 - 0.1j)
    rep = lemma_suite(dih_space, [phi], seed=31)
    assert rep.passed, failed_names(rep)
    rep = main_theorem_suite(dih_space, [phi], seed=31, words_per_length=6)
    assert rep.passed, failed_names(rep)


def test_seed_steers_sampling(dih_space):
    w1 = random_reduced_word(np.random.default_rng(21), dih_space, 2)
    w2 = random_reduced_word(np.random.default_rng(21), dih_space, 2)
    w3 = random_reduced_word(np.random.default_rng(22), dih_space, 2)
    m1 = word_operator(dih_space, w1).matrix()
    m2 = word_operator(dih_space, w2).matrix()
    m3 = word_operator(dih_space, w3).matrix()
    assert np.abs(m1 - m2).max() == 0
    assert np.abs(m1 - m3).max() > 1e-6
