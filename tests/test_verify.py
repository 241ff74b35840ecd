import inspect
import json
import os

import numpy as np
import pytest

import radmul.fock as fock
import radmul.operators as operators
import radmul.verify as verify
from conftest import noncommuting_config, s3_config
from oracles import (ReducedWord, apply, as_op, coefficient_gaps_by_vectors, coeffs, embedded,
                     failed_names, index_of, left_mult, random_reduced_word, reduced_words,
                     to_array, word_list, word_stack, word_vector)
from radmul.algebra import multiplication_matrix, verify_pp_basis
from radmul.cli import main
from radmul.config import parse_config, preset_config
from radmul.operators import RadialMultiplier, build_T, word_vacuum_images
from radmul.report import VerificationReport
from radmul.symbols import RadialSymbol
from radmul.verify import (embedding_suite, fock_suite, lemma_suite, main_theorem_suite,
                           norm_bound_suite, operator_suite, spanning_check)


def unit_word(space, *indexed_letters, right=None):
    """Reduced word of group unitaries with an optional right coefficient."""
    letters = tuple(space.amalgam.factors[i].unitary(g) for i, g in indexed_letters)
    coeffs = [space.base.identity()] * len(indexed_letters)
    coeffs.append(space.base.identity() if right is None else right)
    return ReducedWord(factors=tuple(i for i, _ in indexed_letters), letters=letters,
                       coeffs=tuple(coeffs))


# ---------------------------------------------------------------- embedding

def test_embed_base_element_is_left_multiplication(mat2_space):
    rng = np.random.default_rng(0)
    b = mat2_space.base.random(rng)
    got = embedded(mat2_space, [1], [mat2_space.amalgam.factors[1].from_base(b)]).matrix()
    want = left_mult(mat2_space, [b]).matrix()
    assert np.abs(got - want).max() <= 1e-13


def test_embed_identity_acts_as_identity(dih_space):
    got = embedded(dih_space, [0], [dih_space.amalgam.factors[0].identity()]).matrix()
    assert np.abs(got - np.eye(dih_space.dim)).max() <= 1e-13


def test_embed_unitary_creates_on_vacuum(dih_space):
    a = dih_space.amalgam.factors[0].unitary(1)
    v = apply(embedded(dih_space, [0], [a]), word_vector(dih_space, index_of(dih_space)))
    assert list(coeffs(v)) == [index_of(dih_space, (0, 1))]


def test_embed_unitary_annihilates_matching_letter(dih_space):
    a = dih_space.amalgam.factors[0].unitary(1)
    w = word_vector(dih_space, index_of(dih_space, (0, 1), (1, 1)))
    v = apply(embedded(dih_space, [0], [a]), w)  # u^2 = 1 strips the leading letter
    assert list(coeffs(v)) == [index_of(dih_space, (1, 1))]


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
    adjoints = [multiplication_matrix(fac, fac.pp_basis(), "left").conj().T
                for fac in space.amalgam.factors]
    for i, fac in enumerate(space.amalgam.factors):
        for size in range(1, fac.group.order + 2):
            elements, factors = [fac.random(rng) for _ in range(size)], [i] * size
            draws = [(i, a, None) for a in elements]
            own = embedded(space, factors, elements)
            got = list(verify._coefficient_gaps(space, own, draws, adjoints))
            want = coefficient_gaps_by_vectors(space, own, factors, elements)
            assert max(got + list(want)) <= 1e-13
            other = embedded(space, factors, [fac.random(rng) for _ in range(size)])
            got = list(verify._coefficient_gaps(space, other, draws, adjoints))
            want = list(coefficient_gaps_by_vectors(space, other, factors, elements))
            assert min(got) > 1 and got == pytest.approx(want, rel=1e-14, abs=0)


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
    rw = ReducedWord(factors=(), letters=(), coeffs=(b,))
    vac = word_vector(mat2_space, index_of(mat2_space))
    v = apply(word_stack(mat2_space, [rw]), vac)
    assert np.allclose(v.blocks[index_of(mat2_space)], b)
    # n = 1 and n = 2 unitary words land on the canonical word vectors
    v = apply(word_stack(mat2_space, [unit_word(mat2_space, (0, 1))]), vac)
    assert list(coeffs(v)) == [index_of(mat2_space, (0, 1))]
    v = apply(word_stack(mat2_space, [unit_word(mat2_space, (0, 1), (1, 1))]), vac)
    assert list(coeffs(v)) == [index_of(mat2_space, (0, 1), (1, 1))]
    assert np.allclose(v.blocks[index_of(mat2_space, (0, 1), (1, 1))], np.eye(2))


def test_reduced_word_oracle_rejects_bad_words(dih_space):
    fac = dih_space.amalgam.factors[0]
    with pytest.raises(ValueError):
        ReducedWord(factors=(0,), letters=(fac.identity(),),
                    coeffs=(np.eye(1), np.eye(1)))  # expectation not zero
    with pytest.raises(ValueError):
        ReducedWord(factors=(0, 0), letters=(fac.unitary(1), fac.unitary(1)),
                    coeffs=(np.eye(1),) * 3)


def test_reduced_word_tells_factors_apart_by_identity(cy3_space):
    # cy3's two factors are equal order-3 crossed products, so their
    # elements are equal arrays: letters alternate between factor indices,
    # not between contents
    f0, f1 = cy3_space.amalgam.factors
    assert f0 is not f1 and np.array_equal(f0.unitary(1), f1.unitary(1))
    coeffs = (np.eye(1),) * 3
    assert ReducedWord((0, 1), (f0.unitary(1), f1.unitary(1)), coeffs).length == 2
    with pytest.raises(ValueError, match="adjacent letters"):
        ReducedWord((1, 1), (f1.unitary(1), f1.unitary(2)), coeffs)


def vacuum_expectation(space, A):
    """Vacuum-sector coefficient of A applied to the vacuum; realizes the
    conditional expectation onto N for embedded words."""
    return apply(A, word_vector(space, index_of(space))).blocks[index_of(space)]


def test_vacuum_expectation(dih_space):
    from radmul.operators import identity_op
    assert vacuum_expectation(dih_space, identity_op(dih_space))[0, 0] == pytest.approx(1.0)
    a = dih_space.amalgam.factors[0].unitary(1)
    assert np.abs(vacuum_expectation(dih_space, embedded(dih_space, [0], [a]))).max() < 1e-15
    b = np.array([[1.5 - 0.5j]])
    rw = ReducedWord(factors=(), letters=(), coeffs=(b,))
    assert vacuum_expectation(dih_space, word_stack(dih_space, [rw]))[0, 0] \
        == pytest.approx(b[0, 0])


# ---------------------------------------------------------------- multiplier action

def test_multiplier_on_identity(dih_space):
    phi = RadialSymbol.indicator01()
    T = build_T(dih_space, phi)
    TA = T.apply_matrix(as_op(dih_space, np.eye(dih_space.dim))).matrix()
    assert np.abs(TA - phi(0) * np.eye(dih_space.dim)).max() <= 1e-12


def test_delta0_kills_embedded_letter(dih_space):
    T = build_T(dih_space, RadialSymbol.delta0())
    A = embedded(dih_space, [0], [dih_space.amalgam.factors[0].unitary(1)])
    guard = dih_space.guard_mask(dih_space.L_max - 1)
    assert np.abs(T.apply_matrix(A).matrix()[0][:, guard]).max() <= 1e-12


def test_indicator_kills_length_two_word(dih_space):
    T = build_T(dih_space, RadialSymbol.indicator01())
    A = word_stack(dih_space, [unit_word(dih_space, (0, 1), (1, 1))])
    guard = dih_space.guard_mask(dih_space.L_max - 2)
    assert np.abs(T.apply_matrix(A).matrix()[0][:, guard]).max() <= 1e-11


def test_constant_symbol_fixes_all_words(dih_space):
    T = build_T(dih_space, RadialSymbol.constant(1.0))
    rng = np.random.default_rng(2)
    for n in range(3):
        A = word_stack(dih_space, [random_reduced_word(rng, dih_space, n)])
        assert np.abs(T.apply_matrix(A).matrix() - A.matrix()).max() <= 1e-12


def test_delta0_reproduces_vacuum_expectation(mat2_space):
    # T for the unit point mass keeps exactly the length-0 part: on sums of
    # reduced words it reproduces the expectation onto N as an operator
    rng = np.random.default_rng(3)
    T = build_T(mat2_space, RadialSymbol.delta0())
    b = mat2_space.base.random(rng)
    w1 = word_stack(mat2_space, [random_reduced_word(rng, mat2_space, 1)])
    w2 = word_stack(mat2_space, [random_reduced_word(rng, mat2_space, 2)])
    A_op = left_mult(mat2_space, [b])
    A = A_op.matrix()[0] + w1.matrix()[0] + w2.matrix()[0]
    want = left_mult(mat2_space, [b]).matrix()[0]  # = lambda(vacuum expectation)
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
    count = np.count_nonzero(mat2_space.lengths <= 1)
    assert rep.checks[0].details["rank"] == count * mat2_space.dim_N == 12


def test_spanning_full_truncation(dih_space):
    rep = spanning_check(dih_space)
    assert rep.passed
    assert rep.checks[0].details["rank"] == dih_space.dim


@pytest.mark.parametrize("name", ["mat2_space", "cy3_space", "noncomm_space"])
def test_word_vacuum_images_match_word_operators(request, name):
    # oracle: one word operator per word and N-basis element, applied to the vacuum
    space = request.getfixturevalue(name)
    vac = word_vector(space, index_of(space))
    words = [unit_word(space, *w.letters, right=b) for w in word_list(space) if len(w) <= 2
             for b in space.base.basis()]
    want = np.stack([to_array(apply(word_stack(space, [rw]), vac)) for rw in words], axis=1)
    got = word_vacuum_images(space, 2).matrix()[0]
    assert np.abs(got[:, :want.shape[1]] - want).max() <= 1e-13
    assert not got[:, want.shape[1]:].any()


# ---------------------------------------------------------------- misc suites

def test_fock_and_operator_suites(dih_space, mat2_space):
    for space in (dih_space, mat2_space):
        assert fock_suite(space).passed
        assert operator_suite(space).passed


def test_operator_suite_builds_both_row_sums_in_one_call(monkeypatch, dih_space):
    """partition_identity and phi_factorization_bound read the same two row
    sums, Phi1_{v,v}(Id) for both vectors, from one apply_weights call."""
    calls = []
    build = operators.apply_weights

    def spy(space, W, A, sets=None):
        calls.append((len(W), A.n_samples))
        return build(space, W, A, sets)

    monkeypatch.setattr(verify, "apply_weights", spy)
    assert operator_suite(dih_space).passed
    assert calls == [(2, 2)]


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
    """The right creations read ``appended``, the enumeration's links
    scattered by letter, and the right annihilations the links themselves
    (``parent``, ``last_letter``); the left creations read ``prepended`` and
    the left annihilations ``stripped``, built by their own recursion
    (``first_letter``, ``rest``): breaking one side fails its check."""
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
    j = index_of(space, (0, 1), (1, 1))
    space.stripped[space.first_letter[j], j] = 0  # (0, 1)(1, 1) stripped "is" the vacuum
    assert status(space, "adjoint_matrix[L(0, 1)]") == "fail"


def seed_defect(monkeypatch, name, old, new):
    """Replace the one ``old`` in the source of ``name``, a function or class
    of the fock, the operator or the verify module, by ``new``, and put the result
    in place of ``name`` in the fock, operator and verify modules for the
    rest of the test."""
    home = inspect.getmodule(next(vars(m)[name] for m in (fock, operators, verify)
                                  if name in vars(m)))
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
    # the weight of Phi_{x,y} on A summed from one length on: the row sums
    # miss |v(k)|^2 on every length k
    ("phi_weights", "np.trace(P[a:, b:])", "np.trace(P[a + 1:, b + 1:])", "dih_space",
     "partition_identity"),
    # D_x reading x one length off; the adjoint and right-module checks hold
    # for any length-diagonal map
    ("diag", "values[space.lengths]", "values[space.lengths - 1]", "dih_space",
     "fock_length_projection_split"),
    ("diag", "values[space.lengths]", "values[space.lengths - 1]", "mat2_space",
     "fock_length_projection_split"),
    ("diag", "values[space.lengths]", "values[space.lengths - 1]", "cy3_space",
     "fock_length_projection_split"),
    # the vacuum images grown with each letter's embed on the right of the
    # shorter images, not on the left
    *[("word_vacuum_images", "E @ images[-1] @ annihilation(space, t)",
       "images[-1] @ E @ annihilation(space, t)", space, "spanning_rank_len%d" % L)
      for space, L in [("dih_space", 5), ("mat2_space", 5), ("cy3_space", 4),
                       ("noncomm_space", 3)]],
])
def test_module_checks_catch_a_seeded_defect(monkeypatch, request, name, old, new, space, check):
    """Each of these defects in a building block, a weight set, the
    N-valued inner product or the vacuum images fails its check; the M_2
    base tells c b from c b^T and b* c from b^T c or c* b, and the
    noncommuting model's order-3 twists alpha_g from alpha_{g^{-1}}."""
    seed_defect(monkeypatch, name, old, new)
    space = request.getfixturevalue(space)
    assert check in (failed_names(fock_suite(space)) + failed_names(operator_suite(space))
                     + failed_names(spanning_check(space)))


@pytest.mark.parametrize("name, old, new, space, checks", [
    # a_g pushed through the column word, not through the word u_g maps it to
    ("embed", "lmul_blocks(space, coefs, rows)", "lmul_blocks(space, coefs, cols)",
     "noncomm_space",
     {"embedding_multiplicative", "embedding_star", "embedding_matrix_coefficients"}),
    ("embed", "lmul_blocks(space, coefs, rows)", "lmul_blocks(space, coefs, cols)",
     "mat2_space", {"embedding_multiplicative", "embedding_matrix_coefficients"}),
    # the word map of u_{g^{-1}} in place of that of u_g
    ("embed", "_unitary_words(space, i)[g[on]]",
     "_unitary_words(space, i)[space.amalgam.factors[i].group.inverses[g[on]]]", "cy3_space",
     {"embedding_matrix_coefficients"}),
    # u_g u_h read as u_{hg}; only a group that is not abelian tells them apart
    ("_unitary_words", "group.table[:, h]", "group.table[h].T", "s3_space",
     {"embedding_multiplicative", "embedding_matrix_coefficients"}),
])
def test_embedding_checks_catch_a_seeded_defect(monkeypatch, request, name, old, new, space,
                                                checks):
    """Each of these defects in the embedding's word maps or blocks fails
    exactly these embedding checks."""
    seed_defect(monkeypatch, name, old, new)
    assert set(failed_names(embedding_suite(request.getfixturevalue(space)))) == checks


@pytest.mark.parametrize("old, new", [
    # the factor before a letter kept among its choices: a same-factor pair
    # a_1 a_2 is one element of M_i, of length at most 1
    ("not j or i != word[-1]", "True"),
    # letters drawn outside ker E: a word then holds shorter words too
    ("random_kernel(rng)", "random(rng)"),
])
@pytest.mark.parametrize("space", ["dih_space", "cy3_space"])
def test_theorem_checks_catch_a_seeded_word_defect(monkeypatch, request, old, new, space):
    """The package does not check its drawn words; each of these defects of
    the draws fails the scaling check on them, which with the preset symbol
    (phi(0) = phi(1) = 1, phi(n) = 0 for n >= 2) expects 0 on a word of
    length 2 but gets the shorter words' own terms back.  The oracle's
    ``ReducedWord`` rejects the drawn words too."""
    seed_defect(monkeypatch, "random_word_arrays", old, new)
    space = request.getfixturevalue(space)
    symbol = parse_config(preset_config("dih")).symbol
    assert "theorem_action_on_words" in failed_names(main_theorem_suite(space, [symbol]))
    with pytest.raises(ValueError):
        reduced_words(space, *verify.random_word_arrays(np.random.default_rng(0), space, 2, 10))


@pytest.mark.parametrize("fock_len", [3, 4])
def test_push_unitary_direction_defect_fails_its_checks(monkeypatch, fock_len):
    """b pushed through a letter gamma by U_gamma in place of U_{gamma*}
    fails exactly these checks of all suites (seed 1).  Only the
    noncommuting model's order-3 inner twists tell the two apart; the
    presets' and S3's twists are trivial or their own inverses.  The
    configuration binds the unpatched class, so the space is built from
    the patched one."""
    seed_defect(monkeypatch, "FockSpace", "unitaries[self.star[last]]", "unitaries[last]")
    cfg = parse_config(noncommuting_config(fock_len))
    space = fock.FockSpace(fock.Amalgam(cfg.factors), cfg.fock_len)
    symbols = [cfg.symbol]
    reports = [fock_suite(space, seed=1), operator_suite(space, seed=1),
               embedding_suite(space, seed=1), lemma_suite(space, symbols, seed=1),
               main_theorem_suite(space, symbols, seed=1), spanning_check(space),
               norm_bound_suite(space, symbols, seed=1, samples=25)]
    assert set().union(*map(failed_names, reports)) == {
        "embedding_matrix_coefficients", "embedding_multiplicative", "embedding_star",
        "rho_power_sector_rule", "epsilon_case_rules", "phi1_eigenvalue_rule",
        "phi2_eigenvalue_rule", "t1_t2_component_rules", "multiplier_case_rules",
        "theorem_action_on_words", "multiplier_right_module"}


@pytest.mark.parametrize("config, rank, expected", [
    (lambda: preset_config("cy3"), 1, 125), (noncommuting_config, 4, 116), (s3_config, 23, 47)],
    ids=["cy3", "noncommuting", "s3"])
def test_spanning_check_fails_on_an_off_diagonal_image(monkeypatch, tmp_path, capsys, config,
                                                      rank, expected):
    # with u_{g^{-1}}'s word map for u_g, the vacuum images leave their own
    # words: the spanning check counts those blocks and fails, through
    # radmul verify too (one usable core, so the defect reaches the suite),
    # with exit code 1 and no traceback
    seed_defect(monkeypatch, "embed", "_unitary_words(space, i)[g[on]]",
                "_unitary_words(space, i)[space.amalgam.factors[i].group.inverses[g[on]]]")
    data = config()
    check = spanning_check(parse_config(data).space()).checks[0]
    assert check.status == "fail" and check.details["off_diagonal_blocks"] > 0
    assert (check.details["rank"], check.details["expected"]) == (rank, expected)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    path = tmp_path / "config.json"
    path.write_text(json.dumps(data))
    assert main(["verify", "--suite", "spanning", "--config", str(path)]) == 1
    out, err = capsys.readouterr()
    assert "FAIL  spanning_rank_len" in out and "Traceback" not in out + err


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


def test_add_looks_the_tolerance_up_and_raises_on_an_unknown_name():
    report = VerificationReport()
    report.add("spanning_rank_len7", 0.0, expected=3)
    report.add("adjoint_pairing[L(1, 2)]", 2e-12)
    assert [(c.tolerance, c.status) for c in report.checks] == [(0.5, "pass"), (1e-12, "fail")]
    with pytest.raises(ValueError, match=r"no tolerance for check 'adjoint_norm\[D\]'"):
        report.add("adjoint_norm[D]", 0.0)
    assert len(report.checks) == 2


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
    m1 = word_stack(dih_space, [w1]).matrix()
    m2 = word_stack(dih_space, [w2]).matrix()
    m3 = word_stack(dih_space, [w3]).matrix()
    assert np.abs(m1 - m2).max() == 0
    assert np.abs(m1 - m3).max() > 1e-6
