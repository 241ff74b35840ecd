"""End-to-end verification: factor embeddings, reduced words, multiplier action.

Each crossed-product factor embeds into the Fock-side operator algebra via

    embed(a) = sum_{j,k} L_{e_j} E(e_j* a e_k) L*_{e_k},

summing over the module basis (e_j) with the e_0 = 1 slots realized as the
projection onto words that do not start in that factor.  Products of
embedded kernel letters realize reduced words of the amalgamated free
product; applied to the vacuum they reproduce the canonical word vectors.
The suites here drive the assembled multiplier against its contract: the
scaling action phi(length) on sampled reduced words, the case rules on
symbolic generators, the right-module structure, and the sampled
completely bounded norm envelope.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import FactorElement, cond_exp
from .fock import FockSpace, FockVector, Word, lambda_span
from .operators import (CaseTag, GeneratorWord, ShiftedVector, StructuredOperator,
                        adjoint_check, alternating_letter_tuples, amplify, annihilation,
                        build_T, creation, diag, ends_in_factor_op, epsilon_matrix,
                        identity_op, left_mult, length_at_least_op, length_exactly_op,
                        op_norm, op_product, op_sum, partition_identity_residual,
                        phi_cb_bound, phi_weights, right_annihilation, right_creation,
                        right_mult, rho_matrix, start_complement_op, tower,
                        weighted_sum, zero_op)
from .report import ALGEBRAIC_TOL, EIGEN_TOL, SPECTRAL_TOL, VerificationReport
from .symbols import norm_C, psi_decompose


def _masked_max(op: StructuredOperator, col_mask=None) -> float:
    """Largest entry of the operator's matrix in the columns the guard mask
    keeps (all columns without a mask); 0 when it has none there."""
    blocks = op.blocks
    if col_mask is not None:
        blocks = blocks[col_mask[op.cols * op.space.dim_N]]
    return float(np.abs(blocks).max()) if blocks.size else 0.0


def embed(space: FockSpace, a: FactorElement) -> StructuredOperator:
    """Represent a factor element as the matching left multiplication on the
    truncated Fock space."""
    factors = space.amalgam.factors
    idx = None
    for i, fac in enumerate(factors):
        if fac is a.factor:
            idx = i
            break
    if idx is None:
        raise ValueError("element does not belong to a configured factor")
    fac = a.factor
    basis = fac.pp_basis()
    guard = start_complement_op(space, idx)
    terms = []
    for j, ej in enumerate(basis):
        up = guard if j == 0 else creation(space, (idx, j))
        ej_star = ej.star()
        for k, ek in enumerate(basis):
            coef = cond_exp(ej_star * a * ek)
            if not np.any(np.abs(coef) > 0):
                continue
            down = guard if k == 0 else annihilation(space, (idx, k))
            terms.append(op_product(space, [up, left_mult(space, coef), down], "term"))
    if not terms:
        return zero_op(space)
    return op_sum(space, terms, "embed")


@dataclass(frozen=True)
class ReducedWord:
    """b_0 a_1 b_1 ... a_n b_n with kernel letters a_j from alternating factors."""

    letters: tuple            # FactorElement instances with vanishing expectation
    coeffs: tuple             # n+1 base-algebra elements
    factor_indices: tuple

    def __post_init__(self):
        if len(self.coeffs) != len(self.letters) + 1:
            raise ValueError("need one more coefficient than letters")
        if len(self.factor_indices) != len(self.letters):
            raise ValueError("one factor index per letter")
        for j, a in enumerate(self.letters):
            if j and self.factor_indices[j - 1] == self.factor_indices[j]:
                raise ValueError("adjacent letters from the same factor")
            if np.abs(cond_exp(a)).max() > 1e-10:
                raise ValueError("letters must have vanishing expectation")

    @property
    def length(self) -> int:
        return len(self.letters)


def word_operator(space: FockSpace, w: ReducedWord) -> StructuredOperator:
    factors = [left_mult(space, w.coeffs[0])]
    for a, b in zip(w.letters, w.coeffs[1:]):
        factors += [embed(space, a), left_mult(space, b)]
    return op_product(space, factors, "word(n=%d)" % w.length)


def vacuum_expectation(space: FockSpace, A: StructuredOperator) -> np.ndarray:
    """Vacuum-sector coefficient of A applied to the vacuum; realizes the
    conditional expectation onto N for embedded words."""
    return A(space.vacuum()).coeff(Word())


def random_reduced_word(rng, space: FockSpace, n: int) -> ReducedWord:
    base = space.base
    n_factors = len(space.amalgam.factors)
    indices = []
    for j in range(n):
        choices = [i for i in range(n_factors) if not indices or i != indices[-1]]
        indices.append(int(choices[rng.integers(len(choices))]))
    letters = tuple(space.amalgam.factor(i).random_kernel(rng) for i in indices)
    coeffs = tuple(base.random(rng) for _ in range(n + 1))
    return ReducedWord(letters=letters, coeffs=coeffs, factor_indices=tuple(indices))


def random_generator_word(rng, space: FockSpace, k: int, l: int,
                          with_coeffs: bool = True) -> GeneratorWord:
    def alternating(length):
        letters = space.amalgam.letters()
        out = []
        for _ in range(length):
            choices = [lt for lt in letters if not out or lt[0] != out[-1][0]]
            out.append(choices[rng.integers(len(choices))])
        return tuple(out)

    base = space.base
    cre = alternating(k)
    ann = alternating(l)
    if not with_coeffs:
        return GeneratorWord(cre, ann)
    return GeneratorWord(cre, ann,
                         cre_coeffs=tuple(base.random(rng) for _ in range(k + 1)),
                         ann_coeffs=tuple(base.random(rng) for _ in range(l)))


# ---------------------------------------------------------------------------
# suites


def fock_suite(space: FockSpace, seed: int = 0,
               tol: float = ALGEBRAIC_TOL) -> VerificationReport:
    """Structural invariants of the truncated space itself."""
    rng = np.random.default_rng([seed, 1])
    base = space.base
    report = VerificationReport()

    # orthonormality of words over N and the module property of the inner product
    worst_onb = 0.0
    worst_mod = 0.0
    sample_words = list(space.words[:min(len(space.words), 8)])
    b, c = base.random(rng), base.random(rng)
    b /= max(np.abs(b).max(), 1.0)
    c /= max(np.abs(c).max(), 1.0)
    for w in sample_words:
        for w2 in sample_words:
            val = space.word_vector(w, b).inner_N(space.word_vector(w2, c))
            expect = b.conj().T @ c if w == w2 else base.zero()
            worst_onb = max(worst_onb, float(np.abs(val - expect).max()))
    xi = _random_vector(rng, space)
    eta = _random_vector(rng, space)
    lhs = xi.inner_N(eta.right_mul(b))
    worst_mod = float(np.abs(lhs - xi.inner_N(eta) @ b).max())
    report.add("fock_word_orthonormality", worst_onb, tol)
    report.add("fock_inner_right_linear", worst_mod, tol)

    # left and right actions commute; projections commute with the right action
    worst = 0.0
    for _ in range(4):
        v = _random_vector(rng, space)
        bb, cc = base.random(rng), base.random(rng)
        d1 = v.left_mul(bb).right_mul(cc) - v.right_mul(cc).left_mul(bb)
        worst = max(worst, _vec_max(d1))
    report.add("fock_left_right_commute", worst, tol)

    worst = 0.0
    rb = right_mult(space, base.random(rng))
    for op in [length_at_least_op(space, 1), length_at_least_op(space, 2),
               ends_in_factor_op(space, 0)]:
        for _ in range(2):
            v = _random_vector(rng, space)
            worst = max(worst, _vec_max(op(rb(v)) - rb(op(v))))
    report.add("fock_projection_right_commute", worst, tol)

    # Q_n = Q_{n+1} + (length exactly n)
    worst = 0.0
    for n in range(space.L_max):
        split = (length_at_least_op(space, n) - length_at_least_op(space, n + 1)
                 - length_exactly_op(space, n))
        worst = max(worst, _masked_max(split))
    report.add("fock_length_projection_split", worst, tol)

    # the length-k spanning families have full rank jointly; they hold one
    # vector per word and N-basis element, written straight into G
    G = np.zeros((space.dim, space.dim), dtype=complex)
    span = (v for kk in range(space.L_max + 1) for v in lambda_span(space, kk))
    for col, v in enumerate(span):
        G[:, col] = v.to_array()
    rank = int(np.linalg.matrix_rank(G, tol=1e-10))
    report.add("fock_lambda_span_rank", float(space.dim - rank), 0.5,
               rank=rank, dim=space.dim)
    return report


def _random_vector(rng, space: FockSpace) -> FockVector:
    arr = rng.standard_normal(space.dim) + 1j * rng.standard_normal(space.dim)
    return space.from_array(arr / np.linalg.norm(arr))


def _vec_max(v: FockVector) -> float:
    return float(np.abs(v.blocks).max())


def operator_suite(space: FockSpace, seed: int = 0, tol: float = 1e-12,
                   n_partition: int = 20, vec_len: int = 32) -> VerificationReport:
    """Adjoint pairs, the shifted-weight partition identity, and the
    right-module property (covariance, for R_{gamma*}) of the building blocks."""
    rng = np.random.default_rng([seed, 2])
    report = VerificationReport()

    worst = 0.0
    for _ in range(n_partition):
        x = rng.standard_normal(vec_len) + 1j * rng.standard_normal(vec_len)
        worst = max(worst, partition_identity_residual(space, x))
    report.add("partition_identity", worst, 1e-12, samples=n_partition)

    # each adjoint is built by its own rule, not as a conjugate transpose
    letter = space.amalgam.letters()[0]
    x = rng.standard_normal(vec_len) + 1j * rng.standard_normal(vec_len)
    sv = ShiftedVector(tuple(x), 1, "backward")
    for op, op_star in [(creation(space, letter), annihilation(space, letter)),
                        (right_creation(space, letter), right_annihilation(space, letter)),
                        (diag(space, sv), diag(space, sv.conj()))]:
        report.extend(adjoint_check(op, op_star, tol=tol, seed=seed))

    # everything in sight commutes with the right action, except R_{gamma*},
    # which is covariant: R_{gamma*}(xi b) = R_{gamma*}(xi) alpha_g(b)
    b = space.base.random(rng)
    rb = right_mult(space, b)
    i, g = letter
    rb_twisted = right_mult(space, space.amalgam.factor(i).alpha(g, b))
    worst = 0.0
    ops = [(creation(space, letter), rb), (annihilation(space, letter), rb),
           (right_creation(space, letter), rb_twisted),
           (diag(space, x[:space.L_max + 2]), rb), (ends_in_factor_op(space, 0), rb),
           (rho_matrix(space, identity_op(space)), rb)]
    for op, rb_out in ops:
        for _ in range(3):
            v = _random_vector(rng, space)
            worst = max(worst, _vec_max(op(rb(v)) - rb_out(op(v))))
    report.add("right_module_blocks", worst, tol)

    # rho(Id) = Q_1 and epsilon(Id) = Q_1 on the truncated space
    q1 = length_at_least_op(space, 1)
    res_rho = _masked_max(rho_matrix(space, identity_op(space)) - q1)
    res_eps = _masked_max(epsilon_matrix(space, identity_op(space)) - q1)
    report.add("rho_of_identity", res_rho, tol)
    report.add("epsilon_of_identity", res_eps, tol)

    # the factorization bound for Phi never exceeds the vector norms
    xv = rng.standard_normal(vec_len) + 1j * rng.standard_normal(vec_len)
    yv = rng.standard_normal(vec_len) + 1j * rng.standard_normal(vec_len)
    bound = phi_cb_bound(space, xv, yv)
    cap = float(np.linalg.norm(xv) * np.linalg.norm(yv))
    report.add("phi_factorization_bound", max(bound - cap, 0.0), 1e-10,
               bound=bound, cap=cap)
    return report


def _generator_zoo(space: FockSpace, seed: int, max_k: int = 2, max_l: int = 2,
                   coeff_samples: int = 1) -> list:
    """Deterministic family of generators covering all (k, l) and both cases."""
    rng = np.random.default_rng([seed, 3])
    base = space.base
    out = []
    for k in range(max_k + 1):
        for l in range(max_l + 1):
            cre_tuples = alternating_letter_tuples(space, k)
            ann_tuples = alternating_letter_tuples(space, l)
            for cre in cre_tuples:
                for ann in ann_tuples:
                    out.append(GeneratorWord(cre, ann))
            for _ in range(coeff_samples):
                cre = cre_tuples[rng.integers(len(cre_tuples))]
                ann = ann_tuples[rng.integers(len(ann_tuples))]
                out.append(GeneratorWord(
                    cre, ann,
                    cre_coeffs=tuple(base.random(rng) for _ in range(k + 1)),
                    ann_coeffs=tuple(base.random(rng) for _ in range(l))))
    return out


def _gen_guard(space: FockSpace, w: GeneratorWord, depth: int) -> int:
    return space.L_max - max(w.k - w.l, 0) - depth


def lemma_suite(space: FockSpace, symbols, seed: int = 0,
                tol: float = EIGEN_TOL, max_rho_power: int = 2) -> VerificationReport:
    """Scaling rules on symbolic generators, compared as matrices on the
    guard band: rho powers, epsilon case rules, both Phi eigen-formulas,
    and the component / total rules of every supplied multiplier."""
    rng = np.random.default_rng([seed, 4])
    report = VerificationReport()
    gens = _generator_zoo(space, seed)
    mults = [(phi, build_T(space, phi)) for phi in symbols]
    decs = [(phi, psi_decompose(phi)) for phi, _ in mults]

    vec_len = max(space.L_max + 2, 8)
    xs = rng.standard_normal(vec_len) + 1j * rng.standard_normal(vec_len)
    ys = rng.standard_normal(vec_len) + 1j * rng.standard_normal(vec_len)
    phi_stacks = [phi_weights(space, variant, xs, ys) for variant in (1, 2)]

    L = space.L_max
    res_rho = 0.0
    res_eps = 0.0
    res_phi = [0.0, 0.0]
    res_t = 0.0
    res_t12 = 0.0
    for gw in gens:
        a = gw.operator(space)
        k, l = gw.k, gw.l
        case = gw.case
        tw = tower(space, a)

        # rho^n(a) = a Q_{l+n}
        for n in range(1, max_rho_power + 1):
            target = a @ length_at_least_op(space, l + n)
            g = space.guard_mask(_gen_guard(space, gw, n))
            res_rho = max(res_rho, _masked_max(tw[n] - target, g))

        # epsilon case rules
        g = space.guard_mask(_gen_guard(space, gw, 1))
        if case is CaseTag.CASE2:
            res_eps = max(res_eps, _masked_max(tw[L + 1] - a, g))
        else:
            res_eps = max(res_eps, _masked_max(tw[L + 1] - tw[1], g))

        # Phi eigen-formulas
        span = len(xs) - max(k, l)
        scalar1 = complex(np.vdot(ys[l:l + span], xs[k:k + span]))
        if case is CaseTag.CASE2:
            span2 = len(xs) - max(k, l) + 1
            scalar2 = complex(np.vdot(ys[l - 1:l - 1 + span2], xs[k - 1:k - 1 + span2]))
        else:
            scalar2 = scalar1
        for i, scalar in enumerate((scalar1, scalar2)):
            phi_a = weighted_sum(space, phi_stacks[i], tw)
            res_phi[i] = max(res_phi[i], _masked_max(phi_a - scalar * a, g))

        # multiplier rules
        for (phi, T), (_, dec) in zip(mults, decs):
            t1 = weighted_sum(space, T.t1_weights, tw)
            t2 = weighted_sum(space, T.t2_weights, tw)
            want1 = dec.psi1(k + l)
            want2 = dec.psi2(k + l) if case is CaseTag.CASE1 else dec.psi2(k + l - 2)
            res_t12 = max(res_t12, _masked_max(t1 - want1 * a, g))
            res_t12 = max(res_t12, _masked_max(t2 - want2 * a, g))
            n_eff = k + l if case is CaseTag.CASE1 else k + l - 1
            want = phi(n_eff)
            total = weighted_sum(space, T.weights, tw)
            res_t = max(res_t, _masked_max(total - want * a, g))

    report.add("rho_power_sector_rule", res_rho, tol, generators=len(gens))
    report.add("epsilon_case_rules", res_eps, tol)
    report.add("phi1_eigenvalue_rule", res_phi[0], tol)
    report.add("phi2_eigenvalue_rule", res_phi[1], tol)
    report.add("t1_t2_component_rules", res_t12, tol, symbols=len(mults))
    report.add("multiplier_case_rules", res_t, tol, symbols=len(mults))
    return report


def main_theorem_suite(space: FockSpace, symbols, seed: int = 0,
                       tol: float = EIGEN_TOL, words_per_length: int = 10,
                       max_len=None) -> VerificationReport:
    """The multiplier action on sampled reduced words: T(A) = phi(n) A on the
    guard band, exact vacuum coefficients, linearity, and the right-module
    property of T."""
    rng = np.random.default_rng([seed, 5])
    report = VerificationReport()
    if max_len is None:
        max_len = min(3, space.L_max - 2)
    mults = [(phi, build_T(space, phi)) for phi in symbols]

    res_action = 0.0
    res_vacuum = 0.0
    first = {}  # the first word operator of each length, reused below
    vac = space.guard_mask(0)  # the vacuum columns, always guarded
    for n in range(0, max_len + 1):
        guard = space.guard_mask(space.L_max - n)
        for _ in range(words_per_length):
            A = word_operator(space, random_reduced_word(rng, space, n))
            first.setdefault(n, A)
            for phi, T in mults:
                TA = T.apply_matrix(A)
                # an overflowing symbol leaves inf or nan here, failing the checks
                with np.errstate(over="ignore", invalid="ignore"):
                    diff = TA - phi(n) * A
                scale = max(op_norm(A.entries().columns(guard)), 1e-30)
                res_action = max(res_action, op_norm(diff.entries().columns(guard)) / scale)
                res_vacuum = max(res_vacuum,
                                 _masked_max(diff, vac) / max(_masked_max(A, vac), 1e-30))
    report.add("theorem_action_on_words", res_action, tol,
               lengths=max_len, per_length=words_per_length, symbols=len(mults))
    report.add("theorem_vacuum_coefficients", res_vacuum, tol)

    # linearity and the right-module property of T (right action = composing
    # with a left multiplication, the N-copy inside the algebra)
    res_lin = 0.0
    res_mod = 0.0
    phi0, T0 = mults[0]
    A = first[min(1, max_len)]
    B = first[0]
    al, be = complex(rng.standard_normal()), complex(rng.standard_normal())
    diff = T0.apply_matrix(al * A + be * B) - al * T0.apply_matrix(A) - be * T0.apply_matrix(B)
    res_lin = op_norm(diff) / max(op_norm(A), 1.0)
    lam = left_mult(space, space.base.random(rng))
    guard = space.guard_mask(space.L_max - max(1, max_len))
    diff = T0.apply_matrix(A @ lam) - T0.apply_matrix(A) @ lam
    res_mod = op_norm(diff.entries().columns(guard)) / max(op_norm(A), 1.0)
    report.add("multiplier_linearity", res_lin, 1e-12)
    report.add("multiplier_right_module", res_mod, tol)
    return report


def amplified_samples(rng, space: FockSpace, T, samples: int, amplifications, terms: int):
    """Yield ``(sum C_i (x) A_i, sum C_i (x) T(A_i))`` for ``samples`` random
    combinations of ``terms`` generator words A_i, once per amplification m,
    with random complex m x m coefficient blocks C_i.  Both are scalar
    :class:`~radmul.operators.Entries` of the (m dim) x (m dim) matrix,
    built by ``amplify`` without the dense array."""
    for _ in range(samples):
        kls = [(int(rng.integers(0, 3)), int(rng.integers(0, 3)))
               for _ in range(terms)]
        gens = [random_generator_word(rng, space, k, l) for k, l in kls]
        ops = [g.operator(space) for g in gens]
        tops = [T.apply_matrix(A) for A in ops]
        for m in amplifications:
            blocks = [rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
                      for _ in ops]
            # an overflowing symbol leaves inf or nan in tbig; op_norm reads inf
            with np.errstate(over="ignore", invalid="ignore"):
                pair = (amplify(blocks, ops), amplify(blocks, tops))
            yield pair


def norm_bound_suite(space: FockSpace, symbols, seed: int = 0,
                     samples: int = 50, amplifications=(1, 2, 3),
                     tol: float = SPECTRAL_TOL, terms: int = 3) -> VerificationReport:
    """Sampled two-sided envelope for the multiplier norm.

    Upper: sup ||(id_m (x) T)(a)|| / ||a|| <= class-C norm + tol over random
    combinations of generator words with m x m scalar coefficient blocks.
    Lower: the scaling action attains |phi(n)| on pure creation words.
    Norms come from ``op_norm`` on the entries of the amplified matrices,
    which are never built densely: they are sparse on word indices, so each
    norm is an exact SVD of their many small support components.
    """
    rng = np.random.default_rng([seed, 6])
    report = VerificationReport()
    for si, phi in enumerate(symbols):
        T = build_T(space, phi)
        c_norm = norm_C(phi)
        worst = 0.0
        for big, tbig in amplified_samples(rng, space, T, samples, amplifications, terms):
            na = op_norm(big)
            if na < 1e-12:
                continue
            worst = max(worst, op_norm(tbig) / na)
        report.add("norm_bound_upper[%d]" % si, max(worst - c_norm, 0.0), tol,
                   observed=worst, class_c_norm=c_norm, samples=samples)

        attained = 0.0
        want = 0.0
        for n in range(0, min(3, space.L_max) + 1):
            want = max(want, abs(phi(n)))
            cre = alternating_letter_tuples(space, n)[0] if n else ()
            A = GeneratorWord(cre, ()).operator(space)
            na = op_norm(A)
            if na > 0:
                attained = max(attained, op_norm(T.apply_matrix(A)) / na)
        report.add("norm_bound_lower[%d]" % si, max(want - attained, 0.0), tol,
                   attained=attained, eigen_max=want)
    return report


def embedding_suite(space: FockSpace, seed: int = 0,
                    tol: float = 1e-11) -> VerificationReport:
    """embed is a unital *-homomorphism on each factor (guard band), with the
    right N-valued matrix coefficients against the module basis."""
    rng = np.random.default_rng([seed, 7])
    report = VerificationReport()
    res_mult = 0.0
    res_star = 0.0
    res_coef = 0.0
    res_unit = 0.0
    guard = space.guard_mask(space.L_max - 2)
    for i, fac in enumerate(space.amalgam.factors):
        one = embed(space, fac.identity())
        res_unit = max(res_unit, _masked_max(one - identity_op(space),
                                             space.guard_mask(space.L_max - 1)))
        for _ in range(3):
            a = fac.random(rng)
            b = fac.random(rng)
            ea, eb = embed(space, a), embed(space, b)
            eab = embed(space, a * b)
            res_mult = max(res_mult, _masked_max(ea @ eb - eab, guard))
            res_star = max(res_star, _masked_max(embed(space, a.star()) - ea.adjoint()))
            # N-valued matrix coefficients against the basis vectors
            basis = fac.pp_basis()
            for lidx, el in enumerate(basis):
                el_vec = (space.vacuum() if lidx == 0
                          else space.word_vector(Word(((i, lidx),))))
                ael = ea(el_vec)
                for midx, em in enumerate(basis):
                    em_vec = (space.vacuum() if midx == 0
                              else space.word_vector(Word(((i, midx),))))
                    got = em_vec.inner_N(ael)
                    want = cond_exp(em.star() * a * el)
                    res_coef = max(res_coef, float(np.abs(got - want).max()))
    report.add("embedding_unital", res_unit, tol)
    report.add("embedding_multiplicative", res_mult, tol)
    report.add("embedding_star", res_star, tol)
    report.add("embedding_matrix_coefficients", res_coef, tol)
    return report


def word_vacuum_images(space: FockSpace, max_len: int):
    """Yield the coordinate arrays of u_{g_1} ... u_{g_n} b applied to the
    vacuum, for every word (g_1, ..., g_n) of length <= max_len (in basis
    order) and every N-basis element b.

    Each is the vacuum array multiplied, right to left, by left_mult(b) and
    by the letters' embeddings, each built once; the word operator's
    interior coefficients are identities, so this is
    word_operator(...)(vacuum) without building one operator per word.
    """
    embeds = {(i, g): embed(space, space.amalgam.factor(i).unitary(g))
              for i, g in space.amalgam.letters()}
    vac = space.vacuum().to_array()
    starts = [left_mult(space, b) @ vac for b in space.base.basis()]
    for w in space.words:
        if len(w) > max_len:
            continue
        for vec in starts:
            for letter in reversed(w.letters):
                vec = embeds[letter] @ vec
            yield vec


def spanning_check(space: FockSpace, max_len=None) -> VerificationReport:
    """Vacuum images of basis-letter words with N-basis coefficients
    (``word_vacuum_images``) span the truncated space, so the scaling action
    on words pins the multiplier."""
    if max_len is None:
        max_len = space.L_max
    report = VerificationReport()
    expected = int(np.count_nonzero(space.guard_mask(max_len)))
    G = np.zeros((space.dim, expected), dtype=complex)
    for col, vec in enumerate(word_vacuum_images(space, max_len)):
        G[:, col] = vec
    rank = int(np.linalg.matrix_rank(G, tol=1e-10))
    report.add("spanning_rank_len%d" % max_len, float(expected - rank), 0.5,
               rank=rank, expected=expected)
    return report


def verify_main_theorem(space: FockSpace, symbols, seed: int = 0,
                        tol: float = EIGEN_TOL, words_per_length: int = 10,
                        bound_samples: int = 25) -> VerificationReport:
    """Scaling action on sampled reduced words, case rules on generators,
    the sampled norm bound, and the right-module property, in one report."""
    report = VerificationReport()
    report.extend(main_theorem_suite(space, symbols, seed, tol,
                                     words_per_length=words_per_length))
    report.extend(lemma_suite(space, symbols, seed, tol))
    report.extend(norm_bound_suite(space, symbols, seed, samples=bound_samples))
    return report
