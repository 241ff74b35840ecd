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

The sampled suites draw all their samples first and build each operator
role of all of them as one stack (``embed`` and ``word_operator`` take
sequences, ``generator_operators`` a ``Generators`` family of index and
coefficient arrays, which the lemma suite's zoo and the bound suite's draws
build directly), cut to the columns their checks read.  ``_stacked_chunks``
cuts the samples into ranges of bounded size (``CHUNK_ENTRIES``), so the
multiplier, rho, epsilon, norms and maxima run once per range with bounded
memory.  Every sample gets exactly the numbers it gets on its own, so
neither the ranges nor the cuts change a report.  The multiplier residuals
are divided by the symbol's scale (``_symbol_scale``), the T1/T2 component
residuals by the larger of it and the largest weight of T1 and T2
(``_component_scale``).

The rank checks build their spanning families as operators, one column per
vector (``lambda_span``, ``word_vacuum_images``).  Both are block diagonal
on words, so ``_word_block_rank`` adds up per-word block ranks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.random import default_rng  # loaded at import: once, before any fork

from .algebra import FactorElement, cond_exp, multiplication_matrix
from .fock import FockSpace, inner_N
from .operators import (Generators, StructuredOperator, _diag_op, adjoint_check, amplify,
                        annihilation, apply_weights, build_T, creation, diag,
                        ends_in_factor_op, epsilon_matrix, generator_operators, identity_op,
                        left_mult, length_at_least_op, length_exactly_op, lmul_blocks, op_sum,
                        partition_sum, phi_cb_bound, phi_weights, right_annihilation,
                        right_creation, right_mult, rho_matrix, stack)
from .report import ALGEBRAIC_TOL, EIGEN_TOL, SPECTRAL_TOL, VerificationReport
from .sparse import coalesce, max_column_norm, op_norm, schur_bound
from .symbols import norm_C

# a chunk of samples holds at most this many scalar entries in all (at least
# one sample), each weighted 2L+1: a size weight, not a count of copies.  The
# lemma suite then runs in 6 chunks at cy3 fock_len 5 and 127 at fock_len 9.
# A larger cap saves CPU time but raises peak RSS past the 5% bound of the
# benchmark (BENCHMARK.json; measured in ROADMAP item 1, step B)
CHUNK_ENTRIES = 4096

# the norm-bound sampler's amplifications m and terms per combination
AMPLIFICATIONS = (1, 2, 3)
TERMS = 3


def _stacked_chunks(space: FockSpace, stacks):
    """Yield (slice, stacks of its samples) for consecutive ranges of the
    samples of ``stacks`` (one per operator role, all of one size).  A range
    takes samples while their sizes (the size weight 2L+1 per scalar entry
    of a block, see ``CHUNK_ENTRIES``) add up to at most ``CHUNK_ENTRIES``,
    and at least one."""
    n = stacks[0].n_samples
    per = (2 * space.L_max + 1) * space.dim_N ** 2
    sizes = per * np.bincount(np.concatenate([op.samples for op in stacks]), minlength=n)
    start, total = 0, 0
    for t, size in enumerate(sizes):
        if t > start and total + size > CHUNK_ENTRIES:
            yield _chunk(stacks, start, t)
            start, total = t, 0
        total += size
    if n > start:
        yield _chunk(stacks, start, n)


def _chunk(stacks, start: int, stop: int) -> tuple:
    keep = np.zeros(stacks[0].n_samples, dtype=bool)
    keep[start:stop] = True
    return slice(start, stop), [op.select(keep) for op in stacks]


def _fold(worst: float, *values) -> float:
    """The running maximum ``worst`` updated with every value; a nan, a
    residual that could not be evaluated, stays nan and fails its check."""
    for v in values:
        worst = float(np.max(np.ravel(v), initial=worst))
    return worst


def _symbol_scale(space: FockSpace, phi) -> float:
    """s = max(1, |phi(n)| for 0 <= n <= 2L+1), the scale of phi on the
    truncated space.  The multiplier residuals are rounding on phi's scale,
    so they are divided by s; s = 1 for a symbol bounded by 1."""
    return max(1.0, max(abs(phi(n)) for n in range(2 * space.L_max + 2)))


def _component_scale(T, s: float) -> float:
    """max(s, the largest weight of T1 and of T2): the scale of what the
    component rules compare, T1(a) and T2(a) against psi1 a and psi2 a.
    T1 and T2 can be far larger than phi (psi1 ~ 1/(1+z) for a tail ratio
    z near -1), and their rounding is on their own scale."""
    return max(s, np.abs(T.t1_weights).max(), np.abs(T.t2_weights).max())


def _embed_terms(space: FockSpace, i: int) -> tuple:
    """The entries of the terms up_j lmul(c) down_k of factor i, read off
    the space's word graph: (rows, cols, middle words, term index
    t = j |G| + k), in (t, column) order with the columns of a term
    ascending.  up_0 = down_0 keeps the words not starting in factor i,
    up_j creates (i, j), down_k annihilates (i, k)."""
    words = np.arange(len(space.words))
    guard = np.where(space.first_factors != i, words, -1)
    at = [space.letters.index((i, g)) for g in range(1, space.amalgam.factors[i].group.order)]
    ups = np.vstack((guard, space.prepended[at]))
    downs = np.vstack((guard, space.stripped[at]))
    k, cols = np.nonzero(downs >= 0)
    mid = downs[k, cols]
    j, e = np.nonzero(ups[:, mid] >= 0)
    return ups[j, mid[e]], cols[e], mid[e], j * len(ups) + k[e]


def embed(space: FockSpace, a) -> StructuredOperator:
    """The left multiplication by a factor element on the truncated Fock
    space as a stack of one, or the stack of them for a sequence of
    elements (of any factors): the sum of the (j, k) terms
    L_{e_j} E(e_j* a e_k) L*_{e_k} with nonzero coefficient,
    E(u_{g_j}* a u_{g_k}) = alpha_{g_j^{-1}}(a_{g_j g_k^{-1}}) for
    e_j = u_{g_j}, entries from ``_embed_terms`` (built once per factor and
    call), added in (j, k) order.
    """
    elements = [a] if isinstance(a, FactorElement) else a
    factors = space.amalgam.factors
    d = space.base.d
    terms_of = {}
    entries = [(np.zeros(0, dtype=np.intp),) * 4 + (np.zeros((0, d, d), dtype=complex),)]
    for s, x in enumerate(elements):
        idx = next((i for i, fac in enumerate(factors) if fac is x.factor), None)
        if idx is None:
            raise ValueError("element does not belong to a configured factor")
        if idx not in terms_of:
            terms_of[idx] = _embed_terms(space, idx)
        rows, cols, mid, term = terms_of[idx]
        group = x.factor.group
        j, k = np.divmod(np.arange(group.order ** 2), group.order)
        inv = group.inverses
        coef = x.factor.alpha(inv[j], x.coeffs[group.table[j, inv[k]]])
        keep = (np.abs(coef) > 0).any(axis=(1, 2))[term]
        entries.append((np.full(np.count_nonzero(keep), s), rows[keep], cols[keep], mid[keep],
                        coef[term[keep]]))
    samples, rows, cols, mid, coefs = (np.concatenate(x) for x in zip(*entries))
    blocks = lmul_blocks(space, coefs, mid)
    samples, rows, cols, blocks = coalesce(samples, rows, cols, blocks, len(space.words))
    return StructuredOperator(space, rows, cols, blocks, "embed", samples, len(elements))


@dataclass(frozen=True)
class ReducedWord:
    """b_0 a_1 b_1 ... a_n b_n with kernel letters a_j from alternating factors
    (adjacent letters belong to different factor objects)."""

    letters: tuple            # FactorElement instances with vanishing expectation
    coeffs: tuple             # n+1 base-algebra elements

    def __post_init__(self):
        if len(self.coeffs) != len(self.letters) + 1:
            raise ValueError("need one more coefficient than letters")
        for j, a in enumerate(self.letters):
            if j and self.letters[j - 1].factor is a.factor:
                raise ValueError("adjacent letters from the same factor")
            if np.abs(cond_exp(a)).max() > 1e-10:
                raise ValueError("letters must have vanishing expectation")

    @property
    def length(self) -> int:
        return len(self.letters)


def word_operator(space: FockSpace, w, max_col_len=None) -> StructuredOperator:
    """b_0 embed(a_1) b_1 ... embed(a_n) b_n for a reduced word as a stack of
    one, or the stack of them for words of one length, multiplied right to
    left.

    With ``max_col_len`` the last factor is cut to the columns of words at
    most that long, and so is the product, every kept entry adding the same
    terms in the same order.
    """
    words = [w] if isinstance(w, ReducedWord) else w
    n = words[0].length
    if any(x.length != n for x in words):
        raise ValueError("a stack of words holds words of one length")

    def lmul(j):
        return left_mult(space, np.array([space.base.element(x.coeffs[j]) for x in words]))

    op = lmul(n)
    if max_col_len is not None:
        op = op.columns_upto(max_col_len)
    for j in reversed(range(n)):
        op = embed(space, [x.letters[j] for x in words]) @ op
        op = lmul(j) @ op
    return op.renamed("word(n=%d)" % n)


def random_reduced_word(rng, space: FockSpace, n: int) -> ReducedWord:
    base = space.base
    n_factors = len(space.amalgam.factors)
    indices = []
    for j in range(n):
        choices = [i for i in range(n_factors) if not indices or i != indices[-1]]
        indices.append(int(choices[rng.integers(len(choices))]))
    letters = tuple(space.amalgam.factors[i].random_kernel(rng) for i in indices)
    coeffs = tuple(base.random(rng) for _ in range(n + 1))
    return ReducedWord(letters=letters, coeffs=coeffs)


def _coefficients(rng, base, k: int, l: int) -> tuple:
    """k + 1 creation and then l annihilation coefficients drawn from rng,
    padded with zeros to the 3 and 2 slots of a row of ``Generators``."""
    draws = [base.random(rng) for _ in range(k + 1 + l)]
    return (np.array(draws[:k + 1] + [base.zero()] * (2 - k)),
            np.array(draws[k + 1:] + [base.zero()] * (2 - l)))


def random_generator_word(rng, space: FockSpace, k: int, l: int) -> tuple:
    """The rows (cre, ann, cre_coeffs, ann_coeffs) of ``Generators`` for a
    random word of k, l <= 2 letters, each string alternating factors."""
    factor = [i for i, _ in space.letters]
    strings = np.full((2, 2), -1)
    for s, length in enumerate((k, l)):
        for j in range(length):
            choices = [t for t, i in enumerate(factor) if not j or i != factor[strings[s, j - 1]]]
            strings[s, j] = choices[rng.integers(len(choices))]
    return (strings[0], strings[1]) + _coefficients(rng, space.base, k, l)


def _strings(space: FockSpace, n: int, width: int) -> np.ndarray:
    """The letter indices of the words of length n, one row per word in
    basis order, padded with -1 to ``width`` slots."""
    at = np.flatnonzero(space.lengths == n)
    out = np.full((at.size, width), -1)
    for j in range(n):
        out[:, j], at = space.first_letter[at], space.rest[at]
    return out


# ---------------------------------------------------------------------------
# suites


def fock_suite(space: FockSpace, seed: int = 0,
               tol: float = ALGEBRAIC_TOL) -> VerificationReport:
    """Structural invariants of the truncated space: the N-valued inner
    product on coordinate arrays, the module structure as exact identities
    between operator stacks, the length split and the spanning rank."""
    rng = default_rng([seed, 1])
    base = space.base
    report = VerificationReport()

    # orthonormality of words over N and the module property of the inner
    # product, on coordinate arrays: the word w b has the block b / sqrt(d)
    # at w and zeros elsewhere
    b, c = base.random(rng), base.random(rng)
    b /= max(np.abs(b).max(), 1.0)
    c /= max(np.abs(c).max(), 1.0)
    units = np.eye(min(len(space.words), 8), len(space.words))[:, :, None, None]
    words_b, words_c = ((units * (a / np.sqrt(base.d))).reshape(len(units), -1) for a in (b, c))
    worst_onb = 0.0
    for j, x in enumerate(words_b):
        for k, y in enumerate(words_c):
            expect = b.conj().T @ c if j == k else base.zero()
            worst_onb = _fold(worst_onb, np.abs(inner_N(space, x, y) - expect))
    xi, eta = space.random_array(rng), space.random_array(rng)
    lhs = inner_N(space, xi, (right_mult(space, b) @ eta)[0])
    worst_mod = float(np.abs(lhs - inner_N(space, xi, eta) @ b).max())
    report.add("fock_word_orthonormality", worst_onb, tol)
    report.add("fock_inner_right_linear", worst_mod, tol)

    # left and right actions commute; projections commute with the right action
    pairs = [(base.random(rng), base.random(rng)) for _ in range(4)]
    lb = left_mult(space, np.array([bb for bb, _ in pairs]))
    rc = stack([right_mult(space, cc) for _, cc in pairs])
    report.add("fock_left_right_commute", _fold(0.0, (lb @ rc - rc @ lb).block_max()), tol)

    P = stack([length_at_least_op(space, 1), length_at_least_op(space, 2),
               ends_in_factor_op(space, 0)])
    rb = stack([right_mult(space, base.random(rng))] * P.n_samples)
    report.add("fock_projection_right_commute", _fold(0.0, (P @ rb - rb @ P).block_max()), tol)

    # Q_n = Q_{n+1} + (length exactly n)
    worst = 0.0
    for n in range(space.L_max):
        split = (length_at_least_op(space, n) - length_at_least_op(space, n + 1)
                 - length_exactly_op(space, n))
        worst = _fold(worst, split.block_max())
    report.add("fock_length_projection_split", worst, tol)

    # the length-k spanning families have full rank jointly
    rank = _word_block_rank(op_sum(space, [lambda_span(space, k)
                                           for k in range(space.L_max + 1)]))
    report.add("fock_lambda_span_rank", float(space.dim - rank), 0.5,
               rank=rank, dim=space.dim)
    return report


def lambda_span(space: FockSpace, k: int) -> StructuredOperator:
    """Spanning family of the length-k sector, words paired with N basis
    elements, as the columns of one operator: on each word of length k a
    diagonal block whose column j holds the basis element b_j as the
    word's coefficient."""
    if k > space.L_max:
        raise ValueError("sector beyond truncation")
    basis = space.base.basis()
    block = basis.reshape(len(basis), -1).T / np.sqrt(space.base.d)
    return _diag_op(space, space.lengths == k, "Lambda%d" % k, block)


def _word_block_rank(op: StructuredOperator) -> int:
    """Rank (singular values above 1e-10) of a single operator that is block
    diagonal on words (rows == cols): the sum of the block ranks, one
    batched SVD.  A block off the diagonal is a ValueError."""
    if not np.array_equal(op.rows, op.cols):
        raise ValueError("operator %s has a block off the word diagonal" % op.name)
    return int(np.linalg.matrix_rank(op.blocks, tol=1e-10).sum())


def operator_suite(space: FockSpace, seed: int = 0) -> VerificationReport:
    """The shifted-weight partition identity and the Phi factorization bound
    on the two random vectors of length 32, adjoint pairs, and the
    right-module property of six building blocks A as the identity
    A R_b = R_b' A on their stack (b' = b, but alpha_g(b) for the covariant
    R_{gamma*}), at tolerance 1e-12."""
    rng = default_rng([seed, 2])
    report = VerificationReport()
    tol, vec_len = 1e-12, 32
    # the draws first; skipping the vectors of an old partition check that read
    # no operator keeps every draw after them as it was
    rng.standard_normal(2 * 20 * vec_len)
    x = rng.standard_normal(vec_len) + 1j * rng.standard_normal(vec_len)
    b = space.base.random(rng)
    xv = rng.standard_normal(vec_len) + 1j * rng.standard_normal(vec_len)
    yv = rng.standard_normal(vec_len) + 1j * rng.standard_normal(vec_len)

    # the row sums of the Phi factorization, whose norms phi_cb_bound takes
    diff = stack([partition_sum(space, v) - float(np.vdot(v, v).real) * identity_op(space)
                  for v in (xv, yv)])
    report.add("partition_identity", _fold(0.0, diff.block_max()), tol, samples=2)

    # each adjoint is built by its own rule, not as a conjugate transpose
    letter = space.letters[0]
    for op, op_star in [(creation(space, letter), annihilation(space, letter)),
                        (right_creation(space, letter), right_annihilation(space, letter)),
                        (diag(space, x[1:]), diag(space, np.conj(x[1:])))]:
        report.extend(adjoint_check(op, op_star, tol=tol, seed=seed))

    # everything in sight commutes with the right action, except R_{gamma*},
    # which is covariant: R_{gamma*}(xi b) = R_{gamma*}(xi) alpha_g(b)
    rb = right_mult(space, b)
    i, g = letter
    rb_twisted = right_mult(space, space.amalgam.factors[i].alpha(g, b))
    ops = stack([creation(space, letter), annihilation(space, letter),
                 right_creation(space, letter), diag(space, x[:space.L_max + 2]),
                 ends_in_factor_op(space, 0), rho_matrix(space, identity_op(space))])
    residual = ops @ stack([rb] * ops.n_samples) - stack([rb, rb, rb_twisted, rb, rb, rb]) @ ops
    report.add("right_module_blocks", _fold(0.0, residual.block_max()), tol)

    # rho(Id) = Q_1 and epsilon(Id) = Q_1 on the truncated space
    q1 = length_at_least_op(space, 1)
    res_rho = (rho_matrix(space, identity_op(space)) - q1).block_max()[0]
    res_eps = (epsilon_matrix(space, identity_op(space)) - q1).block_max()[0]
    report.add("rho_of_identity", res_rho, tol)
    report.add("epsilon_of_identity", res_eps, tol)

    # the factorization bound for Phi never exceeds the vector norms
    bound = phi_cb_bound(space, xv, yv)
    cap = float(np.linalg.norm(xv) * np.linalg.norm(yv))
    report.add("phi_factorization_bound", max(bound - cap, 0.0), 1e-10,
               bound=bound, cap=cap)
    return report


def _generator_zoo(space: FockSpace, seed: int) -> Generators:
    """Deterministic family of generators covering all k, l <= 2 and both
    cases: per (k, l), every pair of letter strings without coefficients,
    then one random pair with random coefficients."""
    rng = default_rng([seed, 3])
    strings = [_strings(space, n, 2) for n in range(3)]
    cre, ann, rows, coeffs = [], [], [], []
    for k in range(3):
        for l in range(3):
            S, R = strings[k], strings[l]
            cre += [np.repeat(S, len(R), axis=0), S[[rng.integers(len(S))]]]
            ann += [np.tile(R, (len(S), 1)), R[[rng.integers(len(R))]]]
            rows += [np.full(len(S) * len(R), -1), [len(coeffs)]]
            coeffs.append(_coefficients(rng, space.base, k, l))
    return Generators(np.concatenate(cre), np.concatenate(ann), np.concatenate(rows),
                      *map(np.array, zip(*coeffs)))


def _phi_scalars(xs: np.ndarray, ys: np.ndarray, gens: Generators, case2) -> np.ndarray:
    """The eigenvalues of Phi1_{x,y} and Phi2_{x,y}, a row per generator."""
    table = np.zeros((3, 3, 2, 2), dtype=complex)
    for k in range(3):
        for l in range(3):
            span = len(xs) - max(k, l)
            table[k, l] = complex(np.vdot(ys[l:l + span], xs[k:k + span]))
            if k and l:
                table[k, l, 1, 1] = complex(np.vdot(ys[l - 1:l + span], xs[k - 1:k + span]))
    return table[gens.k, gens.l, case2.astype(int)]


def lemma_suite(space: FockSpace, symbols, seed: int = 0,
                tol: float = EIGEN_TOL) -> VerificationReport:
    """Scaling rules on symbolic generators, compared as matrices on the
    guard band: rho and rho^2, epsilon case rules, both Phi eigen-formulas,
    and the component / total rules of every supplied multiplier.  The
    generators are checked a chunk at a time, as one stack."""
    rng = default_rng([seed, 4])
    report = VerificationReport()
    gens = _generator_zoo(space, seed)
    mults = []
    for phi in symbols:
        T, s = build_T(space, phi), _symbol_scale(space, phi)
        mults.append((T, s, _component_scale(T, s)))

    vec_len = max(space.L_max + 2, 8)
    xs = rng.standard_normal(vec_len) + 1j * rng.standard_normal(vec_len)
    ys = rng.standard_normal(vec_len) + 1j * rng.standard_normal(vec_len)
    weight_sets = np.array([phi_weights(space, variant, xs, ys) for variant in (1, 2)]
                           + [W for T, _, _ in mults
                              for W in (T.t1_weights, T.t2_weights, T.weights)])

    res_rho = res_eps = res_t = res_t12 = 0.0
    res_phi = [0.0, 0.0]
    k, l, case2 = gens.k, gens.l, gens.case2(space)
    g = space.L_max - np.maximum(k - l, 0) - 1  # the guard band at depth 1
    scalars = _phi_scalars(xs, ys, gens, case2)
    # psi1(k + l), psi2(k + l) and phi(k + l), in case 2 psi2(k + l - 2) and phi(k + l - 1)
    wants = [(np.array([phi.psi1(n) for n in range(5)])[k + l],
              np.array([phi.psi2(n) for n in range(5)])[k + l - 2 * case2],
              np.array([phi(n) for n in range(5)])[k + l - case2]) for phi in symbols]
    # every check reads the columns of length <= g only, and a column of
    # rho(a), eps(a) or T(a) reads the same or a shorter column of a
    A = generator_operators(space, gens)
    for sl, (a,) in _stacked_chunks(space, [A.columns_upto(g)]):
        # rho^n(a) = a Q_{l+n}: the entries of a in the columns of length >= l+n
        rho_a = rho_matrix(space, a)
        for n, rho_n in ((1, rho_a), (2, rho_matrix(space, rho_a))):
            target = a.subset(space.lengths[a.cols] >= (l[sl] + n)[a.samples])
            res_rho = _fold(res_rho, (rho_n - target).columns_upto(g[sl] + 1 - n).block_max())

        # epsilon case rules: eps(a) = a in case 2, rho(a) in case 1
        target = op_sum(space, [a.subset(case2[sl][a.samples]),
                                rho_a.subset(~case2[sl][rho_a.samples])])
        res_eps = _fold(res_eps,
                        (epsilon_matrix(space, a) - target).columns_upto(g[sl]).block_max())

        # Phi1, Phi2 and every symbol's T1, T2 and T of a in one call, copy j
        # of a weighed by weight set j
        copy = np.repeat(np.arange(len(weight_sets)), a.n_samples)
        images = apply_weights(space, weight_sets, stack([a] * len(weight_sets)), copy)
        images = [images.select(copy == j) for j in range(len(weight_sets))]

        # Phi eigen-formulas
        for i in range(2):
            res_phi[i] = _fold(res_phi[i],
                               (images[i] - scalars[sl, i] * a).columns_upto(g[sl]).block_max())

        # multiplier rules; an overflowing symbol leaves inf or nan here,
        # failing the checks
        for j, ((T, s, s12), (want1, want2, want)) in enumerate(zip(mults, wants)):
            t1, t2, total = images[2 + 3 * j:5 + 3 * j]
            with np.errstate(over="ignore", invalid="ignore"):
                res_t12 = _fold(res_t12,
                                (t1 - want1[sl] * a).columns_upto(g[sl]).block_max() / s12,
                                (t2 - want2[sl] * a).columns_upto(g[sl]).block_max() / s12)
                res_t = _fold(res_t, (total - want[sl] * a).columns_upto(g[sl]).block_max() / s)

    report.add("rho_power_sector_rule", res_rho, tol, generators=len(gens.cre))
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
    property of T.  The words of one length are checked a chunk at a time,
    as one stack."""
    rng = default_rng([seed, 5])
    report = VerificationReport()
    if max_len is None:
        max_len = min(3, space.L_max - 2)
    mults = [(phi, build_T(space, phi), _symbol_scale(space, phi)) for phi in symbols]
    words = {n: [random_reduced_word(rng, space, n) for _ in range(words_per_length)]
             for n in range(0, max_len + 1)}

    res_action = 0.0
    res_vacuum = 0.0
    for n, sampled in words.items():
        guard = space.L_max - n
        # the checks read the guard columns only, and a column of T(A) reads
        # the same or a shorter column of A
        stacks = [word_operator(space, sampled, guard)]
        for _, (A,) in _stacked_chunks(space, stacks):
            # the residual is an upper bound for ||d|| over a lower bound for
            # ||A_guard||, each one pass over the entries, so it is never
            # smaller than ||d|| / ||A_guard||
            scale = np.maximum(max_column_norm(A.columns_upto(guard)), 1e-30)
            for phi, T, s in mults:
                TA = T.apply_matrix(A)
                # an overflowing symbol leaves inf or nan here, failing the checks
                with np.errstate(over="ignore", invalid="ignore"):
                    diff = TA - phi(n) * A
                d = diff.columns_upto(guard)
                res_action = _fold(res_action, schur_bound(d) / scale / s)
                res_vacuum = _fold(res_vacuum, diff.columns_upto(0).block_max()
                                   / np.maximum(A.columns_upto(0).block_max(), 1e-30) / s)
    report.add("theorem_action_on_words", res_action, tol,
               lengths=max_len, per_length=words_per_length, symbols=len(mults))
    report.add("theorem_vacuum_coefficients", res_vacuum, tol)

    # linearity and the right-module property of T (right action = composing
    # with a left multiplication, the N-copy inside the algebra)
    _, T0, s = mults[0]
    A = word_operator(space, words[min(1, max_len)][0])
    B = word_operator(space, words[0][0])
    al, be = complex(rng.standard_normal()), complex(rng.standard_normal())
    lam = left_mult(space, space.base.random(rng))
    with np.errstate(over="ignore", invalid="ignore"):  # as above
        diff = (T0.apply_matrix(al * A + be * B) - al * T0.apply_matrix(A)
                - be * T0.apply_matrix(B))
        norm_a = max(op_norm(A)[0], 1.0)
        res_lin = op_norm(diff)[0] / norm_a / s
        diff = T0.apply_matrix(A @ lam) - T0.apply_matrix(A) @ lam
        res_mod = op_norm(diff.columns_upto(space.L_max - max(1, max_len)))[0] / norm_a / s
    report.add("multiplier_linearity", res_lin, 1e-12)
    report.add("multiplier_right_module", res_mod, tol)
    return report


def amplified_stacks(rng, space: FockSpace, T, samples: int):
    """Draw ``samples`` combinations of ``TERMS`` random generator words A_i
    with random complex m x m blocks C_i per amplification m in
    ``AMPLIFICATIONS``, then yield ``(m, sum C_i (x) A_i, sum C_i (x)
    T(A_i))`` per chunk of combinations and amplification, as operator
    stacks (``amplify``), one sample per combination.  Per combination the
    draws are the (k, l) of every term, the words, and then the blocks of
    every amplification in turn.
    """
    draws = []
    for _ in range(samples):
        kls = [(int(rng.integers(0, 3)), int(rng.integers(0, 3))) for _ in range(TERMS)]
        gens = [random_generator_word(rng, space, k, l) for k, l in kls]
        draws.append((gens, {m: [rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
                                 for _ in range(TERMS)] for m in AMPLIFICATIONS}))
    # term i of every combination, as one family
    stacks = []
    for i in range(TERMS):
        cre, ann, b, bt = map(np.array, zip(*(gens[i] for gens, _ in draws)))
        stacks.append(generator_operators(space, Generators(cre, ann, np.arange(samples), b, bt)))
    for sl, ops in _stacked_chunks(space, stacks):
        chunk = draws[sl]
        # one Horner pass for all TERMS stacks pays its per-call cost once
        tops = T.apply_matrix(stack(ops))
        term = np.arange(tops.n_samples) // ops[0].n_samples
        tops = [tops.select(term == i) for i in range(TERMS)]
        for m in AMPLIFICATIONS:
            blocks = [np.array([c[m][i] for _, c in chunk]) for i in range(TERMS)]
            # an overflowing symbol leaves inf or nan in tbig; op_norm reads inf
            with np.errstate(over="ignore", invalid="ignore"):
                yield m, amplify(blocks, ops), amplify(blocks, tops)


def norm_bound_suite(space: FockSpace, symbols, seed: int = 0,
                     samples: int = 50, tol: float = SPECTRAL_TOL) -> VerificationReport:
    """Sampled two-sided envelope for the multiplier norm.

    Upper: sup ||(id_m (x) T)(a)|| / ||a|| <= class-C norm + tol over random
    combinations of generator words with m x m scalar coefficient blocks.
    Lower: the scaling action attains |phi(n)| on pure creation words.
    Norms are exact SVDs of the support components of the amplified
    matrices' entries (``op_norm``), one batched run per chunk.
    """
    rng = default_rng([seed, 6])
    report = VerificationReport()
    # the first creation word of every length up to 3
    lengths = range(0, min(3, space.L_max) + 1)
    cre = np.array([_strings(space, n, 3)[0] for n in lengths])
    creations = generator_operators(space, Generators(cre, cre[:, :0], np.full(len(cre), -1)))
    for si, phi in enumerate(symbols):
        T = build_T(space, phi)
        c_norm = norm_C(phi)
        worst = 0.0
        for _, big, tbig in amplified_stacks(rng, space, T, samples):
            na = op_norm(big)
            live = na >= 1e-12
            if live.any():
                worst = _fold(worst, op_norm(tbig.select(live)) / na[live])
        report.add("norm_bound_upper[%d]" % si, max(worst - c_norm, 0.0), tol,
                   observed=worst, class_c_norm=c_norm, samples=samples)

        attained = 0.0
        want = 0.0
        for n in lengths:
            want = max(want, abs(phi(n)))
        for _, (A,) in _stacked_chunks(space, [creations]):
            na = op_norm(A)
            ratio = op_norm(T.apply_matrix(A)) / np.where(na > 0, na, 1.0)
            attained = _fold(attained, ratio[na > 0])
        report.add("norm_bound_lower[%d]" % si, max(want - attained, 0.0), tol,
                   attained=attained, eigen_max=want)
    return report


def _coefficient_gaps(space: FockSpace, ea: StructuredOperator, elements):
    """Yield per sample of ``ea``, one per element a, the largest entry of its
    blocks on the word pairs (e_m Omega, e_l Omega), (e_j) the module basis
    of a's factor, minus V_m* W_l, with V_m the matrix of b -> e_m b and W_l
    that of b -> (a e_l) b: both are b -> E(e_m* a e_l) b on L2(N)."""
    for s, a in enumerate(elements):
        basis = a.factor.pp_basis()
        # the words of e_0 Omega = Omega and of e_g Omega = (i, g), ascending
        t = space.letters.index((space.amalgam.factors.index(a.factor), 1))
        words = np.append(0, space.appended[t:t + len(basis) - 1, 0])
        on = (ea.samples == s) & np.isin(ea.rows, words) & np.isin(ea.cols, words)
        got = np.zeros((len(words),) * 2 + ea.blocks.shape[1:], dtype=complex)
        rows, cols = np.searchsorted(words, ea.rows[on]), np.searchsorted(words, ea.cols[on])
        got[rows, cols] = ea.blocks[on]
        want = (multiplication_matrix(basis, "left").conj().T
                @ multiplication_matrix([a * e for e in basis], "left"))
        yield np.abs(got.transpose(0, 2, 1, 3).reshape(want.shape) - want).max()


def embedding_suite(space: FockSpace, seed: int = 0) -> VerificationReport:
    """embed is a unital *-homomorphism on each factor (guard band), with the
    right N-valued matrix coefficients against the module basis, at
    tolerance 1e-11.  The sampled pairs (a, b) are checked a chunk at a
    time, as stacks; the coefficients are read off blocks against matrices of
    ``FactorElement`` products, a route independent of ``embed``'s closed form."""
    rng = default_rng([seed, 7])
    report = VerificationReport()
    tol = 1e-11
    factors = space.amalgam.factors
    draws = [(i, fac.random(rng), fac.random(rng)) for i, fac in enumerate(factors)
             for _ in range(3)]
    res_unit = 0.0
    units = [embed(space, [fac.identity() for fac in factors]),
             stack([identity_op(space)] * len(factors))]
    for _, (ones, ids) in _stacked_chunks(space, units):
        res_unit = _fold(res_unit, (ones - ids).columns_upto(space.L_max - 1).block_max())
    res_mult = 0.0
    res_star = 0.0
    res_coef = 0.0

    # the multiplicativity check reads the columns of length <= L - 2
    images = [embed(space, [a for _, a, _ in draws]),
              embed(space, [b for _, _, b in draws]).columns_upto(space.L_max - 2),
              embed(space, [a * b for _, a, b in draws]).columns_upto(space.L_max - 2),
              embed(space, [a.star() for _, a, _ in draws])]
    for sl, (ea, eb, eab, ea_star) in _stacked_chunks(space, images):
        res_mult = _fold(res_mult, (ea @ eb - eab).columns_upto(space.L_max - 2).block_max())
        res_star = _fold(res_star, (ea_star - ea.adjoint()).block_max())
        res_coef = _fold(res_coef, *_coefficient_gaps(space, ea, [a for _, a, _ in draws[sl]]))
    report.add("embedding_unital", res_unit, tol)
    report.add("embedding_multiplicative", res_mult, tol)
    report.add("embedding_star", res_star, tol)
    report.add("embedding_matrix_coefficients", res_coef, tol)
    return report


def word_vacuum_images(space: FockSpace, max_len: int) -> StructuredOperator:
    """The vacuum images u_{g_1} ... u_{g_n} b Omega of the words (g_1, ...,
    g_n) of length <= max_len with the N-basis elements b, as the columns of
    one operator, in ``lambda_span``'s column order.  Grown a length at a
    time by prefix sharing: V_0 = ``lambda_span(space, 0)`` holds the
    columns b Omega, and V_n = sum_gamma embed(u_gamma) @ V_{n-1} @ L*_gamma,
    since u_gamma maps the image of w to that of gamma w."""
    letters = space.letters
    stacked = embed(space, [space.amalgam.factors[i].unitary(g) for i, g in letters])
    embeds = [stacked.select(np.arange(len(letters)) == t) for t in range(len(letters))]
    images = [lambda_span(space, 0)]
    for _ in range(max_len):
        images.append(op_sum(space, [E @ images[-1] @ annihilation(space, letter)
                                     for E, letter in zip(embeds, letters)]))
    return op_sum(space, images, "images")


def spanning_check(space: FockSpace, max_len=None) -> VerificationReport:
    """Vacuum images of basis-letter words with N-basis coefficients
    (``word_vacuum_images``) span the truncated space, so the scaling action
    on words pins the multiplier.  Each image lies on its own word, so the
    rank is a sum of per-word block ranks (``_word_block_rank``)."""
    if max_len is None:
        max_len = space.L_max
    report = VerificationReport()
    expected = int(np.count_nonzero(space.guard_mask(max_len)))
    rank = _word_block_rank(word_vacuum_images(space, max_len))
    report.add("spanning_rank_len%d" % max_len, float(expected - rank), 0.5,
               rank=rank, expected=expected)
    return report
