"""End-to-end verification of the multiplier and its building blocks.

The suites drive the assembled multiplier against its contract: the scaling
action phi(length) on sampled reduced words (products of embedded kernel
letters, ``operators.word_operator``), the case rules on symbolic
generators, the right-module structure, and the completely bounded norm
envelope, certified from the symbol's closed-form pairs.  The embedding
suite checks the coefficients E(e_m* a e_l) on blocks of
``operators.embed``, a route independent of its word maps.

The sampled suites draw all their samples first and build each operator
role of all of them as one stack from arrays of factor indices and
coefficients: ``embed`` takes a factor and a coefficient array per element,
``word_operator`` the arrays of a family of reduced words
(``random_word_arrays``), and ``generator_operators`` a ``Generators``
family of letter indices and coefficients, which the lemma suite's zoo and
the bound suite's creation words build directly.  Each stack is cut to the
columns its checks read.  ``_chunks`` cuts the samples of stacks built
one after another (the theorem suite's word lengths, the operands of its
linearity checks) into consecutive ranges of bounded size
(``CHUNK_ENTRIES``), a range spanning stacks where they fit, so the
multiplier, rho, epsilon, norms and maxima run once per range with bounded
memory.  Every sample gets exactly the numbers it gets on its own, so
neither the ranges nor the cuts change a report.  The suites read phi, psi1
and psi2 off the multiplier's tables ``T.phi`` and ``T.psi1``; only the
class norm and the envelope's pairs read the symbol.  The multiplier
residuals are divided by the symbol's scale (``_symbol_scale``), the T1/T2
component residuals and the envelope's weight identity by the larger of it
and the largest weight of T1 and T2 (``_component_scale``), and the
envelope's other residuals by its bounds.

The rank checks take their spanning families from ``operators``
(``lambda_span``, ``word_vacuum_images``).  Both are block diagonal on
words, so ``_word_block_rank_check`` adds up per-word block ranks, and a
block off the diagonal fails the check.
"""

from __future__ import annotations

import numpy as np
from numpy.random import default_rng  # loaded at import: once, before any fork

from .algebra import multiplication_matrix
from .fock import FockSpace, inner_N
from .operators import (Generators, StructuredOperator, annihilation, apply_weights, build_T,
                        creation, diag, embed, ends_in_factor_op, epsilon_matrix,
                        generator_operators, identity_op, lambda_span, length_at_least_op,
                        length_exactly_op, op_sum, padded, phi_cb_bound, phi_weights,
                        right_annihilation, right_creation, right_mult, rho_matrix, stack,
                        tailed_weights, word_operator, word_vacuum_images)
from .report import VerificationReport
from .sparse import max_column_norm, op_norm, schur_bound
from .symbols import hankel_pairs, norm_C

# a range of samples is at most this large in all (at least one sample), a
# sample's size being the scalar entries a Horner pass can write from its
# entries (``_chunks``), once per copy the pass takes.  At cy3 fock_len 5 the
# lemma suite's generators, the theorem suite's four word lengths and its
# linearity operands then take one pass each; a larger cap raises the peak
# RSS at fock_len 8 (README, "chunks")
CHUNK_ENTRIES = 40960


def _chunks(space: FockSpace, built, copies: int = 1):
    """Yield (slice, stacks) for consecutive ranges of the samples of the
    stack tuples of the iterable ``built`` (one stack per operator role, all
    of one size), the slice numbering the samples across all tuples.  A
    range takes samples while their sizes, each counted ``copies`` times for
    a pass on that many copies of every sample, add up to at most
    ``CHUNK_ENTRIES``, and at least one.  A sample's size is d^2
    min(subtree(r), subtree(c)) per entry on the word pair (r, c), subtree(w)
    the number of words that extend w, w included: rho appends one letter to
    both words of an entry, so this bounds the scalar entries that the entry
    adds to a Horner pass (``apply_weights``).  A range may span tuples, its
    pieces joined by ``stack``: one with room (its size below the cap) is
    held while the next tuple is built, a full one is yielded first.  Each
    stack is cut into its ranges by one ``unstack``."""
    subtree = np.ones(len(space.words), dtype=np.intp)
    for k in range(space.L_max, 0, -1):
        at = np.flatnonzero(space.lengths == k)
        np.add.at(subtree, space.parent[at], subtree[at])
    # the held range's stacks (one per role), its size and its first
    # sample, and the samples taken so far
    held, taken, first, done = None, 0, 0, 0
    for stacks in built:
        n = stacks[0].n_samples
        ends = np.cumsum(np.append(0, copies * space.dim_N ** 2 * sum(
            np.bincount(op.samples, np.minimum(subtree[op.rows], subtree[op.cols]), minlength=n)
            for op in stacks)))
        # the first range goes on with the held one, and takes no sample if
        # that has no room for one; every other range takes at least one
        bounds, room = [0], CHUNK_ENTRIES - taken
        while bounds[-1] < n:
            lo = bounds[-1]
            stop = int(np.searchsorted(ends, ends[lo] + room, side="right")) - 1
            bounds.append(stop if held is not None and len(bounds) == 1 else max(stop, lo + 1))
            room = CHUNK_ENTRIES
        for lo, hi, *piece in zip(bounds, bounds[1:], *(op.unstack(bounds) for op in stacks)):
            if hi > lo:
                held = piece if held is None else [stack(ops) for ops in zip(held, piece)]
            taken, done = taken + ends[hi] - ends[lo], done + hi - lo
            if hi < n or taken >= CHUNK_ENTRIES:
                yield slice(first, done), held
                held, taken, first = None, 0, done
    if held is not None:
        yield slice(first, done), held


def _fold(worst: float, *values) -> float:
    """The running maximum ``worst`` updated with every value; a nan, a
    residual that could not be evaluated, stays nan and fails its check."""
    for v in values:
        worst = float(np.max(np.ravel(v), initial=worst))
    return worst


def _symbol_scale(T) -> float:
    """s = max |phi(n)| for 0 <= n <= 2L+1 (``T.phi``): the multiplier
    residuals are rounding on phi's scale, so they are divided by s, and
    stay absolute (s = 1) where phi vanishes on the truncated space."""
    return float(np.abs(T.phi).max()) or 1.0


def _component_scale(T) -> float:
    """The largest |phi(n)|, |psi1(n)| and weight of T1 and of T2 (1 where
    all vanish): the scale of what the component rules compare, T1(a) and
    T2(a) against psi1 a and psi2 a.  T1 and T2 can be far larger than phi
    (psi1 ~ 1/(1+z) for a tail ratio z near -1), and their rounding is on
    their own scale."""
    tables = (T.phi, T.psi1, T.t1_weights, T.t2_weights)
    return float(max(np.abs(W).max() for W in tables)) or 1.0


def random_word_arrays(rng, space: FockSpace, n: int, count: int) -> tuple:
    """The arrays (factors, letters, coeffs) of ``word_operator`` for
    ``count`` random reduced words of length n, drawn a word at a time: its
    factors, each one other than the factor before it, then a kernel letter
    of each (``random_kernel``), then its n + 1 coefficients."""
    n_factors = len(space.amalgam.factors)
    factors, elements, coeffs = [], [], []
    for _ in range(count):
        word = []
        for j in range(n):
            choices = [i for i in range(n_factors) if not j or i != word[-1]]
            word.append(choices[rng.integers(len(choices))])
        factors += word
        elements += [space.amalgam.factors[i].random_kernel(rng) for i in word]
        coeffs += [space.base.random(rng) for _ in range(n + 1)]
    letters, d = padded(space, elements), space.base.d
    return (np.array(factors, dtype=np.intp).reshape(count, n),
            letters.reshape((count, n) + letters.shape[1:]),
            np.reshape(coeffs, (count, n + 1, d, d)))


def _coefficients(rng, base, k: int, l: int) -> tuple:
    """k + 1 creation and then l annihilation coefficients drawn from rng,
    padded with zeros to the 3 and 2 slots of a row of ``Generators``."""
    draws = [base.random(rng) for _ in range(k + 1 + l)]
    return (np.array(draws[:k + 1] + [base.zero()] * (2 - k)),
            np.array(draws[k + 1:] + [base.zero()] * (2 - l)))


# ---------------------------------------------------------------------------
# suites


def fock_suite(space: FockSpace, seed: int = 0) -> VerificationReport:
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
    report.add("fock_word_orthonormality", worst_onb)
    report.add("fock_inner_right_linear", worst_mod)

    # left and right actions commute; projections commute with the right action
    pairs = [(base.random(rng), base.random(rng)) for _ in range(4)]
    lb = embed(space, np.zeros(len(pairs), dtype=np.intp),
               np.array([bb for bb, _ in pairs])[:, None])
    rc = stack([right_mult(space, cc) for _, cc in pairs])
    report.add("fock_left_right_commute", _fold(0.0, (lb @ rc - rc @ lb).block_max()))

    P = stack([length_at_least_op(space, 1), length_at_least_op(space, 2),
               ends_in_factor_op(space, 0)])
    rb = stack([right_mult(space, base.random(rng))] * P.n_samples)
    report.add("fock_projection_right_commute", _fold(0.0, (P @ rb - rb @ P).block_max()))

    # Q_n = Q_{n+1} + (length exactly n), and D_x = sum_n x(n) (length
    # exactly n) for x(n) = n + 1, a value of its own on every length
    worst = 0.0
    for n in range(space.L_max):
        split = (length_at_least_op(space, n) - length_at_least_op(space, n + 1)
                 - length_exactly_op(space, n))
        worst = _fold(worst, split.block_max())
    x = np.arange(1, space.L_max + 2)
    sectors = op_sum(space, [x[n] * length_exactly_op(space, n) for n in range(len(x))])
    worst = _fold(worst, (diag(space, x) - sectors).block_max())
    report.add("fock_length_projection_split", worst)

    # the length-k spanning families have full rank jointly
    spans = op_sum(space, [lambda_span(space, k) for k in range(space.L_max + 1)])
    report.extend(_word_block_rank_check("fock_lambda_span_rank", spans, space.dim,
                                         dim=space.dim))
    return report


def _word_block_rank_check(name: str, op: StructuredOperator, target: int,
                           **details) -> VerificationReport:
    """The check that the columns of ``op``, a single operator meant to be
    block diagonal on words, have rank ``target``: the summed ranks (above
    1e-10) of its diagonal blocks, one batched SVD.  The residual is
    |target - rank| plus 1 per block off the diagonal, counted in a detail."""
    on = op.rows == op.cols
    rank = int(np.linalg.matrix_rank(op.blocks[on], tol=1e-10).sum())
    off = int(np.count_nonzero(~on))
    report = VerificationReport()
    report.add(name, float(abs(target - rank) + off), rank=rank, **details,
               **({"off_diagonal_blocks": off} if off else {}))
    return report


def adjoint_check(a: StructuredOperator, a_star: StructuredOperator,
                  seed: int = 0) -> VerificationReport:
    """Confirm that ``a_star``, built by its own rule, is the adjoint of ``a``:
    entry by entry against a's conjugate transpose (the largest block of the
    difference, 0 when it has no entries), and against inner products
    <A x, y> = <x, A* y> of four pairs of random unit coordinate arrays
    (``FockSpace.random_array``), so that the pairing residual is rounding
    on the scale of A, whatever the dimension."""
    report = VerificationReport()
    report.add("adjoint_matrix[%s]" % a.name, (a_star - a.adjoint()).block_max()[0])
    rng = default_rng(seed)
    gaps = []
    for _ in range(4):
        x, y = a.space.random_array(rng), a.space.random_array(rng)
        gaps.append(abs(np.vdot((a @ x)[0], y) - np.vdot(x, (a_star @ y)[0])))
    # np.max, unlike max, keeps a nan wherever it is
    report.add("adjoint_pairing[%s]" % a.name, float(np.max(gaps)))
    return report


def operator_suite(space: FockSpace, seed: int = 0) -> VerificationReport:
    """The shifted-weight partition identity and the Phi factorization bound
    on the two random vectors of length 32, adjoint pairs, and the right-module
    property of six building blocks A as the identity A R_b = R_b' A on their
    stack (b' = b, but alpha_g(b) for the covariant R_{gamma*})."""
    rng = default_rng([seed, 2])
    report = VerificationReport()
    vec_len = 32
    # the draws first; skipping the vectors of an old partition check that read
    # no operator keeps every draw after them as it was
    rng.standard_normal(2 * 20 * vec_len)
    x = rng.standard_normal(vec_len) + 1j * rng.standard_normal(vec_len)
    b = space.base.random(rng)
    xv = rng.standard_normal(vec_len) + 1j * rng.standard_normal(vec_len)
    yv = rng.standard_normal(vec_len) + 1j * rng.standard_normal(vec_len)

    # the row sums of the Phi factorization, Phi1_{v,v}(Id) for both vectors
    # in one call, whose norms phi_cb_bound takes
    ident = identity_op(space)
    sums = apply_weights(space, np.array([phi_weights(space, 1, v, v) for v in (xv, yv)]),
                         stack([ident] * 2), np.arange(2))
    diff = sums - stack([float(np.vdot(v, v).real) * ident for v in (xv, yv)])
    report.add("partition_identity", _fold(0.0, diff.block_max()), samples=2)

    # each adjoint is built by its own rule, not as a conjugate transpose
    for op, op_star in [(creation(space, 0), annihilation(space, 0)),
                        (right_creation(space, 0), right_annihilation(space, 0)),
                        (diag(space, x[1:]), diag(space, np.conj(x[1:])))]:
        report.extend(adjoint_check(op, op_star, seed=seed))

    # everything in sight commutes with the right action, except R_{gamma*},
    # which is covariant: R_{gamma*}(xi b) = R_{gamma*}(xi) alpha_g(b)
    rb = right_mult(space, b)
    i, g = space.letters[0]
    rb_twisted = right_mult(space, space.amalgam.factors[i].alpha(g, b))
    rho_ident = rho_matrix(space, ident)
    ops = stack([creation(space, 0), annihilation(space, 0),
                 right_creation(space, 0), diag(space, x[:space.L_max + 2]),
                 ends_in_factor_op(space, 0), rho_ident])
    residual = ops @ stack([rb] * ops.n_samples) - stack([rb, rb, rb_twisted, rb, rb, rb]) @ ops
    report.add("right_module_blocks", _fold(0.0, residual.block_max()))

    # rho(Id) = Q_1 and epsilon(Id) = Q_1 on the truncated space
    q1 = length_at_least_op(space, 1)
    report.add("rho_of_identity", (rho_ident - q1).block_max()[0])
    report.add("epsilon_of_identity", (epsilon_matrix(space, ident) - q1).block_max()[0])

    # the factorization bound for Phi never exceeds the vector norms
    bound = float(phi_cb_bound(sums)[0])
    cap = float(np.linalg.norm(xv) * np.linalg.norm(yv))
    report.add("phi_factorization_bound", max(bound - cap, 0.0), bound=bound, cap=cap)
    return report


def _generator_zoo(space: FockSpace, seed: int) -> Generators:
    """Deterministic family of generators covering all k, l <= 2 and both
    cases: per (k, l), every pair of letter strings without coefficients,
    then one random pair with random coefficients."""
    rng = default_rng([seed, 3])
    strings = [space.words[space.lengths == n, :2] for n in range(3)]
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


def lemma_suite(space: FockSpace, symbols, seed: int = 0) -> VerificationReport:
    """Scaling rules on symbolic generators, compared as matrices on the
    guard band: rho and rho^2, epsilon case rules, both Phi eigen-formulas,
    and the component / total rules of every supplied multiplier.  The
    generators are checked a chunk at a time, as one stack."""
    rng = default_rng([seed, 4])
    report = VerificationReport()
    gens = _generator_zoo(space, seed)
    mults = [(T, _symbol_scale(T), _component_scale(T))
             for T in (build_T(space, phi) for phi in symbols)]

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
    wants = [(T.psi1[k + l], T.psi1[k + l - 2 * case2 + 1], T.phi[k + l - case2])
             for T, _, _ in mults]
    # every check reads the columns of length <= g only, and a column of
    # rho(a), eps(a) or T(a) reads the same or a shorter column of a
    A = generator_operators(space, gens)
    for sl, (a,) in _chunks(space, [(A.columns_upto(g),)], copies=len(weight_sets)):
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
        images = list(images.unstack(a.n_samples * np.arange(len(weight_sets) + 1)))

        # Phi eigen-formulas
        for i in range(2):
            res_phi[i] = _fold(res_phi[i],
                               (images[i] - scalars[sl, i] * a).columns_upto(g[sl]).block_max())

        # multiplier rules
        for j, ((T, s, s12), (want1, want2, want)) in enumerate(zip(mults, wants)):
            t1, t2, total = images[2 + 3 * j:5 + 3 * j]
            res_t12 = _fold(res_t12,
                            (t1 - want1[sl] * a).columns_upto(g[sl]).block_max() / s12,
                            (t2 - want2[sl] * a).columns_upto(g[sl]).block_max() / s12)
            res_t = _fold(res_t, (total - want[sl] * a).columns_upto(g[sl]).block_max() / s)

    report.add("rho_power_sector_rule", res_rho, generators=len(gens.cre))
    report.add("epsilon_case_rules", res_eps)
    report.add("phi1_eigenvalue_rule", res_phi[0])
    report.add("phi2_eigenvalue_rule", res_phi[1])
    report.add("t1_t2_component_rules", res_t12, symbols=len(mults))
    report.add("multiplier_case_rules", res_t, symbols=len(mults))
    return report


def main_theorem_suite(space: FockSpace, symbols, seed: int = 0, words_per_length: int = 10,
                       max_len=None) -> VerificationReport:
    """The multiplier action on sampled reduced words: T(A) = phi(n) A on the
    guard band, exact vacuum coefficients, linearity, and the right-module
    property of T.  The words are built a length at a time and checked a
    range of samples at a time, as one stack; a range may span lengths."""
    rng = default_rng([seed, 5])
    report = VerificationReport()
    if max_len is None:
        max_len = min(3, space.L_max - 2)
    mults = [(T, _symbol_scale(T)) for T in (build_T(space, phi) for phi in symbols)]
    words = {n: random_word_arrays(rng, space, n, words_per_length)
             for n in range(0, max_len + 1)}

    res_action = 0.0
    res_vacuum = 0.0
    # the checks read the guard columns of each word (length n: the columns
    # of length <= L - n) only, and a column of T(A) reads the same or a
    # shorter column of A.  The lengths are built one at a time, as a range
    # of samples makes room for them
    lengths = np.repeat(list(words), words_per_length)
    built = ((word_operator(space, *sampled, space.L_max - n),) for n, sampled in words.items())
    for sl, (A,) in _chunks(space, built):
        n, guard = lengths[sl], space.L_max - lengths[sl]
        # the residual is an upper bound for ||d|| over a lower bound for
        # ||A_guard||, each one pass over the entries, so it is never
        # smaller than ||d|| / ||A_guard||
        scale = np.maximum(max_column_norm(A.columns_upto(guard)), 1e-30)
        for T, s in mults:
            diff = T.apply_matrix(A) - T.phi[n] * A
            d = diff.columns_upto(guard)
            res_action = _fold(res_action, schur_bound(d) / scale / s)
            res_vacuum = _fold(res_vacuum, diff.columns_upto(0).block_max()
                               / np.maximum(A.columns_upto(0).block_max(), 1e-30) / s)
    report.add("theorem_action_on_words", res_action, lengths=max_len,
               per_length=words_per_length, symbols=len(mults))
    report.add("theorem_vacuum_coefficients", res_vacuum)

    # linearity and the right-module property of T (right action = composing
    # with a left multiplication, the N-copy inside the algebra): T applied to
    # A, al A + be B, B and A lam as one stack, a chunk at a time
    T0, s = mults[0]
    A = word_operator(space, *(x[:1] for x in words[min(1, max_len)]))
    B = word_operator(space, *(x[:1] for x in words[0]))
    al, be = complex(rng.standard_normal()), complex(rng.standard_normal())
    lam = embed(space, [0], space.base.random(rng)[None, None])
    images = []
    for _, (chunk,) in _chunks(space, [(A,), (al * A + be * B,), (B,), (A @ lam,)]):
        images += T0.apply_matrix(chunk).unstack(range(chunk.n_samples + 1))
    TA, T_mixed, TB, T_lam = images
    diff = T_mixed - al * TA - be * TB
    norm_a = max(op_norm(A)[0], 1.0)
    res_lin = op_norm(diff)[0] / norm_a / s
    diff = T_lam - TA @ lam
    res_mod = op_norm(diff.columns_upto(space.L_max - max(1, max_len)))[0] / norm_a / s
    report.add("multiplier_linearity", res_lin)
    report.add("multiplier_right_module", res_mod)
    return report


def _envelope_chain(space: FockSpace, T, phi, c_norm: float) -> tuple:
    """(residual, certified bound, pair count) of the paper's chain
    ||T||_cb <= ||phi||_C from the symbol's closed-form pairs
    (``hankel_pairs``), Phi1 blocks for h's and Phi2 blocks for k's: the
    largest of (a) T's sets T1, T2 and T against the pairs' summed
    ``tailed_weights``, plus c Id for T, over ``_component_scale``, (b) the
    gap between the pairs' summed mass plus |c| and ||phi||_C and (c) the
    excess over ||phi||_C of the certified bound, the pairs'
    ``phi_cb_bound``s (their row sums applied on the space) plus |c|; (b)
    and (c) relative to ||phi||_C where it is nonzero.  A non-finite class
    norm, as from a non-finite C, gives inf."""
    if not np.isfinite(c_norm):
        return np.inf, np.inf, 0
    pairs = [(v, s, x, y) for v in (1, 2) for s, x, y in hankel_pairs(phi, v - 1)]
    sets = np.zeros((3, 3, space.L_max + 1, space.L_max + 1), dtype=complex)
    for v, _, x, y in pairs:
        sets[v - 1] += tailed_weights(space, v, x, y)
    sets[2] = sets[0] + sets[1]
    sets[2, 0] += phi.limit
    gaps = np.abs(np.array([T.t1_weights, T.t2_weights, T.weights]) - sets) / _component_scale(T)
    mass = abs(phi.limit) + sum(pair[1] for pair in pairs)
    certified = abs(phi.limit)
    if pairs:
        # the row sums Phi_{x,x}(Id) of every pair, then the Phi_{y,y}(Id)
        rows = np.array([tailed_weights(space, pair[0], pair[side], pair[side])
                         for side in (2, 3) for pair in pairs])
        sums = apply_weights(space, rows, stack([identity_op(space)] * len(rows)),
                             np.arange(len(rows)))
        certified += float(phi_cb_bound(sums).sum())
    scale = c_norm or 1.0
    return (_fold(0.0, gaps, abs(mass - c_norm) / scale, max(certified - c_norm, 0.0) / scale),
            certified, len(pairs))


def norm_bound_suite(space: FockSpace, symbols) -> VerificationReport:
    """The two-sided envelope for the multiplier norm.

    Upper: the paper's chain ||T||_cb <= ||phi||_C, certified from the
    symbol's closed-form pairs (``_envelope_chain``).  Lower: the scaling
    action attains |phi(n)| on pure creation words, their norms exact SVDs
    of the support components (``op_norm``).
    """
    report = VerificationReport()
    # the first creation word of every length up to 3
    lengths = range(0, min(3, space.L_max) + 1)
    cre = space.words[np.searchsorted(space.lengths, lengths)]
    creations = generator_operators(space, Generators(cre, cre[:, :0], np.full(len(cre), -1)))
    for si, phi in enumerate(symbols):
        T = build_T(space, phi)
        c_norm = norm_C(phi)
        upper, certified, pairs = _envelope_chain(space, T, phi, c_norm)
        report.add("norm_bound_upper[%d]" % si, upper, class_c_norm=c_norm,
                   certified=certified, pairs=pairs)

        attained = 0.0
        want = float(np.abs(T.phi[:len(lengths)]).max())
        for _, (A,) in _chunks(space, [(creations,)]):
            na = op_norm(A)
            ratio = op_norm(T.apply_matrix(A)) / np.where(na > 0, na, 1.0)
            attained = _fold(attained, ratio[na > 0])
        report.add("norm_bound_lower[%d]" % si, max(want - attained, 0.0) / (want or 1.0),
                   attained=attained, eigen_max=want)
    return report


def _coefficient_gaps(space: FockSpace, ea: StructuredOperator, draws, adjoints: list):
    """Yield per sample of ``ea``, one per draw (i, a, _) of factor i, the
    largest entry of its blocks on the word pairs (e_m Omega, e_l Omega),
    (e_j) the module basis of factor i, minus V_m* W_l, with V_m the matrix
    of b -> e_m b and W_l that of b -> (a e_l) b: both are b -> E(e_m* a
    e_l) b on L2(N).  The V_m* of factor i, stacked, are ``adjoints[i]``."""
    for s, (i, a, _) in enumerate(draws):
        f = space.amalgam.factors[i]
        # the words of e_0 Omega = Omega and of e_g Omega = (i, g), ascending
        at = np.flatnonzero(space.letter_factors == i)
        words = np.append(0, space.appended[at, 0])
        on = (ea.samples == s) & np.isin(ea.rows, words) & np.isin(ea.cols, words)
        got = np.zeros((len(words),) * 2 + ea.blocks.shape[1:], dtype=complex)
        rows, cols = np.searchsorted(words, ea.rows[on]), np.searchsorted(words, ea.cols[on])
        got[rows, cols] = ea.blocks[on]
        want = adjoints[i] @ multiplication_matrix(f, [f.mul(a, e) for e in f.pp_basis()], "left")
        yield np.abs(got.transpose(0, 2, 1, 3).reshape(want.shape) - want).max()


def embedding_suite(space: FockSpace, seed: int = 0) -> VerificationReport:
    """embed is a unital *-homomorphism on each factor (guard band), with the
    right N-valued matrix coefficients against the module basis.  The
    sampled pairs (a, b) are checked a chunk at a time, as stacks; the
    coefficients are read off blocks against matrices of ``CrossedFactor.mul``
    products, a route independent of ``embed``'s word maps."""
    rng = default_rng([seed, 7])
    report = VerificationReport()
    factors = space.amalgam.factors
    draws = [(i, fac.random(rng), fac.random(rng)) for i, fac in enumerate(factors)
             for _ in range(3)]
    res_unit = 0.0
    units = [embed(space, range(len(factors)), padded(space, [f.identity() for f in factors])),
             stack([identity_op(space)] * len(factors))]
    for _, (ones, ids) in _chunks(space, [units]):
        res_unit = _fold(res_unit, (ones - ids).columns_upto(space.L_max - 1).block_max())
    res_mult = 0.0
    res_star = 0.0
    res_coef = 0.0

    # the multiplicativity check reads the columns of length <= L - 2
    L, drawn = space.L_max, [i for i, _, _ in draws]
    images = [embed(space, drawn, padded(space, elements)).columns_upto(max_len)
              for elements, max_len in (([a for _, a, _ in draws], L),
                                        ([b for _, _, b in draws], L - 2),
                                        ([factors[i].mul(a, b) for i, a, b in draws], L - 2),
                                        ([factors[i].star(a) for i, a, _ in draws], L))]
    # per factor the V_m* of _coefficient_gaps, built once
    adjoints = [multiplication_matrix(f, f.pp_basis(), "left").conj().T for f in factors]
    for sl, (ea, eb, eab, ea_star) in _chunks(space, [images]):
        res_mult = _fold(res_mult, (ea @ eb - eab).columns_upto(space.L_max - 2).block_max())
        res_star = _fold(res_star, (ea_star - ea.adjoint()).block_max())
        res_coef = _fold(res_coef, *_coefficient_gaps(space, ea, draws[sl], adjoints))
    report.add("embedding_unital", res_unit)
    report.add("embedding_multiplicative", res_mult)
    report.add("embedding_star", res_star)
    report.add("embedding_matrix_coefficients", res_coef)
    return report


def spanning_check(space: FockSpace, max_len=None) -> VerificationReport:
    """Vacuum images of basis-letter words with N-basis coefficients
    (``word_vacuum_images``) span the truncated space, so the scaling action
    on words pins the multiplier.  Each image lies on its own word, so the
    rank is a sum of per-word block ranks (``_word_block_rank_check``)."""
    if max_len is None:
        max_len = space.L_max
    expected = int(np.count_nonzero(space.guard_mask(max_len)))
    return _word_block_rank_check("spanning_rank_len%d" % max_len,
                                  word_vacuum_images(space, max_len), expected,
                                  expected=expected)
