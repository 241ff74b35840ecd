"""Word-level rules for the Fock-space building blocks, kept as test oracles.

The package holds a Fock vector as its coordinate array and builds every
operator as a matrix scattered from word-index arrays.  The block form is
kept here: a :class:`~radmul.fock.FockVector` holds one d x d right
coefficient per word (``vector`` wraps given blocks, ``word_vector`` builds
w b), ``coeffs`` lists its nonzero coefficients by word, ``to_array`` and
``from_array`` map it to and from coordinates (each coefficient over
sqrt(d)), ``block_inner_N`` is the N-valued inner product sum_w c_w* d_w
that ``fock.inner_N`` reads off coordinates, and ``apply`` applies sample 0
of an operator to a vector.  The rules here act on one vector at a time,
word by word, as the definitions read; ``column_matrix`` turns a rule into
the matrix it defines, column by column.  ``rho_dense``,
``epsilon_dense`` and ``tower_dense`` are rho, epsilon and the tower
[A, rho(A), ..., rho^L(A), eps(A), ..., rho^{L-1}(eps(A))] on dense
matrices, gathered and scattered block by block; ``expand`` lays a weight
set (W0, P1, P2) out as one table per tower member, and
``weighted_sum_dense`` weights the tower with those tables, each expanded
to a full matrix, and adds it up in tower order: the route
``operators.apply_weights`` replaced.  ``phi_block_matrix`` is one Phi
block.  ``as_op`` turns a dense matrix into the operator the package
functions take.

``embed_by_products`` and ``lemma_suite_per_generator`` are the sample-by-
sample routes the package replaced: the factor embedding with coefficients
from ``FactorElement`` products, and the lemma suite with one generator
operator at a time on the dense route; ``theorem_suite_per_word`` is the
main theorem suite with one whole word operator at a time.  ``generator_chain``,
``embed_per_element`` and ``word_by_products`` build one generator, one
embedding and one word operator from single operators (``op_product``),
the routes the package's stacked constructors replaced.
:class:`GeneratorWord` is a generator word as letter tuples and
coefficient tuples, the object form that ``operators.Generators``
replaced; ``family`` and ``generator_words`` convert between the two
forms, and ``generator_operators_tiled`` is the route that followed every
generator from every column word (``chain``) before the package seeded
each group with the columns where it acts.  ``partition_identity_residual``
is the scalar shadow of the partition that ``operators.partition_sum``
sums as operators.
``embed_by_term_loop`` is the factor embedding with one Python iteration
per (j, k) term, on the per-term words of ``embed_terms_by_pair``, and
``product_by_loop`` the crossed-product product one left coefficient at a
time: the loops ``verify.embed`` and ``FactorElement.__mul__`` replaced.
``psi_via_factors`` recovers psi1 and psi2 from the rank-one pairs of the
truncated Hankel matrices.  ``word_vacuum_images_dense`` and
``lambda_span_dense`` are the spanning families as one dense column at a
time, and ``dense_rank`` is the rank of such columns stacked whole, the
routes the rank checks replaced.

``left_mul`` and ``right_mul`` are the N-actions on a whole vector, and
``pp_coords`` the coordinates of a crossed-product element by traces
against the orthonormal basis ``onb_elements``, the route
``algebra._coords`` replaced.  ``pp_residuals_by_products`` and
``coefficient_gaps_by_vectors`` are the module-basis checks pair by pair,
from ``FactorElement`` products and Fock vectors, the routes the matrix
identities of ``verify_pp_basis`` and ``verify._coefficient_gaps``
replaced.

The rest are helpers only the tests call: ``basis_fock_vector``,
``is_zero``, ``canonicalize`` (a formal tensor b_0 u_{g_1} b_1 ... u_{g_k}
b_k pushed to its one right coefficient), ``zero_op``,
``start_complement_op``, ``generator`` (one generator word as a single
operator), ``random_word`` (``verify.random_generator_word``'s draw as a
``GeneratorWord``), ``worst_residual`` and ``failed_names``.
"""

from dataclasses import dataclass

import numpy as np

from radmul.algebra import FactorElement, _coords, cond_exp
from radmul.fock import FockVector, Word
from radmul.operators import (Generators, StructuredOperator, _diag_op, _letter, annihilation,
                              apply_weights, build_T, creation, generator_operators,
                              identity_op, left_mult, length_at_least_op, lmul_blocks, op_sum,
                              phi_weights)
from radmul.report import EIGEN_TOL, VerificationReport
from radmul.symbols import HankelFactorization
from radmul.sparse import coalesce, max_column_norm, op_norm, schur_bound
from radmul.verify import (_fold, _generator_zoo, _symbol_scale, embed,
                           random_generator_word, random_reduced_word)


def vector(space, blocks):
    """The vector of the space holding ``blocks`` as they are."""
    vec = FockVector.__new__(FockVector)
    vec.space, vec.blocks = space, blocks
    return vec


def word_vector(space, word, b=None):
    """The word vector w b (b = 1 by default)."""
    coeff = space.base.identity() if b is None else space.base.element(b)
    return FockVector(space, {word: coeff})


def coeffs(vec):
    """The nonzero coefficients by word, in basis order."""
    nonzero = np.flatnonzero(vec.blocks.any(axis=(1, 2)))
    return {vec.space.words[j]: vec.blocks[j] for j in nonzero}


def to_array(vec):
    """The coordinate array of a vector: each coefficient over sqrt(d)."""
    return vec.blocks.reshape(-1) / np.sqrt(vec.space.base.d)


def from_array(space, arr):
    """The vector of a coordinate array: each d x d block times sqrt(d)."""
    d = space.base.d
    return vector(space, np.asarray(arr, dtype=complex).reshape(len(space.words), d, d)
                  * np.sqrt(d))


def block_inner_N(u, v):
    """N-valued inner product sum_w c_w* d_w of two vectors, conjugate-linear
    in u, added one word at a time in basis order."""
    terms = u.blocks.conj().transpose(0, 2, 1) @ v.blocks
    return np.cumsum(terms, axis=0)[-1]


def apply(op, vec):
    """Sample 0 of an operator applied to a vector, through its coordinates."""
    return from_array(vec.space, (op @ to_array(vec))[0])


def basis_fock_vector(space, idx):
    """The scalar basis vector idx: a word with one N basis element."""
    w = space.words[idx // space.dim_N]
    return FockVector(space, {w: space.base.onb()[idx % space.dim_N]})


def is_zero(vec, tol=0.0):
    return bool(np.abs(vec.blocks).max() <= tol)


def canonicalize(space, letters, coeffs=None):
    """Collapse a formal tensor b_0 u_{g_1} b_1 ... u_{g_k} b_k to canonical form.

    All interior and left coefficients get pushed to the single right slot.
    Words beyond the truncation give the zero vector; a same-factor
    adjacency raises.
    """
    letters = [tuple(l) for l in letters]
    if coeffs is None:
        coeffs = [space.base.identity()] * (len(letters) + 1)
    if len(coeffs) != len(letters) + 1:
        raise ValueError("need one more coefficient than letters")
    word = Word(tuple(letters))  # adjacency validation happens here
    if len(word) > space.L_max:
        return FockVector(space)
    am = space.amalgam
    acc = space.base.element(coeffs[0])
    for letter, right in zip(letters, coeffs[1:]):
        acc = am.push(acc, letter) @ space.base.element(right)
    return FockVector(space, {word: acc})


def zero_op(space):
    k = space.dim_N
    return StructuredOperator(space, [], [], np.zeros((0, k, k)), name="0")


def start_complement_op(space, i):
    """Projection onto the vacuum plus words not starting in factor i: the
    j = 0 slot of the factor embedding, where e_0 = 1 neither creates nor
    annihilates."""
    return _diag_op(space, space.first_factors != i, "P[start!=%d]" % i)


@dataclass(frozen=True)
class GeneratorWord:
    """b_0 L_{xi_1} b_1 ... L_{xi_k} b_k  L*-string  with interleaved coefficients.

    ``cre_letters`` lists xi_1..xi_k outside-in (xi_1 is applied last).
    ``ann_letters`` lists eta_1..eta_l in the order they consume the
    argument word's letters: eta_1 strips the leading letter first, and
    eta_l -- the last entry -- acts adjacent to the final creation letter
    L_{xi_k}.  ``ann_coeffs[j]`` left-multiplies right before eta_j strips.
    Empty coefficient tuples mean identities.
    """

    cre_letters: tuple = ()
    ann_letters: tuple = ()
    cre_coeffs: tuple = ()  # (b_0, ..., b_k)
    ann_coeffs: tuple = ()  # (bt_1, ..., bt_l)

    @property
    def k(self) -> int:
        return len(self.cre_letters)

    @property
    def l(self) -> int:
        return len(self.ann_letters)

    @property
    def case(self) -> int:
        """2 when both strings are nonempty and xi_k and eta_l share a factor, else 1."""
        if self.k and self.l and self.cre_letters[-1][0] == self.ann_letters[-1][0]:
            return 2
        return 1


def family(space, gws):
    """The array form (``Generators``) of a list of ``GeneratorWord``s; a
    word has coefficients when it has creation coefficients, and then
    annihilation coefficients too, if it has annihilation letters."""
    index = {letter: t for t, letter in enumerate(space.letters)}
    width = max([2] + [max(gw.k, gw.l) for gw in gws])

    def letters(seq):
        return [index[tuple(x)] for x in seq] + [-1] * (width - len(seq))

    cre = np.array([letters(gw.cre_letters) for gw in gws], dtype=np.intp).reshape(-1, width)
    ann = np.array([letters(gw.ann_letters) for gw in gws], dtype=np.intp).reshape(-1, width)
    coeffed = [t for t, gw in enumerate(gws) if gw.cre_coeffs]
    rows = np.full(len(gws), -1)
    rows[coeffed] = np.arange(len(coeffed))
    d = space.base.d
    b = np.zeros((len(coeffed), width + 1, d, d), dtype=complex)
    bt = np.zeros((len(coeffed), width, d, d), dtype=complex)
    for r, t in enumerate(coeffed):
        gw = gws[t]
        assert len(gw.ann_coeffs) == gw.l, "coefficients on both strings or on neither"
        for j, c in enumerate(gw.cre_coeffs):
            b[r, j] = space.base.element(c)
        for j, c in enumerate(gw.ann_coeffs):
            bt[r, j] = space.base.element(c)
    return Generators(cre, ann, rows, b, bt)


def generator_words(space, gens):
    """The ``GeneratorWord``s of an array family, in order."""
    out = []
    for t in range(len(gens.cre)):
        k, l, r = gens.k[t], gens.l[t], gens.coeff_rows[t]
        coeffs = ((tuple(gens.cre_coeffs[r, :k + 1]), tuple(gens.ann_coeffs[r, :l])) if r >= 0
                  else ((), ()))
        out.append(GeneratorWord(tuple(space.letters[x] for x in gens.cre[t, :k]),
                                 tuple(space.letters[x] for x in gens.ann[t, :l]), *coeffs))
    return out


def random_word(rng, space, k, l):
    """``verify.random_generator_word``'s draw as a ``GeneratorWord``."""
    draw = random_generator_word(rng, space, k, l)
    cre, ann, b, bt = (np.array([x]) for x in draw)
    return generator_words(space, Generators(cre, ann, np.zeros(1, dtype=np.intp), b, bt))[0]


def generator(space, gw):
    """One generator word as a stack of one."""
    return generator_operators(space, family(space, [gw])).renamed(
        "gen(k=%d,l=%d)" % (gw.k, gw.l))


def chain(space, gw):
    """gw's factors right to left: ("L", letter index), ("L*", letter index)
    or ("lmul", coefficient), absent coefficients left out."""
    out = []
    for j in range(gw.l):
        if gw.ann_coeffs:
            out.append(("lmul", gw.ann_coeffs[j]))
        out.append(("L*", _letter(space, gw.ann_letters[j])))
    if gw.cre_coeffs:
        out.append(("lmul", gw.cre_coeffs[gw.k]))
    for j in reversed(range(gw.k)):
        out.append(("L", _letter(space, gw.cre_letters[j])))
        if gw.cre_coeffs:
            out.append(("lmul", gw.cre_coeffs[j]))
    return out


def generator_operators_tiled(space, gens):
    """``GeneratorWord``s as one stack, the route that tiles every generator
    over every column word: generators whose chains have the same kinds of
    factors follow all the column words through the chain together, right
    to left, and a letter step drops the columns where it is undefined."""
    n = len(space.words)
    chains = [chain(space, gw) for gw in gens]
    groups = {}
    for t, ch in enumerate(chains):
        groups.setdefault(tuple(kind for kind, _ in ch), []).append(t)
    k = space.dim_N
    parts = [(np.zeros(0, dtype=np.intp),) * 3 + (np.zeros((0, k, k)),)]
    for kinds, ids in groups.items():
        local = np.repeat(np.arange(len(ids)), n)
        cols = np.tile(np.arange(n), len(ids))
        rows, blocks = cols, None
        for p, kind in enumerate(kinds):
            values = [chains[t][p][1] for t in ids]
            if kind != "lmul":
                t = np.array(values)[local]
                rows = (space.prepended if kind == "L" else space.stripped)[t, rows]
                keep = np.flatnonzero(rows >= 0)
                local, rows, cols = local[keep], rows[keep], cols[keep]
                blocks = None if blocks is None else blocks[keep]
            else:
                coeffs = np.array([space.base.element(b) for b in values], dtype=complex)
                lmul = lmul_blocks(space, coeffs[local], rows)
                blocks = lmul if blocks is None else lmul @ blocks
        if blocks is None:
            blocks = np.broadcast_to(np.eye(k), (rows.size, k, k))
        parts.append((np.array(ids)[local], rows, cols, blocks))
    samples, rows, cols, blocks = (np.concatenate(x) for x in zip(*parts))
    return StructuredOperator(space, rows, cols, blocks, "gen(stack)", samples, len(gens))


def partition_identity_residual(space, x):
    """Scalar shadow of the shifted-weight partition: for every admissible
    length k, sum_{n>=0} |x(k+n)|^2 + sum_{n=1}^{k} |x(k-n)|^2 = ||x||^2."""
    x = np.asarray(x, dtype=complex).ravel()
    target = float(np.vdot(x, x).real)
    worst = 0.0
    for k in range(space.L_max + 1):
        total = sum(abs(x[k + n]) ** 2 for n in range(len(x) - k))
        total += sum(abs(x[k - n]) ** 2 for n in range(1, k + 1))
        worst = max(worst, abs(total - target))
    return worst


def worst_residual(report):
    return max((c.max_residual for c in report.checks), default=0.0)


def failed_names(report):
    return [c.name for c in report.checks if c.status == "fail"]


def column_matrix(space, rule):
    """Matrix of a vector rule, one basis vector per column."""
    cols = [to_array(rule(basis_fock_vector(space, i))) for i in range(space.dim)]
    return np.stack(cols, axis=1)


def prepend(space, letter):
    """L_gamma: prepend the letter; zero against a same-factor start or overflow."""
    def rule(vec):
        return FockVector(space, {Word((letter,) + w.letters): c for w, c in coeffs(vec).items()
                                  if len(w) < space.L_max and w.first_factor != letter[0]})
    return rule


def strip_first(space, letter):
    """L*_gamma: strip a matching first letter."""
    def rule(vec):
        return FockVector(space, {w.drop_first(): c for w, c in coeffs(vec).items()
                                  if w.letters and w.letters[0] == letter})
    return rule


def append_star(space, letter):
    """R_{gamma*}: append gamma* = (i, g^{-1}) and twist the coefficient by alpha_g."""
    i, g = letter
    fac = space.amalgam.factors[i]
    appended = (i, fac.group.inv(g))

    def rule(vec):
        return FockVector(space, {w.append(appended): fac.alpha(g, c)
                                  for w, c in coeffs(vec).items()
                                  if len(w) < space.L_max and w.last_factor != i})
    return rule


def strip_star(space, letter):
    """R*_{gamma*}: strip a final gamma* and twist the coefficient by alpha_{g^{-1}}."""
    i, g = letter
    fac = space.amalgam.factors[i]
    gi = fac.group.inv(g)

    def rule(vec):
        return FockVector(space, {w.drop_last(): fac.alpha(gi, c) for w, c in coeffs(vec).items()
                                  if w.letters and w.letters[-1] == (i, gi)})
    return rule


def left_action(b):
    """Left N-action: push b through every letter onto the right coefficient,
    one letter at a time."""
    def rule(vec):
        space = vec.space
        out = {}
        for w, c in coeffs(vec).items():
            pushed = space.base.element(b)
            for letter in w.letters:
                pushed = space.amalgam.push(pushed, letter)
            out[w] = pushed @ c
        return FockVector(space, out)
    return rule


def left_mul(vec, b):
    """Left N-action on a whole vector: b pushed through the letters of w is
    U_w b U_w*."""
    U = vec.space.push_unitaries
    pushed = U @ vec.space.base.element(b) @ U.conj().transpose(0, 2, 1)
    return vector(vec.space, pushed @ vec.blocks)


def right_mul(vec, b):
    """Right N-action on a whole vector: every coefficient times b."""
    return vector(vec.space, vec.blocks @ vec.space.base.element(b))


def right_action(b):
    return lambda vec: right_mul(vec, b)


def onb_elements(factor):
    """Orthonormal basis of L2(M_i, tau_i): {b u_g : b in onb(N), g in G}."""
    return [factor._element(g, b) for g in range(factor.group.order)
            for b in factor.base.onb()]


def pp_coords(x):
    """The coordinates tau((b u_g)* x) of a crossed-product element in the
    orthonormal basis ``onb_elements``, one crossed-product product per
    basis element."""
    return np.array([(e.star() * x).trace() for e in onb_elements(x.factor)], dtype=complex)


def pp_residuals_by_products(factor, basis):
    """The four residuals of ``verify_pp_basis`` by name, pair by pair from
    ``FactorElement`` products: E(e_j* e_k) for every pair, the matrix of
    y -> sum_j e_j E(e_j* y) on ``onb_elements``, and sum_j E(x e_j) e_j*
    for every basis element x, read on coefficients."""
    eye = factor.base.identity()
    ortho = normal = 0.0
    for j, ej in enumerate(basis):
        for k, ek in enumerate(basis):
            val = cond_exp(ej.star() * ek)
            if j == k:
                normal = max(normal, float(np.abs(val - eye).max()))
            else:
                ortho = max(ortho, float(np.abs(val).max()))
    onb = onb_elements(factor)
    total = np.zeros((len(onb), len(onb)), dtype=complex)
    for ej in basis:
        total += np.stack([_coords(ej * factor.from_base(cond_exp(ej.star() * y)))
                           for y in onb], axis=1)
    expansion = 0.0
    for x in onb:
        rec = 0 * x
        for ej in basis:
            rec = rec + factor.from_base(cond_exp(x * ej)) * ej.star()
        expansion = max(expansion, float(np.abs((rec - x).coeffs).max()))
    return {"pp_orthogonality": ortho, "pp_normalization": normal,
            "pp_partition_of_unity": float(np.abs(total - np.eye(len(onb))).max()),
            "pp_expansion": expansion}


def coefficient_gaps_by_vectors(space, ea, elements):
    """Per sample of ``ea``, one per element a, the largest entry of
    <e_m Omega, ea e_l Omega>_N - E(e_m* a e_l) over the module basis (e_j)
    of a's factor, on Fock vectors: ea applied to the word vector of e_l,
    its N-valued inner product with that of e_m, and the coefficient from
    ``FactorElement`` products, pair by pair."""
    gaps = []
    for s, a in enumerate(elements):
        i = space.amalgam.factors.index(a.factor)
        basis = a.factor.pp_basis()
        vectors = [word_vector(space, Word(((i, g),) if g else ())) for g in range(len(basis))]
        gap = 0.0
        for el, el_vec in zip(basis, vectors):
            ael = from_array(space, (ea @ to_array(el_vec))[s])
            for em, em_vec in zip(basis, vectors):
                want = cond_exp(em.star() * a * el)
                gap = max(gap, float(np.abs(block_inner_N(em_vec, ael) - want).max()))
        gaps.append(gap)
    return np.array(gaps)


def expand(W):
    """The weight set W = (W0, P1, P2) as the (2L+1, L+1, L+1) tables of the
    tower members, by row and column word length: W0 on A, P1[a-n, b-n] on
    rho^n(A) and P2[a-n+1, b-n+1] on rho^{n-1}(eps(A)) between lengths
    a, b >= n, so that every entry keeps the weight of the lengths it had
    before the shifts."""
    L = W.shape[-1] - 1
    out = np.zeros((2 * L + 1, L + 1, L + 1), dtype=complex)
    out[0] = W[0]
    for n in range(1, L + 1):
        out[n, n:, n:] = W[1, :L + 1 - n, :L + 1 - n]
        out[L + n, n - 1:, n - 1:] = W[2, :L + 2 - n, :L + 2 - n]
    return out


def phi_block_matrix(space, variant, x, y, A):
    """Phi^(variant)_{x,y}(A)."""
    return apply_weights(space, phi_weights(space, variant, x, y), A)


def weighted_sum_dense(space, W, tower):
    """sum_m W[m, |r|, |c|] tower[m][r, c], every weight table expanded to a
    full dim x dim array by the row and column word lengths."""
    ell = np.repeat(space.lengths, space.dim_N)
    return sum(W[m][np.ix_(ell, ell)] * tower[m] for m in range(len(tower)))


def _word_blocks(space, A):
    """View of a dim x dim matrix as (word, word, dim_N, dim_N) blocks."""
    n, k = len(space.words), space.dim_N
    return A.reshape(n, k, n, k).transpose(0, 2, 1, 3)


def as_op(space, A):
    """A dense dim x dim matrix as an operator: one block per word pair
    whose block is not all zero."""
    blocks = _word_blocks(space, np.asarray(A, dtype=complex))
    r, c = np.nonzero(blocks.any(axis=(2, 3)))
    return StructuredOperator(space, r, c, blocks[r, c], name="array")


def right_letter_maps(space):
    """Per letter gamma = (i, g): the words R_{gamma*} is defined on, their
    images w gamma* and the coordinate matrix of alpha_g."""
    out = []
    for i, g in space.amalgam.letters():
        fac = space.amalgam.factors[i]
        appended = (i, fac.group.inv(g))
        src = [j for j, w in enumerate(space.words)
               if len(w) < space.L_max and w.last_factor != i]
        dst = [space.word_index[space.words[j].append(appended)] for j in src]
        W = fac.unitaries[g]
        out.append((np.array(src, dtype=int), np.array(dst, dtype=int), np.kron(W, W.conj())))
    return out


def rho_dense(space, A):
    """sum_gamma R A R^* on a dense matrix: per letter, gather the (src, src)
    blocks of A, conjugate each by the alpha block and scatter them to
    (dst, dst); the letters' target words end differently, so the scatters
    never overlap."""
    A = _word_blocks(space, np.asarray(A, dtype=complex))
    out = np.zeros((space.dim, space.dim), dtype=complex)
    out4 = _word_blocks(space, out)
    for src, dst, blk in right_letter_maps(space):
        out4[dst[:, None], dst] = np.einsum("ab,ijbc,dc->ijad", blk,
                                            A[src[:, None], src], blk.conj())
    return out


def epsilon_dense(space, A):
    """Keep the entries whose row and column words end in the same factor."""
    lf = np.repeat(space.last_factors, space.dim_N)
    return ((lf[:, None] == lf[None, :]) & (lf[:, None] >= 0)) * np.asarray(A, dtype=complex)


def tower_dense(space, A):
    """[A, rho(A), ..., rho^L(A), eps(A), rho(eps(A)), ..., rho^{L-1}(eps(A))]."""
    out = [np.asarray(A, dtype=complex)]
    for _ in range(space.L_max):
        out.append(rho_dense(space, out[-1]))
    out.append(epsilon_dense(space, A))
    for _ in range(space.L_max - 1):
        out.append(rho_dense(space, out[-1]))
    return out


def op_product(space, factors, name):
    """factors[0] @ factors[1] @ ..., evaluated right to left so that each
    left factor that is a partial word map gathers; the identity if empty."""
    if not factors:
        return identity_op(space).renamed(name)
    op = factors[-1]
    for factor in reversed(factors[:-1]):
        op = factor @ op
    return op.renamed(name)


def generator_chain(space, gw):
    """b_0 L_{xi_1} b_1 ... L_{xi_k} b_k L*_{eta_l} bt_l ... L*_{eta_1} bt_1
    as a product of single operators, absent coefficients left out."""
    cre_coeffs = gw.cre_coeffs or (None,) * (gw.k + 1)
    ann_coeffs = gw.ann_coeffs or (None,) * gw.l
    factors = []
    for j, xi in enumerate(gw.cre_letters):
        if cre_coeffs[j] is not None:
            factors.append(left_mult(space, cre_coeffs[j]))
        factors.append(creation(space, xi))
    if cre_coeffs[gw.k] is not None:
        factors.append(left_mult(space, cre_coeffs[gw.k]))
    for j in range(gw.l - 1, -1, -1):
        factors.append(annihilation(space, gw.ann_letters[j]))
        if ann_coeffs[j] is not None:
            factors.append(left_mult(space, ann_coeffs[j]))
    return op_product(space, factors, "gen(k=%d,l=%d)" % (gw.k, gw.l))


def embed_terms_by_pair(space, i):
    """Per (j, k), the rows, columns (ascending) and middle words of the
    entries of up_j lmul(c) down_k in factor i, one term at a time: the
    form ``verify._embed_terms`` had before it concatenated the terms."""
    words = np.arange(len(space.words))
    guard = np.where(space.first_factors != i, words, -1)
    at = [space.letters.index((i, g)) for g in range(1, space.amalgam.factors[i].group.order)]
    ups = [guard] + [space.prepended[t] for t in at]
    downs = [guard] + [space.stripped[t] for t in at]
    terms = {}
    for j, up in enumerate(ups):
        for k, down in enumerate(downs):
            cols = np.flatnonzero(down >= 0)
            cols = cols[up[down[cols]] >= 0]
            terms[j, k] = (up[down[cols]], cols, down[cols])
    return terms


def embed_by_term_loop(space, a):
    """``verify.embed`` with one Python iteration per nonzero (j, k) term of
    each element, its entries gathered term by term: the route the
    package's one mask per element replaced."""
    elements = [a] if isinstance(a, FactorElement) else a
    factors = space.amalgam.factors
    words_of = {}
    terms, coefs = [(np.zeros(0, dtype=np.intp),) * 5], []
    for s, x in enumerate(elements):
        idx = next(i for i, fac in enumerate(factors) if fac is x.factor)
        if idx not in words_of:
            words_of[idx] = embed_terms_by_pair(space, idx)
        group = x.factor.group
        j, k = np.divmod(np.arange(group.order ** 2), group.order)
        inv = group.inverses
        coef = x.factor.alpha(inv[j], x.coeffs[group.table[j, inv[k]]])
        for t in np.flatnonzero((np.abs(coef) > 0).any(axis=(1, 2))):
            rows, cols, mid = words_of[idx][j[t], k[t]]
            terms.append((np.full(rows.size, s), rows, cols, mid,
                          np.full(rows.size, len(coefs))))
            coefs.append(coef[t])
    samples, rows, cols, mid, term = (np.concatenate(x) for x in zip(*terms))
    d = space.base.d
    blocks = lmul_blocks(space, np.reshape(coefs, (-1, d, d))[term], mid)
    samples, rows, cols, blocks = coalesce(samples, rows, cols, blocks, len(space.words))
    return StructuredOperator(space, rows, cols, blocks, "embed", samples, len(elements))


def product_by_loop(x, y):
    """The coefficients of the crossed-product product x y, one left
    coefficient g at a time: (b u_g) y = b alpha_g(y) shifted by g, added
    in the order of g, the route ``FactorElement.__mul__``'s one gather
    replaced."""
    fac = x.factor
    out = np.zeros_like(x.coeffs)
    for g, b in enumerate(x.coeffs):
        out[fac.group.table[g]] += b @ fac.alpha(g, y.coeffs)
    return out


def embed_per_element(space, a):
    """embed of one element: the closed-form coefficient of each (j, k) term
    through one left_mult, one single operator per term, and their sum."""
    idx = next(i for i, fac in enumerate(space.amalgam.factors) if fac is a.factor)
    group = a.factor.group
    pairs, coefs = [], []
    for j in range(group.order):
        for k in range(group.order):
            coef = a.factor.alpha(group.inv(j), a.coeffs[group.table[j, group.inv(k)]])
            if np.any(np.abs(coef) > 0):
                pairs.append((j, k))
                coefs.append(coef)
    if not coefs:
        return zero_op(space)
    lmul = left_mult(space, np.array(coefs)).blocks
    n, words_of = len(space.words), embed_terms_by_pair(space, idx)
    terms = []
    for t, pair in enumerate(pairs):
        rows, cols, mid = words_of[pair]
        terms.append(StructuredOperator(space, rows, cols, lmul[t * n + mid], "term"))
    return op_sum(space, terms, "embed")


def word_by_products(space, w):
    """b_0 embed(a_1) b_1 ... embed(a_n) b_n as a product of single operators."""
    factors = [left_mult(space, w.coeffs[0])]
    for a, b in zip(w.letters, w.coeffs[1:]):
        factors += [embed_per_element(space, a), left_mult(space, b)]
    return op_product(space, factors, "word(n=%d)" % w.length)


def embed_by_products(space, a):
    """sum_{j,k} L_{e_j} E(e_j* a e_k) L*_{e_k}, each coefficient from
    FactorElement products and each term a product of three operators."""
    idx = next(i for i, fac in enumerate(space.amalgam.factors) if fac is a.factor)
    basis = a.factor.pp_basis()
    guard = start_complement_op(space, idx)
    terms = []
    for j, ej in enumerate(basis):
        up = guard if j == 0 else creation(space, (idx, j))
        for k, ek in enumerate(basis):
            coef = cond_exp(ej.star() * a * ek)
            if not np.any(np.abs(coef) > 0):
                continue
            down = guard if k == 0 else annihilation(space, (idx, k))
            terms.append(op_product(space, [up, left_mult(space, coef), down], "term"))
    return op_sum(space, terms, "embed") if terms else zero_op(space)


def _masked_max(op, max_len=np.inf):
    """Largest block entry in the columns of words at most max_len long."""
    blocks = op.blocks[op.space.lengths[op.cols] <= max_len]
    return float(np.abs(blocks).max()) if blocks.size else 0.0


def _masked_max_dense(space, A, max_len):
    """Largest absolute entry of a dense matrix in the columns of words at
    most max_len long."""
    return float(np.abs(A[:, space.guard_mask(max_len)]).max(initial=0.0))


def lemma_suite_per_generator(space, symbols, seed=0, tol=EIGEN_TOL, max_rho_power=2):
    """The lemma suite with one generator, one check at a time, on dense
    matrices: its tower (``tower_dense``) and every map as the weighted sum
    of the tower (``weighted_sum_dense`` of the ``expand``ed weight set)."""
    rng = np.random.default_rng([seed, 4])
    report = VerificationReport()
    gens = generator_words(space, _generator_zoo(space, seed))
    mults = [(phi, build_T(space, phi), _symbol_scale(space, phi)) for phi in symbols]

    vec_len = max(space.L_max + 2, 8)
    xs = rng.standard_normal(vec_len) + 1j * rng.standard_normal(vec_len)
    ys = rng.standard_normal(vec_len) + 1j * rng.standard_normal(vec_len)
    phi_sets = [phi_weights(space, variant, xs, ys) for variant in (1, 2)]

    L = space.L_max
    res_rho = res_eps = res_t = res_t12 = 0.0
    res_phi = [0.0, 0.0]
    for gw in gens:
        a = generator_chain(space, gw).matrix()[0]
        k, l = gw.k, gw.l
        case = gw.case
        tw = tower_dense(space, a)

        def guard(depth):
            return L - max(k - l, 0) - depth

        def masked(A, depth=1):
            return _masked_max_dense(space, A, guard(depth))

        def apply(W):
            return weighted_sum_dense(space, expand(W), tw)

        for n in range(1, max_rho_power + 1):
            target = a @ length_at_least_op(space, l + n).matrix()[0]
            res_rho = max(res_rho, masked(tw[n] - target, n))

        if case == 2:
            res_eps = max(res_eps, masked(tw[L + 1] - a))
        else:
            res_eps = max(res_eps, masked(tw[L + 1] - tw[1]))

        span = len(xs) - max(k, l)
        scalar1 = complex(np.vdot(ys[l:l + span], xs[k:k + span]))
        if case == 2:
            span2 = len(xs) - max(k, l) + 1
            scalar2 = complex(np.vdot(ys[l - 1:l - 1 + span2], xs[k - 1:k - 1 + span2]))
        else:
            scalar2 = scalar1
        for i, scalar in enumerate((scalar1, scalar2)):
            res_phi[i] = max(res_phi[i], masked(apply(phi_sets[i]) - scalar * a))

        for phi, T, s in mults:
            # T1 and T2 are compared on the scale of their own weights
            s12 = max(s, np.abs(T.t1_weights).max(), np.abs(T.t2_weights).max())
            want1 = phi.psi1(k + l)
            want2 = phi.psi2(k + l) if case == 1 else phi.psi2(k + l - 2)
            res_t12 = max(res_t12, masked(apply(T.t1_weights) - want1 * a) / s12)
            res_t12 = max(res_t12, masked(apply(T.t2_weights) - want2 * a) / s12)
            n_eff = k + l if case == 1 else k + l - 1
            res_t = max(res_t, masked(apply(T.weights) - phi(n_eff) * a) / s)

    report.add("rho_power_sector_rule", res_rho, tol, generators=len(gens))
    report.add("epsilon_case_rules", res_eps, tol)
    report.add("phi1_eigenvalue_rule", res_phi[0], tol)
    report.add("phi2_eigenvalue_rule", res_phi[1], tol)
    report.add("t1_t2_component_rules", res_t12, tol, symbols=len(mults))
    report.add("multiplier_case_rules", res_t, tol, symbols=len(mults))
    return report


def psi_via_factors(fh: HankelFactorization, fk: HankelFactorization,
                    k: int, l: int) -> tuple:
    """(psi1(k+l), psi2(k+l)) recovered from the sliding correlations

        sum_i sum_t x_i(k+t) * conj(y_i(l+t))

    of the rank-one pairs of h resp. k.  Must agree with the telescoped
    values up to the Hankel truncation error.
    """
    if k < 0 or l < 0:
        raise ValueError("sector indices must be nonnegative")

    def correlate(fact: HankelFactorization) -> complex:
        if k >= fact.dim or l >= fact.dim:
            raise ValueError(
                "index pair (%d, %d) outside truncation dim %d" % (k, l, fact.dim))
        span = fact.dim - max(k, l)
        total = 0j
        for x, y in fact.pairs:
            total += np.vdot(y[l:l + span], x[k:k + span])
        return total

    return correlate(fh), correlate(fk)


def theorem_suite_per_word(space, symbols, seed=0, tol=EIGEN_TOL, words_per_length=10):
    """The main theorem suite with one word operator, built whole by
    ``word_by_products``, one multiplier application and one pair of norm
    bounds, on the dense matrix, at a time."""
    rng = np.random.default_rng([seed, 5])
    report = VerificationReport()
    max_len = min(3, space.L_max - 2)
    mults = [(phi, build_T(space, phi), _symbol_scale(space, phi)) for phi in symbols]
    words = {n: [random_reduced_word(rng, space, n) for _ in range(words_per_length)]
             for n in range(0, max_len + 1)}
    res_action = res_vacuum = 0.0
    for n, sampled in words.items():
        guard = space.guard_mask(space.L_max - n)
        for w in sampled:
            A = word_by_products(space, w)
            for phi, T, s in mults:
                with np.errstate(over="ignore", invalid="ignore"):
                    diff = T.apply_matrix(A) - phi(n) * A
                d = diff.matrix()[0][:, guard]
                if np.any(d):
                    scale = max(max_column_norm(A.matrix()[0][:, guard])[0], 1e-30)
                    res_action = _fold(res_action, schur_bound(d) / scale / s)
                res_vacuum = _fold(res_vacuum, _masked_max(diff, 0)
                                   / max(_masked_max(A, 0), 1e-30) / s)
    report.add("theorem_action_on_words", res_action, tol,
               lengths=max_len, per_length=words_per_length, symbols=len(mults))
    report.add("theorem_vacuum_coefficients", res_vacuum, tol)

    _, T0, s = mults[0]
    A = word_by_products(space, words[min(1, max_len)][0])
    B = word_by_products(space, words[0][0])
    al, be = complex(rng.standard_normal()), complex(rng.standard_normal())
    diff = T0.apply_matrix(al * A + be * B) - al * T0.apply_matrix(A) - be * T0.apply_matrix(B)
    report.add("multiplier_linearity", op_norm(diff)[0] / max(op_norm(A)[0], 1.0) / s, 1e-12)
    lam = left_mult(space, space.base.random(rng))
    guard = space.guard_mask(space.L_max - max(1, max_len))
    diff = T0.apply_matrix(A @ lam) - T0.apply_matrix(A) @ lam
    report.add("multiplier_right_module",
               op_norm(diff.matrix()[0][:, guard])[0] / max(op_norm(A)[0], 1.0) / s, tol)
    return report


def word_vacuum_images_dense(space, max_len):
    """Yield the coordinate arrays of u_{g_1} ... u_{g_n} b applied to the
    vacuum, for every word (g_1, ..., g_n) of length <= max_len (in basis
    order) and every N-basis element b: the vacuum array multiplied, right
    to left, by left_mult(b) and the letters' embeddings, each built once."""
    embeds = {(i, g): embed(space, space.amalgam.factors[i].unitary(g))
              for i, g in space.amalgam.letters()}
    vac = to_array(word_vector(space, Word()))
    starts = [(left_mult(space, b) @ vac)[0] for b in space.base.basis()]
    for w in space.words:
        if len(w) > max_len:
            continue
        for vec in starts:
            for letter in reversed(w.letters):
                vec = (embeds[letter] @ vec)[0]
            yield vec


def lambda_span_dense(space, k):
    """Yield the length-k sector's spanning family, one Fock vector per
    word and N-basis element, as coordinate arrays."""
    for w in space.words:
        if len(w) == k:
            for b in space.base.basis():
                yield to_array(FockVector(space, {w: b}))


def dense_rank(columns) -> int:
    """Rank (singular values above 1e-10) of the columns stacked whole."""
    return int(np.linalg.matrix_rank(np.stack(list(columns), axis=1), tol=1e-10))
