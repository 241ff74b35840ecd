"""Test oracles of ``radmul``, and their ledger.

Each route of the package is held to at most two oracles: an independent
one, built from the paper's definition, the ``Word`` rules or dense
matrices, and an exact one, a replaced route that a test compares bit for
bit.  Per route the ledger gives each oracle, its file (``here`` is this
module), what it is built from and its bound: "bit-exact", or a bound on
the largest entry of the difference, relative to the oracle's largest
entry unless "abs".  The exact models are every test model but
``noncomm_space``, whose twists are not exact in floating point; the
scalar bases are dih's and cy3's (N = C).

``CrossedFactor.mul``: ``regular_rep`` (test_algebra), the regular
    representation from the group table and the unitaries, 1e-12 abs;
    ``product_by_loop`` (here), one left coefficient at a time, bit-exact.
``multiplication_matrix``, its coordinates: ``pp_coords`` (here), traces
    against the basis ``onb_elements``, one product each, 1e-14 abs.
``verify_pp_basis``: ``pp_residuals_by_products`` (here), the module-basis
    identities pair by pair from products, 1e-14 per residual.
``FiniteGroup``, ``CrossedFactor``: ``first_table_defect`` and
    ``first_action_defect`` (test_algebra), element by element, the same
    first message.
``FockSpace`` word tables: ``word_list`` (here), the words by the ``Word``
    rules and every table read off them a word at a time, equal;
    ``brute_words`` (test_fock), letter strings filtered, the same set.
``fock.inner_N``: ``block_inner_N`` (here), sum_w c_w* d_w on the word
    blocks, bit-exact on scalar bases, else 1e-15 abs.
``creation``, ``annihilation``, ``right_creation``, ``right_annihilation``,
    ``right_mult``: ``prepend``, ``strip_first``, ``append_star``,
    ``strip_star`` and ``right_action`` (here), the ``Word`` rules made
    matrices by ``column_matrix``, 1e-13 abs.
``operators.embed`` on u_e coefficients alone, the left N-action:
    ``left_action`` (here) by ``column_matrix``, the coefficient pushed
    through the letters one at a time, bit-exact on scalar bases, else 1e-13
    abs; ``left_mult`` (here), the diagonal ``lmul_blocks`` of every word,
    the route it replaced, bit-exact.
``generator_operators``: ``generator_factor_matrices`` (test_operators),
    the dense product of the rule matrices of the factors, 1e-14;
    ``generator_chain`` (here), a product of single creation, annihilation
    and ``left_mult`` operators (``op_product``), per sample of the zoo and
    of every signature, bit-exact.
``rho_matrix``: ``rho_dense`` (here), sum_gamma R A R^H with R the matrix
    of ``append_star``, bit-exact on scalar bases, else 1e-13 abs;
    ``rho_matrix_by_letters`` (here), every letter gathered at every entry,
    bit-exact.
``epsilon_matrix``: ``epsilon_dense`` (here), the mask of word pairs ending
    in one factor, 1e-14.
``rho_tower``, ``eps_rho_tower``: ``tower_dense`` (here), ``rho_dense`` and
    ``epsilon_dense`` iterated, 1e-14.
``apply_weights``: ``weighted_sum_dense`` (here), the tables of ``expand``
    each spread to a full matrix on ``tower_dense`` and added in tower
    order, bit-exact for 0/1 weights on exact models, else 1e-14.
``phi_weights``: ``brute_phi_scalar`` (test_operators), the sliding sums
    of x and y against the eigenvalues on generators, 1e-10 abs;
    ``partition_sum_by_diag`` (here), the row sum Phi1_{v,v}(Id) as
    ``diag`` products and the rho tower of Id, 1e-15.
``StructuredOperator.unstack``, ``verify._chunks``: ``select`` (here), one
    mask per range of the tuples' ``stack``, with the chunks' range rule
    restated, bit-exact.
``sparse.op_norm``: ``svd_norm`` (test_operators), one SVD of the whole
    matrix, read through ``EntryStack`` (here), 1e-13.
``operators.embed``: ``dense_embed`` (test_operators), the module-basis sum
    from rule matrices and products E(e_j* a e_k), 1e-14;
    ``embed_by_term_loop`` (here), one iteration per (j, k) term of each
    sample on the words of ``embed_terms_by_pair``, bit-exact on exact
    models, else 1e-15.  As ``embed`` it gives the embedding, theorem and
    spanning suites the same report bytes on exact models, else 1e-14 abs.
``operators._unitary_words``: ``unitary_word_by_rules`` (here), the ``Word``
    rules, equal.
``word_operator``: ``dense_embed`` and ``left_action`` matrices multiplied
    (test_operators), 1e-14; ``word_by_products`` (here), single
    ``left_mult`` and ``embed_by_term_loop`` operators multiplied per
    ``ReducedWord``, bit-exact on exact models, else 1e-15.
``random_word_arrays``: ``reduced_words`` (here), its arrays read back as
    ``ReducedWord``s, which reject adjacent letters from one factor and
    letters outside ker E; the theorem suite's oracle draws through it.
``verify._coefficient_gaps``: ``coefficient_gaps_by_vectors`` (here), Fock
    vectors and products pair by pair, 1e-14 (1e-13 abs at rounding).
``lemma_suite``: ``lemma_suite_per_generator`` (here), one generator at a
    time on ``tower_dense``, the same statuses and details, 1e-15 abs.
``main_theorem_suite``: ``theorem_suite_per_word`` (here), one whole
    ``word_by_products`` operator and dense norm bounds at a time, the
    same report bytes.
``word_vacuum_images``, ``spanning_check``: ``word_vacuum_images_dense``
    (here), one column at a time, bit-exact, ranks by ``dense_rank``; the
    word operators on the vacuum (test_verify), 1e-13 abs.
``lambda_span``: ``lambda_span_dense`` (here), one array per word and basis
    element, the same ``dense_rank``.
``RadialMultiplier``, its weight sets: the ``phi_weights`` of the rank-one
    pairs of the M x M Hankel matrices summed (test_operators), 1e-12;
    ``multiplier_weights_by_calls`` (here), the route it replaced, every
    value read by its own call of ``phi`` or ``phi.psi1``, bit-exact.
``symbols.hankel_pairs``: the M x M sections of h and k (``hankel_pair``)
    against the pairs spelled out, 1e-14, and the pairs' mass against
    ``hankel_trace_norm``, 1e-13, and against the SVD pairs of those
    sections (``factorize``) within their tail error (test_symbols).
``operators.tailed_weights``: the pairs' sets summed, plus c Id, against
    ``multiplier_weights_by_calls`` (here), 1.3e-15 (test_operators).
``RadialSymbol.psi1``, ``psi2``: ``brute_psi1`` (test_symbols), the
    telescoping series summed, 1e-12 abs; ``psi_via_factors`` (here), the
    rank-one pairs of the M x M Hankel matrices, 1e-9 abs.

Helpers: ``Word`` (a reduced word as letter tuples), ``letter_index``,
``index_of``, ``by_words``; the block form of a vector, a
:class:`~radmul.fock.FockVector` with one d x d right coefficient per
word (``vector``, ``word_vector``, ``basis_fock_vector``, ``coeffs``,
``word_coeffs``, ``to_array``, ``from_array``, ``apply``, ``is_zero``,
``canonicalize``, ``left_mul``, ``right_mul``); ``cond_exp``, the
expectation onto N; ``word_arrays`` and ``word_stack`` (``ReducedWord``s
to ``word_operator``), ``random_reduced_word`` (one drawn word as a
``ReducedWord``) and ``embedded`` (factor indices and coefficient arrays
to ``embed``);
``GeneratorWord``, a
generator as letter and coefficient tuples, ``family`` and
``generator_words`` between it and ``Generators``, ``random_word`` and
``generator``; ``zero_op``, ``as_op`` (a dense matrix as an operator),
``weighed`` (``apply_weights`` of one weight set on every sample),
``onb_elements``, ``partition_identity_residual`` (the partition of
||x||^2 by lengths on scalars), ``worst_residual`` and ``failed_names``.
"""

import functools
from dataclasses import dataclass

import numpy as np

from radmul.fock import FockVector
from radmul.operators import (Generators, StructuredOperator, _weight_set, annihilation,
                              apply_weights, build_T, creation, diag, embed, generator_operators,
                              identity_op, length_at_least_op, lmul_blocks, op_sum, padded,
                              phi_weights, rho_tower, word_operator)
from radmul.report import VerificationReport
from radmul.symbols import HankelFactorization
from radmul.sparse import coalesce, max_column_norm, op_norm, schur_bound
from radmul.verify import (_coefficients, _fold, _generator_zoo, _symbol_scale,
                           random_word_arrays)


@dataclass(frozen=True)
class Word:
    """Reduced word: adjacent letters from distinct factors, no identity letters.

    ``Word(letters)`` checks every letter; ``append`` checks only the letter
    it adds, and ``drop_first`` and ``drop_last`` nothing, since a reduced
    word stays reduced when a letter is stripped."""

    letters: tuple = ()

    def __post_init__(self):
        for j, letter in enumerate(self.letters):
            _check_letter(self.letters[j - 1] if j else None, letter)

    def __len__(self):
        return len(self.letters)

    @property
    def first_factor(self) -> int:
        return self.letters[0][0] if self.letters else -1

    @property
    def last_factor(self) -> int:
        return self.letters[-1][0] if self.letters else -1

    def append(self, letter) -> "Word":
        letter = tuple(letter)
        _check_letter(self.letters[-1] if self.letters else None, letter)
        return _reduced(self.letters + (letter,))

    def drop_first(self) -> "Word":
        return _reduced(self.letters[1:])

    def drop_last(self) -> "Word":
        return _reduced(self.letters[:-1])


def letter_index(space, letter) -> int:
    """The index t in ``space.letters`` of a letter (i, g), which the letter
    maps of ``radmul.operators`` take."""
    letter = tuple(letter)
    if letter[1] == 0:
        raise ValueError("creation letters avoid the group identity")
    if letter not in space.letters:
        raise ValueError("letter %r is not one of the configured letters %r"
                         % (letter, space.letters))
    return space.letters.index(letter)


def _check_letter(previous, letter) -> None:
    """Raise unless ``letter`` may follow ``previous`` (None: nothing) in a reduced word."""
    i, g = letter
    if g == 0:
        raise ValueError("letters must avoid the group identity")
    if previous is not None and previous[0] == i:
        raise ValueError("adjacent letters from the same factor")


def _reduced(letters: tuple) -> Word:
    """The word of ``letters``, known to be reduced, built without re-checking them."""
    word = object.__new__(Word)
    object.__setattr__(word, "letters", letters)
    return word


@functools.cache
def word_list(space):
    """The space's words in basis order as ``Word``s, enumerated by the word
    rules: length-lexicographic, word j's children (letter t appended, t in
    configuration order) following the children of the words before it."""
    words, frontier = [Word()], [0]
    for _ in range(space.L_max):
        start = len(words)
        for j in frontier:
            for letter in space.letters:
                if words[j].last_factor != letter[0]:
                    words.append(words[j].append(letter))
        frontier = range(start, len(words))
    return tuple(words)


@functools.cache
def _word_indices(space):
    return {w: j for j, w in enumerate(word_list(space))}


def index_of(space, *letters):
    """The index of the word with these letters (checked by the word rules,
    a ValueError where they do not form a reduced word), -1 where it is
    longer than the truncation."""
    return _word_indices(space).get(Word(tuple(tuple(x) for x in letters)), -1)


def by_words(space, coeffs):
    """The vector with the given {``Word``: coefficient} entries; words past
    the truncation are dropped."""
    index = _word_indices(space)
    return FockVector(space, {index[w]: c for w, c in coeffs.items() if w in index})


def vector(space, blocks):
    """The vector of the space holding ``blocks`` as they are."""
    vec = FockVector.__new__(FockVector)
    vec.space, vec.blocks = space, blocks
    return vec


def word_vector(space, j, b=None):
    """The word vector w b of word index j (b = 1 by default)."""
    coeff = space.base.identity() if b is None else space.base.element(b)
    return FockVector(space, {j: coeff})


def coeffs(vec):
    """The nonzero coefficients by word index, in basis order."""
    nonzero = np.flatnonzero(vec.blocks.any(axis=(1, 2)))
    return {int(j): vec.blocks[j] for j in nonzero}


def word_coeffs(vec):
    """The nonzero coefficients by ``Word``, in basis order."""
    words = word_list(vec.space)
    return {words[j]: c for j, c in coeffs(vec).items()}


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
    return FockVector(space, {idx // space.dim_N: space.base.onb()[idx % space.dim_N]})


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
    am = space.amalgam
    acc = space.base.element(coeffs[0])
    for letter, right in zip(letters, coeffs[1:]):
        acc = am.push(acc, letter) @ space.base.element(right)
    return by_words(space, {word: acc})


def zero_op(space):
    k = space.dim_N
    return StructuredOperator(space, [], [], np.zeros((0, k, k)), name="0")


def cond_exp(x):
    """Conditional expectation of a factor element onto N: its identity
    coefficient."""
    return x[0]


@dataclass(frozen=True)
class ReducedWord:
    """b_0 a_1 b_1 ... a_n b_n with kernel letters a_j from alternating
    factors: adjacent letters have different factor indices, and each has
    vanishing expectation."""

    factors: tuple            # the factor index of each letter
    letters: tuple            # (|G|, d, d) coefficient arrays with vanishing expectation
    coeffs: tuple             # n+1 base-algebra elements

    def __post_init__(self):
        if len(self.coeffs) != len(self.letters) + 1:
            raise ValueError("need one more coefficient than letters")
        for j, a in enumerate(self.letters):
            if j and self.factors[j - 1] == self.factors[j]:
                raise ValueError("adjacent letters from the same factor")
            if np.abs(cond_exp(a)).max() > 1e-10:
                raise ValueError("letters must have vanishing expectation")

    @property
    def length(self) -> int:
        return len(self.letters)


def reduced_words(space, factors, letters, coeffs):
    """The ``ReducedWord``s of the arrays of ``operators.word_operator``, each
    checked by the word rules."""
    fac = space.amalgam.factors
    return [ReducedWord(tuple(int(i) for i in f),
                        tuple(a[:fac[i].group.order].copy() for i, a in zip(f, x)), tuple(c))
            for f, x, c in zip(factors, letters, coeffs)]


def word_arrays(space, words):
    """The arrays (factors, letters, coeffs) of ``operators.word_operator`` for
    ``ReducedWord``s of one length."""
    n = words[0].length
    factors = np.array([w.factors for w in words], dtype=np.intp).reshape(len(words), n)
    letters = padded(space, [a for w in words for a in w.letters])
    coeffs = np.array([[space.base.element(b) for b in w.coeffs] for w in words])
    return factors, letters.reshape((len(words), n) + letters.shape[1:]), coeffs


def word_stack(space, words, max_col_len=None):
    """``operators.word_operator`` of ``ReducedWord``s of one length."""
    return word_operator(space, *word_arrays(space, words), max_col_len)


def random_reduced_word(rng, space, n):
    """One word of ``verify.random_word_arrays``, as a ``ReducedWord``."""
    return reduced_words(space, *random_word_arrays(rng, space, n, 1))[0]


def embedded(space, factors, elements):
    """``operators.embed`` of a sequence of coefficient arrays, element s of
    factor ``factors[s]``, each padded to the largest group order."""
    return embed(space, factors, padded(space, elements))


def left_mult(space, b):
    """Left N-multiplication by a (count, d, d) stack of coefficients, the
    diagonal block kron(U_w b[t] U_w*, 1) on every word w of sample t: the
    route that ``operators.embed`` on u_e coefficients replaced."""
    b = np.asarray(b, dtype=complex)
    samples, words = np.divmod(np.arange(len(b) * len(space.words)), len(space.words))
    return StructuredOperator(space, words, words, lmul_blocks(space, b[samples], words),
                              "lmul", samples, len(b))


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
    """A random ``GeneratorWord`` of k, l <= 2 letters, each string
    alternating factors: the letters drawn first, then its coefficients
    (``verify._coefficients``)."""
    factor = space.letter_factors
    strings = np.full((2, 2), -1)
    for s, length in enumerate((k, l)):
        for j in range(length):
            choices = [t for t, i in enumerate(factor) if not j or i != factor[strings[s, j - 1]]]
            strings[s, j] = choices[rng.integers(len(choices))]
    draw = (strings[0], strings[1]) + _coefficients(rng, space.base, k, l)
    cre, ann, b, bt = (np.array([x]) for x in draw)
    return generator_words(space, Generators(cre, ann, np.zeros(1, dtype=np.intp), b, bt))[0]


def generator(space, gw):
    """One generator word as a stack of one."""
    return generator_operators(space, family(space, [gw])).renamed(
        "gen(k=%d,l=%d)" % (gw.k, gw.l))


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


def partition_sum_by_diag(space, v):
    """sum_{n>=0} D_{(S*)^n v} D*_{(S*)^n v} + sum_{n>=1} D_{S^n v} Q_n D*_{S^n v}
    with Q_n = rho^n(Id): the row sum of the Phi factorization for v, each
    term a product of length-diagonal maps and a member of the rho tower of
    Id.  The shifted weights partition ||v||^2 on every length, so the sum is
    ||v||^2 Id."""
    v = np.asarray(v, dtype=complex).ravel()
    terms = []
    for n in range(len(v)):
        dn = diag(space, v[n:])  # (S*)^n v
        terms.append(dn @ dn.adjoint())
    for n, B in enumerate(rho_tower(space, identity_op(space), space.L_max), start=1):
        dn = diag(space, np.concatenate([np.zeros(n), v]))  # S^n v
        terms.append(dn @ B @ dn.adjoint())
    return op_sum(space, terms)


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
        return by_words(space, {Word((letter,) + w.letters): c
                                for w, c in word_coeffs(vec).items()
                                if len(w) < space.L_max and w.first_factor != letter[0]})
    return rule


def strip_first(space, letter):
    """L*_gamma: strip a matching first letter."""
    def rule(vec):
        return by_words(space, {w.drop_first(): c for w, c in word_coeffs(vec).items()
                                if w.letters and w.letters[0] == letter})
    return rule


def append_star(space, letter):
    """R_{gamma*}: append gamma* = (i, g^{-1}) and twist the coefficient by alpha_g."""
    i, g = letter
    fac = space.amalgam.factors[i]
    appended = (i, fac.group.inv(g))

    def rule(vec):
        return by_words(space, {w.append(appended): fac.alpha(g, c)
                                for w, c in word_coeffs(vec).items()
                                if len(w) < space.L_max and w.last_factor != i})
    return rule


def strip_star(space, letter):
    """R*_{gamma*}: strip a final gamma* and twist the coefficient by alpha_{g^{-1}}."""
    i, g = letter
    fac = space.amalgam.factors[i]
    gi = fac.group.inv(g)

    def rule(vec):
        return by_words(space, {w.drop_last(): fac.alpha(gi, c)
                                for w, c in word_coeffs(vec).items()
                                if w.letters and w.letters[-1] == (i, gi)})
    return rule


def left_action(b):
    """Left N-action: push b through every letter onto the right coefficient,
    one letter at a time."""
    def rule(vec):
        space = vec.space
        out = {}
        for w, c in word_coeffs(vec).items():
            pushed = space.base.element(b)
            for letter in w.letters:
                pushed = space.amalgam.push(pushed, letter)
            out[w] = pushed @ c
        return by_words(space, out)
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


def pp_coords(factor, x):
    """The coordinates tau((b u_g)* x) of an element x of ``factor`` in the
    orthonormal basis ``onb_elements``, one crossed-product product per
    basis element."""
    return np.array([factor.base.trace(factor.mul(factor.star(e), x)[0])
                     for e in onb_elements(factor)], dtype=complex)


def pp_residuals_by_products(factor, basis):
    """The four residuals of ``verify_pp_basis`` by name, pair by pair from
    ``CrossedFactor.mul`` products: E(e_j* e_k) for every pair, the matrix
    of y -> sum_j e_j E(e_j* y) on ``onb_elements``, and sum_j E(x e_j) e_j*
    for every basis element x, read on coefficients."""
    eye = factor.base.identity()
    mul, star = factor.mul, factor.star
    ortho = normal = 0.0
    for j, ej in enumerate(basis):
        for k, ek in enumerate(basis):
            val = cond_exp(mul(star(ej), ek))
            if j == k:
                normal = max(normal, float(np.abs(val - eye).max()))
            else:
                ortho = max(ortho, float(np.abs(val).max()))
    onb = onb_elements(factor)
    total = np.zeros((len(onb), len(onb)), dtype=complex)
    for ej in basis:
        total += np.stack([mul(ej, factor.from_base(cond_exp(mul(star(ej), y)))).reshape(-1)
                           / np.sqrt(factor.base.d) for y in onb], axis=1)
    expansion = 0.0
    for x in onb:
        rec = np.zeros_like(x)
        for ej in basis:
            rec = rec + mul(factor.from_base(cond_exp(mul(x, ej))), star(ej))
        expansion = max(expansion, float(np.abs(rec - x).max()))
    return {"pp_orthogonality": ortho, "pp_normalization": normal,
            "pp_partition_of_unity": float(np.abs(total - np.eye(len(onb))).max()),
            "pp_expansion": expansion}


def coefficient_gaps_by_vectors(space, ea, factors, elements):
    """Per sample of ``ea``, one per element a of factor ``factors[s]``, the
    largest entry of <e_m Omega, ea e_l Omega>_N - E(e_m* a e_l) over the
    module basis (e_j) of a's factor, on Fock vectors: ea applied to the
    word vector of e_l, its N-valued inner product with that of e_m, and the
    coefficient from ``CrossedFactor.mul`` products, pair by pair."""
    gaps = []
    for s, (i, a) in enumerate(zip(factors, elements)):
        fac = space.amalgam.factors[i]
        basis = fac.pp_basis()
        vectors = [word_vector(space, index_of(space, (i, g)) if g else index_of(space))
                   for g in range(len(basis))]
        gap = 0.0
        for el, el_vec in zip(basis, vectors):
            ael = from_array(space, (ea @ to_array(el_vec))[s])
            for em, em_vec in zip(basis, vectors):
                want = cond_exp(fac.mul(fac.mul(fac.star(em), a), el))
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


def weighted_sum_dense(space, W, tower):
    """sum_m W[m, |r|, |c|] tower[m][r, c], every weight table expanded to a
    full dim x dim array by the row and column word lengths."""
    ell = np.repeat(space.lengths, space.dim_N)
    return sum(W[m][np.ix_(ell, ell)] * tower[m] for m in range(len(tower)))


def as_op(space, A):
    """A dense dim x dim matrix as an operator: one block per word pair
    whose block is not all zero."""
    n, k = len(space.words), space.dim_N
    blocks = np.asarray(A, dtype=complex).reshape(n, k, n, k).transpose(0, 2, 1, 3)
    r, c = np.nonzero(blocks.any(axis=(2, 3)))
    return StructuredOperator(space, r, c, blocks[r, c], name="array")


def weighed(space, W, A):
    """``apply_weights`` of the one weight set W on every sample of A."""
    return apply_weights(space, np.asarray(W)[None], A, np.zeros(A.n_samples, dtype=np.intp))


def rho_matrix_by_letters(space, A):
    """``operators.rho_matrix`` gathering every letter's ``appended`` row at
    every entry, then the (letter, entry) pairs where both images exist:
    the route the one mask per factor replaced."""
    table, alpha = space.appended[space.star], space.twists
    tr, tc = table[:, A.rows], table[:, A.cols]
    t, e = np.nonzero(np.minimum(tr, tc) >= 0)
    blocks = alpha[t] @ A.blocks[e] @ alpha[t].conj().transpose(0, 2, 1)
    return A._new(A.samples[e], tr[t, e], tc[t, e], blocks, "rho(%s)" % A.name)


def select(op, keep):
    """The stack of the samples ``keep`` marks, renumbered in order: one
    scan of all the entries per call, the cut ``StructuredOperator.unstack``
    replaced."""
    on = keep[op.samples]
    renumber = np.cumsum(keep) - 1
    return StructuredOperator(op.space, op.rows[on], op.cols[on], op.blocks[on], op.name,
                              renumber[op.samples[on]], int(np.count_nonzero(keep)))


@functools.cache
def _right_creations(space):
    """Per letter gamma, the matrix of R_{gamma*} (``append_star``)."""
    return [column_matrix(space, append_star(space, letter)) for letter in space.letters]


def rho_dense(space, A):
    """rho(A) = sum_gamma R_{gamma*} A R_{gamma*}^H on a dense matrix, each
    R_{gamma*} the matrix of the word rule ``append_star``."""
    A = np.asarray(A, dtype=complex)
    return sum(R @ A @ R.conj().T for R in _right_creations(space))


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
            factors.append(left_mult(space, [cre_coeffs[j]]))
        factors.append(creation(space, letter_index(space, xi)))
    if cre_coeffs[gw.k] is not None:
        factors.append(left_mult(space, [cre_coeffs[gw.k]]))
    for j in range(gw.l - 1, -1, -1):
        factors.append(annihilation(space, letter_index(space, gw.ann_letters[j])))
        if ann_coeffs[j] is not None:
            factors.append(left_mult(space, [ann_coeffs[j]]))
    return op_product(space, factors, "gen(k=%d,l=%d)" % (gw.k, gw.l))


def embed_terms_by_pair(space, i):
    """Per (j, k), the rows, columns (ascending) and middle words of the
    entries of up_j lmul(c) down_k in factor i, one term at a time: the
    module-basis terms of the embedding, up_0 = down_0 keeping the words not
    starting in factor i, up_j creating (i, j) and down_k annihilating
    (i, k)."""
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


def embed_by_term_loop(space, factors, coeffs):
    """``operators.embed`` as the sum of the module-basis terms
    L_{e_j} E(e_j* a e_k) L*_{e_k}, E(u_{g_j}* a u_{g_k}) =
    alpha_{g_j^{-1}}(a_{g_j g_k^{-1}}), with one Python iteration per nonzero
    (j, k) term of each element, its entries gathered term by term: the
    route the package's word maps of the group unitaries replaced."""
    d = space.base.d
    words_of = {}
    terms, coefs = [(np.zeros(0, dtype=np.intp),) * 5], []
    for s, (idx, c) in enumerate(zip(factors, coeffs)):
        fac = space.amalgam.factors[idx]
        if idx not in words_of:
            words_of[idx] = embed_terms_by_pair(space, idx)
        group = fac.group
        x = np.zeros((group.order, d, d), dtype=complex)
        x[:len(c)] = c[:group.order]
        j, k = np.divmod(np.arange(group.order ** 2), group.order)
        inv = group.inverses
        coef = fac.alpha(inv[j], x[group.table[j, inv[k]]])
        for t in np.flatnonzero((np.abs(coef) > 0).any(axis=(1, 2))):
            rows, cols, mid = words_of[idx][j[t], k[t]]
            terms.append((np.full(rows.size, s), rows, cols, mid,
                          np.full(rows.size, len(coefs))))
            coefs.append(coef[t])
    samples, rows, cols, mid, term = (np.concatenate(x) for x in zip(*terms))
    d = space.base.d
    blocks = lmul_blocks(space, np.reshape(coefs, (-1, d, d))[term], mid)
    samples, rows, cols, blocks = coalesce(samples, rows, cols, blocks, len(space.words))
    return StructuredOperator(space, rows, cols, blocks, "embed", samples, len(factors))


def product_by_loop(fac, x, y):
    """The coefficients of the product x y in the crossed product ``fac``,
    one left coefficient g at a time: (b u_g) y = b alpha_g(y) shifted by
    g, added in the order of g, the route ``CrossedFactor.mul``'s one
    gather replaced."""
    out = np.zeros_like(x)
    for g, b in enumerate(x):
        out[fac.group.table[g]] += b @ fac.alpha(g, y)
    return out


def unitary_word_by_rules(space, i, g, j):
    """The index of the word of u_g w, for the word w of index j and g in
    factor i's group, by the ``Word`` rules: u_g u_h = u_{gh} on a leading
    letter (i, h) of w, dropped where gh = e, and (i, g) put in front of a
    word that does not start in factor i, nothing where g = e; -1 past the
    truncation."""
    w = word_list(space)[j]
    letters = w.letters
    if w.first_factor == i:
        g, letters = int(space.amalgam.factors[i].group.table[g, letters[0][1]]), letters[1:]
    return index_of(space, *(((i, g),) if g else ()), *letters)


def word_by_products(space, w):
    """b_0 embed(a_1) b_1 ... embed(a_n) b_n as a product of single operators."""
    factors = [left_mult(space, [w.coeffs[0]])]
    for i, a, b in zip(w.factors, w.letters, w.coeffs[1:]):
        factors += [embed_by_term_loop(space, [i], padded(space, [a])), left_mult(space, [b])]
    return op_product(space, factors, "word(n=%d)" % w.length)


class EntryStack:
    """A stack of matrices of any shape given by its entries, as ``op_norm``
    and the one-pass bounds read an operator: ``entries()``, ``n_samples``
    and ``shape``; ``from_dense`` holds one dense matrix, its entries those
    of ``np.nonzero``."""

    def __init__(self, samples, rows, cols, values, n_samples, shape):
        self.samples, self.rows, self.cols, self.values = samples, rows, cols, values
        self.n_samples, self.shape = n_samples, shape

    @classmethod
    def from_dense(cls, A):
        A = np.asarray(A, dtype=complex)
        rows, cols = np.nonzero(A)
        return cls(np.zeros_like(rows), rows, cols, A[rows, cols], 1, A.shape)

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


def _masked_max(op, max_len=np.inf):
    """Largest block entry in the columns of words at most max_len long."""
    blocks = op.blocks[op.space.lengths[op.cols] <= max_len]
    return float(np.abs(blocks).max()) if blocks.size else 0.0


def _masked_max_dense(space, A, max_len):
    """Largest absolute entry of a dense matrix in the columns of words at
    most max_len long."""
    return float(np.abs(A[:, space.guard_mask(max_len)]).max(initial=0.0))


def lemma_suite_per_generator(space, symbols, seed=0, max_rho_power=2):
    """The lemma suite with one generator, one check at a time, on dense
    matrices: its tower (``tower_dense``) and every map as the weighted sum
    of the tower (``weighted_sum_dense`` of the ``expand``ed weight set)."""
    rng = np.random.default_rng([seed, 4])
    report = VerificationReport()
    gens = generator_words(space, _generator_zoo(space, seed))
    multipliers = [build_T(space, phi) for phi in symbols]
    mults = [(phi, T, _symbol_scale(T)) for phi, T in zip(symbols, multipliers)]

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

    report.add("rho_power_sector_rule", res_rho, generators=len(gens))
    report.add("epsilon_case_rules", res_eps)
    report.add("phi1_eigenvalue_rule", res_phi[0])
    report.add("phi2_eigenvalue_rule", res_phi[1])
    report.add("t1_t2_component_rules", res_t12, symbols=len(mults))
    report.add("multiplier_case_rules", res_t, symbols=len(mults))
    return report


def multiplier_weights_by_calls(space, phi) -> tuple:
    """The weight sets (T1, T2, T) of ``RadialMultiplier`` on ``space``,
    each value read by its own call of ``phi`` or ``phi.psi1``: T1 and T2
    from psi1(a+b+shift) and d(s) = phi(s) - phi(s+1) (shift 0 and 1), and
    T as their sum with its weight of A read off phi(a+b)."""
    L = space.L_max
    total = np.add.outer(np.arange(L + 1), np.arange(L + 1))
    sets = []
    for shift in (0, 1):
        psi = np.array([phi.psi1(s + shift) for s in range(2 * L + 1)], dtype=complex)
        d = np.array([phi(s) - phi(s + 1) for s in range(2 * L)], dtype=complex)
        sets.append(_weight_set(psi[total], d[total[:L, :L] + shift], shift + 1))
    weights = sets[0] + sets[1]
    weights[0] = np.array([phi(s) for s in range(2 * L + 1)], dtype=complex)[total]
    return sets[0], sets[1], weights


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


def theorem_suite_per_word(space, symbols, seed=0, words_per_length=10):
    """The main theorem suite with one word operator at a time, built whole
    by ``word_by_products``: one multiplier application and one pair of
    norm bounds on its dense matrix, read through ``EntryStack.from_dense``.
    The right-module check composes with the left multiplication of a
    stack of one coefficient, as the suite does."""
    rng = np.random.default_rng([seed, 5])
    report = VerificationReport()
    max_len = min(3, space.L_max - 2)
    multipliers = [build_T(space, phi) for phi in symbols]
    mults = [(phi, T, _symbol_scale(T)) for phi, T in zip(symbols, multipliers)]
    words = {n: reduced_words(space, *random_word_arrays(rng, space, n, words_per_length))
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
                    kept = EntryStack.from_dense(A.matrix()[0][:, guard])
                    scale = max(max_column_norm(kept)[0], 1e-30)
                    upper = schur_bound(EntryStack.from_dense(d))
                    res_action = _fold(res_action, upper / scale / s)
                res_vacuum = _fold(res_vacuum, _masked_max(diff, 0)
                                   / max(_masked_max(A, 0), 1e-30) / s)
    report.add("theorem_action_on_words", res_action, lengths=max_len,
               per_length=words_per_length, symbols=len(mults))
    report.add("theorem_vacuum_coefficients", res_vacuum)

    _, T0, s = mults[0]
    A = word_by_products(space, words[min(1, max_len)][0])
    B = word_by_products(space, words[0][0])
    al, be = complex(rng.standard_normal()), complex(rng.standard_normal())
    diff = T0.apply_matrix(al * A + be * B) - al * T0.apply_matrix(A) - be * T0.apply_matrix(B)
    report.add("multiplier_linearity", op_norm(diff)[0] / max(op_norm(A)[0], 1.0) / s)
    lam = left_mult(space, [space.base.random(rng)])
    guard = space.guard_mask(space.L_max - max(1, max_len))
    diff = T0.apply_matrix(A @ lam) - T0.apply_matrix(A) @ lam
    report.add("multiplier_right_module",
               op_norm(EntryStack.from_dense(diff.matrix()[0][:, guard]))[0]
               / max(op_norm(A)[0], 1.0) / s)
    return report


def word_vacuum_images_dense(space, max_len):
    """Yield the coordinate arrays of u_{g_1} ... u_{g_n} b applied to the
    vacuum, for every word (g_1, ..., g_n) of length <= max_len (in basis
    order) and every N-basis element b: the vacuum array multiplied by the
    stack of the left multiplications by the N basis, then right to left
    by the letters' embeddings, each built once."""
    embeds = {(i, g): embedded(space, [i], [space.amalgam.factors[i].unitary(g)])
              for i, g in space.amalgam.letters()}
    vac = to_array(word_vector(space, index_of(space)))
    starts = left_mult(space, space.base.basis()) @ vac
    for w in word_list(space):
        if len(w) > max_len:
            continue
        for vec in starts:
            for letter in reversed(w.letters):
                vec = (embeds[letter] @ vec)[0]
            yield vec


def lambda_span_dense(space, k):
    """Yield the length-k sector's spanning family, one Fock vector per
    word and N-basis element, as coordinate arrays."""
    for j, w in enumerate(word_list(space)):
        if len(w) == k:
            for b in space.base.basis():
                yield to_array(FockVector(space, {j: b}))


def dense_rank(columns) -> int:
    """Rank (singular values above 1e-10) of the columns stacked whole."""
    return int(np.linalg.matrix_rank(np.stack(list(columns), axis=1), tol=1e-10))
