"""Operator toolkit on the truncated Fock space.

Building blocks: creation/annihilation on either side by a basis letter,
given by its index t in ``space.letters``, length-diagonal maps D_x (the
length-k sector scaled by x(k)), the right-shift average

    rho(a) = sum_{gamma} R_{gamma*} a R_{gamma*}^*,

the end-sector compression

    epsilon(a) = sum_i q_i a q_i,

and the two transformer families

    Phi1_{x,y}(a) = sum_{n>=0} D_{(S*)^n x} a D*_{(S*)^n y}
                  + sum_{n>=1} D_{S^n x} rho^n(a) D*_{S^n y}
    Phi2_{x,y}(a) = (same head) + sum_{n>=1} D_{S^n x} rho^{n-1}(epsilon(a)) D*_{S^n y}

from which the radial multiplier T = T1 + T2 + c*Id is built: T1 sums
Phi1 blocks over the rank-one pairs of the symbol's first Hankel difference
matrix h, T2 sums Phi2 blocks over the pairs of the second one, k.  S is
the forward shift ((S x)(0) = 0, (S x)(t) = x(t-1)), so D_{(S*)^n x}
scales the length-k sector by x(k+n) and D_{S^n x} by x(k-n); as arrays,
(S*)^n x is x[n:] and S^n x is n zeros followed by x.

Each of these maps -- Phi1, Phi2, T1, T2 and T -- is one weight set
(W0, P1, P2) of three tables by row and column word length: every shifted
copy of an entry of A keeps the weight of the lengths it had before the
shifts, so ``apply_weights`` sums the shifts by Horner's rule.
``phi_weights`` builds the set of one Phi block (P1 or P2 is x y^*); the
pair sums depend on the pairs only through h and k, so the multiplier
reads its sets off the symbol in closed form.  The row sums of the Phi
factorization are Phi1_{v,v}(Id), so they take the same route.

Everything here commutes with the right N-action, except the right
creations, which are covariant: R_{gamma*}(xi b) = R_{gamma*}(xi) alpha_g(b).
A :class:`StructuredOperator` holds one dim_N x dim_N block per word pair.
Creations and annihilations are partial word maps, each one read of the
space's word graph (the ``FockSpace`` tables), and a product joins the left
factor's columns to the right factor's rows (``coalesce``).  Sums over
letters and factors run in configuration order.

The factor embeddings are the paper's x -> sum_{j,k} L_{e_j} E(e_j* x e_k)
L*_{e_k} over a factor's module basis (e_j); for N x| G and the basis
(u_g) that is embed(a) = sum_g lmul(a_g) U_g, a = sum_g a_g u_g, U_g the
word map of u_g (``_unitary_words``), and on u_e = 1 alone it is the left
N-action.  Products of embedded kernel letters (``word_operator``) realize
reduced words of the amalgamated free product; ``lambda_span`` and
``word_vacuum_images`` are the spanning families of the rank checks, one
column per vector, block diagonal on words.

Every operator is a stack: each entry carries its sample, and a single
operator is a stack of one.  Every operation runs once for a whole stack,
each sample coming out exactly as it does alone, entry order included, and
``matrix()``, ``op @ x``, ``block_max`` and ``op_norm`` give one result per
sample.  A family of generator words is one :class:`Generators`, arrays of
letter indices and coefficients, and ``generator_operators`` builds it as
one stack from the columns where each generator acts; ``stack`` joins
stacks into one, so that ``apply_weights`` can weigh each sample by its
own weight set in one pass, and ``unstack`` is the one way to cut a stack
back into consecutive ranges of samples.

The operator is the package's one sparse matrix type, with one scalar
layout, word-major: ``entries()`` and ``op @ x`` put the k x k block of word
pair (r, c) on rows r k, ..., r k + k - 1 and columns c k, ..., c k + k - 1.
``amplify`` builds the amplifications sum_i A_i (x) C_i of the norm-bound
sampler, block B of A_i becoming kron(B, C_i), and ``op_norm`` reads them.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .fock import FockSpace
from .sparse import coalesce, op_norm, sum_at
from .symbols import RadialSymbol

class StructuredOperator:
    """A stack of linear maps on the truncated Fock space, block-sparse on
    word pairs; a single map is a stack of one.

    ``blocks[e]`` is the k x k block from the column word ``cols[e]`` to the
    row word ``rows[e]`` of sample ``samples[e]`` (each pair at most once
    per sample), k = dim_N except for an amplification (``amplify``).
    Products, sums, scalar multiples (one scalar per sample for an array)
    and the adjoint work sample by sample.  ``entries()`` lists the nonzero
    scalar entries, and ``matrix()`` scatters them into the dense matrix of
    each sample (once, kept for later calls); ``op @ x`` applies each
    sample to a coordinate array, the package's one form of a Fock vector.
    """

    # numpy arrays and scalars leave ``array * op`` to __rmul__
    __array_ufunc__ = None

    def __init__(self, space: FockSpace, rows, cols, blocks, name: str = "op",
                 samples=0, n_samples: int = 1):
        self.space = space
        self.name = name
        self.rows = np.asarray(rows, dtype=np.intp)
        self.cols = np.asarray(cols, dtype=np.intp)
        self.blocks = np.asarray(blocks, dtype=complex)
        self.samples = (np.asarray(samples, dtype=np.intp) if np.ndim(samples)
                        else np.full(self.rows.shape, samples, dtype=np.intp))
        self.n_samples = int(n_samples)
        self._matrix = None

    @property
    def shape(self) -> tuple:
        n = len(self.space.words) * self.blocks.shape[-1]
        return (n, n)

    def matrix(self) -> np.ndarray:
        if self._matrix is None:
            samples, rows, cols, values = self.entries()
            out = np.zeros((self.n_samples,) + self.shape, dtype=complex)
            out[samples, rows, cols] = values
            self._matrix = out
        return self._matrix

    def entries(self) -> tuple:
        """The nonzero scalar entries (samples, rows, cols, values), word-major:
        entry [a, b] of the k x k block of word pair (r, c) sits at row
        r k + a, column c k + b."""
        k = self.blocks.shape[-1]
        e, i, j = np.nonzero(self.blocks)
        return self.samples[e], self.rows[e] * k + i, self.cols[e] * k + j, self.blocks[e, i, j]

    def _new(self, samples, rows, cols, blocks, name: str) -> "StructuredOperator":
        """An operator with these entries in this operator's stack."""
        return StructuredOperator(self.space, rows, cols, blocks, name, samples,
                                  self.n_samples)

    def block_max(self):
        """Largest absolute block entry, 0 where there is none, per sample
        (nan where an entry is nan)."""
        out = np.zeros(self.n_samples)
        if self.blocks.size:
            np.maximum.at(out, self.samples, np.abs(self.blocks).max(axis=(1, 2)))
        return out

    def subset(self, keep) -> "StructuredOperator":
        """The entries ``keep`` marks, in this operator's stack."""
        return self._new(self.samples[keep], self.rows[keep], self.cols[keep],
                         self.blocks[keep], self.name)

    def columns_upto(self, max_len) -> "StructuredOperator":
        """The entries in the columns of words at most ``max_len`` letters
        long (one bound per sample for an array)."""
        if np.ndim(max_len):
            max_len = np.asarray(max_len)[self.samples]
        return self.subset(self.space.lengths[self.cols] <= max_len)

    def unstack(self, bounds):
        """Yield the stacks of the sample ranges [bounds[i], bounds[i+1]) for
        ascending ``bounds``, the inverse of ``stack``: range i holds its
        samples renumbered from bounds[i] and their entries in this
        operator's entry order.  One stable sort of the samples serves all
        ranges, so a range costs in proportion to its own entries, and each
        range is copied only when it is taken."""
        bounds = np.asarray(bounds, dtype=np.intp)
        order = np.argsort(self.samples, kind="stable")
        cuts = np.searchsorted(self.samples[order], bounds)
        for start, stop, lo, hi in zip(bounds, bounds[1:], cuts, cuts[1:]):
            at = np.sort(order[lo:hi])
            yield StructuredOperator(self.space, self.rows[at], self.cols[at], self.blocks[at],
                                     self.name, self.samples[at] - start, stop - start)

    def renamed(self, name: str) -> "StructuredOperator":
        return self._new(self.samples, self.rows, self.cols, self.blocks, name)

    def adjoint(self) -> "StructuredOperator":
        return self._new(self.samples, self.cols, self.rows,
                         self.blocks.conj().transpose(0, 2, 1), self.name + "*")

    def __matmul__(self, other):
        if isinstance(other, StructuredOperator):
            _same_stack(self, other)
            return self._new(*_product(self, other), "(%s %s)" % (self.name, other.name))
        # the coordinates as a row per word (``entries``)
        x = np.asarray(other, dtype=complex).reshape(-1, self.blocks.shape[-1])
        terms = (self.blocks @ x[self.cols][:, :, None])[:, :, 0]
        out = sum_at(self.samples * len(x) + self.rows, terms, self.n_samples * len(x))
        return out.reshape(self.n_samples, -1)

    def __add__(self, other: "StructuredOperator") -> "StructuredOperator":
        return op_sum(self.space, [self, other], "(%s + %s)" % (self.name, other.name))

    def __sub__(self, other: "StructuredOperator") -> "StructuredOperator":
        return self + (-other)

    def __rmul__(self, scalar) -> "StructuredOperator":
        """scalar * op, ``scalar`` one scalar for all samples or one per sample."""
        scale = np.broadcast_to(np.asarray(scalar, dtype=complex), (self.n_samples,))
        return self._new(self.samples, self.rows, self.cols,
                         scale[self.samples, None, None] * self.blocks, "(scaled %s)" % self.name)

    def __neg__(self) -> "StructuredOperator":
        return self._new(self.samples, self.rows, self.cols, -self.blocks, "-" + self.name)


def stack(ops) -> StructuredOperator:
    """The stacks ``ops`` joined into one, in order: sample s of ops[i]
    becomes s plus the sample counts of ops[:i]."""
    offsets = np.cumsum([0] + [op.n_samples for op in ops])
    return StructuredOperator(ops[0].space, np.concatenate([op.rows for op in ops]),
                              np.concatenate([op.cols for op in ops]),
                              np.concatenate([op.blocks for op in ops]), "stack",
                              np.concatenate([op.samples + at for op, at in zip(ops, offsets)]),
                              offsets[-1])


def _same_stack(*ops) -> None:
    """Operands of one product or sum hold the same number of samples."""
    if len({op.n_samples for op in ops}) > 1:
        raise ValueError("operands from different stacks")


def _product(a: StructuredOperator, b: StructuredOperator) -> tuple:
    """The entries (samples, rows, cols, blocks) of a @ b: each entry (j, c)
    of b meets every entry (r, j) of a in the same sample, in a's entry
    order; ``coalesce`` sorts them by position and adds those on one pair
    (r, c).
    """
    n = len(a.space.words)
    size = a.n_samples * n
    key_a, key_b = a.samples * n + a.cols, b.samples * n + b.rows
    count = np.bincount(key_a, minlength=size)
    order = np.argsort(key_a, kind="stable")
    start = np.cumsum(count) - count
    eb, at = _runs(start[key_b], count[key_b])
    ea = order[at]
    return coalesce(b.samples[eb], a.rows[ea], b.cols[eb], a.blocks[ea] @ b.blocks[eb], n)


def op_sum(space: FockSpace, ops, name: str = "sum") -> StructuredOperator:
    """sum of the operators, entries on the same word pair added in list
    order, sample by sample."""
    _same_stack(*ops)
    merged = coalesce(*(np.concatenate([getattr(op, f) for op in ops])
                        for f in ("samples", "rows", "cols", "blocks")), len(space.words))
    return ops[0]._new(*merged, name)


def amplify(coeffs, ops) -> StructuredOperator:
    """sum_i A_i (x) C_i for operators A_i with one m x m scalar block C_i
    per sample, in the A_i's stack: each word pair of A_i keeps its place
    and its block B becomes kron(B, C_i), an m dim_N x m dim_N block, and
    the terms are added in order.  It is sum_i C_i (x) A_i in the word-major
    layout (``entries``), so it has the same norm."""
    terms = []
    for C, A in zip(coeffs, ops):
        m, k = np.shape(C)[-1], A.blocks.shape[-1]
        C = np.asarray(C).reshape(-1, m, m)[A.samples]
        kron = A.blocks[:, :, None, :, None] * C[:, None, :, None, :]
        terms.append(A._new(A.samples, A.rows, A.cols, kron.reshape(-1, k * m, k * m),
                            "(C (x) %s)" % A.name))
    return op_sum(ops[0].space, terms, "amplified")


def _diag_op(space: FockSpace, values, name: str, block=None) -> StructuredOperator:
    """values[w] * block on the diagonal (block: the identity), for the words
    with a nonzero value."""
    values = np.asarray(values)
    block = np.eye(space.dim_N) if block is None else block
    keep = np.flatnonzero(values)
    return StructuredOperator(space, keep, keep, values[keep, None, None] * block, name)


def identity_op(space: FockSpace) -> StructuredOperator:
    return _diag_op(space, np.ones(len(space.words)), "Id")


def lmul_blocks(space: FockSpace, b: np.ndarray, words: np.ndarray) -> np.ndarray:
    """The blocks kron(U_w b_t U_w*, 1) of left N-multiplication by b_t on
    the word w, for the pairs (b_t, w) = (b[t], words[t])."""
    U = space.push_unitaries[words]
    pushed = U @ b @ U.conj().transpose(0, 2, 1)
    d = space.base.d
    return np.einsum("wpr,qs->wpqrs", pushed, np.eye(d)).reshape(-1, d * d, d * d)


def right_mult(space: FockSpace, b) -> StructuredOperator:
    """The right N-action itself; every toolkit operator commutes with it."""
    block = np.kron(np.eye(space.base.d), space.base.element(b).T)
    return _diag_op(space, np.ones(len(space.words)), "rmul", block)


def _map_op(space: FockSpace, target: np.ndarray, blk: np.ndarray,
            name: str) -> StructuredOperator:
    """The partial word map j -> target[j], twisting each coefficient by blk."""
    src = np.flatnonzero(target >= 0)
    return StructuredOperator(space, target[src], src,
                              np.broadcast_to(blk, (src.size,) + blk.shape), name)


def creation(space: FockSpace, t: int) -> StructuredOperator:
    """L_gamma, gamma = space.letters[t]: prepend gamma; zero against a
    same-factor start or overflow."""
    return _map_op(space, space.prepended[t], np.eye(space.dim_N), "L%r" % (space.letters[t],))


def annihilation(space: FockSpace, t: int) -> StructuredOperator:
    """L*_gamma, gamma = space.letters[t]: strip a matching first letter;
    zero on the vacuum sector."""
    return _map_op(space, space.stripped[t], np.eye(space.dim_N), "L*%r" % (space.letters[t],))


def right_creation(space: FockSpace, t: int) -> StructuredOperator:
    """R_{gamma*}, gamma = space.letters[t]: append gamma* = u_{g^{-1}}; zero
    against a same-factor end."""
    return _map_op(space, space.appended[space.star[t]], space.twists[t],
                   "R%r" % (space.letters[t],))


def right_annihilation(space: FockSpace, t: int) -> StructuredOperator:
    """R*_{gamma*}, gamma = space.letters[t]: strip a final gamma*, twisting
    the coefficient by alpha_{g^{-1}}."""
    star = space.star[t]
    return _map_op(space, np.where(space.last_letter == star, space.parent, -1),
                   space.twists[star], "R*%r" % (space.letters[t],))


def length_at_least_op(space: FockSpace, n: int) -> StructuredOperator:
    return _diag_op(space, space.lengths >= n,
                    "P[length_at_least %d]" % n)


def length_exactly_op(space: FockSpace, n: int) -> StructuredOperator:
    return _diag_op(space, space.lengths == n,
                    "P[length_exactly %d]" % n)


def ends_in_factor_op(space: FockSpace, i: int) -> StructuredOperator:
    """Projection onto the words whose last letter is in factor i; the
    vacuum's last factor is -1, so it is never kept."""
    return _diag_op(space, space.last_factors == i,
                    "P[ends_in_factor %d]" % i)


def diag(space: FockSpace, x) -> StructuredOperator:
    """D_x: multiply the length-k sector by x(k), zero past the end of x."""
    x = np.asarray(x, dtype=complex).ravel()[:space.L_max + 1]
    values = np.zeros(space.L_max + 1, dtype=complex)
    values[:x.size] = x
    return _diag_op(space, values[space.lengths], "D")


def rho_matrix(space: FockSpace, A: StructuredOperator) -> StructuredOperator:
    """sum_gamma R A R^*: every entry (r, c, X) goes to
    (r gamma*, c gamma*, alpha X alpha^*) for each letter gamma whose right
    creation is defined on both words, all letters in one vectorized step.
    R_{gamma*} appends a letter of gamma's factor i, so it can act only on
    the words shorter than L_max that end outside i: one mask of the
    entries per factor, emitted once for each of its letters, in (letter,
    entry) order, and a pair whose image the word graph lacks dropped.
    The letters' target words end differently, so no two images land on
    the same word pair."""
    short = (space.lengths[A.rows] < space.L_max) & (space.lengths[A.cols] < space.L_max)
    ends_r, ends_c = space.last_factors[A.rows], space.last_factors[A.cols]
    parts = []
    for i in range(len(space.amalgam.factors)):
        e = np.flatnonzero(short & (ends_r != i) & (ends_c != i))
        t = np.flatnonzero(space.letter_factors == i)
        parts.append((np.repeat(t, e.size), np.tile(e, t.size)))
    t, e = (np.concatenate(x) for x in zip(*parts))
    rows, cols = space.appended[space.star[t], A.rows[e]], space.appended[space.star[t], A.cols[e]]
    keep = np.flatnonzero(np.minimum(rows, cols) >= 0)
    t, e, rows, cols, alpha = t[keep], e[keep], rows[keep], cols[keep], space.twists
    blocks = alpha[t] @ A.blocks[e] @ alpha[t].conj().transpose(0, 2, 1)
    return A._new(A.samples[e], rows, cols, blocks, "rho(%s)" % A.name)


def rho_tower(space: FockSpace, A: StructuredOperator, n_max: int) -> list:
    """[rho(A), rho^2(A), ..., rho^{n_max}(A)]."""
    out = []
    for _ in range(n_max):
        A = rho_matrix(space, A)
        out.append(A)
    return out


def eps_rho_tower(space: FockSpace, A: StructuredOperator, n_max: int) -> list:
    """[eps(A), rho(eps(A)), ..., rho^{n_max-1}(eps(A))]."""
    out = [epsilon_matrix(space, A)]
    for _ in range(n_max - 1):
        out.append(rho_matrix(space, out[-1]))
    return out


def epsilon_matrix(space: FockSpace, A: StructuredOperator) -> StructuredOperator:
    """sum_i q_i A q_i: the entries whose row and column words end in the
    same factor."""
    last = space.last_factors
    keep = np.flatnonzero((last[A.rows] == last[A.cols]) & (last[A.rows] >= 0))
    return A.subset(keep).renamed("eps(%s)" % A.name)


def apply_weights(space: FockSpace, W: np.ndarray, A: StructuredOperator,
                  sets: np.ndarray) -> StructuredOperator:
    """W0 o A + sum_{n=1}^{L} (rho^n(P1 o A) + rho^{n-1}(P2 o eps(A))) for
    sample s of A and the weight set W[sets[s]] = (W0, P1, P2), W a stack of
    (3, L+1, L+1) arrays by row and column word length (L =
    ``space.L_max``); X o B scales each entry of B by X at its lengths and
    drops those of weight 0.
    By Horner's rule: B2 = P2 o eps(A), C = P1 o A + B2, X_0 = 0,
    X_k = rho(X_{k-1} + C), T(A) = W0 o A + B2 + X_L, each sum adding the
    entries on one word pair in that order.  An overflow leaves inf or nan,
    which fails the checks that read it; ``cli.main`` silences numpy's
    warning."""
    def scaled(table, B):
        w = W[sets[B.samples], table, space.lengths[B.rows], space.lengths[B.cols]]
        keep = np.flatnonzero(w)
        return B._new(B.samples[keep], B.rows[keep], B.cols[keep],
                      w[keep, None, None] * B.blocks[keep], B.name)

    B2 = scaled(2, epsilon_matrix(space, A))
    C = X = op_sum(space, [scaled(1, A), B2])
    for _ in range(space.L_max - 1):  # X = X_k + C
        X = op_sum(space, [rho_matrix(space, X), C])
    return op_sum(space, [scaled(0, A), B2, rho_matrix(space, X)])


def _weight_set(W0, P: np.ndarray, variant: int) -> np.ndarray:
    """The weight set (W0, P1, P2), L = len(W0) - 1, with P's top-left L x L
    corner as P1 (variant 1) or, one length on, as P2 (variant 2)."""
    L = len(W0) - 1
    W = np.zeros((3, L + 1, L + 1), dtype=complex)
    W[0] = W0
    m, at = min(L, P.shape[0]), variant - 1
    W[variant, at:at + m, at:at + m] = P[:m, :m]
    return W


def phi_weights(space: FockSpace, variant: int, x, y) -> np.ndarray:
    """Weight set of Phi^(variant)_{x,y}: sum_t x(a+t) conj(y(b+t)) on A,
    and P = x y^* past it (``_weight_set``)."""
    L = space.L_max
    P = np.outer(x, np.conj(y))
    return _weight_set([[np.trace(P[a:, b:]) for b in range(L + 1)] for a in range(L + 1)],
                       P, variant)


def phi_cb_bound(sums: StructuredOperator) -> float:
    """Row/column bound for the Phi factorization from the stack of its row
    sums, Phi1_{x,x}(Id) and Phi1_{y,y}(Id): the square roots of the norms of
    sum_k u_k u_k* and sum_k v_k* v_k for u = { D_{(S*)^n x}, D_{S^n x}
    R_zeta }, v likewise from y, multiplied, so it never exceeds
    ||x||_2 ||y||_2."""
    norms = op_norm(sums)
    return float(np.sqrt(norms[0]) * np.sqrt(norms[1]))


@dataclass(frozen=True, eq=False)
class Generators:
    """A family of generator words

        b_0 L_{xi_1} b_1 ... L_{xi_k} b_k L*_{eta_l} bt_l ... L*_{eta_1} bt_1

    as arrays over its generators t: ``cre[t]`` holds the indices in
    ``space.letters`` of xi_1, ..., xi_k, outside in, ``ann[t]`` those of
    eta_1 (which strips first), ..., eta_l (next to L_{xi_k}), each string
    in the first slots of its row and -1 in the others; ``k[t]`` and
    ``l[t]``, the lengths of the strings, are counted once, when the family
    is made.  Only a generator with coefficients has a row
    ``coeff_rows[t]`` >= 0 in ``cre_coeffs`` (b_0, ..., b_k, then zeros)
    and ``ann_coeffs`` (bt_1, ..., bt_l, then zeros; bt_j left-multiplies
    right before eta_j strips)."""

    cre: np.ndarray
    ann: np.ndarray
    coeff_rows: np.ndarray
    cre_coeffs: np.ndarray = None
    ann_coeffs: np.ndarray = None
    k: np.ndarray = field(init=False)
    l: np.ndarray = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "k", np.count_nonzero(self.cre >= 0, axis=1))
        object.__setattr__(self, "l", np.count_nonzero(self.ann >= 0, axis=1))

    def case2(self, space: FockSpace) -> np.ndarray:
        """Case 2: both strings are nonempty, and xi_k and eta_l, the letters
        that meet, come from one factor; case 1 otherwise."""
        factor = space.letter_factors
        k, l, at = self.k, self.l, np.arange(len(self.cre))
        return (k > 0) & (l > 0) & (factor[self.cre[at, k - 1]] == factor[self.ann[at, l - 1]])


def _runs(starts: np.ndarray, sizes: np.ndarray) -> tuple:
    """(run, index): the indices starts[r], ..., starts[r] + sizes[r] - 1 of
    every run r, runs in order, and the run of each."""
    run = np.repeat(np.arange(len(sizes)), sizes)
    return run, np.repeat(starts - np.cumsum(sizes) + sizes, sizes) + np.arange(run.size)


def _seeds(table: np.ndarray, strings: np.ndarray) -> tuple:
    """(generator, column) for every column word on which all the letter
    steps table[strings[j, 0]], table[strings[j, 1]], ... of generator j are
    defined, in generator then column order, found once per distinct string."""
    key = (strings + 1) @ (table.shape[0] + 1) ** np.arange(strings.shape[1])
    _, first, at = np.unique(key, return_index=True, return_inverse=True)
    found = []
    for string in strings[first]:
        cols = rows = np.arange(table.shape[1])
        for t in string:
            rows = table[t, rows]
            cols, rows = cols[rows >= 0], rows[rows >= 0]
        found.append(cols)
    size = np.array([cols.size for cols in found])
    local, pos = _runs((np.cumsum(size) - size)[at], size[at])
    return local, np.concatenate(found)[pos]


def generator_operators(space: FockSpace, gens: Generators) -> StructuredOperator:
    """The generator family ``gens`` as one stack, sample t holding generator t.

    The generators with the same k, l and coefficients (or none) follow
    their column words through their chains together, right to left: one
    read of ``stripped`` or ``prepended`` per letter, and per coefficient
    its block at the current word multiplied on from the left, as the
    product does.  They start only on the columns where the whole
    annihilation string, or with none the creation string, is defined
    (``_seeds``).  A sample's entries come out in column order, as alone."""
    k, l, has = gens.k, gens.l, gens.coeff_rows >= 0
    # one key per (k, l, has coefficients), in the triples' sort order
    key = (k * (gens.ann.shape[1] + 1) + l) * 2 + has
    _, first, group = np.unique(key, return_index=True, return_inverse=True)
    d = space.dim_N
    parts = [(np.zeros(0, dtype=np.intp),) * 3 + (np.zeros((0, d, d)),)]
    for g in np.argsort(first):  # the groups in the order they first appear
        ids = np.flatnonzero(group == g)
        gk, gl, gc = int(k[first[g]]), int(l[first[g]]), bool(has[first[g]])
        cre, ann, at = gens.cre[ids], gens.ann[ids], gens.coeff_rows[ids]
        steps = []  # (table, letter per generator), or (None, coefficient per generator)
        for j in range(gl):
            if gc:
                steps.append((None, gens.ann_coeffs[at, j]))
            steps.append((space.stripped, ann[:, j]))
        if gc:
            steps.append((None, gens.cre_coeffs[at, gk]))
        for j in reversed(range(gk)):
            steps.append((space.prepended, cre[:, j]))
            if gc:
                steps.append((None, gens.cre_coeffs[at, j]))
        local, cols = (_seeds(space.stripped, ann[:, :gl]) if gl
                       else _seeds(space.prepended, cre[:, :gk][:, ::-1]))
        rows, blocks = cols, None
        for table, values in steps:
            if table is not None:
                rows = table[values[local], rows]
                keep = np.flatnonzero(rows >= 0)
                local, rows, cols = local[keep], rows[keep], cols[keep]
                blocks = None if blocks is None else blocks[keep]
            else:
                lmul = lmul_blocks(space, values[local], rows)
                blocks = lmul if blocks is None else lmul @ blocks
        if blocks is None:
            blocks = np.broadcast_to(np.eye(d), (rows.size, d, d))
        parts.append((ids[local], rows, cols, blocks))
    samples, rows, cols, blocks = (np.concatenate(x) for x in zip(*parts))
    return StructuredOperator(space, rows, cols, blocks, "gen(stack)", samples, len(gens.cre))


def _unitary_words(space: FockSpace, i: int) -> np.ndarray:
    """The word maps of the u_g of factor i's group, a row per g: [g, c] is
    the word of u_g c, -1 past the truncation.  A leading letter (i, h) of
    c becomes (i, gh), dropped where gh = e; a word that does not start in
    factor i takes (i, g) in front, nothing for g = e."""
    words = np.arange(len(space.words))
    at = np.flatnonzero(space.letter_factors == i)
    # row g prepends (i, g), letter at[g - 1], to a word not starting in factor i; row 0 keeps it
    ups = np.vstack((words, space.prepended[at]))
    starts = space.first_factors == i
    h = np.where(starts, space.first_letter - at[0] + 1, 0)
    return ups[space.amalgam.factors[i].group.table[:, h], np.where(starts, space.rest, words)]


def embed(space: FockSpace, factors, coeffs) -> StructuredOperator:
    """The left multiplications by a stack of factor elements (of any
    factors) on the truncated Fock space, sample s holding a = sum_g
    coeffs[s, g] u_g in factor ``factors[s]``: the sum of the lmul(a_g) U_g
    with a_g nonzero, U_g the word map of u_g from ``_unitary_words``, one
    gather per factor.  ``coeffs`` is a (count, G, d, d) array, zero past
    the order of each sample's group; with G = 1 it holds only the
    coefficients of u_e = 1, and the stack is the left N-action."""
    factors, coeffs = np.asarray(factors), np.asarray(coeffs, dtype=complex)
    s, g = np.nonzero(coeffs.any(axis=(2, 3)))  # the terms with a_g nonzero, sample-major
    unitary = np.empty((s.size, len(space.words)), dtype=np.intp)
    # the factors present, in order; a bare np.unique would import numpy.ma
    for i in np.flatnonzero(np.bincount(factors)):
        on = factors[s] == i
        unitary[on] = _unitary_words(space, i)[g[on]]
    live = unitary >= 0
    count = np.count_nonzero(live, axis=1)
    samples, g = np.repeat(s, count), np.repeat(g, count)
    rows, cols = unitary[live], np.nonzero(live)[1]
    coefs = coeffs[samples, g]
    blocks = lmul_blocks(space, coefs, rows)
    samples, rows, cols, blocks = coalesce(samples, rows, cols, blocks, len(space.words))
    return StructuredOperator(space, rows, cols, blocks, "embed", samples, len(factors))


def word_operator(space: FockSpace, factors, letters, coeffs,
                  max_col_len=None) -> StructuredOperator:
    """b_0 embed(a_1) b_1 ... embed(a_n) b_n for a family of reduced words
    of length n, as one stack, sample s holding word s, multiplied right to
    left: a_j has the factor ``factors[s, j-1]`` and the coefficients
    ``letters[s, j-1]``, and b_j is ``coeffs[s, j]``.

    With ``max_col_len`` the last factor is cut to the columns of words at
    most that long, and so is the product, every kept entry adding the same
    terms in the same order.
    """
    count, n = np.shape(factors)
    on_n = np.zeros(count, dtype=np.intp)  # b_j as u_e coefficients, of factor 0
    op = embed(space, on_n, coeffs[:, n, None])
    if max_col_len is not None:
        op = op.columns_upto(max_col_len)
    for j in reversed(range(n)):
        op = embed(space, factors[:, j], letters[:, j]) @ op
        op = embed(space, on_n, coeffs[:, j, None]) @ op
    return op.renamed("word(n=%d)" % n)


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


def word_vacuum_images(space: FockSpace, max_len: int) -> StructuredOperator:
    """The vacuum images u_{g_1} ... u_{g_n} b Omega of the words (g_1, ...,
    g_n) of length <= max_len with the N-basis elements b, as the columns of
    one operator, in ``lambda_span``'s column order.  Grown a length at a
    time by prefix sharing: V_0 = ``lambda_span(space, 0)`` holds the
    columns b Omega, and V_n = sum_gamma embed(u_gamma) @ V_{n-1} @ L*_gamma,
    since u_gamma maps the image of w to that of gamma w."""
    # letter t = (i, g) as embed's coefficients of u_g: the identity at slot g
    letters, d = np.array(space.letters), space.base.d
    order = max(f.group.order for f in space.amalgam.factors)
    units = np.zeros((len(letters), order, d, d), dtype=complex)
    units[np.arange(len(letters)), letters[:, 1]] = space.base.identity()
    embeds = list(embed(space, space.letter_factors, units).unstack(np.arange(len(letters) + 1)))
    images = [lambda_span(space, 0)]
    for _ in range(max_len):
        images.append(op_sum(space, [E @ images[-1] @ annihilation(space, t)
                                     for t, E in enumerate(embeds)]))
    return op_sum(space, images, "images")


def _multiplier_weights(phi: RadialSymbol, L: int, variant: int) -> np.ndarray:
    """Weight set of T1 (variant 1) or T2 (variant 2), laid out as the set
    of a Phi block of the same variant.

    Summing the Phi blocks over the rank-one pairs of h (or k) leaves, with
    shift = variant - 1 and d(s) = phi(s) - phi(s+1), the weight
    psi1(a+b+shift) on A and, past it, P = (d(i+j+shift)), the Hankel
    matrix itself in place of x y^* (``_weight_set``).
    """
    shift = variant - 1
    psi = np.array([phi.psi1(s + shift) for s in range(2 * L + 1)], dtype=complex)
    d = np.array([phi(s) - phi(s + 1) for s in range(2 * L)], dtype=complex)
    total = np.add.outer(np.arange(L + 1), np.arange(L + 1))
    return _weight_set(psi[total], d[total[:L, :L] + shift], variant)


class RadialMultiplier:
    """The assembled transformer a -> T(a) = T1(a) + T2(a) + c a.

    T1 sums Phi1 blocks over the rank-one pairs of the first Hankel
    difference matrix, T2 sums Phi2 blocks over the pairs of the second,
    and c is the symbol's limit.  The pair sums collapse into weight sets
    (W0, P1, P2) for ``apply_weights``, read off the symbol in closed form:
    ``t1_weights`` (P2 = 0), ``t2_weights`` (P1 = 0) and ``weights``, which
    is T itself.  Past W0 the two sets fill disjoint tables, so T's are theirs;
    T's weight of A, psi1(a+b) + psi2(a+b) + c, is phi(a+b), read off phi
    itself, since the sum cancels where psi1 is large (|psi1| ~ 1/(1+z) for
    a tail ratio z near -1) while |phi| stays small.
    """

    def __init__(self, space: FockSpace, symbol: RadialSymbol):
        self.space = space
        L = space.L_max
        self.t1_weights = _multiplier_weights(symbol, L, 1)
        self.t2_weights = _multiplier_weights(symbol, L, 2)
        phi = np.array([symbol(s) for s in range(2 * L + 1)], dtype=complex)
        idx = np.arange(L + 1)
        self.weights = self.t1_weights + self.t2_weights
        self.weights[0] = phi[idx[:, None] + idx[None, :]]

    def apply_matrix(self, A: StructuredOperator) -> StructuredOperator:
        """T(A)."""
        return apply_weights(self.space, self.weights[None], A,
                             np.zeros(A.n_samples, dtype=np.intp))


def build_T(space: FockSpace, phi: RadialSymbol) -> RadialMultiplier:
    return RadialMultiplier(space, phi)
