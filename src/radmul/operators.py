"""Operator toolkit on the truncated Fock space.

Building blocks: creation/annihilation by basis letters on either side,
length-diagonal maps D_x (the length-k sector scaled by x(k)), the
right-shift average

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

Each of these maps -- Phi1, Phi2, T1, T2 and T -- is one weight stack over
one tower: the ``tower`` of an operator A lists A, its rho-iterates and the
rho-iterates of eps(A), and ``weighted_sum`` scales every entry of tower
member m between words of lengths a and b by W[m, a, b].  ``phi_weights``
builds the stack of one Phi block; the pair sums depend on the pairs only
through h and k, so the multiplier reads its stacks off the symbol in
closed form.  ``_tower_stack`` lays out every stack: W0 on A, and one
matrix P past it, P[a-n, b-n] on rho^n(A) or rho^{n-1}(eps(A)) between
lengths a, b >= n; P is x y^* for a Phi block, h or k for T1 or T2.

Everything here commutes with the right N-action, except the right
creations, which are covariant: R_{gamma*}(xi b) = R_{gamma*}(xi) alpha_g(b).
A :class:`StructuredOperator` holds one dim_N x dim_N block per word pair.
Creations and annihilations are partial word maps, each one read of the
space's word graph (the ``FockSpace`` tables), left N-multiplication the
identity map with the pushed blocks U_w b U_w*; a product joins the left
factor's columns to the right factor's rows, and adds the entries that
meet on one pair, which happens only when the left factor repeats a row or
a column; rho maps every entry through all the letters' right creations at
once (``appended`` at the starred letters); epsilon keeps the entries
whose row and column words end in the same factor.  Sums over letters and
factors run in configuration order.

Every operator is a stack: each entry carries its sample, and a single
operator is a stack of one.  Every operation runs once for a whole stack,
each sample coming out exactly as it does alone, entry order included.
``generator_operators`` builds a family of generator words as one stack;
``matrix()``, ``op @ x``, ``block_max`` and ``op_norm`` give one result per
sample when the flag ``stacked`` is set.

The operator is the package's one sparse matrix type.  ``amplify`` builds
the amplifications sum_i C_i (x) A_i of the norm-bound sampler on the A_i's
word pairs, with m dim_N x m dim_N blocks, and ``op_norm`` reads the
scalar entries of any operator off its blocks.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .fock import FockSpace, FockVector, Word
from .report import VerificationReport
from .sparse import _per_sample, coalesce, op_norm, sum_at
from .symbols import RadialSymbol

class StructuredOperator:
    """A stack of linear maps on the truncated Fock space, block-sparse on
    word pairs; a single map is a stack of one.

    ``blocks[e]`` is the k x k block from the column word ``cols[e]`` to the
    row word ``rows[e]`` of sample ``samples[e]`` (each pair at most once
    per sample), k = dim_N except for an amplification (``amplify``).
    Products, sums, scalar multiples (one scalar per sample for an array)
    and the adjoint work sample by sample.  ``entries()`` lists the nonzero
    scalar entries, and ``matrix()`` scatters them into the dense matrix
    (once, kept for later calls);
    ``op @ x`` and ``op(vec)`` apply the operator to a coordinate array and
    to a Fock vector.
    """

    # numpy arrays and scalars leave ``array * op`` to __rmul__
    __array_ufunc__ = None

    def __init__(self, space: FockSpace, rows, cols, blocks, name: str = "op",
                 samples=0, n_samples: int = 1, stacked: bool = False):
        self.space = space
        self.name = name
        self.rows = np.asarray(rows, dtype=np.intp)
        self.cols = np.asarray(cols, dtype=np.intp)
        self.blocks = np.asarray(blocks, dtype=complex)
        self.samples = (np.asarray(samples, dtype=np.intp) if np.ndim(samples)
                        else np.full(self.rows.shape, samples, dtype=np.intp))
        self.n_samples, self.stacked = int(n_samples), stacked
        self._matrix = None

    @property
    def shape(self) -> tuple:
        n = len(self.space.words) * self.blocks.shape[-1]
        return (n, n)

    def __call__(self, vec: FockVector) -> FockVector:
        return self.space.from_array(self @ vec.to_array())

    def matrix(self) -> np.ndarray:
        if self._matrix is None:
            samples, rows, cols, values = self.entries()
            out = np.zeros((self.n_samples,) + self.shape, dtype=complex)
            out[samples, rows, cols] = values
            self._matrix = _per_sample(self, out)
        return self._matrix

    def entries(self) -> tuple:
        """The nonzero scalar entries (samples, rows, cols, values).  The
        basis is m copies of the Fock space's, m = 1 except for an
        amplification (``amplify``), whose blocks are m x m arrays of
        dim_N x dim_N blocks: entry [p k + a, q k + b] of the block of word
        pair (r, c) sits at row p dim + r k + a, column q dim + c k + b
        (k = dim_N)."""
        k, dim = self.space.dim_N, self.space.dim
        e, i, j = np.nonzero(self.blocks)
        (p, a), (q, b) = np.divmod(i, k), np.divmod(j, k)
        return (self.samples[e], p * dim + self.rows[e] * k + a,
                q * dim + self.cols[e] * k + b, self.blocks[e, i, j])

    def _new(self, samples, rows, cols, blocks, name: str) -> "StructuredOperator":
        """An operator with these entries in this operator's stack."""
        return StructuredOperator(self.space, rows, cols, blocks, name, samples,
                                  self.n_samples, self.stacked)

    def block_max(self):
        """Largest absolute block entry, 0 where there is none, per sample
        (nan where an entry is nan)."""
        out = np.zeros(self.n_samples)
        if self.blocks.size:
            with np.errstate(invalid="ignore"):  # a nan entry is kept, not warned about
                np.maximum.at(out, self.samples, np.abs(self.blocks).max(axis=(1, 2)))
        return _per_sample(self, out)

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

    def select(self, keep) -> "StructuredOperator":
        """The stack of the samples ``keep`` marks, renumbered in order."""
        on = keep[self.samples]
        renumber = np.cumsum(keep) - 1
        return StructuredOperator(self.space, self.rows[on], self.cols[on], self.blocks[on],
                                  self.name, renumber[self.samples[on]],
                                  int(np.count_nonzero(keep)), True)

    def as_single(self, name: str) -> "StructuredOperator":
        """This stack of one as a single operator."""
        return StructuredOperator(self.space, self.rows, self.cols, self.blocks, name)

    def renamed(self, name: str) -> "StructuredOperator":
        return self._new(self.samples, self.rows, self.cols, self.blocks, name)

    def adjoint(self) -> "StructuredOperator":
        return self._new(self.samples, self.cols, self.rows,
                         self.blocks.conj().transpose(0, 2, 1), self.name + "*")

    def __matmul__(self, other):
        if isinstance(other, StructuredOperator):
            _same_stack(self, other)
            return self._new(*_product(self, other), "(%s %s)" % (self.name, other.name))
        # the coordinates by word, those of a word's m copies side by side
        k = self.space.dim_N
        m = self.blocks.shape[-1] // k
        x = np.asarray(other, dtype=complex).reshape(m, -1, k).swapaxes(0, 1).reshape(-1, m * k)
        terms = (self.blocks @ x[self.cols][:, :, None])[:, :, 0]
        out = sum_at(self.samples * len(x) + self.rows, terms, self.n_samples * len(x))
        out = out.reshape(self.n_samples, -1, m, k).swapaxes(1, 2)
        return _per_sample(self, out.reshape(self.n_samples, -1))

    def __add__(self, other: "StructuredOperator") -> "StructuredOperator":
        return op_sum(self.space, [self, other], "(%s + %s)" % (self.name, other.name))

    def __sub__(self, other: "StructuredOperator") -> "StructuredOperator":
        return self + (-other)

    def __rmul__(self, scalar) -> "StructuredOperator":
        """scalar * op; ``scalar`` may hold one scalar per sample."""
        if np.ndim(scalar):
            scale = np.asarray(scalar, dtype=complex)[self.samples][:, None, None]
            return self._new(self.samples, self.rows, self.cols, scale * self.blocks,
                             "(scaled %s)" % self.name)
        scalar = complex(scalar)
        return self._new(self.samples, self.rows, self.cols, scalar * self.blocks,
                         "(%r * %s)" % (scalar, self.name))

    def __neg__(self) -> "StructuredOperator":
        return self._new(self.samples, self.rows, self.cols, -self.blocks, "-" + self.name)


def stack(ops) -> StructuredOperator:
    """Single operators as the samples of one stack, in order."""
    return StructuredOperator(ops[0].space, np.concatenate([op.rows for op in ops]),
                              np.concatenate([op.cols for op in ops]),
                              np.concatenate([op.blocks for op in ops]), "stack",
                              np.repeat(np.arange(len(ops)), [op.rows.size for op in ops]),
                              len(ops), True)


def _same_stack(*ops) -> None:
    """Operands of one product or sum are single operators or stacks of one size."""
    if len({(op.stacked, op.n_samples) for op in ops}) > 1:
        raise ValueError("operands from different stacks")


def _product(a: StructuredOperator, b: StructuredOperator) -> tuple:
    """The entries (samples, rows, cols, blocks) of a @ b: each entry (j, c)
    of b meets every entry (r, j) of a in the same sample, in a's entry
    order.  Two products land on one pair (r, c) only when a repeats a row or
    a column in a sample; then they are added (``coalesce``).
    """
    n = len(a.space.words)
    size = a.n_samples * n
    key_a, key_b = a.samples * n + a.cols, b.samples * n + b.rows
    count = np.bincount(key_a, minlength=size)
    order = np.argsort(key_a, kind="stable")
    start = np.cumsum(count) - count
    reps = count[key_b]
    eb = np.repeat(np.arange(key_b.size), reps)
    ea = order[np.repeat(start[key_b], reps) + np.arange(eb.size)
               - np.repeat(np.cumsum(reps) - reps, reps)]
    out = (b.samples[eb], a.rows[ea], b.cols[eb], a.blocks[ea] @ b.blocks[eb])
    repeats = max(count.max(initial=0),
                  np.bincount(a.samples * n + a.rows, minlength=size).max(initial=0)) > 1
    return coalesce(*out, n) if repeats else out


def op_sum(space: FockSpace, ops, name: str = "sum") -> StructuredOperator:
    """sum of the operators, entries on the same word pair added in list
    order, sample by sample."""
    _same_stack(*ops)
    merged = coalesce(*(np.concatenate([getattr(op, f) for op in ops])
                        for f in ("samples", "rows", "cols", "blocks")), len(space.words))
    return ops[0]._new(*merged, name)


def amplify(coeffs, ops) -> StructuredOperator:
    """sum_i C_i (x) A_i for operators A_i with one m x m scalar block C_i
    per sample, in the A_i's stack: each word pair of A_i keeps its place
    and its block B becomes kron(C_i, B), an m dim_N x m dim_N block (see
    ``entries`` for its place in the basis), and the terms are added in
    order."""
    terms = []
    for C, A in zip(coeffs, ops):
        m, k = np.shape(C)[-1], A.blocks.shape[-1]
        C = np.asarray(C).reshape(-1, m, m)[A.samples]
        kron = C[:, :, None, :, None] * A.blocks[:, None, :, None, :]
        terms.append(A._new(A.samples, A.rows, A.cols, kron.reshape(-1, m * k, m * k),
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


def zero_op(space: FockSpace) -> StructuredOperator:
    k = space.dim_N
    return StructuredOperator(space, [], [], np.zeros((0, k, k)), name="0")


def lmul_blocks(space: FockSpace, b: np.ndarray, words: np.ndarray) -> np.ndarray:
    """The blocks kron(U_w b_t U_w*, 1) of left N-multiplication by b_t on
    the word w, for the pairs (b_t, w) = (b[t], words[t])."""
    U = space.push_unitaries[words]
    pushed = U @ b @ U.conj().transpose(0, 2, 1)
    d = space.base.d
    return np.einsum("wpr,qs->wpqrs", pushed, np.eye(d)).reshape(-1, d * d, d * d)


def left_mult(space: FockSpace, b) -> StructuredOperator:
    """Left N-multiplication: on the word w it multiplies the right
    coefficient by b pushed through the letters, i.e. kron(U_w b U_w*, 1).
    For a (count, d, d) array of coefficients it is the stack of their left
    multiplications, sample t holding the blocks of b[t] on every word."""
    stacked = np.ndim(b) == 3
    b = np.asarray(b, dtype=complex) if stacked else space.base.element(b)[None]
    samples, words = np.divmod(np.arange(len(b) * len(space.words)), len(space.words))
    return StructuredOperator(space, words, words, lmul_blocks(space, b[samples], words),
                              "lmul", samples, len(b), stacked)


def right_mult(space: FockSpace, b) -> StructuredOperator:
    """The right N-action itself; every toolkit operator commutes with it."""
    block = np.kron(np.eye(space.base.d), space.base.element(b).T)
    return _diag_op(space, np.ones(len(space.words)), "rmul", block)


def _letter(space: FockSpace, letter) -> int:
    """The index t of a letter in ``space.letters``."""
    letter = tuple(letter)
    if letter[1] == 0:
        raise ValueError("creation letters avoid the group identity")
    if letter not in space.letters:
        raise ValueError("letter %r is not one of the configured letters %r"
                         % (letter, space.letters))
    return space.letters.index(letter)


def _map_op(space: FockSpace, target: np.ndarray, blk: np.ndarray,
            name: str) -> StructuredOperator:
    """The partial word map j -> target[j], twisting each coefficient by blk."""
    src = np.flatnonzero(target >= 0)
    return StructuredOperator(space, target[src], src,
                              np.broadcast_to(blk, (src.size,) + blk.shape), name)


def creation(space: FockSpace, letter) -> StructuredOperator:
    """L_gamma: prepend the letter; zero against a same-factor start or overflow."""
    t = _letter(space, letter)
    return _map_op(space, space.prepended[t], np.eye(space.dim_N), "L%r" % (space.letters[t],))


def annihilation(space: FockSpace, letter) -> StructuredOperator:
    """L*_gamma: strip a matching first letter; zero on the vacuum sector."""
    t = _letter(space, letter)
    return _map_op(space, space.stripped[t], np.eye(space.dim_N), "L*%r" % (space.letters[t],))


def right_creation(space: FockSpace, letter) -> StructuredOperator:
    """R_{gamma*}: append gamma* = u_{g^{-1}}; zero against a same-factor end."""
    t = _letter(space, letter)
    return _map_op(space, space.appended[space.star[t]], space.twists[t],
                   "R%r" % (space.letters[t],))


def right_annihilation(space: FockSpace, letter) -> StructuredOperator:
    """R*_{gamma*}: strip a final gamma*, twisting the coefficient by alpha_{g^{-1}}."""
    t = _letter(space, letter)
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


def start_complement_op(space: FockSpace, i: int) -> StructuredOperator:
    """Projection onto the vacuum plus words not starting in factor i.

    This is the j = 0 slot of the factor embedding: the basis element
    e_0 = 1 neither creates nor annihilates, it guards the sector where
    the factor acts through its N-part.
    """
    return _diag_op(space, space.first_factors != i,
                    "P[start!=%d]" % i)


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
    The letters' target words end differently, so no two images land on the
    same word pair."""
    table, alpha = space.appended[space.star], space.twists
    tr, tc = table[:, A.rows], table[:, A.cols]
    t, e = np.nonzero(np.minimum(tr, tc) >= 0)
    blocks = alpha[t] @ A.blocks[e] @ alpha[t].conj().transpose(0, 2, 1)
    return A._new(A.samples[e], tr[t, e], tc[t, e], blocks, "rho(%s)" % A.name)


def rho_tower(space: FockSpace, A: StructuredOperator, n_max: int) -> list:
    """[rho(A), rho^2(A), ..., rho^{n_max}(A)]."""
    out = []
    for _ in range(n_max):
        A = rho_matrix(space, A)
        out.append(A)
    return out


def eps_rho_tower(space: FockSpace, A: StructuredOperator, n_max: int) -> list:
    """[eps(A), rho(eps(A)), ..., rho^{n_max-1}(eps(A))]."""
    E = epsilon_matrix(space, A)
    return [E] + rho_tower(space, E, n_max - 1)


def epsilon_matrix(space: FockSpace, A: StructuredOperator) -> StructuredOperator:
    """sum_i q_i A q_i: the entries whose row and column words end in the
    same factor."""
    last = space.last_factors
    keep = np.flatnonzero((last[A.rows] == last[A.cols]) & (last[A.rows] >= 0))
    return A.subset(keep).renamed("eps(%s)" % A.name)


def tower(space: FockSpace, A: StructuredOperator) -> list:
    """The 2L+1 operators a weight stack weights, L = ``space.L_max``:

        [A, rho(A), ..., rho^L(A), eps(A), rho(eps(A)), ..., rho^{L-1}(eps(A))],

    so member n <= L is rho^n(A) and member L+n, n >= 1, is rho^{n-1}(eps(A)).
    """
    return [A] + rho_tower(space, A, space.L_max) + eps_rho_tower(space, A, space.L_max)


def weighted_sum(space: FockSpace, W: np.ndarray, tower: list) -> StructuredOperator:
    """sum_m W[m, |r|, |c|] tower[m][r, c] for a (2L+1, L+1, L+1) weight
    stack W, indexed by tower member, row word length and column word length.

    Each entry is scaled by the weight of its word lengths, entries of zero
    weight are dropped, and the entries on one word pair are added in tower
    order.  A symbol near the float range may overflow here; the inf or nan
    it leaves makes the checks that read the result fail, so numpy is not
    asked to warn about it as well.
    """
    m = np.repeat(np.arange(len(tower)), [op.rows.size for op in tower])
    rows = np.concatenate([op.rows for op in tower])
    cols = np.concatenate([op.cols for op in tower])
    w = W[m, space.lengths[rows], space.lengths[cols]]
    keep = np.nonzero(w)[0]
    samples = np.concatenate([op.samples for op in tower])[keep]
    with np.errstate(over="ignore", invalid="ignore"):
        blocks = w[keep, None, None] * np.concatenate([op.blocks for op in tower])[keep]
        out = coalesce(samples, rows[keep], cols[keep], blocks, len(space.words))
    return tower[0]._new(*out, "sum")


def _tower_stack(W0, P: np.ndarray, variant: int) -> np.ndarray:
    """The (2L+1, L+1, L+1) weight stack, L = len(W0) - 1, of a ``tower``:
    W0 on A, and P[a-n, b-n] between lengths a, b >= n on rho^n(A)
    (variant 1) or rho^{n-1}(eps(A)) (variant 2), n = 1, ..., L."""
    L = len(W0) - 1
    W = np.zeros((2 * L + 1, L + 1, L + 1), dtype=complex)
    W[0] = W0
    for n in range(1, L + 1):
        m = min(L + 1 - n, P.shape[0])
        W[n if variant == 1 else L + n, n:n + m, n:n + m] = P[:m, :m]
    return W


def phi_weights(space: FockSpace, variant: int, x, y) -> np.ndarray:
    """Weight stack of Phi^(variant)_{x,y}: sum_t x(a+t) conj(y(b+t)) on A,
    and P = x y^* past it (``_tower_stack``)."""
    L = space.L_max
    P = np.outer(x, np.conj(y))
    return _tower_stack([[np.trace(P[a:, b:]) for b in range(L + 1)] for a in range(L + 1)],
                        P, variant)


def phi_block_matrix(space: FockSpace, variant: int, x, y,
                     A: StructuredOperator) -> StructuredOperator:
    """Phi^(variant)_{x,y}(A)."""
    return weighted_sum(space, phi_weights(space, variant, x, y), tower(space, A))


def phi_cb_bound(space: FockSpace, x, y) -> float:
    """Row/column bound for the Phi factorization: the product of the operator
    norms of sum_k u_k u_k* and sum_k v_k* v_k for the concrete families

        u = { D_{(S*)^n x},  D_{S^n x} R_zeta },   v likewise from y.

    The exact partition of shifted weights makes both sums multiples of the
    identity, so the value never exceeds ||x||_2 ||y||_2.  Every term is a
    diagonal map D times a diagonal operator times D*, a row and column
    scaling of entries.
    """
    def side(v: np.ndarray) -> float:
        v = np.asarray(v, dtype=complex).ravel()
        terms = []
        for n in range(len(v)):
            dn = diag(space, v[n:])  # (S*)^n v
            terms.append(dn @ dn.adjoint())
        # rho^n(Id) = Q_n on the truncated space
        for n, B in enumerate(rho_tower(space, identity_op(space), space.L_max), start=1):
            dn = diag(space, np.concatenate([np.zeros(n), v]))  # S^n v
            terms.append(dn @ B @ dn.adjoint())
        return op_norm(op_sum(space, terms))

    return float(np.sqrt(side(x)) * np.sqrt(side(y)))


def partition_identity_residual(space: FockSpace, x) -> float:
    """Scalar shadow of the shifted-weight partition: for every admissible
    length k, sum_{n>=0} |x(k+n)|^2 + sum_{n=1}^{k} |x(k-n)|^2 = ||x||^2.
    """
    x = np.asarray(x, dtype=complex).ravel()
    target = float(np.vdot(x, x).real)
    worst = 0.0
    for k in range(space.L_max + 1):
        total = sum(abs(x[k + n]) ** 2 for n in range(len(x) - k))
        total += sum(abs(x[k - n]) ** 2 for n in range(1, k + 1))
        worst = max(worst, abs(total - target))
    return worst


class CaseTag(enum.Enum):
    CASE1 = 1
    CASE2 = 2


@dataclass(frozen=True)
class GeneratorWord:
    """b_0 L_{xi_1} b_1 ... L_{xi_k} b_k  L*-string  with interleaved coefficients.

    ``cre_letters`` lists xi_1..xi_k outside-in (xi_1 is applied last).
    ``ann_letters`` lists eta_1..eta_l in the order they consume the
    argument word's letters: eta_1 strips the leading letter first, and
    eta_l -- the last entry -- acts adjacent to the final creation letter
    L_{xi_k}.  ``ann_coeffs[j]`` left-multiplies right before eta_j strips.
    Each string is a reduced word (``Word``): consecutive letters come from
    distinct factors, and no letter is the group identity.
    """

    cre_letters: tuple = ()
    ann_letters: tuple = ()
    cre_coeffs: tuple = ()  # (b_0, ..., b_k); empty means identities
    ann_coeffs: tuple = ()  # (bt_1, ..., bt_l); empty means identities

    def __post_init__(self):
        object.__setattr__(self, "cre_letters", tuple(tuple(l) for l in self.cre_letters))
        object.__setattr__(self, "ann_letters", tuple(tuple(l) for l in self.ann_letters))
        for seq in (self.cre_letters, self.ann_letters):
            Word(seq)  # raises unless the letters form a reduced word
        if self.cre_coeffs and len(self.cre_coeffs) != self.k + 1:
            raise ValueError("need k+1 creation-side coefficients")
        if self.ann_coeffs and len(self.ann_coeffs) != self.l:
            raise ValueError("need l annihilation-side coefficients")

    @property
    def k(self) -> int:
        return len(self.cre_letters)

    @property
    def l(self) -> int:
        return len(self.ann_letters)

    @property
    def case(self) -> CaseTag:
        if self.k == 0 or self.l == 0:
            return CaseTag.CASE1
        if self.cre_letters[-1][0] == self.ann_letters[-1][0]:
            return CaseTag.CASE2
        return CaseTag.CASE1

    def operator(self, space: FockSpace) -> StructuredOperator:
        return generator_operators(space, [self]).as_single("gen(k=%d,l=%d)" % (self.k, self.l))


def _chain(space: FockSpace, gw: GeneratorWord) -> list:
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


def generator_operators(space: FockSpace, gens) -> StructuredOperator:
    """The generator words ``gens`` as one stack, sample t holding gens[t].

    Generators whose chains (``_chain``) have the same kinds of factors
    follow every column word of every sample through the chain together,
    right to left: one read of the space's word graph per letter, and per
    coefficient its block at the current word multiplied on from the left,
    as the product does.  Each sample gets its product's entries in its
    order (column words ascending).
    """
    n = len(space.words)
    chains = [_chain(space, gw) for gw in gens]
    groups = {}
    for t, chain in enumerate(chains):
        groups.setdefault(tuple(kind for kind, _ in chain), []).append(t)
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
    order = np.argsort(samples, kind="stable")
    return StructuredOperator(space, rows[order], cols[order], blocks[order], "gen(stack)",
                              samples[order], len(gens), True)


def _weight_stack(phi: RadialSymbol, L: int, variant: int) -> np.ndarray:
    """Weight stack of T1 (variant 1) or T2 (variant 2), laid out as the
    stack of a Phi block of the same variant.

    Summing the Phi blocks over the rank-one pairs of h (or k) leaves, with
    shift = variant - 1 and d(s) = phi(s) - phi(s+1), the weight
    psi1(a+b+shift) on A and, past it, P = (d(i+j+shift)), the Hankel
    matrix itself in place of x y^* (``_tower_stack``).
    """
    shift = variant - 1
    psi = np.array([phi.psi1(s + shift) for s in range(2 * L + 1)], dtype=complex)
    d = np.array([phi(s) - phi(s + 1) for s in range(2 * L)], dtype=complex)
    total = np.add.outer(np.arange(L + 1), np.arange(L + 1))
    return _tower_stack(psi[total], d[total[:L, :L] + shift], variant)


class RadialMultiplier:
    """The assembled transformer a -> T(a) = T1(a) + T2(a) + c a.

    T1 sums Phi1 blocks over the rank-one pairs of the first Hankel
    difference matrix, T2 sums Phi2 blocks over the pairs of the second,
    and c is the symbol's limit.  The pair sums collapse into weight stacks
    over the argument's ``tower``, read off the symbol in closed form:
    ``t1_weights`` on A and its rho-iterates, ``t2_weights`` on A and the
    rho-iterates of eps(A), and ``weights``, which is T itself.  Past the
    weight of A the two stacks fill disjoint members, so T's are theirs;
    T's weight of A, psi1(a+b) + psi2(a+b) + c, is phi(a+b), read off phi
    itself, since the sum cancels where psi1 is large (|psi1| ~ 1/(1+z) for
    a tail ratio z near -1) while |phi| stays small.
    """

    def __init__(self, space: FockSpace, symbol: RadialSymbol):
        self.space = space
        L = space.L_max
        self.t1_weights = _weight_stack(symbol, L, 1)
        self.t2_weights = _weight_stack(symbol, L, 2)
        phi = np.array([symbol(s) for s in range(2 * L + 1)], dtype=complex)
        idx = np.arange(L + 1)
        with np.errstate(over="ignore", invalid="ignore"):  # inf - inf near the float range
            self.weights = self.t1_weights + self.t2_weights
        self.weights[0] = phi[idx[:, None] + idx[None, :]]

    def apply_matrix(self, A: StructuredOperator) -> StructuredOperator:
        """T(A)."""
        return weighted_sum(self.space, self.weights, tower(self.space, A))


def build_T(space: FockSpace, phi: RadialSymbol) -> RadialMultiplier:
    return RadialMultiplier(space, phi)


def adjoint_check(a: StructuredOperator, a_star: StructuredOperator, tol: float = 1e-12,
                  seed: int = 0) -> VerificationReport:
    """Confirm that ``a_star``, built by its own rule, is the adjoint of ``a``:
    entry by entry against a's conjugate transpose (the largest block of
    the difference, 0 when it has no entries), and against inner products
    <A xi, eta> = <xi, A* eta> of four pairs of random unit vectors, so that
    the pairing residual is rounding on the scale of A, whatever the
    dimension.
    """
    space = a.space
    report = VerificationReport()
    diff = (a_star - a.adjoint()).blocks
    res = float(np.abs(diff).max()) if diff.size else 0.0
    report.add("adjoint_matrix[%s]" % a.name, res, tol)
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(4):
        xi, eta = space.random_vector(rng), space.random_vector(rng)
        worst = max(worst, abs(a(xi).inner(eta) - xi.inner(a_star(eta))))
    report.add("adjoint_pairing[%s]" % a.name, worst, tol)
    return report
