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

Each of these maps -- Phi1, Phi2, T1, T2 and T -- is one weight set
(W0, P1, P2) of three tables by row and column word length: every shifted
copy of an entry of A keeps the weight of the lengths it had before the
shifts, so ``apply_weights`` sums the shifts by Horner's rule.
``phi_weights`` builds the set of one Phi block (P1 or P2 is x y^*); the
pair sums depend on the pairs only through h and k, so the multiplier
reads its sets off the symbol in closed form.

Everything here commutes with the right N-action, except the right
creations, which are covariant: R_{gamma*}(xi b) = R_{gamma*}(xi) alpha_g(b).
A :class:`StructuredOperator` holds one dim_N x dim_N block per word pair.
Creations and annihilations are partial word maps, each one read of the
space's word graph (the ``FockSpace`` tables), and a product joins the left
factor's columns to the right factor's rows (``coalesce``).  Sums over
letters and factors run in configuration order.

Every operator is a stack: each entry carries its sample, and a single
operator is a stack of one.  Every operation runs once for a whole stack,
each sample coming out exactly as it does alone, entry order included, and
``matrix()``, ``op @ x``, ``block_max`` and ``op_norm`` give one result per
sample.  A family of generator words is one :class:`Generators`, arrays of
letter indices and coefficients, and ``generator_operators`` builds it as
one stack from the columns where each generator acts; ``stack`` joins
stacks into one, so that ``apply_weights`` can weigh each sample by its
own weight set in one pass.

The operator is the package's one sparse matrix type.  ``amplify`` builds
the amplifications sum_i C_i (x) A_i of the norm-bound sampler on the A_i's
word pairs, with m dim_N x m dim_N blocks, and ``op_norm`` reads the
scalar entries of any operator off its blocks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fock import FockSpace
from .report import VerificationReport
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
                                  self.n_samples)

    def block_max(self):
        """Largest absolute block entry, 0 where there is none, per sample
        (nan where an entry is nan)."""
        out = np.zeros(self.n_samples)
        if self.blocks.size:
            with np.errstate(invalid="ignore"):  # a nan entry is kept, not warned about
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

    def select(self, keep) -> "StructuredOperator":
        """The stack of the samples ``keep`` marks, renumbered in order."""
        on = keep[self.samples]
        renumber = np.cumsum(keep) - 1
        return StructuredOperator(self.space, self.rows[on], self.cols[on], self.blocks[on],
                                  self.name, renumber[self.samples[on]],
                                  int(np.count_nonzero(keep)))

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
        return out.reshape(self.n_samples, -1)

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
    b = np.asarray(b, dtype=complex) if np.ndim(b) == 3 else space.base.element(b)[None]
    samples, words = np.divmod(np.arange(len(b) * len(space.words)), len(space.words))
    return StructuredOperator(space, words, words, lmul_blocks(space, b[samples], words),
                              "lmul", samples, len(b))


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


def apply_weights(space: FockSpace, W: np.ndarray, A: StructuredOperator,
                  sets=None) -> StructuredOperator:
    """W0 o A + sum_{n=1}^{L} (rho^n(P1 o A) + rho^{n-1}(P2 o eps(A))) for a
    weight set W = (W0, P1, P2), a (3, L+1, L+1) array by row and column
    word length (L = ``space.L_max``), or for a stack of such sets W, sample
    s of A weighed by set ``sets[s]``; X o B scales each entry of B by X at
    its lengths and drops those of weight 0.
    By Horner's rule: B2 = P2 o eps(A), C = P1 o A + B2, X_0 = 0,
    X_k = rho(X_{k-1} + C), T(A) = W0 o A + B2 + X_L, each sum adding the
    entries on one word pair in that order.  An overflow leaves inf or nan,
    which fails the checks that read it, so numpy does not warn as well."""
    if sets is None:
        W, sets = np.asarray(W)[None], np.zeros(A.n_samples, dtype=np.intp)

    def scaled(table, B):
        w = W[sets[B.samples], table, space.lengths[B.rows], space.lengths[B.cols]]
        keep = np.flatnonzero(w)
        return B._new(B.samples[keep], B.rows[keep], B.cols[keep],
                      w[keep, None, None] * B.blocks[keep], B.name)

    with np.errstate(over="ignore", invalid="ignore"):
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


def partition_sum(space: FockSpace, v) -> StructuredOperator:
    """sum_{n>=0} D_{(S*)^n v} D*_{(S*)^n v} + sum_{n>=1} D_{S^n v} Q_n D*_{S^n v}
    with Q_n = rho^n(Id): the row sum of the Phi factorization for v, each
    term a row and column scaling of entries.  The shifted weights partition
    ||v||^2 on every length, so the sum is ||v||^2 Id."""
    v = np.asarray(v, dtype=complex).ravel()
    terms = []
    for n in range(len(v)):
        dn = diag(space, v[n:])  # (S*)^n v
        terms.append(dn @ dn.adjoint())
    for n, B in enumerate(rho_tower(space, identity_op(space), space.L_max), start=1):
        dn = diag(space, np.concatenate([np.zeros(n), v]))  # S^n v
        terms.append(dn @ B @ dn.adjoint())
    return op_sum(space, terms)


def phi_cb_bound(space: FockSpace, x, y) -> float:
    """Row/column bound for the Phi factorization: the square roots of the
    norms of sum_k u_k u_k* and sum_k v_k* v_k (``partition_sum`` of x and
    of y) for u = { D_{(S*)^n x}, D_{S^n x} R_zeta }, v likewise from y, so
    it never exceeds ||x||_2 ||y||_2."""
    return float(np.sqrt(op_norm(partition_sum(space, x))[0])
                 * np.sqrt(op_norm(partition_sum(space, y))[0]))


@dataclass(frozen=True, eq=False)
class Generators:
    """A family of generator words

        b_0 L_{xi_1} b_1 ... L_{xi_k} b_k L*_{eta_l} bt_l ... L*_{eta_1} bt_1

    as arrays over its generators t: ``cre[t]`` holds the indices in
    ``space.letters`` of xi_1, ..., xi_k, outside in, ``ann[t]`` those of
    eta_1 (which strips first), ..., eta_l (next to L_{xi_k}), each string
    in the first slots of its row and -1 in the others.  Only a generator
    with coefficients has a row ``coeff_rows[t]`` >= 0 in ``cre_coeffs``
    (b_0, ..., b_k, then zeros) and ``ann_coeffs`` (bt_1, ..., bt_l, then
    zeros; bt_j left-multiplies right before eta_j strips)."""

    cre: np.ndarray
    ann: np.ndarray
    coeff_rows: np.ndarray
    cre_coeffs: np.ndarray = None
    ann_coeffs: np.ndarray = None

    @property
    def k(self) -> np.ndarray:
        return np.count_nonzero(self.cre >= 0, axis=1)

    @property
    def l(self) -> np.ndarray:
        return np.count_nonzero(self.ann >= 0, axis=1)

    def case2(self, space: FockSpace) -> np.ndarray:
        """Case 2: both strings are nonempty, and xi_k and eta_l, the letters
        that meet, come from one factor; case 1 otherwise."""
        factor = np.array([i for i, _ in space.letters])
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
    kinds = np.column_stack((gens.k, gens.l, gens.coeff_rows >= 0))
    _, first, group = np.unique(kinds, axis=0, return_index=True, return_inverse=True)
    d = space.dim_N
    parts = [(np.zeros(0, dtype=np.intp),) * 3 + (np.zeros((0, d, d)),)]
    for g in np.argsort(first):  # the groups in the order they first appear
        ids = np.flatnonzero(group.ravel() == g)
        gk, gl, gc = (int(x) for x in kinds[first[g]])
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
        with np.errstate(over="ignore", invalid="ignore"):  # inf - inf near the float range
            self.weights = self.t1_weights + self.t2_weights
        self.weights[0] = phi[idx[:, None] + idx[None, :]]

    def apply_matrix(self, A: StructuredOperator) -> StructuredOperator:
        """T(A)."""
        return apply_weights(self.space, self.weights, A)


def build_T(space: FockSpace, phi: RadialSymbol) -> RadialMultiplier:
    return RadialMultiplier(space, phi)


def adjoint_check(a: StructuredOperator, a_star: StructuredOperator, tol: float = 1e-12,
                  seed: int = 0) -> VerificationReport:
    """Confirm that ``a_star``, built by its own rule, is the adjoint of ``a``:
    entry by entry against a's conjugate transpose (the largest block of
    the difference, 0 when it has no entries), and against inner products
    <A x, y> = <x, A* y> of four pairs of random unit coordinate arrays
    (``FockSpace.random_array``), so that the pairing residual is rounding
    on the scale of A, whatever the dimension.
    """
    report = VerificationReport()
    diff = (a_star - a.adjoint()).blocks
    res = float(np.abs(diff).max()) if diff.size else 0.0
    report.add("adjoint_matrix[%s]" % a.name, res, tol)
    rng = np.random.default_rng(seed)
    gaps = []
    for _ in range(4):
        x, y = a.space.random_array(rng), a.space.random_array(rng)
        gaps.append(abs(np.vdot((a @ x)[0], y) - np.vdot(x, (a_star @ y)[0])))
    # np.max, unlike max, keeps a nan wherever it is
    report.add("adjoint_pairing[%s]" % a.name, float(np.max(gaps)), tol)
    return report
