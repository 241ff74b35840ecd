"""Operator toolkit on the truncated Fock space.

Building blocks: creation/annihilation by basis letters on either side,
length-diagonal maps driven by shifted coefficient vectors, the
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
scales the length-k sector by x(k+n) and D_{S^n x} by x(k-n).

Each of these maps -- Phi1, Phi2, T1, T2 and T -- is one weight stack over
one tower: the ``tower`` of an operator A lists A, its rho-iterates and the
rho-iterates of eps(A), and ``weighted_sum`` scales every entry of tower
member m between words of lengths a and b by W[m, a, b].  ``phi_weights``
builds the stack of one Phi block; the pair sums depend on the pairs only
through h and k, so the multiplier reads its stacks off the symbol in
closed form.

Everything here commutes with the right N-action, except the right
creations, which are covariant: R_{gamma*}(xi b) = R_{gamma*}(xi) alpha_g(b).
Every operator is block-sparse on word pairs: a :class:`StructuredOperator`
holds word-index arrays ``rows`` and ``cols`` and one dim_N x dim_N
coefficient block per (row word, column word) pair, and scatters them into
a dense matrix only when ``matrix()`` is asked for.  The building blocks
come from word-index maps cached per space on first use: a creation or
annihilation on either side is a partial word map (a target word per word,
-1 where it vanishes) with one block, left N-multiplication is the
identity map with the pushed blocks U_w b U_w*
(:meth:`FockSpace.push_unitaries`), and sector projections and
length-diagonal maps are diagonal entries.  A product joins the left
factor's columns to the right factor's rows -- a gather when the left
factor is a partial word map -- and adds the entries that land on the same
word pair.  rho maps every entry through all the letters' right creations
at once and conjugates it by their alpha blocks (``_right_maps``); epsilon
keeps the entries whose row and column words end in the same factor.
``rho_matrix``, ``epsilon_matrix``, ``tower``, ``weighted_sum``, the Phi
blocks and the multiplier take an operator and return one.  Sums over
letters and factors always run in configuration order.

``op_norm`` is the package's one spectral norm.  It works on the scalar
entries of its argument (an operator, an :class:`Entries` or an array) and
takes an exact SVD of each connected component of their support, batched
by block shape; an operand of at most ``SPLIT_MIN`` rows and columns is
taken whole.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .fock import FockSpace, FockVector
from .report import VerificationReport
from .symbols import RadialSymbol, psi_decompose

# op_norm takes one SVD of an array no longer than this on either side: there
# a dense SVD costs less than finding the support blocks (crossover ~40-56)
SPLIT_MIN = 48


def _sum_at(index: np.ndarray, values: np.ndarray, n: int) -> np.ndarray:
    """out[i] = sum of values[e] over index[e] == i, added in entry order
    (as np.add.at does), for values of any trailing shape."""
    width = int(np.prod(values.shape[1:]))
    idx = index if width == 1 else (index[:, None] * width + np.arange(width)).ravel()
    flat = values.ravel()
    out = np.empty(n * width, dtype=complex)
    out.real = np.bincount(idx, flat.real, n * width)
    out.imag = np.bincount(idx, flat.imag, n * width)
    return out.reshape((n,) + values.shape[1:])


def _coalesce(rows, cols, values, n_cols: int) -> tuple:
    """Entries with one value per (row, col) pair; repeated pairs are added
    in entry order."""
    key = rows * n_cols + cols
    order = np.argsort(key, kind="stable")
    first = np.ones(key.size, dtype=bool)
    np.not_equal(key[order[1:]], key[order[:-1]], out=first[1:])
    if first.all():
        return rows, cols, values
    slot = np.empty(key.size, dtype=np.intp)
    slot[order] = np.cumsum(first) - 1
    uniq = key[order[first]]
    return uniq // n_cols, uniq % n_cols, _sum_at(slot, values, uniq.size)


class Entries(NamedTuple):
    """Scalar entries of a sparse matrix of ``shape``: ``values[e]`` at
    ``(rows[e], cols[e])``, one entry per position."""

    rows: np.ndarray
    cols: np.ndarray
    values: np.ndarray
    shape: tuple

    def matrix(self) -> np.ndarray:
        out = np.zeros(self.shape, dtype=complex)
        out[self.rows, self.cols] = self.values
        return out

    def columns(self, mask: np.ndarray) -> "Entries":
        """The columns ``mask`` keeps, renumbered: ``matrix()[:, mask]``."""
        keep = mask[self.cols]
        renumber = np.cumsum(mask) - 1
        return Entries(self.rows[keep], renumber[self.cols[keep]], self.values[keep],
                       (self.shape[0], int(np.count_nonzero(mask))))


class StructuredOperator:
    """Linear map on the truncated Fock space, block-sparse on word pairs.

    ``blocks[e]`` is the dim_N x dim_N coefficient block from the column
    word ``cols[e]`` to the row word ``rows[e]`` (word indices of the space,
    each pair at most once).  ``matrix()`` scatters the blocks into the
    dense matrix in the enumerated basis on its first call and caches it.
    Products, sums, scalar multiples and the adjoint work on the entries;
    ``op @ x`` and ``op(vec)`` apply the operator to a coordinate array and
    to a Fock vector.
    """

    def __init__(self, space: FockSpace, rows, cols, blocks, name: str = "op"):
        self.space = space
        self.name = name
        self.rows = np.asarray(rows, dtype=np.intp)
        self.cols = np.asarray(cols, dtype=np.intp)
        self.blocks = np.asarray(blocks, dtype=complex)
        self._matrix = None

    @property
    def shape(self) -> tuple:
        return (self.space.dim, self.space.dim)

    def __call__(self, vec: FockVector) -> FockVector:
        return self.space.from_array(self @ vec.to_array())

    def matrix(self) -> np.ndarray:
        if self._matrix is None:
            n, k = len(self.space.words), self.space.dim_N
            out = np.zeros((n, k, n, k), dtype=complex)
            out[self.rows, :, self.cols, :] = self.blocks
            self._matrix = out.reshape(self.shape)
        return self._matrix

    def entries(self) -> Entries:
        """The nonzero scalar entries: block entry [i, j] of word pair (r, c)
        sits at row r dim_N + i, column c dim_N + j."""
        k = self.space.dim_N
        e, i, j = np.nonzero(self.blocks)
        return Entries(self.rows[e] * k + i, self.cols[e] * k + j, self.blocks[e, i, j],
                       self.shape)

    def renamed(self, name: str) -> "StructuredOperator":
        return StructuredOperator(self.space, self.rows, self.cols, self.blocks, name)

    def adjoint(self) -> "StructuredOperator":
        return StructuredOperator(self.space, self.cols, self.rows,
                                  self.blocks.conj().transpose(0, 2, 1), self.name + "*")

    def __matmul__(self, other):
        if isinstance(other, StructuredOperator):
            return StructuredOperator(self.space, *_product(self, other),
                                      name="(%s %s)" % (self.name, other.name))
        k = self.space.dim_N
        x = np.asarray(other, dtype=complex).reshape(-1, k)
        terms = (self.blocks @ x[self.cols][:, :, None])[:, :, 0]
        return _sum_at(self.rows, terms, len(x)).reshape(-1)

    def __add__(self, other: "StructuredOperator") -> "StructuredOperator":
        return op_sum(self.space, [self, other], "(%s + %s)" % (self.name, other.name))

    def __sub__(self, other: "StructuredOperator") -> "StructuredOperator":
        return self + (-other)

    def __rmul__(self, scalar) -> "StructuredOperator":
        scalar = complex(scalar)
        return StructuredOperator(self.space, self.rows, self.cols, scalar * self.blocks,
                                  name="(%r * %s)" % (scalar, self.name))

    def __neg__(self) -> "StructuredOperator":
        return StructuredOperator(self.space, self.rows, self.cols, -self.blocks,
                                  name="-" + self.name)


def _product(a: StructuredOperator, b: StructuredOperator) -> tuple:
    """Entries of a @ b: each entry (j, c) of b meets every entry (r, j) of a.

    When a is a partial word map (each row and each column at most once) the
    join is a gather and every (r, c) comes out once; otherwise repeated
    pairs are added.
    """
    n = len(a.space.words)
    count = np.bincount(a.cols, minlength=n)
    if count.max(initial=0) <= 1:
        at = np.full(n, -1)
        at[a.cols] = np.arange(a.cols.size)
        ea = at[b.rows]
        eb = np.nonzero(ea >= 0)[0]
        ea = ea[eb]
        repeats = np.bincount(a.rows, minlength=n).max(initial=0) > 1
    else:
        order = np.argsort(a.cols, kind="stable")
        start = np.cumsum(count) - count
        reps = count[b.rows]
        eb = np.repeat(np.arange(b.rows.size), reps)
        ea = order[np.repeat(start[b.rows], reps) + np.arange(eb.size)
                   - np.repeat(np.cumsum(reps) - reps, reps)]
        repeats = True
    rows, cols = a.rows[ea], b.cols[eb]
    blocks = a.blocks[ea] @ b.blocks[eb]
    return _coalesce(rows, cols, blocks, n) if repeats else (rows, cols, blocks)


def op_sum(space: FockSpace, ops, name: str = "sum") -> StructuredOperator:
    """sum of the operators, entries on the same word pair added in list order."""
    rows = np.concatenate([op.rows for op in ops])
    cols = np.concatenate([op.cols for op in ops])
    blocks = np.concatenate([op.blocks for op in ops])
    return StructuredOperator(space, *_coalesce(rows, cols, blocks, len(space.words)), name)


def op_product(space: FockSpace, factors, name: str) -> StructuredOperator:
    """factors[0] @ factors[1] @ ..., evaluated right to left so that each
    left factor that is a partial word map gathers; the identity if empty."""
    if not factors:
        return identity_op(space).renamed(name)
    op = factors[-1]
    for factor in reversed(factors[:-1]):
        op = factor @ op
    return op.renamed(name)


def amplify(coeffs, ops) -> Entries:
    """sum_i C_i (x) A_i for m x m scalar blocks C_i and operators A_i, as
    scalar entries: C_i[p, q] A_i[r, c] sits at row p dim + r and column
    q dim + c, and the terms on one position are added in order."""
    m, dim = len(coeffs[0]), ops[0].space.dim
    p, q = np.divmod(np.arange(m * m), m)
    rows, cols, values = [], [], []
    for C, A in zip(coeffs, ops):
        e = A.entries()
        rows.append((p[:, None] * dim + e.rows).ravel())
        cols.append((q[:, None] * dim + e.cols).ravel())
        values.append((C.reshape(-1, 1) * e.values).ravel())
    size = m * dim
    return Entries(*_coalesce(np.concatenate(rows), np.concatenate(cols),
                              np.concatenate(values), size), (size, size))


def _word_values(space: FockSpace, per_index: np.ndarray) -> np.ndarray:
    """Per-word view of a per-basis-index array of the space."""
    return per_index[::space.dim_N]


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


def _alpha_block(space: FockSpace, i: int, g: int) -> np.ndarray:
    """Coordinate matrix of the coefficient map c -> alpha_g(c)."""
    W = space.amalgam.factor(i).unitaries[g]
    return np.kron(W, W.conj())


def _right_maps(space: FockSpace) -> tuple:
    """Word-index form of the right creations: (table, alpha).

    For the letters gamma = (i, g) in configuration order, R_{gamma*} sends
    the word j to table[gamma, j] = j gamma* (-1 where it vanishes) and
    twists its coefficient by alpha[gamma] = alpha_g in coordinates.
    """
    if "right_maps" not in space.cache:
        letters = space.amalgam.letters()
        table = np.full((len(letters), len(space.words)), -1, dtype=np.intp)
        for t, (i, g) in enumerate(letters):
            appended = (i, space.amalgam.factor(i).group.inv(g))
            for j, w in enumerate(space.words):
                if len(w) < space.L_max and w.last_factor != i:
                    table[t, j] = space.word_index[w.append(appended)]
        alpha = np.stack([_alpha_block(space, i, g) for i, g in letters])
        space.cache["right_maps"] = (table, alpha)
    return space.cache["right_maps"]


def left_mult(space: FockSpace, b) -> StructuredOperator:
    """Left N-multiplication: on the word w it multiplies the right
    coefficient by b pushed through the letters, i.e. kron(U_w b U_w*, 1)."""
    b = space.base.element(b)
    U = space.push_unitaries()
    pushed = U @ b @ U.conj().transpose(0, 2, 1)
    n, d = len(space.words), space.base.d
    blocks = np.einsum("wpr,qs->wpqrs", pushed, np.eye(d)).reshape(n, d * d, d * d)
    return StructuredOperator(space, np.arange(n), np.arange(n), blocks, name="lmul")


def right_mult(space: FockSpace, b) -> StructuredOperator:
    """The right N-action itself; every toolkit operator commutes with it."""
    block = np.kron(np.eye(space.base.d), space.base.element(b).T)
    return _diag_op(space, np.ones(len(space.words)), "rmul", block)


def _letter(letter) -> tuple:
    letter = tuple(letter)
    if letter[1] == 0:
        raise ValueError("creation letters avoid the group identity")
    return letter


def _word_map(space: FockSpace, key, word_map) -> np.ndarray:
    """Target word index per word of ``word_map`` (-1 where it gives None),
    cached in the space under ``key``."""
    if key not in space.cache:
        targets = [word_map(w) for w in space.words]
        space.cache[key] = np.array([-1 if t is None else space.word_index[t]
                                     for t in targets], dtype=np.intp)
    return space.cache[key]


def _map_op(space: FockSpace, target: np.ndarray, blk: np.ndarray,
            name: str) -> StructuredOperator:
    """The partial word map j -> target[j], twisting each coefficient by blk."""
    src = np.flatnonzero(target >= 0)
    return StructuredOperator(space, target[src], src,
                              np.broadcast_to(blk, (src.size,) + blk.shape), name)


def creation(space: FockSpace, letter) -> StructuredOperator:
    """L_gamma: prepend the letter; zero against a same-factor start or overflow."""
    letter = _letter(letter)

    def word_map(w):
        if len(w) < space.L_max and w.first_factor != letter[0]:
            return w.prepend(letter)
        return None

    return _map_op(space, _word_map(space, ("creation", letter), word_map),
                   np.eye(space.dim_N), "L%r" % (letter,))


def annihilation(space: FockSpace, letter) -> StructuredOperator:
    """L*_gamma: strip a matching first letter; zero on the vacuum sector."""
    letter = _letter(letter)

    def word_map(w):
        return w.drop_first() if w.letters and w.letters[0] == letter else None

    return _map_op(space, _word_map(space, ("annihilation", letter), word_map),
                   np.eye(space.dim_N), "L*%r" % (letter,))


def right_creation(space: FockSpace, letter) -> StructuredOperator:
    """R_{gamma*}: append gamma* = u_{g^{-1}}; zero against a same-factor end."""
    letter = _letter(letter)
    table, alpha = _right_maps(space)
    t = space.amalgam.letters().index(letter)
    return _map_op(space, table[t], alpha[t], "R%r" % (letter,))


def right_annihilation(space: FockSpace, letter) -> StructuredOperator:
    """R*_{gamma*}: strip a final gamma*, twisting the coefficient by alpha_{g^{-1}}."""
    letter = _letter(letter)
    i, g = letter
    gi = space.amalgam.factor(i).group.inv(g)

    def word_map(w):
        return w.drop_last() if w.letters and w.letters[-1] == (i, gi) else None

    return _map_op(space, _word_map(space, ("right_annihilation", letter), word_map),
                   _alpha_block(space, i, gi), "R*%r" % (letter,))


def length_at_least_op(space: FockSpace, n: int) -> StructuredOperator:
    return _diag_op(space, _word_values(space, space.lengths) >= n,
                    "P[length_at_least %d]" % n)


def length_exactly_op(space: FockSpace, n: int) -> StructuredOperator:
    return _diag_op(space, _word_values(space, space.lengths) == n,
                    "P[length_exactly %d]" % n)


def ends_in_factor_op(space: FockSpace, i: int) -> StructuredOperator:
    """Projection onto the words whose last letter is in factor i; the
    vacuum's last factor is -1, so it is never kept."""
    return _diag_op(space, _word_values(space, space.last_factors) == i,
                    "P[ends_in_factor %d]" % i)


def start_complement_op(space: FockSpace, i: int) -> StructuredOperator:
    """Projection onto the vacuum plus words not starting in factor i.

    This is the j = 0 slot of the factor embedding: the basis element
    e_0 = 1 neither creates nor annihilates, it guards the sector where
    the factor acts through its N-part.
    """
    return _diag_op(space, _word_values(space, space.first_factors) != i,
                    "P[start!=%d]" % i)


@dataclass(frozen=True)
class ShiftedVector:
    """A coefficient vector together with a power of the shift.

    direction "forward" means S^n (value at k reads base[k-n]),
    "backward" means (S*)^n (value at k reads base[k+n]); out-of-range
    reads are zero.
    """

    base: tuple
    shift: int = 0
    direction: str = "forward"

    def __post_init__(self):
        object.__setattr__(self, "base", tuple(complex(v) for v in self.base))
        if self.shift < 0:
            raise ValueError("shift count must be nonnegative")
        if self.direction not in ("forward", "backward"):
            raise ValueError("direction must be 'forward' or 'backward'")

    def value(self, k: int) -> complex:
        idx = k - self.shift if self.direction == "forward" else k + self.shift
        if 0 <= idx < len(self.base):
            return self.base[idx]
        return 0j

    def conj(self) -> "ShiftedVector":
        return ShiftedVector(tuple(np.conj(v) for v in self.base), self.shift, self.direction)


def diag(space: FockSpace, x) -> StructuredOperator:
    """D_x: multiply the length-k sector by the (shifted) scalar x(k)."""
    sv = x if isinstance(x, ShiftedVector) else ShiftedVector(tuple(np.asarray(x).ravel()))
    values = np.array([sv.value(k) for k in range(space.L_max + 1)], dtype=complex)
    return _diag_op(space, values[_word_values(space, space.lengths)], "D")


def rho_matrix(space: FockSpace, A: StructuredOperator) -> StructuredOperator:
    """sum_gamma R A R^*: every entry (r, c, X) goes to
    (r gamma*, c gamma*, alpha X alpha^*) for each letter gamma whose right
    creation is defined on both words, all letters in one vectorized step.
    The letters' target words end differently, so no two images land on the
    same word pair."""
    table, alpha = _right_maps(space)
    tr, tc = table[:, A.rows], table[:, A.cols]
    t, e = np.nonzero(np.minimum(tr, tc) >= 0)
    blocks = alpha[t] @ A.blocks[e] @ alpha[t].conj().transpose(0, 2, 1)
    return StructuredOperator(space, tr[t, e], tc[t, e], blocks, name="rho(%s)" % A.name)


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
    last = _word_values(space, space.last_factors)
    keep = np.flatnonzero((last[A.rows] == last[A.cols]) & (last[A.rows] >= 0))
    return StructuredOperator(space, A.rows[keep], A.cols[keep], A.blocks[keep],
                              name="eps(%s)" % A.name)


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
    lengths = _word_values(space, space.lengths)
    w = W[m, lengths[rows], lengths[cols]]
    keep = np.nonzero(w)[0]
    with np.errstate(over="ignore", invalid="ignore"):
        blocks = w[keep, None, None] * np.concatenate([op.blocks for op in tower])[keep]
        out = _coalesce(rows[keep], cols[keep], blocks, len(space.words))
    return StructuredOperator(space, *out, name="sum")


def phi_weights(space: FockSpace, variant: int, x, y) -> np.ndarray:
    """Weight stack of Phi^(variant)_{x,y}: entry 0 holds
    sum_t x(a+t) conj(y(b+t)), and x(a-n) conj(y(b-n)) on a, b >= n goes to
    entry n (rho^n, variant 1) or L+n (rho^{n-1} eps, variant 2)."""
    L = space.L_max
    P = np.outer(x, np.conj(y))
    W = np.zeros((2 * L + 1, L + 1, L + 1), dtype=complex)
    W[0] = [[np.trace(P[a:, b:]) for b in range(L + 1)] for a in range(L + 1)]
    for n in range(1, L + 1):
        m = min(L + 1 - n, P.shape[0])
        W[n if variant == 1 else L + n, n:n + m, n:n + m] = P[:m, :m]
    return W


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
        v = tuple(np.asarray(v, dtype=complex).ravel())
        terms = []
        for n in range(len(v)):
            dn = diag(space, ShiftedVector(v, n, "backward"))
            terms.append(dn @ dn.adjoint())
        B = identity_op(space)
        for n in range(1, space.L_max + 1):
            B = rho_matrix(space, B)  # rho^n(Id) = Q_n on the truncated space
            dn = diag(space, ShiftedVector(v, n, "forward"))
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
    Within each string, consecutive letters come from distinct factors.
    """

    cre_letters: tuple = ()
    ann_letters: tuple = ()
    cre_coeffs: tuple = ()  # (b_0, ..., b_k); empty means identities
    ann_coeffs: tuple = ()  # (bt_1, ..., bt_l); empty means identities

    def __post_init__(self):
        object.__setattr__(self, "cre_letters", tuple(tuple(l) for l in self.cre_letters))
        object.__setattr__(self, "ann_letters", tuple(tuple(l) for l in self.ann_letters))
        for seq in (self.cre_letters, self.ann_letters):
            for j, (i, g) in enumerate(seq):
                if g == 0:
                    raise ValueError("generator letters avoid the group identity")
                if j and seq[j - 1][0] == i:
                    raise ValueError("consecutive letters from the same factor")
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
        cre_coeffs = self.cre_coeffs or (None,) * (self.k + 1)
        ann_coeffs = self.ann_coeffs or (None,) * self.l
        factors = []
        for j, xi in enumerate(self.cre_letters):
            if cre_coeffs[j] is not None:
                factors.append(left_mult(space, cre_coeffs[j]))
            factors.append(creation(space, xi))
        if cre_coeffs[self.k] is not None:
            factors.append(left_mult(space, cre_coeffs[self.k]))
        for j in range(self.l - 1, -1, -1):
            factors.append(annihilation(space, self.ann_letters[j]))
            if ann_coeffs[j] is not None:
                factors.append(left_mult(space, ann_coeffs[j]))
        return op_product(space, factors, "gen(k=%d,l=%d)" % (self.k, self.l))


def case_of(w: GeneratorWord) -> CaseTag:
    return w.case


def alternating_letter_tuples(space: FockSpace, length: int) -> list:
    """All factor-alternating letter strings of the given length."""
    letters = space.amalgam.letters()
    out = [()]
    for _ in range(length):
        nxt = []
        for tup in out:
            for l in letters:
                if tup and tup[-1][0] == l[0]:
                    continue
                nxt.append(tup + (l,))
        out = nxt
    return out


def _weight_stack(phi: RadialSymbol, L: int, variant: int) -> np.ndarray:
    """Weight stack of T1 (variant 1) or T2 (variant 2), laid out as the
    stack of a Phi block of the same variant.

    Summing the Phi blocks over the rank-one pairs of h (or k) leaves, with
    shift = variant - 1 and d(s) = phi(s) - phi(s+1), the weight
    psi1(a+b+shift) on entry 0 and d(a+b-2n+shift) on a, b >= n on the
    entry of rho^n (variant 1) or of rho^{n-1} eps (variant 2).
    """
    shift = variant - 1
    dec = psi_decompose(phi)
    psi = np.array([dec.psi1(s + shift) for s in range(2 * L + 1)], dtype=complex)
    d = np.array([phi(s) - phi(s + 1) for s in range(2 * L + 2)], dtype=complex)
    idx = np.arange(L + 1)
    total = idx[:, None] + idx[None, :]
    low = np.minimum(idx[:, None], idx[None, :])
    n = idx[1:, None, None]
    W = np.zeros((2 * L + 1, L + 1, L + 1), dtype=complex)
    W[0] = psi[total]
    first = 1 if variant == 1 else L + 1
    W[first:first + L] = np.where(low >= n, d[np.maximum(total - 2 * n + shift, 0)], 0)
    return W


class RadialMultiplier:
    """The assembled transformer a -> T(a) = T1(a) + T2(a) + c a.

    T1 sums Phi1 blocks over the rank-one pairs of the first Hankel
    difference matrix, T2 sums Phi2 blocks over the pairs of the second,
    and c is the symbol's limit.  The pair sums collapse into weight stacks
    over the argument's ``tower``, read off the symbol in closed form:
    ``t1_weights`` on A and its rho-iterates, ``t2_weights`` on A and the
    rho-iterates of eps(A), and ``weights``, their sum with c added to the
    weight of A, which is T itself.
    """

    def __init__(self, space: FockSpace, symbol: RadialSymbol):
        self.space = space
        self.symbol = symbol
        self.limit = symbol.limit
        self.t1_weights = _weight_stack(symbol, space.L_max, 1)
        self.t2_weights = _weight_stack(symbol, space.L_max, 2)
        self.weights = self.t1_weights + self.t2_weights
        self.weights[0] += self.limit

    def apply_matrix(self, A: StructuredOperator) -> StructuredOperator:
        """T(A)."""
        return weighted_sum(self.space, self.weights, tower(self.space, A))


def build_T(space: FockSpace, phi: RadialSymbol) -> RadialMultiplier:
    return RadialMultiplier(space, phi)


def _component_labels(u: np.ndarray, v: np.ndarray, n: int) -> np.ndarray:
    """Smallest node index in the connected component of each of ``n`` nodes,
    for the graph with edges (u[e], v[e]): roots hook onto the smallest root
    across each edge, then pointer jumping flattens the forest."""
    lab = np.arange(n)
    while True:
        lu, lv = lab[u], lab[v]
        if np.array_equal(lu, lv):
            return lab
        low = np.minimum(lu, lv)
        np.minimum.at(lab, lu, low)
        np.minimum.at(lab, lv, low)
        while True:
            jumped = lab[lab]
            if np.array_equal(jumped, lab):
                break
            lab = jumped


def _rank_in_component(lab: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """Rank of each node among the nodes of its component, in index order."""
    order = np.argsort(lab, kind="stable")
    rank = np.empty_like(order)
    rank[order] = np.arange(order.size) - (np.cumsum(sizes) - sizes)[lab[order]]
    return rank


def _block_norm(e: Entries) -> float:
    """Largest singular value of the matrix of ``e`` from one SVD per support
    component.

    Rows and columns are the nodes of a bipartite graph whose edges are the
    entries; permuting both by component makes the matrix block diagonal,
    whose singular values are those of its blocks.  Rows and columns without
    entries belong to no block.
    """
    if e.rows.size == 0:
        return 0.0
    n_r, n_c = e.shape
    lab = _component_labels(e.rows, n_r + e.cols, n_r + n_c)
    row_lab, col_lab = lab[:n_r], lab[n_r:]
    n_rows = np.bincount(row_lab, minlength=n_r + n_c)
    n_cols = np.bincount(col_lab, minlength=n_r + n_c)
    # a row or column without entries is a component of its own with no partner
    comps = np.flatnonzero(n_rows * n_cols)
    a, b = n_rows[comps], n_cols[comps]
    # components grouped by block shape, one batched SVD per shape; in its
    # group's stack a component sits at its rank among the group's
    # components, and a row (column) at its rank in the component
    shapes, group, counts = np.unique(a * (n_c + 1) + b, return_inverse=True,
                                      return_counts=True)
    slot = _rank_in_component(group, counts)
    comp = np.empty(n_r + n_c, dtype=np.intp)
    comp[comps] = np.arange(comps.size)
    ent = comp[row_lab[e.rows]]
    row_rank = _rank_in_component(row_lab, n_rows)
    col_rank = _rank_in_component(col_lab, n_cols)
    by_group = np.argsort(group[ent], kind="stable")
    ends = np.cumsum(np.bincount(group[ent], minlength=shapes.size))
    best = 0.0
    for shape, count, sel in zip(shapes, counts, np.split(by_group, ends[:-1])):
        blocks = np.zeros((count,) + divmod(int(shape), n_c + 1), dtype=complex)
        blocks[slot[ent[sel]], row_rank[e.rows[sel]], col_rank[e.cols[sel]]] = e.values[sel]
        best = max(best, float(np.linalg.svd(blocks, compute_uv=False)[:, 0].max()))
    return best


def _scalar_entries(A) -> Entries:
    """The nonzero scalar entries of an operator, of an Entries or of an array."""
    if isinstance(A, StructuredOperator):
        return A.entries()
    if isinstance(A, Entries):
        keep = np.flatnonzero(A.values)
        return Entries(A.rows[keep], A.cols[keep], A.values[keep], A.shape)
    A = np.asarray(A, dtype=complex)
    r, c = np.nonzero(A)
    return Entries(r, c, A[r, c], A.shape)


def op_norm(A) -> float:
    """Spectral norm of an operator, an :class:`Entries` or an array, the
    package's only one.

    It works on the nonzero scalar entries (exact zeros dropped first).  The
    matrix is split into the connected components of their support (rows
    and columns joined by entries) and each component gets an exact SVD,
    batched by block shape; the largest first singular value is the norm.
    An operand with no side longer than ``SPLIT_MIN`` gets one SVD whole.
    An empty or all-zero operand has norm 0, and one with a non-finite entry
    has norm inf (not nan, which ``max`` would silently drop).
    """
    e = _scalar_entries(A)
    if 0 in e.shape:
        return 0.0
    if not np.isfinite(e.values).all():
        return float("inf")
    if max(e.shape) <= SPLIT_MIN:
        return float(np.linalg.svd(e.matrix(), compute_uv=False)[0])
    return _block_norm(e)


def adjoint_check(a: StructuredOperator, a_star: StructuredOperator, tol: float = 1e-12,
                  seed: int = 0, samples: int = 4) -> VerificationReport:
    """Confirm that ``a_star``, built by its own rule, is the adjoint of ``a``:
    entry by entry against a's conjugate transpose (the largest block of
    the difference, 0 when it has no entries), and against random inner
    products <A xi, eta> = <xi, A* eta> of Fock vectors.
    """
    space = a.space
    report = VerificationReport()
    diff = (a_star - a.adjoint()).blocks
    res = float(np.abs(diff).max()) if diff.size else 0.0
    report.add("adjoint_matrix[%s]" % a.name, res, tol)
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(samples):
        xi = space.from_array(rng.standard_normal(space.dim)
                              + 1j * rng.standard_normal(space.dim))
        eta = space.from_array(rng.standard_normal(space.dim)
                               + 1j * rng.standard_normal(space.dim))
        worst = max(worst, abs(a(xi).inner(eta) - xi.inner(a_star(eta))))
    report.add("adjoint_pairing[%s]" % a.name, worst, tol)
    return report
