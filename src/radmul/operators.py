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
scales the length-k sector by x(k+n) and D_{S^n x} by x(k-n).  The pair
sums depend on the pairs only through h and k, so the multiplier reads its
weights off the symbol in closed form; ``phi_block_matrix`` keeps the
pair-by-pair route for tests.

Everything here commutes with the right N-action, except the right
creations, which are covariant: R_{gamma*}(xi b) = R_{gamma*}(xi) alpha_g(b).
Operators act on :class:`~radmul.fock.FockVector` values through word-level
rules and materialize to dense matrices in the enumerated basis on demand;
sums over letters and factors always run in configuration order.  Right
creation and left N-multiplication are partial word-to-word maps with one
coefficient block per word, cached per space in word-index form on first
use (``_right_maps``, ``_push_unitaries``): rho on a matrix gathers, per
letter, the source-word blocks of its argument, conjugates them by the
letter's alpha block and scatters them to the target words; left
multiplication writes the pushed blocks U_w b U_w* on the block diagonal.

``op_norm`` is the package's one spectral norm.  On a matrix it takes an
exact SVD of each connected component of the support, batched by block
shape (a matrix of at most ``SPLIT_MIN`` rows and columns is taken whole),
and falls back to seeded power iteration only when a component exceeds
``dense_cap`` in both dimensions.
"""

from __future__ import annotations

import enum
import warnings
from dataclasses import dataclass

import numpy as np

from .fock import FockSpace, FockVector, SectorProjection, apply_projection
from .report import VerificationReport
from .symbols import RadialSymbol, psi_decompose

# op_norm takes exact SVDs up to this size: the smaller side of a support
# block of an array, or the Fock dimension of an operator it materializes
DENSE_CAP = 2000
# op_norm takes one SVD of an array no longer than this on either side: there
# a dense SVD costs less than finding the support blocks (crossover ~40-56)
SPLIT_MIN = 48


class StructuredOperator:
    """Linear map on the truncated Fock space, commuting with the right N-action.

    Backed by a word-level action, a dense matrix, or both; adjoints
    propagate structurally where a rule is known and fall back to the
    materialized conjugate transpose otherwise.
    """

    def __init__(self, space: FockSpace, apply_fn=None, adjoint_fn=None,
                 matrix=None, matrix_fn=None, name: str = "op"):
        if apply_fn is None and matrix is None and matrix_fn is None:
            raise ValueError("operator needs an action or a matrix")
        self.space = space
        self.name = name
        self._apply = apply_fn
        self._adjoint = adjoint_fn
        self._matrix = None if matrix is None else np.asarray(matrix, dtype=complex)
        self._matrix_fn = matrix_fn

    def __call__(self, vec: FockVector) -> FockVector:
        if self._apply is not None:
            return self._apply(vec)
        return self.space.from_array(self.matrix() @ vec.to_array())

    def matrix(self) -> np.ndarray:
        if self._matrix is None:
            if self._matrix_fn is not None:
                self._matrix = np.asarray(self._matrix_fn(), dtype=complex)
            else:
                dim = self.space.dim
                out = np.zeros((dim, dim), dtype=complex)
                for idx in range(dim):
                    out[:, idx] = self.space.to_array(self(self.space.basis_fock_vector(idx)))
                self._matrix = out
        return self._matrix

    def has_adjoint_rule(self) -> bool:
        return self._adjoint is not None

    def adjoint(self) -> "StructuredOperator":
        if self._adjoint is not None:
            cached = None if self._matrix is None else self._matrix.conj().T
            return StructuredOperator(self.space, self._adjoint, self._apply,
                                      matrix=cached,
                                      matrix_fn=lambda: self.matrix().conj().T,
                                      name=self.name + "*")
        return StructuredOperator(self.space,
                                  matrix_fn=lambda: self.matrix().conj().T,
                                  name=self.name + "*")

    def __matmul__(self, other: "StructuredOperator") -> "StructuredOperator":
        adj = None
        if self._adjoint is not None and other._adjoint is not None:
            adj = lambda v: other._adjoint(self._adjoint(v))
        return StructuredOperator(
            self.space,
            apply_fn=lambda v: self(other(v)),
            adjoint_fn=adj,
            matrix_fn=lambda: self.matrix() @ other.matrix(),
            name="(%s %s)" % (self.name, other.name))

    def __add__(self, other: "StructuredOperator") -> "StructuredOperator":
        adj = None
        if self._adjoint is not None and other._adjoint is not None:
            adj = lambda v: self._adjoint(v) + other._adjoint(v)
        return StructuredOperator(
            self.space,
            apply_fn=lambda v: self(v) + other(v),
            adjoint_fn=adj,
            matrix_fn=lambda: self.matrix() + other.matrix(),
            name="(%s + %s)" % (self.name, other.name))

    def __sub__(self, other):
        return self + (-1.0) * other

    def __rmul__(self, scalar) -> "StructuredOperator":
        scalar = complex(scalar)
        adj = None
        if self._adjoint is not None:
            adj = lambda v: np.conj(scalar) * self._adjoint(v)
        return StructuredOperator(
            self.space,
            apply_fn=lambda v: scalar * self(v),
            adjoint_fn=adj,
            matrix_fn=lambda: scalar * self.matrix(),
            name="(%r * %s)" % (scalar, self.name))

    def __neg__(self):
        return (-1.0) * self


def identity_op(space: FockSpace) -> StructuredOperator:
    return StructuredOperator(space, apply_fn=lambda v: v, adjoint_fn=lambda v: v,
                              matrix_fn=lambda: np.eye(space.dim, dtype=complex),
                              name="Id")


def zero_op(space: FockSpace) -> StructuredOperator:
    return StructuredOperator(space, apply_fn=lambda v: space.zero_vector(),
                              adjoint_fn=lambda v: space.zero_vector(),
                              matrix_fn=lambda: np.zeros((space.dim, space.dim), dtype=complex),
                              name="0")


def _blocks(space: FockSpace, A: np.ndarray) -> np.ndarray:
    """View of a dim x dim matrix as (word, word, dim_N, dim_N) blocks."""
    n, k = len(space.words), space.dim_N
    return A.reshape(n, k, n, k).transpose(0, 2, 1, 3)


def _alpha_block(space: FockSpace, i: int, g: int) -> np.ndarray:
    """Coordinate matrix of the coefficient map c -> alpha_g(c)."""
    W = space.amalgam.factor(i).unitaries[g]
    return np.kron(W, W.conj())


def _right_maps(space: FockSpace) -> list:
    """Word-index form of the right creations, one (src, dst, blk) per letter.

    R_{gamma*} for gamma = (i, g) sends the word src[j] to dst[j] = src[j]
    gamma* and twists its coefficient by blk = alpha_g in coordinates.
    """
    if "right_maps" not in space.cache:
        maps = []
        for i, g in space.amalgam.letters():
            appended = (i, space.amalgam.factor(i).group.inv(g))
            src = [j for j, w in enumerate(space.words)
                   if len(w) < space.L_max and w.last_factor != i]
            dst = [space.word_index[space.words[j].append(appended)] for j in src]
            maps.append((np.array(src, dtype=int), np.array(dst, dtype=int),
                         _alpha_block(space, i, g)))
        space.cache["right_maps"] = maps
    return space.cache["right_maps"]


def _push_unitaries(space: FockSpace) -> np.ndarray:
    """U_w per word, stacked (n_words, d, d): pushing b through w gives U_w b U_w*.

    Built by the prefix recursion U_{w gamma} = W_{g^{-1}} U_w, since
    b u_g = u_g alpha_{g^{-1}}(b) and alpha_h = Ad(W_h).
    """
    if "push_unitaries" not in space.cache:
        am = space.amalgam
        U = np.empty((len(space.words), space.base.d, space.base.d), dtype=complex)
        U[0] = space.base.identity()
        for j, w in enumerate(space.words[1:], start=1):
            i, g = w.letters[-1]
            fac = am.factor(i)
            U[j] = fac.unitaries[fac.group.inv(g)] @ U[space.word_index[w.drop_last()]]
        space.cache["push_unitaries"] = U
    return space.cache["push_unitaries"]


def _left_mult_matrix(space: FockSpace, b: np.ndarray) -> np.ndarray:
    # block diagonal: on the word w the left action multiplies the right
    # coefficient by b pushed through the letters, i.e. kron(U_w b U_w*, 1)
    U = _push_unitaries(space)
    pushed = U @ b @ U.conj().transpose(0, 2, 1)
    n, d = len(space.words), space.base.d
    blocks = np.einsum("wpr,qs->wpqrs", pushed, np.eye(d)).reshape(n, d * d, d * d)
    out = np.zeros((space.dim, space.dim), dtype=complex)
    idx = np.arange(n)
    _blocks(space, out)[idx, idx] = blocks
    return out


def left_mult(space: FockSpace, b) -> StructuredOperator:
    b = space.base.element(b)
    bs = b.conj().T
    return StructuredOperator(space, apply_fn=lambda v: v.left_mul(b),
                              adjoint_fn=lambda v: v.left_mul(bs),
                              matrix_fn=lambda: _left_mult_matrix(space, b),
                              name="lmul")


def right_mult(space: FockSpace, b) -> StructuredOperator:
    """The right N-action itself; every toolkit operator commutes with it."""
    b = space.base.element(b)
    bs = b.conj().T
    block = np.kron(np.eye(space.base.d), b.T)
    return StructuredOperator(
        space, apply_fn=lambda v: v.right_mul(b),
        adjoint_fn=lambda v: v.right_mul(bs),
        matrix_fn=lambda: np.kron(np.eye(len(space.words)), block),
        name="rmul")


def _left_pair(space: FockSpace, letter):
    i, g = letter
    if g == 0:
        raise ValueError("creation letters avoid the group identity")
    L = space.L_max

    def create(vec: FockVector) -> FockVector:
        out = {}
        for w, c in vec.items():
            if len(w) >= L or (w.letters and w.first_factor == i):
                continue
            out[w.prepend(letter)] = c
        return FockVector(space, out)

    def annihilate(vec: FockVector) -> FockVector:
        out = {}
        for w, c in vec.items():
            if w.letters and w.letters[0] == letter:
                nw = w.drop_first()
                out[nw] = out.get(nw, 0) + c
        return FockVector(space, out)

    return create, annihilate


def _creation_matrix(space: FockSpace, letter) -> np.ndarray:
    key = ("creation_mat", letter)
    if key not in space.cache:
        src = [j for j, w in enumerate(space.words)
               if len(w) < space.L_max and w.first_factor != letter[0]]
        dst = [space.word_index[space.words[j].prepend(letter)] for j in src]
        out = np.zeros((space.dim, space.dim), dtype=complex)
        _blocks(space, out)[dst, src] = np.eye(space.dim_N)
        space.cache[key] = out
    return space.cache[key]


def creation(space: FockSpace, letter) -> StructuredOperator:
    """L_gamma: prepend the letter; zero against a same-factor start or overflow."""
    letter = tuple(letter)
    c, a = _left_pair(space, letter)
    return StructuredOperator(space, c, a,
                              matrix_fn=lambda: _creation_matrix(space, letter),
                              name="L%r" % (letter,))


def annihilation(space: FockSpace, letter) -> StructuredOperator:
    """L*_gamma: strip a matching first letter; zero on the vacuum sector."""
    letter = tuple(letter)
    c, a = _left_pair(space, letter)
    return StructuredOperator(space, a, c,
                              matrix_fn=lambda: _creation_matrix(space, letter).conj().T,
                              name="L*%r" % (letter,))


def _right_pair(space: FockSpace, letter):
    i, g = letter
    if g == 0:
        raise ValueError("creation letters avoid the group identity")
    fac = space.amalgam.factor(i)
    gi = fac.group.inv(g)
    appended = (i, gi)  # R is indexed by gamma*, so the stored letter inverts
    L = space.L_max

    def create(vec: FockVector) -> FockVector:
        out = {}
        for w, c in vec.items():
            if len(w) >= L or (w.letters and w.last_factor == i):
                continue
            out[w.append(appended)] = fac.alpha(g, c)
        return FockVector(space, out)

    def annihilate(vec: FockVector) -> FockVector:
        out = {}
        for w, c in vec.items():
            if w.letters and w.letters[-1] == appended:
                nw = w.drop_last()
                out[nw] = out.get(nw, 0) + fac.alpha(gi, c)
        return FockVector(space, out)

    return create, annihilate


def _right_creation_matrix(space: FockSpace, letter) -> np.ndarray:
    key = ("right_creation_mat", letter)
    if key not in space.cache:
        src, dst, blk = _right_maps(space)[space.amalgam.letters().index(letter)]
        out = np.zeros((space.dim, space.dim), dtype=complex)
        _blocks(space, out)[dst, src] = blk
        space.cache[key] = out
    return space.cache[key]


def right_creation(space: FockSpace, letter) -> StructuredOperator:
    """R_{gamma*}: append gamma* = u_{g^{-1}}; zero against a same-factor end."""
    letter = tuple(letter)
    c, a = _right_pair(space, letter)
    return StructuredOperator(space, c, a,
                              matrix_fn=lambda: _right_creation_matrix(space, letter),
                              name="R%r" % (letter,))


def right_annihilation(space: FockSpace, letter) -> StructuredOperator:
    letter = tuple(letter)
    c, a = _right_pair(space, letter)
    return StructuredOperator(
        space, a, c,
        matrix_fn=lambda: _right_creation_matrix(space, letter).conj().T,
        name="R*%r" % (letter,))


def sector_operator(space: FockSpace, p: SectorProjection) -> StructuredOperator:
    fn = lambda v: apply_projection(p, v)
    if p.kind == "length_at_least":
        diag = space.lengths >= p.param
    elif p.kind == "length_exactly":
        diag = space.lengths == p.param
    else:
        diag = (space.last_factors == p.param) & (space.lengths >= 1)
    return StructuredOperator(space, fn, fn,
                              matrix_fn=lambda: np.diag(diag.astype(complex)),
                              name="P[%s %d]" % (p.kind, p.param))


def length_at_least_op(space, n) -> StructuredOperator:
    return sector_operator(space, SectorProjection("length_at_least", n))


def length_exactly_op(space, n) -> StructuredOperator:
    return sector_operator(space, SectorProjection("length_exactly", n))


def ends_in_factor_op(space, i) -> StructuredOperator:
    return sector_operator(space, SectorProjection("ends_in_factor", i))


def start_complement_op(space: FockSpace, i: int) -> StructuredOperator:
    """Projection onto the vacuum plus words not starting in factor i.

    This is the j = 0 slot of the factor embedding: the basis element
    e_0 = 1 neither creates nor annihilates, it guards the sector where
    the factor acts through its N-part.
    """
    def fn(vec: FockVector) -> FockVector:
        return FockVector(space, {w: c for w, c in vec.items() if w.first_factor != i})

    diag = space.first_factors != i
    return StructuredOperator(space, fn, fn,
                              matrix_fn=lambda: np.diag(diag.astype(complex)),
                              name="P[start!=%d]" % i)


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
    conj_values = values.conj()

    def scale(vals):
        def fn(vec: FockVector) -> FockVector:
            return FockVector(vec.space, {w: vals[len(w)] * c for w, c in vec.items()})
        return fn

    return StructuredOperator(space, scale(values), scale(conj_values),
                              matrix_fn=lambda: np.diag(values[space.lengths]),
                              name="D")


def rho_matrix(space: FockSpace, A: np.ndarray) -> np.ndarray:
    """sum_gamma R A R^* on matrices: per letter, gather the (src, src) blocks
    of A, conjugate each by blk and scatter them to (dst, dst).  The letters'
    target words end differently, so their scatters never overlap."""
    A = _blocks(space, np.asarray(A, dtype=complex))
    out = np.zeros((space.dim, space.dim), dtype=complex)
    out4 = _blocks(space, out)
    for src, dst, blk in _right_maps(space):
        out4[np.ix_(dst, dst)] = np.einsum("ab,ijbc,dc->ijad", blk,
                                           A[np.ix_(src, src)], blk.conj())
    return out


def rho_tower(space: FockSpace, A: np.ndarray, n_max: int) -> list:
    """[rho(A), rho^2(A), ..., rho^{n_max}(A)]."""
    out = []
    B = np.asarray(A, dtype=complex)
    for _ in range(n_max):
        B = rho_matrix(space, B)
        out.append(B)
    return out


def eps_rho_tower(space: FockSpace, A: np.ndarray, n_max: int) -> list:
    """[eps(A), rho(eps(A)), ..., rho^{n_max-1}(eps(A))]."""
    E = epsilon_matrix(space, A)
    return [E] + rho_tower(space, E, n_max - 1)


def rho(space: FockSpace, a: StructuredOperator) -> StructuredOperator:
    """rho(a) = sum over all basis letters of R_{gamma*} a R_{gamma*}^*."""
    letters = space.amalgam.letters()
    pairs = [_right_pair(space, l) for l in letters]

    def ap(vec: FockVector) -> FockVector:
        out = space.zero_vector()
        for up, down in pairs:
            t = down(vec)
            if t.coeffs:
                out = out + up(a(t))
        return out

    adjoint_fn = None
    if a.has_adjoint_rule():
        holder = []

        def adjoint_fn(vec, holder=holder):
            if not holder:
                holder.append(rho(space, a.adjoint()))
            return holder[0](vec)

    return StructuredOperator(space, ap, adjoint_fn,
                              matrix_fn=lambda: rho_matrix(space, a.matrix()),
                              name="rho(%s)" % a.name)


def _eps_mask(space: FockSpace) -> np.ndarray:
    if "eps_mask" not in space.cache:
        lf = space.last_factors
        space.cache["eps_mask"] = (lf[:, None] == lf[None, :]) & (lf[:, None] >= 0)
    return space.cache["eps_mask"]


def epsilon_matrix(space: FockSpace, A: np.ndarray) -> np.ndarray:
    return _eps_mask(space) * np.asarray(A, dtype=complex)


def epsilon(space: FockSpace, a: StructuredOperator) -> StructuredOperator:
    """epsilon(a) = sum over factors of q_i a q_i (q_i keyed on the last letter)."""
    qs = [ends_in_factor_op(space, i) for i in range(len(space.amalgam.factors))]

    def ap(vec: FockVector) -> FockVector:
        out = space.zero_vector()
        for q in qs:
            t = q(vec)
            if t.coeffs:
                out = out + q(a(t))
        return out

    adjoint_fn = None
    if a.has_adjoint_rule():
        holder = []

        def adjoint_fn(vec, holder=holder):
            if not holder:
                holder.append(epsilon(space, a.adjoint()))
            return holder[0](vec)

    return StructuredOperator(space, ap, adjoint_fn,
                              matrix_fn=lambda: epsilon_matrix(space, a.matrix()),
                              name="eps(%s)" % a.name)


def rho_iter_apply(space: FockSpace, a, vec: FockVector, n: int) -> FockVector:
    """rho^n(a) applied to one vector, by stripping and restoring end letters."""
    if n == 0:
        return a(vec)
    pairs = space.cache.setdefault(
        "right_pairs", [_right_pair(space, l) for l in space.amalgam.letters()])
    out = space.zero_vector()
    for up, down in pairs:
        t = down(vec)
        if t.coeffs:
            out = out + up(rho_iter_apply(space, a, t, n - 1))
    return out


def _split_by_length(vec: FockVector) -> dict:
    parts: dict = {}
    for w, c in vec.items():
        parts.setdefault(len(w), {})[w] = c
    return {m: FockVector(vec.space, d) for m, d in parts.items()}


def _scale_by_out_length(vec: FockVector, weight) -> FockVector:
    out = {}
    for w, c in vec.items():
        val = weight(len(w))
        if val != 0:
            out[w] = val * c
    return FockVector(vec.space, out)


def _lookup(x: np.ndarray, idx: int) -> complex:
    if 0 <= idx < len(x):
        return complex(x[idx])
    return 0j


def phi_block(space: FockSpace, variant: int, x, y, a: StructuredOperator) -> StructuredOperator:
    """One transformer block Phi^(variant)_{x,y} applied to a.

    The backward-shift sums truncate where the coefficient vectors end;
    the forward-shift sums truncate at the word-length cutoff, beyond
    which the shift averages vanish on the truncated space.
    """
    if variant not in (1, 2):
        raise ValueError("variant must be 1 or 2")
    x = np.asarray(x, dtype=complex).ravel()
    y = np.asarray(y, dtype=complex).ravel()
    eps_a = epsilon(space, a) if variant == 2 else None

    def ap(vec: FockVector) -> FockVector:
        out = space.zero_vector()
        for m, comp in _split_by_length(vec).items():
            av = a(comp)
            for n in range(0, len(y) - m):
                wy = np.conj(y[m + n])
                if wy == 0:
                    continue
                term = _scale_by_out_length(av, lambda k, n=n: wy * _lookup(x, k + n))
                out = out + term
            for n in range(1, m + 1):
                wy = np.conj(_lookup(y, m - n))
                if wy == 0:
                    continue
                if variant == 1:
                    t = rho_iter_apply(space, a, comp, n)
                else:
                    t = rho_iter_apply(space, eps_a, comp, n - 1)
                out = out + _scale_by_out_length(
                    t, lambda k, n=n: wy * _lookup(x, k - n))
        return out

    def matrix_fn():
        return phi_block_matrix(space, variant, x, y, a.matrix())

    return StructuredOperator(space, ap, matrix_fn=matrix_fn,
                              name="Phi%d(%s)" % (variant, a.name))


def _pair_table0(P: np.ndarray, L: int) -> np.ndarray:
    """tab[a, b] = sum_t P[a+t, b+t] over the available diagonal span."""
    return np.array([[np.trace(P[a:, b:]) for b in range(L + 1)] for a in range(L + 1)],
                    dtype=complex)


def _pair_table_shift(P: np.ndarray, L: int, n: int) -> np.ndarray:
    """tab[a, b] = P[a-n, b-n] for a, b >= n."""
    tab = np.zeros((L + 1, L + 1), dtype=complex)
    m = min(L + 1 - n, P.shape[0])
    tab[n:n + m, n:n + m] = P[:m, :m]
    return tab


def _expand_table(space: FockSpace, tab: np.ndarray) -> np.ndarray:
    return tab[np.ix_(space.lengths, space.lengths)]


def _weighted_sum(space: FockSpace, tabs, A: np.ndarray, tower) -> np.ndarray:
    """tab_0 * A + sum_{n>=1} tab_n * tower[n-1], tables expanded entrywise."""
    out = _expand_table(space, tabs[0]) * A
    for n in range(1, space.L_max + 1):
        out += _expand_table(space, tabs[n]) * tower[n - 1]
    return out


def phi_block_matrix(space: FockSpace, variant: int, x, y, A: np.ndarray,
                     tower=None) -> np.ndarray:
    """Phi^(variant)_{x,y} on a matrix; ``tower`` may supply the precomputed
    rho iterates (rho^n(A) for variant 1, rho^{n-1}(eps(A)) for variant 2)."""
    A = np.asarray(A, dtype=complex)
    L = space.L_max
    if tower is None:
        tower = rho_tower(space, A, L) if variant == 1 else eps_rho_tower(space, A, L)
    P = np.outer(x, y.conj())
    tabs = [_pair_table0(P, L)] + [_pair_table_shift(P, L, n) for n in range(1, L + 1)]
    return _weighted_sum(space, tabs, A, tower)


def phi_cb_bound(space: FockSpace, x, y) -> float:
    """Row/column bound for the Phi factorization: the product of the operator
    norms of sum_k u_k u_k* and sum_k v_k* v_k for the concrete families

        u = { D_{(S*)^n x},  D_{S^n x} R_zeta },   v likewise from y.

    The exact partition of shifted weights makes both sums multiples of the
    identity, so the value never exceeds ||x||_2 ||y||_2.
    """
    def side(v: np.ndarray) -> float:
        v = np.asarray(v, dtype=complex).ravel()
        total = np.zeros((space.dim, space.dim), dtype=complex)
        for n in range(len(v)):
            dn = diag(space, ShiftedVector(tuple(v), n, "backward")).matrix()
            total += dn @ dn.conj().T
        B = np.eye(space.dim, dtype=complex)
        for n in range(1, space.L_max + 1):
            B = rho_matrix(space, B)  # rho^n(Id) = Q_n on the truncated space
            dn = diag(space, ShiftedVector(tuple(v), n, "forward")).matrix()
            total += dn @ B @ dn.conj().T
        return op_norm(total)

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
        op = identity_op(space)
        cre_coeffs = self.cre_coeffs or (None,) * (self.k + 1)
        ann_coeffs = self.ann_coeffs or (None,) * self.l
        for j, xi in enumerate(self.cre_letters):
            if cre_coeffs[j] is not None:
                op = op @ left_mult(space, cre_coeffs[j])
            op = op @ creation(space, xi)
        if self.k and cre_coeffs[self.k] is not None:
            op = op @ left_mult(space, cre_coeffs[self.k])
        elif self.k == 0 and cre_coeffs and cre_coeffs[0] is not None:
            op = op @ left_mult(space, cre_coeffs[0])
        for j in range(self.l - 1, -1, -1):
            op = op @ annihilation(space, self.ann_letters[j])
            if ann_coeffs[j] is not None:
                op = op @ left_mult(space, ann_coeffs[j])
        return StructuredOperator(space, op._apply, op._adjoint,
                                  matrix_fn=op.matrix,
                                  name="gen(k=%d,l=%d)" % (self.k, self.l))


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


def _weight_tables(phi: RadialSymbol, L: int, shift: int) -> np.ndarray:
    """Stacked (L+1) x (L+1) weight tables of T1 (shift 0) or T2 (shift 1).

    Summing the Phi blocks over the rank-one pairs of h (or k) leaves
    tab_0[a, b] = psi1(a+b+shift) and, for n >= 1, tab_n[a, b] =
    d(a+b-2n+shift) on a, b >= n, with d(s) = phi(s) - phi(s+1).
    """
    dec = psi_decompose(phi)
    psi = np.array([dec.psi1(s + shift) for s in range(2 * L + 1)], dtype=complex)
    d = np.array([phi(s) - phi(s + 1) for s in range(2 * L + 2)], dtype=complex)
    idx = np.arange(L + 1)
    total = idx[:, None] + idx[None, :]
    low = np.minimum(idx[:, None], idx[None, :])
    n = idx[1:, None, None]
    shifted = np.where(low >= n, d[np.maximum(total - 2 * n + shift, 0)], 0)
    return np.concatenate([psi[total][None], shifted])


class RadialMultiplier:
    """The assembled transformer a -> T(a) = T1(a) + T2(a) + c a.

    T1 sums Phi1 blocks over the rank-one pairs of the first Hankel
    difference matrix, T2 sums Phi2 blocks over the pairs of the second,
    and c is the symbol's limit.  On matrices the pair sums collapse into
    length-indexed weight tables, read off the symbol in closed form and
    applied entrywise against the rho-iterates of the argument, which
    keeps one application at a handful of dense products.
    """

    def __init__(self, space: FockSpace, symbol: RadialSymbol):
        self.space = space
        self.symbol = symbol
        self.limit = symbol.limit
        self._tabs_h = _weight_tables(symbol, space.L_max, 0)
        self._tabs_k = _weight_tables(symbol, space.L_max, 1)

    def t1_matrix(self, A: np.ndarray, tower=None) -> np.ndarray:
        A = np.asarray(A, dtype=complex)
        if tower is None:
            tower = rho_tower(self.space, A, self.space.L_max)
        return _weighted_sum(self.space, self._tabs_h, A, tower)

    def t2_matrix(self, A: np.ndarray, eps_tower=None) -> np.ndarray:
        A = np.asarray(A, dtype=complex)
        if eps_tower is None:
            eps_tower = eps_rho_tower(self.space, A, self.space.L_max)
        return _weighted_sum(self.space, self._tabs_k, A, eps_tower)

    def apply_matrix(self, A: np.ndarray, tower=None, eps_tower=None) -> np.ndarray:
        A = np.asarray(A, dtype=complex)
        return (self.t1_matrix(A, tower) + self.t2_matrix(A, eps_tower)
                + self.limit * A)

    def _vector_route(self, a: StructuredOperator, parts) -> "StructuredOperator":
        """Matrix-free action of the selected components on a's vectors.

        parts is a subset of {"t1", "t2", "c"}.
        """
        space = self.space
        eps_a = epsilon(space, a) if "t2" in parts else None

        def ap(vec: FockVector) -> FockVector:
            out = space.zero_vector()
            for m, comp in _split_by_length(vec).items():
                av = a(comp)
                if "c" in parts and self.limit != 0:
                    out = out + self.limit * av
                if "t1" in parts:
                    tab = self._tabs_h[0]
                    out = out + _scale_by_out_length(av, lambda k, m=m: tab[k, m])
                if "t2" in parts:
                    tab = self._tabs_k[0]
                    out = out + _scale_by_out_length(av, lambda k, m=m: tab[k, m])
                for n in range(1, m + 1):
                    if "t1" in parts:
                        t = rho_iter_apply(space, a, comp, n)
                        tab = self._tabs_h[n]
                        out = out + _scale_by_out_length(t, lambda k, m=m, n=n: tab[k, m])
                    if "t2" in parts:
                        t = rho_iter_apply(space, eps_a, comp, n - 1)
                        tab = self._tabs_k[n]
                        out = out + _scale_by_out_length(t, lambda k, m=m, n=n: tab[k, m])
            return out

        return ap

    def _wrap(self, a, parts, label) -> StructuredOperator:
        if isinstance(a, np.ndarray):
            raise TypeError("pass matrices to the *_matrix methods")
        mats = {"t1": self.t1_matrix, "t2": self.t2_matrix}

        def matrix_fn():
            A = a.matrix()
            out = np.zeros_like(A)
            for p in parts:
                out = out + (self.limit * A if p == "c" else mats[p](A))
            return out

        return StructuredOperator(self.space, self._vector_route(a, parts),
                                  matrix_fn=matrix_fn,
                                  name="%s(%s)" % (label, a.name))

    def apply(self, a: StructuredOperator) -> StructuredOperator:
        return self._wrap(a, ("t1", "t2", "c"), "T")

    def t1(self, a: StructuredOperator) -> StructuredOperator:
        return self._wrap(a, ("t1",), "T1")

    def t2(self, a: StructuredOperator) -> StructuredOperator:
        return self._wrap(a, ("t2",), "T2")

    def __call__(self, a):
        if isinstance(a, np.ndarray):
            return self.apply_matrix(a)
        return self.apply(a)


def build_T(space: FockSpace, phi: RadialSymbol) -> RadialMultiplier:
    return RadialMultiplier(space, phi)


def _power_iteration(mv, rmv, n, seed, rel_tol, max_iter):
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    nv = np.linalg.norm(v)
    if nv == 0:
        return 0.0
    v /= nv
    sigma = 0.0
    for _ in range(max_iter):
        w = mv(v)
        nw = np.linalg.norm(w)
        if nw == 0:
            return 0.0
        u = rmv(w)
        nu = np.linalg.norm(u)
        if nu == 0:
            return 0.0
        new_sigma = float(np.sqrt(nu))  # ||A*A v|| tends to sigma_max^2
        if sigma > 0 and abs(new_sigma - sigma) <= rel_tol * new_sigma:
            return float(new_sigma)
        sigma = new_sigma
        v = u / nu
    warnings.warn("power iteration did not converge to %g in %d steps" % (rel_tol, max_iter))
    return float(sigma)


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


def _block_norm(A: np.ndarray, dense_cap: int) -> float | None:
    """Largest singular value of ``A`` from one SVD per support component, or
    None when some component exceeds ``dense_cap`` in both dimensions.

    Rows and columns are the nodes of a bipartite graph whose edges are the
    nonzero entries; permuting both by component makes ``A`` block diagonal,
    whose singular values are those of its blocks.  All-zero rows and
    columns belong to no block; only exact zeros split the graph.
    """
    r, c = np.nonzero(A)
    if r.size == 0:
        return 0.0
    n_r, n_c = A.shape
    lab = _component_labels(r, n_r + c, n_r + n_c)
    row_lab, col_lab = lab[:n_r], lab[n_r:]
    n_rows = np.bincount(row_lab, minlength=n_r + n_c)
    n_cols = np.bincount(col_lab, minlength=n_r + n_c)
    # an all-zero row or column is a component of its own with no partner
    comps = np.flatnonzero(n_rows * n_cols)
    a, b = n_rows[comps], n_cols[comps]
    if np.minimum(a, b).max() > dense_cap:
        return None
    # rows and columns ordered by component; each component's run starts at
    # the exclusive prefix sum of its size
    rows = np.argsort(row_lab, kind="stable")
    cols = np.argsort(col_lab, kind="stable")
    row_start = (np.cumsum(n_rows) - n_rows)[comps]
    col_start = (np.cumsum(n_cols) - n_cols)[comps]
    # components grouped by block shape, one batched SVD per shape
    shape = a * (n_c + 1) + b
    order = np.argsort(shape, kind="stable")
    bounds = np.concatenate(([0], np.flatnonzero(np.diff(shape[order])) + 1, [order.size]))
    best = 0.0
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        grp = order[lo:hi]
        ri = rows[row_start[grp, None] + np.arange(a[grp[0]])]
        ci = cols[col_start[grp, None] + np.arange(b[grp[0]])]
        blocks = A[ri[:, :, None], ci[:, None, :]]
        best = max(best, float(np.linalg.svd(blocks, compute_uv=False)[:, 0].max()))
    return best


def op_norm(a, seed: int = 0, rel_tol: float = 1e-8, max_iter: int = 5000,
            dense_cap: int = DENSE_CAP) -> float:
    """Spectral norm, the package's only one.

    An array is split into the connected components of its support (rows
    and columns joined by nonzero entries) and each component gets an exact
    SVD, batched by block shape; the largest first singular value is the
    norm.  A component larger than ``dense_cap`` in both dimensions sends
    the whole array to seeded power iteration, and an array with no side
    longer than ``SPLIT_MIN`` (nor ``dense_cap``) gets one SVD whole.  An
    empty or all-zero array has norm 0, and an array with a non-finite entry
    has norm inf (not nan, which ``max`` would silently drop).  A structured
    operator is materialized when small, already dense, or without an
    adjoint rule, and otherwise runs power iteration through its word-level
    action.
    """
    if isinstance(a, np.ndarray):
        A = np.asarray(a, dtype=complex)
        if A.size == 0:
            return 0.0
        if not np.isfinite(A).all():
            return float("inf")
        if max(A.shape) <= min(SPLIT_MIN, dense_cap):
            return float(np.linalg.svd(A, compute_uv=False)[0])
        norm = _block_norm(A, dense_cap)
        if norm is not None:
            return norm
        return _power_iteration(lambda v: A @ v, lambda v: A.conj().T @ v,
                                A.shape[1], seed, rel_tol, max_iter)
    space = a.space
    if a._matrix is not None or space.dim <= dense_cap or not a.has_adjoint_rule():
        return op_norm(a.matrix(), seed=seed, rel_tol=rel_tol,
                       max_iter=max_iter, dense_cap=dense_cap)
    adj = a.adjoint()

    def mv(arr):
        return space.to_array(a(space.from_array(arr)))

    def rmv(arr):
        return space.to_array(adj(space.from_array(arr)))

    return _power_iteration(mv, rmv, space.dim, seed, rel_tol, max_iter)


def adjoint_check(a: StructuredOperator, tol: float = 1e-12, seed: int = 0,
                  samples: int = 4) -> VerificationReport:
    """Confirm the declared adjoint against the materialized conjugate
    transpose and against random inner products <A xi, eta> = <xi, A* eta>.
    """
    space = a.space
    adj = a.adjoint()
    report = VerificationReport()
    res = float(np.abs(adj.matrix() - a.matrix().conj().T).max())
    report.add("adjoint_matrix[%s]" % a.name, res, tol)
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(samples):
        xi = space.from_array(rng.standard_normal(space.dim)
                              + 1j * rng.standard_normal(space.dim))
        eta = space.from_array(rng.standard_normal(space.dim)
                               + 1j * rng.standard_normal(space.dim))
        worst = max(worst, abs(a(xi).inner(eta) - xi.inner(adj(eta))))
    report.add("adjoint_pairing[%s]" % a.name, worst, tol)
    return report
