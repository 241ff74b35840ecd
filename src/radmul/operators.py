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
one tower: the ``tower`` of a matrix A lists A, its rho-iterates and the
rho-iterates of eps(A), and ``weighted_sum`` scales every entry of tower
matrix m between words of lengths a and b by W[m, a, b].  ``phi_weights``
builds the stack of one Phi block; the pair sums depend on the pairs only
through h and k, so the multiplier reads its stacks off the symbol in
closed form.

Everything here commutes with the right N-action, except the right
creations, which are covariant: R_{gamma*}(xi b) = R_{gamma*}(xi) alpha_g(b).
Every operator is a dense matrix in the enumerated basis, built lazily on
first use; applying one to a :class:`~radmul.fock.FockVector` goes through
its coordinate array.  Sums over letters and factors always run in
configuration order.  Creations and annihilations on either side and left
N-multiplication are partial word-to-word maps with one coefficient block
per word, scattered from word-index arrays cached per space on first use
(``_right_maps``, ``_push_unitaries``): rho on a matrix gathers, per
letter, the source-word blocks of its argument, conjugates them by the
letter's alpha block and scatters them to the target words; left
multiplication writes the pushed blocks U_w b U_w* on the block diagonal.

``op_norm`` is the package's one spectral norm.  It takes an exact SVD of
each connected component of a matrix's support, batched by block shape (a
matrix of at most ``SPLIT_MIN`` rows and columns is taken whole), and falls
back to seeded power iteration only when a component exceeds ``dense_cap``
in both dimensions.
"""

from __future__ import annotations

import enum
import warnings
from dataclasses import dataclass

import numpy as np

from .fock import FockSpace, FockVector, SectorProjection
from .report import VerificationReport
from .symbols import RadialSymbol, psi_decompose

# op_norm takes exact SVDs up to this size: the smaller side of a support
# block of an array
DENSE_CAP = 2000
# op_norm takes one SVD of an array no longer than this on either side: there
# a dense SVD costs less than finding the support blocks (crossover ~40-56)
SPLIT_MIN = 48


class StructuredOperator:
    """Linear map on the truncated Fock space, held as a lazily built matrix.

    ``matrix_fn`` builds the dense matrix in the enumerated basis on the
    first call of ``matrix()``, which caches it.  Composition, sums, scalar
    multiples and the adjoint compose these matrix functions without
    materializing anything; applying the operator to a vector multiplies its
    coordinates.
    """

    def __init__(self, space: FockSpace, matrix_fn, name: str = "op"):
        self.space = space
        self.name = name
        self._matrix = None
        self._matrix_fn = matrix_fn

    def __call__(self, vec: FockVector) -> FockVector:
        return self.space.from_array(self.matrix() @ vec.to_array())

    def matrix(self) -> np.ndarray:
        if self._matrix is None:
            self._matrix = np.asarray(self._matrix_fn(), dtype=complex)
        return self._matrix

    def adjoint(self) -> "StructuredOperator":
        return StructuredOperator(self.space, lambda: self.matrix().conj().T,
                                  name=self.name + "*")

    def __matmul__(self, other: "StructuredOperator") -> "StructuredOperator":
        return StructuredOperator(self.space, lambda: self.matrix() @ other.matrix(),
                                  name="(%s %s)" % (self.name, other.name))

    def __add__(self, other: "StructuredOperator") -> "StructuredOperator":
        return StructuredOperator(self.space, lambda: self.matrix() + other.matrix(),
                                  name="(%s + %s)" % (self.name, other.name))

    def __sub__(self, other):
        return self + (-1.0) * other

    def __rmul__(self, scalar) -> "StructuredOperator":
        scalar = complex(scalar)
        return StructuredOperator(self.space, lambda: scalar * self.matrix(),
                                  name="(%r * %s)" % (scalar, self.name))

    def __neg__(self):
        return (-1.0) * self


def identity_op(space: FockSpace) -> StructuredOperator:
    return StructuredOperator(space, lambda: np.eye(space.dim, dtype=complex), name="Id")


def zero_op(space: FockSpace) -> StructuredOperator:
    return StructuredOperator(space, lambda: np.zeros((space.dim, space.dim), dtype=complex),
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
    return StructuredOperator(space, lambda: _left_mult_matrix(space, b), name="lmul")


def right_mult(space: FockSpace, b) -> StructuredOperator:
    """The right N-action itself; every toolkit operator commutes with it."""
    block = np.kron(np.eye(space.base.d), space.base.element(b).T)
    return StructuredOperator(space, lambda: np.kron(np.eye(len(space.words)), block),
                              name="rmul")


def _letter(letter) -> tuple:
    letter = tuple(letter)
    if letter[1] == 0:
        raise ValueError("creation letters avoid the group identity")
    return letter


def _word_map_matrix(space: FockSpace, key, word_map, blk) -> np.ndarray:
    """Matrix sending each word w to word_map(w) (dropped where that is None),
    twisting its coefficient by blk; cached in the space under ``key``."""
    if key not in space.cache:
        src, dst = [], []
        for j, w in enumerate(space.words):
            target = word_map(w)
            if target is not None:
                src.append(j)
                dst.append(space.word_index[target])
        out = np.zeros((space.dim, space.dim), dtype=complex)
        _blocks(space, out)[dst, src] = blk
        space.cache[key] = out
    return space.cache[key]


def creation(space: FockSpace, letter) -> StructuredOperator:
    """L_gamma: prepend the letter; zero against a same-factor start or overflow."""
    letter = _letter(letter)

    def word_map(w):
        if len(w) < space.L_max and w.first_factor != letter[0]:
            return w.prepend(letter)
        return None

    return StructuredOperator(
        space, lambda: _word_map_matrix(space, ("creation", letter), word_map,
                                        np.eye(space.dim_N)),
        name="L%r" % (letter,))


def annihilation(space: FockSpace, letter) -> StructuredOperator:
    """L*_gamma: strip a matching first letter; zero on the vacuum sector."""
    letter = _letter(letter)

    def word_map(w):
        return w.drop_first() if w.letters and w.letters[0] == letter else None

    return StructuredOperator(
        space, lambda: _word_map_matrix(space, ("annihilation", letter), word_map,
                                        np.eye(space.dim_N)),
        name="L*%r" % (letter,))


def _right_creation_matrix(space: FockSpace, letter) -> np.ndarray:
    key = ("right_creation", letter)
    if key not in space.cache:
        src, dst, blk = _right_maps(space)[space.amalgam.letters().index(letter)]
        out = np.zeros((space.dim, space.dim), dtype=complex)
        _blocks(space, out)[dst, src] = blk
        space.cache[key] = out
    return space.cache[key]


def right_creation(space: FockSpace, letter) -> StructuredOperator:
    """R_{gamma*}: append gamma* = u_{g^{-1}}; zero against a same-factor end."""
    letter = _letter(letter)
    return StructuredOperator(space, lambda: _right_creation_matrix(space, letter),
                              name="R%r" % (letter,))


def right_annihilation(space: FockSpace, letter) -> StructuredOperator:
    """R*_{gamma*}: strip a final gamma*, twisting the coefficient by alpha_{g^{-1}}."""
    letter = _letter(letter)
    i, g = letter
    gi = space.amalgam.factor(i).group.inv(g)

    def word_map(w):
        return w.drop_last() if w.letters and w.letters[-1] == (i, gi) else None

    return StructuredOperator(
        space, lambda: _word_map_matrix(space, ("right_annihilation", letter), word_map,
                                        _alpha_block(space, i, gi)),
        name="R*%r" % (letter,))


def _diag_op(space: FockSpace, values: np.ndarray, name: str) -> StructuredOperator:
    return StructuredOperator(space, lambda: np.diag(values.astype(complex)), name=name)


def sector_operator(space: FockSpace, p: SectorProjection) -> StructuredOperator:
    if p.kind == "length_at_least":
        diag = space.lengths >= p.param
    elif p.kind == "length_exactly":
        diag = space.lengths == p.param
    else:
        diag = (space.last_factors == p.param) & (space.lengths >= 1)
    return _diag_op(space, diag, "P[%s %d]" % (p.kind, p.param))


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
    return _diag_op(space, space.first_factors != i, "P[start!=%d]" % i)


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
    return _diag_op(space, values[space.lengths], "D")


def rho_matrix(space: FockSpace, A: np.ndarray) -> np.ndarray:
    """sum_gamma R A R^* on matrices: per letter, gather the (src, src) blocks
    of A, conjugate each by blk and scatter them to (dst, dst).  The letters'
    target words end differently, so their scatters never overlap."""
    A = _blocks(space, np.asarray(A, dtype=complex))
    out = np.zeros((space.dim, space.dim), dtype=complex)
    out4 = _blocks(space, out)
    for src, dst, blk in _right_maps(space):
        out4[dst[:, None], dst] = np.einsum("ab,ijbc,dc->ijad", blk,
                                            A[src[:, None], src], blk.conj())
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


def _eps_mask(space: FockSpace) -> np.ndarray:
    if "eps_mask" not in space.cache:
        lf = space.last_factors
        space.cache["eps_mask"] = (lf[:, None] == lf[None, :]) & (lf[:, None] >= 0)
    return space.cache["eps_mask"]


def epsilon_matrix(space: FockSpace, A: np.ndarray) -> np.ndarray:
    return _eps_mask(space) * np.asarray(A, dtype=complex)


def tower(space: FockSpace, A: np.ndarray) -> list:
    """The 2L+1 matrices a weight stack weights, L = ``space.L_max``:

        [A, rho(A), ..., rho^L(A), eps(A), rho(eps(A)), ..., rho^{L-1}(eps(A))],

    so entry n <= L is rho^n(A) and entry L+n, n >= 1, is rho^{n-1}(eps(A)).
    """
    A = np.asarray(A, dtype=complex)
    return [A] + rho_tower(space, A, space.L_max) + eps_rho_tower(space, A, space.L_max)


def weighted_sum(space: FockSpace, W: np.ndarray, tower: list) -> np.ndarray:
    """sum_m W[m, |r|, |c|] tower[m][r, c] for a (2L+1, L+1, L+1) weight
    stack W, indexed by tower entry, row word length and column word length.

    Words come in length order, so the rows of one length are a contiguous
    slice; only the (entry, row length) pairs with a nonzero weight are
    visited.  A symbol near the float range may overflow here; the inf or
    nan it leaves makes the checks that read the result fail, so numpy is
    not asked to warn about it as well.
    """
    starts = np.searchsorted(space.lengths, np.arange(space.L_max + 2))
    by_col = W[:, :, space.lengths]
    out = np.zeros((space.dim, space.dim), dtype=complex)
    with np.errstate(over="ignore", invalid="ignore"):
        for m, a in zip(*np.nonzero(W.any(axis=2))):
            rows = slice(starts[a], starts[a + 1])
            out[rows] += by_col[m, a] * tower[m][rows]
    return out


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


def phi_block_matrix(space: FockSpace, variant: int, x, y, A: np.ndarray) -> np.ndarray:
    """Phi^(variant)_{x,y} on a matrix."""
    return weighted_sum(space, phi_weights(space, variant, x, y), tower(space, A))


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
        op = factors[0] if factors else identity_op(space)
        for factor in factors[1:]:
            op = op @ factor
        return StructuredOperator(space, op.matrix, name="gen(k=%d,l=%d)" % (self.k, self.l))


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

    def apply_matrix(self, A: np.ndarray) -> np.ndarray:
        return weighted_sum(self.space, self.weights, tower(self.space, A))


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


def op_norm(A: np.ndarray, seed: int = 0, rel_tol: float = 1e-8, max_iter: int = 5000,
            dense_cap: int = DENSE_CAP) -> float:
    """Spectral norm of a matrix, the package's only one.

    The matrix is split into the connected components of its support (rows
    and columns joined by nonzero entries) and each component gets an exact
    SVD, batched by block shape; the largest first singular value is the
    norm.  A component larger than ``dense_cap`` in both dimensions sends
    the whole matrix to seeded power iteration, and a matrix with no side
    longer than ``SPLIT_MIN`` (nor ``dense_cap``) gets one SVD whole.  An
    empty or all-zero matrix has norm 0, and a matrix with a non-finite
    entry has norm inf (not nan, which ``max`` would silently drop).
    """
    A = np.asarray(A, dtype=complex)
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


def adjoint_check(a: StructuredOperator, a_star: StructuredOperator, tol: float = 1e-12,
                  seed: int = 0, samples: int = 4) -> VerificationReport:
    """Confirm that ``a_star``, built by its own rule, is the adjoint of ``a``:
    against the conjugate transpose of a's matrix, and against random inner
    products <A xi, eta> = <xi, A* eta> of Fock vectors.
    """
    space = a.space
    report = VerificationReport()
    res = float(np.abs(a_star.matrix() - a.matrix().conj().T).max())
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
