"""Finite-dimensional tracial *-algebras and finite-group crossed products.

The base algebra N is a full matrix algebra M_d(C) with its normalized
trace (d = 1 gives the scalar case).  Each factor is the crossed product
N x| G by a finite group acting through trace-preserving *-automorphisms
alpha_g = Ad(W_g); its elements are sums sum_g b_g u_g with b_g in N and
u_g unitaries obeying u_g b = alpha_g(b) u_g, each held as one (|G|, d, d)
array of its coefficients b_g.  Sums, scalar multiples and adjoints are
array operations, and a product is one loop over the group table.  The
inclusion N in N x| G has integer index |G|, conditional expectation
x -> b_e, and the group unitaries (u_g), with u_e = 1 listed first, form an
orthonormal module basis: E(u_g* u_h) = delta_{g,h} and every x equals
sum_g E(x u_g) u_g*.  ``verify_pp_basis`` checks such a family as matrix
identities on L2(M_i), with no product per pair of its members.
"""

from __future__ import annotations

import numpy as np

from .report import ALGEBRAIC_TOL, VerificationReport


class TracialAlgebra:
    """M_d(C) with the normalized trace tau = Tr/d.

    Elements are (d, d) complex arrays.  The linear basis is the family of
    matrix units E_pq in row-major order, one (d*d, d, d) array.
    """

    def __init__(self, d: int):
        if d < 1:
            raise ValueError("matrix size must be >= 1")
        self.d = d
        self.dim = d * d

    def __eq__(self, other):
        return isinstance(other, TracialAlgebra) and other.d == self.d

    def __repr__(self):
        return "TracialAlgebra(d=%d)" % self.d

    def identity(self) -> np.ndarray:
        return np.eye(self.d, dtype=complex)

    def zero(self) -> np.ndarray:
        return np.zeros((self.d, self.d), dtype=complex)

    def element(self, values) -> np.ndarray:
        x = np.asarray(values, dtype=complex)
        if x.shape == () and self.d == 1:
            x = x.reshape(1, 1)
        if x.shape != (self.d, self.d):
            raise ValueError("expected shape (%d, %d)" % (self.d, self.d))
        return x

    def trace(self, x) -> complex:
        return complex(np.trace(x)) / self.d

    def basis(self) -> np.ndarray:
        """Matrix units E_pq, row-major, as one (d*d, d, d) array."""
        return np.eye(self.dim, dtype=complex).reshape(self.dim, self.d, self.d)

    def onb(self) -> np.ndarray:
        """Orthonormal basis for tau: sqrt(d) * E_pq."""
        return np.sqrt(self.d) * self.basis()

    def random(self, rng) -> np.ndarray:
        return (rng.standard_normal((self.d, self.d))
                + 1j * rng.standard_normal((self.d, self.d)))


class FiniteGroup:
    """Finite group given by its multiplication table, identity at index 0;
    ``inverses[g]`` is the inverse of g."""

    def __init__(self, table):
        table = np.asarray(table, dtype=int)
        if table.ndim != 2 or table.shape[0] != table.shape[1]:
            raise ValueError("multiplication table must be square")
        self.table = table
        self.order = table.shape[0]
        self._validate()
        self.inverses = np.argmax(table == 0, axis=1)

    @staticmethod
    def cyclic(order: int) -> "FiniteGroup":
        if order < 1:
            raise ValueError("group order must be >= 1")
        idx = np.arange(order)
        return FiniteGroup((idx[:, None] + idx[None, :]) % order)

    def _validate(self):
        n = self.order
        t = self.table
        if t.min() < 0 or t.max() >= n:
            raise ValueError("table entries out of range")
        if not (np.array_equal(t[0], np.arange(n)) and np.array_equal(t[:, 0], np.arange(n))):
            raise ValueError("index 0 must be the group identity")
        # per element g, in order: is row g or column g not a permutation,
        # and has row g no identity entry
        perm = np.arange(n)
        latin = ((np.sort(t, axis=1) != perm).any(axis=1)
                 | (np.sort(t, axis=0) != perm[:, None]).any(axis=0))
        no_inverse = ~(t == 0).any(axis=1)
        bad = np.flatnonzero(latin | no_inverse)
        if bad.size:
            if latin[bad[0]]:
                raise ValueError("table is not a Latin square")
            raise ValueError("element %d has no inverse" % bad[0])
        for a in range(n):
            # row a compares (ab)c, i.e. t[t[a]][b, c], with a(bc) = t[a][t][b, c]
            lhs, rhs = t[t[a]], np.take(t[a], t)
            if not np.array_equal(lhs, rhs):
                b, c = np.argwhere(lhs != rhs)[0]
                raise ValueError("table is not associative at (%d, %d, %d)" % (a, b, c))

    def inv(self, a: int) -> int:
        return int(self.inverses[a])


class CrossedFactor:
    """N x| G for a trace-preserving action of a finite group G on N.

    ``unitaries[g]`` implements alpha_g = Ad(unitaries[g]), one (|G|, d, d)
    array; the trivial action uses identities.  The inclusion index is |G|.
    """

    def __init__(self, base: TracialAlgebra, group: FiniteGroup, unitaries=None):
        self.base = base
        self.group = group
        if unitaries is None:
            unitaries = [base.identity()] * group.order
        self.unitaries = np.array(unitaries, dtype=complex)
        self._validate()

    @staticmethod
    def inner_cyclic(base: TracialAlgebra, group: FiniteGroup, unitary) -> "CrossedFactor":
        """The cyclic ``group``, element k being k steps of its generator,
        acting by powers of one unitary: Ad(V**k) on element k."""
        V = np.asarray(unitary, dtype=complex)
        ws = [base.identity()]
        for _ in range(group.order - 1):
            ws.append(ws[-1] @ V)
        return CrossedFactor(base, group, ws)

    def _validate(self):
        d = self.base.d
        if self.unitaries.shape != (self.group.order, d, d):
            raise ValueError("need one %d x %d unitary per group element" % (d, d))
        eye = np.eye(d)
        W = self.unitaries
        W_star = W.conj().transpose(0, 2, 1)
        bad = np.flatnonzero(np.abs(W_star @ W - eye).max(axis=(1, 2)) > 1e-10)
        if bad.size:
            raise ValueError("matrix for group element %d is not unitary" % bad[0])
        if np.abs(W[0] - eye).max() > 1e-12:
            raise ValueError("identity element must act trivially")
        # Ad must be a genuine homomorphism: w_g w_h may differ from w_{gh}
        # only by a phase; every h at once for each g
        for g in range(self.group.order):
            m = W[g] @ W @ W_star[self.group.table[g]]
            lam = np.trace(m, axis1=1, axis2=2)[:, None, None] / d
            if (np.abs(m - lam * eye).max(initial=0.0) > 1e-10
                    or (abs(np.abs(lam) - 1) > 1e-10).any()):
                raise ValueError("unitaries do not implement a group action")

    @property
    def index(self) -> int:
        return self.group.order

    def alpha(self, g, b: np.ndarray) -> np.ndarray:
        """alpha_g(b) = W_g b W_g*; for an array of group elements and a
        stack of coefficients, one per element, the stack of their images."""
        w = self.unitaries[g]
        return w @ b @ np.swapaxes(w, -1, -2).conj()

    def _element(self, g: int, b) -> "FactorElement":
        """b u_g."""
        coeffs = np.zeros((self.group.order, self.base.d, self.base.d), dtype=complex)
        coeffs[g] = b
        return FactorElement(self, coeffs)

    def identity(self) -> "FactorElement":
        return self._element(0, self.base.identity())

    def from_base(self, b) -> "FactorElement":
        return self._element(0, self.base.element(b))

    def unitary(self, g: int) -> "FactorElement":
        return self._element(g, self.base.identity())

    def pp_basis(self) -> list:
        """Group unitaries with u_e = 1 first."""
        return [self.unitary(g) for g in range(self.group.order)]

    def random(self, rng) -> "FactorElement":
        return FactorElement(self, np.array([self.base.random(rng)
                                             for _ in range(self.group.order)]))

    def random_kernel(self, rng) -> "FactorElement":
        """Random element with vanishing conditional expectation onto N: a
        random element with its identity coefficient set to zero, drawn
        again while its 2-norm tau(x* x)^(1/2) is at most 1e-8."""
        if self.group.order < 2:
            raise ValueError("the trivial group has no nonzero kernel elements")
        while True:
            x = self.random(rng)
            x.coeffs[0] = 0
            if np.linalg.norm(x.coeffs) / np.sqrt(self.base.d) > 1e-8:
                return x


class FactorElement:
    """sum_g coeffs[g] u_g inside one crossed product; ``coeffs`` is the
    (|G|, d, d) array of the coefficients, held as it is given."""

    __slots__ = ("factor", "coeffs")

    def __init__(self, factor: CrossedFactor, coeffs: np.ndarray):
        self.factor = factor
        self.coeffs = coeffs

    def __add__(self, other: "FactorElement") -> "FactorElement":
        return FactorElement(self.factor, self.coeffs + other.coeffs)

    def __sub__(self, other: "FactorElement") -> "FactorElement":
        return FactorElement(self.factor, self.coeffs - other.coeffs)

    def __rmul__(self, scalar) -> "FactorElement":
        return FactorElement(self.factor, scalar * self.coeffs)

    def __mul__(self, other: "FactorElement") -> "FactorElement":
        """Product in the crossed product: (b u_g)(c u_h) = b alpha_g(c) u_{gh},
        every (g, h) term at once, added at gh in the order of g."""
        fac = self.factor
        g = np.arange(fac.group.order)
        terms = self.coeffs[:, None] @ fac.alpha(g[:, None], other.coeffs[None])
        out = np.zeros_like(self.coeffs)
        np.add.at(out, fac.group.table, terms)
        return FactorElement(fac, out)

    def star(self) -> "FactorElement":
        """(b u_g)* = alpha_{g^{-1}}(b*) u_{g^{-1}}."""
        inv = self.factor.group.inverses
        out = np.empty_like(self.coeffs)
        out[inv] = self.factor.alpha(inv, self.coeffs.conj().transpose(0, 2, 1))
        return FactorElement(self.factor, out)

    def trace(self) -> complex:
        """tau_i = tau of the identity coefficient."""
        return self.factor.base.trace(self.coeffs[0])


def cond_exp(x: FactorElement) -> np.ndarray:
    """Conditional expectation onto N: keep the identity coefficient."""
    return x.coeffs[0]


def _coords(x: FactorElement) -> np.ndarray:
    """The coordinates of x in the orthonormal basis {b u_g : g in G, b in
    onb(N)} of L2(M_i, tau_i), g-major: tau((b u_g)* x) = tau(b* x_g), and
    b = sqrt(d) E_pq reads x_g[p, q] / sqrt(d)."""
    return x.coeffs.reshape(-1) / np.sqrt(x.factor.base.d)


def multiplication_matrix(elements, side: str) -> np.ndarray:
    """The matrices of b -> x b (``side`` "left") or b -> b x ("right") from
    L2(N) to L2(M_i) for the elements x of one factor, side by side, in the
    bases onb(N) and ``_coords``: the column of b is _coords(x b) or
    _coords(b x), one ``FactorElement`` product."""
    fac = elements[0].factor
    onb = [fac.from_base(b) for b in fac.base.onb()]
    return np.stack([_coords(x * b if side == "left" else b * x)
                     for x in elements for b in onb], axis=1)


def verify_pp_basis(factor: CrossedFactor, basis=None,
                    tol: float = ALGEBRAIC_TOL) -> VerificationReport:
    """Check the four module-basis properties of the family (e_j), with V_j
    the matrix of b -> e_j b and U_j that of b -> b e_j*: orthogonality and
    normalization of E(e_j* e_k) as V_j* V_k = delta_jk 1, the partition of
    unity sum_j e_j e_N e_j* = 1 as sum_j V_j V_j* = 1, and the expansion
    x = sum_j E(x e_j) e_j* as sum_j U_j U_j* = 1, read on coefficients.
    """
    if basis is None:
        basis = factor.pp_basis()
    report = VerificationReport()
    n, k = len(basis), factor.base.dim
    V = multiplication_matrix(basis, "left")
    U = multiplication_matrix([e.star() for e in basis], "right")

    # the largest entry of each block V_j* V_k - delta_jk 1
    gram = np.abs(V.conj().T @ V - np.eye(n * k)).reshape(n, k, n, k).max(axis=(1, 3))
    ortho = float(gram[~np.eye(n, dtype=bool)].max(initial=0.0))
    report.add("pp_orthogonality", ortho, tol, basis_size=n)
    report.add("pp_normalization", float(gram.diagonal().max()), tol, basis_size=n)

    eye = np.eye(len(V))
    unit_res = float(np.abs(V @ V.conj().T - eye).max())
    report.add("pp_partition_of_unity", unit_res, tol, space_dim=len(V))
    expansion = float(np.abs(U @ U.conj().T - eye).max()) * np.sqrt(factor.base.d)
    report.add("pp_expansion", expansion, tol, spanning_size=len(V))
    return report
