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
sum_g E(x u_g) u_g*.
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
        for g in range(n):
            if sorted(t[g]) != list(range(n)) or sorted(t[:, g]) != list(range(n)):
                raise ValueError("table is not a Latin square")
            if not np.any(t[g] == 0):
                raise ValueError("element %d has no inverse" % g)
        for a in range(n):
            # row a compares (ab)c, i.e. t[t[a]][b, c], with a(bc) = t[a][t][b, c]
            bad = np.argwhere(t[t[a]] != t[a][t])
            if len(bad):
                b, c = bad[0]
                raise ValueError("table is not associative at (%d, %d, %d)" % (a, b, c))

    def mul(self, a: int, b: int) -> int:
        return int(self.table[a, b])

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
        for g, w in enumerate(self.unitaries):
            if np.abs(w.conj().T @ w - eye).max() > 1e-10:
                raise ValueError("matrix for group element %d is not unitary" % g)
        if np.abs(self.unitaries[0] - eye).max() > 1e-12:
            raise ValueError("identity element must act trivially")
        # Ad must be a genuine homomorphism: w_g w_h may differ from w_{gh}
        # only by a phase.
        for g in range(self.group.order):
            for h in range(self.group.order):
                m = self.unitaries[g] @ self.unitaries[h] @ self.unitaries[self.group.mul(g, h)].conj().T
                lam = np.trace(m) / d
                if np.abs(m - lam * eye).max() > 1e-10 or abs(abs(lam) - 1) > 1e-10:
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
        the terms of one g for every h at once, added in the order of g."""
        fac = self.factor
        out = np.zeros_like(self.coeffs)
        for g, b in enumerate(self.coeffs):
            out[fac.group.table[g]] += b @ fac.alpha(g, other.coeffs)
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


def pp_expand(x: FactorElement) -> np.ndarray:
    """Coefficients (E(x u_g))_g of the module-basis expansion of x, one
    (|G|, d, d) array.

    E(x u_g) picks out the coefficient of x at g^{-1}, so the expansion
    sum_g E(x u_g) u_g* reproduces x exactly.
    """
    return x.coeffs[x.factor.group.inverses]


def pp_reconstruct(factor: CrossedFactor, coeffs) -> FactorElement:
    """sum_g coeffs[g] u_g* for the canonical basis: coeffs[g] u_{g^{-1}}."""
    return FactorElement(factor, np.array(coeffs, dtype=complex)[factor.group.inverses])


def _onb_elements(factor: CrossedFactor) -> list:
    """Orthonormal basis of L2(M_i, tau_i): {b u_g : b in onb(N), g in G}."""
    return [factor._element(g, b) for g in range(factor.group.order)
            for b in factor.base.onb()]


def _coords(x: FactorElement, onb: list) -> np.ndarray:
    return np.array([(e.star() * x).trace() for e in onb], dtype=complex)


def verify_pp_basis(factor: CrossedFactor, basis=None,
                    tol: float = ALGEBRAIC_TOL) -> VerificationReport:
    """Check the four module-basis properties of the family (e_j).

    Orthogonality and normalization of E(e_j* e_k), the partition of unity
    sum_j e_j e_N e_j* = 1 as operators on L2(M_i), and the expansion
    property x = sum_j E(x e_j) e_j* on a spanning set.
    """
    if basis is None:
        basis = factor.pp_basis()
    eye = factor.base.identity()
    report = VerificationReport()

    ortho = 0.0
    normal = 0.0
    for j, ej in enumerate(basis):
        for k, ek in enumerate(basis):
            val = cond_exp(ej.star() * ek)
            if j == k:
                normal = max(normal, float(np.abs(val - eye).max()))
            else:
                ortho = max(ortho, float(np.abs(val).max()))
    report.add("pp_orthogonality", ortho, tol, basis_size=len(basis))
    report.add("pp_normalization", normal, tol, basis_size=len(basis))

    # the matrix of y -> sum_j e_j E(e_j* y) in the orthonormal basis
    onb = _onb_elements(factor)
    total = np.zeros((len(onb), len(onb)), dtype=complex)
    for ej in basis:
        ej_star = ej.star()
        total += np.stack([_coords(ej * factor.from_base(cond_exp(ej_star * y)), onb)
                           for y in onb], axis=1)
    unit_res = float(np.abs(total - np.eye(len(onb))).max())
    report.add("pp_partition_of_unity", unit_res, tol, space_dim=len(onb))

    expansion = 0.0
    for x in onb:
        rec = 0 * x
        for ej in basis:
            rec = rec + factor.from_base(cond_exp(x * ej)) * ej.star()
        expansion = max(expansion, float(np.abs((rec - x).coeffs).max()))
    report.add("pp_expansion", expansion, tol, spanning_size=len(onb))
    return report


def e0_vanishing(factor: CrossedFactor, g: int, b) -> VerificationReport:
    """For gamma = u_g with g != e and b in N, the expansion of gamma*b has
    no component along e_0 = 1, and the sum over j >= 1 already
    reconstructs gamma*b, both to ``ALGEBRAIC_TOL``.
    """
    if g == 0:
        raise ValueError("gamma must avoid the identity element")
    tol = ALGEBRAIC_TOL
    x = factor.unitary(g) * factor.from_base(b)
    coeffs = pp_expand(x)
    report = VerificationReport()
    report.add("e0_coefficient_vanishes", float(np.abs(coeffs[0]).max()), tol, g=g)
    coeffs[0] = 0
    diff = pp_reconstruct(factor, coeffs) - x
    report.add("e0_truncated_reconstruction", float(np.abs(diff.coeffs).max()), tol, g=g)
    return report
