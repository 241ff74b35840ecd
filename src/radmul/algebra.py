"""Finite-dimensional tracial *-algebras and finite-group crossed products.

The base algebra N is a full matrix algebra M_d(C) with its normalized
trace (d = 1 gives the scalar case).  Each factor is the crossed product
N x| G by a finite group acting through trace-preserving *-automorphisms;
its elements are finitely supported sums sum_g b_g u_g with b_g in N and
u_g unitaries obeying u_g b = alpha_g(b) u_g.  The inclusion N in N x| G
has integer index |G|, conditional expectation x -> b_e, and the group
unitaries (u_g), with u_e = 1 listed first, form an orthonormal module
basis: E(u_g* u_h) = delta_{g,h} and every x equals sum_g E(x u_g) u_g*.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .report import ALGEBRAIC_TOL, VerificationReport


class TracialAlgebra:
    """M_d(C) with the normalized trace tau = Tr/d.

    Elements are (d, d) complex arrays.  The linear basis is the family of
    matrix units E_pq in row-major order; structure constants and the
    involution table are derived from it on demand.
    """

    def __init__(self, d: int):
        if d < 1:
            raise ValueError("matrix size must be >= 1")
        self.d = d
        self.dim = d * d

    @staticmethod
    def scalar() -> "TracialAlgebra":
        return TracialAlgebra(1)

    @staticmethod
    def matrix(d: int) -> "TracialAlgebra":
        return TracialAlgebra(d)

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

    def mul(self, x, y) -> np.ndarray:
        return x @ y

    def star(self, x) -> np.ndarray:
        return x.conj().T

    def trace(self, x) -> complex:
        return complex(np.trace(x)) / self.d

    def inner(self, x, y) -> complex:
        """tau(x* y); conjugate-linear in the first slot."""
        return self.trace(x.conj().T @ y)

    def norm(self, x) -> float:
        return float(np.sqrt(max(self.inner(x, x).real, 0.0)))

    def basis(self) -> list:
        """Matrix units E_pq, row-major."""
        out = []
        for p in range(self.d):
            for q in range(self.d):
                e = self.zero()
                e[p, q] = 1.0
                out.append(e)
        return out

    def onb(self) -> list:
        """Orthonormal basis for tau: sqrt(d) * E_pq."""
        s = np.sqrt(self.d)
        return [s * e for e in self.basis()]

    def random(self, rng) -> np.ndarray:
        return (rng.standard_normal((self.d, self.d))
                + 1j * rng.standard_normal((self.d, self.d)))

    def structure_constants(self) -> np.ndarray:
        """c[i, j, k] with basis_i basis_j = sum_k c[i, j, k] basis_k."""
        basis = self.basis()
        n = len(basis)
        c = np.zeros((n, n, n), dtype=complex)
        for i, ei in enumerate(basis):
            for j, ej in enumerate(basis):
                prod = ei @ ej
                c[i, j, :] = prod.reshape(-1)
        return c

    def involution_table(self) -> np.ndarray:
        """s[i, j] with basis_i* = sum_j s[i, j] basis_j (conjugate-linear part factored out)."""
        basis = self.basis()
        n = len(basis)
        s = np.zeros((n, n), dtype=complex)
        for i, ei in enumerate(basis):
            s[i, :] = ei.conj().T.reshape(-1)
        return s


class FiniteGroup:
    """Finite group given by its multiplication table, identity at index 0."""

    def __init__(self, table):
        table = np.asarray(table, dtype=int)
        if table.ndim != 2 or table.shape[0] != table.shape[1]:
            raise ValueError("multiplication table must be square")
        self.table = table
        self.order = table.shape[0]
        self._validate()
        self._inv = np.empty(self.order, dtype=int)
        for g in range(self.order):
            hits = np.nonzero(table[g] == 0)[0]
            self._inv[g] = hits[0]

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
        return int(self._inv[a])


class CrossedFactor:
    """N x| G for a trace-preserving action of a finite group G on N.

    ``unitaries[g]`` implements alpha_g = Ad(unitaries[g]); the trivial
    action uses identities.  The inclusion index is |G|.
    """

    def __init__(self, base: TracialAlgebra, group: FiniteGroup, unitaries=None):
        self.base = base
        self.group = group
        if unitaries is None:
            unitaries = [base.identity() for _ in range(group.order)]
        self.unitaries = [np.asarray(w, dtype=complex) for w in unitaries]
        self._validate()

    @staticmethod
    def trivial(base: TracialAlgebra, group: FiniteGroup) -> "CrossedFactor":
        return CrossedFactor(base, group)

    @staticmethod
    def inner_cyclic(base: TracialAlgebra, order: int, unitary) -> "CrossedFactor":
        """Cyclic group acting by powers of one unitary (Ad(V**k) at step k)."""
        V = np.asarray(unitary, dtype=complex)
        ws = [base.identity()]
        for _ in range(order - 1):
            ws.append(ws[-1] @ V)
        return CrossedFactor(base, FiniteGroup.cyclic(order), ws)

    def _validate(self):
        d = self.base.d
        if len(self.unitaries) != self.group.order:
            raise ValueError("need one unitary per group element")
        eye = np.eye(d)
        for g, w in enumerate(self.unitaries):
            if w.shape != (d, d):
                raise ValueError("unitary %d has wrong shape" % g)
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

    def alpha(self, g: int, b: np.ndarray) -> np.ndarray:
        w = self.unitaries[g]
        return w @ b @ w.conj().T

    def identity(self) -> "FactorElement":
        return FactorElement(self, {0: self.base.identity()})

    def from_base(self, b) -> "FactorElement":
        return FactorElement(self, {0: self.base.element(b)})

    def unitary(self, g: int) -> "FactorElement":
        return FactorElement(self, {g: self.base.identity()})

    def pp_basis(self) -> list:
        """Group unitaries with u_e = 1 first."""
        return [self.unitary(g) for g in range(self.group.order)]

    def random(self, rng) -> "FactorElement":
        return FactorElement(self, {g: self.base.random(rng) for g in range(self.group.order)})

    def random_kernel(self, rng, min_norm: float = 1e-8) -> "FactorElement":
        """Random element with vanishing conditional expectation onto N."""
        if self.group.order < 2:
            raise ValueError("the trivial group has no nonzero kernel elements")
        while True:
            x = self.random(rng)
            x = x - self.from_base(cond_exp(x))
            if x.norm() > min_norm:
                return x


@dataclass
class FactorElement:
    """sum_g coeffs[g] u_g inside one crossed product."""

    factor: CrossedFactor
    coeffs: dict = field(default_factory=dict)

    def __post_init__(self):
        clean = {}
        for g, b in self.coeffs.items():
            arr = self.factor.base.element(b)
            if np.any(arr):
                clean[int(g)] = arr
        self.coeffs = clean

    def coeff(self, g: int) -> np.ndarray:
        return self.coeffs.get(g, self.factor.base.zero())

    def __add__(self, other: "FactorElement") -> "FactorElement":
        out = dict(self.coeffs)
        for g, b in other.coeffs.items():
            out[g] = out.get(g, 0) + b
        return FactorElement(self.factor, out)

    def __sub__(self, other: "FactorElement") -> "FactorElement":
        return self + (-1.0) * other

    def __rmul__(self, scalar) -> "FactorElement":
        return FactorElement(self.factor, {g: scalar * b for g, b in self.coeffs.items()})

    def __mul__(self, other):
        """Product in the crossed product: (b u_g)(c u_h) = b alpha_g(c) u_{gh}."""
        if not isinstance(other, FactorElement):
            return FactorElement(self.factor,
                                 {g: b * other for g, b in self.coeffs.items()})
        fac = self.factor
        out: dict = {}
        for g, b in self.coeffs.items():
            for h, c in other.coeffs.items():
                gh = fac.group.mul(g, h)
                out[gh] = out.get(gh, 0) + b @ fac.alpha(g, c)
        return FactorElement(fac, out)

    def star(self) -> "FactorElement":
        """(b u_g)* = alpha_{g^{-1}}(b*) u_{g^{-1}}."""
        fac = self.factor
        out = {}
        for g, b in self.coeffs.items():
            gi = fac.group.inv(g)
            out[gi] = fac.alpha(gi, b.conj().T)
        return FactorElement(fac, out)

    def trace(self) -> complex:
        """tau_i = tau of the identity coefficient."""
        return self.factor.base.trace(self.coeff(0))

    def norm(self) -> float:
        val = (self.star() * self).trace().real
        return float(np.sqrt(max(val, 0.0)))

    def is_zero(self, tol: float = 0.0) -> bool:
        return all(np.abs(b).max() <= tol for b in self.coeffs.values())


def cond_exp(x: FactorElement) -> np.ndarray:
    """Conditional expectation onto N: keep the identity coefficient."""
    return x.coeff(0)


def pp_expand(x: FactorElement) -> list:
    """Coefficients (E(x u_g))_g of the module-basis expansion of x.

    E(x u_g) picks out the coefficient of x at g^{-1}, so the expansion
    sum_g E(x u_g) u_g* reproduces x exactly.
    """
    fac = x.factor
    return [x.coeff(fac.group.inv(g)) for g in range(fac.group.order)]


def pp_reconstruct(factor: CrossedFactor, coeffs) -> FactorElement:
    """sum_g coeffs[g] u_g* for the canonical basis."""
    out = FactorElement(factor, {})
    for g, b in enumerate(coeffs):
        out = out + factor.from_base(b) * factor.unitary(g).star()
    return out


def _onb_elements(factor: CrossedFactor) -> list:
    """Orthonormal basis of L2(M_i, tau_i): {b u_g : b in onb(N), g in G}."""
    out = []
    for g in range(factor.group.order):
        for b in factor.base.onb():
            out.append(FactorElement(factor, {g: b}))
    return out


def _coords(factor: CrossedFactor, x: FactorElement, onb: list) -> np.ndarray:
    return np.array([(e.star() * x).trace() for e in onb], dtype=complex)


def _left_mult_matrix(factor: CrossedFactor, apply_fn, onb: list) -> np.ndarray:
    cols = [_coords(factor, apply_fn(e), onb) for e in onb]
    return np.stack(cols, axis=1)


def verify_pp_basis(factor: CrossedFactor, basis=None,
                    tol: float = ALGEBRAIC_TOL) -> VerificationReport:
    """Check the four module-basis properties of the family (e_j).

    Orthogonality and normalization of E(e_j* e_k), the partition of unity
    sum_j e_j e_N e_j* = 1 as operators on L2(M_i), and the expansion
    property x = sum_j E(x e_j) e_j* on a spanning set.
    """
    if basis is None:
        basis = factor.pp_basis()
    base = factor.base
    eye = base.identity()
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

    onb = _onb_elements(factor)
    total = np.zeros((len(onb), len(onb)), dtype=complex)
    for ej in basis:
        ej_star = ej.star()

        def jones_term(y, ej=ej, ej_star=ej_star):
            return ej * factor.from_base(cond_exp(ej_star * y))

        total += _left_mult_matrix(factor, jones_term, onb)
    unit_res = float(np.abs(total - np.eye(len(onb))).max())
    report.add("pp_partition_of_unity", unit_res, tol, space_dim=len(onb))

    expansion = 0.0
    for x in onb:
        rec = FactorElement(factor, {})
        for ej in basis:
            rec = rec + factor.from_base(cond_exp(x * ej)) * ej.star()
        diff = rec - x
        expansion = max(expansion, max((float(np.abs(b).max())
                                        for b in diff.coeffs.values()), default=0.0))
    report.add("pp_expansion", expansion, tol, spanning_size=len(onb))
    return report


def e0_vanishing(factor: CrossedFactor, g: int, b,
                 tol: float = ALGEBRAIC_TOL) -> VerificationReport:
    """For gamma = u_g with g != e and b in N, the expansion of gamma*b has
    no component along e_0 = 1, and the sum over j >= 1 already
    reconstructs gamma*b.
    """
    if g == 0:
        raise ValueError("gamma must avoid the identity element")
    x = factor.unitary(g) * factor.from_base(b)
    coeffs = pp_expand(x)
    report = VerificationReport()
    report.add("e0_coefficient_vanishes", float(np.abs(coeffs[0]).max()), tol, g=g)
    partial = pp_reconstruct(factor, [factor.base.zero()] + coeffs[1:])
    diff = partial - x
    res = max((float(np.abs(v).max()) for v in diff.coeffs.values()), default=0.0)
    report.add("e0_truncated_reconstruction", res, tol, g=g)
    return report
