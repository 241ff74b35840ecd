"""Finite-dimensional tracial *-algebras and finite-group crossed products.

The base algebra N is a full matrix algebra M_d(C) with its normalized
trace (d = 1 gives the scalar case).  Each factor is the crossed product
N x| G by a finite group acting through trace-preserving *-automorphisms
alpha_g = Ad(W_g); its elements are sums sum_g b_g u_g with b_g in N and
u_g unitaries obeying u_g b = alpha_g(b) u_g, each held as one (|G|, d, d)
array of its coefficients b_g.  Sums and scalar multiples are those of the
arrays, the adjoint (``CrossedFactor.star``) is one gather, and a product
(``CrossedFactor.mul``) forms the (g, h) terms of every h where the right
factor is nonzero at once and adds them at gh in one ``np.add.at`` over
the group table.
The inclusion N in N x| G has integer index |G|, conditional expectation
x -> b_e, and the group unitaries (u_g), with u_e = 1 listed first, form
an orthonormal module basis: E(u_g* u_h) = delta_{g,h} and every x equals
sum_g E(x u_g) u_g*.  ``verify_pp_basis`` checks such a family as matrix
identities on L2(M_i), with no product per pair of its members.
"""

from __future__ import annotations

import numpy as np

from .report import VerificationReport


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
        # every row and column a permutation; so every row holds the
        # identity 0, and every element has an inverse
        perm = np.arange(n)
        if (np.sort(t, axis=1) != perm).any() or (np.sort(t, axis=0) != perm[:, None]).any():
            raise ValueError("table is not a Latin square")
        # Light's test: (x s) y = x (s y) for every s of a generating set
        # makes the table associative, since the s it holds for are closed
        # under products.  The set is grown greedily: the least element that
        # products of the set so far do not reach
        gens, reached = [], np.zeros(n, dtype=bool)
        reached[0] = True
        while not reached.all():
            gens.append(int(np.argmin(reached)))
            frontier = np.flatnonzero(reached)
            while frontier.size:
                step = np.zeros(n, dtype=bool)
                step[t[np.ix_(frontier, gens)]] = True
                frontier = np.flatnonzero(step & ~reached)
                reached |= step
        if all(np.array_equal(t[t[:, s]], t[:, t[s]]) for s in gens):
            return
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

    def alpha(self, g, b: np.ndarray) -> np.ndarray:
        """alpha_g(b) = W_g b W_g*; for an array of group elements and a
        stack of coefficients, one per element, the stack of their images."""
        w = self.unitaries[g]
        return w @ b @ np.swapaxes(w, -1, -2).conj()

    def _element(self, g: int, b) -> np.ndarray:
        """b u_g."""
        coeffs = np.zeros((self.group.order, self.base.d, self.base.d), dtype=complex)
        coeffs[g] = b
        return coeffs

    def identity(self) -> np.ndarray:
        return self._element(0, self.base.identity())

    def from_base(self, b) -> np.ndarray:
        return self._element(0, self.base.element(b))

    def unitary(self, g: int) -> np.ndarray:
        return self._element(g, self.base.identity())

    def pp_basis(self) -> list:
        """Group unitaries with u_e = 1 first."""
        return [self.unitary(g) for g in range(self.group.order)]

    def random(self, rng) -> np.ndarray:
        return np.array([self.base.random(rng) for _ in range(self.group.order)])

    def random_kernel(self, rng) -> np.ndarray:
        """Random element with vanishing conditional expectation onto N: a
        random element with its identity coefficient set to zero, drawn
        again while its 2-norm tau(x* x)^(1/2) is at most 1e-8."""
        if self.group.order < 2:
            raise ValueError("the trivial group has no nonzero kernel elements")
        while True:
            x = self.random(rng)
            x[0] = 0
            if np.linalg.norm(x) / np.sqrt(self.base.d) > 1e-8:
                return x

    def mul(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """The product x y: (b u_g)(c u_h) = b alpha_g(c) u_{gh}, the (g, h)
        terms of the h with y_h nonzero at once, added at gh in g order."""
        g = np.arange(self.group.order)
        h = np.flatnonzero(y.any(axis=(1, 2)))
        terms = x[:, None] @ self.alpha(g[:, None], y[h][None])
        out = np.zeros_like(x)
        np.add.at(out, self.group.table[:, h], terms)
        return out

    def star(self, x: np.ndarray) -> np.ndarray:
        """The adjoint: (b u_g)* = alpha_{g^{-1}}(b*) u_{g^{-1}}."""
        inv = self.group.inverses
        out = np.empty_like(x)
        out[inv] = self.alpha(inv, x.conj().transpose(0, 2, 1))
        return out


def multiplication_matrix(factor: CrossedFactor, elements, side: str) -> np.ndarray:
    """The matrices of b -> x b (``side`` "left") or b -> b x ("right") from
    L2(N) to L2(M_i) for elements x of ``factor``, side by side, in the
    bases onb(N) and {b u_g : g in G, b in onb(N)}, g-major: the column of b
    is the coefficients of x b or b x (one ``mul``) over sqrt(d), since
    tau((b u_g)* y) = tau(b* y_g) and b = sqrt(d) E_pq reads y_g[p, q] / sqrt(d)."""
    onb = [factor.from_base(b) for b in factor.base.onb()]
    scale = np.sqrt(factor.base.d)
    return np.stack([(factor.mul(x, b) if side == "left" else factor.mul(b, x)).reshape(-1) / scale
                     for x in elements for b in onb], axis=1)


def verify_pp_basis(factor: CrossedFactor, basis=None) -> VerificationReport:
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
    V = multiplication_matrix(factor, basis, "left")
    U = multiplication_matrix(factor, [factor.star(e) for e in basis], "right")

    # the largest entry of each block V_j* V_k - delta_jk 1
    gram = np.abs(V.conj().T @ V - np.eye(n * k)).reshape(n, k, n, k).max(axis=(1, 3))
    ortho = float(gram[~np.eye(n, dtype=bool)].max(initial=0.0))
    report.add("pp_orthogonality", ortho, basis_size=n)
    report.add("pp_normalization", float(gram.diagonal().max()), basis_size=n)

    eye = np.eye(len(V))
    unit_res = float(np.abs(V @ V.conj().T - eye).max())
    report.add("pp_partition_of_unity", unit_res, space_dim=len(V))
    expansion = float(np.abs(U @ U.conj().T - eye).max()) * np.sqrt(factor.base.d)
    report.add("pp_expansion", expansion, spanning_size=len(V))
    return report
