"""Radial symbols with geometric tails and their Hankel-matrix calculus.

A radial symbol assigns a complex value phi(n) to every word length
n >= 0.  We restrict to symbols with finitely many free head values
followed by a tail c + r*z**n with |z| < 1; r = 0 makes the symbol
eventually constant.  For these the two Hankel difference matrices

    h[i, j] = phi(i+j)   - phi(i+j+1)
    k[i, j] = phi(i+j+1) - phi(i+j+2)

have finite rank (Kronecker's theorem: their symbols are rational), so the
class norm ||phi||_C = ||h||_1 + ||k||_1 + |lim phi| is exact from a small
matrix, and the telescoped parts

    psi1(n) = sum_{i>=0} (phi(n+2i) - phi(n+2i+1)),   psi2(n) = psi1(n+1)

recover the symbol exactly: phi = psi1 + psi2 + lim phi, in closed form
``RadialSymbol.psi1``, ``psi2`` and ``limit``.

The paper factors h and k into rank-one vector pairs whose sliding
correlations reproduce psi1 and psi2.  M x M truncations with a bound on
the discarded trace norm (``hankel_pair``) and their SVD pairs
(``factorize``) keep that route as an oracle for the closed forms (see also
``psi_via_factors`` in the tests).
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

SV_RELATIVE_CUTOFF = 1e-13  # singular values below this fraction of the top one are noise


@dataclass(frozen=True)
class RadialSymbol:
    """phi: N0 -> C given by explicit head values and a tail.

    ``head`` holds phi(0), ..., phi(m); for n > m the tail
    phi(n) = limit + coefficient * ratio**n applies, with |ratio| < 1.  A
    constant tail is the case coefficient = 0; its ratio is then set to 0,
    so a constant tail has one record.  An empty head means the tail
    formula holds everywhere.
    """

    head: tuple
    limit: complex = 0j
    coefficient: complex = 0j
    ratio: complex = 0j

    def __post_init__(self):
        object.__setattr__(self, "head", tuple(complex(v) for v in self.head))
        for name in ("limit", "coefficient", "ratio"):
            object.__setattr__(self, name, complex(getattr(self, name)))
        if abs(self.ratio) >= 1:
            raise ValueError("geometric tail needs |ratio| < 1, got %r" % (self.ratio,))
        if self.coefficient == 0:
            object.__setattr__(self, "ratio", 0j)

    @property
    def head_end(self) -> int:
        """Largest index covered by the head; -1 for an empty head."""
        return len(self.head) - 1

    def __call__(self, n: int) -> complex:
        if n < 0:
            raise ValueError("radial symbols are defined on n >= 0")
        if n < len(self.head):
            return self.head[n]
        return self.limit + self.coefficient * self.ratio ** n

    def psi1(self, n: int) -> complex:
        """psi1(n) = sum_{i>=0} (phi(n+2i) - phi(n+2i+1)), the head telescoped
        and the tail closed in one step: past the head, psi1(n) is
        r * z**n / (1 + z), which is 0 for a constant tail (r = 0)."""
        m = self.head_end
        total = 0j
        arg = n
        while arg <= m:
            total += self(arg) - self(arg + 1)
            arg += 2
        return total + self.coefficient * self.ratio ** arg / (1 + self.ratio)

    def psi2(self, n: int) -> complex:
        """psi2(n) = psi1(n+1)."""
        return self.psi1(n + 1)

    # common examples used across tests and presets
    @staticmethod
    def delta0() -> "RadialSymbol":
        return RadialSymbol(head=(1.0,))

    @staticmethod
    def indicator01() -> "RadialSymbol":
        return RadialSymbol(head=(1.0, 1.0))

    @staticmethod
    def constant(c) -> "RadialSymbol":
        return RadialSymbol(head=(), limit=c)

    @staticmethod
    def geometric(ratio, coefficient=1.0, limit=0.0) -> "RadialSymbol":
        return RadialSymbol(head=(), limit=limit, coefficient=coefficient, ratio=ratio)


@dataclass(frozen=True)
class HankelPair:
    """M x M truncations of the two Hankel difference matrices.

    ``tail_error`` bounds the trace norm of everything the truncation
    discarded, summed over both matrices; it vanishes for eventually
    constant symbols once M exceeds the head.
    """

    h: np.ndarray
    k: np.ndarray
    tail_error: float


def _sum_weighted_geometric(q: float, start: int) -> float:
    """sum_{s >= start} (s+1) * q**s, for 0 <= q < 1."""
    if q == 0.0:
        return float(start == 0)
    return q ** start * ((start + 1) * (1 - q) + q) / (1 - q) ** 2


def _discard_bound(phi: RadialSymbol, M: int, offset: int) -> float:
    """Bound the trace norm of the part of the (offset-shifted) Hankel
    difference matrix outside the leading M x M block.

    Each discarded antidiagonal i+j = s contributes at most (s+1) rank-one
    units of size |phi(s+offset) - phi(s+offset+1)|.
    """
    m = phi.head_end
    total = 0.0
    s = M
    while s + offset <= m:
        total += (s + 1) * abs(phi(s + offset) - phi(s + offset + 1))
        s += 1
    q = abs(phi.ratio)
    amp = abs(phi.coefficient * (1 - phi.ratio))
    return total + amp * q ** offset * _sum_weighted_geometric(q, s)


def hankel_pair(phi: RadialSymbol, M: int) -> HankelPair:
    if M < 1:
        raise ValueError("truncation dimension must be positive")
    values = np.array([phi(n) for n in range(2 * M + 1)], dtype=complex)
    diffs = values[:-1] - values[1:]  # diffs[s] = phi(s) - phi(s+1)
    idx = np.arange(M)
    s = idx[:, None] + idx[None, :]
    h = diffs[s]
    k = diffs[s + 1]
    tail_error = _discard_bound(phi, M, 0) + _discard_bound(phi, M, 1)
    return HankelPair(h=h, k=k, tail_error=tail_error)


def trace_norm(A: np.ndarray) -> float:
    """Sum of singular values (Schatten-1 norm); inf for a matrix with a
    non-finite entry, which LAPACK is not handed."""
    A = np.atleast_2d(np.asarray(A, dtype=complex))
    if A.size == 0:
        return 0.0
    if not np.isfinite(A).all():
        return math.inf
    return float(np.linalg.svd(A, compute_uv=False).sum())


@dataclass(frozen=True)
class HankelFactorization:
    """Rank-one expansion A = sum_i outer(x_i, conj(y_i)) from an SVD.

    The pairs are balanced (||x_i|| = ||y_i|| = sqrt(sigma_i)), so
    sum_i ||x_i|| * ||y_i|| equals the trace norm of the factored matrix.
    """

    pairs: tuple
    dim: int

    def reconstruct(self) -> np.ndarray:
        out = np.zeros((self.dim, self.dim), dtype=complex)
        for x, y in self.pairs:
            out += np.outer(x, y.conj())
        return out

    def norm_sum(self) -> float:
        return float(sum(np.linalg.norm(x) * np.linalg.norm(y) for x, y in self.pairs))


def factorize(A: np.ndarray) -> HankelFactorization:
    A = np.atleast_2d(np.asarray(A, dtype=complex))
    if A.shape[0] != A.shape[1]:
        raise ValueError("factorize expects a square matrix")
    u, s, vh = np.linalg.svd(A)
    pairs = []
    if s.size and s[0] > 0:
        for i, sv in enumerate(s):
            if sv <= SV_RELATIVE_CUTOFF * s[0]:
                break
            w = math.sqrt(sv)
            pairs.append((w * u[:, i], w * vh[i, :].conj()))
    return HankelFactorization(pairs=tuple(pairs), dim=A.shape[0])


def hankel_trace_norm(phi: RadialSymbol, shift: int) -> float:
    """Exact trace norm of (d(i+j+shift)), d(s) = phi(s) - phi(s+1): ||h||_1
    for shift 0, ||k||_1 for shift 1.

    Past p = head_end + 1 the entries are g z**(i+j), g = r (1-z) z**shift, so
    rows and columns >= p collapse onto the unit vector (z**j / N)_{j>=p},
    N**2 = |z|**(2p) / (1 - |z|**2), leaving a (p+1) x (p+1) matrix.
    """
    p = phi.head_end + 1
    i = np.arange(p)
    d = np.array([phi(s) - phi(s + 1) for s in range(2 * p + shift)], dtype=complex)
    C = np.zeros((p + 1, p + 1), dtype=complex)
    C[:p, :p] = d[i[:, None] + i[None, :] + shift]
    z = phi.ratio
    g = phi.coefficient * (1 - z) * z ** shift
    N = math.sqrt(abs(z) ** (2 * p) / (1 - abs(z) ** 2))
    C[:p, p] = C[p, :p] = g * z ** i * N
    C[p, p] = g * N * N
    return trace_norm(C)


def norm_C(phi: RadialSymbol) -> float:
    """The class norm ||h||_1 + ||k||_1 + |c|, exact (no truncation)."""
    return hankel_trace_norm(phi, 0) + hankel_trace_norm(phi, 1) + abs(phi.limit)


def ricard_xu_bound(phi: RadialSymbol) -> float:
    """The linear-growth comparison bound |phi(0)| + sum_{n>=1} 4n|phi(n)|.

    Diverges (returns inf) whenever the symbol does not vanish at infinity.
    """
    if abs(phi.limit) > 0:
        return math.inf
    m = phi.head_end
    total = abs(phi(0))
    for n in range(1, m + 1):
        total += 4 * n * abs(phi(n))
    q = abs(phi.ratio)
    start = max(m + 1, 1)
    return total + 4 * abs(phi.coefficient) * q ** start * (start * (1 - q) + q) / (1 - q) ** 2


def write_symbol_csv(path, phi: RadialSymbol, M: int) -> None:
    """Tabulate phi, psi1, psi2 on 0 <= n <= 2M as real/imaginary columns."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["n", "re_phi", "im_phi", "re_psi1", "im_psi1", "re_psi2", "im_psi2"])
        for n in range(2 * M + 1):
            p, p1, p2 = phi(n), phi.psi1(n), phi.psi2(n)
            writer.writerow([n, repr(p.real), repr(p.imag), repr(p1.real),
                             repr(p1.imag), repr(p2.real), repr(p2.imag)])
