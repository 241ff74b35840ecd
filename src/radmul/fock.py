"""Truncated amalgamated free Fock space over crossed-product factors.

Vectors live in the direct sum, over reduced words w, of one copy of the
base algebra N: a word is an alternating string of letters (i, g) -- factor
index i, nontrivial group element g -- and carries a single right
N-coefficient.  Interior and left coefficients are pushed to the right end
through the covariance relation b u_g = u_g alpha_g^{-1}(b), which makes
the right N-module structure exact: words are orthonormal over N,

    <w b, w' c>_N = delta_{w,w'} b* c,

conjugate-linear in the first slot, with scalar product tau(<.,.>_N).
Everything is truncated at a maximal word length; operations that would
exceed it yield zero.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import CrossedFactor, TracialAlgebra

Letter = tuple  # (factor index, group element index != 0)


@dataclass(frozen=True)
class Word:
    """Reduced word: adjacent letters from distinct factors, no identity letters."""

    letters: tuple = ()

    def __post_init__(self):
        for j, (i, g) in enumerate(self.letters):
            if g == 0:
                raise ValueError("letters must avoid the group identity")
            if j and self.letters[j - 1][0] == i:
                raise ValueError("adjacent letters from the same factor")

    def __len__(self):
        return len(self.letters)

    @property
    def first_factor(self) -> int:
        return self.letters[0][0] if self.letters else -1

    @property
    def last_factor(self) -> int:
        return self.letters[-1][0] if self.letters else -1

    def prepend(self, letter: Letter) -> "Word":
        return Word((tuple(letter),) + self.letters)

    def append(self, letter: Letter) -> "Word":
        return Word(self.letters + (tuple(letter),))

    def drop_first(self) -> "Word":
        return Word(self.letters[1:])

    def drop_last(self) -> "Word":
        return Word(self.letters[:-1])


class Amalgam:
    """The ambient family: base algebra N and the crossed-product factors."""

    def __init__(self, factors):
        factors = tuple(factors)
        if not factors:
            raise ValueError("need at least one factor")
        base = factors[0].base
        for f in factors:
            if f.base != base:
                raise ValueError("all factors must share the base algebra")
        self.base: TracialAlgebra = base
        self.factors: tuple = factors

    def letters(self) -> list:
        """All nontrivial letters in configuration order."""
        out = []
        for i, fac in enumerate(self.factors):
            for g in range(1, fac.group.order):
                out.append((i, g))
        return out

    def factor(self, i: int) -> CrossedFactor:
        return self.factors[i]

    def push(self, b: np.ndarray, letter: Letter) -> np.ndarray:
        """Move b in N from the left of u_g to its right: b u_g = u_g alpha_{g^{-1}}(b)."""
        i, g = letter
        fac = self.factors[i]
        return fac.alpha(fac.group.inv(g), b)


def enumerate_words(amalgam: Amalgam, max_len: int) -> list:
    """All reduced words of length <= max_len in length-lexicographic order."""
    if max_len < 0:
        raise ValueError("word length bound must be nonnegative")
    letters = amalgam.letters()
    words = [Word()]
    frontier = [Word()]
    for _ in range(max_len):
        nxt = []
        for w in frontier:
            for letter in letters:
                if w.letters and w.last_factor == letter[0]:
                    continue
                nxt.append(w.append(letter))
        frontier = nxt
        words.extend(nxt)
    return words


class FockVector:
    """Finitely supported map from words to right N-coefficients."""

    __slots__ = ("space", "coeffs")

    def __init__(self, space: "FockSpace", coeffs=None):
        """Keep the complex coefficients of the words within the truncation
        that are not all zero, filtered in one pass over the stacked blocks."""
        self.space = space
        self.coeffs = {}
        words = [w for w in coeffs or () if len(w) <= space.L_max]
        if words:
            blocks = np.asarray([coeffs[w] for w in words], dtype=complex)
            keep = blocks.reshape(len(words), -1).any(axis=1)
            self.coeffs = {w: b for w, b, k in zip(words, blocks, keep) if k}

    def coeff(self, word: Word) -> np.ndarray:
        got = self.coeffs.get(word)
        return got if got is not None else self.space.base.zero()

    def items(self):
        return self.coeffs.items()

    def is_zero(self, tol: float = 0.0) -> bool:
        return all(np.abs(b).max() <= tol for b in self.coeffs.values())

    def __add__(self, other: "FockVector") -> "FockVector":
        out = dict(self.coeffs)
        for w, b in other.coeffs.items():
            out[w] = out.get(w, 0) + b
        return FockVector(self.space, out)

    def __sub__(self, other: "FockVector") -> "FockVector":
        return self + (-1.0) * other

    def __rmul__(self, scalar) -> "FockVector":
        return FockVector(self.space, {w: scalar * b for w, b in self.coeffs.items()})

    def __neg__(self) -> "FockVector":
        return (-1.0) * self

    def right_mul(self, b) -> "FockVector":
        b = self.space.base.element(b)
        return FockVector(self.space, {w: c @ b for w, c in self.coeffs.items()})

    def left_mul(self, b) -> "FockVector":
        """Left N-action: push b through every letter onto the right coefficient."""
        b = self.space.base.element(b)
        am = self.space.amalgam
        out = {}
        for w, c in self.coeffs.items():
            pushed = b
            for letter in w.letters:
                pushed = am.push(pushed, letter)
            out[w] = out.get(w, 0) + pushed @ c
        return FockVector(self.space, out)

    def inner_N(self, other: "FockVector") -> np.ndarray:
        """N-valued inner product, conjugate-linear in self."""
        out = self.space.base.zero()
        for w, c in self.coeffs.items():
            d = other.coeffs.get(w)
            if d is not None:
                out += c.conj().T @ d
        return out

    def inner(self, other: "FockVector") -> complex:
        return self.space.base.trace(self.inner_N(other))

    def norm(self) -> float:
        return float(np.sqrt(max(self.inner(self).real, 0.0)))

    def to_array(self) -> np.ndarray:
        return self.space.to_array(self)


@dataclass(frozen=True)
class SectorProjection:
    """Diagonal projection keyed on word length or on the final factor;
    :func:`radmul.operators.sector_operator` gives its operator."""

    kind: str  # "length_at_least" | "length_exactly" | "ends_in_factor"
    param: int

    def __post_init__(self):
        if self.kind not in ("length_at_least", "length_exactly", "ends_in_factor"):
            raise ValueError("unknown sector projection %r" % (self.kind,))


class FockSpace:
    """Enumerated word basis at a fixed truncation, with coordinate maps.

    The scalar orthonormal basis is (word, onb element of N) in
    length-lexicographic word order; its size is the dimension of every
    operator in :mod:`radmul.operators`.  The instance carries a cache dict
    so operator-level helpers can memoize their word-index maps (letter
    maps, right creations, push unitaries) per space.
    """

    def __init__(self, amalgam: Amalgam, L_max: int):
        if L_max < 0:
            raise ValueError("truncation length must be nonnegative")
        self.amalgam = amalgam
        self.base = amalgam.base
        self.L_max = L_max
        self.words = tuple(enumerate_words(amalgam, L_max))
        self.word_index = {w: i for i, w in enumerate(self.words)}
        self.n_onb = self.base.onb()
        self.dim_N = len(self.n_onb)
        self.dim = len(self.words) * self.dim_N
        self.lengths = np.repeat([len(w) for w in self.words], self.dim_N)
        self.first_factors = np.repeat([w.first_factor for w in self.words], self.dim_N)
        self.last_factors = np.repeat([w.last_factor for w in self.words], self.dim_N)
        self._scale = np.sqrt(self.base.d)
        self.cache: dict = {}

    def zero_vector(self) -> FockVector:
        return FockVector(self, {})

    def vacuum(self, b=None) -> FockVector:
        coeff = self.base.identity() if b is None else self.base.element(b)
        return FockVector(self, {Word(): coeff})

    def basis_fock_vector(self, idx: int) -> FockVector:
        w = self.words[idx // self.dim_N]
        return FockVector(self, {w: self.n_onb[idx % self.dim_N]})

    def word_vector(self, word: Word, b=None) -> FockVector:
        coeff = self.base.identity() if b is None else self.base.element(b)
        return FockVector(self, {word: coeff})

    def to_array(self, vec: FockVector) -> np.ndarray:
        out = np.zeros((len(self.words), self.dim_N), dtype=complex)
        if vec.coeffs:
            rows = [self.word_index[w] for w in vec.coeffs]
            out[rows] = np.reshape(list(vec.coeffs.values()), (len(rows), -1)) / self._scale
        return out.reshape(-1)

    def from_array(self, arr: np.ndarray) -> FockVector:
        d = self.base.d
        blocks = np.asarray(arr, dtype=complex).reshape(len(self.words), d, d)
        nonzero = np.flatnonzero(blocks.any(axis=(1, 2)))
        vec = FockVector(self)
        # already nonzero complex blocks of basis words: no per-word filter
        vec.coeffs = dict(zip([self.words[j] for j in nonzero], blocks[nonzero] * self._scale))
        return vec

    def guard_mask(self, max_len: int) -> np.ndarray:
        """Scalar-basis indices whose word length stays within max_len."""
        return self.lengths <= max_len


def canonicalize(space: FockSpace, letters, coeffs=None) -> FockVector:
    """Collapse a formal tensor b_0 u_{g_1} b_1 ... u_{g_k} b_k to canonical form.

    All interior and left coefficients get pushed to the single right slot.
    Words beyond the truncation give the zero vector; a same-factor
    adjacency raises.
    """
    letters = [tuple(l) for l in letters]
    if coeffs is None:
        coeffs = [space.base.identity()] * (len(letters) + 1)
    if len(coeffs) != len(letters) + 1:
        raise ValueError("need one more coefficient than letters")
    word = Word(tuple(letters))  # adjacency validation happens here
    if len(word) > space.L_max:
        return space.zero_vector()
    am = space.amalgam
    acc = space.base.element(coeffs[0])
    for letter, right in zip(letters, coeffs[1:]):
        acc = am.push(acc, letter) @ space.base.element(right)
    return FockVector(space, {word: acc})


def lambda_span(space: FockSpace, k: int) -> list:
    """Spanning family of the length-k sector: words paired with N basis elements."""
    if k > space.L_max:
        raise ValueError("sector beyond truncation")
    out = []
    for w in space.words:
        if len(w) != k:
            continue
        for b in space.base.basis():
            out.append(FockVector(space, {w: b}))
    return out
