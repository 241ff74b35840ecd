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
    """Reduced word: adjacent letters from distinct factors, no identity letters.

    ``Word(letters)`` checks every letter; ``append`` and ``prepend`` check
    only the letter they add, and ``drop_first`` and ``drop_last`` nothing,
    since a reduced word stays reduced when a letter is stripped."""

    letters: tuple = ()

    def __post_init__(self):
        for j, letter in enumerate(self.letters):
            _check_letter(self.letters[j - 1] if j else None, letter)

    def __len__(self):
        return len(self.letters)

    @property
    def first_factor(self) -> int:
        return self.letters[0][0] if self.letters else -1

    @property
    def last_factor(self) -> int:
        return self.letters[-1][0] if self.letters else -1

    def prepend(self, letter: Letter) -> "Word":
        letter = tuple(letter)
        _check_letter(None, letter)
        if self.letters:
            _check_letter(letter, self.letters[0])
        return _reduced((letter,) + self.letters)

    def append(self, letter: Letter) -> "Word":
        letter = tuple(letter)
        _check_letter(self.letters[-1] if self.letters else None, letter)
        return _reduced(self.letters + (letter,))

    def drop_first(self) -> "Word":
        return _reduced(self.letters[1:])

    def drop_last(self) -> "Word":
        return _reduced(self.letters[:-1])


def _check_letter(previous, letter) -> None:
    """Raise unless ``letter`` may follow ``previous`` (None: nothing) in a reduced word."""
    i, g = letter
    if g == 0:
        raise ValueError("letters must avoid the group identity")
    if previous is not None and previous[0] == i:
        raise ValueError("adjacent letters from the same factor")


def _reduced(letters: tuple) -> Word:
    """The word of ``letters``, known to be reduced, built without re-checking them."""
    word = object.__new__(Word)
    object.__setattr__(word, "letters", letters)
    return word


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


class FockVector:
    """Right N-coefficients of a vector, one per word of the space:
    ``blocks[j]`` is the d x d coefficient of ``space.words[j]``."""

    __slots__ = ("space", "blocks")

    def __init__(self, space: "FockSpace", coeffs=None):
        """The vector with the given {word: coefficient} entries; words past
        the truncation are dropped."""
        self.space = space
        d = space.base.d
        self.blocks = np.zeros((len(space.words), d, d), dtype=complex)
        for w, b in (coeffs or {}).items():
            if len(w) <= space.L_max:
                self.blocks[space.word_index[w]] = b

    @property
    def coeffs(self) -> dict:
        """The nonzero coefficients by word, in basis order."""
        nonzero = np.flatnonzero(self.blocks.any(axis=(1, 2)))
        return {self.space.words[j]: self.blocks[j] for j in nonzero}

    def coeff(self, word: Word) -> np.ndarray:
        j = self.space.word_index.get(word)
        return self.space.base.zero() if j is None else self.blocks[j]

    def items(self):
        return self.coeffs.items()

    def is_zero(self, tol: float = 0.0) -> bool:
        return bool(np.abs(self.blocks).max() <= tol)

    def __add__(self, other: "FockVector") -> "FockVector":
        return _vector(self.space, self.blocks + other.blocks)

    def __sub__(self, other: "FockVector") -> "FockVector":
        return _vector(self.space, self.blocks - other.blocks)

    def __rmul__(self, scalar) -> "FockVector":
        return _vector(self.space, scalar * self.blocks)

    def __neg__(self) -> "FockVector":
        return _vector(self.space, -self.blocks)

    def right_mul(self, b) -> "FockVector":
        return _vector(self.space, self.blocks @ self.space.base.element(b))

    def left_mul(self, b) -> "FockVector":
        """Left N-action: b pushed through the letters of w is U_w b U_w*."""
        U = self.space.push_unitaries
        pushed = U @ self.space.base.element(b) @ U.conj().transpose(0, 2, 1)
        return _vector(self.space, pushed @ self.blocks)

    def inner_N(self, other: "FockVector") -> np.ndarray:
        """N-valued inner product sum_w c_w* d_w, conjugate-linear in self,
        added one word at a time in basis order."""
        terms = self.blocks.conj().transpose(0, 2, 1) @ other.blocks
        return np.cumsum(terms, axis=0)[-1]

    def inner(self, other: "FockVector") -> complex:
        return self.space.base.trace(self.inner_N(other))

    def norm(self) -> float:
        return float(np.sqrt(max(self.inner(self).real, 0.0)))

    def to_array(self) -> np.ndarray:
        return self.space.to_array(self)


def _vector(space: "FockSpace", blocks: np.ndarray) -> FockVector:
    """The vector of the space holding ``blocks`` as they are."""
    vec = FockVector.__new__(FockVector)
    vec.space, vec.blocks = space, blocks
    return vec


class FockSpace:
    """Enumerated word basis at a fixed truncation, with coordinate maps and
    the word graph.

    The scalar orthonormal basis is (word, onb element of N) in
    length-lexicographic word order; its size is the dimension of every
    operator in :mod:`radmul.operators`.  ``lengths``, ``first_factors`` and
    ``last_factors`` hold each word's length and first and last factor (-1
    for the vacuum), one entry per word.

    The word graph is built once, as arrays over the letters t of
    ``letters`` (configuration order) and the words j, -1 where a word is
    not in the space.  ``appended[t, j]`` and ``prepended[t, j]`` are word j
    with letter t appended or prepended, from the enumeration: it records
    each word as its parent with one letter appended, and gamma (v b) =
    (gamma v) b gives the prepended words one length at a time.
    ``parent``, ``last_letter``, ``rest`` and ``first_letter`` are each
    word without its last letter, that letter, the word without its first
    letter and that letter, from the ``Word`` rules, and ``stripped[t, j]``
    is word j without its first letter where that letter is t (the word
    map of L*_t), from ``rest`` and ``first_letter``; so the creations and
    the annihilations come from two independent constructions.
    ``star[t]`` is gamma* = (i, g^{-1}) for gamma = (i, g), ``twists[t]``
    the coordinate matrix kron(W_g, conj(W_g)) of c -> alpha_g(c), and
    ``push_unitaries[j]`` is U_w with b w = w U_w b U_w*, by the prefix
    recursion U_{w gamma} = W_{g^{-1}} U_w, since b u_g = u_g
    alpha_{g^{-1}}(b) and alpha_h = Ad(W_h).
    """

    def __init__(self, amalgam: Amalgam, L_max: int):
        if L_max < 0:
            raise ValueError("truncation length must be nonnegative")
        self.amalgam = amalgam
        self.base = amalgam.base
        self.L_max = L_max
        self.letters = tuple(amalgam.letters())
        # length-lexicographic: word j's children, letter t appended, follow
        # the children of the words before it
        words, links, frontier = [Word()], [], [0]
        for _ in range(L_max):
            start = len(words)
            for j in frontier:
                for t, letter in enumerate(self.letters):
                    if words[j].last_factor != letter[0]:
                        words.append(words[j].append(letter))
                        links.append((t, j))
            frontier = range(start, len(words))
        self.words = tuple(words)
        self.word_index = {w: i for i, w in enumerate(self.words)}
        self.n_onb = self.base.onb()
        self.dim_N = len(self.n_onb)
        self.dim = len(self.words) * self.dim_N
        self.lengths = np.array([len(w) for w in self.words])
        self.first_factors = np.array([w.first_factor for w in self.words])
        self.last_factors = np.array([w.last_factor for w in self.words])
        self._scale = np.sqrt(self.base.d)

        n, d = len(self.words), self.base.d
        index = {letter: t for t, letter in enumerate(self.letters)}
        unitaries = np.array([amalgam.factor(i).unitaries[g]
                              for i, g in self.letters]).reshape(-1, d, d)
        self.star = np.array([index[i, amalgam.factor(i).group.inv(g)]
                              for i, g in self.letters], dtype=np.intp)
        self.twists = np.array([np.kron(W, W.conj()) for W in unitaries]).reshape(-1, d * d, d * d)
        link_letter, link_parent = np.array([(-1, -1)] + links, dtype=np.intp).T
        self.appended = np.full((len(self.letters), n), -1, dtype=np.intp)
        self.appended[link_letter[1:], link_parent[1:]] = np.arange(1, n)
        self.prepended = np.full_like(self.appended, -1)
        self.prepended[:, 0] = self.appended[:, 0]
        self.push_unitaries = np.empty((n, d, d), dtype=complex)
        self.push_unitaries[0] = self.base.identity()
        for k in range(1, L_max + 1):
            c = np.flatnonzero(self.lengths == k)
            v = self.prepended[:, link_parent[c]]
            self.prepended[:, c] = np.where(v >= 0, self.appended[link_letter[c], v], -1)
            self.push_unitaries[c] = (unitaries[self.star[link_letter[c]]]
                                      @ self.push_unitaries[link_parent[c]])
        ends = [(-1, -1, -1, -1)] + [
            (self.word_index[w.drop_last()], index[w.letters[-1]],
             self.word_index[w.drop_first()], index[w.letters[0]]) for w in self.words[1:]]
        self.parent, self.last_letter, self.rest, self.first_letter = np.array(
            ends, dtype=np.intp).reshape(-1, 4).T
        self.stripped = np.where(self.first_letter == np.arange(len(self.letters))[:, None],
                                 self.rest, -1)

    def zero_vector(self) -> FockVector:
        return FockVector(self, {})

    def vacuum(self) -> FockVector:
        return FockVector(self, {Word(): self.base.identity()})

    def basis_fock_vector(self, idx: int) -> FockVector:
        w = self.words[idx // self.dim_N]
        return FockVector(self, {w: self.n_onb[idx % self.dim_N]})

    def word_vector(self, word: Word, b=None) -> FockVector:
        coeff = self.base.identity() if b is None else self.base.element(b)
        return FockVector(self, {word: coeff})

    def to_array(self, vec: FockVector) -> np.ndarray:
        return vec.blocks.reshape(-1) / self._scale

    def from_array(self, arr: np.ndarray) -> FockVector:
        d = self.base.d
        blocks = np.asarray(arr, dtype=complex).reshape(len(self.words), d, d) * self._scale
        return _vector(self, blocks)

    def random_vector(self, rng) -> FockVector:
        """A unit vector with complex Gaussian coordinates, drawn from rng."""
        arr = rng.standard_normal(self.dim) + 1j * rng.standard_normal(self.dim)
        return self.from_array(arr / np.linalg.norm(arr))

    def guard_mask(self, max_len: int) -> np.ndarray:
        """Scalar-basis indices whose word length stays within max_len."""
        return np.repeat(self.lengths <= max_len, self.dim_N)


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

