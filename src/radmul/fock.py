"""Truncated amalgamated free Fock space over crossed-product factors.

Vectors live in the direct sum, over reduced words w, of one copy of the
base algebra N: a word is an alternating string of letters (i, g) -- factor
index i, nontrivial group element g -- and carries a single right
N-coefficient.  Interior and left coefficients are pushed to the right end
through the covariance relation b u_g = u_g alpha_g^{-1}(b), which makes
the right N-module structure exact: words are orthonormal over N,

    <w b, w' c>_N = delta_{w,w'} b* c,

conjugate-linear in the first slot, with scalar product tau(<.,.>_N).
A word is its index in the enumerated basis, its letters a row of letter
indices (``FockSpace.words``).  A vector is its coordinate array in the scalar orthonormal basis (word,
onb element of N): the d x d block X_w of a word's coordinates is its
coefficient over sqrt(d), and ``inner_N`` reads <.,.>_N off two arrays.
Everything is truncated at a maximal word length; operations that would
exceed it yield zero.
"""

from __future__ import annotations

import numpy as np

from .algebra import TracialAlgebra

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

    def push(self, b: np.ndarray, letter: tuple) -> np.ndarray:
        """Move b in N from the left of u_g to its right: b u_g = u_g alpha_{g^{-1}}(b)."""
        i, g = letter
        fac = self.factors[i]
        return fac.alpha(fac.group.inv(g), b)


class FockVector:
    """Right N-coefficients of a vector: ``blocks[j]`` is the d x d
    coefficient of word j (``space.words[j]``).  The package holds vectors
    as coordinate arrays; the class stays because radbench's tracer counts
    its ``__init__`` by name, and the tests build block-form oracle vectors."""

    __slots__ = ("space", "blocks")

    def __init__(self, space: "FockSpace", coeffs=None):
        """The vector with the given {word index: coefficient} entries."""
        self.space = space
        d = space.base.d
        self.blocks = np.zeros((len(space.words), d, d), dtype=complex)
        for j, b in (coeffs or {}).items():
            self.blocks[j] = b


class FockSpace:
    """Enumerated word basis at a fixed truncation, with the word graph.

    A word is held by its index j in length-lexicographic order: row j of
    ``words`` lists the indices in ``letters`` (configuration order) of its
    letters, padded with -1 to ``L_max`` slots.  The scalar orthonormal
    basis is (word, onb element of N) in word order; its size is the
    dimension of every operator in :mod:`radmul.operators`.  ``lengths``,
    ``first_factors`` and ``last_factors`` hold each word's length and first
    and last factor (-1 for the vacuum), one entry per word.

    The word graph is built once, as arrays over the letters t and the
    words j, -1 where a word is not in the space.  The enumeration runs one
    length at a time: the children of the words of length k - 1, word j
    with letter t appended wherever t's factor differs from j's last one,
    in (j, t) order.  It records each word's ``parent`` (the word without
    its last letter) and ``last_letter``, which scatter into
    ``appended[t, j]``, word j with letter t appended; gamma (v b) =
    (gamma v) b gives ``prepended[t, j]`` one length at a time.  The annihilation side has its own recursion on
    the parent: ``first_letter`` is the parent's first letter (the last
    letter at length 1), and ``rest``, the word without its first letter,
    is the parent's rest with the last letter appended (the vacuum at
    length 1); ``stripped[t, j]`` is word j without its first letter where
    that letter is t (the word map of L*_t).  So the creations and the
    annihilations come from two constructions.
    ``letter_factors[t]`` is the factor i of the letter gamma = (i, g),
    ``star[t]`` is gamma* = (i, g^{-1}), ``twists[t]``
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
        self.letter_factors = factor = np.array([i for i, _ in self.letters], dtype=np.intp)
        parents, lasts = [np.array([-1])], [np.array([-1])]
        frontier, ends, n = np.zeros(1, dtype=np.intp), np.array([-1]), 1
        for _ in range(L_max):
            j, t = np.nonzero(ends[:, None] != factor[None, :])
            parents.append(frontier[j])
            lasts.append(t)
            frontier, ends, n = np.arange(n, n + j.size), factor[t], n + j.size
        self.parent = np.concatenate(parents).astype(np.intp)
        self.last_letter = np.concatenate(lasts).astype(np.intp)
        self.lengths = np.repeat(np.arange(L_max + 1), [len(p) for p in parents])
        self.dim_N = self.base.dim
        self.dim = n * self.dim_N

        d = self.base.d
        index = {letter: t for t, letter in enumerate(self.letters)}
        unitaries = np.array([amalgam.factors[i].unitaries[g]
                              for i, g in self.letters]).reshape(-1, d, d)
        self.star = np.array([index[i, amalgam.factors[i].group.inv(g)]
                              for i, g in self.letters], dtype=np.intp)
        self.twists = np.array([np.kron(W, W.conj()) for W in unitaries]).reshape(-1, d * d, d * d)
        self.appended = np.full((len(self.letters), n), -1, dtype=np.intp)
        self.appended[self.last_letter[1:], self.parent[1:]] = np.arange(1, n)
        self.prepended = np.full_like(self.appended, -1)
        self.prepended[:, 0] = self.appended[:, 0]
        self.words = np.full((n, L_max), -1, dtype=np.intp)
        self.first_letter, self.rest = self.last_letter.copy(), np.zeros(n, dtype=np.intp)
        self.rest[0] = -1
        self.push_unitaries = np.empty((n, d, d), dtype=complex)
        self.push_unitaries[0] = self.base.identity()
        for k in range(1, L_max + 1):
            c = np.flatnonzero(self.lengths == k)
            up, last = self.parent[c], self.last_letter[c]
            self.words[c] = self.words[up]
            self.words[c, k - 1] = last
            v = self.prepended[:, up]
            self.prepended[:, c] = np.where(v >= 0, self.appended[last, v], -1)
            if k > 1:
                self.first_letter[c] = self.first_letter[up]
                self.rest[c] = self.appended[last, self.rest[up]]
            self.push_unitaries[c] = unitaries[self.star[last]] @ self.push_unitaries[up]
        self.stripped = np.where(self.first_letter == np.arange(len(self.letters))[:, None],
                                 self.rest, -1)
        self.first_factors = np.where(self.first_letter >= 0, factor[self.first_letter], -1)
        self.last_factors = np.where(self.last_letter >= 0, factor[self.last_letter], -1)

    def random_array(self, rng) -> np.ndarray:
        """Unit coordinates with complex Gaussian entries, drawn from rng."""
        arr = rng.standard_normal(self.dim) + 1j * rng.standard_normal(self.dim)
        return arr / np.linalg.norm(arr)

    def guard_mask(self, max_len: int) -> np.ndarray:
        """Boolean mask over the scalar basis: word length within max_len."""
        return np.repeat(self.lengths <= max_len, self.dim_N)


def inner_N(space: FockSpace, x, y) -> np.ndarray:
    """<x, y>_N = d sum_w X_w* Y_w of two coordinate arrays, X_w the d x d
    block of x at word w; conjugate-linear in x, added one word at a time
    in basis order."""
    d = space.base.d
    terms = np.reshape(x, (-1, d, d)).conj().transpose(0, 2, 1) @ np.reshape(y, (-1, d, d))
    return d * np.cumsum(terms, axis=0)[-1]
