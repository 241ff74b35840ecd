"""Word-level rules for the Fock-space building blocks, kept as test oracles.

The package builds every operator as a matrix scattered from word-index
arrays.  The rules here act on one :class:`~radmul.fock.FockVector` at a
time, word by word, as the definitions read; ``column_matrix`` turns a rule
into the matrix it defines, column by column.  ``weighted_sum_dense`` is the
weight-stack sum with every table expanded to a full matrix, and
``rho_dense``, ``epsilon_dense`` and ``tower_dense`` are rho, epsilon and
the tower on dense matrices, gathered and scattered block by block.
"""

import numpy as np

from radmul.fock import FockVector


def column_matrix(space, rule):
    """Matrix of a vector rule, one basis vector per column."""
    cols = [space.to_array(rule(space.basis_fock_vector(i))) for i in range(space.dim)]
    return np.stack(cols, axis=1)


def prepend(space, letter):
    """L_gamma: prepend the letter; zero against a same-factor start or overflow."""
    def rule(vec):
        return FockVector(space, {w.prepend(letter): c for w, c in vec.items()
                                  if len(w) < space.L_max and w.first_factor != letter[0]})
    return rule


def strip_first(space, letter):
    """L*_gamma: strip a matching first letter."""
    def rule(vec):
        return FockVector(space, {w.drop_first(): c for w, c in vec.items()
                                  if w.letters and w.letters[0] == letter})
    return rule


def append_star(space, letter):
    """R_{gamma*}: append gamma* = (i, g^{-1}) and twist the coefficient by alpha_g."""
    i, g = letter
    fac = space.amalgam.factor(i)
    appended = (i, fac.group.inv(g))

    def rule(vec):
        return FockVector(space, {w.append(appended): fac.alpha(g, c) for w, c in vec.items()
                                  if len(w) < space.L_max and w.last_factor != i})
    return rule


def strip_star(space, letter):
    """R*_{gamma*}: strip a final gamma* and twist the coefficient by alpha_{g^{-1}}."""
    i, g = letter
    fac = space.amalgam.factor(i)
    gi = fac.group.inv(g)

    def rule(vec):
        return FockVector(space, {w.drop_last(): fac.alpha(gi, c) for w, c in vec.items()
                                  if w.letters and w.letters[-1] == (i, gi)})
    return rule


def left_action(b):
    """Left N-action: push b through every letter onto the right coefficient."""
    return lambda vec: vec.left_mul(b)


def right_action(b):
    return lambda vec: vec.right_mul(b)


def weighted_sum_dense(space, W, tower):
    """sum_m W[m, |r|, |c|] tower[m][r, c], every weight table expanded to a
    full dim x dim array by the row and column word lengths."""
    ell = space.lengths
    return sum(W[m][np.ix_(ell, ell)] * tower[m] for m in range(len(tower)))


def _word_blocks(space, A):
    """View of a dim x dim matrix as (word, word, dim_N, dim_N) blocks."""
    n, k = len(space.words), space.dim_N
    return A.reshape(n, k, n, k).transpose(0, 2, 1, 3)


def right_letter_maps(space):
    """Per letter gamma = (i, g): the words R_{gamma*} is defined on, their
    images w gamma* and the coordinate matrix of alpha_g."""
    out = []
    for i, g in space.amalgam.letters():
        fac = space.amalgam.factor(i)
        appended = (i, fac.group.inv(g))
        src = [j for j, w in enumerate(space.words)
               if len(w) < space.L_max and w.last_factor != i]
        dst = [space.word_index[space.words[j].append(appended)] for j in src]
        W = fac.unitaries[g]
        out.append((np.array(src, dtype=int), np.array(dst, dtype=int), np.kron(W, W.conj())))
    return out


def rho_dense(space, A):
    """sum_gamma R A R^* on a dense matrix: per letter, gather the (src, src)
    blocks of A, conjugate each by the alpha block and scatter them to
    (dst, dst); the letters' target words end differently, so the scatters
    never overlap."""
    A = _word_blocks(space, np.asarray(A, dtype=complex))
    out = np.zeros((space.dim, space.dim), dtype=complex)
    out4 = _word_blocks(space, out)
    for src, dst, blk in right_letter_maps(space):
        out4[dst[:, None], dst] = np.einsum("ab,ijbc,dc->ijad", blk,
                                            A[src[:, None], src], blk.conj())
    return out


def epsilon_dense(space, A):
    """Keep the entries whose row and column words end in the same factor."""
    lf = space.last_factors
    return ((lf[:, None] == lf[None, :]) & (lf[:, None] >= 0)) * np.asarray(A, dtype=complex)


def tower_dense(space, A):
    """[A, rho(A), ..., rho^L(A), eps(A), rho(eps(A)), ..., rho^{L-1}(eps(A))]."""
    out = [np.asarray(A, dtype=complex)]
    for _ in range(space.L_max):
        out.append(rho_dense(space, out[-1]))
    out.append(epsilon_dense(space, A))
    for _ in range(space.L_max - 1):
        out.append(rho_dense(space, out[-1]))
    return out
