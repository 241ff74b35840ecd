"""Word-level rules for the Fock-space building blocks, kept as test oracles.

The package builds every operator as a matrix scattered from word-index
arrays.  The rules here act on one :class:`~radmul.fock.FockVector` at a
time, word by word, as the definitions read; ``column_matrix`` turns a rule
into the matrix it defines, column by column.
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
