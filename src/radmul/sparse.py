"""Sparse scalar entries, with a sample axis, and the spectral norm on them.

The entries of a stack of sparse matrices are parallel arrays (samples,
rows, cols, values): ``values[e]`` sits at ``(rows[e], cols[e])`` of
sample ``samples[e]``; a single matrix is a stack of one, and every
operation here treats the samples apart.  ``coalesce`` sorts a stack's
entries by position and merges the entries on one position (added in entry
order), and ``op_norm``, the package's one spectral norm, takes an exact SVD
of each connected component of the support, batched by block shape over all
samples.  ``max_column_norm`` and ``schur_bound`` bracket that norm from
below and above in one pass over the entries, with no SVD.  Each of the
three returns one result per sample, a dense array counting as one sample.
The one sparse matrix type, :class:`radmul.operators.StructuredOperator`,
keeps its entries in this form with a square block in place of each scalar.
"""

from __future__ import annotations

import numpy as np


def sum_at(index: np.ndarray, values: np.ndarray, n: int) -> np.ndarray:
    """out[i] = sum of values[e] over index[e] == i, added in entry order
    (as np.add.at does), for values of any trailing shape."""
    width = int(np.prod(values.shape[1:]))
    idx = index if width == 1 else (index[:, None] * width + np.arange(width)).ravel()
    flat = values.ravel()
    out = np.empty(n * width, dtype=complex)
    out.real = np.bincount(idx, flat.real, n * width)
    out.imag = np.bincount(idx, flat.imag, n * width)
    return out.reshape((n,) + values.shape[1:])


def coalesce(samples, rows, cols, values, n_cols: int) -> tuple:
    """The entries with one value per (sample, row, col) position, sorted by
    position; repeated positions are added in entry order.

    The sort key starts with the sample, so every sample of a stack gets
    exactly the entries it gets as a single operator.
    """
    key = (samples * n_cols + rows) * n_cols + cols
    order = np.argsort(key, kind="stable")
    first = np.ones(key.size, dtype=bool)
    np.not_equal(key[order[1:]], key[order[:-1]], out=first[1:])
    if first.all():
        return samples[order], rows[order], cols[order], values[order]
    slot = np.empty(key.size, dtype=np.intp)
    slot[order] = np.cumsum(first) - 1
    uniq = key[order[first]]
    pos, cols = np.divmod(uniq, n_cols)
    samples, rows = np.divmod(pos, n_cols)
    return samples, rows, cols, sum_at(slot, values, uniq.size)


def _component_labels(u: np.ndarray, v: np.ndarray, n: int) -> np.ndarray:
    """Smallest node index in the connected component of each of ``n`` nodes,
    for the graph with edges (u[e], v[e]): roots hook onto the smallest root
    across each edge, then pointer jumping flattens the forest."""
    lab = np.arange(n)
    while True:
        lu, lv = lab[u], lab[v]
        if np.array_equal(lu, lv):
            return lab
        low = np.minimum(lu, lv)
        np.minimum.at(lab, lu, low)
        np.minimum.at(lab, lv, low)
        while True:
            jumped = lab[lab]
            if np.array_equal(jumped, lab):
                break
            lab = jumped


def _rank_in_component(lab: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """Rank of each node among the nodes of its component, in index order."""
    order = np.argsort(lab, kind="stable")
    rank = np.empty_like(order)
    rank[order] = np.arange(order.size) - (np.cumsum(sizes) - sizes)[lab[order]]
    return rank


def _block_norms(samples, rows, cols, values, n_s: int, shape: tuple) -> np.ndarray:
    """Largest singular value of each of the ``n_s`` sample matrices of
    ``shape`` with these entries, from one SVD per support component.

    Rows and columns are the nodes of a bipartite graph whose edges are the
    entries; permuting both by component makes the matrix block diagonal,
    whose singular values are those of its blocks.  Rows and columns without
    entries belong to no block.  The samples of a stack are the diagonal
    blocks of one matrix, so no component spans two samples.
    """
    best = np.zeros(n_s)
    if rows.size == 0:
        return best
    n_r, n_c = n_s * shape[0], n_s * shape[1]
    rows, cols = samples * shape[0] + rows, samples * shape[1] + cols
    lab = _component_labels(rows, n_r + cols, n_r + n_c)
    row_lab, col_lab = lab[:n_r], lab[n_r:]
    n_rows = np.bincount(row_lab, minlength=n_r + n_c)
    n_cols = np.bincount(col_lab, minlength=n_r + n_c)
    # a row or column without entries is a component of its own with no
    # partner; a component's label is its first row, which gives its sample
    comps = np.flatnonzero(n_rows * n_cols)
    a, b = n_rows[comps], n_cols[comps]
    # components grouped by block shape, one batched SVD per shape; in its
    # group's stack a component sits at its rank among the group's
    # components, and a row (column) at its rank in the component
    shapes, group, counts = np.unique(a * (n_c + 1) + b, return_inverse=True,
                                      return_counts=True)
    slot = _rank_in_component(group, counts)
    comp = np.empty(n_r + n_c, dtype=np.intp)
    comp[comps] = np.arange(comps.size)
    ent = comp[row_lab[rows]]
    row_rank = _rank_in_component(row_lab, n_rows)
    col_rank = _rank_in_component(col_lab, n_cols)
    by_group = np.argsort(group[ent], kind="stable")
    ends = np.cumsum(np.bincount(group[ent], minlength=shapes.size))
    for g, (code, count, sel) in enumerate(zip(shapes, counts,
                                               np.split(by_group, ends[:-1]))):
        blocks = np.zeros((count,) + divmod(int(code), n_c + 1), dtype=complex)
        blocks[slot[ent[sel]], row_rank[rows[sel]], col_rank[cols[sel]]] = values[sel]
        top = np.linalg.svd(blocks, compute_uv=False)[:, 0]
        np.maximum.at(best, comps[group == g] // shape[0], top)
    return best


def _entries(A) -> tuple:
    """(samples, rows, cols, values, n_samples, shape): the nonzero scalar
    entries of an operator (``A.entries()``) or of an array (``np.nonzero``),
    the number of samples and the shape of one."""
    if hasattr(A, "entries"):
        return A.entries() + (A.n_samples, A.shape)
    A = np.asarray(A, dtype=complex)
    rows, cols = np.nonzero(A)
    return np.zeros_like(rows), rows, cols, A[rows, cols], 1, A.shape


def _largest_line_sums(A, power: int) -> tuple:
    """Per sample, the largest sum of |entry|**power over a column and over a
    row, both inf for a sample with a non-finite entry (as ``op_norm``).
    Each line adds its entries in (row, column) order, so an operator and
    its dense array give the same sums."""
    samples, rows, cols, values, n_samples, shape = _entries(A)
    order = np.lexsort((cols, rows, samples))
    weights = np.abs(values[order]) ** power
    out = []
    for lines, n in ((cols, shape[1]), (rows, shape[0])):
        sums = np.bincount(samples[order] * n + lines[order], weights, n_samples * n)
        line_max = sums.reshape(n_samples, n).max(axis=1, initial=0.0).astype(float)
        line_max[samples[~np.isfinite(values)]] = np.inf
        out.append(line_max)
    return tuple(out)


def max_column_norm(A):
    """The largest column 2-norm of an operator or an array, per sample: a
    lower bound for the spectral norm, in one pass over the entries,
    attained where a column attains the norm."""
    return np.sqrt(_largest_line_sums(A, 2)[0])


def schur_bound(A):
    """sqrt(largest column abs-sum * largest row abs-sum) of an operator or
    an array, per sample: an upper bound for the spectral norm
    (||A||^2 <= ||A||_1 ||A||_inf), in one pass over the entries."""
    cols, rows = _largest_line_sums(A, 1)
    return np.sqrt(cols * rows)


def op_norm(A):
    """Spectral norm of a :class:`~radmul.operators.StructuredOperator` or
    of an array, the package's only one: an array with the norm of each
    sample.

    It works on the nonzero scalar entries, ``A.entries()`` of an operator
    and ``np.nonzero`` of an array.  The matrix is split into the connected
    components of their support (rows and columns joined by entries) and
    each component gets an exact SVD, batched by block shape over all
    samples; the largest first singular value of a sample is its norm.  An
    empty or all-zero sample has norm 0, and one with a non-finite entry has
    norm inf (not nan, which ``max`` would silently drop): its values are
    set to 0 before the SVDs (which do not converge on a nan), keeping its
    support, so the other samples' blocks and norms stay the same.
    """
    samples, rows, cols, values, n_samples, shape = _entries(A)
    bad = np.zeros(n_samples, dtype=bool)
    bad[samples[~np.isfinite(values)]] = True
    values = np.where(bad[samples], 0, values)
    norms = _block_norms(samples, rows, cols, values, n_samples, shape)
    norms[bad] = np.inf
    return norms
