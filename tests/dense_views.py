"""The paper's dense ``n x m`` views, kept as references for the tests.

The package stores everything attached to an alignment path as one value per
path cell, in path order.  The paper writes the same quantities over all
``n * m`` cells in row-major order: a binary ``vec(M)``, a sign vector that is
zero off the path, and a difference map ``Omega``.

It also keeps the scalar oracle of the permutation statistic.
"""

import numpy as np

from dtwsi.dtw_core import bellman_path


def omega_matrix(n, m):
    """Dense ``(n*m) x (n+m)`` map from stacked series to row-major differences.

    Row ``(i-1)*m + (j-1)`` carries ``+1`` in column ``i-1`` and ``-1`` in
    column ``n + j - 1``.
    """
    out = np.zeros((n * m, n + m))
    rows = np.arange(n * m)
    out[rows, rows // m] = 1.0
    out[rows, n + rows % m] = -1.0
    return out


def scatter_path(M, values):
    """Row-major vector of length ``n*m``: ``values`` at the path cells, zero elsewhere."""
    out = np.zeros(M.n * M.m)
    for (i, j), value in zip(M.path, values, strict=True):
        out[(i - 1) * M.m + (j - 1)] = value
    return out


def path_vec(M):
    """``vec(M)``: the binary row-major view of the path."""
    return scatter_path(M, np.ones(len(M.path)))


def path_matrix(M):
    """Dense binary ``n x m`` view with a one per path cell."""
    return path_vec(M).reshape(M.n, M.m)


def path_cost(M, C):
    """Total cost of the path through the cost matrix ``C``, summed densely."""
    return float((path_matrix(M) * C).sum())


def abs_alignment_statistic(x, y):
    """Bellman path of the raw series, then ``|x_i - y_j|`` summed in path order.

    The slow oracle of ``bellman_abs_sums``: one scalar solve and an explicit
    ``+=`` loop over Python floats (``sum()`` compensates float sums from
    Python 3.12 on, which would change the last bits).
    """
    path, _ = bellman_path(x, y)
    xl, yl = x.tolist(), y.tolist()
    total = 0.0
    for i, j in path:
        total += abs(xl[i - 1] - yl[j - 1])
    return total
