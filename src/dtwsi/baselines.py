"""Comparison methods: over-conditioned inference, permutation, data splitting.

The over-conditioned variant conditions on the optimizer of every alignment
sub-problem, not just the final one.  Each conditioned sub-problem pins its
Bellman predecessor, so along the data line the selection event becomes an
intersection of closed-form quadratic inequalities: one interval system
instead of an envelope computation, at the price of statistical power.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import ndtr

from .dtw_core import (
    TimeSeriesPair,
    _path_cells,
    bellman_abs_sums,
    bellman_path,
    bellman_predecessor,
)
from .inference import InferenceResult, _Conditioning, conditional_test
from .intervals import IntervalUnion, solve_quadratic_system
from .parametric import DataLine, cell_terms

__all__ = [
    "si_dtw_oc_region",
    "si_dtw_oc_p_value",
    "permutation_test",
    "data_splitting_test",
]

# Most Bellman cells (n * m per replicate) that one batched permutation solve
# holds.  Its padded, skewed table takes (2n + 1)(n + 1) * 8 bytes per
# replicate, about 17 bytes per cell at n = 30; with the walk's positions and
# their decode the solve peaks at about 20 bytes per cell (18 at n = 100), so
# about 21 MB at most.  More replicates than fit are solved in chunks.
PERMUTATION_CELL_BUDGET = 2**20


def _si_dtw_oc_constraints(table: list[list[float]], line: DataLine) -> np.ndarray:
    """Per-cell quadratic constraints of the fully conditioned selection event.

    ``table`` is the pair's ``n x m`` Bellman table (``_accumulated_cost`` of
    its ``cost_matrix``), which fixes every cell's observed predecessor.  For
    every interior cell, the observed predecessor must beat the other two;
    the shared cell cost cancels, leaving the difference of the two observed
    sub-path losses along the line.  Returned as a ``(k, 3)`` array of rows
    ``(alpha, beta, gamma)`` with the convention ``alpha z^2 + beta z + gamma
    <= 0``: cells in row-major order, and within a cell the two other
    predecessors in diagonal, vertical, horizontal order.  Raises
    ``ValueError`` when the table's shape does not fit the line's split.
    """
    n, m = len(table), len(table[0])
    if (n, m) != (line.n, line.m):
        raise ValueError(f"table is {n}x{m} but line splits {line.n}+{line.m}")
    t0, t1, t2 = cell_terms(line).reshape(3, -1).tolist()
    # per cell k = i * m + j: the loss quadratic (q0, q1, q2) of the observed
    # optimal sub-path, and the cell its Bellman predecessor
    q0, q1, q2 = ([0.0] * (n * m) for _ in range(3))
    pred = [0] * (n * m)
    q0[0], q1[0], q2[0] = 0.0 + t0[0], 0.0 + t1[0], 0.0 + t2[0]  # a sum from 0.0: no -0.0
    for i in range(n):
        for j in range(i == 0, m):
            ci, cj = bellman_predecessor(table, i, j)
            k, p = i * m + j, ci * m + cj
            pred[k] = p
            q0[k], q1[k], q2[k] = q0[p] + t0[k], q1[p] + t1[k], q2[p] + t2[k]
    # every interior cell: its diagonal, vertical and horizontal predecessor,
    # of which the two the path does not take each give a row
    cells = np.arange(n * m).reshape(n, m)[1:, 1:].ravel()
    chosen = np.array(pred)[cells]
    preds = cells[:, None] - np.array([m + 1, m, 1])
    others = preds[preds != chosen[:, None]]
    q = np.array([q2, q1, q0])
    return (q[:, chosen.repeat(2)] - q[:, others]).T


def si_dtw_oc_region(pair: TimeSeriesPair, line: DataLine) -> IntervalUnion:
    """Line region where every alignment sub-problem keeps its observed optimizer.

    Solves the pair's Bellman table (``bellman_path``), then all per-cell
    constraints at once (``solve_quadratic_system``).  The pipeline runs
    ``_si_dtw_oc``, which reads the table that conditioning already solved.
    """
    _, table = bellman_path(pair.x, pair.y)
    return solve_quadratic_system(_si_dtw_oc_constraints(table, line))


def _si_dtw_oc(cond: _Conditioning) -> IntervalUnion:
    """si-dtw-oc's region builder: the constraints of the record's Bellman table."""
    return solve_quadratic_system(_si_dtw_oc_constraints(cond.table, cond.line))


def si_dtw_oc_p_value(pair: TimeSeriesPair) -> InferenceResult:
    """Conditional p-value under the fully conditioned (per-cell) selection event."""
    return conditional_test(pair, _si_dtw_oc)


def permutation_test(pair: TimeSeriesPair, B: int, seed: int) -> float:
    """Paired permutation p-value for equal-length series.

    Each replicate independently swaps or keeps every coordinate pair with
    probability one half, re-runs the alignment, and recomputes the statistic,
    the sum of absolute differences along the Bellman path.  Returns the
    fraction of replicates at least as large as the observed statistic.

    The observed pair and the ``B`` replicates are solved as one stack by
    ``bellman_abs_sums``, in chunks of at most ``PERMUTATION_CELL_BUDGET``
    cells; row ``k`` of the swaps is the ``k``-th draw of ``rng.random(n)``.
    """
    if pair.n != pair.m:
        raise ValueError("permutation requires equal lengths")
    if B < 1:
        raise ValueError("need at least one permutation replicate")
    x, y, n = pair.x, pair.y, pair.n
    rng = np.random.default_rng(seed)
    rows = max(1, PERMUTATION_CELL_BUDGET // (n * n))
    stats = []
    for start in range(0, B + 1, rows):
        stop = min(start + rows, B + 1)
        swap = rng.random((stop - max(start, 1), n)) < 0.5
        if start == 0:
            swap = np.vstack([np.zeros((1, n), dtype=bool), swap])  # row 0: the observed pair
        stats.append(bellman_abs_sums(np.where(swap, y, x), np.where(swap, x, y)))
    stats = np.concatenate(stats)
    return np.count_nonzero(stats[1:] >= stats[0]) / B


def data_splitting_test(pair: TimeSeriesPair) -> float:
    """Split-sample test: odd-indexed halves select, even-indexed halves infer.

    The alignment of the odd-indexed sub-series is mapped onto the
    even-indexed coordinates (same index, clamped to the shorter half) and
    the resulting statistic is z-tested one-sided against a centered Gaussian
    with variance from the matching covariance sub-blocks.
    """
    if pair.n < 2 or pair.m < 2:
        raise ValueError("data splitting needs series of length >= 2")
    x_inf, y_inf = pair.x[1::2], pair.y[1::2]
    n_inf, m_inf = x_inf.size, y_inf.size
    path, _ = bellman_path(pair.x[0::2], pair.y[0::2])
    rows, cols = _path_cells(path)
    rows, cols = np.minimum(rows, n_inf - 1), np.minimum(cols, m_inf - 1)
    d = x_inf[rows] - y_inf[cols]
    s = np.sign(d)
    size = n_inf + m_inf
    eta = np.bincount(rows, s, size) - np.bincount(n_inf + cols, s, size)
    # sequential sum in path order, not numpy's pairwise sum
    stat = float(np.add.accumulate(np.abs(d))[-1])
    sub_x = pair.sigma_x[1::2, 1::2]
    sub_y = pair.sigma_y[1::2, 1::2]
    var = float(eta[:n_inf] @ sub_x @ eta[:n_inf] + eta[n_inf:] @ sub_y @ eta[n_inf:])
    if var == 0.0:
        return 0.5 if stat == 0.0 else 0.0
    return float(ndtr(-stat / math.sqrt(var)))
