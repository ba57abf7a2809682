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

from .dtw_core import TimeSeriesPair, cost_matrix, dtw
from .inference import DEGENERATE_VARIANCE_TOL, InferenceResult, conditional_test
from .intervals import IntervalUnion
from .parametric import DataLine

__all__ = [
    "solve_quadratic_leq",
    "si_dtw_oc_constraints",
    "si_dtw_oc_region",
    "si_dtw_oc_p_value",
    "permutation_test",
    "data_splitting_test",
]

# Leading coefficients this small relative to the rest are roundoff residue of
# a linear constraint; solving them as quadratics would manufacture crossings
# at astronomical |z|.
CURVATURE_SNAP = 1e-12


def solve_quadratic_leq(alpha: float, beta: float, gamma: float) -> IntervalUnion:
    """Solution set of ``alpha z^2 + beta z + gamma <= 0`` in closed form."""
    scale = max(1.0, abs(beta), abs(gamma))
    if abs(alpha) <= CURVATURE_SNAP * scale:
        if beta == 0.0:
            return IntervalUnion.real_line() if gamma <= 0.0 else IntervalUnion.empty()
        r = -gamma / beta
        if beta > 0.0:
            return IntervalUnion([(-math.inf, r)])
        return IntervalUnion([(r, math.inf)])
    disc = beta * beta - 4.0 * alpha * gamma
    if disc < 0.0:
        return IntervalUnion.empty() if alpha > 0.0 else IntervalUnion.real_line()
    sq = math.sqrt(disc)
    q = -0.5 * (beta + sq) if beta >= 0.0 else -0.5 * (beta - sq)
    if q != 0.0:
        r1, r2 = q / alpha, gamma / q
    else:
        r1, r2 = 0.0, -beta / alpha
    if r1 > r2:
        r1, r2 = r2, r1
    if alpha > 0.0:
        return IntervalUnion([(r1, r2)])
    return IntervalUnion([(-math.inf, r1), (r2, math.inf)])


def _observed_predecessors(pair: TimeSeriesPair) -> list[list[tuple[int, int] | None]]:
    """Bellman predecessor chosen at each cell of the observed cost table.

    Ties prefer the diagonal, then the vertical, then the horizontal, matching
    the alignment solver.
    """
    n, m = pair.n, pair.m
    cost = cost_matrix(pair).tolist()
    acc = [[0.0] * m for _ in range(n)]
    pred: list[list[tuple[int, int] | None]] = [[None] * m for _ in range(n)]
    acc[0][0] = cost[0][0]
    for j in range(1, m):
        acc[0][j] = acc[0][j - 1] + cost[0][j]
        pred[0][j] = (0, j - 1)
    for i in range(1, n):
        acc[i][0] = acc[i - 1][0] + cost[i][0]
        pred[i][0] = (i - 1, 0)
        for j in range(1, m):
            options = ((i - 1, j - 1), (i - 1, j), (i, j - 1))
            best = min(acc[pi][pj] for pi, pj in options)
            for pi, pj in options:
                if acc[pi][pj] == best:
                    pred[i][j] = (pi, pj)
                    break
            acc[i][j] = cost[i][j] + best
    return pred


def si_dtw_oc_constraints(pair: TimeSeriesPair, line: DataLine) -> list[tuple[float, float, float]]:
    """Per-cell quadratic constraints of the fully conditioned selection event.

    For every interior cell, the observed predecessor must beat the other two;
    the shared cell cost cancels, leaving the difference of the two observed
    sub-path losses along the line.  Returned as ``(alpha, beta, gamma)``
    triples with the convention ``alpha z^2 + beta z + gamma <= 0``.
    """
    n, m = pair.n, pair.m
    a1 = line.a1.tolist()
    a2 = line.a2.tolist()
    b1 = line.b1.tolist()
    b2 = line.b2.tolist()
    pred = _observed_predecessors(pair)
    # loss quadratic of the observed optimal sub-path, per cell
    q0 = [[0.0] * m for _ in range(n)]
    q1 = [[0.0] * m for _ in range(n)]
    q2 = [[0.0] * m for _ in range(n)]
    for i in range(n):
        for j in range(m):
            da = a1[i] - a2[j]
            db = b1[i] - b2[j]
            p = pred[i][j]
            base = (0.0, 0.0, 0.0) if p is None else (q0[p[0]][p[1]], q1[p[0]][p[1]], q2[p[0]][p[1]])
            q0[i][j] = base[0] + da * da
            q1[i][j] = base[1] + 2.0 * da * db
            q2[i][j] = base[2] + db * db
    constraints = []
    for i in range(1, n):
        for j in range(1, m):
            ci, cj = pred[i][j]
            for pi, pj in ((i - 1, j - 1), (i - 1, j), (i, j - 1)):
                if (pi, pj) == (ci, cj):
                    continue
                constraints.append(
                    (
                        q2[ci][cj] - q2[pi][pj],
                        q1[ci][cj] - q1[pi][pj],
                        q0[ci][cj] - q0[pi][pj],
                    )
                )
    return constraints


def si_dtw_oc_region(pair: TimeSeriesPair, line: DataLine) -> IntervalUnion:
    """Line region where every alignment sub-problem keeps its observed optimizer.

    Intersects the closed-form solutions of all per-cell constraints.  The
    observed data satisfies its own selection event, so the result must
    contain the observed line parameter; anything else is an internal error.
    """
    region = IntervalUnion.real_line()
    for alpha, beta, gamma in si_dtw_oc_constraints(pair, line):
        region = region.intersect(solve_quadratic_leq(alpha, beta, gamma))
        if region.is_empty:
            break
    bb = float(line.b @ line.b)
    z_obs = float(line.b @ (pair.stacked() - line.a)) / bb
    if not region.contains(z_obs, tol=1e-8 * max(1.0, abs(z_obs))):
        raise RuntimeError(
            "over-conditioned region does not contain the observed data; internal error"
        )
    return region


def si_dtw_oc_p_value(pair: TimeSeriesPair) -> InferenceResult:
    """Conditional p-value under the fully conditioned (per-cell) selection event."""
    return conditional_test(pair, lambda pair, line, M_obs, window: si_dtw_oc_region(pair, line))


def _abs_alignment_statistic(x: np.ndarray, y: np.ndarray) -> float:
    """Optimal alignment of the raw series, then the sum of absolute differences."""
    M, _ = dtw(TimeSeriesPair(x, y))
    return float(sum(abs(x[i - 1] - y[j - 1]) for i, j in M.path))


def permutation_test(pair: TimeSeriesPair, B: int, seed: int) -> float:
    """Paired permutation p-value for equal-length series.

    Each replicate independently swaps or keeps every coordinate pair with
    probability one half, re-runs the alignment, and recomputes the statistic.
    Returns the fraction of replicates at least as large as the observed
    statistic.
    """
    if pair.n != pair.m:
        raise ValueError("permutation requires equal lengths")
    if B < 1:
        raise ValueError("need at least one permutation replicate")
    x, y = pair.x, pair.y
    t_obs = _abs_alignment_statistic(x, y)
    rng = np.random.default_rng(seed)
    hits = 0
    for _ in range(B):
        swap = rng.random(pair.n) < 0.5
        xb = np.where(swap, y, x)
        yb = np.where(swap, x, y)
        if t_obs <= _abs_alignment_statistic(xb, yb):
            hits += 1
    return hits / B


def data_splitting_test(pair: TimeSeriesPair) -> float:
    """Split-sample test: odd-indexed halves select, even-indexed halves infer.

    The alignment of the odd-indexed sub-series is mapped onto the
    even-indexed coordinates (same index, clamped to the shorter half) and
    the resulting statistic is z-tested one-sided against a centered Gaussian
    with variance from the matching covariance sub-blocks.
    """
    if pair.n < 2 or pair.m < 2:
        raise ValueError("data splitting needs series of length >= 2")
    x_sel, y_sel = pair.x[0::2], pair.y[0::2]
    x_inf, y_inf = pair.x[1::2], pair.y[1::2]
    n_inf, m_inf = x_inf.size, y_inf.size
    if n_inf < 1 or m_inf < 1:
        raise ValueError("inference half is empty")
    M_sel, _ = dtw(TimeSeriesPair(x_sel, y_sel))
    eta = np.zeros(n_inf + m_inf)
    stat = 0.0
    for i, j in M_sel.path:
        i2 = min(i, n_inf) - 1
        j2 = min(j, m_inf) - 1
        d = x_inf[i2] - y_inf[j2]
        s = math.copysign(1.0, d) if d != 0.0 else 0.0
        eta[i2] += s
        eta[n_inf + j2] -= s
        stat += abs(d)
    sub_x = pair.sigma_x[1::2, 1::2]
    sub_y = pair.sigma_y[1::2, 1::2]
    var = float(eta[:n_inf] @ sub_x @ eta[:n_inf] + eta[n_inf:] @ sub_y @ eta[n_inf:])
    if var <= DEGENERATE_VARIANCE_TOL:
        if stat == 0.0:
            return 0.5
        return 0.0 if stat > 0.0 else 1.0
    return float(ndtr(-stat / math.sqrt(var)))
