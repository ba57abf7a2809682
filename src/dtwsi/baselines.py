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

from .dtw_core import TimeSeriesPair, bellman_predecessor, bellman_table, dtw
from .inference import DEGENERATE_VARIANCE_TOL, InferenceResult, conditional_test
from .intervals import IntervalUnion
from .parametric import DataLine, cell_terms

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


def si_dtw_oc_constraints(pair: TimeSeriesPair, line: DataLine) -> list[tuple[float, float, float]]:
    """Per-cell quadratic constraints of the fully conditioned selection event.

    For every interior cell, the observed predecessor must beat the other two;
    the shared cell cost cancels, leaving the difference of the two observed
    sub-path losses along the line.  Returned as ``(alpha, beta, gamma)``
    triples with the convention ``alpha z^2 + beta z + gamma <= 0``.
    """
    n, m = pair.n, pair.m
    table = bellman_table(pair)
    term = cell_terms(line)
    # loss quadratic (w0, w1, w2) of the observed optimal sub-path, per cell
    q = [[None] * m for _ in range(n)]
    constraints = []
    for i in range(n):
        for j in range(m):
            if i or j:
                ci, cj = bellman_predecessor(table, i, j)
                c0, c1, c2 = q[ci][cj]
            else:
                c0 = c1 = c2 = 0.0
            t0, t1, t2 = term(i, j)
            q[i][j] = (c0 + t0, c1 + t1, c2 + t2)
            if i and j:
                for pi, pj in ((i - 1, j - 1), (i - 1, j), (i, j - 1)):
                    if (pi, pj) != (ci, cj):
                        p0, p1, p2 = q[pi][pj]
                        constraints.append((c2 - p2, c1 - p1, c0 - p0))
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
