"""Straightforward versions of the package's loops, kept as references for the tests.

The package runs faster forms of each, which must give the same floats bit
for bit:

- the truncated-Gaussian tail and the bisection of ``truncated_gaussian_ci``,
  with one frame per step, the region as an ``IntervalUnion`` and no memo;
- the envelope walk, without its early exits;
- the over-conditioned constraints, one row at a time in a per-cell loop;
- the per-cell sums along a path: the test direction, a path's loss triple
  and the split test, each one cell at a time in path order.
"""

import math

import numpy as np
from scipy.special import log_ndtr, ndtr

from dtwsi.dtw_core import _accumulated_cost, bellman_path, bellman_predecessor, cost_matrix
from dtwsi.inference import RegionMassUnderflowError
from dtwsi.parametric import (
    MIN_BREAKPOINT_GAP,
    TIE_BAND,
    _crossing_root,
    _merge_segments,
    cell_terms,
)


def _log1mexp(t):
    if t >= 0.0:
        return -math.inf
    if t > -math.log(2.0):
        return math.log(-math.expm1(t))
    return math.log1p(-math.exp(t))


def _log_mass_standard(lo, hi):
    if hi <= lo:
        return -math.inf
    if hi <= 0.0:
        a, b = log_ndtr(hi), log_ndtr(lo)
        return a + _log1mexp(min(b - a, 0.0))
    if lo >= 0.0:
        a, b = log_ndtr(-lo), log_ndtr(-hi)
        return a + _log1mexp(min(b - a, 0.0))
    return np.logaddexp(_log_mass_standard(lo, 0.0), _log_mass_standard(0.0, hi))


def log_region_mass(region, mean, sigma):
    """Log-mass of ``N(mean, sigma^2)`` on an ``IntervalUnion``, by log-sum-exp."""
    masses = [
        _log_mass_standard((lo - mean) / sigma, (hi - mean) / sigma) for lo, hi in region
    ]
    top = max(masses)
    if top == -math.inf:
        return -math.inf
    return top + math.log(sum(math.exp(v - top) for v in masses))


def _tail(region, upper, sigma, mean):
    """``P(Z >= z_obs | Z in region)`` at ``mean``; ``upper`` is the region clipped at ``z_obs``."""
    log_den = log_region_mass(region, mean, sigma)
    if log_den == -math.inf:
        raise RegionMassUnderflowError("region mass underflow: region has zero width")
    if upper.is_empty:
        return 0.0
    log_num = log_region_mass(upper, mean, sigma)
    if log_num == -math.inf:
        return 0.0
    return min(1.0, math.exp(log_num - log_den))


def truncated_gaussian_sf(z_obs, sigma, region):
    """The tail at mean 0, for a region that holds ``z_obs`` (no membership check)."""
    return _tail(region, region.clip_lower(z_obs), sigma, 0.0)


def truncated_gaussian_ci(z_obs, sigma, region, alpha):
    """Equal-tailed bounds by bisection, every tail evaluated afresh."""
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie strictly between 0 and 1")
    if region.is_empty:
        raise ValueError("truncation region is empty")
    upper = region.clip_lower(z_obs)
    if upper == region or all(lo == hi for lo, hi in upper):
        end = "lower" if upper == region else "upper"
        raise ArithmeticError(
            f"no confidence bound: z_obs={z_obs} lies at the {end} end of its truncation "
            f"region {region}, so the tail probability is the same for every mean"
        )

    max_width = 2.0**40

    def bracket(target, sign, flipped):
        width = 2.0
        while width <= max_width:
            theta = z_obs + sign * width * sigma
            if flipped(_tail(region, upper, sigma, theta), target):
                return theta
            width *= 2.0
        raise ArithmeticError(f"confidence bound bracket failed within {max_width} sigma")

    def solve(target):
        lo = bracket(target, -1.0, lambda t, tgt: t <= tgt)
        hi = bracket(target, +1.0, lambda t, tgt: t >= tgt)
        while hi - lo > 1e-8 * sigma:
            mid = 0.5 * (lo + hi)
            if _tail(region, upper, sigma, mid) < target:
                lo = mid
            else:
                hi = mid
        return 0.5 * (lo + hi)

    return solve(alpha / 2.0), solve(1.0 - alpha / 2.0)


def walk_envelope(cands, lo=-math.inf, hi=math.inf):
    """The envelope walk over ``[lo, hi]``: every walk loops, then merges."""
    K = len(cands)
    active = None
    if lo > -math.inf:
        at_lo = [(w2 * lo + w1) * lo + w0 for _, w0, w1, w2 in cands]
        v0 = min(at_lo)
        k0 = at_lo.index(v0)
        at_lo[k0] = math.inf
        if min(at_lo) - v0 > TIE_BAND * (1.0 + abs(v0)):
            active, z = k0, lo
    if active is None:
        active = min(range(K), key=lambda k: (cands[k][3], -cands[k][2], cands[k][1]))
        z = -math.inf
    breakpoints = [lo]
    order = [active]
    for _ in range(3 * K + 16):
        _, a0, a1c, a2c = cands[active]
        best = math.inf
        roots = [math.inf] * K
        for k in range(K):
            if k == active:
                continue
            _, c0, c1, c2 = cands[k]
            r = _crossing_root(a2c - c2, a1c - c1, a0 - c0, z)
            roots[k] = r
            if r < best:
                best = r
        if best >= hi:
            break
        gap = MIN_BREAKPOINT_GAP * max(1.0, abs(best))
        crossers = [k for k in range(K) if roots[k] <= best + gap]
        nxt = _minimal_after(crossers, best, cands)
        if best <= lo:
            order[-1] = nxt
        else:
            breakpoints.append(best)
            order.append(nxt)
        active = nxt
        z = best
    else:
        raise RuntimeError("envelope walk failed to terminate; degenerate candidate set")
    breakpoints.append(hi)
    return _merge_segments(breakpoints, order)


def _minimal_after(kept, z, cands):
    values = {k: (cands[k][3] * z + cands[k][2]) * z + cands[k][1] for k in kept}
    floor = min(values.values())
    tol = TIE_BAND * (1.0 + abs(floor))
    kept = [k for k in kept if values[k] <= floor + tol]
    slopes = {k: 2.0 * cands[k][3] * z + cands[k][2] for k in kept}
    floor = min(slopes.values())
    tol = TIE_BAND * (1.0 + abs(floor))
    kept = [k for k in kept if slopes[k] <= floor + tol]
    floor = min(cands[k][3] for k in kept)
    tol = TIE_BAND * (1.0 + abs(floor))
    kept = [k for k in kept if cands[k][3] <= floor + tol]
    return min(kept, key=lambda k: (cands[k][3], cands[k][2], cands[k][1]))


def si_dtw_oc_constraints(pair, line):
    """The over-conditioned rows ``(alpha, beta, gamma)``, appended cell by cell."""
    n, m = pair.n, pair.m
    table = _accumulated_cost(cost_matrix(pair).tolist())
    t0, t1, t2 = (t.tolist() for t in cell_terms(line))
    q = [[None] * m for _ in range(n)]
    constraints = []
    for i in range(n):
        for j in range(m):
            if i or j:
                ci, cj = bellman_predecessor(table, i, j)
                c0, c1, c2 = q[ci][cj]
            else:
                c0 = c1 = c2 = 0.0
            q[i][j] = (c0 + t0[i][j], c1 + t1[i][j], c2 + t2[i][j])
            if i and j:
                for pi, pj in ((i - 1, j - 1), (i - 1, j), (i, j - 1)):
                    if (pi, pj) != (ci, cj):
                        p0, p1, p2 = q[pi][pj]
                        constraints.append((c2 - p2, c1 - p1, c0 - p0))
    return constraints


def direction_eta(M, s):
    """``test_direction``'s ``eta``: each cell adds its sign at ``x_i``, subtracts it at ``y_j``."""
    eta = np.zeros(M.n + M.m)
    for (i, j), sk in zip(M.path, s):
        eta[i - 1] += sk
        eta[M.n + j - 1] -= sk
    return eta


def path_loss(path, terms):
    """``parametric._path_loss``: the ``cell_terms`` tables summed cell by cell from 0.0."""
    w0 = w1 = w2 = 0.0
    for i, j in path:
        w0 += float(terms[0][i - 1, j - 1])
        w1 += float(terms[1][i - 1, j - 1])
        w2 += float(terms[2][i - 1, j - 1])
    return w0, w1, w2


def data_splitting_test(pair):
    """``baselines.data_splitting_test`` with its statistic and direction built cell by cell."""
    x_inf, y_inf = pair.x[1::2], pair.y[1::2]
    n_inf, m_inf = x_inf.size, y_inf.size
    path, _ = bellman_path(pair.x[0::2], pair.y[0::2])
    eta = np.zeros(n_inf + m_inf)
    stat = 0.0
    for i, j in path:
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
    if var == 0.0:
        return 0.5 if stat == 0.0 else 0.0
    return float(ndtr(-stat / math.sqrt(var)))


def zero_rich_data(rng, size, kind):
    """Normal data, raw (kind 0) or rounded to 0.1 (1) or to integers (2); a fifth or so ``+-0.0``.

    Rounding makes equal entries, so zero differences and Bellman ties; the
    zeros carry both signs, so ``-0.0`` terms occur.
    """
    v = rng.normal(size=size)
    if kind:
        v = np.round(v, 2 - kind)
    zeros = rng.random(size) < 0.2
    v[zeros] = np.where(rng.random(zeros.sum()) < 0.5, 0.0, -0.0)
    return v


def random_path(rng, n, m):
    """A 1-based monotone path from ``(1, 1)`` to ``(n, m)``, each legal step equally likely."""
    path = [(1, 1)]
    while path[-1] != (n, m):
        i, j = path[-1]
        steps = [(di, dj) for di, dj in ((1, 1), (1, 0), (0, 1)) if i + di <= n and j + dj <= m]
        di, dj = steps[rng.integers(len(steps))]
        path.append((i + di, j + dj))
    return tuple(path)


def hex_outcome(call, *args):
    """``call(*args)`` as comparable data: floats as hex, an exception as its type and text."""
    try:
        value = call(*args)
    except (ArithmeticError, ValueError) as exc:
        return type(exc).__name__, str(exc)
    return [float(v).hex() for v in np.ravel(value)]

