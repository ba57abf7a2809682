"""Disjoint unions of real intervals.

Truncation regions on the one-dimensional data line are represented as sorted
unions of disjoint closed intervals whose endpoints may be infinite.  All set
arithmetic here is exact on the stored endpoints; tolerances enter only in
membership and containment queries, and in telling a quadratic inequality
from a linear one.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

import numpy as np

__all__ = ["IntervalUnion", "solve_quadratic_leq", "solve_quadratic_system"]

# Leading coefficients this small relative to the rest (floored at 1 sigma
# unit) are roundoff residue of a linear constraint; solving them as quadratics
# would manufacture crossings at astronomical |z|.
CURVATURE_SNAP = 1e-12


class IntervalUnion:
    """A sorted union of disjoint closed intervals ``[lo, hi]``.

    Endpoints may be ``-inf`` / ``+inf``.  Construction normalizes the input:
    intervals are sorted, and overlapping or touching intervals are merged.
    Degenerate single-point intervals are kept (they matter for membership).
    """

    __slots__ = ("_intervals",)

    def __init__(self, intervals: Iterable[Sequence[float]] = ()):
        items = []
        for lo, hi in intervals:
            lo = float(lo)
            hi = float(hi)
            if math.isnan(lo) or math.isnan(hi):
                raise ValueError("interval endpoints must not be NaN")
            if lo > hi:
                raise ValueError(f"empty interval ({lo}, {hi}) not allowed; drop it instead")
            items.append((lo, hi))
        items.sort()
        merged: list[tuple[float, float]] = []
        for lo, hi in items:
            if merged and lo <= merged[-1][1]:
                prev_lo, prev_hi = merged[-1]
                merged[-1] = (prev_lo, max(prev_hi, hi))
            else:
                merged.append((lo, hi))
        self._intervals = tuple(merged)

    @classmethod
    def empty(cls) -> "IntervalUnion":
        return cls(())

    @classmethod
    def real_line(cls) -> "IntervalUnion":
        return cls(((-math.inf, math.inf),))

    @property
    def intervals(self) -> tuple[tuple[float, float], ...]:
        return self._intervals

    @property
    def is_empty(self) -> bool:
        return not self._intervals

    def __len__(self) -> int:
        return len(self._intervals)

    def __iter__(self):
        return iter(self._intervals)

    def __eq__(self, other) -> bool:
        if not isinstance(other, IntervalUnion):
            return NotImplemented
        return self._intervals == other._intervals

    def __hash__(self) -> int:
        return hash(self._intervals)

    def __repr__(self) -> str:
        body = " u ".join(f"[{lo:.6g}, {hi:.6g}]" for lo, hi in self._intervals)
        return f"IntervalUnion({body or 'empty'})"

    def contains(self, x: float, tol: float = 0.0) -> bool:
        """Whether ``x`` lies in the union, with slack ``tol`` at endpoints."""
        for lo, hi in self._intervals:
            if lo - tol <= x <= hi + tol:
                return True
        return False

    def intersect(self, other: "IntervalUnion") -> "IntervalUnion":
        """Exact intersection with another union (two-pointer sweep)."""
        out = []
        a, b = self._intervals, other._intervals
        i = j = 0
        while i < len(a) and j < len(b):
            lo = max(a[i][0], b[j][0])
            hi = min(a[i][1], b[j][1])
            if lo <= hi:
                out.append((lo, hi))
            if a[i][1] < b[j][1]:
                i += 1
            else:
                j += 1
        return IntervalUnion(out)

    def is_subset_of(self, other: "IntervalUnion", tol: float = 0.0) -> bool:
        """Whether every interval here is covered by ``other``.

        Each interval must sit inside a single interval of ``other`` after
        expanding that interval's endpoints by ``tol``; the unions are
        normalized, so coverage can never legitimately straddle a gap.
        """
        for lo, hi in self._intervals:
            covered = False
            for olo, ohi in other._intervals:
                if olo - tol <= lo and hi <= ohi + tol:
                    covered = True
                    break
            if not covered:
                return False
        return True

    def clip_lower(self, bound: float) -> "IntervalUnion":
        """Intersection with ``[bound, +inf)``."""
        out = []
        for lo, hi in self._intervals:
            if hi >= bound:
                out.append((max(lo, bound), hi))
        return IntervalUnion(out)


def solve_quadratic_leq(alpha: float, beta: float, gamma: float) -> IntervalUnion:
    """Solution set of ``alpha z^2 + beta z + gamma <= 0`` in closed form.

    Selection events on the data line are intersections of such sets: the
    witness cuts that bound the exact event before its envelope is built,
    and the over-conditioned event's per-cell constraints, which
    ``solve_quadratic_system`` solves all at once with this formula.
    """
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


def solve_quadratic_system(constraints) -> IntervalUnion:
    """Common solution set of ``alpha z^2 + beta z + gamma <= 0`` for every row.

    ``constraints`` holds ``(alpha, beta, gamma)`` rows.  Each row's set is
    the one ``solve_quadratic_leq`` returns, from the same root formula and
    the same ``CURVATURE_SNAP``, and the result equals their intersection
    taken one row at a time, endpoint for endpoint.  Linear and convex rows
    bound one interval ``[start, stop]``; concave rows with two distinct
    roots punch open holes ``(r1, r2)`` in it, removed in one sorted sweep.
    A point between two touching holes survives.
    """
    alpha, beta, gamma = np.asarray(constraints, dtype=float).reshape(-1, 3).T
    scale = np.maximum(1.0, np.maximum(np.abs(beta), np.abs(gamma)))
    linear = np.abs(alpha) <= CURVATURE_SNAP * scale
    disc = beta * beta - 4.0 * alpha * gamma
    real = ~linear & (disc >= 0.0)
    if np.any(linear & (beta == 0.0) & (gamma > 0.0)) or np.any(~linear & ~real & (alpha > 0.0)):
        return IntervalUnion.empty()
    with np.errstate(divide="ignore", invalid="ignore"):
        sq = np.sqrt(np.where(real, disc, 0.0))
        q = np.where(beta >= 0.0, -0.5 * (beta + sq), -0.5 * (beta - sq))
        r1 = np.where(q != 0.0, q / alpha, 0.0)
        r2 = np.where(q != 0.0, gamma / q, -beta / alpha)
        root = -gamma / beta
    r1, r2 = np.where(r1 > r2, r2, r1), np.where(r1 > r2, r1, r2)
    convex = real & (alpha > 0.0)
    holes = real & (alpha < 0.0) & (r1 < r2)
    lows = np.where(linear & (beta < 0.0), root, np.where(convex, r1, -math.inf))
    highs = np.where(linear & (beta > 0.0), root, np.where(convex, r2, math.inf))
    start = float(lows.max(initial=-math.inf))
    stop = float(highs.min(initial=math.inf))
    pieces = []
    for h1, h2 in sorted(zip(r1[holes].tolist(), r2[holes].tolist())):
        if h1 >= stop:
            break
        if h1 >= start:
            pieces.append((start, h1))
            start = h2
        elif h2 > start:
            start = h2
    if start <= stop:
        pieces.append((start, stop))
    # a piece starts at a lower bound or where a hole ends, and stops likewise
    lows, highs = np.where(holes, r2, lows), np.where(holes, r1, highs)
    return IntervalUnion((_first_zero(lo, lows), _first_zero(hi, highs)) for lo, hi in pieces)


def _first_zero(end: float, ends: np.ndarray) -> float:
    """``end``, with the sign a zero end gets from a one-row-at-a-time intersection.

    Intersecting keeps the earlier of two equal endpoints, so a zero end
    carries the sign of the first row that has an end there.
    """
    if end != 0.0:
        return end
    return float(ends[np.flatnonzero(ends == 0.0)[0]])
