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


def _real_roots(alpha: float, beta: float, gamma: float, disc: float) -> tuple[float, float]:
    """Roots ``r1 <= r2`` of ``alpha z^2 + beta z + gamma``, whose discriminant is ``disc >= 0``.

    The stable formula, stated once (``solve_quadratic_system`` has it on arrays):
    ``q = -(beta + sqrt(disc)) / 2``, or ``-(beta - sqrt(disc)) / 2`` when ``beta < 0`` (not
    ``-0.0``); the roots are ``q / alpha`` and ``gamma / q``, or 0 and ``-beta / alpha`` if q is 0.
    """
    sq = math.sqrt(disc)
    q = -0.5 * (beta + sq) if beta >= 0.0 else -0.5 * (beta - sq)
    r1, r2 = (q / alpha, gamma / q) if q != 0.0 else (0.0, -beta / alpha)
    return (r2, r1) if r1 > r2 else (r1, r2)


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
    r1, r2 = _real_roots(alpha, beta, gamma, disc)
    if alpha > 0.0:
        return IntervalUnion([(r1, r2)])
    return IntervalUnion([(-math.inf, r1), (r2, math.inf)])


def solve_quadratic_system(constraints) -> IntervalUnion:
    """Common solution set of ``alpha z^2 + beta z + gamma <= 0`` for every row.

    ``constraints`` is a ``(k, 3)`` array of ``(alpha, beta, gamma)`` rows, or
    empty.  Each row's set is the one ``solve_quadratic_leq`` returns, from the
    same root formula and the same ``CURVATURE_SNAP``, and the result equals
    their intersection taken one row at a time, endpoint for endpoint.  So a
    row whose set has a NaN end raises ``ValueError``, as does any other shape.
    Linear and convex rows bound one interval ``[start, stop]``; concave rows
    with two distinct roots punch open holes ``(h1, h2)`` in it, and so does
    ``(stop, inf)``.  Sorted by ``h1``, the holes' running maximum end, seeded
    with ``start``, is the frontier covered so far: a piece ``[frontier, h1]``
    opens wherever a hole starts at or past it, so touching holes keep a point.
    """
    rows = np.asarray(constraints, dtype=float)
    if rows.shape != (0,) and (rows.ndim != 2 or rows.shape[1] != 3):
        raise ValueError(f"constraints must be (k, 3) rows (alpha, beta, gamma), not {rows.shape}")
    # contiguous columns: on a few hundred rows each numpy call costs less
    alpha, beta, gamma = rows.reshape(-1, 3).T.copy()
    # fmax skips NaN, as max() does in solve_quadratic_leq
    linear = np.abs(alpha) <= CURVATURE_SNAP * np.fmax(1.0, np.fmax(np.abs(beta), np.abs(gamma)))
    disc = beta * beta - 4.0 * alpha * gamma
    solved = ~(linear | (disc < 0.0))  # a NaN discriminant is solved, to NaN roots
    # roots of rows not solved are noise (a NaN sqrt, a division by zero): each use is masked
    with np.errstate(divide="ignore", invalid="ignore"):
        root = -gamma / beta
        sq = np.sqrt(disc)
        q = -0.5 * (beta + np.where(beta >= 0.0, sq, -sq))
        nonzero = q != 0.0
        r1 = np.where(nonzero, q / alpha, 0.0)
        r2 = np.where(nonzero, gamma / q, -beta / alpha)
    swap = r1 > r2
    r1, r2 = np.where(swap, r2, r1), np.where(swap, r1, r2)
    bad = np.where(linear, (beta != 0.0) & np.isnan(root), solved & (np.isnan(r1) | np.isnan(r2)))
    if bad.any():
        raise ValueError(f"constraint row {int(np.argmax(bad))} has a NaN root")
    if np.where(linear, (beta == 0.0) & ~(gamma <= 0.0), ~solved & (alpha > 0.0)).any():
        return IntervalUnion.empty()
    convex = solved & (alpha > 0.0)
    holes = solved & (alpha < 0.0) & (r1 < r2)
    lows = np.where(linear & (beta < 0.0), root, np.where(convex, r1, -math.inf))
    highs = np.where(linear & (beta > 0.0), root, np.where(convex, r2, math.inf))
    start, stop = lows.max(initial=-math.inf), highs.min(initial=math.inf)
    h1, h2 = np.concatenate((r1[holes], [stop])), np.concatenate((r2[holes], [math.inf]))
    order = np.argsort(h1)
    h1, frontier = h1[order], np.maximum.accumulate(np.concatenate(([start], h2[order])))[:-1]
    opens = h1 >= frontier
    pieces = list(zip(frontier[opens].tolist(), h1[opens].tolist()))
    if any(0.0 in piece for piece in pieces):
        # one row at a time, a zero end keeps the sign of the first row with an end there:
        # a piece starts at a lower bound or a hole's end, and stops at an upper bound or its start
        starts, stops = np.where(holes, r2, lows), np.where(holes, r1, highs)
        lo0, hi0 = (float(ends[np.argmax(ends == 0.0)]) for ends in (starts, stops))
        pieces = [(lo or lo0, hi or hi0) for lo, hi in pieces]  # 0.0 and -0.0 are false
    return IntervalUnion(pieces)
