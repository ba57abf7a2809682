"""Disjoint unions of real intervals.

Truncation regions on the one-dimensional data line are represented as sorted
unions of disjoint closed intervals whose endpoints may be infinite.  All set
arithmetic here is exact on the stored endpoints; tolerances enter only in
membership and containment queries.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

__all__ = ["IntervalUnion"]


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
