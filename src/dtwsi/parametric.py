"""Alignment losses and lower envelopes along a one-parameter data line.

When the stacked series are restricted to a line, each warping path's loss is
a quadratic in the line parameter ``z``.  The minimal loss over all paths is
the lower envelope of finitely many parabolas, a piecewise quadratic.  This
module computes that envelope either by brute force over an explicit
candidate set or by a table recursion that propagates, cell by cell, only the
paths that are optimal for some ``z``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .dtw_core import AlignmentMatrix
from .intervals import IntervalUnion

__all__ = [
    "DataLine",
    "QuadraticLoss",
    "PiecewiseEnvelope",
    "cell_terms",
    "quadratic_loss",
    "envelope_bruteforce",
    "para_dtw",
    "z1_region",
]

# Breakpoints closer than this are collapsed into a single transition.
MIN_BREAKPOINT_GAP = 1e-12
# Quadratic intersections with a discriminant this close to zero are treated
# as tangencies: the parabolas touch but do not cross.
TANGENCY_TOL = 1e-12
# Values, slopes or curvatures within this relative band count as tied.
TIE_BAND = 1e-9


@dataclass(frozen=True)
class DataLine:
    """A line ``w(z) = a + b z`` in stacked-data space, split after ``n`` entries.

    The first ``n`` coordinates parametrize the first series, the rest the
    second, so ``x(z) = a[:n] + b[:n] z`` and ``y(z) = a[n:] + b[n:] z``.
    """

    a: np.ndarray
    b: np.ndarray
    n: int

    def __post_init__(self):
        a = np.asarray(self.a, dtype=float)
        b = np.asarray(self.b, dtype=float)
        if a.ndim != 1 or a.shape != b.shape:
            raise ValueError("offset and direction must be 1-d vectors of equal length")
        if not 1 <= self.n < a.size:
            raise ValueError("split must leave both series non-empty")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)

    @property
    def m(self) -> int:
        return self.a.size - self.n

    @property
    def a1(self) -> np.ndarray:
        return self.a[: self.n]

    @property
    def a2(self) -> np.ndarray:
        return self.a[self.n :]

    @property
    def b1(self) -> np.ndarray:
        return self.b[: self.n]

    @property
    def b2(self) -> np.ndarray:
        return self.b[self.n :]


@dataclass(frozen=True)
class QuadraticLoss:
    """Coefficients of a path loss ``w0 + w1 z + w2 z^2`` along a data line."""

    w0: float
    w1: float
    w2: float

    def __post_init__(self):
        if self.w2 < 0.0:
            raise ValueError("leading coefficient is a sum of squares; it cannot be negative")

    def __call__(self, z: float) -> float:
        return (self.w2 * z + self.w1) * z + self.w0

    def coefficients(self) -> tuple[float, float, float]:
        return (self.w0, self.w1, self.w2)


@dataclass(frozen=True)
class PiecewiseEnvelope:
    """Lower envelope of path losses: breakpoints and per-segment optima.

    The envelope covers ``[breakpoints[0], breakpoints[-1]]``, which is
    ``-inf`` to ``+inf`` for a full-line envelope; segment ``k`` covers
    ``[breakpoints[k], breakpoints[k+1]]`` and stores the alignment that is
    minimal there together with its loss quadratic.
    """

    breakpoints: tuple[float, ...]
    segments: tuple[tuple[AlignmentMatrix, QuadraticLoss], ...]

    def __post_init__(self):
        if len(self.breakpoints) != len(self.segments) + 1:
            raise ValueError("need exactly one more breakpoint than segments")
        if not self.segments:
            raise ValueError("envelope needs at least one segment")
        if any(b < a for a, b in zip(self.breakpoints, self.breakpoints[1:])):
            raise ValueError("breakpoints must be non-decreasing")

    def segment_index_at(self, z: float) -> int:
        if not self.breakpoints[0] <= z <= self.breakpoints[-1]:
            raise ValueError(
                f"z={z} lies outside the envelope's cover "
                f"[{self.breakpoints[0]}, {self.breakpoints[-1]}]"
            )
        lo, hi = 0, len(self.segments) - 1
        while lo < hi:
            mid = (lo + hi) // 2
            if z <= self.breakpoints[mid + 1]:
                hi = mid
            else:
                lo = mid + 1
        return lo

    def value(self, z: float) -> float:
        return self.segments[self.segment_index_at(z)][1](z)


def cell_terms(line: DataLine) -> Callable[[int, int], tuple[float, float, float]]:
    """The per-cell loss term along the line, as a function of 0-based ``(i, j)``.

    Cell ``(i, j)`` costs ``(da + db z)^2`` with ``da = a1[i] - a2[j]`` and
    ``db = b1[i] - b2[j]``; the returned function gives its coefficients
    ``(da^2, 2 da db, db^2)``.  Every path loss along the line is a sum of
    these terms, and every loss computed in this package takes them from here.
    """
    a1, a2, b1, b2 = (v.tolist() for v in (line.a1, line.a2, line.b1, line.b2))

    def term(i: int, j: int) -> tuple[float, float, float]:
        da = a1[i] - a2[j]
        db = b1[i] - b2[j]
        return da * da, 2.0 * da * db, db * db

    return term


def quadratic_loss(M: AlignmentMatrix, line: DataLine) -> QuadraticLoss:
    """Loss quadratic of one alignment along the line.

    Accumulates the per-cell terms in path order, so repeated evaluation and
    the incremental table recursion agree bit for bit.
    """
    if M.n != line.n or M.m != line.m:
        raise ValueError(
            f"alignment is {M.n}x{M.m} but line splits {line.n}+{line.m}"
        )
    term = cell_terms(line)
    w0 = w1 = w2 = 0.0
    for i, j in M.path:
        t0, t1, t2 = term(i - 1, j - 1)
        w0 += t0
        w1 += t1
        w2 += t2
    return QuadraticLoss(w0, w1, w2)


def _crossing_root(d2: float, d1: float, d0: float, z: float) -> float:
    """First point after ``z`` where ``d2 t^2 + d1 t + d0`` turns positive.

    The polynomial is the active loss minus a competitor's, so a sign change
    to positive is where the competitor drops below.  Returns ``inf`` when no
    such crossing exists; near-tangent intersections do not count.
    """
    if d2 == 0.0:
        if d1 <= 0.0:
            return math.inf
        r = -d0 / d1
        return r if r > z else math.inf
    disc = d1 * d1 - 4.0 * d2 * d0
    if disc <= TANGENCY_TOL:
        return math.inf
    sq = math.sqrt(disc)
    q = -0.5 * (d1 + sq) if d1 >= 0.0 else -0.5 * (d1 - sq)
    if q != 0.0:
        ra = q / d2
        rb = d0 / q
    else:
        ra = 0.0
        rb = -d1 / d2
    if ra > rb:
        ra, rb = rb, ra
    r = rb if d2 > 0.0 else ra
    return r if r > z else math.inf


def _walk_envelope(
    cands: list[tuple], lo: float = -math.inf, hi: float = math.inf
) -> tuple[list[float], list[int]]:
    """Trace the lower envelope of candidate quadratics over ``[lo, hi]``.

    ``cands`` holds ``(path, w0, w1, w2)`` tuples.  Returns breakpoints from
    ``lo`` to ``hi`` and the index of the minimal candidate per segment.

    At a finite ``lo`` the walk starts from the candidate minimal there when
    it is minimal by more than the tie band.  Otherwise it starts at ``-inf``
    and records segments only from ``lo`` on: picking among near-tied losses
    at ``lo`` is not robust, because two of them may never cross again (one
    touches the other just inside the window, or a cell cost vanishes at
    ``lo``), so a wrong pick would never be corrected.  The walk from
    ``-inf`` alone would be correct for every window, but the start at
    ``lo`` skips the crossings left of the window; without it the
    benchmark's ``single-pair`` throughput drops by about a quarter.
    """
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
        # minimal as z -> -inf: smallest curvature, then steepest descent,
        # then offset; exact ties go to the smallest path
        active = min(
            range(K), key=lambda k: (cands[k][3], -cands[k][2], cands[k][1], cands[k][0])
        )
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
        # also stops when nothing crosses (best == inf), even for hi == inf
        if best >= hi:
            break
        # Losses of paths differing by a cell whose cost vanishes at some z*
        # all tie there, so multi-way crossings at one point are routine, and
        # roundoff perturbs the coincident roots.  Cluster every crossing
        # within noise of the earliest one and pick the candidate that is
        # minimal just after: by value, then slope, then curvature, each
        # compared with a tolerance band so roundoff cannot pre-empt the next
        # criterion; exact ties go to the smallest key (w2, w1, w0, path).
        gap = MIN_BREAKPOINT_GAP * max(1.0, abs(best))
        crossers = [k for k in range(K) if roots[k] <= best + gap]
        nxt = _minimal_after(crossers, best, cands)
        if best <= lo:
            order[-1] = nxt  # left of the window: only the segment holding lo counts
        else:
            breakpoints.append(best)
            order.append(nxt)
        active = nxt
        z = best
    else:
        raise RuntimeError("envelope walk failed to terminate; degenerate candidate set")
    breakpoints.append(hi)
    return _merge_segments(breakpoints, order, cands)


def _minimal_after(kept: list[int], z: float, cands) -> int:
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
    return min(kept, key=lambda k: (cands[k][3], cands[k][2], cands[k][1], cands[k][0]))


def _merge_segments(breakpoints, order, cands):
    """Drop sliver segments and fuse consecutive segments with equal paths.

    A skipped sliver is absorbed by the segment that follows it, or, if it is
    the last, by the segment before it, so the result still ends at
    ``breakpoints[-1]``.  A lone segment is never dropped.
    """
    bps = [breakpoints[0]]
    segs: list[int] = []
    last = len(order) - 1
    for k, seg in enumerate(order):
        lo, hi = breakpoints[k], breakpoints[k + 1]
        if hi - lo < MIN_BREAKPOINT_GAP * max(1.0, abs(lo)) and (k < last or segs):
            continue
        if segs and cands[seg][0] == cands[segs[-1]][0]:
            bps[-1] = hi
            continue
        segs.append(seg)
        bps.append(hi)
    bps[-1] = breakpoints[-1]
    return bps, segs


def _envelope(bps, order, cands, n: int, m: int) -> PiecewiseEnvelope:
    """The envelope whose segment ``k`` holds candidate ``cands[order[k]]``."""
    segments = tuple(
        (AlignmentMatrix(n, m, cands[k][0]), QuadraticLoss(cands[k][1], cands[k][2], cands[k][3]))
        for k in order
    )
    return PiecewiseEnvelope(tuple(bps), segments)


def envelope_bruteforce(candidates, line: DataLine) -> PiecewiseEnvelope:
    """Lower envelope over an explicit set of alignments.

    Walks breakpoints left to right: starting from the candidate minimal as
    ``z -> -inf``, each next breakpoint is the earliest intersection where
    some other candidate's quadratic drops below the active one.
    """
    candidates = list(candidates)
    if not candidates:
        raise ValueError("candidate set must be non-empty")
    cands = []
    for M in candidates:
        q = quadratic_loss(M, line)
        cands.append((M.path, q.w0, q.w1, q.w2))
    bps, order = _walk_envelope(cands)
    return _envelope(bps, order, cands, line.n, line.m)


def para_dtw(
    line: DataLine, n: int, m: int, window: tuple[float, float] = (-math.inf, math.inf)
) -> PiecewiseEnvelope:
    """Envelope of the optimal alignment loss for every ``z`` in ``window`` at once.

    Fills an ``n x m`` table bottom-up.  Each cell's candidate paths extend
    the paths its three predecessor cells kept by one step; the cell then
    keeps exactly the candidates that win a segment of its own lower envelope
    over ``window = (lo, hi)``.  The last cell's envelope is returned; it
    covers ``[lo, hi]``, the whole line by default.

    Pruning to the window is exact by Bellman's prefix principle: a path that
    is optimal at ``(n, m)`` for some ``z`` in the window has a prefix that is
    optimal, for that same ``z``, at every cell it passes through.
    """
    if line.n != n or line.m != m:
        raise ValueError("line split does not match requested dimensions")
    lo, hi = window
    if not lo <= hi:
        raise ValueError(f"window ({lo}, {hi}) is empty")
    term = cell_terms(line)
    table: list[list[list[tuple]]] = [[None] * m for _ in range(n)]
    for i in range(n):
        for j in range(m):
            t0, t1, t2 = term(i, j)
            cell = (i + 1, j + 1)
            if i == 0 and j == 0:
                cands = [(((1, 1),), t0, t1, t2)]
            else:
                # Extensions of different predecessor cells end in different
                # penultimate cells, so no candidate path appears twice.
                cands = [
                    (path + (cell,), w0 + t0, w1 + t1, w2 + t2)
                    for pi, pj in ((i - 1, j - 1), (i - 1, j), (i, j - 1))
                    if pi >= 0 and pj >= 0
                    for path, w0, w1, w2 in table[pi][pj]
                ]
            bps, order = _walk_envelope(cands, lo, hi)
            table[i][j] = [cands[k] for k in dict.fromkeys(order)]
    return _envelope(bps, order, cands, n, m)


def z1_region(env: PiecewiseEnvelope, M_obs: AlignmentMatrix) -> IntervalUnion:
    """Parameters where the envelope's optimal alignment equals ``M_obs``.

    Membership is by exact path equality; an alignment absent from the
    envelope yields the empty union.
    """
    pieces = []
    for k, (M, _) in enumerate(env.segments):
        if M.path == M_obs.path and M.n == M_obs.n and M.m == M_obs.m:
            pieces.append((env.breakpoints[k], env.breakpoints[k + 1]))
    return IntervalUnion(pieces)
