"""Alignment losses and lower envelopes along a one-parameter data line.

When the stacked series are restricted to a line, each warping path's loss is
a quadratic in the line parameter ``z``.  The minimal loss over all paths is
the lower envelope of finitely many parabolas, a piecewise quadratic.  This
module computes that envelope either by brute force over an explicit
candidate set or by a table recursion that propagates, cell by cell, only the
paths that are optimal for some ``z``.  It also builds the exact method's
selection region from that envelope (``si_dtw_region``): the witness hull,
the cell bound and the tie-band membership are decided here and nowhere else.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass

import numpy as np

from .dtw_core import AlignmentMatrix, _path_cells, bellman_path, bellman_tables
from .intervals import IntervalUnion, _real_roots, solve_quadratic_leq

__all__ = [
    "DataLine",
    "PiecewiseEnvelope",
    "cell_terms",
    "quadratic_loss",
    "envelope_bruteforce",
    "para_dtw",
    "si_dtw_region",
    "z1_region",
]

# Tolerances in sigma units: ``inference.conditional_test`` scales the line.
# Breakpoints closer than this are collapsed into a single transition.
MIN_BREAKPOINT_GAP = 1e-12
# Quadratic intersections with a discriminant this close to zero are treated
# as tangencies: the parabolas touch but do not cross.
TANGENCY_TOL = 1e-12
# Values, slopes or curvatures within this relative band count as tied; a
# cell's loss bound must exceed a sub-window's cap by more than it, relative
# to ``1 + cap`` (losses are in sigma^2), before the cell counts as unusable.
TIE_BAND = 1e-9
# Witness cuts keep where the observed loss exceeds a witness's by at most
# this, relative to ``1 + q_obs(t_obs)`` (losses are in sigma^2), so roundoff
# in either loss cannot cut into the selection region.
WITNESS_SLACK = 1e-6
# Witness probes: at most this many per region, each one step, 1/(WITNESS_GRID-1)
# of the hull clipped this far either side of the observed statistic (sigma
# units), inside an end of the hull.  They move speed, not results.
WITNESS_GRID = 24
WITNESS_REACH = 20.0
# The cell bound caps the optimal loss on this many equal sub-windows of a
# finite window and keeps a cell usable on any of them.  Speed only.
SUB_WINDOWS = 8


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
class PiecewiseEnvelope:
    """Lower envelope of path losses: breakpoints and per-segment optima.

    The envelope covers ``[breakpoints[0], breakpoints[-1]]``, which is
    ``-inf`` to ``+inf`` for a full-line envelope; segment ``k`` covers
    ``[breakpoints[k], breakpoints[k+1]]`` and stores the alignment that is
    minimal there together with its loss triple ``(w0, w1, w2)``, the
    quadratic ``w0 + w1 z + w2 z^2``.
    """

    breakpoints: tuple[float, ...]
    segments: tuple[tuple[AlignmentMatrix, tuple[float, float, float]], ...]

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
        return bisect_left(self.breakpoints, z, 1, len(self.segments)) - 1

    def value(self, z: float) -> float:
        w0, w1, w2 = self.segments[self.segment_index_at(z)][1]
        return (w2 * z + w1) * z + w0


def cell_terms(line: DataLine) -> np.ndarray:
    """The per-cell loss terms along the line, as a ``(3, n, m)`` stack of tables.

    Cell ``(i, j)`` (0-based) costs ``(da + db z)^2`` with ``da = a1[i] - a2[j]``
    and ``db = b1[i] - b2[j]``; the three tables hold its coefficients ``da^2``,
    ``2 da db`` and ``db^2``.  Every path loss along the line is a sum of
    these terms, and every loss computed in this package takes them from here.
    """
    da = np.subtract.outer(line.a1, line.a2)
    db = np.subtract.outer(line.b1, line.b2)
    return np.array([da * da, 2.0 * da * db, db * db])


def quadratic_loss(M: AlignmentMatrix, line: DataLine) -> tuple[float, float, float]:
    """Loss triple ``(w0, w1, w2)`` of one alignment along the line.

    Accumulates the per-cell terms in path order, so repeated evaluation and
    the incremental table recursion agree bit for bit.
    """
    _check_split(M, line)
    return _path_loss(M._cells, cell_terms(line))


def _check_split(M: AlignmentMatrix, line: DataLine) -> None:
    if M.n != line.n or M.m != line.m:
        raise ValueError(
            f"alignment is {M.n}x{M.m} but line splits {line.n}+{line.m}"
        )


def _path_loss(cells, terms) -> tuple[float, float, float]:
    """Loss triple ``(w0, w1, w2)`` of a path given by its ``_path_cells``: ``w0 + w1 z + w2 z^2``.

    The ``cell_terms`` tables ``terms`` summed along the path, in path order.
    """
    rows, cols = cells
    gathered = np.zeros((3, rows.size + 1))
    gathered[:, 1:] = terms[:, rows, cols]
    # a sequential sum from 0.0: a path of -0.0 terms (2 da db at da == 0) sums to 0.0
    w0, w1, w2 = np.add.accumulate(gathered, axis=1)[:, -1].tolist()
    return w0, w1, w2


def _optimal_at(
    line: DataLine, z: float, terms
) -> tuple[tuple[tuple[int, int], ...], tuple[float, float, float]]:
    """A path optimal at ``z`` (Bellman on the series at ``z``) and its loss triple.

    ``terms`` are the line's ``cell_terms``.  Any path's loss bounds the
    envelope from above everywhere, so ``si_dtw_region``'s witness probes
    use the result as a bound; it is exact only at ``z`` and up to roundoff.
    """
    path, _ = bellman_path(line.a1 + line.b1 * z, line.a2 + line.b2 * z)
    return path, _path_loss(_path_cells(path), terms)


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
    ra, rb = _real_roots(d2, d1, d0, disc)
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
    ``lo`` skips the crossings left of the window.  Without it, on the
    benchmark's seed-3 pairs, results stay hex-identical and a pair takes
    about 8% longer on ``single-pair`` and 6% longer on ``sim-batch`` (both
    versions timed pair by pair in turn, 6 passes, on a 2-core Xeon VM;
    per-pass ratios 1.07-1.10 and 1.04-1.07).

    A lone candidate, or a walk whose active candidate is not crossed before
    ``hi``, returns its one segment at once: there is nothing to merge.
    Without these two exits a pair takes about 4% longer on ``single-pair``
    and 2% longer on ``sim-batch``, timed the same way.  A lone crosser is
    the next active candidate without the tie-break, which has nothing to
    break: a walk of two candidates and two segments, 870 of the 4,635
    walks of 100 seed-0 ``single-pair`` pairs, takes about 6 us with this
    exit and 11 us without it (fastest of 9 passes, same VM).
    """
    K = len(cands)
    if K == 1:
        return [lo, hi], [0]
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
        # then offset; exact ties go to the first, Bellman's pick in para_dtw
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
        # also stops when nothing crosses (best == inf), even for hi == inf
        if best >= hi:
            if len(order) == 1:
                return [lo, hi], order  # one segment: nothing to merge
            break
        # Losses of paths differing by a cell whose cost vanishes at some z*
        # all tie there, so multi-way crossings at one point are routine, and
        # roundoff perturbs the coincident roots.  Cluster every crossing
        # within noise of the earliest one and pick the candidate that is
        # minimal just after: by value, then slope, then curvature, each
        # compared with a tolerance band so roundoff cannot pre-empt the next
        # criterion; exact ties go to the smallest (w2, w1, w0), then the first.
        gap = MIN_BREAKPOINT_GAP * max(1.0, abs(best))
        crossers = [k for k in range(K) if roots[k] <= best + gap]
        nxt = crossers[0] if len(crossers) == 1 else _minimal_after(crossers, best, cands)
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
    return _merge_segments(breakpoints, order)


def _minimal_after(kept: list[int], z: float, cands) -> int:
    values = [(cands[k][3] * z + cands[k][2]) * z + cands[k][1] for k in kept]
    floor = min(values)
    tol = TIE_BAND * (1.0 + abs(floor))
    kept = [k for k, v in zip(kept, values) if v <= floor + tol]
    slopes = [2.0 * cands[k][3] * z + cands[k][2] for k in kept]
    floor = min(slopes)
    tol = TIE_BAND * (1.0 + abs(floor))
    kept = [k for k, v in zip(kept, slopes) if v <= floor + tol]
    floor = min(cands[k][3] for k in kept)
    tol = TIE_BAND * (1.0 + abs(floor))
    kept = [k for k in kept if cands[k][3] <= floor + tol]
    return min(kept, key=lambda k: (cands[k][3], cands[k][2], cands[k][1]))


def _merge_segments(breakpoints, order):
    """Drop sliver segments and fuse consecutive segments of the same candidate.

    Distinct candidates are distinct paths: a duplicate never enters ``order``.

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
        if segs and seg == segs[-1]:
            bps[-1] = hi
            continue
        segs.append(seg)
        bps.append(hi)
    bps[-1] = breakpoints[-1]
    return bps, segs


def _envelope(bps, segments, n: int, m: int) -> PiecewiseEnvelope:
    """The envelope whose segment ``k`` holds the candidate ``segments[k]``."""
    pieces = tuple((AlignmentMatrix(n, m, c[0]), c[1:]) for c in segments)
    return PiecewiseEnvelope(tuple(bps), pieces)


def envelope_bruteforce(candidates, line: DataLine) -> PiecewiseEnvelope:
    """Lower envelope over an explicit set of alignments.

    Walks breakpoints left to right: starting from the candidate minimal as
    ``z -> -inf``, each next breakpoint is the earliest intersection where
    some other candidate's quadratic drops below the active one.
    """
    candidates = list(candidates)
    if not candidates:
        raise ValueError("candidate set must be non-empty")
    terms = cell_terms(line)
    cands = []
    for M in candidates:
        _check_split(M, line)
        cands.append((M.path, *_path_loss(M._cells, terms)))
    bps, order = _walk_envelope(cands)
    return _envelope(bps, [cands[k] for k in order], line.n, line.m)


def para_dtw(
    line: DataLine, n: int, m: int, window: tuple[float, float] = (-math.inf, math.inf)
) -> PiecewiseEnvelope:
    """Envelope of the optimal alignment loss for every ``z`` in ``window`` at once.

    Fills an ``n x m`` table bottom-up over every cell.  Each cell's
    candidate paths extend the paths its three predecessor cells kept by one
    step; the cell then keeps exactly the candidates that win a segment of
    its own lower envelope over ``window = (lo, hi)``.  The last cell's
    envelope is returned; it covers ``[lo, hi]``, the whole line by default.

    Pruning to the window is exact by Bellman's prefix principle: a path that
    is optimal at ``(n, m)`` for some ``z`` in the window has a prefix that is
    optimal, for that same ``z``, at every cell it passes through.  No cell
    is skipped and no Bellman solve runs, on any window: this is the oracle
    that the region builder ``si_dtw_region``, which skips cells, is checked
    against.
    """
    if line.n != n or line.m != m:
        raise ValueError("line split does not match requested dimensions")
    lo, hi = window
    if not lo <= hi:
        raise ValueError(f"window ({lo}, {hi}) is empty")
    usable = np.ones((n, m), dtype=bool)
    return _envelope(*_table_envelope(line, lo, hi, cell_terms(line), usable), n, m)


def _table_envelope(line: DataLine, lo: float, hi: float, terms, usable):
    """The table recursion on ``[lo, hi]`` over the cells marked ``usable``.

    ``terms`` are the line's ``cell_terms`` and ``usable`` an ``n x m``
    boolean table.  Returns the last cell's breakpoints and, per segment,
    its candidate ``(path, w0, w1, w2)``.
    """
    n, m = line.n, line.m
    # the usable cells in row-major order, each with its three terms
    cells = zip(np.argwhere(usable).tolist(), zip(*terms[:, usable].tolist()))
    # skipped cells, and cells left without candidates, keep none
    table: list[list[tuple]] = [[()] * m for _ in range(n)]
    for (i, j), (t0, t1, t2) in cells:
        cell = (i + 1, j + 1)
        if i == 0 and j == 0:
            cands = [(((1, 1),), t0, t1, t2)]
        else:
            # Extensions of different predecessor cells end in different
            # penultimate cells, so no candidate path appears twice.  They
            # are listed in the order of Bellman's tie-break.
            cands = [
                (path + (cell,), w0 + t0, w1 + t1, w2 + t2)
                for pi, pj in ((i - 1, j - 1), (i - 1, j), (i, j - 1))
                if pi >= 0 and pj >= 0
                for path, w0, w1, w2 in table[pi][pj]
            ]
            if not cands:
                continue
        bps, order = _walk_envelope(cands, lo, hi)
        if len(order) == 1:
            table[i][j] = [cands[order[0]]]
        else:
            table[i][j] = [cands[k] for k in dict.fromkeys(order)]
    return bps, [cands[k] for k in order]


def _unusable_cells(line: DataLine, lo: float, hi: float, known) -> np.ndarray:
    """Cells that no path optimal somewhere in ``[lo, hi]`` passes through.

    The window is split into ``SUB_WINDOWS`` equal sub-windows ``[a_s, b_s]``.
    Cell ``(i, j)`` costs ``(da + db z)^2``, whose least value ``L_s`` over a
    sub-window is closed-form.  Forward and backward Bellman tables ``F_s``
    and ``B_s`` of those least values make ``F_s + B_s - L_s`` a lower bound,
    at every ``z`` in the sub-window, on the loss of any path through the
    cell.  Every ``(w0, w1, w2)`` loss triple in ``known`` is a path's, so it
    bounds the optimal loss from above; it is convex, so on the sub-window it
    is at most its larger end value, and ``cap_s``, the least of those over
    ``known``, caps the optimal loss there.  A cell whose bound exceeds
    ``cap_s`` (beyond ``TIE_BAND``, for roundoff) on every sub-window
    therefore carries no path that is optimal anywhere in the window.  A NaN
    bound or cap rules nothing out.  On an infinite window no cell is
    unusable.  ``known`` must not be empty on a finite one.  Returns an
    ``n x m`` boolean table.  Only ``si_dtw_region`` runs it; ``para_dtw``
    skips none.

    All ``2 * SUB_WINDOWS`` tables come from one ``bellman_tables`` call on
    the least costs stacked on the last axis, the wavefront's layout: the
    forward ones on the least costs, the backward ones on the same costs
    with both grid axes reversed.
    """
    n, m = line.n, line.m
    if not (math.isfinite(lo) and math.isfinite(hi)):
        return np.zeros((n, m), dtype=bool)
    # squares may overflow to inf and bounds become inf - inf: NaN rules nothing out
    with np.errstate(over="ignore", invalid="ignore"):
        # convex combinations stay finite on any finite window; 0 and 1 give lo and hi
        t = np.arange(SUB_WINDOWS + 1) / SUB_WINDOWS
        edges = np.clip(lo * (1.0 - t) + hi * t, lo, hi)
        w0, w1, w2 = np.array(known).T[:, :, None]
        ends = (w2 * edges + w1) * edges + w0
        cap = np.maximum(ends[:, :-1], ends[:, 1:]).min(axis=0)
        least = _least_costs(line, edges)
        tables = bellman_tables(np.concatenate([least, least[::-1, ::-1]], axis=2))
        bound = tables[:, :, :SUB_WINDOWS] + tables[::-1, ::-1, SUB_WINDOWS:] - least
        return (bound > cap + TIE_BAND * (1.0 + cap)).all(axis=2)


def _least_costs(line: DataLine, edges: np.ndarray) -> np.ndarray:
    """Each cell's least cost on each sub-window, as an ``n x m x SUB_WINDOWS`` array.

    Entry ``[i, j, s]`` is the least of ``(da + db z)^2`` over ``z`` between
    ``edges[s]`` and ``edges[s + 1]`` for cell ``(i, j)``: zero where
    ``da + db z`` changes sign, else the square at the end nearer zero.
    Never NaN, so the wavefront's tables are the scalar ones.
    """
    da = np.subtract.outer(line.a1, line.a2)
    db = np.subtract.outer(line.b1, line.b2)
    at = da[:, :, None] + db[:, :, None] * edges
    square = at * at
    least = np.minimum(square[:, :, :-1], square[:, :, 1:])
    least[~(at[:, :, :-1] * at[:, :, 1:] > 0.0)] = 0.0  # a NaN product rules nothing out either
    return least


def z1_region(env: PiecewiseEnvelope, M_obs: AlignmentMatrix) -> IntervalUnion:
    """Parameters where the envelope's optimal alignment equals ``M_obs``.

    Membership is by exact path equality; an alignment absent from the
    envelope yields the empty union.
    """
    bps = env.breakpoints
    return IntervalUnion(
        (bps[k], bps[k + 1]) for k, (M, _) in enumerate(env.segments) if M.path == M_obs.path
    )


def si_dtw_region(
    line: DataLine, M_obs: AlignmentMatrix, window: IntervalUnion, t_obs: float
) -> IntervalUnion:
    """Where the envelope carries ``M_obs``, built on a witness hull inside the window.

    The exact method's region: its builder ``inference._si_dtw`` passes the
    conditioning record's data line in sigma units, alignment, sign window
    and statistic on the line (see ``inference.conditional_test``).
    Witnesses shrink the window first.  At a probe
    point, the path ``w`` optimal there has a loss ``q_w`` that bounds the
    envelope from above, so wherever ``q_w < q_obs`` the observed path
    ``M_obs`` is not optimal: that set lies outside the selection region.
    Each witness cuts the hull to ``{q_obs - q_w <= slack}``, a superset of
    what is left of the region.

    Probes start one step inside each end of the hull and move inward, the
    two ends taking turns; the step is ``1/(WITNESS_GRID-1)`` of the hull
    clipped to ``t_obs +- WITNESS_REACH``.  An end whose probe returns
    ``M_obs`` has reached the region and stops.  So does an end whose cut
    keeps its probe (a near-tie within the slack, or a cut that keeps parts
    on both sides of the probe): the end did not move past the probe.
    Otherwise the end probes again one step inside its new position.  At most
    ``WITNESS_GRID`` probes run in all.  The table recursion of ``para_dtw``
    then runs on the final hull, skipping the cells no path optimal in that
    hull can use (``_unusable_cells``).  The losses that cap the optimum
    there are ``q_obs`` and every witness's, so the cell bound runs no
    Bellman solve of its own.  Every filter keeps a superset of the region,
    so the probes move speed only.  Segments are read as loss coefficients;
    no alignment or envelope object is built.

    A segment whose loss equals ``M_obs``'s within the tie band counts as
    ``M_obs``'s: ``M_obs`` is optimal there too.  Which of two paths with
    identical losses the envelope carries depends on the window it is built
    on and on the losses that cap it.

    Raises ``ValueError`` when ``M_obs`` does not fit the line's split or the
    window has more than one piece.
    """
    _check_split(M_obs, line)
    if len(window) > 1:
        raise ValueError(f"si_dtw_region needs a window of at most one piece, got {len(window)}")
    if window.is_empty:
        return window
    (bounds,) = window.intervals
    terms = cell_terms(line)
    w_obs = o0, o1, o2 = _path_loss(M_obs._cells, terms)
    slack = WITNESS_SLACK * (1.0 + (o2 * t_obs + o1) * t_obs + o0)
    lo, hi = bounds
    known = [w_obs]
    reach_lo, reach_hi = t_obs - WITNESS_REACH, t_obs + WITNESS_REACH
    sides = [1.0, -1.0]  # +1 probes up from the lower end, -1 down from the upper
    for _ in range(WITNESS_GRID):
        if not sides:
            break
        side = sides.pop(0)
        first, last = max(lo, reach_lo), min(hi, reach_hi)
        step = (last - first) / (WITNESS_GRID - 1)
        t = first + step if side > 0 else last - step
        if not lo < t < hi:
            continue
        path, w = _optimal_at(line, t, terms)
        if path == M_obs.path:
            continue
        known.append(w)
        cut = solve_quadratic_leq(o2 - w[2], o1 - w[1], o0 - w[0] - slack)
        kept = IntervalUnion([(lo, hi)]).intersect(cut)
        if kept.is_empty:
            return kept
        lo, hi = kept.intervals[0][0], kept.intervals[-1][1]
        # an end that did not move past its probe stops: probing again from
        # there could repeat the probe forever
        if not lo <= t <= hi:
            sides.append(side)
    bps, segments = _table_envelope(line, lo, hi, terms, ~_unusable_cells(line, lo, hi, known))
    pieces = zip(bps, bps[1:], segments)
    return IntervalUnion((a, b) for a, b, (_, *w) in pieces if _same_loss(w, w_obs))


def _same_loss(w, v) -> bool:
    """Whether two ``(w0, w1, w2)`` loss triples agree coefficientwise within the tie band."""
    return all(abs(a - b) <= TIE_BAND * (1.0 + abs(b)) for a, b in zip(w, v))
