"""Deterministic dynamic time warping machinery.

Cost matrices, warping-path enumeration and validation, the Bellman-recursion
alignment solver, the differences of stacked series at the cells of a path,
and the data-dependent direction of the alignment test statistic.  A sign
pattern holds one entry per path cell, in path order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from itertools import chain

import numpy as np
from numpy.lib.stride_tricks import as_strided

__all__ = [
    "TimeSeriesPair",
    "AlignmentMatrix",
    "TestDirection",
    "bellman_abs_sums",
    "bellman_path",
    "bellman_predecessor",
    "bellman_tables",
    "cost_matrix",
    "delannoy",
    "enumerate_alignments",
    "dtw",
    "path_differences",
    "sign_vector",
    "test_direction",
    "test_statistic",
]

SYMMETRY_TOL = 1e-10


def _check_covariance(sigma: np.ndarray, size: int, name: str) -> np.ndarray:
    sigma = np.asarray(sigma, dtype=float)
    if sigma.shape != (size, size):
        raise ValueError(f"{name} must be {size}x{size}, got {sigma.shape}")
    if not np.abs(sigma - sigma.T).max() <= SYMMETRY_TOL * np.abs(sigma).max():
        raise ValueError(f"{name} is not symmetric within {SYMMETRY_TOL} of its largest entry")
    try:
        chol = np.linalg.cholesky(sigma)
    except np.linalg.LinAlgError as exc:
        raise ValueError(f"{name} is not positive definite") from exc
    return chol


@dataclass(frozen=True)
class TimeSeriesPair:
    """Two observed series together with their noise covariance matrices.

    Parameters
    ----------
    x, y : array_like
        Observed series of lengths ``n >= 1`` and ``m >= 1``, all values finite.
    sigma_x, sigma_y : array_like, optional
        Symmetric positive-definite noise covariances.  Identity by default.
    """

    x: np.ndarray
    y: np.ndarray
    sigma_x: np.ndarray = None
    sigma_y: np.ndarray = None
    # Cholesky factors cached at construction; reused by the inference layer.
    chol_x: np.ndarray = field(init=False, repr=False, compare=False)
    chol_y: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        x = np.atleast_1d(np.asarray(self.x, dtype=float))
        y = np.atleast_1d(np.asarray(self.y, dtype=float))
        if x.ndim != 1 or y.ndim != 1:
            raise ValueError("series must be one-dimensional")
        if x.size < 1 or y.size < 1:
            raise ValueError("series must have length >= 1")
        for name, series in (("x", x), ("y", y)):
            if not np.isfinite(series).all():
                raise ValueError(f"series {name} has a non-finite value")
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)
        sigma_x = np.eye(x.size) if self.sigma_x is None else self.sigma_x
        sigma_y = np.eye(y.size) if self.sigma_y is None else self.sigma_y
        object.__setattr__(self, "sigma_x", np.asarray(sigma_x, dtype=float))
        object.__setattr__(self, "sigma_y", np.asarray(sigma_y, dtype=float))
        if "chol_x" not in vars(self):  # else set by _factored, on checked covariances
            object.__setattr__(self, "chol_x", _check_covariance(self.sigma_x, x.size, "sigma_x"))
            object.__setattr__(self, "chol_y", _check_covariance(self.sigma_y, y.size, "sigma_y"))

    @classmethod
    def _factored(cls, x, y, sigma_x, chol_x, sigma_y, chol_y) -> "TimeSeriesPair":
        """A pair on covariances checked before, given with their Cholesky factors.

        The series are checked as usual; the covariances are not checked or
        factored again.  For ``harness.generate_pair``, whose covariances come
        read-only from its cache with their factors.
        """
        pair = cls.__new__(cls)
        object.__setattr__(pair, "chol_x", chol_x)
        object.__setattr__(pair, "chol_y", chol_y)
        pair.__init__(x, y, sigma_x, sigma_y)
        return pair

    @property
    def n(self) -> int:
        return self.x.size

    @property
    def m(self) -> int:
        return self.y.size

    def stacked(self) -> np.ndarray:
        """The stacked observation vector of length ``n + m``."""
        return np.concatenate([self.x, self.y])

    def covariance_quadratic_form(self, v: np.ndarray) -> float:
        """``v' Sigma v`` for the block-diagonal covariance, via Cholesky factors."""
        vx = self.chol_x.T @ v[: self.n]
        vy = self.chol_y.T @ v[self.n :]
        return float(vx @ vx + vy @ vy)

    def covariance_matvec(self, v: np.ndarray) -> np.ndarray:
        """``Sigma v`` for the block-diagonal covariance."""
        return np.concatenate([self.sigma_x @ v[: self.n], self.sigma_y @ v[self.n :]])


@dataclass(frozen=True)
class AlignmentMatrix:
    """A monotone warping path between series of lengths ``n`` and ``m``.

    The path is stored as an ordered tuple of 1-based index pairs running from
    ``(1, 1)`` to ``(n, m)`` with steps in ``{(1,0), (0,1), (1,1)}``.  Values
    on the path (aligned differences, signs) are arrays in path order.
    """

    n: int
    m: int
    path: tuple[tuple[int, int], ...]

    def __post_init__(self):
        object.__setattr__(self, "path", tuple((int(i), int(j)) for i, j in self.path))
        if self.n < 1 or self.m < 1:
            raise ValueError("alignment dimensions must be >= 1")
        if not self.path:
            raise ValueError("empty path")
        if self.path[0] != (1, 1) or self.path[-1] != (self.n, self.m):
            raise ValueError("path must run from (1, 1) to (n, m)")
        for (i0, j0), (i1, j1) in zip(self.path, self.path[1:]):
            if (i1 - i0, j1 - j0) not in ((1, 0), (0, 1), (1, 1)):
                raise ValueError(f"illegal step {(i0, j0)} -> {(i1, j1)}")

    @cached_property
    def _cells(self) -> tuple[np.ndarray, np.ndarray]:
        """``_path_cells`` of the path, computed on first use and kept."""
        return _path_cells(self.path)


@dataclass(frozen=True)
class TestDirection:
    """Direction of the alignment test statistic in stacked-data space.

    ``eta`` has length ``n + m`` and contracts the stacked series to the
    signed sum of aligned differences.
    """

    eta: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "eta", np.asarray(self.eta, dtype=float))


def cost_matrix(pair: TimeSeriesPair) -> np.ndarray:
    """Matrix of squared pointwise differences, entry ``(i, j) = (x_i - y_j)^2``."""
    diff = np.subtract.outer(pair.x, pair.y)
    return diff * diff


@lru_cache(maxsize=None)
def delannoy(a: int, b: int) -> int:
    """Lattice-path count with unit east, south, and southeast steps."""
    if a < 0 or b < 0:
        raise ValueError("arguments must be non-negative")
    row = [1] * (b + 1)
    for _ in range(a):
        new = [1] * (b + 1)
        for k in range(1, b + 1):
            new[k] = new[k - 1] + row[k] + row[k - 1]
        row = new
    return row[b]


ENUMERATION_LIMIT = 10**6


def enumerate_alignments(n: int, m: int) -> list[AlignmentMatrix]:
    """All monotone warping paths between series of lengths ``n`` and ``m``.

    Raises
    ------
    ValueError
        If the path count ``delannoy(n - 1, m - 1)`` exceeds the enumeration
        guard of one million.
    """
    count = delannoy(n - 1, m - 1)
    if count > ENUMERATION_LIMIT:
        raise ValueError(
            f"too large to enumerate: {count} alignments for n={n}, m={m} "
            f"(limit {ENUMERATION_LIMIT})"
        )
    paths: list[tuple[tuple[int, int], ...]] = []

    def extend(path: list[tuple[int, int]]):
        i, j = path[-1]
        if (i, j) == (n, m):
            paths.append(tuple(path))
            return
        if i < n and j < m:
            path.append((i + 1, j + 1))
            extend(path)
            path.pop()
        if i < n:
            path.append((i + 1, j))
            extend(path)
            path.pop()
        if j < m:
            path.append((i, j + 1))
            extend(path)
            path.pop()

    extend([(1, 1)])
    return [AlignmentMatrix(n, m, p) for p in paths]


def _accumulated_cost(cost: list[list[float]]) -> list[list[float]]:
    """Bellman table of an ``n x m`` cost matrix given as nested lists.

    Entry ``(i, j)`` is the least summed cost of a warping path from cell
    ``(0, 0)`` to cell ``(i, j)``, both ends included.  The scalar Bellman
    recursion, for single solves: ``bellman_path`` runs it, and hands its
    table on to the over-conditioned constraints.  ``_bellman_wavefront`` runs
    the same recursion on a stack of cost matrices at once, for
    ``bellman_abs_sums`` and the envelope's cell bound.
    """
    n, m = len(cost), len(cost[0])
    table = [[0.0] * m for _ in range(n)]
    table[0][0] = cost[0][0]
    for j in range(1, m):
        table[0][j] = table[0][j - 1] + cost[0][j]
    for i in range(1, n):
        row = table[i]
        prev = table[i - 1]
        row[0] = prev[0] + cost[i][0]
        ci = cost[i]
        for j in range(1, m):
            best = prev[j - 1]
            if prev[j] < best:
                best = prev[j]
            if row[j - 1] < best:
                best = row[j - 1]
            row[j] = ci[j] + best
    return table


def bellman_predecessor(table: list[list[float]], i: int, j: int) -> tuple[int, int]:
    """Predecessor that the Bellman recursion picks for cell ``(i, j)``, 0-based.

    Ties prefer the diagonal, then the vertical, then the horizontal.  This
    is the one statement of the tie-break: the alignment solver and the
    over-conditioned selection event both follow it.
    """
    if i == 0:
        return i, j - 1
    if j == 0:
        return i - 1, j
    d, v, h = table[i - 1][j - 1], table[i - 1][j], table[i][j - 1]
    if d <= v and d <= h:
        return i - 1, j - 1
    if v <= h:
        return i - 1, j
    return i, j - 1


def bellman_path(
    x: np.ndarray, y: np.ndarray
) -> tuple[tuple[tuple[int, int], ...], list[list[float]]]:
    """Optimal warping path of series ``x`` and ``y`` (1-based) and its Bellman table.

    The one two-series alignment solve; ties are broken by ``bellman_predecessor``.
    The table is ``_accumulated_cost`` of the squared differences, bit for bit
    that of ``cost_matrix``; its last entry is the path's squared cost.
    """
    d = np.subtract.outer(x, y)
    table = _accumulated_cost((d * d).tolist())
    i, j = d.shape[0] - 1, d.shape[1] - 1
    path = [(i + 1, j + 1)]
    while i > 0 or j > 0:
        i, j = bellman_predecessor(table, i, j)
        path.append((i + 1, j + 1))
    path.reverse()
    return tuple(path), table


def _bellman_wavefront(cost, n: int, m: int, rows: int) -> np.ndarray:
    """Bellman tables of a stack of ``rows`` cost matrices, ``n x m`` each, in one wavefront.

    ``cost(k, lo, hi)`` returns the costs of the cells ``(i, k - i)``,
    ``i = lo..hi``, of anti-diagonal ``k`` as a ``(hi + 1 - lo, rows)``
    array, column ``r`` for matrix ``r``.  The wavefront visits the
    diagonals in order and gives every cell the same minimum and the same
    single ``+`` as ``_accumulated_cost``, so for costs that are neither NaN
    nor ``-0.0`` (squares and zeros qualify) each matrix's table is
    bit-identical to the scalar one.  ``bellman_abs_sums`` fills its
    tables here, and ``bellman_tables`` for the envelope's cell bound.

    Layout: entry ``table[k + 2, i + 1, r]`` is matrix ``r``'s Bellman entry
    of cell ``(i, k - i)``, so the cells of one anti-diagonal are one slice;
    two diagonals go in front.  Off the grid, the fill and a traceback read
    only the column ``i = -1`` and the cells with ``j = -1``, those of the
    front diagonals among them: these hold NaN, and the rest of the padding
    is left unset.  ``np.fmin`` skips NaN, so the wavefront needs no edge
    cases.  The padding is NaN, not infinity, because a real entry can
    overflow to infinity and must still win over the grid's edge.
    """
    table = np.empty((n + m + 1, n + 1, rows))
    table[:, 0] = np.nan
    edge = np.arange(n + 1)
    table[edge, edge] = np.nan  # cell (d + 1, -1) of diagonal d sits at [d + 2, d + 2]
    table[2, 1] = cost(0, 0, 0)[0]
    for k in range(1, n + m - 1):
        lo, hi = max(0, k - m + 1), min(n - 1, k)
        cell = table[k + 2, lo + 1 : hi + 2]
        np.fmin(table[k, lo : hi + 1], table[k + 1, lo : hi + 1], out=cell)
        np.fmin(cell, table[k + 1, lo + 1 : hi + 2], out=cell)
        cell += cost(k, lo, hi)
    return table


def bellman_tables(costs: np.ndarray) -> np.ndarray:
    """Bellman tables of an ``(n, m, rows)`` stack of cost matrices, by ``_bellman_wavefront``.

    Returns a read-only ``(n, m, rows)`` strided view of the wavefront's
    table: entry ``[i, j, r]`` is cell ``(i, j)`` of matrix ``r``.  A
    C-contiguous stack is read in place, any other is copied once.
    """
    n, m, rows = costs.shape
    # cell (i, k - i) is flat cell k + i (m - 1): an anti-diagonal is one slice
    flat, step = costs.reshape(n * m, rows), max(m - 1, 1)
    table = _bellman_wavefront(
        lambda k, first, last: flat[k + first * (m - 1) : k + last * (m - 1) + 1 : step],
        n, m, rows,
    )[2:, 1:]
    # [i, j] is [i + j, i]: i + j stays below the n + m - 1 diagonals, so the
    # view reads no memory outside the table
    along, across, depth = table.strides
    return as_strided(table, (n, m, rows), (along + across, along, depth), writeable=False)


def bellman_abs_sums(xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """Sum of ``|x_i - y_j|`` over the Bellman path of each row of a stack.

    ``xs`` is ``(rows, n)`` and ``ys`` is ``(rows, m)`` with ``n, m >= 1``
    and finite values; anything else raises ``ValueError``.  Row ``r`` gets
    the path that ``bellman_path(xs[r], ys[r])`` returns, summed in path
    order, so each result is bit-identical to the scalar solve followed by a
    ``+=`` loop.  For one pair the scalar solve is faster; at n = m = 30
    this pays off from about 6 rows on.

    The tables come from ``_bellman_wavefront`` on the squared differences.
    The stacks are copied once into C-contiguous ``(n, rows)`` and
    ``(m, rows)`` arrays, ``y`` with its time axis reversed, so the cells of
    one anti-diagonal pair two ascending contiguous slices, and each
    diagonal's squares go into one reused buffer.  In the traceback an
    off-grid neighbour, NaN in the table, loses every comparison: at
    ``i == 0`` the walk steps left, at ``j == 0`` up.

    Traceback: it restates ``bellman_predecessor`` in array form on flat
    table positions.  A row that has reached ``(0, 0)`` is held there by
    clamping its position to the origin's (the origin's own reads all fall
    in the padding); every step from another cell lands at or above that
    position.  The walk stops once every row rests there.  The positions
    are decoded to cells once after the walk, and repeats of the origin are
    dropped from the sum.
    """
    xs, ys = np.asarray(xs, dtype=float), np.asarray(ys, dtype=float)
    if xs.ndim != 2 or ys.ndim != 2:
        raise ValueError(f"xs and ys must be 2-D stacks, got shapes {xs.shape} and {ys.shape}")
    if xs.shape[0] != ys.shape[0]:
        raise ValueError(f"xs and ys must have as many rows, got {xs.shape[0]} and {ys.shape[0]}")
    rows, n = xs.shape
    m = ys.shape[1]
    if n == 0 or m == 0:
        raise ValueError(f"series must have length >= 1, got n={n} and m={m}")
    if not (np.isfinite(xs).all() and np.isfinite(ys).all()):
        raise ValueError("series values must be finite")
    diagonals = n + m - 1
    xt = np.ascontiguousarray(xs.T)
    yr = np.ascontiguousarray(ys.T[::-1])
    buf = np.empty((min(n, m), rows))

    def squares(k, lo, hi):
        d = np.subtract(xt[lo : hi + 1], yr[m - 1 - k + lo : m - k + hi], out=buf[: hi + 1 - lo])
        return np.multiply(d, d, out=d)

    table = _bellman_wavefront(squares, n, m, rows)

    # A step back in i moves `up` places in the flat table, a step back in j
    # `left` places, and a diagonal step both.  The neighbours of position p
    # are read at a = p - diag from three views, shifted so one index serves.
    flat = table.ravel()
    up, left = (n + 2) * rows, (n + 1) * rows
    diag = up + left
    up_view, left_view = flat[left:], flat[up:]
    origin = np.arange(rows) + diag
    path = np.empty((diagonals, rows), dtype=np.intp)
    path[0] = origin + ((diagonals - 1) * (n + 1) + n - 1) * rows  # cell (n-1, m-1)
    for s in range(1, diagonals):
        at = path[s - 1]
        a = at - diag
        vert = up_view[a]
        best = np.fmin(vert, left_view[a])
        step = np.where(flat[a] <= best, diag, np.where(vert <= best, up, left))
        np.maximum(at - step, origin, out=path[s])
        # no path is shorter than max(n, m) cells; from there, every 4th
        # step, stop once all rows rest at the origin
        if s % 4 == 0 and s >= max(n, m) - 1 and (path[s] == origin).all():
            path = path[: s + 1]
            break

    # Position p = ((k + 2) * (n + 1) + i + 1) * rows + r is cell (i, k - i)
    # of row r.  Per table slot p // rows, look up where x_i and y_(k - i)
    # start in the contiguous copies; row r's values sit r places further.
    slot = np.arange(table.shape[0] * (n + 1))
    i_of = slot % (n + 1) - 1
    x_at = i_of * rows
    y_at = (m + 1 - slot // (n + 1) + i_of) * rows
    q = path // rows
    r = np.arange(rows)
    terms = np.abs(xt.ravel()[x_at[q] + r] - yr.ravel()[y_at[q] + r])
    terms[1:][path[1:] == path[:-1]] = 0.0  # a finished row's repeats of the origin
    # sequential sum in path order (first cell first), not numpy's pairwise sum
    return np.add.accumulate(terms[::-1], axis=0)[-1]


def dtw(pair: TimeSeriesPair) -> tuple[AlignmentMatrix, float]:
    """Optimal alignment and its total squared cost, by ``bellman_path``."""
    path, table = bellman_path(pair.x, pair.y)
    return AlignmentMatrix(pair.n, pair.m, path), table[-1][-1]


def _path_cells(path) -> tuple[np.ndarray, np.ndarray]:
    """0-based row and column indices of a 1-based path's cells, in path order, read-only.

    The one place a path becomes array indices: every per-cell gather or sum
    over a path (aligned differences, test direction, loss, split test)
    starts here.
    """
    flat = np.fromiter(chain.from_iterable(path), np.intp, 2 * len(path)) - 1
    flat.flags.writeable = False  # an alignment shares its own with every caller
    return flat[0::2], flat[1::2]


def path_differences(M: AlignmentMatrix, v: np.ndarray) -> np.ndarray:
    """Differences ``v[..., i-1] - v[..., n+j-1]`` at the path cells, in path order.

    ``v`` is a stacked vector of length ``n + m``, or a stack of them along
    the last axis; anything else raises ``ValueError``.
    """
    v = np.asarray(v, dtype=float)
    if v.shape[-1:] != (M.n + M.m,):
        raise ValueError(f"vector must have length n + m = {M.n + M.m}, got shape {v.shape}")
    rows, cols = M._cells
    return v[..., rows] - v[..., M.n + cols]


def sign_vector(M: AlignmentMatrix, pair: TimeSeriesPair) -> np.ndarray:
    """Signs of the aligned differences, one per path cell, in path order.

    ``sign(0) = 0`` exactly: the comparison is against floating-point zero,
    so matched equal entries contribute nothing to the test direction.
    """
    return np.sign(path_differences(M, pair.stacked()))


def test_direction(M: AlignmentMatrix, s: np.ndarray) -> TestDirection:
    """Contraction direction built from a path and its sign pattern.

    ``s`` holds one sign per path cell, in path order; each cell adds its
    sign to the entry of ``x_i`` and subtracts it from that of ``y_j``.
    """
    s = np.asarray(s, dtype=float)
    if s.shape != (len(M.path),):
        raise ValueError(f"sign vector must have length {len(M.path)}, got {s.shape}")
    rows, cols = M._cells
    size = M.n + M.m
    # signs are +-1 or 0, so every sum is exact whatever the order of its terms
    eta = np.bincount(rows, s, size) - np.bincount(M.n + cols, s, size)
    return TestDirection(eta=eta)


def test_statistic(direction: TestDirection, pair: TimeSeriesPair) -> float:
    """Value of the alignment statistic, the dot product with the stacked data.

    For a direction built from the optimal alignment of ``pair`` this equals
    the sum of absolute aligned differences.
    """
    w = pair.stacked()
    if direction.eta.shape != w.shape:
        raise ValueError(
            f"direction has length {direction.eta.size}, data has length {w.size}"
        )
    return float(direction.eta @ w)
