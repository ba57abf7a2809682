"""Deterministic dynamic time warping machinery.

Cost matrices, warping-path enumeration and validation, the Bellman-recursion
alignment solver, the sparse index map between stacked series and row-major
cost entries, and the data-dependent direction of the alignment test
statistic.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

__all__ = [
    "TimeSeriesPair",
    "AlignmentMatrix",
    "TestDirection",
    "bellman_predecessor",
    "bellman_table",
    "cost_matrix",
    "delannoy",
    "enumerate_alignments",
    "dtw",
    "omega_apply",
    "sign_vector",
    "test_direction",
    "test_statistic",
]

SYMMETRY_TOL = 1e-10


def _check_covariance(sigma: np.ndarray, size: int, name: str) -> np.ndarray:
    sigma = np.asarray(sigma, dtype=float)
    if sigma.shape != (size, size):
        raise ValueError(f"{name} must be {size}x{size}, got {sigma.shape}")
    if not np.all(np.abs(sigma - sigma.T) <= SYMMETRY_TOL):
        raise ValueError(f"{name} is not symmetric within {SYMMETRY_TOL}")
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
        object.__setattr__(self, "chol_x", _check_covariance(self.sigma_x, x.size, "sigma_x"))
        object.__setattr__(self, "chol_y", _check_covariance(self.sigma_y, y.size, "sigma_y"))

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
    ``(1, 1)`` to ``(n, m)`` with steps in ``{(1,0), (0,1), (1,1)}``.  Dense
    and vectorized binary views are built on demand.
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

    def matrix(self) -> np.ndarray:
        """Dense binary ``n x m`` view with a one per path cell."""
        out = np.zeros((self.n, self.m))
        for i, j in self.path:
            out[i - 1, j - 1] = 1.0
        return out

    def vec(self) -> np.ndarray:
        """Row-major vectorization of length ``n * m``."""
        out = np.zeros(self.n * self.m)
        for i, j in self.path:
            out[(i - 1) * self.m + (j - 1)] = 1.0
        return out


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


def bellman_table(pair: TimeSeriesPair) -> list[list[float]]:
    """Accumulated cost table: entry ``(i, j)`` is the optimal loss of ``x[:i+1]`` vs ``y[:j+1]``."""
    n, m = pair.n, pair.m
    cost = cost_matrix(pair).tolist()
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


def _traceback(table: list[list[float]], i: int, j: int) -> tuple[tuple[int, int], ...]:
    path = [(i + 1, j + 1)]
    while i > 0 or j > 0:
        i, j = bellman_predecessor(table, i, j)
        path.append((i + 1, j + 1))
    path.reverse()
    return tuple(path)


def dtw(pair: TimeSeriesPair) -> tuple[AlignmentMatrix, float]:
    """Optimal alignment and its total squared cost via Bellman recursion.

    Ties are broken by ``bellman_predecessor``.
    """
    n, m = pair.n, pair.m
    table = bellman_table(pair)
    path = _traceback(table, n - 1, m - 1)
    return AlignmentMatrix(n, m, path), table[n - 1][m - 1]


def omega_apply(v: np.ndarray, n: int, m: int) -> np.ndarray:
    """Row-major differences ``v_i - v_{n+j}`` without materializing the map."""
    v = np.asarray(v, dtype=float)
    return np.subtract.outer(v[:n], v[n:]).ravel()


def sign_vector(M: AlignmentMatrix, pair: TimeSeriesPair) -> np.ndarray:
    """Entrywise signs of the aligned differences, zero off the path.

    ``sign(0) = 0`` exactly: the comparison is against floating-point zero,
    so matched equal entries contribute nothing to the test direction.
    """
    diffs = omega_apply(pair.stacked(), pair.n, pair.m)
    return M.vec() * np.sign(diffs)


def test_direction(M: AlignmentMatrix, s: np.ndarray) -> TestDirection:
    """Contraction direction built from a path and a sign pattern.

    Equivalent to multiplying the signed, path-masked row-major difference map
    down to stacked-data space; assembled sparsely from the path cells.
    """
    s = np.asarray(s, dtype=float)
    if s.shape != (M.n * M.m,):
        raise ValueError(f"sign vector must have length {M.n * M.m}, got {s.shape}")
    eta = np.zeros(M.n + M.m)
    for i, j in M.path:
        sk = s[(i - 1) * M.m + (j - 1)]
        eta[i - 1] += sk
        eta[M.n + j - 1] -= sk
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
