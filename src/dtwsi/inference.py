"""Conditional inference for the alignment test statistic.

Conditioning on the selected alignment, its sign pattern, and the nuisance
component orthogonal to the test direction restricts the data to a line.  On
that line the statistic follows a Gaussian truncated to the region where the
selection is unchanged; p-values and confidence intervals come from its tail
probabilities, evaluated in log space for stability far into the tails.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.special import log_ndtr

from .dtw_core import (
    AlignmentMatrix,
    TestDirection,
    TimeSeriesPair,
    dtw,
    omega_apply,
    sign_vector,
    test_direction,
    test_statistic,
)
from .intervals import IntervalUnion
from .parametric import DataLine, para_dtw, z1_region

__all__ = [
    "DegenerateDirectionError",
    "RegionMassUnderflowError",
    "InferenceResult",
    "nuisance_decomposition",
    "z2_region",
    "truncated_gaussian_sf",
    "truncated_gaussian_ci",
    "conditional_test",
    "selective_p_value",
    "selective_confidence_interval",
]

DEGENERATE_VARIANCE_TOL = 1e-12
# Total log-mass below this is indistinguishable from zero in double precision.
UNDERFLOW_LOG_MASS = -700.0


def _membership_tol(sigma: float, z_obs: float) -> float:
    """Endpoint slack when checking that ``z_obs`` lies in its truncation region."""
    return 1e-8 * max(1.0, sigma, abs(z_obs))


class DegenerateDirectionError(ValueError):
    """The test direction has zero variance (all aligned differences vanish)."""


class RegionMassUnderflowError(ArithmeticError):
    """The truncation region carries no representable Gaussian mass."""


@dataclass(frozen=True)
class InferenceResult:
    """Outcome of a conditional test on the alignment statistic.

    ``z_obs`` is the observed statistic, ``sigma`` its null standard
    deviation, ``region`` the truncation region on the data line,
    ``p_selective`` the conditional tail probability, and ``alignment`` the
    selected warping path.
    """

    z_obs: float
    sigma: float
    region: IntervalUnion
    p_selective: float
    alignment: AlignmentMatrix

    def __post_init__(self):
        if not 0.0 <= self.p_selective <= 1.0:
            raise ValueError(f"p-value {self.p_selective} outside [0, 1]")
        if not self.region.contains(self.z_obs, tol=_membership_tol(self.sigma, self.z_obs)):
            raise ValueError("observed statistic lies outside its own truncation region")


def nuisance_decomposition(pair: TimeSeriesPair, direction: TestDirection) -> DataLine:
    """Split the stacked data into the test direction and its complement.

    Returns the line ``w(z) = a + b z`` on which the data moves when only the
    statistic varies: ``b`` is the covariance-weighted unit response of the
    direction, ``a`` the remainder of the observation.  Satisfies
    ``eta @ b == 1``, ``eta @ a == 0``, and ``a + b * t == data`` at the
    observed statistic value ``t``.
    """
    eta = direction.eta
    var = pair.covariance_quadratic_form(eta)
    if var <= DEGENERATE_VARIANCE_TOL:
        raise DegenerateDirectionError(
            "degenerate direction: the aligned series are identical on the path"
        )
    w = pair.stacked()
    b = pair.covariance_matvec(eta) / var
    a = w - b * float(eta @ w)
    return DataLine(a=a, b=b, n=pair.n)


def z2_region(line: DataLine, M: AlignmentMatrix, s_obs: np.ndarray) -> IntervalUnion:
    """Parameters where the sign pattern of aligned differences is preserved.

    Solves the linear system requiring every signed, path-masked difference to
    stay non-negative along the line; the solution is a single (possibly
    empty or unbounded) interval.
    """
    s_obs = np.asarray(s_obs, dtype=float)
    mask = M.vec()
    nu1 = s_obs * mask * omega_apply(line.a, M.n, M.m)
    nu2 = s_obs * mask * omega_apply(line.b, M.n, M.m)
    if np.any((nu2 == 0.0) & (nu1 < 0.0)):
        return IntervalUnion.empty()
    pos = nu2 > 0.0
    neg = nu2 < 0.0
    lo = float(np.max(-nu1[pos] / nu2[pos])) if np.any(pos) else -math.inf
    hi = float(np.min(-nu1[neg] / nu2[neg])) if np.any(neg) else math.inf
    if lo > hi:
        return IntervalUnion.empty()
    return IntervalUnion([(lo, hi)])


def _log1mexp(t: float) -> float:
    """``log(1 - exp(t))`` for ``t <= 0`` without intermediate cancellation."""
    if t >= 0.0:
        return -math.inf
    if t > -math.log(2.0):
        return math.log(-math.expm1(t))
    return math.log1p(-math.exp(t))


def _log_mass_standard(lo: float, hi: float) -> float:
    """Log-probability of a standard normal landing in ``[lo, hi]``.

    Evaluated as a difference of tail log-probabilities on the side where the
    interval lies, so far-tail intervals do not cancel to zero.
    """
    if hi <= lo:
        return -math.inf
    if hi <= 0.0:
        a, b = log_ndtr(hi), log_ndtr(lo)
        return a + _log1mexp(min(b - a, 0.0))
    if lo >= 0.0:
        a, b = log_ndtr(-lo), log_ndtr(-hi)
        return a + _log1mexp(min(b - a, 0.0))
    return np.logaddexp(_log_mass_standard(lo, 0.0), _log_mass_standard(0.0, hi))


def _log_region_mass(region: IntervalUnion, mean: float, sigma: float) -> float:
    masses = [
        _log_mass_standard((lo - mean) / sigma, (hi - mean) / sigma) for lo, hi in region
    ]
    if not masses:
        return -math.inf
    top = max(masses)
    if top == -math.inf:
        return -math.inf
    return top + math.log(sum(math.exp(v - top) for v in masses))


def _truncated_sf(
    z_obs: float, sigma: float, region: IntervalUnion, mean: float, log_den: float
) -> float:
    """Upper-tail probability of ``N(mean, sigma^2)`` restricted to ``region``.

    ``log_den`` is the region's log-mass under that law.
    """
    upper = region.clip_lower(z_obs)
    if upper.is_empty:
        return 0.0
    log_num = _log_region_mass(upper, mean, sigma)
    if log_num == -math.inf:
        return 0.0
    return min(1.0, math.exp(log_num - log_den))


def truncated_gaussian_sf(z_obs: float, sigma: float, region: IntervalUnion) -> float:
    """Conditional tail probability ``P(Z >= z_obs | Z in region)``, ``Z ~ N(0, sigma^2)``.

    Per-interval masses are computed as log-space differences of tail
    probabilities and combined by log-sum-exp.

    Raises
    ------
    ValueError
        If the region is empty, ``sigma`` is not positive, or ``z_obs`` is
        not a member of the region.
    RegionMassUnderflowError
        If the total mass of the region underflows double precision.
    """
    if sigma <= 0.0:
        raise ValueError("sigma must be positive")
    if region.is_empty:
        raise ValueError("truncation region is empty")
    if not region.contains(z_obs, tol=_membership_tol(sigma, z_obs)):
        raise ValueError(f"z_obs={z_obs} lies outside the truncation region {region}")
    log_den = _log_region_mass(region, 0.0, sigma)
    if log_den < UNDERFLOW_LOG_MASS:
        raise RegionMassUnderflowError(
            f"region mass underflow: log-mass {log_den:.2f} below {UNDERFLOW_LOG_MASS}"
        )
    return _truncated_sf(z_obs, sigma, region, 0.0, log_den)


def truncated_gaussian_ci(
    z_obs: float,
    sigma: float,
    region: IntervalUnion,
    alpha: float,
) -> tuple[float, float]:
    """Equal-tailed interval for the mean of a truncated Gaussian.

    The bounds solve ``P_theta(Z >= z_obs | Z in region) = alpha/2`` and
    ``1 - alpha/2`` by bisection to ``1e-8 sigma``; the tail probability is
    increasing in the mean, so each equation has at most one root.  Brackets
    start two standard deviations out and double until the tail crosses the
    target.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie strictly between 0 and 1")
    if region.is_empty:
        raise ValueError("truncation region is empty")

    def tail(theta: float) -> float:
        log_den = _log_region_mass(region, theta, sigma)
        if log_den == -math.inf:
            raise RegionMassUnderflowError("region mass underflow: region has zero width")
        return _truncated_sf(z_obs, sigma, region, theta, log_den)

    # Equal-tailed bounds sit roughly sigma^2 / (z_obs - edge) away when the
    # statistic is close to a truncation endpoint, which can be hundreds of
    # sigma; keep doubling until the tail flips, with a generous hard cap.
    max_width = 2.0**40

    def bracket(target: float, sign: float, flipped) -> float:
        width = 2.0
        while width <= max_width:
            theta = z_obs + sign * width * sigma
            if flipped(tail(theta), target):
                return theta
            width *= 2.0
        raise ArithmeticError(f"confidence bound bracket failed within {max_width} sigma")

    def solve(target: float) -> float:
        lo = bracket(target, -1.0, lambda t, tgt: t <= tgt)
        hi = bracket(target, +1.0, lambda t, tgt: t >= tgt)
        while hi - lo > 1e-8 * sigma:
            mid = 0.5 * (lo + hi)
            if tail(mid) < target:
                lo = mid
            else:
                hi = mid
        return 0.5 * (lo + hi)

    return solve(alpha / 2.0), solve(1.0 - alpha / 2.0)


def conditional_test(
    pair: TimeSeriesPair,
    selection_region: Callable[
        [TimeSeriesPair, DataLine, AlignmentMatrix, IntervalUnion], IntervalUnion
    ],
) -> InferenceResult:
    """Conditional p-value for the optimal-alignment statistic of ``pair``.

    Pipeline: solve the alignment, build the statistic direction, decompose
    out the nuisance to obtain the data line, intersect the selection region
    with the sign-preserving window, and evaluate the truncated-Gaussian tail.

    ``selection_region(pair, line, M_obs, window)`` returns the line
    parameters at which the selection event conditioned on holds; it is the
    only step in which the exact methods differ.  ``window`` is the
    sign-preserving region, computed first: the result is intersected with
    it, so a builder need only be exact inside it.
    """
    M_obs, _ = dtw(pair)
    s_obs = sign_vector(M_obs, pair)
    direction = test_direction(M_obs, s_obs)
    z_obs = test_statistic(direction, pair)
    line = nuisance_decomposition(pair, direction)
    sigma = math.sqrt(pair.covariance_quadratic_form(direction.eta))
    window = z2_region(line, M_obs, s_obs)
    region = selection_region(pair, line, M_obs, window).intersect(window)
    if region.is_empty:
        raise RuntimeError(
            "selection region lost the observed statistic; this indicates an upstream bug"
        )
    p = truncated_gaussian_sf(z_obs, sigma, region)
    return InferenceResult(z_obs=z_obs, sigma=sigma, region=region, p_selective=p, alignment=M_obs)


def _envelope_region(
    pair: TimeSeriesPair, line: DataLine, M_obs: AlignmentMatrix, window: IntervalUnion
) -> IntervalUnion:
    """Where ``M_obs`` carries the envelope, built on the window alone."""
    if window.is_empty:
        return window
    (bounds,) = window.intervals
    return z1_region(para_dtw(line, pair.n, pair.m, bounds), M_obs)


def selective_p_value(pair: TimeSeriesPair) -> InferenceResult:
    """Conditional test given the selected alignment and its sign pattern.

    The selection region is where the envelope of optimal alignment losses
    along the data line carries the observed alignment.
    """
    return conditional_test(pair, _envelope_region)


def selective_confidence_interval(
    pair: TimeSeriesPair, alpha: float, result: InferenceResult | None = None
) -> tuple[float, float]:
    """Equal-tailed ``1 - alpha`` interval for the mean of the statistic.

    Reuses ``result`` when the conditional test has already been run on the
    same pair; otherwise runs it first.
    """
    if result is None:
        result = selective_p_value(pair)
    return truncated_gaussian_ci(result.z_obs, result.sigma, result.region, alpha)
