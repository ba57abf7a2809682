"""Conditional inference for the alignment test statistic.

Conditioning on the selected alignment, its sign pattern, and the nuisance
component orthogonal to the test direction restricts the data to a line.  On
that line the statistic follows a Gaussian truncated to the region where the
selection is unchanged; p-values and confidence intervals come from its tail
probabilities, evaluated in log space for stability far into the tails.

This module holds that shared pipeline and the truncated Gaussian; each
method's region builder lives beside its engine.
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
    bellman_path,
    path_differences,
    sign_vector,
    test_direction,
    test_statistic,
)
from .intervals import IntervalUnion
from .parametric import DataLine, si_dtw_region

__all__ = [
    "DegenerateDirectionError",
    "RegionMassUnderflowError",
    "SelectionEventError",
    "InferenceResult",
    "nuisance_decomposition",
    "z2_region",
    "truncated_gaussian_sf",
    "truncated_gaussian_ci",
    "conditional_test",
    "selective_p_value",
    "selective_confidence_interval",
]


# A selection-region builder: ``conditioning record -> region``, as
# ``conditional_test`` describes.
_RegionBuilder = Callable[["_Conditioning"], IntervalUnion]


def _membership_tol(sigma: float, z_obs: float) -> float:
    """Endpoint slack when checking that ``z_obs`` lies in its truncation region."""
    return 1e-8 * max(sigma, abs(z_obs))


class DegenerateDirectionError(ValueError):
    """The test direction has zero variance (all aligned differences vanish)."""


class RegionMassUnderflowError(ArithmeticError):
    """The truncation region carries no representable Gaussian mass."""


class SelectionEventError(ArithmeticError):
    """The data sit on a tie of the selection event, which has zero width there."""


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
    # eta counts signs, so var is exactly 0.0 when every aligned difference is
    if var == 0.0:
        raise DegenerateDirectionError(
            "degenerate direction: the aligned series are identical on the path"
        )
    w = pair.stacked()
    b = pair.covariance_matvec(eta) / var
    a = w - b * float(eta @ w)
    return DataLine(a=a, b=b, n=pair.n)


def z2_region(line: DataLine, M: AlignmentMatrix, s_obs: np.ndarray) -> IntervalUnion:
    """Parameters where the sign pattern of aligned differences is preserved.

    Solves the linear system requiring every signed difference at a path cell
    (``s_obs`` holds one sign per cell) to stay non-negative along the line;
    the solution is a single (possibly empty or unbounded) interval.
    """
    s_obs = np.asarray(s_obs, dtype=float)
    nu1, nu2 = s_obs * path_differences(M, np.stack([line.a, line.b]))
    if ((nu2 == 0.0) & (nu1 < 0.0)).any():
        return IntervalUnion.empty()
    pos = nu2 > 0.0
    neg = nu2 < 0.0
    lo = float((-nu1[pos] / nu2[pos]).max()) if pos.any() else -math.inf
    hi = float((-nu1[neg] / nu2[neg]).min()) if neg.any() else math.inf
    if lo > hi:
        return IntervalUnion.empty()
    return IntervalUnion([(lo, hi)])


def _log_mass_standard(lo: float, hi: float) -> float:
    """Log-probability of a standard normal landing in ``[lo, hi]``.

    Evaluated as a difference of tail log-probabilities on the side where the
    interval lies, ``a + log(1 - exp(b - a))`` with ``b <= a``, so far-tail
    intervals do not cancel to zero.  The tails are taken as Python floats:
    the same bits as numpy's scalars, in fewer interpreter steps.
    """
    if hi <= lo:
        return -math.inf
    if hi <= 0.0:
        a, b = float(log_ndtr(hi)), float(log_ndtr(lo))
    elif lo >= 0.0:
        a, b = float(log_ndtr(-lo)), float(log_ndtr(-hi))
    else:
        return float(np.logaddexp(_log_mass_standard(lo, 0.0), _log_mass_standard(0.0, hi)))
    if b >= a:  # no mass, or both tails -inf (beyond about 1.3e154), where b - a is NaN
        return -math.inf
    t = b - a
    if t > -math.log(2.0):
        return a + math.log(-math.expm1(t))
    return a + math.log1p(-math.exp(t))


def _log_sum_exp(log_masses: list[float]) -> float:
    """Log of the summed masses, ``-inf`` if none is representable.

    One term comes back bit for bit, since ``exp(0) = 1`` and ``log(1) = 0``.
    """
    top = max(log_masses)
    if top == -math.inf:
        return -math.inf
    return top + math.log(sum(math.exp(v - top) for v in log_masses))


def _tail(region: IntervalUnion, z_obs: float, sigma: float) -> Callable[[float], float]:
    """``mean -> P(Z >= z_obs | Z in region)`` for ``Z ~ N(mean, sigma^2)``.

    The truncated Gaussian's one gate: see ``truncated_gaussian_sf`` for what
    raises.  The masses stay in log space, so the tail keeps its relative
    accuracy however far out the region lies.  Each piece's mass is computed
    once per mean: the numerator reuses those of the pieces wholly above
    ``z_obs`` and adds only the piece that ``z_obs`` clips.
    """
    if not 0.0 < sigma < math.inf:
        raise ValueError(f"sigma={sigma} must be finite and positive")
    if region.is_empty:
        raise ValueError("truncation region is empty")
    if not (math.isfinite(z_obs) and region.contains(z_obs, tol=_membership_tol(sigma, z_obs))):
        raise ValueError(f"z_obs={z_obs} lies outside the truncation region {region}")
    pieces, upper = region.intervals, region.clip_lower(z_obs).intervals
    one_piece = len(pieces) == 1
    lo, hi = pieces[0]
    # upper's first piece clips pieces[whole - 1], and the rest are pieces[whole:];
    # an empty upper stands in as the massless [z_obs, z_obs].
    start, end = upper[0] if upper else (z_obs, z_obs)
    whole = len(pieces) - len(upper) + 1

    def tail(mean: float) -> float:
        if one_piece:
            top = (hi - mean) / sigma  # end is hi, or z_obs past it
            log_den = _log_mass_standard((lo - mean) / sigma, top)
            log_num = _log_mass_standard((start - mean) / sigma, top)
        else:
            masses = [_log_mass_standard((a - mean) / sigma, (b - mean) / sigma) for a, b in pieces]
            log_den = _log_sum_exp(masses)
            clipped = _log_mass_standard((start - mean) / sigma, (end - mean) / sigma)
            log_num = _log_sum_exp([clipped, *masses[whole:]])
        if log_den == -math.inf:
            raise RegionMassUnderflowError("the region carries no representable mass")
        return 0.0 if log_num == -math.inf else min(1.0, math.exp(log_num - log_den))

    return tail


def truncated_gaussian_sf(z_obs: float, sigma: float, region: IntervalUnion) -> float:
    """Conditional tail probability ``P(Z >= z_obs | Z in region)``, ``Z ~ N(0, sigma^2)``.

    The tail that ``truncated_gaussian_ci`` solves, at mean 0.

    Raises
    ------
    ValueError
        Unless ``sigma`` is finite and positive and the region holds ``z_obs``.
    RegionMassUnderflowError
        If the region carries no representable mass.
    """
    return _tail(region, z_obs, sigma)(0.0)


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
    target.  Far out, where adjacent floats lie more than ``1e-8 sigma``
    apart (from between 4.5e7 and 9e7 sigma from 0), the bisection ends
    when its bracket holds no float between its ends.

    Raises
    ------
    ValueError
        Unless ``sigma`` is finite and positive, the region holds ``z_obs`` and
        ``alpha`` lies in (0, 1).
    RegionMassUnderflowError
        If the region carries no representable mass.
    ArithmeticError
        If ``z_obs`` is at an end of the region, where no mean moves the tail
        (raised before any tail is evaluated), or a bracket passes 2^40 sigma.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie strictly between 0 and 1")
    tail = _tail(region, z_obs, sigma)
    upper = region.clip_lower(z_obs)
    if upper == region or all(lo == hi for lo, hi in upper):
        end = "lower" if upper == region else "upper"
        raise ArithmeticError(
            f"no confidence bound: z_obs={z_obs} lies at the {end} end of its truncation "
            f"region {region}, so the tail probability is the same for every mean"
        )

    # Equal-tailed bounds sit roughly sigma^2 / (z_obs - edge) away when the
    # statistic is close to a truncation endpoint, which can be hundreds of
    # sigma; keep doubling until the tail flips, with a generous hard cap.
    max_width = 2.0**40

    def bracket(target: float, sign: float) -> float:
        width = 2.0
        while width <= max_width:
            theta = z_obs + sign * width * sigma
            p = tail(theta)
            if (p <= target) if sign < 0.0 else (p >= target):
                return theta
            width *= 2.0
        raise ArithmeticError(f"confidence bound bracket failed within {max_width} sigma")

    def solve(target: float) -> float:
        lo = bracket(target, -1.0)
        hi = bracket(target, +1.0)
        while hi - lo > 1e-8 * sigma:
            mid = 0.5 * (lo + hi)
            if mid == lo or mid == hi:
                break  # adjacent floats, farther apart than 1e-8 sigma: mid is the bound
            if tail(mid) < target:
                lo = mid
            else:
                hi = mid
        return 0.5 * (lo + hi)

    return solve(alpha / 2.0), solve(1.0 - alpha / 2.0)


@dataclass(frozen=True)
class _Conditioning:
    """What conditioning on the selected alignment and its signs fixes for one pair.

    The same for every exact method, so a pair is conditioned once and each
    method's region builder is handed this record (``_finish``).  ``table`` is
    the pair's Bellman table (``bellman_path``), from which ``alignment`` was
    traced; ``eta`` is the test direction, ``z_obs`` the statistic and
    ``sigma`` its null standard deviation; ``line`` is the data line in units
    of ``scale``, the power of two ``_unit_scale(sigma)``, and ``window`` the
    sign-preserving region on it.
    """

    alignment: AlignmentMatrix
    table: list[list[float]]
    eta: np.ndarray
    z_obs: float
    sigma: float
    scale: float
    line: DataLine
    window: IntervalUnion


def _condition(pair: TimeSeriesPair) -> _Conditioning:
    """Solve the alignment and fix the direction, data line and sign window of ``pair``."""
    path, table = bellman_path(pair.x, pair.y)
    M_obs = AlignmentMatrix(pair.n, pair.m, path)
    s_obs = sign_vector(M_obs, pair)
    direction = test_direction(M_obs, s_obs)
    z_obs = test_statistic(direction, pair)
    line = nuisance_decomposition(pair, direction)
    sigma = math.sqrt(pair.covariance_quadratic_form(direction.eta))
    # Build the regions in sigma units.  Scaling by a power of two is exact, so
    # only the tolerance comparisons, now dimensionless, see the change.
    scale = _unit_scale(sigma)
    unit = DataLine(line.a / scale, line.b, pair.n)
    window = z2_region(unit, M_obs, s_obs)
    return _Conditioning(M_obs, table, direction.eta, z_obs, sigma, scale, unit, window)


def _finish(cond: _Conditioning, selection_region: _RegionBuilder) -> InferenceResult:
    """One exact method's test on a conditioned pair: its region ∩ the window, then the tail."""
    z_obs, sigma, scale = cond.z_obs, cond.sigma, cond.scale
    region = selection_region(cond).intersect(cond.window)
    region = IntervalUnion((lo * scale, hi * scale) for lo, hi in region)
    if not region.contains(z_obs, tol=_membership_tol(sigma, z_obs)):
        raise SelectionEventError(
            f"selection region {region} misses the observed statistic {z_obs}: the data "
            "sit on a tie of the selection event, which has zero width there"
        )
    p = truncated_gaussian_sf(z_obs, sigma, region)
    return InferenceResult(
        z_obs=z_obs, sigma=sigma, region=region, p_selective=p, alignment=cond.alignment
    )


def conditional_test(pair: TimeSeriesPair, selection_region: _RegionBuilder) -> InferenceResult:
    """Conditional p-value for the optimal-alignment statistic of ``pair``.

    Pipeline: solve the alignment, build the statistic direction, decompose
    out the nuisance to obtain the data line, intersect the selection region
    with the sign-preserving window, and evaluate the truncated-Gaussian tail.
    Everything up to the window is the conditioning, which depends on the pair
    alone; ``harness.run_ci`` runs it once and finishes both exact methods on it.

    ``selection_region(cond)`` returns the line parameters at which the
    selection event conditioned on holds; it is the only step in which the
    exact methods differ (``_si_dtw`` and ``baselines._si_dtw_oc``).  ``cond``
    is the conditioning record (``_Conditioning``): its ``line`` is the data
    line in sigma units, ``z_obs / scale`` the observed statistic in those
    units, and ``window`` the sign-preserving region on the line, computed
    first: the result is intersected with it, so a builder need only be exact
    inside it.  ``table`` is the pair's Bellman table, for a builder that
    conditions on every sub-problem's choice.
    """
    return _finish(_condition(pair), selection_region)


def _si_dtw(cond: _Conditioning) -> IntervalUnion:
    """si-dtw's region builder: ``parametric.si_dtw_region`` on the record."""
    return si_dtw_region(cond.line, cond.alignment, cond.window, cond.z_obs / cond.scale)


def _unit_scale(sigma: float) -> float:
    """The power of two with ``sigma <= scale < 2 sigma``: the line's unit."""
    return math.ldexp(1.0, math.frexp(sigma)[1])


def selective_p_value(pair: TimeSeriesPair) -> InferenceResult:
    """Conditional test given the selected alignment and its sign pattern.

    The selection region is where the envelope of optimal alignment losses
    along the data line carries the observed alignment: ``parametric.si_dtw_region``.
    """
    return conditional_test(pair, _si_dtw)


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
