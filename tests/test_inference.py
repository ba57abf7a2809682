"""Tests for the conditional inference layer."""

import math

import numpy as np
import pytest
from scipy.special import ndtri

from dtwsi import inference
from dtwsi.baselines import si_dtw_oc_p_value
from dtwsi.dtw_core import AlignmentMatrix, TimeSeriesPair, dtw, enumerate_alignments, sign_vector
from dtwsi.dtw_core import TestDirection as Direction
from dtwsi.dtw_core import test_direction as direction_of
from dtwsi.harness import ExperimentConfig, generate_pair
from dtwsi.inference import (
    DegenerateDirectionError,
    RegionMassUnderflowError,
    conditional_test,
    nuisance_decomposition,
    selective_confidence_interval,
    selective_p_value,
    truncated_gaussian_ci,
    truncated_gaussian_sf,
    z2_region,
)
from dtwsi.intervals import IntervalUnion
from dtwsi.parametric import DataLine, envelope_bruteforce, para_dtw, z1_region

INF = math.inf


def random_pair(seed, n=5, m=5):
    rng = np.random.default_rng(seed)
    return TimeSeriesPair(rng.normal(size=n), rng.normal(size=m))


def enumeration_region(pair, line, M_obs, window):
    """Selection region from the brute-force envelope over every alignment.

    Built on the whole line; ``conditional_test`` intersects it with ``window``.
    """
    env = envelope_bruteforce(enumerate_alignments(pair.n, pair.m), line)
    return z1_region(env, M_obs)


def full_line_region(pair, line, M_obs, window):
    """Selection region from the full-line envelope, the windowed engine's oracle."""
    return z1_region(para_dtw(line, pair.n, pair.m), M_obs)


def assert_matches_full_line(pair):
    fast = selective_p_value(pair)
    slow = conditional_test(pair, full_line_region)
    assert fast.p_selective == pytest.approx(slow.p_selective, rel=0, abs=1e-12)
    assert len(fast.region) == len(slow.region)
    for got, want in zip(fast.region, slow.region):
        assert got == pytest.approx(want, rel=1e-12)


def observed_direction(pair):
    M, _ = dtw(pair)
    return M, direction_of(M, sign_vector(M, pair))


class TestNuisanceDecomposition:
    def test_algebraic_identities(self):
        for seed in range(10):
            pair = random_pair(seed)
            M, d = observed_direction(pair)
            line = nuisance_decomposition(pair, d)
            assert float(d.eta @ line.b) == pytest.approx(1.0, abs=1e-10)
            assert float(d.eta @ line.a) == pytest.approx(0.0, abs=1e-10)
            z_obs = float(d.eta @ pair.stacked())
            np.testing.assert_allclose(line.a + line.b * z_obs, pair.stacked(), atol=1e-10)

    def test_identity_covariance_unit_direction(self):
        pair = random_pair(3, n=3, m=2)
        eta = np.zeros(5)
        eta[0] = 1.0
        line = nuisance_decomposition(pair, Direction(eta=eta))
        np.testing.assert_allclose(line.b, eta)
        expected = pair.stacked().copy()
        expected[0] = 0.0
        np.testing.assert_allclose(line.a, expected, atol=1e-12)

    def test_degenerate_direction_raises(self):
        x = np.array([0.4, -1.0, 2.2])
        pair = TimeSeriesPair(x, x.copy())
        M, d = observed_direction(pair)
        assert not d.eta.any()
        with pytest.raises(DegenerateDirectionError, match="degenerate"):
            nuisance_decomposition(pair, d)


class TestZ2Region:
    def test_single_constraint_half_line(self):
        # one cell, sign +1: a-difference -2, b-difference 1 -> z >= 2
        line = DataLine(np.array([-2.0, 0.0]), np.array([1.0, 0.0]), 1)
        M = AlignmentMatrix(1, 1, (((1, 1)),))
        region = z2_region(line, M, np.array([1.0]))
        assert region.intervals == ((2.0, INF),)

    def test_z_free_constraints_give_real_line(self):
        line = DataLine(np.array([3.0, 0.0]), np.array([1.0, 1.0]), 1)
        M = AlignmentMatrix(1, 1, (((1, 1)),))
        assert z2_region(line, M, np.array([1.0])) == IntervalUnion.real_line()

    def test_infeasible_constant_constraint_empty(self):
        line = DataLine(np.array([-1.0, 0.0]), np.array([1.0, 1.0]), 1)
        M = AlignmentMatrix(1, 1, (((1, 1)),))
        assert z2_region(line, M, np.array([1.0])).is_empty

    def test_contains_observed_parameter(self):
        for seed in range(15):
            pair = random_pair(seed, n=4, m=6)
            M, d = observed_direction(pair)
            line = nuisance_decomposition(pair, d)
            z_obs = float(d.eta @ pair.stacked())
            region = z2_region(line, M, sign_vector(M, pair))
            assert region.contains(z_obs, tol=1e-9 * max(1.0, abs(z_obs)))


class TestTruncatedGaussianSf:
    def test_full_line_center(self):
        assert truncated_gaussian_sf(0.0, 1.0, IntervalUnion.real_line()) == pytest.approx(0.5)

    def test_half_line_bottom(self):
        region = IntervalUnion([(0.0, INF)])
        assert truncated_gaussian_sf(0.0, 1.0, region) == pytest.approx(1.0)

    def test_matches_rejection_monte_carlo(self):
        region = IntervalUnion([(-1.0, 1.0), (2.0, 3.0)])
        p = truncated_gaussian_sf(0.5, 1.0, region)
        rng = np.random.default_rng(12345)
        draws = rng.normal(size=10_000_000)
        member = ((draws >= -1.0) & (draws <= 1.0)) | ((draws >= 2.0) & (draws <= 3.0))
        kept = draws[member]
        est = float(np.mean(kept >= 0.5))
        se = math.sqrt(est * (1.0 - est) / kept.size)
        assert abs(p - est) <= 3.0 * se

    def test_monotone_in_observation(self):
        region = IntervalUnion([(-2.0, -1.0), (0.5, 1.5), (3.0, 4.0)])
        zs = [-1.5, 0.6, 1.0, 1.4, 3.2, 3.9]
        ps = [truncated_gaussian_sf(z, 1.3, region) for z in zs]
        assert all(p1 >= p2 - 1e-12 for p1, p2 in zip(ps, ps[1:]))

    def test_high_precision_far_tails(self):
        mpmath = pytest.importorskip("mpmath")
        mp = mpmath.mp
        mp.dps = 50

        def phi_bar(x):
            return mpmath.erfc(x / mpmath.sqrt(2)) / 2

        def exact(z_obs, sigma, intervals):
            num = den = mpmath.mpf(0)
            for lo, hi in intervals:
                lo_s, hi_s = mpmath.mpf(lo) / sigma, mpmath.mpf(hi) / sigma
                den += phi_bar(lo_s) - phi_bar(hi_s)
                lo_n = max(lo, z_obs)
                if lo_n < hi:
                    num += phi_bar(mpmath.mpf(lo_n) / sigma) - phi_bar(hi_s)
            return float(num / den)

        rng = np.random.default_rng(77)
        for _ in range(25):
            sigma = float(rng.uniform(0.5, 2.0))
            edges = np.sort(rng.uniform(-8.0 * sigma, 8.0 * sigma, size=6))
            intervals = [(edges[0], edges[1]), (edges[2], edges[3]), (edges[4], edges[5])]
            region = IntervalUnion(intervals)
            z_obs = float(rng.uniform(*intervals[rng.integers(0, 3)]))
            got = truncated_gaussian_sf(z_obs, sigma, region)
            want = exact(z_obs, sigma, intervals)
            assert got == pytest.approx(want, rel=1e-10, abs=1e-300)

    def test_preconditions(self):
        with pytest.raises(ValueError):
            truncated_gaussian_sf(0.0, 1.0, IntervalUnion.empty())
        with pytest.raises(ValueError):
            truncated_gaussian_sf(5.0, 1.0, IntervalUnion([(0.0, 1.0)]))
        with pytest.raises(ValueError):
            truncated_gaussian_sf(0.5, 0.0, IntervalUnion([(0.0, 1.0)]))

    def test_underflow_raises_with_log_mass(self):
        region = IntervalUnion([(40.0, 41.0)])
        with pytest.raises(RegionMassUnderflowError, match="log-mass"):
            truncated_gaussian_sf(40.5, 1.0, region)


class TestSelectivePValue:
    def test_contract_on_near_identical_series(self):
        rng = np.random.default_rng(21)
        x = np.sin(np.linspace(0, 2, 5))
        pair = TimeSeriesPair(x, x + 1e-8 * rng.normal(size=5))
        res = selective_p_value(pair)
        assert 0.0 <= res.p_selective <= 1.0
        assert res.region.contains(res.z_obs, tol=1e-8)

    def test_engines_agree(self):
        rng = np.random.default_rng(0)
        for seed in range(30):
            n = int(rng.integers(2, 6))
            m = int(rng.integers(2, 6))
            pair = random_pair(seed, n=n, m=m)
            fast = selective_p_value(pair)
            slow = conditional_test(pair, enumeration_region)
            assert fast.p_selective == pytest.approx(slow.p_selective, abs=1e-9)

    def test_windowed_envelope_matches_full_line_at_n30(self):
        # Sizes the enumeration oracle cannot reach, where pruning removes most
        # candidates of every cell.
        for k, delta in enumerate((0.0, 1.5)):
            assert_matches_full_line(
                generate_pair(ExperimentConfig(n=30, m=30, delta=delta, seed=0), k)
            )

    def test_windowed_envelope_matches_full_line_on_near_tie_at_window_start(self):
        # Pair 2052 of the sim-batch benchmark at seed 4: two prefixes nearly
        # tie at the window's lower end, which once lost the observed path.
        config = ExperimentConfig(
            n=10, m=10, delta=0.0, covariance="ar-correlation", trials=1, seed=1764776444
        )
        assert_matches_full_line(generate_pair(config, 0))

    def test_empty_window_builds_no_envelope(self, monkeypatch):
        def fail(*args):
            raise AssertionError("envelope built for an empty window")

        monkeypatch.setattr(inference, "para_dtw", fail)
        pair = random_pair(1)
        M, d = observed_direction(pair)
        line = nuisance_decomposition(pair, d)
        assert inference._envelope_region(pair, line, M, IntervalUnion.empty()).is_empty

    def test_statistic_is_alignment_statistic(self):
        pair = random_pair(99)
        res = selective_p_value(pair)
        want = sum(abs(pair.x[i - 1] - pair.y[j - 1]) for i, j in res.alignment.path)
        assert res.z_obs == pytest.approx(want, abs=1e-10)

    def test_null_rejection_rate_within_binomial_band(self):
        hits = 0
        for t in range(120):
            rng = np.random.default_rng([202, t])
            pair = TimeSeriesPair(rng.normal(size=5), rng.normal(size=5))
            hits += selective_p_value(pair).p_selective <= 0.05
        assert 0.008 <= hits / 120 <= 0.12


class TestConfidenceInterval:
    def test_untruncated_reduction(self):
        z_obs, sigma, alpha = 1.3, 2.0, 0.05
        lo, hi = truncated_gaussian_ci(z_obs, sigma, IntervalUnion.real_line(), alpha)
        half = sigma * ndtri(1.0 - alpha / 2.0)
        assert lo == pytest.approx(z_obs - half, abs=1e-6)
        assert hi == pytest.approx(z_obs + half, abs=1e-6)

    def test_positive_length_and_wrapper(self):
        pair = random_pair(5)
        res = selective_p_value(pair)
        lo, hi = selective_confidence_interval(pair, 0.1, result=res)
        assert hi > lo
        lo2, hi2 = selective_confidence_interval(pair, 0.1)
        assert (lo2, hi2) == (lo, hi)

    def test_nested_in_alpha(self):
        pair = random_pair(6)
        res = selective_p_value(pair)
        lo1, hi1 = truncated_gaussian_ci(res.z_obs, res.sigma, res.region, 0.2)
        lo2, hi2 = truncated_gaussian_ci(res.z_obs, res.sigma, res.region, 0.05)
        assert lo2 <= lo1 and hi1 <= hi2

    def test_coverage_on_simulated_truncated_draws(self):
        region = IntervalUnion([(-1.5, 0.5), (1.0, 4.0)])
        theta, sigma, alpha = 0.8, 1.0, 0.05
        rng = np.random.default_rng(404)
        covered = 0
        reps = 500
        for _ in range(reps):
            while True:
                z = float(rng.normal(theta, sigma))
                if region.contains(z):
                    break
            lo, hi = truncated_gaussian_ci(z, sigma, region, alpha)
            covered += lo <= theta <= hi
        assert 0.90 <= covered / reps <= 0.99

    def test_alpha_validation(self):
        with pytest.raises(ValueError):
            truncated_gaussian_ci(0.0, 1.0, IntervalUnion.real_line(), 1.5)


def rescaled_pair(c):
    """The n=m=12 pair from ``default_rng(1)`` mapped to ``(cx, cy, c^2 I)``."""
    rng = np.random.default_rng(1)
    x, y = rng.normal(size=12), rng.normal(size=12)
    cov = c * c * np.eye(12)
    return TimeSeriesPair(c * x, c * y, cov, cov)


class TestRescaling:
    """Both exact p-values are invariant under ``(x, y, Sigma) -> (cx, cy, c^2 Sigma)``."""

    @pytest.mark.parametrize("c", [1e-4, 1e4, 1e8])
    def test_si_dtw_is_scale_free(self, c):
        want = selective_p_value(rescaled_pair(1.0)).p_selective
        assert want == pytest.approx(0.2910983813454969, rel=0, abs=1e-15)
        got = selective_p_value(rescaled_pair(c)).p_selective
        assert got == pytest.approx(want, rel=0, abs=1e-12)

    @pytest.mark.xfail(
        strict=True,
        raises=RuntimeError,
        reason="absolute envelope tolerances lose the observed path at c=1e-6",
    )
    def test_si_dtw_at_small_scale(self):
        want = selective_p_value(rescaled_pair(1.0)).p_selective
        got = selective_p_value(rescaled_pair(1e-6)).p_selective
        assert got == pytest.approx(want, rel=0, abs=1e-9)

    @pytest.mark.xfail(
        strict=True,
        raises=RuntimeError,
        reason="absolute curvature snap and containment slack drop z_obs at c=1e6",
    )
    def test_si_dtw_oc_at_large_scale(self):
        want = si_dtw_oc_p_value(rescaled_pair(1.0)).p_selective
        got = si_dtw_oc_p_value(rescaled_pair(1e6)).p_selective
        assert got == pytest.approx(want, rel=0, abs=1e-9)
