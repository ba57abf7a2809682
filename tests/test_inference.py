"""Tests for the conditional inference layer."""

import math
import signal
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import ndtri

from dtwsi import inference, parametric
from dtwsi.baselines import si_dtw_oc_p_value
from dtwsi.dtw_core import (
    AlignmentMatrix,
    TimeSeriesPair,
    _accumulated_cost,
    bellman_predecessor,
    cost_matrix,
    dtw,
    enumerate_alignments,
    sign_vector,
)
from dtwsi.dtw_core import TestDirection as Direction
from dtwsi.dtw_core import test_direction as direction_of
from dtwsi.harness import ExperimentConfig, generate_pair
from dtwsi.inference import (
    DegenerateDirectionError,
    RegionMassUnderflowError,
    SelectionEventError,
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
from dense_views import omega_matrix, path_vec, scatter_path
import oracles

INF = math.inf


def log_region_mass(intervals, mean, sigma):
    """The tail's log-mass of ``N(mean, sigma^2)`` on ``intervals``: a sum of piece masses."""
    return inference._log_sum_exp(
        [inference._log_mass_standard((lo - mean) / sigma, (hi - mean) / sigma) for lo, hi in intervals]
    )


def mpmath_sf(z_obs, sigma, intervals):
    """``P(Z >= z_obs | Z in intervals)``, ``Z ~ N(0, sigma^2)``, at 50 digits, as a float."""
    mpmath = pytest.importorskip("mpmath")

    def phi_bar(x):
        return mpmath.erfc(x / mpmath.sqrt(2)) / 2

    with mpmath.workdps(50):
        num = den = mpmath.mpf(0)
        for lo, hi in intervals:
            hi_s = mpmath.mpf(hi) / sigma
            den += phi_bar(mpmath.mpf(lo) / sigma) - phi_bar(hi_s)
            if max(lo, z_obs) < hi:
                num += phi_bar(mpmath.mpf(max(lo, z_obs)) / sigma) - phi_bar(hi_s)
        return float(num / den)


def random_pair(seed, n=5, m=5):
    rng = np.random.default_rng(seed)
    return TimeSeriesPair(rng.normal(size=n), rng.normal(size=m))


def enumeration_region(cond):
    """Selection region from the brute-force envelope over every alignment.

    Built on the whole line; ``conditional_test`` intersects it with the window.
    """
    line = cond.line
    env = envelope_bruteforce(enumerate_alignments(line.n, line.m), line)
    return z1_region(env, cond.alignment)


def full_line_region(cond):
    """Selection region from the full-line envelope, the windowed engine's oracle."""
    line = cond.line
    return z1_region(para_dtw(line, line.n, line.m), cond.alignment)


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


def rounded_pair(seed):
    """The n=m=20 pair from ``default_rng(seed)``, rounded to 0.1; rounding makes ties."""
    rng = np.random.default_rng(seed)
    x, y = rng.normal(size=20), rng.normal(size=20)
    return TimeSeriesPair(np.round(x, 1), np.round(y, 1))


def dense_z2_window(line, M, s):
    """The paper's sign-preserving window, written over all ``n*m`` cells.

    ``s`` is scattered into the row-major layout; off-path cells carry zero.
    """
    omega = omega_matrix(M.n, M.m)
    signed = scatter_path(M, s) * path_vec(M)
    nu1, nu2 = signed * (omega @ line.a), signed * (omega @ line.b)
    if np.any((nu2 == 0.0) & (nu1 < 0.0)):
        return IntervalUnion.empty()
    pos, neg = nu2 > 0.0, nu2 < 0.0
    lo = float(np.max(-nu1[pos] / nu2[pos])) if pos.any() else -INF
    hi = float(np.min(-nu1[neg] / nu2[neg])) if neg.any() else INF
    return IntervalUnion.empty() if lo > hi else IntervalUnion([(lo, hi)])


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

    def test_matches_dense_formula(self):
        rng = np.random.default_rng(21)
        zero_signs = 0
        for k in range(60):
            n, m = rng.integers(2, 8, size=2)
            x, y = rng.normal(size=n), rng.normal(size=m)
            if k % 2 == 0:
                x, y = np.round(x), np.round(y)
            pair = TimeSeriesPair(x, y)
            M, d = observed_direction(pair)
            if not d.eta.any():
                continue
            s = sign_vector(M, pair)
            zero_signs += (s == 0.0).any()
            line = nuisance_decomposition(pair, d)
            # random lines too, so that the window is often bounded on both sides
            for probe in (line, DataLine(rng.normal(size=n + m), rng.normal(size=n + m), n)):
                assert z2_region(probe, M, s).intervals == dense_z2_window(probe, M, s).intervals
        assert zero_signs >= 5


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
        rng = np.random.default_rng(77)
        for _ in range(25):
            sigma = float(rng.uniform(0.5, 2.0))
            edges = np.sort(rng.uniform(-8.0 * sigma, 8.0 * sigma, size=6))
            intervals = [(edges[0], edges[1]), (edges[2], edges[3]), (edges[4], edges[5])]
            region = IntervalUnion(intervals)
            z_obs = float(rng.uniform(*intervals[rng.integers(0, 3)]))
            got = truncated_gaussian_sf(z_obs, sigma, region)
            want = mpmath_sf(z_obs, sigma, intervals)
            assert got == pytest.approx(want, rel=1e-10, abs=1e-300)

    @pytest.mark.parametrize("sigma", [1.0, 0.7])
    @pytest.mark.parametrize(
        "pieces, z_obs",
        [
            ([(40.0, 41.0)], 40.5),  # log-mass about -805
            ([(298.0, 299.5), (300.0, 300.25), (301.0, 305.0)], 300.1),  # about -44,400
        ],
    )
    def test_regions_beyond_exp_underflow(self, pieces, z_obs, sigma):
        # the masses underflow as floats but not as log-masses, and the
        # log-space tail keeps its relative accuracy there
        intervals = [(lo * sigma, hi * sigma) for lo, hi in pieces]
        region = IntervalUnion(intervals)
        assert log_region_mass(region.intervals, 0.0, sigma) < -800.0
        got = truncated_gaussian_sf(z_obs * sigma, sigma, region)
        assert 0.0 < got < 1.0
        assert got == pytest.approx(mpmath_sf(z_obs * sigma, sigma, intervals), rel=1e-10)

    def test_zero_width_region_raises(self):
        # wider than zero, but narrower than any change of the tail
        # log-probabilities, so its log-mass is -inf at every mean
        region = IntervalUnion([(0.0, 1e-300)])
        assert log_region_mass(region.intervals, 0.0, 1.0) == -INF
        with pytest.raises(RegionMassUnderflowError, match="no representable mass"):
            truncated_gaussian_sf(5e-301, 1.0, region)
        with pytest.raises(RegionMassUnderflowError, match="no representable mass"):
            truncated_gaussian_sf(1.0, 1.0, IntervalUnion([(1.0, 1.0)]))
        with pytest.raises(RegionMassUnderflowError, match="no representable mass"):
            truncated_gaussian_ci(5e-301, 1.0, region, 0.05)

    def test_pieces_beyond_tail_underflow_carry_no_mass(self):
        # log_ndtr of both ends is -inf this far out: the piece's log-mass is
        # -inf, not the NaN of -inf - (-inf), and no warning is raised
        far = (1e200, 2e200)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert inference._log_mass_standard(*far) == -INF
            with pytest.raises(RegionMassUnderflowError, match="no representable mass"):
                truncated_gaussian_sf(1.5e200, 1.0, IntervalUnion([far]))
            assert truncated_gaussian_sf(1.5e200, 1.0, IntervalUnion([(-1.0, 1.0), far])) == 0.0
            # several such pieces: the log-sum-exp has no finite term
            pieces = IntervalUnion([far, (3e200, 4e200)])
            assert log_region_mass(pieces.intervals, 0.0, 1.0) == -INF
            with pytest.raises(RegionMassUnderflowError, match="no representable mass"):
                truncated_gaussian_sf(1.5e200, 1.0, pieces)

    def test_preconditions(self):
        with pytest.raises(ValueError):
            truncated_gaussian_sf(0.0, 1.0, IntervalUnion.empty())
        with pytest.raises(ValueError):
            truncated_gaussian_sf(5.0, 1.0, IntervalUnion([(0.0, 1.0)]))
        with pytest.raises(ValueError):
            truncated_gaussian_sf(0.5, 0.0, IntervalUnion([(0.0, 1.0)]))

    @pytest.mark.parametrize(
        "call",
        [truncated_gaussian_sf, lambda z, s, r: truncated_gaussian_ci(z, s, r, 0.05)],
        ids=["sf", "ci"],
    )
    @pytest.mark.parametrize(
        "sigma, z_obs, pieces, match",
        [(sigma, 0.5, [(-1.0, 2.0)], "^sigma=") for sigma in (0.0, -1.0, math.nan, INF)]
        + [(1.0, z, [(-1.0, 2.0)], "^z_obs=") for z in (-5.0, 5.0, math.nan, -INF, INF)]
        + [(1.0, 0.5, [], "empty")],
    )
    def test_one_gate_for_p_value_and_bounds(self, call, sigma, z_obs, pieces, match):
        # sigma finite and positive, z_obs in the region: checked once, before any tail
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=match):
                call(z_obs, sigma, IntervalUnion(pieces))

    @pytest.mark.parametrize("trial", [9, 16, 48, 54])
    def test_shifted_pairs_far_out_in_their_tails(self, trial):
        # delta = 20: the over-conditioned regions of these pairs lie about
        # 44 sigma out, with log-masses from -880 to -1012
        pair = generate_pair(ExperimentConfig(n=10, m=10, delta=20.0, seed=1, trials=60), trial)
        res = si_dtw_oc_p_value(pair)
        assert log_region_mass(res.region.intervals, 0.0, res.sigma) < -800.0
        want = mpmath_sf(res.z_obs, res.sigma, res.region)
        assert res.p_selective == pytest.approx(want, rel=1e-10)


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

        monkeypatch.setattr(parametric, "para_dtw", fail)
        pair = random_pair(1)
        M, d = observed_direction(pair)
        line = nuisance_decomposition(pair, d)
        t_obs = float(d.eta @ pair.stacked())
        assert parametric.si_dtw_region(line, M, IntervalUnion.empty(), t_obs).is_empty

    def test_builder_receives_unit_line_and_statistic(self):
        pair = generate_pair(ExperimentConfig(n=8, m=7, covariance="ar-correlation", seed=4), 0)
        calls = []

        def recording(cond):
            calls.append(cond)
            return IntervalUnion.real_line()

        res = conditional_test(pair, recording)
        (cond,) = calls
        line, M_obs, window, t_obs = cond.line, cond.alignment, cond.window, cond.z_obs / cond.scale
        scale = inference._unit_scale(res.sigma)
        assert t_obs * scale == res.z_obs
        M, d = observed_direction(pair)
        assert M_obs == M == res.alignment
        data_line = nuisance_decomposition(pair, d)
        assert np.array_equal(line.a * scale, data_line.a)
        assert np.array_equal(line.b, data_line.b)
        assert window == z2_region(line, M, sign_vector(M, pair))
        # the pair's Bellman table, bit for bit, and M_obs is its traceback
        want = _accumulated_cost(cost_matrix(pair).tolist())
        assert [[v.hex() for v in row] for row in cond.table] == [
            [v.hex() for v in row] for row in want
        ]
        cell, traced = (pair.n - 1, pair.m - 1), [(pair.n, pair.m)]
        while cell != (0, 0):
            cell = bellman_predecessor(cond.table, *cell)
            traced.append((cell[0] + 1, cell[1] + 1))
        assert tuple(reversed(traced)) == M.path

    def test_envelope_builder_reads_only_its_arguments(self):
        pair = random_pair(3, n=6, m=6)
        want = selective_p_value(pair)
        scale = inference._unit_scale(want.sigma)
        M, d = observed_direction(pair)
        data_line = nuisance_decomposition(pair, d)
        line = DataLine(data_line.a / scale, data_line.b, pair.n)
        window = z2_region(line, M, sign_vector(M, pair))

        # the builder's module cannot recompute the observed quantities
        for name in ("sign_vector", "test_direction", "test_statistic"):
            assert not hasattr(parametric, name)
        got = parametric.si_dtw_region(line, M, window, want.z_obs / scale)
        assert IntervalUnion((lo * scale, hi * scale) for lo, hi in got.intersect(window)) == want.region

    def test_exact_tie_on_rounded_data_keeps_observed_path(self):
        # Rounded to one decimal, two paths differ only by a cell whose cost
        # vanishes along the whole data line; the envelope must carry the
        # one Bellman's tie-break picks.
        rng = np.random.default_rng(10056)
        x, y = rng.normal(size=20), rng.normal(size=20)
        res = selective_p_value(TimeSeriesPair(np.round(x, 1), np.round(y, 1)))
        assert res.region.contains(res.z_obs)

    def test_identical_loss_twin_keeps_region(self):
        # Rounded to integers, M_obs has a twin with the same loss quadratic.
        # The envelope built on the witness hull carries the twin; counting its
        # segments as M_obs's keeps the region of the window-only engine.
        rng = np.random.default_rng(10018)
        x, y = rng.normal(size=20), rng.normal(size=20)
        res = selective_p_value(TimeSeriesPair(np.round(x), np.round(y)))
        assert res.p_selective == 0.0
        ((lo, hi),) = res.region.intervals
        assert lo == pytest.approx(6.0, rel=1e-12) and hi == pytest.approx(15.0, rel=1e-12)

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


class TestSelectionEventError:
    """Data on a tie of the selection event give a typed error, not an internal one."""

    @pytest.mark.parametrize(
        "seed, test",
        [(10023, selective_p_value), (10023, si_dtw_oc_p_value), (10002, si_dtw_oc_p_value)],
    )
    def test_zero_width_event_on_rounded_data(self, seed, test):
        with pytest.raises(SelectionEventError, match="tie of the selection event"):
            test(rounded_pair(seed))


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

    @pytest.mark.parametrize(
        "z_obs, where",
        [(1.0, "lower"), (1.0 - 1e-12, "lower"), (4.0, "upper"), (4.0 + 1e-12, "upper")],
    )
    def test_constant_tail_fails_before_any_tail_evaluation(self, monkeypatch, z_obs, where):
        def fail(*args):
            raise AssertionError("tail evaluated")

        monkeypatch.setattr(inference, "_log_mass_standard", fail)
        region = IntervalUnion([(1.0, 2.0), (3.0, 4.0)])
        with pytest.raises(ArithmeticError, match=f"{where} end.*same for every mean"):
            truncated_gaussian_ci(z_obs, 1.0, region, 0.05)
        # the patched helper is the one the tail evaluates
        with pytest.raises(AssertionError, match="tail evaluated"):
            truncated_gaussian_ci(1.5, 1.0, region, 0.05)

    @pytest.mark.parametrize(
        "pieces, z_obs, per_mean",
        [
            ([(-1.0, 3.0)], 0.5, 2),
            ([(-1.0, 0.0), (0.25, 3.0)], -0.5, 3),
            ([(-1.0, 0.0), (0.25, 3.0)], 0.5, 3),
        ],
        ids=["one-piece", "two-piece-z-in-lower", "two-piece-z-in-upper"],
    )
    def test_each_piece_mass_once_per_mean(self, monkeypatch, pieces, z_obs, per_mean):
        # Every tail takes each piece's mass once and the mass of the piece
        # that z_obs clips: a piece wholly above z_obs shares its mass between
        # the region and the part above z_obs.  Masses that split at 0 and
        # call themselves count once.
        evaluations, masses, nested = [], [], []
        tail, mass = inference._tail, inference._log_mass_standard

        def counting_tail(*args):
            evaluate = tail(*args)

            def counted(mean):
                evaluations.append(mean)
                return evaluate(mean)

            return counted

        def counting_mass(lo, hi):
            if not nested:
                masses.append((lo, hi))
            nested.append(None)
            try:
                return mass(lo, hi)
            finally:
                nested.pop()

        monkeypatch.setattr(inference, "_tail", counting_tail)
        monkeypatch.setattr(inference, "_log_mass_standard", counting_mass)
        truncated_gaussian_ci(z_obs, 1.0, IntervalUnion(pieces), 0.05)
        assert len(masses) == per_mean * len(evaluations)
        assert {z_obs - 2.0, z_obs + 2.0} <= set(evaluations)
        assert len(evaluations) > 40

    def test_bisection_ends_where_floats_are_coarser_than_its_stop(self):
        # A sim-batch trial (seed 37, trial 5074): z_obs lies 3e-8 sigma below
        # the region's upper end, so the upper bound is 6.7e7 sigma out, where
        # adjacent floats are 6.0e-8 apart, more than the 1e-8 sigma stop
        # (5.0e-8).  The bisection used to loop there for ever.
        ends = (float.fromhex("0x1.916871950be24p+2"), float.fromhex("0x1.acaf993ef2216p+2"))
        region = IntervalUnion([ends])
        z_obs, sigma = float.fromhex("0x1.acaf989d72a6fp+2"), float.fromhex("0x1.3f0c701bce5d3p+2")

        def hang(signum, frame):
            raise TimeoutError("the bisection did not end")

        previous = signal.signal(signal.SIGALRM, hang)
        signal.alarm(20)
        try:
            lo, hi = truncated_gaussian_ci(z_obs, sigma, region, 0.05)
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        assert z_obs < lo < hi and 6e7 < (hi - z_obs) / sigma < 7e7
        # the tail crosses 0.975 between hi and the float below it
        tail = inference._tail(region, z_obs, sigma)
        assert tail(math.nextafter(hi, -INF)) < 0.975 <= tail(hi)

    def test_statistic_at_lower_end_of_region(self):
        # si-dtw gives p = 1 on [14.7, 15.56] with z_obs a roundoff below
        # 14.7: no mean moves the tail
        pair = rounded_pair(10020)
        res = selective_p_value(pair)
        assert res.p_selective == 1.0 and res.z_obs <= res.region.intervals[0][0]
        with pytest.raises(ArithmeticError, match="same for every mean"):
            selective_confidence_interval(pair, 0.05, result=res)


ORACLE_REGIONS = [
    [(-1.0, 2.0)],
    [(0.5, math.inf)],
    [(-math.inf, -0.25)],
    [(36.0, 44.0)],
    [(-3.0, -1.0), (0.5, 2.5)],
    [(-2.0, 2.0), (38.0, math.inf)],
    [(-math.inf, -4.0), (-1.0, 1.0), (3.0, 3.5)],
    [(-41.0, -39.5), (-0.5, 0.5), (39.0, 40.0)],
]


def inner_points(lo, hi):
    """Points near the left end, in the middle and near the right end of a piece."""
    lo, hi = (lo, min(hi, lo + 8.0)) if math.isfinite(lo) else (hi - 8.0, hi)
    return [lo + 0.05 * (hi - lo), 0.5 * lo + 0.5 * hi, hi - 0.05 * (hi - lo)]


def oracle_pairs():
    """sim-batch-like pairs (n=m=10, AR covariance) and 0.1-rounded random pairs."""
    for k in range(24):
        config = ExperimentConfig(
            n=10, m=10, delta=(0.0, 2.0)[k % 2], covariance="ar-correlation", seed=9
        )
        yield generate_pair(config, k)
    rng = np.random.default_rng(41)
    for _ in range(16):
        n, m = (int(v) for v in rng.integers(2, 12, size=2))
        yield TimeSeriesPair(np.round(rng.normal(size=n), 1), np.round(rng.normal(size=m), 1))


class TestIntervalOracle:
    """The tail and the bisection match the one-frame-per-step solve bit for bit."""

    @pytest.mark.parametrize("pieces", ORACLE_REGIONS)
    @pytest.mark.parametrize("sigma", [1.0, 0.3])
    def test_region_mass_at_means_around_every_piece(self, pieces, sigma):
        region = IntervalUnion(pieces)
        means = [-40.0 * sigma, 40.0 * sigma]
        for lo, hi in pieces:
            means += inner_points(lo, hi)
            means += [v for v in (lo - 3.0 * sigma, hi + 3.0 * sigma) if math.isfinite(v)]
        for mean in means:
            got = log_region_mass(region.intervals, mean, sigma)
            assert float(got).hex() == float(oracles.log_region_mass(region, mean, sigma)).hex()

    @pytest.mark.parametrize("pieces", ORACLE_REGIONS)
    @pytest.mark.parametrize("sigma", [1.0, 0.3])
    def test_bounds_for_statistics_across_every_piece(self, pieces, sigma):
        region = IntervalUnion(pieces)
        for lo, hi in pieces:
            for z_obs in inner_points(lo, hi):
                for alpha in (0.05, 0.5):
                    args = (z_obs, sigma, region, alpha)
                    want = oracles.hex_outcome(oracles.truncated_gaussian_ci, *args)
                    assert oracles.hex_outcome(truncated_gaussian_ci, *args) == want
                args = (z_obs, sigma, region)
                want = oracles.hex_outcome(oracles.truncated_gaussian_sf, *args)
                assert oracles.hex_outcome(truncated_gaussian_sf, *args) == want

    def test_statistic_within_roundoff_of_an_end(self):
        outcomes = set()
        for pieces in ORACLE_REGIONS:
            region = IntervalUnion(pieces)
            for end in [v for piece in pieces for v in piece if math.isfinite(v)]:
                for z_obs in (end - 1e-12, np.nextafter(end, -math.inf), end,
                              np.nextafter(end, math.inf), end + 1e-12):
                    args = (float(z_obs), 1.0, region, 0.05)
                    want = oracles.hex_outcome(oracles.truncated_gaussian_ci, *args)
                    assert oracles.hex_outcome(truncated_gaussian_ci, *args) == want
                    failed = isinstance(want, tuple)
                    outcomes.add(want[1].split(":")[0].split(" within")[0] if failed else "bounds")
        assert outcomes == {"bounds", "no confidence bound", "confidence bound bracket failed"}

    @pytest.mark.parametrize("test", [selective_p_value, si_dtw_oc_p_value])
    def test_regions_of_simulated_pairs(self, test):
        solved = 0
        for pair in oracle_pairs():
            try:
                res = test(pair)
            except (ArithmeticError, ValueError):
                continue
            for alpha in (0.05, 0.2):
                args = (res.z_obs, res.sigma, res.region, alpha)
                want = oracles.hex_outcome(oracles.truncated_gaussian_ci, *args)
                assert oracles.hex_outcome(truncated_gaussian_ci, *args) == want
                solved += not isinstance(want, tuple)
            want = oracles.truncated_gaussian_sf(res.z_obs, res.sigma, res.region)
            assert res.p_selective.hex() == want.hex()
        assert solved >= 40


def rescaled_pair(c, seed=1):
    """The n=m=12 pair from ``default_rng(seed)`` mapped to ``(cx, cy, c^2 I)``."""
    rng = np.random.default_rng(seed)
    x, y = rng.normal(size=12), rng.normal(size=12)
    cov = c * c * np.eye(12)
    return TimeSeriesPair(c * x, c * y, cov, cov)


EXACT_TESTS = [selective_p_value, si_dtw_oc_p_value]
SEEDS = st.integers(0, 2**16)


class TestRescaling:
    """Both exact p-values are invariant under ``(x, y, Sigma) -> (cx, cy, c^2 Sigma)``."""

    @pytest.mark.parametrize("c", [1e-4, 1e4, 1e8])
    def test_si_dtw_is_scale_free(self, c):
        want = selective_p_value(rescaled_pair(1.0)).p_selective
        assert want == pytest.approx(0.2910983813454969, rel=0, abs=1e-15)
        got = selective_p_value(rescaled_pair(c)).p_selective
        assert got == pytest.approx(want, rel=0, abs=1e-12)

    def test_si_dtw_at_small_scale(self):
        want = selective_p_value(rescaled_pair(1.0)).p_selective
        got = selective_p_value(rescaled_pair(1e-6)).p_selective
        assert got == pytest.approx(want, rel=0, abs=1e-9)

    def test_si_dtw_oc_at_large_scale(self):
        want = si_dtw_oc_p_value(rescaled_pair(1.0)).p_selective
        got = si_dtw_oc_p_value(rescaled_pair(1e6)).p_selective
        assert got == pytest.approx(want, rel=0, abs=1e-9)

    @pytest.mark.parametrize("test", EXACT_TESTS)
    def test_at_tiny_scale(self, test):
        want = test(rescaled_pair(1.0)).p_selective
        got = test(rescaled_pair(1e-8)).p_selective
        assert got == pytest.approx(want, rel=0, abs=1e-9)

    @pytest.mark.xfail(
        strict=True,
        raises=AssertionError,
        reason="exactly tangent concave constraints have a discriminant of about "
        "+-1e-19, so roundoff decides whether they punch a hole about 1e-7 sigma wide",
    )
    def test_si_dtw_oc_at_tangent_constraints(self):
        want = si_dtw_oc_p_value(rescaled_pair(1.0)).p_selective
        got = si_dtw_oc_p_value(rescaled_pair(1e4)).p_selective
        assert got == pytest.approx(want, rel=0, abs=1e-9)

    @settings(max_examples=30)
    @given(seed=SEEDS, k=st.integers(-40, 40))
    def test_power_of_two_scaling_is_exact(self, seed, k):
        c = math.ldexp(1.0, k)
        for test in EXACT_TESTS:
            want = test(rescaled_pair(1.0, seed))
            got = test(rescaled_pair(c, seed))
            assert got.p_selective == want.p_selective
            assert got.region.intervals == tuple((lo * c, hi * c) for lo, hi in want.region)

    @settings(max_examples=30)
    @given(seed=SEEDS, decades=st.floats(-8.0, 8.0))
    def test_si_dtw_is_scale_free_over_sixteen_decades(self, seed, decades):
        want = selective_p_value(rescaled_pair(1.0, seed)).p_selective
        got = selective_p_value(rescaled_pair(10.0**decades, seed)).p_selective
        assert got == pytest.approx(want, rel=0, abs=1e-12)

    @settings(max_examples=30)
    @given(seed=SEEDS, shift=st.floats(-1e8, 1e8))
    def test_si_dtw_under_common_shift(self, seed, shift):
        pair = rescaled_pair(1.0, seed)
        want = selective_p_value(pair)
        shifted = TimeSeriesPair(pair.x + shift, pair.y + shift)
        got = selective_p_value(shifted)
        # Rounding moves each shifted value by at most half its ulp, and the
        # p-value has a bounded slope in the data, in sigma units.  Over 300
        # random pairs and shifts the factor below stayed under 4e3.
        ulp = math.ulp(max(np.abs(shifted.x).max(), np.abs(shifted.y).max()))
        assert abs(got.p_selective - want.p_selective) <= 1e5 * ulp / want.sigma
