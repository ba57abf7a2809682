"""Tests for losses and envelopes along the data line."""

import math

import numpy as np
import pytest

from dtwsi.dtw_core import TimeSeriesPair, cost_matrix, dtw, enumerate_alignments
from dtwsi.intervals import IntervalUnion
from dtwsi.parametric import (
    DataLine,
    PiecewiseEnvelope,
    QuadraticLoss,
    _walk_envelope,
    cell_terms,
    envelope_bruteforce,
    para_dtw,
    quadratic_loss,
    z1_region,
)


def random_line(rng, n, m, scale=1.0):
    return DataLine(rng.normal(size=n + m), scale * rng.normal(size=n + m), n)


def pointwise_min(alignments, line, z):
    return min(quadratic_loss(M, line)(z) for M in alignments)


def sample_grid(env, count):
    finite = [b for b in env.breakpoints if math.isfinite(b)]
    lo = min(finite) - 5.0 if finite else -10.0
    hi = max(finite) + 5.0 if finite else 10.0
    return np.linspace(lo, hi, count)


class TestQuadraticLoss:
    def test_constant_line(self):
        rng = np.random.default_rng(0)
        a = rng.normal(size=6)
        line = DataLine(a, np.zeros(6), 3)
        M, _ = dtw(TimeSeriesPair(a[:3], a[3:]))
        q = quadratic_loss(M, line)
        assert q.w1 == 0.0 and q.w2 == 0.0
        static = float((M.matrix() * cost_matrix(TimeSeriesPair(a[:3], a[3:]))).sum())
        assert q.w0 == pytest.approx(static, rel=1e-12)

    def test_single_cell_hand_expansion(self):
        line = DataLine(np.array([0.0, 0.0]), np.array([1.0, -1.0]), 1)
        M = dtw(TimeSeriesPair([0.0], [0.0]))[0]
        q = quadratic_loss(M, line)
        assert q.coefficients() == (0.0, 0.0, 4.0)

    def test_evaluation_oracle(self):
        rng = np.random.default_rng(1)
        line = random_line(rng, 4, 5)
        for M in enumerate_alignments(4, 5)[::17]:
            q = quadratic_loss(M, line)
            for z in rng.uniform(-5, 5, size=100):
                pair = TimeSeriesPair(line.a1 + line.b1 * z, line.a2 + line.b2 * z)
                direct = float((M.matrix() * cost_matrix(pair)).sum())
                assert abs(q(z) - direct) < 1e-9 * max(1.0, direct)

    def test_negative_curvature_rejected(self):
        with pytest.raises(ValueError):
            QuadraticLoss(0.0, 0.0, -1e-3)

    def test_dimension_check(self):
        line = DataLine(np.zeros(5), np.zeros(5), 2)
        M = dtw(TimeSeriesPair([0.0, 1.0], [0.0, 1.0]))[0]
        with pytest.raises(ValueError):
            quadratic_loss(M, line)


class TestEnvelopeWalk:
    def test_two_parabolas_crossing_twice(self):
        # z^2 versus the constant 4: crossings at exactly -2 and 2
        cands = [("flat", 4.0, 0.0, 0.0), ("bowl", 0.0, 0.0, 1.0)]
        bps, order = _walk_envelope(cands)
        assert [cands[k][0] for k in order] == ["flat", "bowl", "flat"]
        assert bps[1] == pytest.approx(-2.0, abs=1e-12)
        assert bps[2] == pytest.approx(2.0, abs=1e-12)

    def test_tangent_parabolas_do_not_cross(self):
        cands = [("low", 0.0, 0.0, 1.0), ("touch", 1e-14, 0.0, 1.0)]
        bps, order = _walk_envelope(cands)
        assert len(order) == 1
        assert cands[order[0]][0] == "low"

    def test_triple_crossing_at_common_point(self):
        # 1, 2 - z, and 3z^2 - 2z all pass through (1, 1).  The parabola dips
        # below the constant on (-1/3, 1); at the shared point z = 1 both
        # lines cross it, and the steeper descent (slope -1) must win.
        cands = [("a", 1.0, 0.0, 0.0), ("b", 2.0, -1.0, 0.0), ("c", 0.0, -2.0, 3.0)]
        bps, order = _walk_envelope(cands)
        assert [cands[k][0] for k in order] == ["a", "c", "b"]
        assert bps[1] == pytest.approx(-1.0 / 3.0, abs=1e-12)
        assert bps[2] == pytest.approx(1.0, abs=1e-12)

    def test_window_clips_walk(self):
        # z^2 versus the constant 4 on windows: the bowl wins on (-2, 2)
        cands = [("flat", 4.0, 0.0, 0.0), ("bowl", 0.0, 0.0, 1.0)]
        bps, order = _walk_envelope(cands, 0.0, 5.0)
        assert [cands[k][0] for k in order] == ["bowl", "flat"]
        assert bps == [0.0, pytest.approx(2.0, abs=1e-12), 5.0]
        # unbounded above: the walk must stop, not run out of iterations
        bps, order = _walk_envelope(cands, 0.0, math.inf)
        assert [cands[k][0] for k in order] == ["bowl", "flat"]
        assert bps[-1] == math.inf
        bps, order = _walk_envelope(cands, -math.inf, -3.0)
        assert [cands[k][0] for k in order] == ["flat"] and bps == [-math.inf, -3.0]
        # a trailing sliver is absorbed by the segment before it
        bps, order = _walk_envelope(cands, 0.0, 2.0 + 1e-13)
        assert [cands[k][0] for k in order] == ["bowl"] and bps == [0.0, 2.0 + 1e-13]
        # a point window keeps its single segment
        bps, order = _walk_envelope(cands, 1.0, 1.0)
        assert [cands[k][0] for k in order] == ["bowl"] and bps == [1.0, 1.0]

    def test_window_start_survives_near_tie_at_lo(self):
        # From a sim-batch pair: "extra" is "base" plus one cell whose cost
        # vanishes at z = 12.3913, just inside the window, so it touches
        # "base" from above there.  At lo the two differ by 7e-9, within the
        # walk's value band, and "extra" descends faster; picking it at lo
        # would never be undone, since touching is not crossing.
        cands = [
            ("base", 10.202083468695054, -0.6324215080788926, 0.12778976626268523),
            ("extra", 10.606388293021357, -0.6976776070323891, 0.13042290232390108),
        ]
        window = (12.389699272956635, 20.159893555691543)
        bps, order = _walk_envelope(cands, *window)
        assert [cands[k][0] for k in order] == ["base"] and bps == list(window)


class TestEnvelopeBruteforce:
    def test_single_candidate(self):
        line = DataLine(np.zeros(2), np.ones(2), 1)
        M = dtw(TimeSeriesPair([0.0], [0.0]))[0]
        env = envelope_bruteforce([M], line)
        assert len(env.segments) == 1
        assert env.breakpoints == (-math.inf, math.inf)

    def test_empty_candidates_rejected(self):
        line = DataLine(np.zeros(2), np.ones(2), 1)
        with pytest.raises(ValueError):
            envelope_bruteforce([], line)

    def test_pointwise_minimum(self):
        rng = np.random.default_rng(2)
        alignments = enumerate_alignments(3, 3)
        line = random_line(rng, 3, 3)
        env = envelope_bruteforce(alignments, line)
        for z in sample_grid(env, 200):
            assert env.value(z) == pytest.approx(
                pointwise_min(alignments, line, z), rel=1e-8, abs=1e-10
            )

    def test_adjacent_segments_agree_at_breakpoints(self):
        rng = np.random.default_rng(3)
        line = random_line(rng, 4, 3)
        env = envelope_bruteforce(enumerate_alignments(4, 3), line)
        for k in range(1, len(env.segments)):
            b = env.breakpoints[k]
            left = env.segments[k - 1][1](b)
            right = env.segments[k][1](b)
            assert abs(left - right) < 1e-8 * max(1.0, abs(left))


class TestParaDtw:
    def test_single_cell(self):
        line = DataLine(np.array([0.3, -0.1]), np.array([1.0, 0.5]), 1)
        env = para_dtw(line, 1, 1)
        assert len(env.segments) == 1
        assert env.segments[0][0].path == ((1, 1),)

    def test_matches_bruteforce_pointwise(self):
        for seed in range(15):
            rng = np.random.default_rng(seed)
            n = int(rng.integers(2, 5))
            m = int(rng.integers(2, 5))
            line = random_line(rng, n, m)
            env = para_dtw(line, n, m)
            alignments = enumerate_alignments(n, m)
            for z in sample_grid(env, 100):
                assert env.value(z) == pytest.approx(
                    pointwise_min(alignments, line, z), rel=1e-8, abs=1e-10
                )

    def test_matches_bruteforce_breakpoints(self):
        rng = np.random.default_rng(4)
        line = random_line(rng, 4, 4)
        env = para_dtw(line, 4, 4)
        env_bf = envelope_bruteforce(enumerate_alignments(4, 4), line)
        assert len(env.segments) == len(env_bf.segments)
        assert env.breakpoints[0] == -math.inf and env.breakpoints[-1] == math.inf
        np.testing.assert_allclose(env.breakpoints[1:-1], env_bf.breakpoints[1:-1], rtol=1e-9)
        for (Ma, _), (Mb, _) in zip(env.segments, env_bf.segments):
            assert Ma.path == Mb.path

    def test_segment_loss_equals_solver_loss_at_samples(self):
        rng = np.random.default_rng(5)
        line = random_line(rng, 4, 4)
        env = para_dtw(line, 4, 4)
        for z in sample_grid(env, 50):
            pair = TimeSeriesPair(line.a1 + line.b1 * z, line.a2 + line.b2 * z)
            _, dist = dtw(pair)
            assert env.value(z) == pytest.approx(dist, rel=1e-8, abs=1e-10)

    def test_breakpoints_strictly_increasing(self):
        rng = np.random.default_rng(6)
        for _ in range(10):
            n = int(rng.integers(2, 6))
            m = int(rng.integers(2, 6))
            env = para_dtw(random_line(rng, n, m), n, m)
            bps = env.breakpoints
            assert bps[0] == -math.inf and bps[-1] == math.inf
            assert all(b2 > b1 for b1, b2 in zip(bps, bps[1:]))
            assert len(env.segments) >= 1

    def test_pruning_sound_per_cell(self):
        # Rebuild the table and compare every cell's kept set against the
        # brute-force envelope of the corresponding sub-problem.
        rng = np.random.default_rng(7)
        n = m = 4
        line = random_line(rng, n, m)
        term = cell_terms(line)
        table = [[None] * m for _ in range(n)]
        for i in range(n):
            for j in range(m):
                t0, t1, t2 = term(i, j)
                if i == 0 and j == 0:
                    cands = [(((1, 1),), t0, t1, t2)]
                else:
                    seen = {}
                    for pi, pj in ((i - 1, j - 1), (i - 1, j), (i, j - 1)):
                        if pi < 0 or pj < 0:
                            continue
                        for path, w0, w1, w2 in table[pi][pj]:
                            ext = path + ((i + 1, j + 1),)
                            seen.setdefault(ext, (ext, w0 + t0, w1 + t1, w2 + t2))
                    cands = list(seen.values())
                bps, order = _walk_envelope(cands)
                kept, idx = [], set()
                for k in order:
                    if k not in idx:
                        idx.add(k)
                        kept.append(cands[k])
                table[i][j] = kept

                subline = DataLine(
                    np.concatenate([line.a1[: i + 1], line.a2[: j + 1]]),
                    np.concatenate([line.b1[: i + 1], line.b2[: j + 1]]),
                    i + 1,
                )
                subalign = enumerate_alignments(i + 1, j + 1)
                env_bf = envelope_bruteforce(subalign, subline)
                bf_paths = {M.path for M, _ in env_bf.segments}
                kept_paths = {p for p, *_ in kept}
                # completeness: every brute-force winner survives pruning
                assert bf_paths <= kept_paths
                # soundness: every kept path is optimal at some point of its
                # own envelope segment (sample segment midpoints)
                for t in range(len(order)):
                    lo, hi = bps[t], bps[t + 1]
                    mid = (
                        0.0
                        if not math.isfinite(lo) and not math.isfinite(hi)
                        else (lo + 1.0 if not math.isfinite(hi) else (hi - 1.0 if not math.isfinite(lo) else 0.5 * (lo + hi)))
                    )
                    seg = cands[order[t]]
                    val = (seg[3] * mid + seg[2]) * mid + seg[1]
                    best = pointwise_min(subalign, subline, mid)
                    assert val == pytest.approx(best, rel=1e-8, abs=1e-10)


def solid_pieces(region):
    """Pieces of positive width: a lone point carries no Gaussian mass."""
    return [(lo, hi) for lo, hi in region if hi > lo]


def assert_same_pieces(got, want, tol=1e-9):
    assert len(got) == len(want), (got, want)
    for piece_got, piece_want in zip(got, want):
        for u, v in zip(piece_got, piece_want):
            assert u == v or abs(u - v) <= tol * max(1.0, abs(v)), (got, want)


def sample_windows(rng, env):
    """Two-sided, one-sided, point, and breakpoint-anchored windows."""
    finite = [b for b in env.breakpoints if math.isfinite(b)]
    lo_edge = min(finite) - 1.0 if finite else -5.0
    hi_edge = max(finite) + 1.0 if finite else 5.0
    lo, hi = sorted(rng.uniform(lo_edge, hi_edge, size=2))
    windows = [(lo, hi), (-math.inf, hi), (lo, math.inf), (lo, lo)]
    if finite:
        b = finite[int(rng.integers(len(finite)))]
        windows += [(lo_edge, b), (b, hi_edge), (finite[0], finite[-1])]
    return windows


class TestWindowedParaDtw:
    def test_regions_match_full_line_engine(self):
        for seed in range(300):
            rng = np.random.default_rng([11, seed])
            n = int(rng.integers(2, 9))
            m = int(rng.integers(2, 9))
            line = random_line(rng, n, m)
            full = para_dtw(line, n, m)
            for lo, hi in sample_windows(rng, full):
                windowed = para_dtw(line, n, m, (lo, hi))
                assert (windowed.breakpoints[0], windowed.breakpoints[-1]) == (lo, hi)
                window = IntervalUnion([(lo, hi)])
                paths = {M.path: M for M, _ in full.segments + windowed.segments}
                for M in paths.values():
                    got = z1_region(windowed, M).intersect(window)
                    want = z1_region(full, M).intersect(window)
                    assert_same_pieces(solid_pieces(got), solid_pieces(want))
                if lo == hi:
                    assert windowed.value(lo) == pytest.approx(full.value(lo), rel=1e-9, abs=1e-12)

    def test_value_equals_full_line_inside_and_raises_outside(self):
        for seed in range(40):
            rng = np.random.default_rng([12, seed])
            n = int(rng.integers(2, 7))
            m = int(rng.integers(2, 7))
            line = random_line(rng, n, m)
            full = para_dtw(line, n, m)
            for lo, hi in sample_windows(rng, full):
                windowed = para_dtw(line, n, m, (lo, hi))
                inner = [z for z in sample_grid(full, 200) if lo <= z <= hi]
                for z in inner + [z for z in (lo, hi) if math.isfinite(z)]:
                    assert windowed.value(z) == pytest.approx(full.value(z), rel=1e-9, abs=1e-12)
                for z in (lo - 1.0, hi + 1.0):
                    if math.isfinite(z):
                        with pytest.raises(ValueError):
                            windowed.value(z)

    def test_empty_window_rejected(self):
        line = random_line(np.random.default_rng(14), 2, 2)
        with pytest.raises(ValueError, match="empty"):
            para_dtw(line, 2, 2, (1.0, 0.0))


class TestZ1Region:
    def test_contains_selected_segment(self):
        rng = np.random.default_rng(8)
        pair = TimeSeriesPair(rng.normal(size=4), rng.normal(size=4))
        M_obs, dist = dtw(pair)
        # line through the observation in a random direction
        b = rng.normal(size=8)
        z0 = 0.7
        line = DataLine(pair.stacked() - b * z0, b, 4)
        env = para_dtw(line, 4, 4)
        region = z1_region(env, M_obs)
        assert region.contains(z0, tol=1e-9)
        # at the observed parameter the envelope value is the solved distance
        assert env.value(z0) == pytest.approx(dist, rel=1e-10)

    def test_foreign_alignment_empty(self):
        rng = np.random.default_rng(9)
        line = random_line(rng, 2, 2)
        env = para_dtw(line, 2, 2)
        present = {M.path for M, _ in env.segments}
        foreign = [M for M in enumerate_alignments(2, 2) if M.path not in present]
        if foreign:
            assert z1_region(env, foreign[0]).is_empty

    def test_membership_matches_fresh_solver_runs(self):
        rng = np.random.default_rng(10)
        pair = TimeSeriesPair(rng.normal(size=4), rng.normal(size=4))
        M_obs, _ = dtw(pair)
        b = rng.normal(size=8)
        line = DataLine(pair.stacked() - 0.3 * b, b, 4)
        env = para_dtw(line, 4, 4)
        region = z1_region(env, M_obs)
        finite = [x for x in env.breakpoints if math.isfinite(x)]
        zs = rng.uniform(min(finite) - 3, max(finite) + 3, size=300)
        # stay clear of breakpoints, where ties make membership ambiguous
        zs = [z for z in zs if all(abs(z - b) > 1e-6 for b in finite)]
        for z in zs:
            fresh, dist = dtw(TimeSeriesPair(line.a1 + line.b1 * z, line.a2 + line.b2 * z))
            loss_obs = quadratic_loss(M_obs, line)(z)
            if region.contains(z):
                assert loss_obs == pytest.approx(dist, rel=1e-8)
            else:
                assert fresh.path != M_obs.path or loss_obs == pytest.approx(dist, rel=1e-8)


class TestPiecewiseEnvelope:
    def test_cover_runs_from_first_to_last_breakpoint(self):
        M = dtw(TimeSeriesPair([0.0], [0.0]))[0]
        q = QuadraticLoss(0.0, 0.0, 1.0)
        env = PiecewiseEnvelope((0.0, math.inf), ((M, q),))
        assert env.value(0.0) == 0.0 and env.value(3.0) == 9.0
        with pytest.raises(ValueError, match="outside"):
            env.value(-1.0)
        with pytest.raises(ValueError, match="outside"):
            env.segment_index_at(math.nan)
        with pytest.raises(ValueError, match="non-decreasing"):
            PiecewiseEnvelope((1.0, 0.0), ((M, q),))

    def test_segment_lookup(self):
        M = dtw(TimeSeriesPair([0.0], [0.0]))[0]
        qa, qb = QuadraticLoss(0.0, 0.0, 1.0), QuadraticLoss(1.0, 0.0, 0.0)
        env = PiecewiseEnvelope((-math.inf, 0.0, math.inf), ((M, qa), (M, qb)))
        assert env.segment_index_at(-5.0) == 0
        assert env.segment_index_at(5.0) == 1
        assert env.value(-2.0) == 4.0
        assert env.value(2.0) == 1.0
