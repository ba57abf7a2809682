"""Tests for losses and envelopes along the data line."""

import math
from unittest.mock import patch

import numpy as np
import pytest

from dtwsi import parametric
from dtwsi.dtw_core import (
    TimeSeriesPair,
    _accumulated_cost,
    _path_cells,
    cost_matrix,
    dtw,
    enumerate_alignments,
)
from dtwsi.harness import ExperimentConfig, generate_pair
from dtwsi.inference import conditional_test, selective_p_value
from dtwsi.intervals import IntervalUnion
from dtwsi.parametric import (
    DataLine,
    PiecewiseEnvelope,
    _walk_envelope,
    cell_terms,
    envelope_bruteforce,
    para_dtw,
    quadratic_loss,
    z1_region,
)
import oracles
from dense_views import path_cost
from oracles import walk_envelope as oracle_walk


def random_line(rng, n, m, scale=1.0):
    return DataLine(rng.normal(size=n + m), scale * rng.normal(size=n + m), n)


def loss_at(w, z):
    """A ``(w0, w1, w2)`` loss triple at ``z``, as the envelope evaluates it."""
    w0, w1, w2 = w
    return (w2 * z + w1) * z + w0


def pointwise_min(alignments, line, z):
    return min(loss_at(quadratic_loss(M, line), z) for M in alignments)


def sample_grid(env, count):
    finite = [b for b in env.breakpoints if math.isfinite(b)]
    lo = min(finite) - 5.0 if finite else -10.0
    hi = max(finite) + 5.0 if finite else 10.0
    return np.linspace(lo, hi, count)


class TestLossTriple:
    def test_constant_line(self):
        rng = np.random.default_rng(0)
        a = rng.normal(size=6)
        line = DataLine(a, np.zeros(6), 3)
        M, _ = dtw(TimeSeriesPair(a[:3], a[3:]))
        w0, w1, w2 = quadratic_loss(M, line)
        assert w1 == 0.0 and w2 == 0.0
        static = path_cost(M, cost_matrix(TimeSeriesPair(a[:3], a[3:])))
        assert w0 == pytest.approx(static, rel=1e-12)

    def test_single_cell_hand_expansion(self):
        line = DataLine(np.array([0.0, 0.0]), np.array([1.0, -1.0]), 1)
        M = dtw(TimeSeriesPair([0.0], [0.0]))[0]
        assert quadratic_loss(M, line) == (0.0, 0.0, 4.0)

    def test_evaluation_oracle(self):
        rng = np.random.default_rng(1)
        line = random_line(rng, 4, 5)
        for M in enumerate_alignments(4, 5)[::17]:
            q = quadratic_loss(M, line)
            for z in rng.uniform(-5, 5, size=100):
                pair = TimeSeriesPair(line.a1 + line.b1 * z, line.a2 + line.b2 * z)
                direct = path_cost(M, cost_matrix(pair))
                assert abs(loss_at(q, z) - direct) < 1e-9 * max(1.0, direct)

    def test_matches_per_cell_loop(self):
        """Hex-equal to the per-cell loop on random paths, 1 x m and n x 1 among them."""
        rng = np.random.default_rng(31)
        seen = set()
        for k in range(400):
            n, m = (int(v) for v in rng.integers(1, 13, size=2))
            n, m = (1 if k % 5 == 0 else n), (1 if k % 5 == 1 else m)
            a = oracles.zero_rich_data(rng, n + m, k % 3)
            b = oracles.zero_rich_data(rng, n + m, k // 3 % 3)
            terms = cell_terms(DataLine(a, b, n))
            path = oracles.random_path(rng, n, m)
            got, want = parametric._path_loss(_path_cells(path), terms), oracles.path_loss(path, terms)
            assert [w.hex() for w in got] == [w.hex() for w in want]
            negative_zero = [t == 0.0 and math.copysign(1.0, t) < 0.0 for t in
                             (terms[1][i - 1, j - 1] for i, j in path)]
            if any(negative_zero):
                seen.add("-0.0 term")
            if all(negative_zero):
                seen.add("only -0.0 terms")
        assert seen == {"-0.0 term", "only -0.0 terms"}

    @pytest.mark.parametrize("n, m", [(1, 1), (1, 3), (3, 1)])
    def test_negative_zero_terms_sum_to_positive_zero(self, n, m):
        # da == 0 and db < 0 at every cell: each w1 term 2 da db is -0.0
        b = np.concatenate([-np.ones(n), np.ones(m)])
        terms = cell_terms(DataLine(np.zeros(n + m), b, n))
        path = tuple((min(k, n), min(k, m)) for k in range(1, max(n, m) + 1))
        assert all(math.copysign(1.0, terms[1][i - 1, j - 1]) < 0.0 for i, j in path)
        assert parametric._path_loss(_path_cells(path), terms)[1].hex() == "0x0.0p+0"

    def test_line_checks(self):
        with pytest.raises(ValueError, match="1-d vectors of equal length"):
            DataLine(np.zeros(5), np.zeros(4), 2)
        with pytest.raises(ValueError, match="1-d vectors of equal length"):
            DataLine(np.zeros((2, 2)), np.zeros((2, 2)), 1)
        for n in (0, 5):
            with pytest.raises(ValueError, match="split must leave both series non-empty"):
                DataLine(np.zeros(5), np.zeros(5), n)

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

    def test_exact_tie_goes_to_first_candidate(self):
        # Bellman's tie-break, not the path order: para_dtw lists candidates
        # diagonal, vertical, horizontal.
        cands = [("z", 1.0, -1.0, 1.0), ("a", 1.0, -1.0, 1.0), ("b", 0.0, 2.0, 0.0)]
        bps, order = _walk_envelope(cands)
        assert [cands[k][0] for k in order] == ["b", "z", "b"]
        bps, order = _walk_envelope(cands, 0.0, 1.0)
        assert [cands[k][0] for k in order] == ["b", "z"]

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


class TestMergeSegments:
    @pytest.mark.parametrize(
        "breakpoints, order, want",
        [
            # a sliver between two segments of one candidate: they fuse
            ([0.0, 1.0, 1.0 + 1e-13, 2.0], [0, 1, 0], ([0.0, 2.0], [0])),
            # a trailing sliver goes to the segment before, a leading one to the next
            ([0.0, 1.0, 1.0 + 1e-13], [0, 1], ([0.0, 1.0 + 1e-13], [0])),
            ([0.0, 1e-13, 1.0], [0, 1], ([0.0, 1.0], [1])),
            # a lone sliver is kept
            ([0.0, 1e-13], [0], ([0.0, 1e-13], [0])),
        ],
    )
    def test_slivers(self, breakpoints, order, want):
        assert parametric._merge_segments(breakpoints, order) == want


def random_candidates(rng, K, decimals):
    """``K`` loss quadratics ``(label, w0, w1, w2)``; rounding makes ties and shared crossings."""
    w = np.column_stack([rng.uniform(0, 4, K), rng.normal(0, 2, K), rng.uniform(0, 1, K)])
    if decimals is not None:
        w = np.round(w, decimals)
    w[rng.random(K) < 0.2, 2] = 0.0  # some lines
    return [(k, *row) for k, row in enumerate(w.tolist())]


def walk_windows(rng, cands):
    """The full line, half lines, a finite window, a point window, and one at a crossing."""
    lo, hi = np.sort(rng.normal(0, 3, 2)).tolist()
    bps, _ = oracle_walk(cands)
    cross = [b for b in bps if math.isfinite(b)]
    windows = [(-math.inf, math.inf), (lo, math.inf), (-math.inf, hi), (lo, hi), (lo, lo)]
    return windows + [(cross[0], cross[0] + 1.0)] if cross else windows


def hex_walk(walk):
    bps, order = walk
    return [float(b).hex() for b in bps], list(order)


class TestWalkOracle:
    """``_walk_envelope`` with its early exits matches the walk that always loops."""

    @pytest.mark.parametrize("decimals", [None, 1, 0])
    def test_random_candidate_sets(self, monkeypatch, decimals):
        # The crossers at each step of the reference walk, and the steps at
        # which the fast walk breaks a tie: it must do so at every cluster of
        # crossers and at no lone crosser.
        crossers, tie_breaks = [], []

        def recording(minimal_after, sizes):
            def record(kept, z, cands):
                sizes.append(len(kept))
                return minimal_after(kept, z, cands)

            return record

        monkeypatch.setattr(oracles, "_minimal_after", recording(oracles._minimal_after, crossers))
        monkeypatch.setattr(
            parametric, "_minimal_after", recording(parametric._minimal_after, tie_breaks)
        )
        rng = np.random.default_rng([5, 0 if decimals is None else decimals + 1])
        single = 0
        for _ in range(300):
            cands = random_candidates(rng, int(rng.integers(1, 7)), decimals)
            mark = len(crossers)
            windows = walk_windows(rng, cands)
            del crossers[mark:]  # the full-line walk that places a window
            for lo, hi in windows:
                want = hex_walk(oracle_walk(cands, lo, hi))
                assert hex_walk(_walk_envelope(cands, lo, hi)) == want
                single += len(want[1]) == 1
        assert single > 300
        assert tie_breaks == [k for k in crossers if k > 1]
        assert crossers.count(1) > 1000
        # rounding makes shared crossings (3 at one decimal, 107 at none);
        # at full precision there are none here
        assert tie_breaks or decimals is None

    def test_lone_crosser_whose_value_overflows(self):
        # Two steep lines cross at about 2.5e9, where both values overflow to
        # -inf.  The tie-break's bands are NaN there and keep no candidate,
        # so the reference walk raises; a lone crosser needs no tie-break.
        cands = [("a", 0.0, -1e300, 0.0), ("c", 1e295, -1e300 * (1.0 + 4e-15), 0.0)]
        with pytest.raises(ValueError):
            oracle_walk(cands)
        (_, cross, _), order = _walk_envelope(cands)
        assert order == [0, 1] and loss_at(cands[1][1:], cross) == -math.inf

    def test_dominated_candidates_give_one_segment(self):
        cands = [("low", 0.0, 0.0, 1.0), ("high", 5.0, 0.0, 1.0), ("line", 9.0, 0.1, 0.0)]
        for lo, hi in [(-1.0, 1.0), (0.0, 0.0), (-2.5, 2.5)]:
            want = oracle_walk(cands, lo, hi)
            assert _walk_envelope(cands, lo, hi) == want == ([lo, hi], [0])

    def test_single_candidate(self):
        for lo, hi in [(-math.inf, math.inf), (2.0, 2.0), (-1.0, math.inf), (-math.inf, -1.0)]:
            assert _walk_envelope([("only", 1.0, -2.0, 0.5)], lo, hi) == ([lo, hi], [0])

    def test_near_tie_at_window_start(self):
        # within the tie band at lo the walk starts from -inf (see
        # test_window_start_survives_near_tie_at_lo); with the tie set apart,
        # from lo
        base = ("base", 10.202083468695054, -0.6324215080788926, 0.12778976626268523)
        for extra_w0 in (10.606388293021357, 10.7):
            cands = [base, ("extra", extra_w0, -0.6976776070323891, 0.13042290232390108)]
            for window in [(12.389699272956635, 20.159893555691543), (12.39, math.inf)]:
                want = hex_walk(oracle_walk(cands, *window))
                assert hex_walk(_walk_envelope(cands, *window)) == want

    @pytest.mark.parametrize("decimals", [None, 1, 0])
    def test_walks_of_para_dtw(self, monkeypatch, decimals):
        # every cell walk of the windowed engine on sim-batch-like pairs
        walks = []
        walk = parametric._walk_envelope

        def recording(cands, lo=-math.inf, hi=math.inf):
            walks.append((list(cands), lo, hi))
            return walk(cands, lo, hi)

        monkeypatch.setattr(parametric, "_walk_envelope", recording)
        for k in range(16):
            config = ExperimentConfig(
                n=10, m=10, covariance="ar-correlation", delta=float(k % 3), seed=3
            )
            pair = generate_pair(config, k)
            if decimals is not None:
                pair = TimeSeriesPair(np.round(pair.x, decimals), np.round(pair.y, decimals))
            outcome(selective_p_value, pair)
        assert len(walks) > 300
        assert sum(len(cands) == 1 for cands, _, _ in walks) > 50
        for cands, lo, hi in walks:
            assert hex_walk(walk(cands, lo, hi)) == hex_walk(oracle_walk(cands, lo, hi))


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

    def test_duplicate_alignments_give_the_same_envelope(self):
        rng = np.random.default_rng(6)
        alignments = enumerate_alignments(3, 3)
        line = random_line(rng, 3, 3)
        env = envelope_bruteforce(alignments, line)
        for twice in (alignments + alignments, [M for M in alignments for _ in range(2)]):
            assert envelope_bruteforce(twice, line) == env

    def test_adjacent_segments_agree_at_breakpoints(self):
        rng = np.random.default_rng(3)
        line = random_line(rng, 4, 3)
        env = envelope_bruteforce(enumerate_alignments(4, 3), line)
        for k in range(1, len(env.segments)):
            b = env.breakpoints[k]
            left = loss_at(env.segments[k - 1][1], b)
            right = loss_at(env.segments[k][1], b)
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
        terms = [t.tolist() for t in cell_terms(line)]
        table = [[None] * m for _ in range(n)]
        for i in range(n):
            for j in range(m):
                t0, t1, t2 = (t[i][j] for t in terms)
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


def builder_cases(full, lo, hi):
    """``(M, t)`` per full-line segment that meets ``[lo, hi]``: its path, and a point of both.

    The point is the middle of a short overlap, else one unit inside an end
    of moderate size, else zero, so no loss at it overflows.
    """
    bps = full.breakpoints
    for k, (M, _) in enumerate(full.segments):
        seg_lo, seg_hi = max(lo, bps[k]), min(hi, bps[k + 1])
        if seg_lo > seg_hi:
            continue
        if seg_hi - seg_lo <= 2.0:
            yield M, 0.5 * seg_lo + 0.5 * seg_hi
        elif seg_lo > -1e6:
            yield M, seg_lo + 1.0
        elif seg_hi < 1e6:
            yield M, seg_hi - 1.0
        else:
            yield M, 0.0


def record_tables(monkeypatch):
    """Every table the region builder walks: ``(usable, breakpoints, segments)``."""
    tables = []
    table = parametric._table_envelope

    def recording(line, lo, hi, terms, usable):
        bps, segments = table(line, lo, hi, terms, usable)
        tables.append((usable, bps, segments))
        return bps, segments

    monkeypatch.setattr(parametric, "_table_envelope", recording)
    return tables


def assert_builder_matches(line, full, lo, hi, tables):
    """``si_dtw_region`` agrees with the full-line envelope ``full`` on ``[lo, hi]``.

    It runs once per ``builder_cases`` entry.  Its region must hold the solid
    pieces the full line gives the path within the window, and the pruned
    table it walks must take the full line's values across the hull it is
    built on.  ``tables`` is ``record_tables``'s list.  Returns each call's
    usable-cell mask.
    """
    window = IntervalUnion([(lo, hi)])
    masks = []
    for M, t in builder_cases(full, lo, hi):
        tables.clear()
        got = parametric.si_dtw_region(line, M, window, t)
        want = z1_region(full, M).intersect(window)
        assert_same_pieces(solid_pieces(got), solid_pieces(want))
        ((usable, bps, segments),) = tables
        env = parametric._envelope(bps, segments, line.n, line.m)
        for z in np.linspace(max(bps[0], t - 1e3), min(bps[-1], t + 1e3), 25):
            assert env.value(z) == pytest.approx(full.value(z), rel=1e-9, abs=1e-12)
        masks.append(usable)
    return masks


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

    def test_builder_regions_match_full_line_engine(self, monkeypatch):
        # the region builder, which skips cells, on the same window families
        tables = record_tables(monkeypatch)
        calls = skipped = 0
        for seed in range(100):
            rng = np.random.default_rng([11, seed])
            n = int(rng.integers(2, 9))
            m = int(rng.integers(2, 9))
            line = random_line(rng, n, m)
            full = para_dtw(line, n, m)
            for lo, hi in sample_windows(rng, full):
                masks = assert_builder_matches(line, full, lo, hi, tables)
                calls += len(masks)
                skipped += sum(not usable.all() for usable in masks)
        # the bound must act on most calls for the test to mean anything
        assert 2 * skipped >= calls

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

    def test_split_that_does_not_match_rejected(self):
        line = random_line(np.random.default_rng(14), 2, 3)
        with pytest.raises(ValueError, match="line split does not match requested dimensions"):
            para_dtw(line, 3, 2)

    def test_cell_without_usable_predecessor_keeps_no_candidate(self):
        # (0, 3) is usable but its only predecessor (0, 2) is not: the walk
        # leaves it empty, exactly as if it were unusable too
        line = random_line(np.random.default_rng(15), 4, 4)
        terms = cell_terms(line)

        def table(*unusable):
            usable = np.ones((4, 4), dtype=bool)
            for cell in unusable:
                usable[cell] = False
            bps, segments = parametric._table_envelope(line, -math.inf, math.inf, terms, usable)
            return [b.hex() for b in bps], [(p, *(w.hex() for w in ws)) for p, *ws in segments]

        assert table((0, 2)) == table((0, 2), (0, 3))


def count_walks(monkeypatch):
    """Record the candidate count of every cell ``para_dtw`` walks."""
    walked = []
    walk = parametric._walk_envelope

    def counting(cands, lo=-math.inf, hi=math.inf):
        walked.append(len(cands))
        return walk(cands, lo, hi)

    monkeypatch.setattr(parametric, "_walk_envelope", counting)
    return walked


class TestCellBound:
    def test_skips_cells_on_narrow_window(self, monkeypatch):
        walked = count_walks(monkeypatch)
        line = random_line(np.random.default_rng(19), 20, 20)
        full = para_dtw(line, 20, 20)
        calls = 0
        window = IntervalUnion([(-0.05, 0.05)])
        for M, t in builder_cases(full, -0.05, 0.05):
            walked.clear()
            region = parametric.si_dtw_region(line, M, window, t)
            assert 0 < len(walked) < 20 * 20
            assert_same_pieces(solid_pieces(region), solid_pieces(z1_region(full, M).intersect(window)))
            calls += 1
        assert calls > 0

    def test_para_dtw_skips_nothing(self, monkeypatch):
        # the oracle walks every cell on any window, with no Bellman solve
        def fail(*args):
            raise AssertionError("para_dtw ran a Bellman solve")

        monkeypatch.setattr(parametric, "_optimal_at", fail)
        monkeypatch.setattr(parametric, "bellman_path", fail)
        walked = count_walks(monkeypatch)
        line = random_line(np.random.default_rng(16), 4, 5)
        windows = [
            (-math.inf, math.inf), (-math.inf, 0.0), (0.0, math.inf),
            (-0.05, 0.05), (0.3, 0.3), (-1e308, 1e308),
        ]
        for window in windows:
            walked.clear()
            para_dtw(line, 4, 5, window)
            assert len(walked) == 4 * 5, window

    def test_selective_p_value_builds_no_envelope_objects(self, monkeypatch):
        # the region builder reads segments, and keeps every loss, as loss triples
        def fail(*args):
            raise AssertionError("the region builder built an envelope object")

        monkeypatch.setattr(parametric, "AlignmentMatrix", fail)
        monkeypatch.setattr(parametric, "PiecewiseEnvelope", fail)
        tables = record_tables(monkeypatch)
        for k in range(4):
            pair = generate_pair(ExperimentConfig(n=12, m=12, delta=(0.0, 1.5)[k % 2], seed=4), k)
            assert 0.0 <= selective_p_value(pair).p_selective <= 1.0
        assert len(tables) == 4

    def test_matches_full_line_inside_narrow_windows(self, monkeypatch):
        tables = record_tables(monkeypatch)
        calls = skipped = 0
        for seed in range(80):
            rng = np.random.default_rng([17, seed])
            n = int(rng.integers(2, 9))
            m = int(rng.integers(2, 9))
            line = random_line(rng, n, m)
            full = para_dtw(line, n, m)
            for width in (1e-3, 0.1, 1.0):
                lo = float(rng.uniform(-3.0, 3.0))
                hi = lo + width
                masks = assert_builder_matches(line, full, lo, hi, tables)
                calls += len(masks)
                skipped += sum(not usable.all() for usable in masks)
        # the bound must act on most of these calls for the test to mean anything
        assert 2 * skipped >= calls


def paths_optimal_in(full, lo, hi):
    """The paths of the full-line envelope's segments that meet ``[lo, hi]``."""
    bps = full.breakpoints
    return [M for k, (M, _) in enumerate(full.segments) if bps[k] <= hi and bps[k + 1] >= lo]


def bound_cases(count):
    """``(line, lo, hi, known)``: random lines, raw and rounded, narrow to wide windows.

    ``known`` holds the loss of the path optimal at the window's midpoint and
    of paths optimal at up to three probes in and around the window, as the
    witness probes find them.
    """
    for seed in range(count):
        rng = np.random.default_rng([21, seed])
        n, m = (int(v) for v in rng.integers(1, 10, size=2))
        line = random_line(rng, n, m)
        if seed % 3:
            line = DataLine(np.round(line.a, seed % 3 - 1), np.round(line.b, seed % 3 - 1), n)
        width = (0.0, 1e-12, 1e-3, 0.1, 1.0, 5.0)[seed % 6]
        lo = float(rng.uniform(-3.0, 3.0))
        hi = lo + width
        terms = cell_terms(line)
        probes = [0.5 * lo + 0.5 * hi, *rng.uniform(lo - 1.0, hi + 1.0, seed % 4)]
        known = [parametric._optimal_at(line, float(t), terms)[1] for t in probes]
        yield line, lo, hi, known


def assert_same_regions(windowed, full, lo, hi):
    """Every path of either envelope holds the same solid pieces of ``[lo, hi]`` in both."""
    window = IntervalUnion([(lo, hi)])
    for M in {M.path: M for M, _ in full.segments + windowed.segments}.values():
        got = z1_region(windowed, M).intersect(window)
        want = z1_region(full, M).intersect(window)
        assert_same_pieces(solid_pieces(got), solid_pieces(want))


def single_window_mask(line, lo, hi, known):
    """The cell bound with one sub-window, the whole window, and the same known losses."""
    with patch.object(parametric, "SUB_WINDOWS", 1):
        return parametric._unusable_cells(line, lo, hi, known)


class TestSubWindowBound:
    def test_keeps_every_path_optimal_in_the_window(self):
        skipped = 0
        for line, lo, hi, known in bound_cases(400):
            unusable = parametric._unusable_cells(line, lo, hi, known)
            skipped += int(unusable.sum())
            for M in paths_optimal_in(para_dtw(line, line.n, line.m), lo, hi):
                cells = np.array(M.path) - 1
                assert not unusable[cells[:, 0], cells[:, 1]].any(), (lo, hi, M.path)
        assert skipped > 2000  # the bound acts, so keeping the paths means something

    def test_subset_of_the_single_window_mask(self):
        sharper = 0
        for line, lo, hi, known in bound_cases(400):
            unusable = parametric._unusable_cells(line, lo, hi, known)
            single = single_window_mask(line, lo, hi, known)
            assert (unusable >= single).all()
            sharper += int((unusable > single).sum())
        assert sharper > 500

    def test_matches_scalar_tables(self, monkeypatch):
        # the stacked tables are the scalar recursion's, so the masks are too
        cases = list(bound_cases(400))
        want = [parametric._unusable_cells(*case) for case in cases]

        def scalar_tables(costs):
            return np.stack(
                [_accumulated_cost(costs[:, :, r].tolist()) for r in range(costs.shape[2])], axis=-1
            )

        monkeypatch.setattr(parametric, "bellman_tables", scalar_tables)
        for case, mask in zip(cases, want):
            assert (parametric._unusable_cells(*case) == mask).all()

    def test_unset_padding_is_never_read(self, poison_empty):
        # the bound's views of the wavefront's table read grid cells only
        cases = list(bound_cases(400))
        want = [parametric._unusable_cells(*case) for case in cases]
        assert {(case[0].n == 1, case[0].m == 1) for case in cases} == {
            (a, b) for a in (False, True) for b in (False, True)
        }
        poison_empty()
        for case, mask in zip(cases, want):
            assert (parametric._unusable_cells(*case) == mask).all()

    def test_cells_walked_per_pair(self, monkeypatch):
        # single-pair benchmark pairs: the sub-windows and the witness losses
        # leave about half the cells the single-window midpoint bound left
        walked = count_walks(monkeypatch)
        pairs = 64
        for k in range(pairs):
            pair = generate_pair(ExperimentConfig(n=20, m=20, delta=(0.0, 1.5)[k % 2], seed=0), k)
            outcome(selective_p_value, pair)
        assert len(walked) <= 55 * pairs

    def test_overflowing_window_matches_full_line(self, monkeypatch):
        tables = record_tables(monkeypatch)
        for seed in range(30):
            rng = np.random.default_rng([22, seed])
            n, m = (int(v) for v in rng.integers(1, 8, size=2))
            line = random_line(rng, n, m)
            full = para_dtw(line, n, m)
            windowed = para_dtw(line, n, m, (-1e308, 1e308))
            assert (windowed.breakpoints[0], windowed.breakpoints[-1]) == (-1e308, 1e308)
            for z in sample_grid(full, 50):
                assert windowed.value(z) == pytest.approx(full.value(z), rel=1e-9, abs=1e-12)
            assert_same_regions(windowed, full, -1e308, 1e308)
            assert_builder_matches(line, full, -1e308, 1e308, tables)

    def test_overflowing_window_still_skips_cells(self, monkeypatch):
        # On a line with no direction every loss is constant, so the cap is
        # finite even on (-1e308, 1e308).  Sub-window edges that overflowed
        # there would be NaN, and the bound would then rule nothing out.
        walked = count_walks(monkeypatch)
        tables = record_tables(monkeypatch)
        rng = np.random.default_rng(23)
        line = DataLine(rng.normal(size=24), np.zeros(24), 12)
        ((M, want),) = para_dtw(line, 12, 12).segments
        walked.clear()
        tables.clear()
        window = IntervalUnion([(-1e308, 1e308)])
        assert parametric.si_dtw_region(line, M, window, 0.0) == window
        assert len(walked) < 12 * 12 // 2
        ((_, _, segments),) = tables
        assert len(segments) == 1
        assert segments[0][1:] == pytest.approx(want, rel=1e-12)

    def test_point_and_tiny_windows_match_full_line(self, monkeypatch):
        tables = record_tables(monkeypatch)
        for seed in range(60):
            rng = np.random.default_rng([24, seed])
            n, m = (int(v) for v in rng.integers(1, 9, size=2))
            line = random_line(rng, n, m)
            full = para_dtw(line, n, m)
            finite = [b for b in full.breakpoints if math.isfinite(b)]
            starts = [float(rng.uniform(-3.0, 3.0)), 1e3] + finite[:1]
            for lo in starts:
                for hi in (lo, lo + 1e-12):
                    windowed = para_dtw(line, n, m, (lo, hi))
                    for z in (lo, 0.5 * lo + 0.5 * hi, hi):
                        assert windowed.value(z) == pytest.approx(full.value(z), rel=1e-9, abs=1e-12)
                    assert_same_regions(windowed, full, lo, hi)
                    assert_builder_matches(line, full, lo, hi, tables)


def window_only_region(cond):
    """Selection region from the envelope built on the whole window, no witnesses."""
    line, window = cond.line, cond.window
    if window.is_empty:
        return window
    (bounds,) = window.intervals
    return z1_region(para_dtw(line, line.n, line.m, bounds), cond.alignment)


def outcome(test, pair):
    """The test's result, or the type of the error it raised."""
    try:
        return test(pair)
    except (ArithmeticError, ValueError) as exc:
        return type(exc)


class TestWitnessHull:
    @pytest.mark.parametrize("decimals", [None, 1, 0])
    def test_region_equals_window_only(self, decimals):
        for seed in range(60):
            rng = np.random.default_rng([18, seed])
            n = int(rng.integers(2, 21))
            m = int(rng.integers(2, 21))
            x, y = rng.normal(size=n), rng.normal(size=m)
            if decimals is not None:
                x, y = np.round(x, decimals), np.round(y, decimals)
            pair = TimeSeriesPair(x, y)
            hull = outcome(selective_p_value, pair)
            whole = outcome(lambda pair: conditional_test(pair, window_only_region), pair)
            if isinstance(whole, type):
                assert hull is whole
                continue
            assert hull.p_selective == pytest.approx(whole.p_selective, rel=0, abs=1e-12)
            assert_same_pieces(list(hull.region), list(whole.region))

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_bit_identical_to_window_only_at_n30(self, seed):
        for k, delta in enumerate((0.0, 1.5)):
            pair = generate_pair(ExperimentConfig(n=30, m=30, delta=delta, seed=seed), k)
            hull = selective_p_value(pair)
            whole = conditional_test(pair, window_only_region)
            assert hull.p_selective.hex() == whole.p_selective.hex()
            assert hull.region == whole.region


class TestRegionInputs:
    def test_alignment_that_does_not_fit_the_line_is_rejected(self):
        rng = np.random.default_rng(19)
        line = DataLine(rng.normal(size=7), rng.normal(size=7), 3)
        M, _ = dtw(TimeSeriesPair(rng.normal(size=2), rng.normal(size=4)))
        window = IntervalUnion([(-1.0, 1.0)])
        with pytest.raises(ValueError, match=r"alignment is 2x4 but line splits 3\+4"):
            parametric.si_dtw_region(line, M, window, 0.0)

    def test_window_of_two_pieces_is_rejected(self):
        rng = np.random.default_rng(20)
        line = DataLine(rng.normal(size=7), rng.normal(size=7), 3)
        M, _ = dtw(TimeSeriesPair(rng.normal(size=3), rng.normal(size=4)))
        window = IntervalUnion([(-2.0, -1.0), (1.0, 2.0)])
        with pytest.raises(ValueError, match="window of at most one piece, got 2"):
            parametric.si_dtw_region(line, M, window, 1.5)


def builder_inputs(pair):
    """The arguments ``selective_p_value`` passes to ``si_dtw_region`` for ``pair``."""
    calls = []

    def recording(cond):
        calls.append((cond.line, cond.alignment, cond.window, cond.z_obs / cond.scale))
        return IntervalUnion.real_line()

    conditional_test(pair, recording)
    return calls[0]


def record_solves(monkeypatch):
    """Every Bellman solve of the region builder: ``(t, path, loss)``, in call order."""
    solves = []
    solve = parametric._optimal_at

    def recording(line, t, terms):
        path, q = solve(line, t, terms)
        solves.append((t, path, q))
        return path, q

    monkeypatch.setattr(parametric, "_optimal_at", recording)
    return solves


class TestWitnessProbes:
    @pytest.mark.parametrize("decimals", [None, 0])
    def test_at_most_grid_solves(self, monkeypatch, decimals):
        # the probes are the only Bellman solves: the cell bound runs none
        solves = record_solves(monkeypatch)
        most = 0
        for seed in range(40):
            rng = np.random.default_rng([20, seed])
            n, m = (int(v) for v in rng.integers(2, 26, size=2))
            x, y = rng.normal(size=n), rng.normal(size=m)
            if decimals is not None:
                x, y = np.round(x, decimals), np.round(y, decimals)
            solves.clear()
            outcome(selective_p_value, TimeSeriesPair(x, y))
            assert len(solves) <= parametric.WITNESS_GRID
            most = max(most, len(solves))
        assert most >= 4

    def test_budget_stops_probes_that_always_cut(self, monkeypatch):
        # every witness beats M_obs from its end of the hull to just past the
        # probe, so every cut moves that end inward and only the budget stops them
        pair = TimeSeriesPair(*np.random.default_rng(7).normal(size=(2, 12)))
        line, M, _, t_obs = builder_inputs(pair)
        o0, o1, o2 = quadratic_loss(M, line)
        probes = []

        def cutting(line, t, terms):
            probes.append(t)
            # q_obs - q = side (t - z) + 0.01: the cut removes everything from
            # the probe's end of the window to 0.01 past the probe
            side = 1.0 if t < t_obs else -1.0
            return ((0, 0),), (o0 - side * t - 0.01, o1 + side, o2)

        def hull_only(line, lo, hi, terms, usable):
            return [lo, hi], [(M.path, o0, o1, o2)]

        monkeypatch.setattr(parametric, "_optimal_at", cutting)
        monkeypatch.setattr(parametric, "_table_envelope", hull_only)
        window = IntervalUnion([(t_obs - 5.0, t_obs + 5.0)])
        region = parametric.si_dtw_region(line, M, window, t_obs)
        assert len(probes) == parametric.WITNESS_GRID
        # the probes alternate between the two ends and move inward
        below, above = probes[0::2], probes[1::2]
        assert below == sorted(below) and above == sorted(above, reverse=True)
        assert max(below) < min(above)
        ((lo, hi),) = region.intervals  # the final hull
        assert max(below) < lo < hi < min(above)

    def test_cut_that_keeps_its_probe_ends_the_side(self, monkeypatch):
        # Integer data on which M_obs is optimal only at t_obs, a tie point.
        # Probes near it find a path whose loss is within WITNESS_SLACK of
        # M_obs's, so the cut keeps the probe and that end stops probing.
        pair = TimeSeriesPair([1, 1, -1, 1, 1, -1, 1], [0, 1, 1, 1, 0, 0, -1])
        line, M, window, t_obs = builder_inputs(pair)
        q_obs = quadratic_loss(M, line)
        slack = parametric.WITNESS_SLACK * (1.0 + loss_at(q_obs, t_obs))
        solves = record_solves(monkeypatch)
        parametric.si_dtw_region(line, M, window, t_obs)
        kept = [
            t for t, path, w in solves
            if path != M.path and loss_at(q_obs, t) - loss_at(w, t) <= slack
        ]
        assert kept
        assert len(solves) <= 6

    def test_cut_that_empties_the_hull_ends_the_region(self, monkeypatch):
        # a witness below M_obs's loss everywhere cuts the whole hull away:
        # the region is empty and no table is walked
        pair = TimeSeriesPair(*np.random.default_rng(7).normal(size=(2, 12)))
        line, M, window, t_obs = builder_inputs(pair)
        o0, o1, o2 = quadratic_loss(M, line)
        probes = []

        def below(line, t, terms):
            probes.append(t)
            return ((0, 0),), (o0 - 1.0, o1, o2)

        def fail(*args):
            raise AssertionError("the region builder walked a table after an empty cut")

        monkeypatch.setattr(parametric, "_optimal_at", below)
        monkeypatch.setattr(parametric, "_table_envelope", fail)
        region = parametric.si_dtw_region(line, M, window, t_obs)
        assert region.is_empty
        assert len(probes) == 1


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
            loss_obs = loss_at(quadratic_loss(M_obs, line), z)
            if region.contains(z):
                assert loss_obs == pytest.approx(dist, rel=1e-8)
            else:
                assert fresh.path != M_obs.path or loss_obs == pytest.approx(dist, rel=1e-8)


class TestPiecewiseEnvelope:
    def test_cover_runs_from_first_to_last_breakpoint(self):
        M = dtw(TimeSeriesPair([0.0], [0.0]))[0]
        q = (0.0, 0.0, 1.0)
        env = PiecewiseEnvelope((0.0, math.inf), ((M, q),))
        assert env.value(0.0) == 0.0 and env.value(3.0) == 9.0
        with pytest.raises(ValueError, match="outside"):
            env.value(-1.0)
        with pytest.raises(ValueError, match="outside"):
            env.segment_index_at(math.nan)
        with pytest.raises(ValueError, match="non-decreasing"):
            PiecewiseEnvelope((1.0, 0.0), ((M, q),))
        with pytest.raises(ValueError, match="need exactly one more breakpoint than segments"):
            PiecewiseEnvelope((0.0, 1.0, 2.0), ((M, q),))
        with pytest.raises(ValueError, match="envelope needs at least one segment"):
            PiecewiseEnvelope((0.0,), ())

    def test_segment_lookup(self):
        M = dtw(TimeSeriesPair([0.0], [0.0]))[0]
        qa, qb = (0.0, 0.0, 1.0), (1.0, 0.0, 0.0)
        env = PiecewiseEnvelope((-math.inf, 0.0, math.inf), ((M, qa), (M, qb)))
        assert env.segment_index_at(-5.0) == 0
        assert env.segment_index_at(5.0) == 1
        assert env.value(-2.0) == 4.0
        assert env.value(2.0) == 1.0
        # a shared breakpoint belongs to the segment on its left; a repeated
        # one (a zero-width segment) to the leftmost segment that reaches it
        bps = (-math.inf, -1.0, 0.5, 0.5, 2.0, math.inf)
        env = PiecewiseEnvelope(bps, tuple((M, (float(k), 0.0, 0.0)) for k in range(5)))
        # the segment just below, at, and just above each finite breakpoint
        cases = {-1.0: (0, 0, 1), 0.5: (1, 1, 3), 2.0: (3, 3, 4)}
        for b, (below, at, above) in cases.items():
            assert env.segment_index_at(math.nextafter(b, -math.inf)) == below
            assert env.segment_index_at(b) == at
            assert env.segment_index_at(math.nextafter(b, math.inf)) == above
        assert env.segment_index_at(-math.inf) == 0
        assert env.segment_index_at(math.inf) == 4
