"""Tests for the alignment machinery."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dtwsi import dtw_core, parametric
from dtwsi.dtw_core import (
    AlignmentMatrix,
    TimeSeriesPair,
    _accumulated_cost,
    _bellman_wavefront,
    bellman_abs_sums,
    bellman_path,
    bellman_tables,
    cost_matrix,
    delannoy,
    dtw,
    enumerate_alignments,
    path_differences,
    sign_vector,
)
from dtwsi.dtw_core import test_direction as direction_of
from dtwsi.dtw_core import test_statistic as statistic_of
from dtwsi.inference import selective_p_value
from dense_views import abs_alignment_statistic, omega_matrix, path_cost, path_vec, scatter_path
import oracles


def brute_force_distance(pair):
    C = cost_matrix(pair)
    return min(path_cost(M, C) for M in enumerate_alignments(pair.n, pair.m))


def random_pairs(count, seed):
    """Pairs of random shapes; every third is rounded to integers, so ties occur."""
    rng = np.random.default_rng(seed)
    for k in range(count):
        n, m = rng.integers(1, 7, size=2)
        x, y = rng.normal(size=n), rng.normal(size=m)
        if k % 3 == 0:
            x, y = np.round(x), np.round(y)
        yield TimeSeriesPair(x, y)


class TestTimeSeriesPair:
    def test_defaults_identity_covariance(self):
        pair = TimeSeriesPair([1.0, 2.0], [3.0])
        assert pair.n == 2 and pair.m == 1
        assert np.array_equal(pair.sigma_x, np.eye(2))

    def test_rejects_asymmetric_covariance(self):
        bad = np.array([[1.0, 0.5], [0.1, 1.0]])
        with pytest.raises(ValueError, match="symmetric"):
            TimeSeriesPair([0.0, 1.0], [0.0], sigma_x=bad)

    def test_symmetry_is_relative_to_the_largest_entry(self):
        # An asymmetry far below an absolute 1e-10 still fails at a tiny scale.
        bad = 1e-12 * np.array([[1.0, 0.5], [0.0, 1.0]])
        with pytest.raises(ValueError, match="symmetric"):
            TimeSeriesPair([0.0, 1.0], [0.0], sigma_x=bad)
        # A roundoff-sized relative asymmetry passes at a large scale.
        a = np.random.default_rng(0).normal(size=(3, 3))
        cov = 1e12 * (a @ a.T + np.eye(3))
        cov[0, 1] *= 1.0 + 1e-15
        assert abs(cov[0, 1] - cov[1, 0]) > 1e-10
        TimeSeriesPair(np.zeros(3), [0.0], sigma_x=cov)

    def test_rejects_indefinite_covariance(self):
        bad = np.array([[1.0, 2.0], [2.0, 1.0]])
        with pytest.raises(ValueError, match="positive definite"):
            TimeSeriesPair([0.0, 1.0], [0.0], sigma_x=bad)

    def test_rejects_empty_series(self):
        with pytest.raises(ValueError):
            TimeSeriesPair([], [1.0])

    def test_rejects_two_dimensional_series(self):
        with pytest.raises(ValueError, match="series must be one-dimensional"):
            TimeSeriesPair(np.zeros((2, 2)), [1.0])

    def test_rejects_covariance_of_the_wrong_shape(self):
        with pytest.raises(ValueError, match=r"sigma_x must be 2x2, got \(3, 3\)"):
            TimeSeriesPair([0.0, 1.0], [0.0], sigma_x=np.eye(3))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_values(self, bad):
        with pytest.raises(ValueError, match="series x has a non-finite value"):
            TimeSeriesPair([0.0, bad, 1.0], [0.0, 1.0])
        with pytest.raises(ValueError, match="series y has a non-finite value"):
            TimeSeriesPair([0.0, 1.0], [bad])

    def test_quadratic_form_matches_dense(self):
        rng = np.random.default_rng(0)
        A = rng.normal(size=(3, 3))
        sx = A @ A.T + np.eye(3)
        pair = TimeSeriesPair(rng.normal(size=3), rng.normal(size=2), sigma_x=sx)
        v = rng.normal(size=5)
        sigma = np.block([[sx, np.zeros((3, 2))], [np.zeros((2, 3)), np.eye(2)]])
        assert pair.covariance_quadratic_form(v) == pytest.approx(v @ sigma @ v)
        np.testing.assert_allclose(pair.covariance_matvec(v), sigma @ v)


class TestAlignmentMatrix:
    def test_valid_path(self):
        M = AlignmentMatrix(2, 3, ((1, 1), (1, 2), (2, 3)))
        assert M.path == ((1, 1), (1, 2), (2, 3))
        assert path_vec(M).tolist() == [1.0, 1.0, 0.0, 0.0, 0.0, 1.0]

    @pytest.mark.parametrize(
        "path",
        [
            ((1, 2), (2, 2)),          # wrong start
            ((1, 1), (2, 1)),          # wrong end
            ((1, 1), (2, 3)),          # illegal step
            ((1, 1), (1, 1), (2, 2)),  # zero step
        ],
    )
    def test_invalid_paths(self, path):
        with pytest.raises(ValueError):
            AlignmentMatrix(2, 2, path)

    def test_invalid_dimensions_and_empty_path(self):
        for n, m in ((0, 1), (1, 0)):
            with pytest.raises(ValueError, match="alignment dimensions must be >= 1"):
                AlignmentMatrix(n, m, ((1, 1),))
        with pytest.raises(ValueError, match="empty path"):
            AlignmentMatrix(1, 1, ())

    def test_observed_path_becomes_index_arrays_once(self, monkeypatch):
        # signs, direction, sign window and the region's loss of M_obs all read
        # the alignment's one conversion; witness probes convert the paths they find
        converted, losses = [], []
        path_cells, path_loss = dtw_core._path_cells, parametric._path_loss
        monkeypatch.setattr(dtw_core, "_path_cells", lambda p: converted.append(p) or path_cells(p))
        monkeypatch.setattr(
            parametric, "_path_loss", lambda cells, terms: losses.append(cells) or path_loss(cells, terms)
        )
        rng = np.random.default_rng(58)
        M = selective_p_value(TimeSeriesPair(rng.normal(size=8), rng.normal(size=8) + 1.0)).alignment
        assert converted == [M.path]
        assert any(cells is M._cells for cells in losses)
        assert not (M._cells[0].flags.writeable or M._cells[1].flags.writeable)
        assert all("_cells" not in vars(A) for A in enumerate_alignments(3, 3))


class TestCostMatrix:
    def test_two_by_two(self):
        pair = TimeSeriesPair([1.0, 2.0], [1.0, 2.0])
        np.testing.assert_allclose(cost_matrix(pair), [[0.0, 1.0], [1.0, 0.0]])

    def test_zero_diagonal_when_equal(self):
        x = np.array([0.3, -1.2, 4.0])
        np.testing.assert_allclose(np.diag(cost_matrix(TimeSeriesPair(x, x))), 0.0)

    def test_matches_double_loop(self):
        rng = np.random.default_rng(1)
        pair = TimeSeriesPair(rng.normal(size=3), rng.normal(size=4))
        C = cost_matrix(pair)
        for i in range(3):
            for j in range(4):
                assert C[i, j] == (pair.x[i] - pair.y[j]) ** 2


class TestEnumeration:
    def test_counts(self):
        assert len(enumerate_alignments(2, 2)) == 3
        assert len(enumerate_alignments(1, 5)) == 1
        assert len(enumerate_alignments(3, 3)) == 13

    def test_delannoy_recurrence(self):
        for a in range(1, 7):
            for b in range(1, 7):
                assert delannoy(a, b) == delannoy(a - 1, b) + delannoy(a, b - 1) + delannoy(
                    a - 1, b - 1
                )

    def test_delannoy_rejects_negative_arguments(self):
        for a, b in ((-1, 0), (0, -1)):
            with pytest.raises(ValueError, match="arguments must be non-negative"):
                delannoy(a, b)

    def test_counts_match_delannoy(self):
        for n, m in [(2, 4), (3, 5), (4, 4)]:
            assert len(enumerate_alignments(n, m)) == delannoy(n - 1, m - 1)

    def test_size_guard(self):
        with pytest.raises(ValueError, match="too large to enumerate"):
            enumerate_alignments(30, 30)

    def test_paths_unique(self):
        paths = [M.path for M in enumerate_alignments(3, 4)]
        assert len(paths) == len(set(paths))


class TestDtw:
    def test_identical_series(self):
        M, dist = dtw(TimeSeriesPair([0.0, 1.0, 2.0], [0.0, 1.0, 2.0]))
        assert dist == 0.0
        assert M.path == ((1, 1), (2, 2), (3, 3))

    def test_single_cell(self):
        M, dist = dtw(TimeSeriesPair([0.0], [3.0]))
        assert dist == 9.0
        assert M.path == ((1, 1),)

    def test_matches_brute_force(self):
        for t in range(20):
            rng = np.random.default_rng(t)
            pair = TimeSeriesPair(rng.normal(size=4), rng.normal(size=4))
            _, dist = dtw(pair)
            assert dist == pytest.approx(brute_force_distance(pair), rel=1e-9)

    def test_brute_force_sweep_across_shapes(self):
        rng = np.random.default_rng(7)
        for n, m in [(1, 1), (1, 6), (2, 3), (3, 5), (5, 2), (4, 4)]:
            pair = TimeSeriesPair(rng.normal(size=n), rng.normal(size=m))
            M, dist = dtw(pair)
            assert dist == pytest.approx(brute_force_distance(pair), rel=1e-9)
            assert dist == pytest.approx(path_cost(M, cost_matrix(pair)), rel=1e-12)


class TestBellmanPath:
    @pytest.mark.parametrize("n, m", [(1, 1), (1, 5), (5, 1), (2, 4), (3, 3), (4, 2), (5, 5)])
    def test_matches_enumeration_and_dtw(self, n, m):
        for seed in range(4):
            rng = np.random.default_rng([n, m, seed])
            x, y = rng.normal(size=n), rng.normal(size=m)
            if seed % 2:
                x, y = np.round(x), np.round(y)  # ties
            pair = TimeSeriesPair(x, y)
            path, table = bellman_path(x, y)
            cost = table[-1][-1]
            M = AlignmentMatrix(n, m, path)  # validates the path
            assert path_cost(M, cost_matrix(pair)) == pytest.approx(cost, rel=1e-12)
            assert abs(cost - brute_force_distance(pair)) <= 1e-12 * cost
            M_dtw, cost_dtw = dtw(pair)
            assert M_dtw == M
            assert cost.hex() == cost_dtw.hex()


def path_has_tie(x, y):
    """Whether the Bellman traceback of ``x, y`` meets a tied minimum on its way back."""
    path, table = bellman_path(x, y)
    for i, j in path[1:]:
        i, j = i - 1, j - 1
        if i and j:
            d, v, h = table[i - 1][j - 1], table[i - 1][j], table[i][j - 1]
            if (d, v, h).count(min(d, v, h)) > 1:
                return True
    return False


def assert_matches_oracle(xs, ys):
    """Each row of ``bellman_abs_sums`` hex-equal to the scalar oracle."""
    got = bellman_abs_sums(xs, ys)
    assert got.shape == (len(xs),)
    want = [abs_alignment_statistic(x, y).hex() for x, y in zip(xs, ys)]
    assert [value.hex() for value in got] == want


class TestBellmanAbsSums:
    """The batched wavefront against the scalar solve, bit for bit."""

    @pytest.mark.parametrize("decimals", [None, 1, 0])
    def test_matches_scalar_oracle(self, decimals):
        rng = np.random.default_rng(0 if decimals is None else 1 + decimals)
        ties = 0
        for n in range(1, 13):
            for m in range(1, 13):
                xs, ys = rng.normal(size=(5, n)), rng.normal(size=(5, m))
                if decimals is not None:
                    xs, ys = np.round(xs, decimals), np.round(ys, decimals)
                got = bellman_abs_sums(xs, ys)
                assert got.shape == (5,)
                for r in range(5):
                    assert got[r].hex() == abs_alignment_statistic(xs[r], ys[r]).hex(), (n, m, r)
                    ties += path_has_tie(xs[r], ys[r])
        if decimals is not None:
            assert ties > 50  # the tie-break is exercised, not just the minimum

    def test_vertical_tie_beats_horizontal(self):
        # At the last cell the vertical and horizontal predecessors tie (13)
        # below the diagonal one (17).  Bellman steps up, and the path it
        # leaves sums to 9; stepping left would give 7.
        x, y = np.array([0.0, 1.0, -2.0]), np.array([-2.0, -2.0, -2.0, 0.0])
        path, _ = bellman_path(x, y)
        assert path[-2:] == ((2, 4), (3, 4))
        assert bellman_abs_sums(x[None], y[None]).tolist() == [9.0]

    @pytest.mark.parametrize("decimals", [None, 1])
    def test_permutation_stack(self, decimals):
        # the benchmark's shape, stacked the way permutation_test stacks it
        rng = np.random.default_rng(7)
        x, y = rng.normal(size=30), rng.normal(size=30)
        if decimals is not None:
            x, y = np.round(x, decimals), np.round(y, decimals)
        swap = rng.random((201, 30)) < 0.5
        swap[0] = False
        assert_matches_oracle(np.where(swap, y, x), np.where(swap, x, y))

    @pytest.mark.parametrize("n, m", [(7, 19), (19, 7), (2, 40), (40, 2), (13, 29)])
    @pytest.mark.parametrize("decimals", [None, 0])
    def test_rectangular_stacks(self, n, m, decimals):
        rng = np.random.default_rng([n, m])
        xs, ys = rng.normal(size=(64, n)), rng.normal(size=(64, m))
        if decimals is not None:
            xs, ys = np.round(xs, decimals), np.round(ys, decimals)
        assert_matches_oracle(xs, ys)

    @pytest.mark.parametrize("n, m", [(1, 1), (1, 7), (7, 1), (4, 9), (30, 30)])
    def test_one_row(self, n, m):
        rng = np.random.default_rng([n, m, 1])
        for decimals in (None, 0):
            x, y = rng.normal(size=(1, n)), rng.normal(size=(1, m))
            if decimals is not None:
                x, y = np.round(x), np.round(y)
            assert_matches_oracle(x, y)

    def test_strided_inputs(self):
        # the kernel copies its inputs; each layout must give the same sums
        rng = np.random.default_rng(11)
        wide_x, wide_y = np.round(rng.normal(size=(40, 18)), 1), np.round(rng.normal(size=(40, 22)), 1)
        layouts = {
            "C order": (np.ascontiguousarray(wide_x[:, :9]), np.ascontiguousarray(wide_y[:, :11])),
            "Fortran order": (np.asfortranarray(wide_x[:, :9]), np.asfortranarray(wide_y[:, :11])),
            "column slices": (wide_x[:, ::2], wide_y[:, 1::2]),
            "transposed": (np.ascontiguousarray(wide_x[:, :9].T).T, np.ascontiguousarray(wide_y[:, :11].T).T),
            "reversed": (wide_x[::-1, 8::-1], wide_y[::-1, 10::-1]),
        }
        for name, (xs, ys) in layouts.items():
            assert xs.shape == (40, 9) and ys.shape == (40, 11), name
            assert_matches_oracle(xs, ys)

    @pytest.mark.parametrize("n, m", [(6, 6), (9, 5), (5, 9), (30, 30)])
    def test_finished_rows_stay_at_the_origin(self, n, m):
        # Constant series give the shortest path (max(n, m) cells, every tie
        # taken diagonally); the staircase rows give the longest one Bellman
        # can leave, n + m - 2 cells, because two straight runs never meet at
        # a corner: the diagonal step across it costs no more and wins ties.
        rng = np.random.default_rng([n, m, 2])
        xs, ys, lengths = [], [], []
        for r in range(24):
            a = np.round(rng.normal(), 1)
            b = a + 1.0
            if r % 3 == 0:
                x, y = np.full(n, a), np.full(m, a)
            elif r % 3 == 1:
                x, y = np.r_[a, np.full(n - 1, b)], np.r_[np.full(m - 1, a), b]
            else:
                x, y = rng.normal(size=n), rng.normal(size=m)
            xs.append(x)
            ys.append(y)
            lengths.append(len(bellman_path(x, y)[0]))
        assert set(lengths[0::3]) == {max(n, m)}
        assert set(lengths[1::3]) == {n + m - 2}
        xs, ys = np.array(xs), np.array(ys)
        assert_matches_oracle(xs, ys)
        assert_matches_oracle(xs[0::3], ys[0::3])  # all rows done after max(n, m) cells

    @pytest.mark.parametrize("n, m", [(1, 9), (9, 1), (1, 30), (30, 1)])
    def test_one_series_of_length_one(self, n, m):
        # the path is a single straight run of n + m - 1 cells along an edge
        rng = np.random.default_rng([n, m, 3])
        for decimals in (None, 0):
            xs, ys = rng.normal(size=(50, n)), rng.normal(size=(50, m))
            if decimals is not None:
                xs, ys = np.round(xs), np.round(ys)
            assert_matches_oracle(xs, ys)

    @pytest.mark.parametrize("n, m", [(4, 9), (9, 4), (6, 5)])
    def test_overflowing_squares_keep_the_scalar_path(self, n, m):
        # Squared differences overflow to infinity.  A huge first value makes
        # every entry infinite, so all neighbours tie and the walk runs along
        # the first row or column; an infinite entry must still beat the
        # grid's edge there.
        rng = np.random.default_rng([n, m, 4])
        xs, ys = rng.normal(size=(16, n)), rng.normal(size=(16, m))
        xs[0::4, 0] = 1e200
        ys[1::4, 0] = -1e200
        xs[2::4] *= 1e154
        ys[3::4, -1] = 1e200
        with np.errstate(over="ignore"):
            assert_matches_oracle(xs, ys)

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(1, 12),
        st.integers(1, 12),
        st.integers(1, 9),
        st.sampled_from([None, 1, 0]),
        st.integers(0, 10_000),
    )
    def test_property_matches_scalar_oracle(self, n, m, rows, decimals, seed):
        rng = np.random.default_rng(seed)
        xs, ys = rng.normal(size=(rows, n)), rng.normal(size=(rows, m))
        if decimals is not None:
            xs, ys = np.round(xs, decimals), np.round(ys, decimals)
        assert_matches_oracle(xs, ys)

    @pytest.mark.parametrize(
        "xs_shape, ys_shape, message",
        [
            ((5, 4), (1, 4), "as many rows"),
            ((1, 4), (5, 4), "as many rows"),
            ((4,), (4,), "2-D"),
            ((3, 4), (4,), "2-D"),
            ((2, 3, 4), (2, 3, 4), "2-D"),
            ((3, 0), (3, 4), "length"),
            ((3, 4), (3, 0), "length"),
        ],
    )
    def test_rejects_bad_shapes(self, xs_shape, ys_shape, message):
        with pytest.raises(ValueError, match=message):
            bellman_abs_sums(np.zeros(xs_shape), np.zeros(ys_shape))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_values(self, bad):
        xs, ys = np.zeros((3, 4)), np.zeros((3, 5))
        xs[1, 2] = bad
        with pytest.raises(ValueError, match="finite"):
            bellman_abs_sums(xs, ys)
        with pytest.raises(ValueError, match="finite"):
            bellman_abs_sums(ys, xs)

    def test_no_rows_give_an_empty_result(self):
        got = bellman_abs_sums(np.zeros((0, 4)), np.zeros((0, 3)))
        assert got.shape == (0,) and got.dtype == float


def wavefront_tables(costs):
    """``_bellman_wavefront`` on an ``(n, m, rows)`` stack of costs, as per-row nested lists of hex."""
    n, m, rows = costs.shape

    def diagonal(k, lo, hi):
        i = np.arange(lo, hi + 1)
        return costs[i, k - i]

    table = _bellman_wavefront(diagonal, n, m, rows)
    i, j = np.indices((n, m))
    cells = table[i + j + 2, i + 1]  # (n, m, rows)
    return [[[v.hex() for v in row] for row in cells[:, :, r].tolist()] for r in range(rows)]


def scalar_tables(costs):
    """``_accumulated_cost`` of each row of an ``(n, m, rows)`` stack of costs, as hex."""
    return [
        [[v.hex() for v in row] for row in _accumulated_cost(costs[:, :, r].tolist())]
        for r in range(costs.shape[2])
    ]


def square_costs(rng, n, m, rows, decimals=None, scale=1.0):
    """Squared differences of random series: ``(n, m, rows)``, with ties and zeros when rounded."""
    x, y = rng.normal(size=(2, rows, max(n, m)))
    if decimals is not None:
        x, y = np.round(x, decimals), np.round(y, decimals)
    d = scale * (x[:, :n, None] - y[:, None, :m])
    with np.errstate(over="ignore"):
        return np.moveaxis(d * d, 0, -1)


class TestBellmanWavefront:
    """The shared stacked fill against the scalar recursion, table entry by table entry."""

    @pytest.mark.parametrize("n, m", [(1, 1), (1, 7), (7, 1), (2, 9), (9, 2), (12, 12)])
    def test_edges_of_the_grid(self, n, m):
        costs = square_costs(np.random.default_rng([n, m]), n, m, 5)
        assert wavefront_tables(costs) == scalar_tables(costs)

    def test_costs_near_overflow(self):
        # single squares near the largest float, sums that overflow to inf
        costs = square_costs(np.random.default_rng(3), 6, 5, 16, scale=1e154)
        with np.errstate(over="ignore"):
            costs[:, :, ::3] *= 1e10  # whole rows of infinite squares
            assert wavefront_tables(costs) == scalar_tables(costs)
        assert np.isinf(costs).any() and not np.isinf(costs).all()

    @pytest.mark.parametrize("n, m", [(1, 1), (1, 7), (7, 1), (2, 9), (9, 2), (12, 12), (5, 30)])
    def test_unset_padding_is_never_read(self, poison_empty, n, m):
        # only the column i = -1 and the cells j = -1 are padded; with every
        # other entry -inf before the fill, the tables and sums must not move
        rng = np.random.default_rng([n, m, 2])
        costs = square_costs(rng, n, m, 5, decimals=0)
        xs, ys = np.round(rng.normal(size=(9, n)), 1), np.round(rng.normal(size=(9, m)), 1)
        tables, sums = scalar_tables(costs), bellman_abs_sums(xs, ys)
        poison_empty()
        assert wavefront_tables(costs) == tables
        assert [v.hex() for v in bellman_abs_sums(xs, ys)] == [v.hex() for v in sums]

    @pytest.mark.parametrize("n, m", [(1, 1), (1, 7), (7, 1), (2, 9), (9, 2), (12, 12), (5, 30)])
    def test_tables_view(self, n, m):
        # in place from a C-contiguous stack, after one copy from any other
        costs = square_costs(np.random.default_rng([n, m, 3]), n, m, 5, decimals=1)
        for stack in (costs, np.ascontiguousarray(costs)):
            tables = bellman_tables(stack)
            assert tables.shape == (n, m, 5) and not tables.flags.writeable
            got = [[[v.hex() for v in row] for row in tables[:, :, r].tolist()] for r in range(5)]
            assert got == scalar_tables(costs)

    @settings(max_examples=80, deadline=None)
    @given(
        st.integers(1, 12),
        st.integers(1, 12),
        st.integers(1, 16),
        st.sampled_from([None, 1, 0]),
        st.sampled_from([1.0, 1e150, 1e154]),
        st.integers(0, 10_000),
    )
    def test_property_matches_accumulated_cost(self, n, m, rows, decimals, scale, seed):
        costs = square_costs(np.random.default_rng(seed), n, m, rows, decimals, scale)
        if seed % 2:  # zeroed runs, as least costs have where a cell's cost can vanish
            costs[np.random.default_rng(seed).random(costs.shape) < 0.3] = 0.0
        with np.errstate(over="ignore"):
            assert wavefront_tables(costs) == scalar_tables(costs)


class TestOmega:
    def test_row_entries(self):
        O = omega_matrix(2, 2)
        x = np.array([1.0, 2.0, 10.0, 20.0])
        np.testing.assert_allclose(O @ x, [1 - 10, 1 - 20, 2 - 10, 2 - 20])

    def test_rows_have_one_plus_one_minus(self):
        O = omega_matrix(3, 4)
        assert ((O == 1).sum(axis=1) == 1).all()
        assert ((O == -1).sum(axis=1) == 1).all()
        assert (O.sum(axis=1) == 0).all()

    def test_apply_matches_double_loop(self):
        rng = np.random.default_rng(2)
        v = rng.normal(size=5)
        n, m = 2, 3
        want = [v[i] - v[n + j] for i in range(n) for j in range(m)]
        np.testing.assert_allclose(omega_matrix(n, m) @ v, want)


class TestPathDifferences:
    def test_hand_case(self):
        M = AlignmentMatrix(2, 3, ((1, 1), (1, 2), (2, 3)))
        v = np.array([1.0, 2.0, 10.0, 20.0, 30.0])
        assert path_differences(M, v).tolist() == [1 - 10, 1 - 20, 2 - 30]

    def test_matches_dense_map_on_the_path(self):
        for pair in random_pairs(30, seed=8):
            M, _ = dtw(pair)
            v = pair.stacked()
            dense = omega_matrix(pair.n, pair.m) @ v
            # the same subtraction, scattered: bit-identical on the path, zero off it
            assert np.array_equal(
                scatter_path(M, path_differences(M, v)), path_vec(M) * dense
            )

    def test_stack_gives_each_vector_its_row(self):
        M = AlignmentMatrix(3, 2, ((1, 1), (2, 1), (3, 2)))
        vs = np.random.default_rng(4).normal(size=(2, 5))
        got = path_differences(M, vs)
        assert got.shape == (2, 3)
        for row, v in zip(got, vs):
            assert row.tolist() == path_differences(M, v).tolist()

    @pytest.mark.parametrize("size", [3, 7])
    def test_wrong_length_rejected(self, size):
        M = AlignmentMatrix(2, 2, ((1, 1), (2, 2)))
        with pytest.raises(ValueError, match=rf"n \+ m = 4, got shape \({size},\)"):
            path_differences(M, np.zeros(size))


class TestSignVector:
    def test_hand_case(self):
        M = AlignmentMatrix(2, 2, ((1, 1), (2, 2)))
        pair = TimeSeriesPair([1.0, 3.0], [0.0, 5.0])
        assert sign_vector(M, pair).tolist() == [1.0, -1.0]

    def test_zero_on_equal_entries(self):
        x = np.array([0.5, 0.5, 2.0])
        M, _ = dtw(TimeSeriesPair(x, x))
        assert not sign_vector(M, TimeSeriesPair(x, x)).any()

    def test_zero_exactly_off_path_or_ties(self):
        rng = np.random.default_rng(3)
        pair = TimeSeriesPair(rng.normal(size=3), rng.normal(size=4))
        M, _ = dtw(pair)
        s = sign_vector(M, pair)
        assert s.shape == (len(M.path),)
        for (i, j), sk in zip(M.path, s):
            diff = pair.x[i - 1] - pair.y[j - 1]
            assert sk == (0.0 if diff == 0.0 else np.sign(diff))


class TestTestDirection:
    def test_hand_case(self):
        M = AlignmentMatrix(2, 2, ((1, 1), (2, 2)))
        d = direction_of(M, np.array([1.0, 1.0]))
        np.testing.assert_allclose(d.eta, [1.0, 1.0, -1.0, -1.0])

    def test_zero_signs_give_zero_direction(self):
        M = AlignmentMatrix(2, 2, ((1, 1), (2, 2)))
        assert not direction_of(M, np.zeros(2)).eta.any()

    def test_matches_dense_formula(self):
        # eta counts signs, so the sparse and dense sums agree exactly
        for pair in random_pairs(40, seed=9):
            M, _ = dtw(pair)
            s = sign_vector(M, pair)
            dense = (path_vec(M) @ np.diag(scatter_path(M, s)) @ omega_matrix(pair.n, pair.m)).T
            assert np.array_equal(direction_of(M, s).eta, dense)

    def test_matches_per_cell_loop(self):
        """Hex-equal to the per-cell loop on random paths, 1 x m and n x 1 among them."""
        rng = np.random.default_rng(30)
        seen = set()
        for k in range(300):
            n, m = (int(v) for v in rng.integers(1, 13, size=2))
            n, m = (1 if k % 5 == 0 else n), (1 if k % 5 == 1 else m)
            M = AlignmentMatrix(n, m, oracles.random_path(rng, n, m))
            s = np.sign(path_differences(M, oracles.zero_rich_data(rng, n + m, k % 3)))
            eta = direction_of(M, s).eta
            want = oracles.direction_eta(M, s)
            assert [v.hex() for v in eta.tolist()] == [v.hex() for v in want.tolist()]
            if (s == 0.0).any():
                seen.add("zero sign")
            if ((eta == 0.0) & (oracles.direction_eta(M, np.abs(s)) != 0.0)).any():
                seen.add("signs that cancel")
        assert seen == {"zero sign", "signs that cancel"}

    def test_length_mismatch(self):
        M = AlignmentMatrix(2, 2, ((1, 1), (2, 2)))
        with pytest.raises(ValueError, match="length 2"):
            direction_of(M, np.zeros(3))
        # the dense row-major length is rejected too
        with pytest.raises(ValueError, match="length 2"):
            direction_of(M, np.zeros(4))


class TestTestStatistic:
    def test_zero_for_identical(self):
        x = np.array([1.0, 2.0, 3.0])
        pair = TimeSeriesPair(x, x)
        M, _ = dtw(pair)
        assert statistic_of(direction_of(M, sign_vector(M, pair)), pair) == 0.0

    def test_shifted_constant(self):
        pair = TimeSeriesPair([0.0, 0.0], [1.0, 1.0])
        M, _ = dtw(pair)
        assert M.path == ((1, 1), (2, 2))
        t = statistic_of(direction_of(M, sign_vector(M, pair)), pair)
        assert t == pytest.approx(2.0)

    def test_equals_absolute_path_sum(self):
        for t in range(15):
            rng = np.random.default_rng(100 + t)
            pair = TimeSeriesPair(rng.normal(size=4), rng.normal(size=6))
            M, _ = dtw(pair)
            stat = statistic_of(direction_of(M, sign_vector(M, pair)), pair)
            want = sum(abs(pair.x[i - 1] - pair.y[j - 1]) for i, j in M.path)
            assert stat == pytest.approx(want, abs=1e-10)
            assert stat >= 0.0

    def test_dimension_mismatch(self):
        pair = TimeSeriesPair([0.0, 1.0], [0.0])
        M = AlignmentMatrix(2, 2, ((1, 1), (2, 2)))
        with pytest.raises(ValueError, match="direction has length 4"):
            statistic_of(direction_of(M, np.zeros(2)), pair)


class TestInvariants:
    def test_sign_reconstruction_nonnegative_on_path(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            pair = TimeSeriesPair(rng.normal(size=5), rng.normal(size=4))
            M, _ = dtw(pair)
            s = sign_vector(M, pair)
            rebuilt = s * path_differences(M, pair.stacked())
            assert (rebuilt >= 0.0).all()

    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(1, 4),
        st.integers(1, 4),
        st.integers(0, 10_000),
    )
    def test_dtw_path_valid_and_optimal(self, n, m, seed):
        rng = np.random.default_rng(seed)
        pair = TimeSeriesPair(rng.normal(size=n), rng.normal(size=m))
        M, dist = dtw(pair)
        assert M.path[0] == (1, 1) and M.path[-1] == (n, m)
        assert dist == pytest.approx(brute_force_distance(pair), rel=1e-9)
