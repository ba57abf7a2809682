"""Tests for the comparison methods."""

import math
from dataclasses import dataclass

import numpy as np
import pytest

from dtwsi import baselines, dtw_core, inference
from dtwsi.baselines import (
    _si_dtw_oc_constraints,
    data_splitting_test,
    permutation_test,
    si_dtw_oc_p_value,
    si_dtw_oc_region,
)
from dtwsi.dtw_core import (
    TimeSeriesPair,
    _accumulated_cost,
    bellman_path,
    bellman_predecessor,
    cost_matrix,
    dtw,
    enumerate_alignments,
    sign_vector,
)
from dtwsi.dtw_core import test_direction as direction_of
from dtwsi.inference import (
    DegenerateDirectionError,
    nuisance_decomposition,
    selective_p_value,
    z2_region,
)
from dtwsi.intervals import (
    CURVATURE_SNAP,
    IntervalUnion,
    solve_quadratic_leq,
    solve_quadratic_system,
)
from dtwsi.parametric import TANGENCY_TOL, DataLine, _crossing_root, quadratic_loss
from dense_views import abs_alignment_statistic, path_cost
import oracles

INF = math.inf


@dataclass(frozen=True)
class QuadraticConstraint:
    """A constraint ``w' A w <= 0`` on the stacked data vector ``w``.

    The dense reference for ``_si_dtw_oc_constraints``: ``A`` is symmetric, and
    restricted to a line ``w = a + b z`` the constraint becomes
    ``(b'Ab) z^2 + (2 a'Ab) z + (a'Aa) <= 0``.
    """

    A: np.ndarray

    def __post_init__(self):
        A = np.asarray(self.A, dtype=float)
        if A.ndim != 2 or A.shape[0] != A.shape[1]:
            raise ValueError("constraint matrix must be square")
        if not np.all(np.abs(A - A.T) <= 1e-10):
            raise ValueError("constraint matrix is not symmetric within 1e-10")
        object.__setattr__(self, "A", A)

    @classmethod
    def from_paths(cls, favored, other, n, m):
        """Loss-difference form: cells of ``favored`` minus cells of ``other``.

        Each cell ``(i, j)`` contributes the rank-one square of the difference
        of unit vectors picking ``x_i`` and ``y_j``.
        """
        A = np.zeros((n + m, n + m))
        for cells, sign in ((favored, 1.0), (other, -1.0)):
            for i, j in cells:
                e = np.zeros(n + m)
                e[i - 1] = 1.0
                e[n + j - 1] = -1.0
                A += sign * np.outer(e, e)
        return cls(A)

    def restrict_to_line(self, line):
        """Coefficients ``(alpha, beta, gamma)`` of the constraint along the line."""
        Ab = self.A @ line.b
        return float(line.b @ Ab), float(2.0 * line.a @ Ab), float(line.a @ self.A @ line.a)


def observed_line(pair):
    M, _ = dtw(pair)
    d = direction_of(M, sign_vector(M, pair))
    return M, d, nuisance_decomposition(pair, d)


def bellman_table(pair):
    """The pair's Bellman table, the input of ``_si_dtw_oc_constraints``."""
    return _accumulated_cost(cost_matrix(pair).tolist())


class TestSolveQuadraticLeq:
    def test_constant_cases(self):
        assert solve_quadratic_leq(0.0, 0.0, -1.0) == IntervalUnion.real_line()
        assert solve_quadratic_leq(0.0, 0.0, 0.0) == IntervalUnion.real_line()
        assert solve_quadratic_leq(0.0, 0.0, 2.0).is_empty

    def test_linear_cases(self):
        assert solve_quadratic_leq(0.0, 2.0, -4.0).intervals == ((-INF, 2.0),)
        assert solve_quadratic_leq(0.0, -2.0, -4.0).intervals == ((-2.0, INF),)

    def test_upward_parabola(self):
        # z^2 - 1 <= 0 on [-1, 1]
        region = solve_quadratic_leq(1.0, 0.0, -1.0)
        assert region.intervals == ((-1.0, 1.0),)
        assert solve_quadratic_leq(1.0, 0.0, 1.0).is_empty

    def test_downward_parabola(self):
        # -z^2 + 1 <= 0 outside (-1, 1)
        region = solve_quadratic_leq(-1.0, 0.0, 1.0)
        assert region.intervals == ((-INF, -1.0), (1.0, INF))
        assert solve_quadratic_leq(-1.0, 0.0, -1.0) == IntervalUnion.real_line()

    def test_roots_match_numpy(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            alpha, beta, gamma = rng.normal(size=3)
            region = solve_quadratic_leq(alpha, beta, gamma)
            roots = np.roots([alpha, beta, gamma])
            real = sorted(r.real for r in roots if abs(r.imag) < 1e-12)
            endpoints = sorted(
                x for lo, hi in region for x in (lo, hi) if math.isfinite(x)
            )
            for e in endpoints:
                assert min(abs(e - r) for r in real) < 1e-8 * max(1.0, abs(e))

    def test_tiny_curvature_snaps_to_linear(self):
        region = solve_quadratic_leq(1e-15, 2.0, -4.0)
        assert region.intervals == ((-INF, 2.0),)

    def test_crossing_root_shares_the_roots(self):
        # one root formula: the envelope's crossings are the ends the solver
        # returns, and the system's array form returns them too
        rng = np.random.default_rng(38)
        compared = dict.fromkeys((0, 1, 3), 0)
        for k in range(2000):
            kind = k % 4
            if kind == 0:
                a, b, c = rng.normal(size=3)
            elif kind == 1:  # beta = +-0.0
                (a, c), b = rng.normal(size=2), float(rng.choice([0.0, -0.0]))
            elif kind == 2:  # a double root, disc = 0 exactly: beta = -0.0 when a > 0 and r = 0
                a = float(rng.choice([-2.0, -1.0, -0.5, 0.5, 1.0, 2.0]))
                r = int(rng.integers(-8, 9)) / 4.0
                b, c = -2.0 * a * r, a * r * r
            else:  # coefficients near 1e-150, 1 and 1e150
                a, b, c = rng.normal(size=3) * 10.0 ** rng.choice([-150, 0, 150], size=3)
            a, b, c = float(a), float(b), float(c)
            region = solve_quadratic_leq(a, b, c)
            assert hex_pieces(region) == hex_pieces(solve_quadratic_system([(a, b, c)]))
            cross = _crossing_root(a, b, c, -INF)
            if b * b - 4.0 * a * c <= TANGENCY_TOL:  # every double root, among others
                assert cross == INF
                continue
            assert kind != 2
            if abs(a) > CURVATURE_SNAP * max(1.0, abs(b), abs(c)) and len(region) == 1 + (a < 0):
                # a > 0: [r1, r2], crossed at r2; a < 0: (-inf, r1] u [r2, inf), crossed at r1
                assert cross.hex() == region.intervals[0][1].hex()
                compared[kind] += 1
        assert min(compared[0], compared[1], compared[3]) >= 100


def sequential_solution(constraints):
    """The common solution set, one ``solve_quadratic_leq`` intersection at a time."""
    region = IntervalUnion.real_line()
    for c in constraints:
        region = region.intersect(solve_quadratic_leq(*c))
    return region


def hex_pieces(region):
    return [(lo.hex(), hi.hex()) for lo, hi in region]


def holes(*roots):
    """Concave rows ``-(z - r1)(z - r2) <= 0``: each cuts the open hole ``(r1, r2)``."""
    return [(-1.0, r1 + r2, -r1 * r2) for r1, r2 in roots]


BOX = [(1.0, -4.0, 0.0)]  # z^2 - 4z <= 0: [0, 4]

HAND_MADE = {
    "no rows": [],
    "beta 0, gamma > 0": [(0.0, 0.0, 1.0), (1.0, 0.0, -4.0)],
    "beta 0, gamma <= 0": [(0.0, 0.0, -1.0), (0.0, 0.0, 0.0), (1.0, 0.0, -4.0)],
    "linear bounds": [(0.0, 2.0, -4.0), (0.0, -1.0, -3.0), (1e-15, 1.0, -1.0)],
    "convex, disc < 0": BOX + [(1.0, 0.0, 1.0)],
    "concave, disc < 0": BOX + [(-1.0, 0.0, -1.0)],
    "convex rows disjoint": BOX + [(1.0, -11.0, 30.0)],
    "zero-width hole": BOX + holes((1.0, 1.0)),
    "q = 0, convex": [(1.0, 0.0, 0.0)],
    "q = 0, concave": BOX + [(-1.0, 0.0, 0.0)],
    "touching holes": BOX + holes((2.0, 3.0), (1.0, 2.0)),
    "overlapping and nested holes": BOX + holes((1.0, 2.5), (2.0, 3.0), (1.5, 1.75)),
    "holes at the ends": BOX + holes((0.0, 1.0), (3.0, 4.0)),
    "holes outside [L, U]": BOX + holes((-3.0, -2.0), (-1.0, 0.5), (3.5, 5.0), (6.0, 7.0)),
    "hole covering [L, U]": BOX + holes((-1.0, 5.0)),
    "holes without bounds": holes((1.0, 2.0), (2.0, 3.0), (-5.0, -4.0)),
    "holes sharing a start": BOX
    + holes((1.0, 2.0), (1.0, 3.0), (1.0, 1.5), (-1.0, 0.5), (-1.0, 0.25), (3.5, 3.75), (3.5, 3.6)),
    "NaN offset on a flat row": BOX + [(-1e-20, 0.0, math.nan)],
}


class TestQuadraticSystem:
    @pytest.mark.parametrize("name", sorted(HAND_MADE))
    def test_hand_made_sets_match_sequential(self, name):
        constraints = HAND_MADE[name]
        assert hex_pieces(solve_quadratic_system(constraints)) == hex_pieces(
            sequential_solution(constraints)
        )

    def test_touching_holes_keep_their_common_point(self):
        region = solve_quadratic_system(HAND_MADE["touching holes"])
        assert region.intervals == ((0.0, 1.0), (2.0, 2.0), (3.0, 4.0))

    def test_holes_sharing_a_start_open_one_piece(self):
        region = solve_quadratic_system(HAND_MADE["holes sharing a start"])
        assert region.intervals == ((0.5, 1.0), (3.0, 3.5), (3.75, 4.0))

    @pytest.mark.parametrize(
        "rows",
        [
            [(1.0, -4.0, 0.0), (math.nan, 0.0, 0.0)],  # NaN curvature
            [(1.0, -4.0, 0.0), (0.0, math.nan, 0.0)],  # linear, NaN slope
            [(1.0, -4.0, 0.0), (0.0, math.inf, math.inf)],  # linear root inf / inf
            [(1.0, -4.0, 0.0), (1.0, math.inf, math.inf)],  # discriminant inf - inf
            [(0.0, 0.0, 1.0), (-1.0, 0.0, math.nan)],  # an empty row before it
        ],
    )
    def test_nan_root_raises_as_one_row_at_a_time(self, rows):
        with pytest.raises(ValueError, match="NaN"):
            sequential_solution(rows)
        with np.errstate(all="ignore"), pytest.raises(ValueError, match="row 1 has a NaN root"):
            solve_quadratic_system(rows)

    def test_only_k_by_3_rows(self):
        assert solve_quadratic_system([]) == IntervalUnion.real_line()
        assert solve_quadratic_system(np.empty((0, 3))) == IntervalUnion.real_line()
        for shape in ((3, 2), (3,), (2, 3, 1), (0, 2)):
            with pytest.raises(ValueError, match=r"must be \(k, 3\) rows"):
                solve_quadratic_system(np.ones(shape))

    def test_random_root_grids_match_sequential(self):
        # roots on a coarse grid, so holes touch, nest and overlap, and ends coincide
        rng = np.random.default_rng(31)
        pieces = 0
        for _ in range(400):
            k = int(rng.integers(1, 8))
            roots = np.sort(rng.integers(-4, 5, size=(k, 2)) / 2.0, axis=1)
            sign = rng.choice([-1.0, 1.0], size=k)
            rows = [(s, -s * (r1 + r2), s * r1 * r2) for s, (r1, r2) in zip(sign, roots.tolist())]
            linear = rng.integers(-2, 3, size=(int(rng.integers(0, 3)), 2)).astype(float)
            rows += [(0.0, b, c) for b, c in linear.tolist()]
            want = sequential_solution(rows)
            assert hex_pieces(solve_quadratic_system(rows)) == hex_pieces(want)
            pieces += len(want) > 1
        assert pieces >= 40

    @pytest.mark.parametrize("decimals", [None, 1, 0])
    def test_oc_constraints_match_sequential(self, decimals):
        for seed in range(30):
            rng = np.random.default_rng([32, seed])
            n, m = (int(v) for v in rng.integers(2, 13, size=2))
            x, y = rng.normal(size=n), rng.normal(size=m)
            if decimals is not None:
                x, y = np.round(x, decimals), np.round(y, decimals)
            pair = TimeSeriesPair(x, y)
            _, _, line = observed_line(pair)
            constraints = _si_dtw_oc_constraints(bellman_table(pair), line)
            want = hex_pieces(sequential_solution(constraints))
            assert hex_pieces(si_dtw_oc_region(pair, line)) == want
            # the pipeline's builder reads the table conditioning solved
            cond = inference._condition(pair)
            on_record = hex_pieces(baselines._si_dtw_oc(cond))
            assert on_record == hex_pieces(si_dtw_oc_region(pair, cond.line))

    @pytest.mark.parametrize("decimals", [None, 1])
    def test_large_oc_systems_match_sequential(self, decimals):
        # n = m = 40: about 3,000 rows, hundreds of them holes, in one sweep
        solid = 0
        for seed in range(4):
            rng = np.random.default_rng([37, decimals or 0, seed])
            x, y = rng.normal(size=40), rng.normal(size=40)
            if decimals is not None:
                x, y = np.round(x, decimals), np.round(y, decimals)
            cond = inference._condition(TimeSeriesPair(x, y))
            rows = _si_dtw_oc_constraints(cond.table, cond.line)
            alpha, beta, gamma = rows.T
            assert np.count_nonzero((alpha < 0.0) & (beta * beta > 4.0 * alpha * gamma)) >= 300
            want = sequential_solution(rows)
            assert hex_pieces(solve_quadratic_system(rows)) == hex_pieces(want)
            solid += not want.is_empty
        assert solid >= 1

    def test_overflowing_pair_ends_in_typed_error(self):
        # at 1e160 the cell terms overflow and most rows are NaN: the system
        # raises, as one row at a time would, rather than drop them
        rng = np.random.default_rng(0)
        pair = TimeSeriesPair(rng.normal(size=6) * 1e160, rng.normal(size=6) * 1e160)
        with np.errstate(all="ignore"), pytest.raises(ValueError, match="NaN root"):
            si_dtw_oc_p_value(pair)


class TestOcConstraintRows:
    @pytest.mark.parametrize("decimals", [None, 1, 0])
    def test_rows_match_per_cell_loop(self, decimals):
        # same floats, same order: the region's zero ends take their sign
        # from the first row that has an end there
        for seed in range(40):
            rng = np.random.default_rng([34, seed])
            n, m = (int(v) for v in rng.integers(1, 13, size=2))
            x, y = rng.normal(size=n), rng.normal(size=m)
            if decimals is not None:
                x, y = np.round(x, decimals), np.round(y, decimals)
            pair = TimeSeriesPair(x, y)
            try:
                _, _, line = observed_line(pair)
            except DegenerateDirectionError:
                continue
            rows = _si_dtw_oc_constraints(bellman_table(pair), line)
            want = oracles.si_dtw_oc_constraints(pair, line)
            assert rows.shape == (len(want), 3)
            assert [[v.hex() for v in row] for row in rows.tolist()] == [
                [v.hex() for v in row] for row in want
            ]

    @pytest.mark.parametrize("n, m", [(1, 1), (1, 6), (6, 1)])
    def test_single_row_or_column_has_no_rows(self, n, m):
        rng = np.random.default_rng(35)
        pair = TimeSeriesPair(rng.normal(size=n), rng.normal(size=m))
        _, _, line = observed_line(pair)
        assert _si_dtw_oc_constraints(bellman_table(pair), line).shape == (0, 3)
        assert si_dtw_oc_region(pair, line) == IntervalUnion.real_line()

    def test_table_that_does_not_fit_the_line_is_rejected(self):
        rng = np.random.default_rng(36)
        line = DataLine(rng.normal(size=7), rng.normal(size=7), 3)
        for n in (2, 4):
            table = bellman_table(TimeSeriesPair(rng.normal(size=n), rng.normal(size=4)))
            with pytest.raises(ValueError, match=rf"table is {n}x4 but line splits 3\+4"):
                _si_dtw_oc_constraints(table, line)
        with pytest.raises(ValueError, match=r"table is 5x4 but line splits 3\+4"):
            si_dtw_oc_region(TimeSeriesPair(rng.normal(size=5), rng.normal(size=4)), line)


class TestQuadraticConstraint:
    def test_symmetry_enforced(self):
        with pytest.raises(ValueError, match="symmetric"):
            QuadraticConstraint(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_dense_route_matches_polynomial_route(self):
        # the same loss-difference computed as a quadratic form on the stacked
        # data and as a difference of per-cell polynomial accumulations
        rng = np.random.default_rng(1)
        pair = TimeSeriesPair(rng.normal(size=4), rng.normal(size=4))
        M, d, line = observed_line(pair)
        table = bellman_table(pair)
        poly = _si_dtw_oc_constraints(table, line)
        # rebuild each constraint densely from the observed sub-paths
        paths = {(0, 0): ((1, 1),)}
        for i in range(4):
            for j in range(4):
                if i or j:
                    p = bellman_predecessor(table, i, j)
                    paths[(i, j)] = paths[p] + ((i + 1, j + 1),)
        dense = []
        for i in range(1, 4):
            for j in range(1, 4):
                chosen = bellman_predecessor(table, i, j)
                for other in ((i - 1, j - 1), (i - 1, j), (i, j - 1)):
                    if other == chosen:
                        continue
                    qc = QuadraticConstraint.from_paths(paths[chosen], paths[other], 4, 4)
                    dense.append(qc.restrict_to_line(line))
        assert len(dense) == len(poly)
        for (a1, b1, g1), (a2, b2, g2) in zip(dense, poly):
            assert a1 == pytest.approx(a2, abs=1e-9)
            assert b1 == pytest.approx(b2, abs=1e-9)
            assert g1 == pytest.approx(g2, abs=1e-9)


def subproblem_optimal_everywhere(pair, line, z, tol=1e-9):
    """Direct check: every sub-problem keeps its observed optimizer at z."""
    n, m = pair.n, pair.m
    obs_cost = cost_matrix(pair)
    x, y = line.a1 + line.b1 * z, line.a2 + line.b2 * z
    for i in range(1, n + 1):
        for j in range(1, m + 1):
            sub_obs = TimeSeriesPair(pair.x[:i], pair.y[:j])
            M_obs, _ = dtw(sub_obs)
            sub_z = TimeSeriesPair(x[:i], y[:j])
            C = cost_matrix(sub_z)
            loss_obs = path_cost(M_obs, C)
            best = min(path_cost(M, C) for M in enumerate_alignments(i, j))
            if loss_obs > best + tol * max(1.0, best):
                return False
    return True


class TestOcRegion:
    def test_two_by_two_against_scripted_solve(self):
        pair = TimeSeriesPair([0.4, 1.9], [0.6, -0.2])
        M, d, line = observed_line(pair)
        region = si_dtw_oc_region(pair, line)
        # scripted oracle: the only contested cell is (2, 2); the chosen
        # predecessor's observed sub-path must beat the other two, solved
        # per-inequality with numpy roots
        scripted = IntervalUnion.real_line()
        sub = {
            (1, 1): ((1, 1),),
            (1, 2): ((1, 1), (1, 2)),
            (2, 1): ((1, 1), (2, 1)),
        }
        obs_losses = {
            c: path_cost(
                dtw(TimeSeriesPair(pair.x[: c[0]], pair.y[: c[1]]))[0],
                cost_matrix(TimeSeriesPair(pair.x[: c[0]], pair.y[: c[1]])),
            )
            for c in sub
        }
        # replicate the diagonal-first preference of the solver
        order = [(1, 1), (1, 2), (2, 1)]
        best = min(obs_losses.values())
        chosen = next(c for c in order if obs_losses[c] == best)

        def loss_poly(path):
            w = np.zeros(3)
            for i, j in path:
                da = line.a1[i - 1] - line.a2[j - 1]
                db = line.b1[i - 1] - line.b2[j - 1]
                w += [da * da, 2 * da * db, db * db]
            return w

        for other in order:
            if other == chosen:
                continue
            diff = loss_poly(sub[chosen]) - loss_poly(sub[other])
            gamma, beta, alpha = diff
            roots = sorted(
                r.real for r in np.roots([alpha, beta, gamma]) if abs(r.imag) < 1e-12
            )
            if abs(alpha) < 1e-12:
                sol = (
                    IntervalUnion.real_line()
                    if (beta == 0 and gamma <= 0)
                    else IntervalUnion([(-INF, -gamma / beta)])
                    if beta > 0
                    else IntervalUnion([(-gamma / beta, INF)])
                )
            elif alpha > 0:
                sol = IntervalUnion([(roots[0], roots[1])]) if roots else IntervalUnion.empty()
            else:
                sol = (
                    IntervalUnion([(-INF, roots[0]), (roots[1], INF)])
                    if roots
                    else IntervalUnion.real_line()
                )
            scripted = scripted.intersect(sol)
        assert len(region) == len(scripted)
        for (lo1, hi1), (lo2, hi2) in zip(region, scripted):
            assert lo1 == pytest.approx(lo2, abs=1e-9)
            assert hi1 == pytest.approx(hi2, abs=1e-9)

    def test_membership_matches_direct_recomputation(self):
        rng = np.random.default_rng(2)
        pair = TimeSeriesPair(rng.normal(size=3), rng.normal(size=3))
        M, d, line = observed_line(pair)
        region = si_dtw_oc_region(pair, line)
        z_obs = float(d.eta @ pair.stacked())
        for z in np.linspace(z_obs - 6, z_obs + 6, 80):
            inside = region.contains(z)
            direct = subproblem_optimal_everywhere(pair, line, z)
            boundary = any(
                abs(z - e) < 1e-6 for iv in region for e in iv if math.isfinite(e)
            )
            if not boundary:
                assert inside == direct

    def test_contains_observed_parameter(self):
        for seed in range(20):
            rng = np.random.default_rng(seed)
            pair = TimeSeriesPair(rng.normal(size=5), rng.normal(size=4))
            M, d, line = observed_line(pair)
            region = si_dtw_oc_region(pair, line)
            z_obs = float(d.eta @ pair.stacked())
            assert region.contains(z_obs, tol=1e-8 * max(1.0, abs(z_obs)))


class TestOcPValue:
    def test_region_nested_in_exact_region(self):
        for seed in range(25):
            rng = np.random.default_rng(seed)
            pair = TimeSeriesPair(rng.normal(size=5), rng.normal(size=5))
            res = selective_p_value(pair)
            res_oc = si_dtw_oc_p_value(pair)
            assert res_oc.region.is_subset_of(res.region, tol=1e-9)
            assert res_oc.alignment.path == res.alignment.path

    def test_constraint_order_irrelevant(self):
        rng = np.random.default_rng(11)
        pair = TimeSeriesPair(rng.normal(size=4), rng.normal(size=4))
        M, d, line = observed_line(pair)
        constraints = _si_dtw_oc_constraints(bellman_table(pair), line)
        forward = IntervalUnion.real_line()
        for c in constraints:
            forward = forward.intersect(solve_quadratic_leq(*c))
        backward = IntervalUnion.real_line()
        for c in reversed(constraints):
            backward = backward.intersect(solve_quadratic_leq(*c))
        assert forward == backward

    def test_oc_conditions_on_more_and_loses_power_structurally(self):
        rng = np.random.default_rng(13)
        pair = TimeSeriesPair(rng.normal(size=5), rng.normal(size=5))
        M, d, line = observed_line(pair)
        oc = si_dtw_oc_region(pair, line).intersect(z2_region(line, M, sign_vector(M, pair)))
        assert oc == si_dtw_oc_p_value(pair).region


def reference_permutation_test(pair, B, seed):
    """One scalar Bellman solve per replicate, swaps drawn one replicate at a time."""
    x, y = pair.x, pair.y
    t_obs = abs_alignment_statistic(x, y)
    rng = np.random.default_rng(seed)
    hits = 0
    for _ in range(B):
        swap = rng.random(pair.n) < 0.5
        if t_obs <= abs_alignment_statistic(np.where(swap, y, x), np.where(swap, x, y)):
            hits += 1
    return hits / B


class TestPermutation:
    def test_identical_series_give_one(self):
        x = np.array([0.1, -0.7, 1.3, 0.4])
        assert permutation_test(TimeSeriesPair(x, x.copy()), B=40, seed=0) == 1.0

    def test_reproducible(self):
        rng = np.random.default_rng(3)
        pair = TimeSeriesPair(rng.normal(size=5), rng.normal(size=5))
        a = permutation_test(pair, B=100, seed=17)
        b = permutation_test(pair, B=100, seed=17)
        assert a == b

    def test_single_replicate_without_swap_gives_one(self):
        rng = np.random.default_rng(4)
        pair = TimeSeriesPair(rng.normal(size=4), rng.normal(size=4))
        # find a seed whose first replicate keeps every coordinate
        seed = next(
            s
            for s in range(500)
            if not (np.random.default_rng(s).random(4) < 0.5).any()
        )
        assert permutation_test(pair, B=1, seed=seed) == 1.0

    @pytest.mark.parametrize("n", [5, 30])
    def test_matches_reference_loop(self, n, monkeypatch):
        def no_scalar_solve(*_):
            raise AssertionError("permutation_test ran a scalar Bellman solve")

        for seed in range(4):
            rng = np.random.default_rng([n, seed])
            x, y = rng.normal(size=n), rng.normal(size=n) + 0.3 * seed
            if seed % 2:
                x, y = np.round(x, 1), np.round(y, 1)  # ties
            pair = TimeSeriesPair(x, y)
            want = reference_permutation_test(pair, 200, seed)
            with monkeypatch.context() as patch:
                patch.setattr(baselines, "bellman_path", no_scalar_solve)
                patch.setattr(dtw_core, "_accumulated_cost", no_scalar_solve)
                assert permutation_test(pair, 200, seed) == want

    @pytest.mark.parametrize("rows", [1, 3, 7])
    def test_chunks_keep_the_p_value(self, rows, monkeypatch):
        rng = np.random.default_rng(3)
        pair = TimeSeriesPair(rng.normal(size=6), rng.normal(size=6))
        whole = permutation_test(pair, 50, 11)
        assert 0.0 < whole < 1.0
        monkeypatch.setattr(baselines, "PERMUTATION_CELL_BUDGET", rows * 36)
        assert permutation_test(pair, 50, 11) == whole

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="equal lengths"):
            permutation_test(TimeSeriesPair([0.0, 1.0], [0.0, 1.0, 2.0]), B=10, seed=0)
        with pytest.raises(ValueError):
            permutation_test(TimeSeriesPair([0.0], [0.0]), B=0, seed=0)


class TestDataSplitting:
    def test_identical_halves_boundary_case(self):
        pair = TimeSeriesPair([1.0, 2.0, 1.0, 2.0], [1.0, 2.0, 1.0, 2.0])
        assert data_splitting_test(pair) == 0.5

    def test_p_in_unit_interval(self):
        for seed in range(30):
            rng = np.random.default_rng(seed)
            n = int(rng.integers(2, 9))
            m = int(rng.integers(2, 9))
            pair = TimeSeriesPair(rng.normal(size=n), rng.normal(size=m))
            assert 0.0 <= data_splitting_test(pair) <= 1.0

    def test_short_series_rejected(self):
        with pytest.raises(ValueError):
            data_splitting_test(TimeSeriesPair([1.0], [1.0, 2.0]))

    def test_matches_per_cell_loop(self):
        """Hex-equal to the per-cell loop, 1 x m and n x 1 selection paths among the cases."""
        rng = np.random.default_rng(32)
        seen = set()
        for k in range(400):
            n, m = (int(v) for v in rng.integers(2, 13, size=2))
            n, m = (2 if k % 5 == 0 else n), (2 if k % 5 == 1 else m)
            pair = TimeSeriesPair(
                oracles.zero_rich_data(rng, n, k % 3), oracles.zero_rich_data(rng, m, k % 3)
            )
            assert data_splitting_test(pair).hex() == oracles.data_splitting_test(pair).hex()
            path, table = bellman_path(pair.x[0::2], pair.y[0::2])
            x_inf, y_inf = pair.x[1::2], pair.y[1::2]
            d = [x_inf[min(i, x_inf.size) - 1] - y_inf[min(j, y_inf.size) - 1] for i, j in path]
            if 0.0 in d:
                seen.add("zero sign")
            for i, j in path[1:]:
                if i > 1 and j > 1:
                    preds = sorted([table[i - 2][j - 2], table[i - 2][j - 1], table[i - 1][j - 2]])
                    if preds[0] == preds[1]:
                        seen.add("Bellman tie")
            if k % 3 == 0 and len(path) >= 8:  # where numpy's pairwise sum leaves path order
                seen.add("raw path of 8 cells or more")
        assert seen == {"zero sign", "Bellman tie", "raw path of 8 cells or more"}
