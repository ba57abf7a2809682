"""Tests for the comparison methods."""

import math
from dataclasses import dataclass

import numpy as np
import pytest

from dtwsi.baselines import (
    data_splitting_test,
    permutation_test,
    si_dtw_oc_constraints,
    si_dtw_oc_p_value,
    si_dtw_oc_region,
    solve_quadratic_leq,
)
from dtwsi.dtw_core import (
    TimeSeriesPair,
    bellman_predecessor,
    bellman_table,
    cost_matrix,
    dtw,
    enumerate_alignments,
    sign_vector,
)
from dtwsi.dtw_core import test_direction as direction_of
from dtwsi.inference import nuisance_decomposition, selective_p_value, z2_region
from dtwsi.intervals import IntervalUnion
from dtwsi.parametric import DataLine, quadratic_loss

INF = math.inf


@dataclass(frozen=True)
class QuadraticConstraint:
    """A constraint ``w' A w <= 0`` on the stacked data vector ``w``.

    The dense reference for ``si_dtw_oc_constraints``: ``A`` is symmetric, and
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
        poly = si_dtw_oc_constraints(pair, line)
        # rebuild each constraint densely from the observed sub-paths
        table = bellman_table(pair)
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
            loss_obs = float((M_obs.matrix() * C).sum())
            best = min(
                float((M.matrix() * C).sum()) for M in enumerate_alignments(i, j)
            )
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
            c: float(
                (dtw(TimeSeriesPair(pair.x[: c[0]], pair.y[: c[1]]))[0].matrix()
                 * cost_matrix(TimeSeriesPair(pair.x[: c[0]], pair.y[: c[1]]))).sum()
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
        constraints = si_dtw_oc_constraints(pair, line)
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
