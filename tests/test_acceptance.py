"""Acceptance criteria, one test per criterion.

Run with ``pytest tests/test_acceptance.py -s`` to see one printed
pass/fail line per criterion.  All tolerances are fixed here, except the
envelope oracle's: ``dtwsi.cli.check_envelope`` holds them for this suite
and ``dtwsi oracle`` alike.  The suite finishes in a few minutes on a desktop.
"""

import math

import numpy as np
import pytest
from scipy.stats import binom, kstest

from dtwsi.baselines import data_splitting_test, permutation_test, si_dtw_oc_p_value
from dtwsi.cli import check_envelope
from dtwsi.dtw_core import TimeSeriesPair, dtw, enumerate_alignments, sign_vector
from dtwsi.dtw_core import test_direction as direction_of
from dtwsi.harness import ExperimentConfig, generate_pair
from dtwsi.inference import (
    nuisance_decomposition,
    selective_p_value,
    truncated_gaussian_ci,
    truncated_gaussian_sf,
)
from dtwsi.intervals import IntervalUnion

ALPHA = 0.05
FPR_BAND = (0.028, 0.079)
KS_CRITICAL_1PCT = 0.0364


def announce(name, ok, detail):
    print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{name}: {detail}"


@pytest.fixture(scope="module")
def power_grid():
    """Paired exact-method runs at n = m = 10, shift 2..5, 120 trials each.

    Shared by the power-ordering and interval-length criteria; also checks
    region nesting on every instance while the regions are in hand.
    """
    grid = {}
    for delta in (2.0, 3.0, 4.0, 5.0):
        cfg = ExperimentConfig(n=10, m=10, delta=delta, trials=120, seed=2024)
        rows = []
        for t in range(cfg.trials):
            pair = generate_pair(cfg, t)
            res_si = selective_p_value(pair)
            res_oc = si_dtw_oc_p_value(pair)
            nested = res_oc.region.is_subset_of(res_si.region, tol=1e-9)
            ci_si = truncated_gaussian_ci(res_si.z_obs, res_si.sigma, res_si.region, ALPHA)
            ci_oc = truncated_gaussian_ci(res_oc.z_obs, res_oc.sigma, res_oc.region, ALPHA)
            rows.append(
                {
                    "p_si": res_si.p_selective,
                    "p_oc": res_oc.p_selective,
                    "nested": nested,
                    "len_si": ci_si[1] - ci_si[0],
                    "len_oc": ci_oc[1] - ci_oc[0],
                }
            )
        grid[delta] = rows
    return grid


def test_criterion_fpr_control():
    hits = {"si-dtw": 0, "si-dtw-oc": 0}
    total = 0
    for size in (5, 10):
        cfg = ExperimentConfig(n=size, m=size, delta=0.0, trials=240, seed=101)
        for t in range(cfg.trials):
            pair = generate_pair(cfg, t)
            hits["si-dtw"] += selective_p_value(pair).p_selective <= ALPHA
            hits["si-dtw-oc"] += si_dtw_oc_p_value(pair).p_selective <= ALPHA
            total += 1
    rates = {k: v / total for k, v in hits.items()}
    ok = all(FPR_BAND[0] <= r <= FPR_BAND[1] for r in rates.values())
    announce(
        "fpr-control",
        ok,
        f"480 pooled null trials, si-dtw {rates['si-dtw']:.4f}, "
        f"si-dtw-oc {rates['si-dtw-oc']:.4f}, band {FPR_BAND}",
    )


def test_criterion_null_uniformity():
    cfg = ExperimentConfig(n=5, m=5, delta=0.0, trials=2000, seed=7)
    ps = [selective_p_value(generate_pair(cfg, t)).p_selective for t in range(cfg.trials)]
    stat = kstest(ps, "uniform").statistic
    ok = stat < KS_CRITICAL_1PCT
    announce(
        "null-uniformity",
        ok,
        f"2000 null trials, KS statistic {stat:.4f} < {KS_CRITICAL_1PCT}",
    )


def test_criterion_parametric_oracle_equivalence():
    rng = np.random.default_rng(55)
    checks = []
    for _ in range(200):
        n = int(rng.integers(2, 6))
        m = int(rng.integers(2, 6))
        pair = TimeSeriesPair(rng.normal(size=n), rng.normal(size=m))
        M_obs, _ = dtw(pair)
        direction = direction_of(M_obs, sign_vector(M_obs, pair))
        if not direction.eta.any():
            continue
        line = nuisance_decomposition(pair, direction)
        checks.append(check_envelope(line, enumerate_alignments(n, m))[:3])
    oks, value_gaps, breakpoint_gaps = zip(*checks)
    announce(
        "parametric-oracle-equivalence",
        all(oks),
        f"{len(checks)} instances, worst envelope rel err {max(value_gaps):.2e}, "
        f"worst breakpoint err {max(breakpoint_gaps):.2e}",
    )


def test_criterion_truncated_gaussian_numerics():
    rng = np.random.default_rng(31)
    worst_sigmas = 0.0
    for _ in range(50):
        sigma = float(rng.uniform(0.6, 1.8))
        edges = np.sort(rng.uniform(-2.5 * sigma, 2.5 * sigma, size=6))
        intervals = [(edges[0], edges[1]), (edges[2], edges[3]), (edges[4], edges[5])]
        region = IntervalUnion(intervals)
        pick = intervals[int(rng.integers(0, 3))]
        z_obs = float(rng.uniform(*pick))
        p = truncated_gaussian_sf(z_obs, sigma, region)
        draws = rng.normal(0.0, sigma, size=10_000_000)
        member = np.zeros(draws.size, dtype=bool)
        for lo, hi in intervals:
            member |= (draws >= lo) & (draws <= hi)
        kept = draws[member]
        est = float(np.mean(kept >= z_obs))
        se = math.sqrt(max(est * (1.0 - est), 1e-12) / kept.size)
        worst_sigmas = max(worst_sigmas, abs(p - est) / se)
    mc_ok = worst_sigmas <= 3.0

    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 50

    def phi_bar(x):
        return mpmath.erfc(x / mpmath.sqrt(2)) / 2

    worst_rel = 0.0
    for _ in range(50):
        sigma = float(rng.uniform(0.5, 2.0))
        edges = np.sort(rng.uniform(-8.0 * sigma, 8.0 * sigma, size=6))
        intervals = [(edges[0], edges[1]), (edges[2], edges[3]), (edges[4], edges[5])]
        region = IntervalUnion(intervals)
        pick = intervals[int(rng.integers(0, 3))]
        z_obs = float(rng.uniform(*pick))
        p = truncated_gaussian_sf(z_obs, sigma, region)
        num = den = mpmath.mpf(0)
        for lo, hi in intervals:
            den += phi_bar(mpmath.mpf(lo) / sigma) - phi_bar(mpmath.mpf(hi) / sigma)
            cl = max(lo, z_obs)
            if cl < hi:
                num += phi_bar(mpmath.mpf(cl) / sigma) - phi_bar(mpmath.mpf(hi) / sigma)
        exact = float(num / den)
        if exact > 0:
            worst_rel = max(worst_rel, abs(p - exact) / exact)
    hp_ok = worst_rel <= 1e-10
    announce(
        "truncated-gaussian-numerics",
        mc_ok and hp_ok,
        f"monte-carlo worst dev {worst_sigmas:.2f} se (limit 3), "
        f"high-precision worst rel err {worst_rel:.2e} (limit 1e-10)",
    )


def test_criterion_power_ordering(power_grid):
    rates = {}
    nested_all = True
    for delta, rows in power_grid.items():
        rates[delta] = (
            float(np.mean([r["p_si"] <= ALPHA for r in rows])),
            float(np.mean([r["p_oc"] <= ALPHA for r in rows])),
        )
        nested_all &= all(r["nested"] for r in rows)
    ordering = all(si >= oc - 0.02 for si, oc in rates.values())
    strict = rates[3.0][0] > rates[3.0][1] or rates[4.0][0] > rates[4.0][1]
    si_by_delta = [rates[d][0] for d in sorted(rates)]
    monotone = all(b >= a - 0.05 for a, b in zip(si_by_delta, si_by_delta[1:]))
    ok = ordering and strict and nested_all and monotone
    detail = ", ".join(
        f"d={d:g} si {si:.3f} oc {oc:.3f}" for d, (si, oc) in sorted(rates.items())
    )
    announce("power-ordering", ok, f"{detail}; nesting {'ok' if nested_all else 'VIOLATED'}")


def test_criterion_ci_behavior(power_grid):
    medians_ok = True
    details = []
    for delta, rows in sorted(power_grid.items()):
        med_si = float(np.median([r["len_si"] for r in rows]))
        med_oc = float(np.median([r["len_oc"] for r in rows]))
        medians_ok &= med_si <= med_oc
        details.append(f"d={delta:g} si {med_si:.2f} oc {med_oc:.2f}")

    cfg = ExperimentConfig(n=5, m=5, delta=2.0, trials=200, seed=909)
    covered = 0
    for t in range(cfg.trials):
        pair = generate_pair(cfg, t)
        res = selective_p_value(pair)
        lo, hi = truncated_gaussian_ci(res.z_obs, res.sigma, res.region, ALPHA)
        direction = direction_of(res.alignment, sign_vector(res.alignment, pair))
        theta = float(direction.eta @ np.concatenate([np.zeros(5), np.full(5, 2.0)]))
        covered += lo <= theta <= hi
    k_lo, k_hi = binom.interval(0.99, cfg.trials, 1 - ALPHA)
    cov_ok = k_lo <= covered <= k_hi
    ok = medians_ok and cov_ok
    announce(
        "ci-behavior",
        ok,
        f"median lengths {'; '.join(details)}; coverage {covered}/{cfg.trials} "
        f"in [{int(k_lo)}, {int(k_hi)}]",
    )


def test_criterion_baseline_failure():
    upper = {}
    records = []
    exceeded = False
    for size in (5, 10, 15, 20):
        upper[size] = float(binom.ppf(0.995, 120, ALPHA)) / 120
        cfg = ExperimentConfig(
            method="data-split", n=size, m=size, delta=0.0, trials=120, seed=303
        )
        rate = float(
            np.mean([data_splitting_test(generate_pair(cfg, t)) <= ALPHA for t in range(120)])
        )
        records.append(f"data-split n={size} fpr {rate:.3f}")
        exceeded |= rate > upper[size]
    for size in (5, 10):
        cfg = ExperimentConfig(
            method="permutation",
            n=size,
            m=size,
            delta=0.0,
            covariance="ar-correlation",
            trials=120,
            seed=404,
        )
        hits = 0
        for t in range(120):
            pair = generate_pair(cfg, t)
            hits += permutation_test(pair, B=200, seed=1000 + t) <= ALPHA
        rate = hits / 120
        records.append(f"permutation(ar) n={size} fpr {rate:.3f}")
        exceeded |= rate > upper[size]
    announce(
        "baseline-failure-reproduction",
        exceeded,
        f"99% upper band {upper[5]:.3f}; " + "; ".join(records),
    )


def test_criterion_selection_event_consistency():
    rng = np.random.default_rng(606)
    checked = 0
    for _ in range(1000):
        n = int(rng.integers(2, 7))
        m = int(rng.integers(2, 7))
        delta = float(rng.choice([0.0, 1.0, 2.0]))
        pair = TimeSeriesPair(rng.normal(size=n), delta + rng.normal(size=m))
        res = selective_p_value(pair)
        res_oc = si_dtw_oc_p_value(pair)
        tol = 1e-8 * max(1.0, abs(res.z_obs))
        assert res.region.contains(res.z_obs, tol=tol)
        assert res_oc.region.contains(res_oc.z_obs, tol=tol)
        checked += 1
    announce(
        "selection-event-consistency",
        checked == 1000,
        f"{checked}/1000 instances kept the observed statistic in both regions",
    )
