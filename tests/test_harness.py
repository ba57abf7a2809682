"""Tests for data generation, batch drivers, and file I/O."""

import hashlib
import json
import math

import numpy as np
import pytest

from dtwsi import dtw_core, harness, inference
from dtwsi.baselines import permutation_test, si_dtw_oc_p_value
from dtwsi.dtw_core import TimeSeriesPair, cost_matrix, sign_vector
from dtwsi.dtw_core import test_direction as direction_of
from dtwsi.harness import (
    COVARIANCES,
    EXACT_METHODS,
    NOISES,
    ExperimentConfig,
    UcrFormatError,
    _permutation_seed,
    estimated_variance_pair,
    generate_pair,
    load_ucr_pair,
    parse_config_file,
    run_ci,
    run_fpr,
    write_report_csv,
    write_report_jsonl,
)


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            ExperimentConfig(method="bootstrap")
        with pytest.raises(ValueError):
            ExperimentConfig(trials=0)
        with pytest.raises(ValueError):
            ExperimentConfig(alpha=0.0)
        with pytest.raises(ValueError):
            ExperimentConfig(covariance="toeplitz")
        with pytest.raises(ValueError):
            ExperimentConfig(noise="cauchy")
        with pytest.raises(ValueError, match="variance_mode must be one of"):
            ExperimentConfig(variance_mode="guessed")
        for lengths in ({"n": 0}, {"m": 0}):
            with pytest.raises(ValueError, match="series lengths must be >= 1"):
                ExperimentConfig(**lengths)
        with pytest.raises(ValueError, match="permutation count B must be >= 1"):
            ExperimentConfig(B=0)


class TestGeneratePair:
    def test_deterministic_per_trial(self):
        cfg = ExperimentConfig(n=6, m=7, delta=1.5, seed=9)
        a = generate_pair(cfg, 4)
        b = generate_pair(cfg, 4)
        assert (a.x == b.x).all() and (a.y == b.y).all()
        c = generate_pair(cfg, 5)
        assert not (a.x == c.x).all()

    def test_null_mean_within_four_standard_errors(self):
        cfg = ExperimentConfig(n=50, m=50, delta=0.0, seed=1)
        draws = np.concatenate(
            [np.concatenate([p.x, p.y]) for p in (generate_pair(cfg, t) for t in range(1000))]
        )
        assert draws.size == 100_000
        assert abs(draws.mean()) <= 4.0 / math.sqrt(draws.size)

    def test_mean_shift_applied_to_second_series(self):
        cfg = ExperimentConfig(n=40, m=40, delta=3.0, seed=2)
        ys = np.concatenate([generate_pair(cfg, t).y for t in range(500)])
        assert ys.mean() == pytest.approx(3.0, abs=4.0 / math.sqrt(ys.size) + 0.01)

    def test_ar_lag_one_correlation(self):
        cfg = ExperimentConfig(n=10, m=10, covariance="ar-correlation", seed=3)
        first = []
        second = []
        for t in range(10_000):
            x = generate_pair(cfg, t).x
            first.extend(x[:-1])
            second.extend(x[1:])
        corr = np.corrcoef(first, second)[0, 1]
        assert corr == pytest.approx(0.5, abs=0.03)

    # SHA-256 prefixes of 20 pairs per family and covariance: x, y and both
    # covariances, for n, m = 7, 5 and 1, 3.  Any change to a stream, to the
    # order of its draws or to the covariance factor changes the digest.
    PINNED_DRAWS = {
        ("gaussian", "independence"): "70e915e52aaf7c98ac9f619624c7c177",
        ("gaussian", "ar-correlation"): "ce76d26586ebb4dcd71500b2aafe7502",
        ("laplace", "independence"): "8ea8fce25420845055fe3c8359aa1d89",
        ("laplace", "ar-correlation"): "304f0a8e0a9ba5081d71354f9f418e83",
        ("skew-normal-10", "independence"): "a12bd1ea0d9ee0a439523c4e6ae34028",
        ("skew-normal-10", "ar-correlation"): "a51aaee9df5c6a27bf0856f6910ec62b",
        ("student-t-20", "independence"): "aa45654ae4620a32fb06647588d6424b",
        ("student-t-20", "ar-correlation"): "741d64baa42e926af2de36199714d185",
    }

    def test_pinned_draws(self):
        assert set(self.PINNED_DRAWS) == {(f, c) for f in NOISES for c in COVARIANCES}
        for (noise, covariance), want in self.PINNED_DRAWS.items():
            h = hashlib.sha256()
            for n, m in ((7, 5), (1, 3)):
                cfg = ExperimentConfig(n=n, m=m, delta=0.5, covariance=covariance, noise=noise, seed=11)
                for t in range(10):
                    pair = generate_pair(cfg, t)
                    for a in (pair.x, pair.y, pair.sigma_x, pair.sigma_y):
                        h.update(np.ascontiguousarray(a, dtype=float).tobytes())
            assert h.hexdigest()[:32] == want, (noise, covariance)

    def test_model_covariance_is_read_only(self):
        # the covariance is cached and shared by every pair of a size
        cfg = ExperimentConfig(n=4, m=4, covariance="ar-correlation")
        a, b = generate_pair(cfg, 0), generate_pair(cfg, 1)
        assert a.sigma_x is b.sigma_y
        with pytest.raises(ValueError):
            a.sigma_x[0, 1] = 0.0

    def test_warm_cache_runs_no_cholesky(self, monkeypatch):
        # the cached covariances come with their factors, which a pair keeps
        cfg = ExperimentConfig(n=5, m=6, covariance="ar-correlation", seed=2)
        generate_pair(cfg, 0)
        calls = []
        cholesky = np.linalg.cholesky
        monkeypatch.setattr(np.linalg, "cholesky", lambda a: calls.append(a) or cholesky(a))
        pairs = [generate_pair(cfg, t) for t in range(1, 6)]
        assert calls == []
        for pair in pairs:
            fresh = TimeSeriesPair(pair.x, pair.y, pair.sigma_x.copy(), pair.sigma_y.copy())
            assert np.array_equal(fresh.chol_x, pair.chol_x)
            assert np.array_equal(fresh.chol_y, pair.chol_y)
        assert len(calls) == 2 * len(pairs)  # a user-built pair is checked

    @pytest.mark.parametrize(
        "bad, match",
        [([[1.0, 0.5], [0.1, 1.0]], "symmetric"), ([[1.0, 2.0], [2.0, 1.0]], "positive definite")],
    )
    def test_user_covariance_is_still_checked(self, bad, match):
        # read-only, as the cached ones are, and after the cache is warm
        generate_pair(ExperimentConfig(n=2, m=2), 0)
        bad = np.array(bad)
        bad.flags.writeable = False
        with pytest.raises(ValueError, match=match):
            TimeSeriesPair([0.0, 1.0], [0.0, 2.0], sigma_x=bad)
        with pytest.raises(ValueError, match=match):
            TimeSeriesPair([0.0, 1.0], [0.0, 2.0], sigma_y=bad)

    @pytest.mark.parametrize("family", ["gaussian", "laplace", "skew-normal-10", "student-t-20"])
    def test_noise_families_standardized(self, family):
        cfg = ExperimentConfig(n=100, m=2, noise=family, seed=4)
        draws = np.concatenate([generate_pair(cfg, t).x for t in range(300)])
        assert abs(draws.mean()) < 0.02
        assert draws.var() == pytest.approx(1.0, abs=0.05)

    def test_estimated_variance_mode(self):
        cfg = ExperimentConfig(n=20, m=20, variance_mode="estimated", seed=5)
        pair = generate_pair(cfg, 0)
        assert pair.sigma_x[0, 0] == pytest.approx(np.var(pair.x, ddof=1))
        assert np.count_nonzero(pair.sigma_x - np.diag(np.diag(pair.sigma_x))) == 0

    def test_estimated_variance_needs_two_points(self):
        with pytest.raises(ValueError):
            estimated_variance_pair(np.array([1.0]), np.array([1.0, 2.0]))

    def test_estimated_variance_rejects_constant_series(self):
        with pytest.raises(ValueError, match="series y has zero sample variance"):
            estimated_variance_pair(np.array([0.5, 1.0]), np.full(3, 2.0))


class TestRunners:
    def test_single_trial_rate_is_zero_or_one(self):
        cfg = ExperimentConfig(method="si-dtw", n=4, m=4, trials=1, seed=6)
        rep = run_fpr(cfg)
        assert rep.results["si-dtw"].rejection_rate in (0.0, 1.0)

    def test_rate_recomputable_from_p_values(self):
        cfg = ExperimentConfig(method="data-split", n=8, m=8, trials=25, seed=7)
        rep = run_fpr(cfg)
        res = rep.results["data-split"]
        assert res.rejection_rate == np.mean([p <= cfg.alpha for p in res.p_values])
        assert all(0.0 <= p <= 1.0 for p in res.p_values)
        assert len(res.seconds) == 25

    def test_tpr_at_zero_shift_equals_fpr(self):
        # one batch driver serves both rates: its p-values are the method's
        # own on each generated pair, whatever the shift
        for delta in (0.0, 2.0):
            cfg = ExperimentConfig(method="si-dtw", n=4, m=4, delta=delta, trials=10, seed=8)
            pairs = [generate_pair(cfg, t) for t in range(10)]
            want = tuple(
                inference.conditional_test(pair, EXACT_METHODS["si-dtw"]).p_selective
                for pair in pairs
            )
            assert run_fpr(cfg).results["si-dtw"].p_values == want

    def test_permutation_batch_runs_each_trial_on_its_own_seed(self):
        cfg = ExperimentConfig(method="permutation", n=5, m=5, trials=4, B=20, seed=12)
        want = tuple(
            permutation_test(generate_pair(cfg, t), cfg.B, _permutation_seed(cfg, t))
            for t in range(cfg.trials)
        )
        assert run_fpr(cfg).results["permutation"].p_values == want
        assert len(set(_permutation_seed(cfg, t) for t in range(cfg.trials))) == cfg.trials

    def test_reports_reproducible(self):
        cfg = ExperimentConfig(method="si-dtw-oc", n=4, m=4, trials=8, seed=9)
        a = run_fpr(cfg)
        b = run_fpr(cfg)
        assert a.results["si-dtw-oc"].p_values == b.results["si-dtw-oc"].p_values

    def test_paired_run_shares_trials(self):
        cfg = ExperimentConfig(n=4, m=4, delta=2.0, trials=6, seed=10)
        rep = run_ci(cfg)
        assert set(rep.results) == {"si-dtw", "si-dtw-oc"}
        si = rep.results["si-dtw"]
        oc = rep.results["si-dtw-oc"]
        assert len(si.p_values) == len(oc.p_values) == 6

    def test_ci_run_records_lengths_and_coverage(self):
        cfg = ExperimentConfig(n=4, m=4, delta=2.0, trials=5, seed=11)
        rep = run_ci(cfg)
        for res in rep.results.values():
            assert len(res.ci_lengths) == 5
            assert all(length > 0 for length in res.ci_lengths)
            assert res.coverage_rate is not None
            assert res.median_ci_length is not None


# The one-pair entry points that run_ci's shared conditioning must reproduce.
STANDALONE = {"si-dtw": inference.selective_p_value, "si-dtw-oc": si_dtw_oc_p_value}


def _standalone_trial(config, pair, name):
    """A method's p-value, interval length and coverage, each test run on its own."""
    result = STANDALONE[name](pair)
    lo, hi = inference.truncated_gaussian_ci(result.z_obs, result.sigma, result.region, config.alpha)
    eta = direction_of(result.alignment, sign_vector(result.alignment, pair)).eta
    theta = float(eta @ np.concatenate([np.zeros(config.n), np.full(config.m, config.delta)]))
    return result.p_selective, hi - lo, bool(lo <= theta <= hi)


class TestSharedConditioning:
    """run_ci conditions each pair once and finishes both exact methods on it."""

    @pytest.mark.parametrize("delta", [0.0, 2.0])
    def test_matches_standalone_methods(self, delta):
        cfg = ExperimentConfig(
            n=10, m=10, delta=delta, covariance="ar-correlation", trials=100, seed=21
        )
        rep = run_ci(cfg)
        for name, res in rep.results.items():
            assert all(sec > 0.0 for sec in res.seconds)
            for t in range(cfg.trials):
                p, length, covered = _standalone_trial(cfg, generate_pair(cfg, t), name)
                got = (res.p_values[t].hex(), res.ci_lengths[t].hex(), res.ci_covered[t])
                assert got == (p.hex(), length.hex(), covered), (name, t)

    @pytest.mark.parametrize(
        "trial, raises",
        [
            (2, "si-dtw-oc"),  # si-dtw-oc's region misses z_obs, after si-dtw has finished
            (0, "si-dtw"),  # si-dtw's region misses z_obs
            (5, "si-dtw"),  # si-dtw's interval has no bound: z_obs ends its region
        ],
    )
    def test_raises_as_the_standalone_sequence(self, monkeypatch, trial, raises):
        cfg = ExperimentConfig(n=10, m=10, covariance="ar-correlation", trials=1, seed=5)
        drawn = generate_pair(cfg, trial)
        pair = TimeSeriesPair(np.round(drawn.x), np.round(drawn.y), drawn.sigma_x, drawn.sigma_y)
        events = []
        with pytest.raises(ArithmeticError) as standalone:
            for name in ("si-dtw", "si-dtw-oc"):
                events.append(name)
                _standalone_trial(cfg, pair, name)
        assert events[-1] == raises

        ci, oc_region = harness.truncated_gaussian_ci, EXACT_METHODS["si-dtw-oc"]
        order = []
        monkeypatch.setattr(harness, "generate_pair", lambda config, t: pair)
        monkeypatch.setattr(
            harness, "truncated_gaussian_ci", lambda *a: order.append("interval") or ci(*a)
        )
        monkeypatch.setitem(
            EXACT_METHODS, "si-dtw-oc", lambda cond: order.append("oc region") or oc_region(cond)
        )
        with pytest.raises(ArithmeticError) as batched:
            run_ci(cfg)
        assert type(batched.value) is type(standalone.value)
        assert str(batched.value) == str(standalone.value)
        if raises == "si-dtw-oc":
            assert order == ["interval", "oc region"]
        else:
            assert "oc region" not in order

    @pytest.mark.parametrize("runner", ["ci", "si-dtw", "si-dtw-oc"])
    def test_conditions_each_trial_once(self, monkeypatch, runner):
        calls = {"bellman_solve": 0, "nuisance_decomposition": 0, "z2_region": 0}
        for fn in ("nuisance_decomposition", "z2_region"):
            wrapped = getattr(inference, fn)

            def counting(*args, _fn=fn, _wrapped=wrapped):
                calls[_fn] += 1
                return _wrapped(*args)

            monkeypatch.setattr(inference, fn, counting)

        # the pair's Bellman table is solved once per trial, however many
        # methods finish on it: count the scalar solves of the trial's own
        # cost matrix, bit for bit
        pairs, generate, solve = [], harness.generate_pair, dtw_core._accumulated_cost

        def recording(config, t):
            pairs.append(generate(config, t))
            return pairs[-1]

        monkeypatch.setattr(harness, "generate_pair", recording)

        def counting_solve(cost):
            calls["bellman_solve"] += np.asarray(cost).tobytes() == cost_matrix(pairs[-1]).tobytes()
            return solve(cost)

        monkeypatch.setattr(dtw_core, "_accumulated_cost", counting_solve)
        method = "si-dtw" if runner == "ci" else runner
        cfg = ExperimentConfig(method=method, n=6, m=6, delta=1.0, trials=7, seed=4)
        rep = run_ci(cfg) if runner == "ci" else run_fpr(cfg)
        assert all(len(res.p_values) == cfg.trials for res in rep.results.values())
        assert calls == dict.fromkeys(calls, cfg.trials)


class TestUcrLoader:
    def test_parse_pair(self, tmp_path):
        fa = tmp_path / "a.txt"
        fb = tmp_path / "b.txt"
        fa.write_text("1,0.5,1.5,2.5,3.5,4.5\n2,9,9,9,9,9\n")
        fb.write_text("1,0.25,1.25,2.25,3.25,4.25\n")
        pair = load_ucr_pair(str(fa), str(fb), row_a=0, row_b=0)
        np.testing.assert_allclose(pair.x, [0.5, 1.5, 2.5, 3.5, 4.5])
        np.testing.assert_allclose(pair.y, [0.25, 1.25, 2.25, 3.25, 4.25])
        assert pair.sigma_x[0, 0] == pytest.approx(np.var(pair.x, ddof=1))

    def test_non_numeric_token_reports_position(self, tmp_path):
        f = tmp_path / "bad.txt"
        f.write_text("1,0.5,oops,2.5\n")
        with pytest.raises(UcrFormatError, match=r"line 1, field 3"):
            load_ucr_pair(str(f), str(f))

    def test_label_only_row_rejected(self, tmp_path):
        f = tmp_path / "short.txt"
        f.write_text("1\n")
        with pytest.raises(UcrFormatError, match="no values"):
            load_ucr_pair(str(f), str(f))

    def test_row_out_of_range(self, tmp_path):
        f = tmp_path / "one.txt"
        f.write_text("1,2,3\n")
        with pytest.raises(UcrFormatError, match="out of range"):
            load_ucr_pair(str(f), str(f), row_a=3)

    def test_round_trip_full_precision(self, tmp_path):
        rng = np.random.default_rng(13)
        values = rng.normal(size=6)
        f = tmp_path / "rt.txt"
        f.write_text("0," + ",".join(repr(float(v)) for v in values) + "\n")
        pair = load_ucr_pair(str(f), str(f), variance_mode="known")
        assert (pair.x == values).all()

    def test_unknown_variance_mode_rejected(self, tmp_path):
        f = tmp_path / "one.txt"
        f.write_text("1,2,3\n")
        with pytest.raises(ValueError, match="variance_mode must be one of"):
            load_ucr_pair(str(f), str(f), variance_mode="guessed")


class TestReportIo:
    @pytest.fixture()
    def report(self):
        cfg = ExperimentConfig(n=4, m=4, delta=2.0, trials=4, seed=14)
        return run_ci(cfg)

    def test_jsonl_round_trip(self, report, tmp_path):
        path = tmp_path / "out.jsonl"
        write_report_jsonl(report, str(path))
        records = [json.loads(line) for line in path.read_text().splitlines()]
        trials = [r for r in records if r["record"] == "trial"]
        summary = records[-1]
        assert summary["record"] == "summary"
        assert len(trials) == 8  # two methods, four trials
        si = report.results["si-dtw"]
        got = [r["p"] for r in trials if r["method"] == "si-dtw"]
        assert got == list(si.p_values)
        assert summary["methods"]["si-dtw"]["rejection_rate"] == si.rejection_rate

    def test_csv_table(self, report, tmp_path):
        path = tmp_path / "out.csv"
        write_report_csv(report, str(path))
        lines = path.read_text().splitlines()
        assert lines[0].startswith("method,trial,p,seconds")
        assert len(lines) == 9


class TestConfigFile:
    def test_parse_key_value_styles(self, tmp_path):
        f = tmp_path / "cfg.txt"
        f.write_text(
            "# comment\n"
            "method = si-dtw\n"
            "n: 5\n"
            "m = 5\n"
            "delta = 1.0   # inline comment\n"
            "\n"
            "trials = 7\n"
        )
        values = parse_config_file(str(f))
        assert values == {"method": "si-dtw", "n": "5", "m": "5", "delta": "1.0", "trials": "7"}

    def test_malformed_line(self, tmp_path):
        f = tmp_path / "cfg.txt"
        f.write_text("just words\n")
        with pytest.raises(ValueError, match="line 1"):
            parse_config_file(str(f))
