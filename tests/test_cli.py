"""Tests for the command-line front end."""

import json
import os
import subprocess
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

import dtwsi
from dtwsi import cli
from dtwsi.cli import EXIT_INPUT, EXIT_NUMERIC, EXIT_OK, main
from dtwsi.dtw_core import enumerate_alignments
from dtwsi.harness import EXACT_METHODS, ExperimentConfig, generate_pair
from dtwsi.inference import conditional_test
from dtwsi.parametric import DataLine, PiecewiseEnvelope, para_dtw

SRC = str(Path(dtwsi.__file__).resolve().parents[1])


@pytest.fixture()
def series_files(tmp_path):
    fa = tmp_path / "a.csv"
    fb = tmp_path / "b.csv"
    fa.write_text("1,0.12,0.55,0.91,1.40,0.80,0.30\n2,0.2,0.5,0.9,1.2,0.6,0.1\n")
    fb.write_text("2,0.30,0.70,1.10,1.30,0.90,0.40\n")
    return str(fa), str(fb)


class TestTestCommand:
    def test_record_fields(self, series_files, capsys, tmp_path):
        fa, fb = series_files
        out = tmp_path / "record.json"
        code = main(["test", fa, fb, "--alpha", "0.1", "--out", str(out)])
        assert code == EXIT_OK
        record = json.loads(out.read_text())
        assert record["method"] == "si-dtw"
        assert 0.0 <= record["p_selective"] <= 1.0
        assert record["ci"][0] < record["ci"][1]
        assert record["alignment"][0] == [1, 1]
        lo, hi = record["region"][0]
        assert isinstance(lo, float)

    def test_infinite_region_end_is_a_string(self, tmp_path, capsys):
        # strict JSON has no Infinity literal
        fa, fb = tmp_path / "a.csv", tmp_path / "b.csv"
        fa.write_text("1,1.5\n")
        fb.write_text("2,-0.5\n")
        assert main(["test", str(fa), str(fb), "--variance", "known"]) == EXIT_OK

        def refuse(token):
            raise ValueError(f"non-strict JSON constant {token}")

        record = json.loads(capsys.readouterr().out, parse_constant=refuse)
        ((lo, hi),) = record["region"]
        assert lo == 0.0 and hi == "inf"

    @pytest.mark.parametrize("method", sorted(EXACT_METHODS))
    def test_region_lower_ends_are_finite(self, method):
        # Every region lies inside the sign-preserving window, whose lower end
        # is the largest -nu1/nu2 over path cells with nu2 > 0; the nu2 sum to
        # eta.b = 1, so that end is finite and the record needs no "-inf".
        rng = np.random.default_rng(31)
        checked = 0
        for k in range(200):
            n, m = (int(v) for v in rng.integers(2, 13, size=2))
            config = ExperimentConfig(
                n=n, m=m, delta=(0.0, 1.5)[k % 2],
                covariance=("independence", "ar-correlation")[k // 2 % 2], seed=31,
            )
            try:
                pair = generate_pair(config, k)
                result = conditional_test(pair, EXACT_METHODS[method])
            except ArithmeticError:
                continue
            assert all(lo > float("-inf") for lo, _ in result.region), (k, result.region)
            checked += 1
        assert checked >= 190

    def test_over_conditioned_method(self, series_files, capsys):
        fa, fb = series_files
        assert main(["test", fa, fb, "--method", "si-dtw-oc"]) == EXIT_OK
        record = json.loads(capsys.readouterr().out)
        assert record["method"] == "si-dtw-oc"

    def test_missing_file_is_input_error(self, tmp_path, capsys):
        missing = str(tmp_path / "nope.csv")
        assert main(["test", missing, missing]) == EXIT_INPUT

    def test_parse_error_is_input_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("1,0.5,abc\n")
        assert main(["test", str(bad), str(bad)]) == EXIT_INPUT
        assert "field 3" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "token, variance", [("nan", "known"), ("nan", "estimated"), ("inf", "known")]
    )
    def test_non_finite_value_is_input_error(self, tmp_path, token, variance):
        # A child process with a timeout: a NaN that reached the alignment
        # traceback would loop there forever, which must fail, not hang.
        fa = tmp_path / "a.csv"
        fb = tmp_path / "b.csv"
        fa.write_text(f"1,0.5,{token},1.5\n")
        fb.write_text("1,0.2,0.4,0.9\n")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")]))
        proc = subprocess.run(
            [sys.executable, "-m", "dtwsi.cli", "test", str(fa), str(fb), "--variance", variance],
            capture_output=True, text=True, timeout=60, env=env,
        )
        assert proc.returncode == EXIT_INPUT
        assert "series x has a non-finite value" in proc.stderr

    def test_constant_series_with_estimated_variance_is_input_error(self, tmp_path, capsys):
        f = tmp_path / "flat.csv"
        f.write_text("1,1.0,1.0,1.0\n")
        assert main(["test", str(f), str(f)]) == EXIT_INPUT
        assert "series x has zero sample variance" in capsys.readouterr().err

    def test_degenerate_pair_is_numeric_error(self, tmp_path, capsys):
        f = tmp_path / "same.csv"
        f.write_text("1,1.0,2.0,3.0\n")
        code = main(["test", str(f), str(f), "--variance", "known"])
        assert code == EXIT_NUMERIC
        assert "degenerate" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "seed, method, reason",
        [
            (10023, "si-dtw", "tie of the selection event"),
            (10023, "si-dtw-oc", "tie of the selection event"),
            (10002, "si-dtw-oc", "tie of the selection event"),
            (10020, "si-dtw", "same for every mean"),
        ],
    )
    def test_data_on_a_tie_is_numeric_error(self, tmp_path, capsys, seed, method, reason):
        # n=m=20 pairs rounded to one decimal: a zero-width selection event,
        # or a region whose lower end is the statistic (no interval bound)
        rng = np.random.default_rng(seed)
        files = []
        for name in ("a", "b"):
            path = tmp_path / f"{name}.csv"
            values = np.round(rng.normal(size=20), 1)
            path.write_text("1," + ",".join(repr(float(v)) for v in values) + "\n")
            files.append(str(path))
        code = main(["test", *files, "--method", method, "--variance", "known"])
        assert code == EXIT_NUMERIC
        err = capsys.readouterr().err
        assert err.startswith("numerical failure:") and reason in err


class TestSimulateCommand:
    def test_flags_only(self, capsys, tmp_path):
        out = tmp_path / "rep.jsonl"
        code = main(
            [
                "simulate",
                "--method", "data-split",
                "--n", "6", "--m", "6",
                "--delta", "0",
                "--cov", "indep",
                "--noise", "gauss",
                "--trials", "6",
                "--seed", "5",
                "--out", str(out),
            ]
        )
        assert code == EXIT_OK
        summary = json.loads(capsys.readouterr().out)
        assert summary["config"]["method"] == "data-split"
        assert summary["methods"]["data-split"]["trials"] == 6
        lines = out.read_text().splitlines()
        assert json.loads(lines[-1])["record"] == "summary"

    def test_permutation_method(self, capsys):
        args = ["--method", "permutation", "--n", "6", "--m", "6", "--trials", "3", "--perm-B", "20"]
        code = main(["simulate", *args])
        assert code == EXIT_OK
        summary = json.loads(capsys.readouterr().out)
        assert summary["config"]["method"] == "permutation"
        assert summary["methods"]["permutation"]["trials"] == 3

    def test_config_file_with_flag_override(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(
            "method = si-dtw\nn = 4\nm = 4\ndelta = 0\ntrials = 3\nseed = 2\n"
            "covariance = independence\nnoise = gaussian\n"
        )
        code = main(["simulate", "--config", str(cfg), "--trials", "5", "--noise", "t20"])
        assert code == EXIT_OK
        summary = json.loads(capsys.readouterr().out)
        assert summary["config"]["trials"] == 5
        assert summary["config"]["noise"] == "student-t-20"
        assert summary["config"]["n"] == 4

    def test_ci_summary_is_the_report_summary(self, capsys, tmp_path):
        out = tmp_path / "rep.jsonl"
        code = main(
            ["simulate", "--ci", "--n", "4", "--m", "4", "--delta", "1", "--trials", "3",
             "--seed", "2", "--out", str(out)]
        )
        assert code == EXIT_OK
        summary = json.loads(capsys.readouterr().out)
        assert summary == json.loads(out.read_text().splitlines()[-1])
        for block in summary["methods"].values():
            assert {"coverage_rate", "mean_ci_length", "median_ci_length"} <= set(block)

    def test_config_file_setting_every_field(self, capsys, tmp_path):
        config = ExperimentConfig(
            method="si-dtw-oc", n=5, m=4, delta=0.5, covariance="ar-correlation",
            noise="laplace", variance_mode="estimated", alpha=0.1, trials=2, seed=3, B=50,
        )
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("".join(f"{key} = {value}\n" for key, value in asdict(config).items()))
        assert main(["simulate", "--config", str(cfg)]) == EXIT_OK
        assert json.loads(capsys.readouterr().out)["config"] == asdict(config)

    def test_csv_format(self, capsys, tmp_path):
        out = tmp_path / "rep.csv"
        code = main(
            ["simulate", "--method", "si-dtw", "--n", "4", "--m", "4",
             "--trials", "3", "--seed", "1", "--format", "csv", "--out", str(out)]
        )
        assert code == EXIT_OK
        assert out.read_text().startswith("method,trial,p")

    def test_bad_config_value_is_input_error(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("method = guesswork\n")
        assert main(["simulate", "--config", str(cfg)]) == EXIT_INPUT

    @pytest.mark.parametrize("method", ["permutation", "data-split"])
    def test_ci_with_inexact_method_is_input_error(self, capsys, method):
        code = main(
            ["simulate", "--method", method, "--ci", "--trials", "2", "--n", "5", "--m", "5"]
        )
        assert code == EXIT_INPUT
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "input error" in captured.err and "--ci" in captured.err


class TestOracleCommand:
    def test_small_run_consistent(self, capsys):
        code = main(["oracle", "--n", "3", "--m", "3", "--instances", "4", "--seed", "0"])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "4/4 instances consistent" in out

    # At 6x5, seed 3, the engines' breakpoints differ in the last bits on
    # three instances; the segment paths and everything else agree.
    def test_last_bit_breakpoint_differences_are_consistent(self, capsys):
        code = main(["oracle", "--n", "6", "--m", "5", "--instances", "20", "--seed", "3"])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "20/20 instances consistent" in out

    @pytest.mark.parametrize("flag", ["--n", "--m", "--instances"])
    def test_size_below_one_is_input_error(self, capsys, flag):
        assert main(["oracle", flag, "0"]) == EXIT_INPUT
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "input error: --n, --m and --instances must be at least 1\n"


def nudged_breakpoint(*args):
    """``para_dtw`` with its last interior breakpoint moved up by 1e-7."""
    env = para_dtw(*args)
    bps = list(env.breakpoints)
    bps[-2] += 1e-7
    return PiecewiseEnvelope(tuple(bps), env.segments)


def swapped_path(*args):
    """``para_dtw`` with the paths of its first two segments exchanged, losses kept."""
    env = para_dtw(*args)
    (A, wa), (B, wb), *rest = env.segments
    return PiecewiseEnvelope(env.breakpoints, ((B, wa), (A, wb), *rest))


class TestEnvelopeCheck:
    def test_agrees_when_the_grid_splits_into_blocks(self):
        rng = np.random.default_rng(12)
        alignments = enumerate_alignments(6, 6)  # 1683 losses: two blocks of grid points
        for _ in range(3):
            line = DataLine(rng.normal(size=12), rng.normal(size=12), 6)
            ok, value_gap, breakpoint_gap, _ = cli.check_envelope(line, alignments)
            assert ok
            assert value_gap <= cli.ENVELOPE_TOL
            assert breakpoint_gap <= cli.ORACLE_TOL

    @pytest.mark.parametrize("wrong, gap", [(nudged_breakpoint, "1.0e-07"), (swapped_path, "inf")])
    def test_wrong_envelope_fails(self, monkeypatch, capsys, wrong, gap):
        line = DataLine(np.arange(8.0) % 3, np.linspace(-1.0, 1.0, 8), 4)
        alignments = enumerate_alignments(4, 4)
        assert len(para_dtw(line, 4, 4).segments) > 1
        assert cli.check_envelope(line, alignments)[0]
        monkeypatch.setattr(cli, "para_dtw", wrong)
        ok, value_gap, breakpoint_gap, _ = cli.check_envelope(line, alignments)
        assert not ok
        assert f"{breakpoint_gap:.1e}" == gap
        assert value_gap <= cli.ENVELOPE_TOL  # caught by the segments, not the grid

        code = main(["oracle", "--n", "4", "--m", "4", "--instances", "3", "--seed", "0"])
        assert code == EXIT_NUMERIC
        *instances, last = capsys.readouterr().out.splitlines()
        for k, text in enumerate(instances):
            assert text == (
                f"instance {k:3d}: dtw=ok envelope=FAIL window=ok p=ok region=ok -> MISMATCH"
            )
        assert last.startswith("0/3 instances consistent; ")
        assert last.endswith(f"worst breakpoint gap {gap}")
