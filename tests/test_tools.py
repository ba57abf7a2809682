"""The output digest that checks a change keeps every benchmark output bit for bit."""

import json
import math
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "bench"))
sys.path.insert(0, str(ROOT / "tools"))

import ab_bench  # noqa: E402
import output_digest  # noqa: E402
import worker  # noqa: E402


def test_digest_covers_every_value_and_counts_raised_trials(monkeypatch):
    first = output_digest.digest(worker, "sim-batch", [0, 1], 3)
    assert (first["trials"], first["raised"]) == (6, 0)
    assert output_digest.digest(worker, "sim-batch", [0, 1], 3)["sha256"] == first["sha256"]

    run = worker.SimBatch.run

    def one_bit_off(self, k):
        out = run(self, k)
        if k == 2:
            out["si-dtw-oc"]["p"] = math.nextafter(out["si-dtw-oc"]["p"], 2.0)
        return out

    monkeypatch.setattr(worker.SimBatch, "run", one_bit_off)
    assert output_digest.digest(worker, "sim-batch", [0, 1], 3)["sha256"] != first["sha256"]

    def raising(self, k):
        if k == 1:
            raise ArithmeticError("no bound")
        return run(self, k)

    monkeypatch.setattr(worker.SimBatch, "run", raising)
    failed = output_digest.digest(worker, "sim-batch", [0, 1], 3)
    assert failed["raised"] == 2 and failed["sha256"] != first["sha256"]


def test_seed_ranges_are_inclusive():
    assert output_digest._seeds("3") == [3]
    assert output_digest._seeds("0-9") == list(range(10))


def test_main_digests_and_rejects_bad_arguments(monkeypatch, capsys):
    monkeypatch.setattr(sys, "path", list(sys.path))
    monkeypatch.setattr(sys, "dont_write_bytecode", sys.dont_write_bytecode)
    assert output_digest.main(["--workload", "sim-batch", "--pairs", "2"]) == 0
    record = json.loads(capsys.readouterr().out)
    assert (record["workload"], record["trials"], record["raised"]) == ("sim-batch", 2, 0)
    assert record["sha256"] == output_digest.digest(worker, "sim-batch", [0], 2)["sha256"]

    for argv in (["--seeds", "5-3"], ["--seeds", "x"], ["--workload", "simbatch"]):
        with pytest.raises(SystemExit) as rejected:
            output_digest.main(argv)
        assert rejected.value.code == 2, argv
        assert "error:" in capsys.readouterr().err


def stub_runs(monkeypatch, change_rate, fail_at=None):
    """Stub ``ab_bench.run_once``: the parent's k-th run reads ``100 + k`` pairs/s, the change's
    ``change_rate(k)``; returns the order in which the sides ran.  No process is started."""
    calls = []

    def run_once(checkout, command, workload, seconds, seed):
        side = checkout.name
        k = calls.count(side)
        calls.append(side)
        if (side, k) == fail_at:
            raise ab_bench.RunFailed(f"{checkout}: 1 of 9 pairs failed")
        rate = 100.0 + k if side == "parent" else change_rate(k)
        values = {"pairs_per_s": rate, "pair_s_p50": 1.0 / rate, "setup_s": 0.4}
        metrics = {n: {"value": v} for n, v in dict(values, peak_rss_mb=60.0).items()}
        return {"correct": True, "failed": 0, "metrics": metrics}

    monkeypatch.setattr(ab_bench, "run_once", run_once)
    return calls


@pytest.mark.parametrize(
    "change_rate, code, verdict",
    [
        (lambda k: 150.0 + k, 0, "gain"),
        # wins 9 of 10 pairs, but the medians differ by less than the parent's quartile gap
        (lambda k: 100.5 + k if k else 99.0, 0, "within bound"),
        (lambda k: 85.0 + k, 0, "within bound"),
        (lambda k: 70.0 + k, 1, "regression"),
    ],
)
def test_ab_bench_alternates_sides_and_judges_by_the_declared_bounds(
    monkeypatch, capsys, tmp_path, change_rate, code, verdict
):
    parent, change = tmp_path / "parent", tmp_path / "change"
    parent.mkdir()
    (parent / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    calls = stub_runs(monkeypatch, change_rate)
    argv = ["--parent", str(parent), "--change", str(change), "--workload", "sim-batch"]
    assert ab_bench.main(argv + ["--pairs", "10"]) == code
    assert calls == ["parent", "change", "change", "parent"] * 5
    record = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert record["runs"]["parent"]["pairs_per_s"] == [100.0 + k for k in range(10)]
    rate, p50 = record["verdicts"]["pairs_per_s"], record["verdicts"]["pair_s_p50"]
    assert (rate["verdict"], p50["verdict"]) == (verdict, verdict)
    assert (rate["parent_median"], rate["parent_quartiles"]) == (104.5, [102.25, 106.75])
    # equal values win no pair and stay within their bound
    for name in ("setup_s", "peak_rss_mb"):
        assert record["verdicts"][name]["wins"] == 0
        assert record["verdicts"][name]["verdict"] == "within bound"


def test_ab_bench_stops_on_a_failed_run_and_checks_its_arguments(monkeypatch, capsys, tmp_path):
    parent = tmp_path / "parent"
    parent.mkdir()
    (parent / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    calls = stub_runs(monkeypatch, lambda k: 150.0, fail_at=("change", 1))
    change = tmp_path / "change"
    argv = ["--parent", str(parent), "--change", str(change), "--workload", "sim-batch"]
    assert ab_bench.main(argv + ["--pairs", "4"]) == 1
    assert calls == ["parent", "change", "change"]
    assert "pair 1 change: run failed" in capsys.readouterr().out

    for bad in (["--pairs", "1"], ["--workload", "simbatch"]):
        with pytest.raises(SystemExit) as rejected:
            ab_bench.main(argv + bad)
        assert rejected.value.code == 2, bad
        assert "error:" in capsys.readouterr().err
