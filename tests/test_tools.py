"""The output digest that checks a change keeps every benchmark output bit for bit."""

import json
import math
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "bench"))
sys.path.insert(0, str(ROOT / "tools"))

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
