"""Self-test of the benchmark: the correctness gate is not empty.

    python3 bench/selftest.py

Runs the sim-batch workload for a few seconds at the default seed:

1. with the stored references: it must pass and report exactly the
   end-to-end metrics ``BENCHMARK.json`` declares, with their units;
2. traced: it must pass and report exactly the declared per-layer metrics;
3. with one stored reference p-value made wrong (still inside [0, 1], so only
   the reference comparison can catch it): it must exit non-zero, print the
   failing pair, and report ``correct`` false with ``failed_frac`` above 0.

Exits 0 when all three hold.
"""

from __future__ import annotations

import json
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SECONDS = "2"


def run(*extra: str) -> tuple[int, list[str], dict]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "sim-batch", "--seed", "0",
         "--seconds", SECONDS, *extra],
        stdout=subprocess.PIPE, text=True, cwd=ROOT, timeout=170,
    )
    lines = proc.stdout.splitlines()
    return proc.returncode, lines, json.loads(lines[-1])


def units(result: dict) -> dict[str, str]:
    return {name: metric["unit"] for name, metric in result["metrics"].items()}


def declared(metrics: list[dict]) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in metrics}


def expect(condition: bool, message: str) -> None:
    if not condition:
        print(f"selftest FAILED: {message}")
        sys.exit(1)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    references = json.loads((HERE / "references.json").read_text(encoding="utf-8"))

    code, _, result = run("--trace", "0")
    expect(code == 0 and result["correct"] and result["failed"] == 0, "clean run did not pass")
    expect(units(result) == declared(spec["end_to_end"]), "untraced metrics differ from BENCHMARK.json")

    code, _, result = run("--trace", "1")
    expect(code == 0 and result["correct"], "clean traced run did not pass")
    expect(units(result) == declared(spec["per_layer"]), "traced metrics differ from BENCHMARK.json")

    first = references["workloads"]["sim-batch"][0]["si-dtw"]
    first["p"] = (first["p"] + 0.5) % 1.0
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=out_dir) as tmp:
        wrong = Path(tmp) / "references.json"
        wrong.write_text(json.dumps(references), encoding="utf-8")
        code, lines, result = run("--trace", "0", "--references", str(wrong))
    expect(code != 0, "a wrong reference p-value did not fail the run")
    expect(not result["correct"] and result["failed"] > 0, "the result line did not report the failure")
    expect(result["failed"] / result["attempted"] > 0.0, "failed_frac is 0")
    expect(any(line.startswith("FAILED pair 0: si-dtw p:") for line in lines), "no FAILED line for pair 0")
    print("selftest passed: the gate catches a wrong reference p-value")
    return 0


if __name__ == "__main__":
    sys.exit(main())
