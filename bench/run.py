"""Benchmark of the dtwsi inference pipeline: one workload, one seed, one run.

    python3 bench/run.py --workload single-pair --seed 0 --seconds 35 --trace 0

Runs the workload in a fresh process for ``--seconds`` seconds, checks every
p-value and interval it produces, prints each metric by name and unit, and
ends with one JSON line: ``correct``, ``attempted``, ``failed`` and
``metrics``.  ``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the
per-layer metrics of a traced replay of the same pairs.  The set-up is
repeated in separate processes and its median reported.  Exits 1 when a
check fails and 2 when the package source is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
WORKLOADS = ("single-pair", "sim-batch", "perm-baseline")
# Set-up is measured this many times in all: in extra processes that only set
# up, and in the measured process itself.
SETUP_RUNS = 3
# Every run, set-up included, ends within this many seconds.
DEADLINE_S = 175.0

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END_UNITS = {"pairs_per_s": "1/s", "pair_s_p50": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def machine_info() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", "r", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": len(os.sched_getaffinity(0)), "cpu": cpu}


def spawn(args, deadline: float, setup_only: bool) -> dict:
    """Start one worker process, wait for it, and return its JSON result."""
    command = [
        sys.executable, str(WORKER),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--references", args.references,
    ]
    if setup_only:
        command.append("--setup-only")
    # one thread: the BLAS library would otherwise start a thread per core
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", **{v: "1" for v in BLAS_THREAD_VARS})
    t0 = time.monotonic()
    proc = subprocess.run(
        command + ["--t0", repr(t0)],
        stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT,
        timeout=max(1.0, deadline - time.monotonic()),
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=35)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--references", default=str(HERE / "references.json"),
        help="reference p-values and intervals for the default seed",
    )
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    deadline = time.monotonic() + DEADLINE_S
    if not (ROOT / "src" / "dtwsi" / "__init__.py").is_file():
        print(f"error: package source not found under {ROOT / 'src'}", file=sys.stderr)
        return 2

    try:
        setups = []
        if not args.trace:
            for _ in range(SETUP_RUNS - 1):
                setups.append(spawn(args, deadline, setup_only=True))
        result = spawn(args, deadline, setup_only=False)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, IndexError) as exc:
        print(f"error: benchmark process failed: {exc}", file=sys.stderr)
        return 1
    setups.append(result)

    info = {**machine_info(), **result["versions"], "workload": args.workload,
            "seed": args.seed, "seconds": args.seconds, "trace": args.trace}
    print("machine: " + json.dumps(info))
    for problem in result["problems"][:20]:
        print(f"FAILED {problem}")
    if len(result["problems"]) > 20:
        print(f"FAILED ... and {len(result['problems']) - 20} more")

    attempted, failed = result["attempted"], result["failed"]
    if args.trace:
        metrics = {
            name: {"value": value, "unit": per_layer_unit(name)}
            for name, value in result["metrics"].items()
        }
    else:
        values = dict(result["metrics"], setup_s=statistics.median(s["setup_s"] for s in setups))
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END_UNITS.items()}
    for name, metric in metrics.items():
        print(f"{name:44s} {metric['value']:.6g} {metric['unit']}")
    if not args.trace:
        extra = result["extra"]
        print(f"{'pair_s samples':44s} {extra['pairs']} count")
        print(f"{'pair_s_p90':44s} " + per_pair_p90(extra["pair_s_p90"]))
        print(f"{'setup_s runs':44s} " + " ".join(f"{s['setup_s']:.4f}" for s in setups) + " s")
        print(f"{'setup_s runs, raw wall clock':44s} " + " ".join(f"{s['setup_s_raw']:.4f}" for s in setups) + " s")
        print(f"{'pairs checked against references':44s} {extra['referenced']} count")
        print(f"{'machine slowdown vs reference speed':44s} {extra['slowdown']:.4f} ratio")
        raw = extra["wall_clock"]
        print(f"{'pairs_per_s, raw wall clock':44s} {raw['pairs_per_s']:.6g} 1/s")
        print(f"{'pair_s_p50, raw wall clock':44s} {raw['pair_s_p50']:.6g} s")
        print(f"{'pair_s_p90, raw wall clock':44s} " + per_pair_p90(raw["pair_s_p90"]))
    print(f"{'failed_frac':44s} {failed / attempted:.6g} ({failed}/{attempted})")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


def per_pair_p90(value) -> str:
    return "n/a (fewer than 100 pairs)" if value is None else f"{value:.6g} s"


def per_layer_unit(name: str) -> str:
    if name.endswith("pairs_per_s"):
        return "1/s"
    if name.endswith(("_s", "_s_p50")):
        return "s"
    if name.endswith((".calls", ".failures", ".segments", ".pieces")):
        return "count"
    return "ratio"

if __name__ == "__main__":
    sys.exit(main())
