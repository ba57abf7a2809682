"""Alternating A/B runs of the benchmark on two checkouts, judged by the bounds of BENCHMARK.json.

    python3 tools/ab_bench.py --parent ../parent --change . --workload sim-batch \\
        --pairs 5 --seconds 35 --seed 13

Pair ``k`` runs the benchmark command that ``BENCHMARK.json`` declares once in
each checkout, from that checkout's directory: the parent first when ``k`` is
even, the change first when it is odd, so a drift in machine speed does not
favour one side.  The end-to-end metrics, their sense and their bounds are
read from the parent's ``BENCHMARK.json``; no file of either checkout is
changed.  For each metric it prints both medians, the parent's quartiles, the
pairs the change wins (ties count for neither side) and a verdict:

- ``regression``: the change's median is worse than the parent's by more than
  the bound, a share of the parent's median;
- ``gain``: the change wins at least nine tenths of the pairs and its median
  is better than the parent's by more than the parent's interquartile range;
- ``within bound``: neither.

The last line is one JSON object with every run's values and each verdict.
Exits 1 on a regression or a failed run (non-zero exit, no JSON line, or a
pair that failed its checks), else 0.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


class RunFailed(RuntimeError):
    """One benchmark run did not finish with every pair correct."""


def run_once(checkout: Path, command: list[str], workload: str, seconds: int, seed: int) -> dict:
    """One benchmark run in ``checkout``: the JSON object its last output line holds."""
    argv = command + ["--workload", workload, "--seconds", str(seconds), "--seed", str(seed)]
    proc = subprocess.run(argv, cwd=checkout, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RunFailed(f"{checkout}: exit code {proc.returncode}")
    try:
        record = json.loads(lines[-1])
    except json.JSONDecodeError:
        raise RunFailed(f"{checkout}: last output line is not JSON: {lines[-1]!r}") from None
    if not record.get("correct") or record.get("failed"):
        failed, attempted = record.get("failed"), record.get("attempted")
        raise RunFailed(f"{checkout}: {failed} of {attempted} pairs failed")
    return record


def judge(metric: dict, parent: list[float], change: list[float]) -> dict:
    """Medians, the parent's quartiles, the change's wins and the verdict for one metric."""
    sense = 1.0 if metric["better"] == "higher" else -1.0
    p_med, c_med = statistics.median(parent), statistics.median(change)
    q1, _, q3 = statistics.quantiles(parent, n=4, method="inclusive")
    wins = sum(sense * (c - p) > 0.0 for p, c in zip(parent, change))
    if sense * (p_med - c_med) > metric["bound"] * abs(p_med):
        verdict = "regression"
    elif wins >= 0.9 * len(parent) and sense * (c_med - p_med) > q3 - q1:
        verdict = "gain"
    else:
        verdict = "within bound"
    return {
        "parent_median": p_med, "parent_quartiles": [q1, q3], "change_median": c_med,
        "wins": wins, "pairs": len(parent), "verdict": verdict,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True, help="checkout of the parent commit")
    parser.add_argument("--change", type=Path, required=True, help="checkout of the change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10, help="alternating pairs of runs, >= 2")
    parser.add_argument("--seconds", type=int, default=35)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2: quartiles need two runs per side")
    with open(args.parent / "BENCHMARK.json", "r", encoding="utf-8") as handle:
        declared = json.load(handle)
    if args.workload not in [w["name"] for w in declared["workloads"]]:
        parser.error(f"workload {args.workload!r} is not declared in BENCHMARK.json")

    sides = {"parent": args.parent, "change": args.change}
    values = {side: {m["name"]: [] for m in declared["end_to_end"]} for side in sides}
    for k in range(args.pairs):
        for side in ("parent", "change") if k % 2 == 0 else ("change", "parent"):
            try:
                record = run_once(
                    sides[side], declared["command"], args.workload, args.seconds, args.seed
                )
            except RunFailed as exc:
                print(f"pair {k} {side}: run failed: {exc}", flush=True)
                return 1
            for name, column in values[side].items():
                column.append(record["metrics"][name]["value"])
            shown = " ".join(f"{name}={column[-1]:.6g}" for name, column in values[side].items())
            print(f"pair {k} {side}: {shown}", flush=True)

    verdicts = {}
    for metric in declared["end_to_end"]:
        name = metric["name"]
        verdicts[name] = v = judge(metric, values["parent"][name], values["change"][name])
        q1, q3 = v["parent_quartiles"]
        print(
            f"{name:12s} parent {v['parent_median']:.6g} [{q1:.6g}, {q3:.6g}]  "
            f"change {v['change_median']:.6g}  wins {v['wins']}/{v['pairs']}  {v['verdict']}"
        )
    print(json.dumps({"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                      "runs": values, "verdicts": verdicts}))
    return 1 if any(v["verdict"] == "regression" for v in verdicts.values()) else 0


if __name__ == "__main__":
    sys.exit(main())
