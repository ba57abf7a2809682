"""Regenerate ``references.json``: the correctness gate's stored outputs.

    python3 bench/make_references.py

Runs the first pairs of every workload at the default seed through the same
public entry points the untraced benchmark calls and stores their p-values
and intervals.  Regenerate only when a change is meant to alter results.
"""

from __future__ import annotations

import json
from pathlib import Path

from worker import WORKLOADS

SEED = 0
COUNTS = {"single-pair": 128, "sim-batch": 512, "perm-baseline": 512}


def main() -> None:
    data = {"seed": SEED, "workloads": {}}
    for name, count in COUNTS.items():
        workload = WORKLOADS[name](SEED, None)
        data["workloads"][name] = [workload.run(k) for k in range(count)]
        print(f"{name}: {count} pairs")
    write(data, Path(__file__).resolve().parent / "references.json")


def write(data: dict, path: Path) -> None:
    """One pair per line, so a change to a stored value shows as one line."""
    lines = [f'{{"seed": {data["seed"]}, "workloads": {{']
    blocks = []
    for name, entries in data["workloads"].items():
        rows = ",\n".join("  " + json.dumps(entry) for entry in entries)
        blocks.append(f" {json.dumps(name)}: [\n{rows}\n ]")
    lines.append(",\n".join(blocks))
    lines.append("}}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
