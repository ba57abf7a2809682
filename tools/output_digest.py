"""Digest of every benchmark workload output, to check that a change keeps results bit for bit.

    python3 tools/output_digest.py                      # the bench/references.json pairs
    python3 tools/output_digest.py --workload sim-batch --seeds 0-9 --pairs 16000
    python3 tools/output_digest.py --root ../parent     # the same, for another checkout

For each workload it runs ``run(k)`` of ``bench/worker.py``'s workload class,
untimed, for every seed and ``k < pairs``, and prints one SHA-256 over the
``float.hex`` of every value returned, with the number of trials and how many
raised.  A raised trial enters the digest as its exception type and message.
Two checkouts give equal digests exactly when every output is equal to the
last bit and every failure is the same.  The default ``--pairs`` is the number
of ``bench/references.json`` entries for the workload (those are seed 0's).

``--root`` names the checkout to digest: its ``bench/worker.py`` is imported,
and it imports that checkout's ``src``.  Neither file is changed.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import sys
import time
from pathlib import Path

HERE_ROOT = Path(__file__).resolve().parents[1]


def _seeds(text: str) -> list[int]:
    """``"3"`` or ``"0-9"`` (inclusive); anything else, or an empty range, is an argument error."""
    first, _, last = text.partition("-")
    try:
        seeds = list(range(int(first), int(last or first) + 1))
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a seed or a range A-B: {text!r}") from None
    if not seeds:
        raise argparse.ArgumentTypeError(f"empty seed range: {text!r}")
    return seeds


def _values(out: dict):
    """``(method, key, hex)`` for every float of one output, in a fixed order."""
    for method in sorted(out):
        for key in sorted(out[method]):
            value = out[method][key]
            for v in value if isinstance(value, (list, tuple)) else [value]:
                yield method, key, float(v).hex()


def digest(worker, name: str, seeds: list[int], pairs: int) -> dict:
    sha = hashlib.sha256()
    raised = 0
    start = time.perf_counter()
    for seed in seeds:
        workload = worker.WORKLOADS[name](seed, None)
        for k in range(pairs):
            try:
                out = workload.run(k)
            except Exception as exc:  # a failure is part of the output
                raised += 1
                sha.update(f"{seed} {k} raised {type(exc).__name__}: {exc}\n".encode())
                continue
            for method, key, text in _values(out):
                sha.update(f"{seed} {k} {method} {key} {text}\n".encode())
    return {
        "workload": name,
        "seeds": f"{seeds[0]}-{seeds[-1]}",
        "pairs": pairs,
        "trials": len(seeds) * pairs,
        "raised": raised,
        "sha256": sha.hexdigest(),
        "seconds": round(time.perf_counter() - start, 1),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", type=Path, default=HERE_ROOT, help="checkout to digest")
    parser.add_argument("--workload", action="append", help="repeatable; default: all")
    parser.add_argument(
        "--seeds", type=_seeds, default="0", help='one seed or an inclusive range "A-B"'
    )
    parser.add_argument("--pairs", type=int, help="k = 0 .. pairs-1 per seed")
    args = parser.parse_args(argv)

    bench = args.root.resolve() / "bench"
    sys.path.insert(0, str(bench))
    sys.dont_write_bytecode = True  # leave the checkout as it is
    worker = importlib.import_module("worker")
    unknown = sorted(set(args.workload or ()) - set(worker.WORKLOADS))
    if unknown:
        known = ", ".join(worker.WORKLOADS)
        parser.error(f"unknown workload {', '.join(unknown)} (choose from {known})")
    with open(bench / "references.json", "r", encoding="utf-8") as handle:
        references = json.load(handle)["workloads"]
    for name in args.workload or list(worker.WORKLOADS):
        pairs = len(references[name]) if args.pairs is None else args.pairs
        print(json.dumps(digest(worker, name, args.seeds, pairs)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
