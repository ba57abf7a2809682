"""Every benchmark workload against its stored references at the reference seed.

Each workload runs its first pair through the public entry points and through
the traced layer-by-layer replay; both must agree with the stored references
and with each other.  Every other referenced pair then runs through the public
entry points alone.  So a change that breaks an entry point the benchmark
calls, or moves a result the benchmark checks, fails here and not only in a
benchmark run.
"""

import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"
sys.path.insert(0, str(BENCH))

import worker  # noqa: E402
from spans import Tracer  # noqa: E402

SEED = 0


@pytest.mark.parametrize("name", sorted(worker.WORKLOADS))
def test_first_pair_matches_references(name):
    workload = worker.WORKLOADS[name](SEED, None)
    references = worker.load_references(str(BENCH / "references.json"), name, SEED)
    out = workload.run(0)
    facts = worker.Facts()
    replayed = workload.replay(Tracer(), 0, facts)
    assert worker.check(out, references[workload.ref_index(0)], workload.EXACT) == []
    assert worker.differences(replayed, out, workload.EXACT) == []
    assert facts.problems == []


@pytest.mark.parametrize("name", sorted(worker.WORKLOADS))
def test_every_reference_pair_matches(name):
    workload = worker.WORKLOADS[name](SEED, None)
    references = worker.load_references(str(BENCH / "references.json"), name, SEED)
    assert references
    problems = []
    for k in range(len(references)):
        out = workload.run(k)
        problems += [f"pair {k}: {msg}" for msg in worker.check(out, references[k], workload.EXACT)]
    assert problems == []
