"""One measured benchmark process: one workload, one seed, traced or not.

``run.py`` starts this file once per run, and again with ``--setup-only`` to
repeat the set-up.  The last line of its standard output is one JSON object.

Untraced, each pair goes through the public entry points a user calls
(``selective_p_value``, ``harness.run_ci``, ``permutation_test``).  Traced,
each pair goes through those entry points once, timed as a whole, and is
replayed through the layer functions with a span around every call; the
first pass is what the replay is checked against and the base of the
tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import math
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

from dtwsi import TimeSeriesPair, baselines, dtw_core, harness, inference, parametric  # noqa: E402
from dtwsi.harness import ExperimentConfig  # noqa: E402
from spans import Tracer  # noqa: E402
from speed import SETUP_SLICES, SpeedProbe  # noqa: E402

ALPHA = 0.05
# Reference p-values and interval bounds agree to this absolute tolerance,
# the one `dtwsi oracle` uses; interval bounds scale it by max(1, |bound|).
REFERENCE_TOL = 1e-9
# Nesting of the over-conditioned region, as in the acceptance suite.
SUBSET_TOL = 1e-9
# The envelope at the observed statistic is the observed DTW cost.
ENVELOPE_REL_TOL = 1e-9
# p90 is reported only with at least ten samples beyond it.
P90_MIN_PAIRS = 100

LAYERS = (
    "harness.generate_pair",
    "dtw_core.dtw",
    "inference.nuisance_decomposition",
    "parametric.para_dtw",
    "parametric.z1_region",
    "inference.z2_region",
    "inference.truncated_gaussian_sf",
    "inference.truncated_gaussian_ci",
    "baselines.si_dtw_oc_region",
    "baselines.permutation_test",
    "baselines.data_splitting_test",
)

TINY_PAIR = dict(n=6, m=6, seed=12345)


def _stream_seed(*key: int) -> int:
    return int(np.random.SeedSequence(list(key)).generate_state(1)[0])


def _generate(tracer: Tracer | None, config: ExperimentConfig, k: int) -> TimeSeriesPair:
    if tracer is None:
        return harness.generate_pair(config, k)
    return tracer.call("harness.generate_pair", k, harness.generate_pair, config, k)


class Facts:
    """Counts read from returned values during the traced replay, and the
    current pair's failed invariants."""

    def __init__(self):
        self.segments: list[int] = []
        self.window_segments: list[int] = []
        self.pieces: list[int] = []
        self.problems: list[str] = []


def _replay_conditional(tracer: Tracer, k: int, pair: TimeSeriesPair, method: str, facts: Facts):
    """``selective_p_value`` (or its over-conditioned twin) and the interval, layer by layer."""
    call = tracer.call
    M, cost = call("dtw_core.dtw", k, dtw_core.dtw, pair)
    s = dtw_core.sign_vector(M, pair)
    direction = dtw_core.test_direction(M, s)
    z = dtw_core.test_statistic(direction, pair)
    sigma = math.sqrt(pair.covariance_quadratic_form(direction.eta))
    line = call("inference.nuisance_decomposition", k, inference.nuisance_decomposition, pair, direction)
    if method == "si-dtw":
        env = call("parametric.para_dtw", k, parametric.para_dtw, line, pair.n, pair.m)
        selected = call("parametric.z1_region", k, parametric.z1_region, env, M)
    else:
        selected = call("baselines.si_dtw_oc_region", k, baselines.si_dtw_oc_region, pair, line)
    window = call("inference.z2_region", k, inference.z2_region, line, M, s)
    region = selected.intersect(window)
    p = call("inference.truncated_gaussian_sf", k, inference.truncated_gaussian_sf, z, sigma, region)
    lo, hi = call(
        "inference.truncated_gaussian_ci", k, inference.truncated_gaussian_ci, z, sigma, region, ALPHA
    )
    facts.pieces.append(len(region))
    if method == "si-dtw":
        bps = env.breakpoints
        meet = 0
        for w_lo, w_hi in window:
            meet += sum(bps[i] <= w_hi and bps[i + 1] >= w_lo for i in range(len(env.segments)))
        facts.segments.append(len(env.segments))
        facts.window_segments.append(meet)
        value = env.value(z)
        if not math.isclose(value, cost, rel_tol=ENVELOPE_REL_TOL):
            facts.problems.append(f"envelope at z_obs {value!r} != DTW cost {cost!r}")
    return p, (lo, hi), region


class Pooled:
    """Inputs drawn before timing starts; pair ``k`` is pool entry ``k mod POOL``."""

    POOL: int

    def __init__(self, seed: int, tracer: Tracer | None):
        self.pairs = [_generate(tracer, self.config(seed, k), k) for k in range(self.POOL)]

    def ref_index(self, k: int) -> int:
        return k % self.POOL

    def pair(self, k: int) -> TimeSeriesPair:
        return self.pairs[k % self.POOL]


class SinglePair(Pooled):
    """``selective_p_value`` then ``selective_confidence_interval``, like ``dtwsi test``."""

    N = 20
    POOL = 256
    SHIFTS = (0.0, 1.5)
    EXACT = False

    def config(self, seed: int, k: int) -> ExperimentConfig:
        return ExperimentConfig(n=self.N, m=self.N, delta=self.SHIFTS[k % 2], seed=seed)

    def warm_up(self):
        pair = harness.generate_pair(ExperimentConfig(**TINY_PAIR), 0)
        result = inference.selective_p_value(pair)
        inference.selective_confidence_interval(pair, ALPHA, result=result)

    def run(self, k: int) -> dict:
        pair = self.pair(k)
        result = inference.selective_p_value(pair)
        ci = inference.selective_confidence_interval(pair, ALPHA, result=result)
        return {"si-dtw": {"p": result.p_selective, "ci": list(ci)}}

    def replay(self, tracer: Tracer, k: int, facts: Facts) -> dict:
        p, ci, _ = _replay_conditional(tracer, k, self.pair(k), "si-dtw", facts)
        return {"si-dtw": {"p": p, "ci": list(ci)}}


class SimBatch:
    """``harness.run_ci`` one trial at a time, like ``dtwsi simulate --ci``.

    Data generation is part of the timed work, as it is in a simulation.
    """

    N = 10
    SHIFTS = (0.0, 2.0)
    EXACT = False

    def __init__(self, seed: int, tracer: Tracer | None):
        self.seed = seed

    def config(self, k: int) -> ExperimentConfig:
        return ExperimentConfig(
            n=self.N,
            m=self.N,
            delta=self.SHIFTS[k % 2],
            covariance="ar-correlation",
            alpha=ALPHA,
            trials=1,
            seed=_stream_seed(self.seed, k),
        )

    def ref_index(self, k: int) -> int:
        return k

    def warm_up(self):
        harness.run_ci(ExperimentConfig(**TINY_PAIR, covariance="ar-correlation", trials=1))

    def run(self, k: int) -> dict:
        report = harness.run_ci(self.config(k))
        return {
            name: {"p": res.p_values[0], "ci_length": res.ci_lengths[0]}
            for name, res in report.results.items()
        }

    def replay(self, tracer: Tracer, k: int, facts: Facts) -> dict:
        pair = _generate(tracer, self.config(k), 0)
        out, regions = {}, {}
        for method in ("si-dtw", "si-dtw-oc"):
            p, (lo, hi), regions[method] = _replay_conditional(tracer, k, pair, method, facts)
            out[method] = {"p": p, "ci_length": hi - lo}
        if not regions["si-dtw-oc"].is_subset_of(regions["si-dtw"], tol=SUBSET_TOL):
            facts.problems.append("si-dtw-oc region is not inside the si-dtw region")
        return out


class PermBaseline(Pooled):
    """``permutation_test(B=200)`` then ``data_splitting_test`` on null pairs."""

    N = 30
    B = 200
    POOL = 512
    EXACT = True

    def __init__(self, seed: int, tracer: Tracer | None):
        super().__init__(seed, tracer)
        self.perm_seeds = [_stream_seed(seed, k, 2) for k in range(self.POOL)]

    def config(self, seed: int, k: int) -> ExperimentConfig:
        return ExperimentConfig(n=self.N, m=self.N, delta=0.0, seed=seed)

    def warm_up(self):
        pair = harness.generate_pair(ExperimentConfig(**TINY_PAIR), 0)
        baselines.permutation_test(pair, 4, 0)
        baselines.data_splitting_test(pair)

    def run(self, k: int) -> dict:
        pair = self.pair(k)
        perm = baselines.permutation_test(pair, self.B, self.perm_seeds[k % self.POOL])
        return {"permutation": {"p": perm}, "data-split": {"p": baselines.data_splitting_test(pair)}}

    def replay(self, tracer: Tracer, k: int, facts: Facts) -> dict:
        pair = self.pair(k)
        perm = tracer.call(
            "baselines.permutation_test", k, baselines.permutation_test,
            pair, self.B, self.perm_seeds[k % self.POOL],
        )
        split = tracer.call("baselines.data_splitting_test", k, baselines.data_splitting_test, pair)
        return {"permutation": {"p": perm}, "data-split": {"p": split}}

    def direct_dtw(self, tracer: Tracer, k: int):
        """One direct alignment per pair, outside the pair's span.

        ``permutation_test`` runs ``B + 1`` alignments that cannot be seen from
        outside; this call prices one of them.
        """
        tracer.call("dtw_core.dtw", k, dtw_core.dtw, self.pair(k))


WORKLOADS = {"single-pair": SinglePair, "sim-batch": SimBatch, "perm-baseline": PermBaseline}


def _as_list(v):
    return list(v) if isinstance(v, (list, tuple)) else [v]


def differences(out: dict, want: dict, exact: bool) -> list[str]:
    """Entries of ``out`` that differ from ``want`` beyond the reference tolerance."""
    problems = []
    for method, values in want.items():
        for key, expected in values.items():
            got = out[method][key]
            for g, w in zip(_as_list(got), _as_list(expected)):
                tol = 0.0 if exact else REFERENCE_TOL * (1.0 if key == "p" else max(1.0, abs(w)))
                if not abs(g - w) <= tol:
                    problems.append(f"{method} {key}: got {g!r}, expected {w!r}")
    return problems


def check(out: dict, reference: dict | None, exact: bool) -> list[str]:
    """Invariants that hold on every seed, then the stored reference if there is one."""
    problems = []
    for method, values in out.items():
        if not 0.0 <= values["p"] <= 1.0:
            problems.append(f"{method}: p={values['p']!r} outside [0, 1]")
        if "ci" in values and not values["ci"][0] < values["ci"][1]:
            problems.append(f"{method}: interval {values['ci']!r} has low >= high")
        if "ci_length" in values and not values["ci_length"] > 0.0:
            problems.append(f"{method}: interval length {values['ci_length']!r} is not positive")
    if reference is not None:
        problems += differences(out, reference, exact)
    return problems


def load_references(path: str, workload: str, seed: int) -> list:
    with open(path, "r", encoding="utf-8") as handle:
        data = json.load(handle)
    return data["workloads"][workload] if data["seed"] == seed else []


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def _p90(values: list[float]) -> float | None:
    if len(values) < P90_MIN_PAIRS:
        return None
    return statistics.quantiles(values, n=10, method="inclusive")[-1]


def measure_untraced(workload, references: list, seconds: float) -> dict:
    times: list[float] = []
    attempted = failed = 0
    problems: list[str] = []
    scaled: list[float] = []
    probe = SpeedProbe()
    probing = 0.0
    start = time.perf_counter()
    k = 0
    while time.perf_counter() - start < seconds:
        probing += probe.maybe_run()
        attempted += 1
        t = time.perf_counter()
        try:
            out = workload.run(k)
        except Exception as exc:  # a raised exception is a counted failure
            failed += 1
            problems.append(f"pair {k}: {type(exc).__name__}: {exc}")
            k += 1
            continue
        times.append(time.perf_counter() - t)
        scaled.append(times[-1] / probe.latest)
        i = workload.ref_index(k)
        bad = check(out, references[i] if i < len(references) else None, workload.EXACT)
        if bad:
            failed += 1
            problems += [f"pair {k}: {msg}" for msg in bad]
        k += 1
    wall = time.perf_counter() - start - probing
    done = attempted - failed
    return {
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "metrics": {
            "pairs_per_s": done / wall * probe.slowdown,
            "pair_s_p50": _median(scaled),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        },
        "extra": {
            "pairs": len(times),
            "pair_s_p90": _p90(scaled),
            "referenced": sum(workload.ref_index(j) < len(references) for j in range(k)),
            "slowdown": probe.slowdown,
            "wall_clock": {"pairs_per_s": done / wall, "pair_s_p50": _median(times), "pair_s_p90": _p90(times)},
        },
    }


def _timed_run(workload, k: int) -> tuple[dict, float]:
    start = time.perf_counter()
    out = workload.run(k)
    return out, time.perf_counter() - start


def _traced_replay(workload, tracer: Tracer, k: int, facts: Facts) -> dict:
    with tracer.span("pair", k):
        return workload.replay(tracer, k, facts)


def measure_traced(workload, references: list, seconds: float, tracer: Tracer) -> dict:
    facts = Facts()
    untraced: list[float] = []
    attempted = failed = 0
    problems: list[str] = []
    start = time.perf_counter()
    k = 0
    while time.perf_counter() - start < seconds:
        attempted += 1
        facts.problems.clear()
        try:
            # alternate which pass runs first, so warm caches favour neither
            if k % 2 == 0:
                out, took = _timed_run(workload, k)
                replayed = _traced_replay(workload, tracer, k, facts)
            else:
                replayed = _traced_replay(workload, tracer, k, facts)
                out, took = _timed_run(workload, k)
            untraced.append(took)
            if isinstance(workload, PermBaseline):
                workload.direct_dtw(tracer, k)
        except Exception as exc:  # a raised exception is a counted failure
            bad = [f"{type(exc).__name__}: {exc}"]
        else:
            i = workload.ref_index(k)
            bad = check(out, references[i] if i < len(references) else None, workload.EXACT)
            bad += [f"replay {msg}" for msg in differences(replayed, out, workload.EXACT)]
            bad += facts.problems
        if bad:
            failed += 1
            problems += [f"pair {k}: {msg}" for msg in bad]
        k += 1

    layers = tracer.layer_summary(LAYERS + ("pair",))
    metrics: dict[str, float] = {}
    for name in LAYERS:
        for key in ("self_s", "call_s_p50", "calls", "failures"):
            metrics[f"{name}.{key}"] = layers[name][key]
    pair_spans = [s for s in tracer.spans if s.name == "pair" and s.ok]
    pair_wall = sum(s.end - s.start for s in pair_spans)
    metrics["pair.self_s"] = layers["pair"]["self_s"]
    metrics["trace.layer_frac"] = 1.0 - layers["pair"]["self_s"] / pair_wall if pair_wall else 0.0
    traced_rate = len(pair_spans) / pair_wall if pair_wall else 0.0
    untraced_rate = len(untraced) / sum(untraced) if untraced else 0.0
    metrics["trace.pairs_per_s"] = traced_rate
    metrics["trace.untraced_pairs_per_s"] = untraced_rate
    metrics["trace.overhead_pairs_per_s"] = untraced_rate - traced_rate
    segments = sum(facts.segments)
    metrics["parametric.para_dtw.segments"] = segments / len(facts.segments) if facts.segments else 0.0
    metrics["parametric.window_segment_frac"] = sum(facts.window_segments) / segments if segments else 0.0
    metrics["region.pieces"] = statistics.fmean(facts.pieces) if facts.pieces else 0.0
    perm = layers["baselines.permutation_test"]
    metrics["dtw_core.dtw.share"] = (
        (PermBaseline.B + 1) * layers["dtw_core.dtw"]["call_s_p50"] / (perm["self_s"] / perm["calls"])
        if isinstance(workload, PermBaseline) and perm["calls"]
        else 0.0
    )
    return {"attempted": attempted, "failed": failed, "problems": problems, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--references", required=True)
    parser.add_argument("--t0", type=float, required=True, help="time.monotonic() at process launch")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    tracer = Tracer() if args.trace else None
    workload = WORKLOADS[args.workload](args.seed, tracer)
    references = load_references(args.references, args.workload, args.seed)
    workload.warm_up()
    setup_raw = time.monotonic() - args.t0
    probe = SpeedProbe()
    for _ in range(SETUP_SLICES):
        probe.run_slice()
    setup = {"setup_s": setup_raw / probe.slowdown, "setup_s_raw": setup_raw}
    if args.setup_only:
        print(json.dumps(setup))
        return 0

    if tracer is None:
        result = measure_untraced(workload, references, args.seconds)
    else:
        result = measure_traced(workload, references, args.seconds, tracer)
        out_dir = ROOT / ".bench_out"
        out_dir.mkdir(exist_ok=True)
        tracer.write(out_dir / f"spans-{args.workload}-seed{args.seed}.jsonl")
    result.update(setup)
    result["versions"] = {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
