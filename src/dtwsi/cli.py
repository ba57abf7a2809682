"""Command-line front end.

Three subcommands: ``test`` runs the conditional test on one pair read from
series files, ``simulate`` drives a batch experiment from a config file plus
flag overrides, ``oracle`` cross-checks the fast engine against brute force
on small problems.  Exit codes: 0 success, 2 input or parse error,
3 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import fields

import numpy as np

from .dtw_core import TimeSeriesPair, cost_matrix, dtw, enumerate_alignments
from .harness import (
    EXACT_METHODS,
    METHODS,
    ExperimentConfig,
    UcrFormatError,
    load_ucr_pair,
    parse_config_file,
    run_ci,
    run_fpr,
    summary_record,
    write_report_csv,
    write_report_jsonl,
)
from .inference import (
    DegenerateDirectionError,
    conditional_test,
    selective_confidence_interval,
    selective_p_value,
)
from .intervals import IntervalUnion
from .parametric import DataLine, _path_loss, cell_terms, envelope_bruteforce, para_dtw
from .parametric import si_dtw_region, z1_region

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_NUMERIC = 3

# The oracle's thresholds: relative to the value floored at 1 (p-values, breakpoints: absolute).
ENVELOPE_TOL = 1e-8
ORACLE_TOL = 1e-9

COV_TOKENS = {"indep": "independence", "ar": "ar-correlation"}
NOISE_TOKENS = {
    "gauss": "gaussian",
    "laplace": "laplace",
    "skewnormal": "skew-normal-10",
    "t20": "student-t-20",
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="dtwsi")
    sub = parser.add_subparsers(dest="command", required=True)

    p_test = sub.add_parser("test", help="conditional test for one pair of series files")
    p_test.add_argument("path_a")
    p_test.add_argument("path_b")
    p_test.add_argument("--row-a", type=int, default=0)
    p_test.add_argument("--row-b", type=int, default=0)
    p_test.add_argument("--method", choices=list(EXACT_METHODS), default="si-dtw")
    p_test.add_argument("--alpha", type=float, default=0.05)
    p_test.add_argument("--variance", choices=["known", "estimated"], default="estimated")
    p_test.add_argument("--out", default=None)

    p_sim = sub.add_parser("simulate", help="batch experiment from a config file")
    p_sim.add_argument("--config", default=None, help="flat key = value file")
    p_sim.add_argument("--method", choices=METHODS)
    p_sim.add_argument("--n", type=int)
    p_sim.add_argument("--m", type=int)
    p_sim.add_argument("--delta", type=float)
    p_sim.add_argument("--cov", choices=sorted(COV_TOKENS))
    p_sim.add_argument("--noise", choices=sorted(NOISE_TOKENS))
    p_sim.add_argument("--variance", choices=["known", "estimated"])
    p_sim.add_argument("--alpha", type=float)
    p_sim.add_argument("--trials", type=int)
    p_sim.add_argument("--seed", type=int)
    p_sim.add_argument("--perm-B", type=int, dest="perm_b")
    p_sim.add_argument("--ci", action="store_true", help="run both exact methods, with intervals")
    p_sim.add_argument("--out", default=None)
    p_sim.add_argument("--format", choices=["json-lines", "csv"], default="json-lines")

    p_orc = sub.add_parser("oracle", help="brute-force cross-checks for small sizes")
    p_orc.add_argument("--n", type=int, default=4)
    p_orc.add_argument("--m", type=int, default=4)
    p_orc.add_argument("--instances", type=int, default=20)
    p_orc.add_argument("--seed", type=int, default=0)
    return parser


def _cmd_test(args) -> int:
    pair = load_ucr_pair(
        args.path_a, args.path_b, args.row_a, args.row_b, variance_mode=args.variance
    )
    result = conditional_test(pair, EXACT_METHODS[args.method])
    ci = selective_confidence_interval(pair, args.alpha, result=result)

    def finite(x):
        # strict JSON has no Infinity literal; a region's lower end is always
        # finite (it lies inside the sign-preserving window, whose lower end is)
        return "inf" if x == float("inf") else x

    record = {
        "method": args.method,
        "p_selective": result.p_selective,
        "statistic": result.z_obs,
        "sigma": result.sigma,
        "alpha": args.alpha,
        "ci": list(ci),
        "region": [[finite(lo), finite(hi)] for lo, hi in result.region],
        "alignment": [list(cell) for cell in result.alignment.path],
    }
    text = json.dumps(record, indent=2)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
    print(text)
    return EXIT_OK


def _config_from_args(args) -> ExperimentConfig:
    values: dict = {}
    if args.config:
        # each field's default says its type; an unknown key reaches the constructor as is
        types = {f.name: type(f.default) for f in fields(ExperimentConfig)}
        for key, value in parse_config_file(args.config).items():
            values[key] = types[key](value) if key in types else value
    overrides = {
        "method": args.method,
        "n": args.n,
        "m": args.m,
        "delta": args.delta,
        "covariance": COV_TOKENS.get(args.cov) if args.cov else None,
        "noise": NOISE_TOKENS.get(args.noise) if args.noise else None,
        "variance_mode": args.variance,
        "alpha": args.alpha,
        "trials": args.trials,
        "seed": args.seed,
        "B": args.perm_b,
    }
    values.update({k: v for k, v in overrides.items() if v is not None})
    return ExperimentConfig(**values)


def _cmd_simulate(args) -> int:
    config = _config_from_args(args)
    if args.ci and config.method not in EXACT_METHODS:
        raise ValueError(f"--ci runs both exact methods, not {config.method!r}")
    report = run_ci(config) if args.ci else run_fpr(config)
    if args.out:
        if args.format == "json-lines":
            write_report_jsonl(report, args.out)
        else:
            write_report_csv(report, args.out)
    print(json.dumps(summary_record(report), indent=2))
    return EXIT_OK


def check_envelope(line: DataLine, alignments):
    """``para_dtw`` on the full line against brute force over ``alignments``.

    Returns ``(ok, value_gap, breakpoint_gap, reference)``.  ``value_gap`` is
    the worst gap to the alignments' least loss, relative to it floored at 1,
    on 200 points of ``[-20, 20]`` and 500 reaching 5 past the outer finite
    breakpoints; every loss triple is evaluated on that grid at once, by the
    envelope's own ``(w2 z + w1) z + w0``.  ``breakpoint_gap`` is the worst
    absolute gap to the ``reference``, ``envelope_bruteforce``'s envelope,
    and infinite when the segments differ in number or in path: the two
    walks may reach a crossing from different active candidates, so
    breakpoints may differ in the last bits; paths may not.  ``ok`` holds
    when the gaps are within ``ENVELOPE_TOL`` and ``ORACLE_TOL``.
    """
    env = para_dtw(line, line.n, line.m)
    reference = envelope_bruteforce(alignments, line)
    finite = [b for b in env.breakpoints if math.isfinite(b)]
    lo, hi = (min(finite) - 5.0, max(finite) + 5.0) if finite else (-10.0, 10.0)
    zs = np.concatenate([np.linspace(-20.0, 20.0, 200), np.linspace(lo, hi, 500)])
    terms = cell_terms(line)
    w0, w1, w2 = np.array([_path_loss(A._cells, terms) for A in alignments]).T[:, :, None]
    # a block of grid points at a time: at most about 2^20 losses in memory
    step = max(1, 2**20 // len(alignments))
    blocks = [zs[k : k + step] for k in range(0, zs.size, step)]
    truth = np.concatenate([((w2 * z + w1) * z + w0).min(axis=0) for z in blocks])
    fast = np.array([env.value(z) for z in zs.tolist()])
    value_gap = float(np.max(np.abs(fast - truth) / np.maximum(1.0, np.abs(truth))))
    gaps = [0.0 if u == v else abs(u - v) for u, v in zip(env.breakpoints, reference.breakpoints)]
    same = [M.path for M, _ in env.segments] == [M.path for M, _ in reference.segments]
    breakpoint_gap = max(gaps) if same else math.inf
    ok = value_gap <= ENVELOPE_TOL and breakpoint_gap <= ORACLE_TOL
    return ok, value_gap, breakpoint_gap, reference


def _same_pieces(got, want) -> bool:
    """Equally many pieces, endpoints equal or within ``ORACLE_TOL`` relative (floored at 1)."""
    return len(got) == len(want) and all(
        u == v or abs(u - v) <= ORACLE_TOL * max(1.0, abs(v))
        for piece, other in zip(got, want)
        for u, v in zip(piece, other)
    )


def _cmd_oracle(args) -> int:
    if min(args.n, args.m, args.instances) < 1:
        raise ValueError("--n, --m and --instances must be at least 1")
    rng = np.random.default_rng(args.seed)
    # windows draw from their own stream, so each seed keeps its instances
    window_rng = np.random.default_rng([args.seed, 1])
    n, m = args.n, args.m
    alignments = enumerate_alignments(n, m)
    failures = 0
    worst_value = worst_breakpoint = 0.0
    for k in range(args.instances):
        pair = TimeSeriesPair(rng.normal(size=n), rng.normal(size=m))
        M, dist = dtw(pair)
        C = cost_matrix(pair)
        brute = min(sum(C[i - 1, j - 1] for i, j in A.path) for A in alignments)
        ok_dtw = abs(dist - brute) <= ORACLE_TOL * max(1.0, brute)

        a = rng.normal(size=n + m)
        b = rng.normal(size=n + m)
        line = DataLine(a, b, n)
        ok_env, value_gap, breakpoint_gap, env_bf = check_envelope(line, alignments)
        worst_value = max(worst_value, value_gap)
        worst_breakpoint = max(worst_breakpoint, breakpoint_gap)

        # the region builder on a finite window, where it skips cells: observed
        # in each brute-force segment there, it gives that path's solid pieces
        lo = window_rng.uniform(-3.0, 3.0)
        hi = lo + 10.0 ** window_rng.uniform(-2.0, 0.5)
        window = IntervalUnion([(lo, hi)])
        bps = env_bf.breakpoints
        ok_window = True
        for j, (A, _) in enumerate(env_bf.segments):
            seg_lo, seg_hi = max(lo, bps[j]), min(hi, bps[j + 1])
            if seg_lo <= seg_hi:
                got = si_dtw_region(line, A, window, 0.5 * seg_lo + 0.5 * seg_hi)
                want = z1_region(env_bf, A).intersect(window)
                ok_window &= _same_pieces(*([p for p in r if p[1] > p[0]] for r in (got, want)))

        fast = selective_p_value(pair)
        slow = conditional_test(
            pair, lambda cond: z1_region(envelope_bruteforce(alignments, cond.line), cond.alignment)
        )
        ok_p = abs(fast.p_selective - slow.p_selective) <= ORACLE_TOL
        ok_region = _same_pieces(fast.region, slow.region)

        status = "ok" if (ok_dtw and ok_env and ok_window and ok_p and ok_region) else "MISMATCH"
        print(
            f"instance {k:3d}: dtw={'ok' if ok_dtw else 'FAIL'} "
            f"envelope={'ok' if ok_env else 'FAIL'} window={'ok' if ok_window else 'FAIL'} "
            f"p={'ok' if ok_p else 'FAIL'} region={'ok' if ok_region else 'FAIL'} -> {status}"
        )
        failures += status != "ok"
    print(
        f"{args.instances - failures}/{args.instances} instances consistent; "
        f"worst envelope gap {worst_value:.1e}, worst breakpoint gap {worst_breakpoint:.1e}"
    )
    return EXIT_OK if failures == 0 else EXIT_NUMERIC


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "test":
            return _cmd_test(args)
        if args.command == "simulate":
            return _cmd_simulate(args)
        return _cmd_oracle(args)
    except (UcrFormatError, FileNotFoundError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (DegenerateDirectionError, ArithmeticError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (ValueError, TypeError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except RuntimeError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
