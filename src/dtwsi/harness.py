"""Reproducible experiment driver: data generation, batch runs, file I/O.

Synthetic pairs are drawn from a mean-shift model with configurable
covariance and noise family; every draw is keyed by ``(seed, trial, stream)``
through a counter-style seed sequence, so trials are bit-reproducible and
order-independent.  Batch drivers sweep the false/true positive rate and
confidence-interval experiments and serialize plot-ready records.
"""

from __future__ import annotations

import csv
import json
import math
import time
from dataclasses import asdict, dataclass, field
from functools import lru_cache

import numpy as np

from .baselines import _si_dtw_oc, data_splitting_test, permutation_test
from .dtw_core import TimeSeriesPair
from .inference import _condition, _finish, _si_dtw, truncated_gaussian_ci

__all__ = [
    "UcrFormatError",
    "ExperimentConfig",
    "MethodResult",
    "ExperimentReport",
    "generate_pair",
    "estimated_variance_pair",
    "run_fpr",
    "run_ci",
    "load_ucr_pair",
    "summary_record",
    "write_report_jsonl",
    "write_report_csv",
    "parse_config_file",
]

# The conditional tests, by method name: each maps to the region builder that
# ``inference.conditional_test`` takes, the only step in which they differ;
# ``conditional_test(pair, EXACT_METHODS[name])`` runs one.
EXACT_METHODS = {"si-dtw": _si_dtw, "si-dtw-oc": _si_dtw_oc}
METHODS = (*EXACT_METHODS, "permutation", "data-split")
COVARIANCES = ("independence", "ar-correlation")
NOISES = ("gaussian", "laplace", "skew-normal-10", "student-t-20")
VARIANCE_MODES = ("known", "estimated")

AR_RHO = 0.5
SKEW_SHAPE = 10.0
STUDENT_DF = 20.0


class UcrFormatError(ValueError):
    """A series file does not follow the label-then-values comma layout."""


@dataclass(frozen=True)
class ExperimentConfig:
    """Settings for one batch of trials."""

    method: str = "si-dtw"
    n: int = 10
    m: int = 10
    delta: float = 0.0
    covariance: str = "independence"
    noise: str = "gaussian"
    variance_mode: str = "known"
    alpha: float = 0.05
    trials: int = 120
    seed: int = 0
    B: int = 200

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(f"method must be one of {METHODS}, got {self.method!r}")
        if self.covariance not in COVARIANCES:
            raise ValueError(f"covariance must be one of {COVARIANCES}")
        if self.noise not in NOISES:
            raise ValueError(f"noise must be one of {NOISES}")
        if self.variance_mode not in VARIANCE_MODES:
            raise ValueError(f"variance_mode must be one of {VARIANCE_MODES}")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if not 0.0 < self.alpha < 1.0:
            raise ValueError("alpha must lie strictly between 0 and 1")
        if self.n < 1 or self.m < 1:
            raise ValueError("series lengths must be >= 1")
        if self.B < 1:
            raise ValueError("permutation count B must be >= 1")


@dataclass(frozen=True)
class MethodResult:
    """Per-method outcome of a batch: p-values, timings, optional intervals.

    ``seconds`` holds each trial's time for the method.  For an exact method
    that is the pair's conditioning, which the batch runs once and shares
    between its exact methods, plus the method's own region, tail and
    interval: what a standalone test of the pair would take.
    """

    method: str
    p_values: tuple[float, ...]
    seconds: tuple[float, ...]
    rejection_rate: float
    ci_lengths: tuple[float, ...] | None = None
    ci_covered: tuple[bool, ...] | None = None

    @property
    def mean_ci_length(self) -> float | None:
        return float(np.mean(self.ci_lengths)) if self.ci_lengths else None

    @property
    def median_ci_length(self) -> float | None:
        return float(np.median(self.ci_lengths)) if self.ci_lengths else None

    @property
    def coverage_rate(self) -> float | None:
        return float(np.mean(self.ci_covered)) if self.ci_covered else None


@dataclass(frozen=True)
class ExperimentReport:
    """Config echo plus one result block per method run on the shared trials."""

    config: ExperimentConfig
    results: dict[str, MethodResult] = field(default_factory=dict)


@lru_cache(maxsize=32)
def _covariance(kind: str, size: int) -> tuple[np.ndarray, np.ndarray]:
    """The model covariance and its Cholesky factor, built once per kind and size.

    Every caller shares the cached arrays, so both are read-only.
    """
    if kind == "independence":
        sigma = np.eye(size)
    else:
        idx = np.arange(size)
        sigma = AR_RHO ** np.abs(np.subtract.outer(idx, idx))
    factor = np.linalg.cholesky(sigma)
    sigma.flags.writeable = False
    factor.flags.writeable = False
    return sigma, factor


def _standard_noise(rng: np.random.Generator, size: int, family: str) -> np.ndarray:
    """Zero-mean unit-variance draws so the covariance factor sets the scale."""
    if family == "gaussian":
        return rng.normal(size=size)
    if family == "laplace":
        return rng.laplace(scale=1.0 / math.sqrt(2.0), size=size)
    if family == "skew-normal-10":
        # scipy.stats is imported here, not at module level: it is most of
        # the package's start-up time, and only this family draws from it
        from scipy.stats import skewnorm

        d = SKEW_SHAPE / math.sqrt(1.0 + SKEW_SHAPE**2)
        mean = d * math.sqrt(2.0 / math.pi)
        std = math.sqrt(1.0 - 2.0 * d * d / math.pi)
        return (skewnorm.rvs(SKEW_SHAPE, size=size, random_state=rng) - mean) / std
    if family == "student-t-20":
        return rng.standard_t(STUDENT_DF, size=size) / math.sqrt(STUDENT_DF / (STUDENT_DF - 2.0))
    raise ValueError(f"unknown noise family {family!r}")


def _stream_rng(seed: int, trial_index: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, trial_index, stream])


def estimated_variance_pair(x: np.ndarray, y: np.ndarray) -> TimeSeriesPair:
    """Pair whose covariance is the per-series sample variance on the diagonal.

    A plug-in approximation: inference with it is no longer exact.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.size < 2 or y.size < 2:
        raise ValueError("variance estimation needs at least two observations per series")
    var_x, var_y = np.var(x, ddof=1), np.var(y, ddof=1)
    for name, var in (("x", var_x), ("y", var_y)):
        if var == 0.0:
            raise ValueError(
                f"series {name} has zero sample variance; its noise level cannot be estimated"
            )
    return TimeSeriesPair(x, y, var_x * np.eye(x.size), var_y * np.eye(y.size))


def generate_pair(config: ExperimentConfig, trial_index: int) -> TimeSeriesPair:
    """Draw one pair under the configured mean-shift model.

    The first series has mean zero, the second mean ``delta`` elementwise.
    Non-Gaussian families are standardized before the covariance factor is
    applied, so all families share the declared second moments.  Deterministic
    in ``(config.seed, trial_index)``.
    """
    sx, lx = _covariance(config.covariance, config.n)
    sy, ly = _covariance(config.covariance, config.m)
    x = lx @ _standard_noise(_stream_rng(config.seed, trial_index, 0), config.n, config.noise)
    y = config.delta + ly @ _standard_noise(
        _stream_rng(config.seed, trial_index, 1), config.m, config.noise
    )
    if config.variance_mode == "estimated":
        return estimated_variance_pair(x, y)
    # symmetric by construction, and factored once in _covariance: no check to repeat
    return TimeSeriesPair._factored(x, y, sx, lx, sy, ly)


def _permutation_seed(config: ExperimentConfig, trial_index: int) -> int:
    return int(np.random.SeedSequence([config.seed, trial_index, 2]).generate_state(1)[0])


def _true_statistic_mean(config: ExperimentConfig, eta: np.ndarray) -> float:
    """Mean of the selected statistic, direction ``eta``, under the generating model."""
    mu = np.concatenate([np.zeros(config.n), np.full(config.m, config.delta)])
    return float(eta @ mu)


def _run_batch(config: ExperimentConfig, methods: tuple[str, ...], with_ci: bool) -> ExperimentReport:
    """Run ``methods`` on each trial's pair, in order.

    The exact methods share one conditioning of the pair (alignment, data
    line, sign window and, with intervals, the statistic's true mean); each
    then finishes its own region, tail and interval.  An exact method's
    ``seconds`` is the shared conditioning time plus its own finish.
    """
    collect = {
        name: {"p": [], "sec": [], "len": [], "cov": []} for name in methods
    }
    exact = any(name in EXACT_METHODS for name in methods)
    for t in range(config.trials):
        pair = generate_pair(config, t)
        if exact:
            start = time.perf_counter()
            cond = _condition(pair)
            theta = _true_statistic_mean(config, cond.eta) if with_ci else None
            shared = time.perf_counter() - start
        for name in methods:
            start = time.perf_counter()
            if name in EXACT_METHODS:
                result = _finish(cond, EXACT_METHODS[name])
                p = result.p_selective
                if with_ci:
                    lo, hi = truncated_gaussian_ci(
                        result.z_obs, result.sigma, result.region, config.alpha
                    )
                    collect[name]["len"].append(hi - lo)
                    collect[name]["cov"].append(bool(lo <= theta <= hi))
            elif name == "permutation":
                p = permutation_test(pair, config.B, _permutation_seed(config, t))
            else:
                p = data_splitting_test(pair)
            took = time.perf_counter() - start
            collect[name]["sec"].append(took + shared if name in EXACT_METHODS else took)
            collect[name]["p"].append(p)
    results = {}
    for name in methods:
        ps = tuple(collect[name]["p"])
        results[name] = MethodResult(
            method=name,
            p_values=ps,
            seconds=tuple(collect[name]["sec"]),
            rejection_rate=float(np.mean([p <= config.alpha for p in ps])),
            ci_lengths=tuple(collect[name]["len"]) if with_ci else None,
            ci_covered=tuple(collect[name]["cov"]) if with_ci else None,
        )
    return ExperimentReport(config=config, results=results)


def run_fpr(config: ExperimentConfig) -> ExperimentReport:
    """Batch of the configured method: false positive rate at ``delta = 0``, power otherwise."""
    return _run_batch(config, (config.method,), with_ci=False)


def run_ci(config: ExperimentConfig) -> ExperimentReport:
    """Paired confidence-interval batch for both exact methods on identical data.

    Each trial's pair is conditioned once and both methods finish on it, si-dtw
    first.  Each method's ``seconds`` is that conditioning plus the method's
    own region, tail and interval, so it still prices a standalone test.
    """
    return _run_batch(config, tuple(EXACT_METHODS), with_ci=True)


def _parse_ucr_row(path: str, row_index: int) -> tuple[float, np.ndarray]:
    with open(path, "r", encoding="utf-8") as handle:
        lines = [line.rstrip("\n") for line in handle]
    rows = [(k, line) for k, line in enumerate(lines, start=1) if line.strip()]
    if row_index < 0 or row_index >= len(rows):
        raise UcrFormatError(f"{path}: row {row_index} out of range ({len(rows)} rows)")
    lineno, text = rows[row_index]
    fields = text.split(",")
    values = []
    for col, token in enumerate(fields, start=1):
        token = token.strip()
        try:
            values.append(float(token))
        except ValueError:
            raise UcrFormatError(
                f"{path}: line {lineno}, field {col}: non-numeric token {token!r}"
            ) from None
    if len(values) < 2:
        raise UcrFormatError(f"{path}: line {lineno}: no values after the class label")
    return values[0], np.asarray(values[1:])


def load_ucr_pair(
    path_a: str,
    path_b: str,
    row_a: int = 0,
    row_b: int = 0,
    variance_mode: str = "estimated",
) -> TimeSeriesPair:
    """Read one series from a row of each file in the label-then-values layout.

    Rows are comma separated, a leading class label followed by the series
    values.  ``variance_mode="estimated"`` fills each covariance diagonal with
    the series' sample variance; ``"known"`` uses identity covariance.
    """
    _, x = _parse_ucr_row(path_a, row_a)
    _, y = _parse_ucr_row(path_b, row_b)
    if variance_mode == "estimated":
        return estimated_variance_pair(x, y)
    if variance_mode == "known":
        return TimeSeriesPair(x, y)
    raise ValueError(f"variance_mode must be one of {VARIANCE_MODES}")


def _trial_records(report: ExperimentReport):
    for name, res in report.results.items():
        for t, p in enumerate(res.p_values):
            rec = {
                "record": "trial",
                "method": name,
                "trial": t,
                "p": p,
                "seconds": res.seconds[t],
            }
            if res.ci_lengths is not None:
                rec["ci_length"] = res.ci_lengths[t]
                rec["ci_covered"] = res.ci_covered[t]
            yield rec


def summary_record(report: ExperimentReport) -> dict:
    """The config and each method's rates; the last line of the JSON-lines report."""
    summary = {"record": "summary", "config": asdict(report.config), "methods": {}}
    for name, res in report.results.items():
        block = {"rejection_rate": res.rejection_rate, "trials": len(res.p_values)}
        if res.ci_lengths is not None:
            block["mean_ci_length"] = res.mean_ci_length
            block["median_ci_length"] = res.median_ci_length
            block["coverage_rate"] = res.coverage_rate
        summary["methods"][name] = block
    return summary


def write_report_jsonl(report: ExperimentReport, path: str) -> None:
    """Line-delimited trial records followed by a summary object."""
    with open(path, "w", encoding="utf-8") as handle:
        for rec in _trial_records(report):
            handle.write(json.dumps(rec) + "\n")
        handle.write(json.dumps(summary_record(report)) + "\n")


def write_report_csv(report: ExperimentReport, path: str) -> None:
    """Flat per-trial table for plotting."""
    fields = ["method", "trial", "p", "seconds", "ci_length", "ci_covered"]
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.DictWriter(handle, fieldnames=fields)
        writer.writeheader()
        for rec in _trial_records(report):
            rec.pop("record")
            writer.writerow({k: rec.get(k, "") for k in fields})


def parse_config_file(path: str) -> dict:
    """Flat ``key = value`` (or ``key: value``) document mirroring the config."""
    out: dict[str, object] = {}
    with open(path, "r", encoding="utf-8") as handle:
        for lineno, raw in enumerate(handle, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            for sep in ("=", ":"):
                if sep in line:
                    key, value = line.split(sep, 1)
                    break
            else:
                raise ValueError(f"{path}: line {lineno}: expected 'key = value'")
            out[key.strip()] = value.strip()
    return out
