"""Experiment runner: joins with recall accounting and CSV reports.

The protocol for approximate algorithms mirrors how the join quality is
reported: the exact result is computed once per threshold of a `run` or
`sweep` call with the inverted-index join, repetitions run cumulatively, and
the run stops once the union of reported pairs reaches the recall target (or
the repetition budget). Without the oracle, CPSJoin stops where its own
capture-recapture estimate (`cpsjoin.estimated_recall`) reaches the target,
and LSH runs its full budget. Reported join time covers the repetitions only;
embedding/sketching time is its own column and the oracle is never timed into
either. A row summarizes all trials: times are means; recall, counters and
echoed parameters the lower median.
"""

from __future__ import annotations

import csv
import hashlib
import io
import time
from dataclasses import dataclass, replace

import numpy as np

from . import cpsjoin as cps
from . import lsh as mlsh
from .datasets import Dataset
from .exact import allpairs_join, brute_force_join
from .stats import JoinStats, encode_pairs
from .prep import DEFAULT_SIG_LEN, DEFAULT_SKETCH_WORDS, preprocess
from .tabulation import derive_seed

ALGORITHMS = ("cpsjoin", "lsh", "allpairs", "bruteforce")

SWEEP_PARAMS = ("limit", "eps", "sketch_words")
_SWEEP_RECALL_FLOOR = 0.8

COLUMNS = ("dataset", "algorithm", "threshold", "join_time_s", "preprocess_time_s",
           "recall", "reps_used", "pre_candidates", "candidates", "results",
           "relative_join_time", "params")


@dataclass(frozen=True)
class ExperimentSpec:
    dataset: str
    data: Dataset
    algorithm: str
    thresholds: tuple
    recall_target: float = mlsh.LshConfig.recall_target
    max_reps: int | None = None  # None: CpsConfig.reps for cpsjoin, formula for lsh
    limit: int = cps.CpsConfig.limit
    eps: float = cps.CpsConfig.eps
    sig_len: int = DEFAULT_SIG_LEN
    sketch_words: int = DEFAULT_SKETCH_WORDS
    delta: float = cps.CpsConfig.delta
    k: int | None = None
    use_oracle: bool = True
    trials: int = 5
    seed: int = 0

    def __post_init__(self):
        if self.algorithm not in ALGORITHMS:
            raise ValueError(f"unknown algorithm {self.algorithm!r}; choose from {ALGORITHMS}")
        if not self.thresholds:
            raise ValueError("need at least one threshold")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")


@dataclass
class ReportRow:
    dataset: str
    algorithm: str
    threshold: float
    join_time_s: float
    preprocess_time_s: float
    recall: float | None
    reps_used: int
    pre_candidates: int
    candidates: int
    results: int
    relative_join_time: float | None = None
    params: str = ""


def _stable_seed(*parts) -> int:
    digest = hashlib.blake2b("|".join(map(str, parts)).encode(), digest_size=8)
    return int.from_bytes(digest.digest(), "big")


def _oracle_codes(spec: ExperimentSpec) -> list:
    """Codes of the exact result at each of the spec's thresholds, or one
    None per threshold when the spec runs without the oracle."""
    if not spec.use_oracle:
        return [None] * len(spec.thresholds)
    codes = []
    for lam in spec.thresholds:
        pairs, _ = allpairs_join(spec.data, lam)
        codes.append(encode_pairs(pairs[:, 0], pairs[:, 1]))
    return codes


def _params_echo(spec: ExperimentSpec, extra: dict) -> str:
    base = {"sig_len": spec.sig_len, "sketch_words": spec.sketch_words,
            "delta": spec.delta, "seed": spec.seed, "trials": spec.trials}
    base.update(extra)
    return ";".join(f"{k}={v}" for k, v in base.items())


def run(spec: ExperimentSpec) -> list[ReportRow]:
    """One report row per threshold for the spec's algorithm."""
    if spec.algorithm in ("allpairs", "bruteforce"):
        return _run_exact(spec)
    return _run_approximate(spec, _oracle_codes(spec))


def _run_exact(spec: ExperimentSpec) -> list[ReportRow]:
    join = allpairs_join if spec.algorithm == "allpairs" else brute_force_join
    rows = []
    for lam in spec.thresholds:
        times = []
        for _ in range(spec.trials):
            pairs, stats = join(spec.data, lam)
            times.append(stats.join_s)
        rows.append(ReportRow(
            dataset=spec.dataset, algorithm=spec.algorithm, threshold=lam,
            join_time_s=float(np.mean(times)), preprocess_time_s=0.0,
            recall=1.0 if spec.use_oracle else None, reps_used=1,
            pre_candidates=stats.pre_candidates, candidates=stats.candidates,
            results=stats.results,
            params=_params_echo(spec, {}),
        ))
    return rows


def _run_approximate(spec: ExperimentSpec, exacts: list) -> list[ReportRow]:
    """Rows of an approximate run, with `exacts` the oracle codes (or None)
    at each of the spec's thresholds."""
    # The embedding depends on the trial seed only, so each trial embeds once
    # and runs every threshold on it.
    base_seed = _stable_seed(spec.seed, spec.dataset, spec.algorithm)
    trial_rows = [[] for _ in spec.thresholds]
    trial_params = [[] for _ in spec.thresholds]
    prep_times = []
    for trial in range(spec.trials):
        trial_seed = derive_seed(base_seed, trial)
        prep = preprocess(spec.data, spec.sig_len, spec.sketch_words, trial_seed)
        prep_times.append(prep.elapsed_s)
        for t, lam in enumerate(spec.thresholds):
            stats = JoinStats(preprocess_s=prep.elapsed_s)
            cfg = _approximate_config(spec, lam, trial_seed)
            kernel = cps.CandidateKernel(prep, cfg.threshold, cfg.delta, stats)
            if spec.algorithm == "cpsjoin":
                max_reps = cfg.reps
                run_rep = lambda r: cps.repetition_codes(prep, cfg, r, kernel)
                extra = {"limit": spec.limit, "eps": spec.eps, "reps": max_reps}
            else:
                k, max_reps = mlsh.resolve_params(prep, cfg)
                run_rep = lambda r: mlsh.repetition_codes(prep, cfg, k, r, kernel)
                extra = {"k": k, "reps": max_reps}

            recall = None
            reps_used = 0
            join_t = 0.0
            self_tuned = exacts[t] is None and spec.algorithm == "cpsjoin"
            incidence = cps.Incidence()
            for rep in range(max_reps):
                t0 = time.perf_counter()
                codes = run_rep(rep)
                done = self_tuned and incidence.add(codes) >= spec.recall_target
                join_t += time.perf_counter() - t0
                reps_used += 1
                if exacts[t] is not None:
                    recall = _recall(kernel.codes(), exacts[t])
                    done = recall >= spec.recall_target
                if done:
                    break
            trial_rows[t].append(ReportRow(
                dataset=spec.dataset, algorithm=spec.algorithm, threshold=lam,
                join_time_s=join_t, preprocess_time_s=prep.elapsed_s,
                recall=recall, reps_used=reps_used,
                pre_candidates=stats.pre_candidates, candidates=stats.candidates,
                results=kernel.codes().size,
            ))
            trial_params[t].append(extra)
    # Times are means over trials; recall, counters and the echoed parameters
    # the lower median, so integer columns stay integers. LSH's repetitions
    # rise with its tuned k, so both medians come from the same trials.
    rows = []
    for trials, params in zip(trial_rows, trial_params):
        echo = {name: _lower_median([p[name] for p in params]) for name in params[0]}
        row = replace(trials[-1],
                      join_time_s=float(np.mean([r.join_time_s for r in trials])),
                      preprocess_time_s=float(np.mean(prep_times)),
                      params=_params_echo(spec, echo))
        for name in ("recall", "reps_used", "pre_candidates", "candidates", "results"):
            if getattr(row, name) is not None:
                setattr(row, name, _lower_median([getattr(r, name) for r in trials]))
        rows.append(row)
    return rows


def _lower_median(values):
    """The middle value; of the two middle ones for an even count, the lower."""
    return sorted(values)[(len(values) - 1) // 2]


def _approximate_config(spec: ExperimentSpec, threshold: float, seed: int):
    """The join config an approximate run of `spec` uses at one threshold."""
    if spec.algorithm == "cpsjoin":
        # the runner stops the repetitions itself, so the config never does
        return cps.CpsConfig(
            threshold=threshold, delta=spec.delta, eps=spec.eps, limit=spec.limit,
            reps=spec.max_reps or cps.CpsConfig.reps, seed=seed, recall_target=None)
    return mlsh.LshConfig(
        threshold=threshold, recall_target=spec.recall_target, k=spec.k,
        reps=spec.max_reps, delta=spec.delta, seed=seed)


def _recall(found: np.ndarray, exact: np.ndarray) -> float:
    if exact.size == 0:
        return 1.0
    return np.intersect1d(found, exact).size / exact.size


def sweep(spec: ExperimentSpec, param: str, values) -> list[ReportRow]:
    """Parameter sweep at the first threshold, recall floor 0.8.

    One run per value at a fixed seed; every row carries its join time divided
    by the join time of the run at the parameter's default value.
    """
    if spec.algorithm != "cpsjoin":
        raise ValueError("sweeps cover the recursive join's parameters")
    if param not in SWEEP_PARAMS:
        raise ValueError(f"sweep parameter must be one of {SWEEP_PARAMS}")
    values = list(values)
    if not values:
        raise ValueError("need at least one sweep value")
    lam = spec.thresholds[0]
    base = replace(spec, thresholds=(lam,),
                   recall_target=max(spec.recall_target, _SWEEP_RECALL_FLOOR))
    exacts = _oracle_codes(base)
    default = getattr(ExperimentSpec, param)
    default_row = _run_approximate(replace(base, **{param: default}), exacts)[0]
    rows = []
    for value in values:
        if value == default:
            row = ReportRow(**vars(default_row))
        else:
            row = _run_approximate(replace(base, **{param: value}), exacts)[0]
        row.relative_join_time = (row.join_time_s / default_row.join_time_s
                                  if default_row.join_time_s > 0 else 1.0)
        row.params += f";sweep={param}:{value}"
        rows.append(row)
    return rows


def write_csv(rows, out) -> None:
    """Write report rows; `out` is a path or a text file object."""
    rows = list(rows)
    if not rows:
        raise ValueError("no rows to write")
    own = isinstance(out, (str, bytes)) or hasattr(out, "__fspath__")
    fh = open(out, "w", newline="", encoding="utf-8") if own else out
    try:
        writer = csv.writer(fh)
        writer.writerow(COLUMNS)
        for row in rows:
            writer.writerow([
                row.dataset, row.algorithm, _fmt(row.threshold),
                f"{row.join_time_s:.6f}", f"{row.preprocess_time_s:.6f}",
                "" if row.recall is None else f"{row.recall:.6f}",
                row.reps_used, row.pre_candidates, row.candidates, row.results,
                "" if row.relative_join_time is None else f"{row.relative_join_time:.4f}",
                row.params,
            ])
    finally:
        if own:
            fh.close()


def csv_text(rows) -> str:
    buf = io.StringIO()
    write_csv(rows, buf)
    return buf.getvalue()


def _fmt(value: float) -> str:
    return f"{value:g}"
