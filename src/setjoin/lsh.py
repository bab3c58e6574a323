"""MinHash LSH self-join: bucket by k signature coordinates, L repetitions.

A repetition is one row of CPSJoin's split (`cpsjoin.split_rows`) at the
root, keyed on k coordinates drawn with replacement from its seed, with no
depth below it; every pair inside each bucket runs through the candidate
kernel both joins share. Two records whose signatures agree on a fraction s
of the coordinates share a bucket with probability exactly s^k, so
L = ceil(ln(1/(1-recall)) / threshold^k) repetitions give the target
per-pair recall at the threshold. k trades the repetition count against
bucket sizes; `choose_k` tunes it by costing one root row per candidate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# joinbench's tracer wraps lsh.bucket_keys and lsh.unique_pairs; this module calls neither
from .cpsjoin import bucket_keys  # noqa: F401
from .cpsjoin import CandidateKernel, run_repetitions, split_rows
from .datasets import Dataset
from .prep import Prepared, check_join_params, preprocess
from .stats import unique_pairs  # noqa: F401
from .tabulation import derive_seed, splitmix64

_POS_TAG = 0x706F73
_TUNE_TAG = 0x74756E

K_RANGE = range(2, 11)


@dataclass(frozen=True)
class LshConfig:
    """Parameters of one MinHash LSH run. `k` is the number of coordinates in
    each bucket key, tuned by `choose_k` when None; `reps` is the number of
    repetitions, all of which run, `repetitions_for_recall` when None.
    `recall_target` is the chance that a pair exactly at the threshold shares
    a bucket in some repetition; pairs above it collide more often."""

    threshold: float
    recall_target: float = 0.9
    k: int | None = None
    reps: int | None = None
    delta: float = 0.05
    seed: int = 0x15ABE7

    def __post_init__(self):
        check_join_params(self.threshold, self.delta)
        if not 0.0 < self.recall_target < 1.0:
            raise ValueError("recall_target must be in (0, 1)")
        if self.k is not None and self.k < 1:
            raise ValueError("k must be >= 1")
        if self.reps is not None and self.reps < 1:
            raise ValueError("reps must be >= 1")


def repetitions_for_recall(threshold: float, k: int, recall_target: float) -> int:
    """Repetitions needed so a threshold-similar pair is bucketed together at
    least once with probability recall_target."""
    if not 0.0 < recall_target < 1.0:
        raise ValueError("recall_target must be in (0, 1)")
    return math.ceil(math.log(1.0 / (1.0 - recall_target)) / threshold ** k)


def _buckets(prep: Prepared, seed: int, k: int):
    """(ids, sizes) of the buckets of two or more records of the root row
    keyed on k coordinates drawn from `seed`, the first seed % sig_len."""
    n = prep.data.n
    ids, sizes, _ = split_rows(prep.sig, np.arange(n, dtype=np.int64), np.array([n]),
                               np.array([seed], dtype=np.uint64), np.zeros(1, dtype=np.intp),
                               np.array([seed % prep.sig_len]), k)
    return ids, sizes


def choose_k(prep: Prepared, threshold: float, recall_target: float,
             seed: int = 0, ks=K_RANGE) -> int:
    """Pick k by costing one root row per candidate, all on one chain of
    coordinates drawn from the tune seed (the key of k coordinates is the key
    of k - 1 plus one): repetitions(k) times (the pairs inside the row's
    buckets plus n). Ties go to the smaller k. Only k up to the signature
    length are costed; if none of `ks` is, k is the signature length."""
    n = prep.data.n
    tune_seed = derive_seed(seed, _TUNE_TAG)
    best_k, best_cost = None, None
    for k in [k for k in ks if k <= prep.sig_len] or [prep.sig_len]:
        _, sizes = _buckets(prep, tune_seed, k)
        pairs = int((sizes * (sizes - 1) // 2).sum())
        cost = repetitions_for_recall(threshold, k, recall_target) * (pairs + n)
        if best_cost is None or cost < best_cost:
            best_k, best_cost = k, cost
    return best_k


def resolve_params(prep: Prepared, cfg: LshConfig) -> tuple[int, int]:
    """The (k, repetitions) a join with this config will actually run."""
    if cfg.k is not None and cfg.k > prep.sig_len:
        raise ValueError("k cannot exceed the signature length")
    k = cfg.k if cfg.k is not None else choose_k(
        prep, cfg.threshold, cfg.recall_target, cfg.seed)
    reps = cfg.reps if cfg.reps is not None else repetitions_for_recall(
        cfg.threshold, k, cfg.recall_target)
    return k, reps


def repetition_codes(prep: Prepared, cfg: LshConfig, rep: int,
                     kernel: CandidateKernel) -> np.ndarray:
    """One bucketing repetition through the join's kernel, on keys of
    `JoinStats.key_width` coordinates (the k of `resolve_params`, through
    `run_repetitions`); returns the sorted codes of the distinct similar
    pairs it found, new or found before."""
    ids, sizes = _buckets(prep, splitmix64(derive_seed(cfg.seed, _POS_TAG), rep),
                          kernel.stats.key_width)
    kernel.run_segments(ids, np.concatenate([[0], np.cumsum(sizes)]))
    return kernel.end_repetition()


def lsh_join_prepared(prep: Prepared, cfg: LshConfig):
    """Join an already-embedded dataset; returns ((m, 2) pairs, JoinStats).
    Runs the repetitions of `resolve_params` whatever the recall estimate reads."""
    return run_repetitions(prep, cfg, lambda kernel: resolve_params(prep, cfg),
                           lambda rep, kernel: repetition_codes(prep, cfg, rep, kernel),
                           lambda kernel: False)


def lsh_join(data: Dataset, cfg: LshConfig):
    """Embed and sketch a dataset at `preprocess`'s default sizes, then join
    it; returns ((m, 2) pairs, JoinStats)."""
    return lsh_join_prepared(preprocess(data, seed=cfg.seed), cfg)
