"""MinHash LSH self-join: bucket by k signature coordinates, L repetitions.

A repetition is one row of CPSJoin's split (`cpsjoin.split_rows`) at the
root, keyed on k coordinates drawn with replacement from its seed, with no
depth below it; every pair inside each bucket runs through the candidate
kernel both joins share. Two records whose signatures agree on a fraction s
of the coordinates share a bucket with probability exactly s^k, so
L = ceil(ln(1/(1-recall)) / threshold^k) repetitions give the target
per-pair recall at the threshold. k trades the repetition count against
bucket sizes; `choose_k` tunes it by costing one root row per candidate,
and stops once no wider k can cost less.

Much of a `split_rows` call's cost is fixed: a one-row call takes 80 µs
at k = 4 on 10 records, 210 µs on 2,963 (2 vCPUs). So the rows of a block
of repetitions, up to `_BLOCK_ENTRIES` entries in all, are bucketed in one
call; the kernel still runs and closes one repetition at a time, so the
pairs, counters and per-repetition statistics are those of one call per
repetition. The join is one generator of its steps (`repetitions`), which
`cpsjoin.run_repetitions` times and drives, as it does CPSJoin's.
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
from .sketch import DEFAULT_DELTA
from .stats import unique_pairs  # noqa: F401
from .tabulation import derive_seed, splitmix64_array

_POS_TAG = 0x706F73
_TUNE_TAG = 0x74756E
_BLOCK_ENTRIES = 2 ** 18  # root-row entries bucketed per `split_rows` call

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
    delta: float = DEFAULT_DELTA
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


def _root_buckets(prep: Prepared, seeds: np.ndarray, k: int):
    """(ids, sizes, rows) of the buckets of two or more records of one root
    row per seed, from one `split_rows` call: row r is keyed on k coordinates
    drawn from seeds[r], the first seeds[r] % sig_len, and its buckets come
    out as a call with that row alone gives them."""
    n = prep.data.n
    ids, sizes, rows, _ = split_rows(
        prep.sig, np.arange(n, dtype=np.int64), np.array([n]), seeds,
        np.zeros(seeds.size, dtype=np.intp),
        (seeds % np.uint64(prep.sig_len)).astype(np.intp), k)
    return ids, sizes, rows


def choose_k(prep: Prepared, threshold: float, recall_target: float,
             seed: int = 0, ks=K_RANGE) -> int:
    """Pick k by costing one root row per candidate, all on one chain of
    coordinates drawn from the tune seed (the key of k coordinates is the key
    of k - 1 plus one): repetitions(k) times (the pairs inside the row's
    buckets plus n). Ties go to the smaller k. Only k up to the signature
    length are costed; if none of `ks` is, k is the signature length.

    Candidates are costed in increasing order, and the scan stops at the
    first k with repetitions(k) * n at or above the least cost so far: every
    cost is at least repetitions(k) * n, and repetitions(k) does not fall as
    k grows, so no wider k can cost less, and the choice is that of a full
    scan. At records seed 21 this costs k = 2..5 of 2..10 on `tokens` and
    2..7 on `clusters`."""
    n = prep.data.n
    tune_seed = np.array([derive_seed(seed, _TUNE_TAG)], dtype=np.uint64)
    best_k, best_cost = None, None
    for k in sorted(k for k in ks if k <= prep.sig_len) or [prep.sig_len]:
        reps = repetitions_for_recall(threshold, k, recall_target)
        if best_cost is not None and reps * n >= best_cost:
            break
        _, sizes, _ = _root_buckets(prep, tune_seed, k)
        cost = reps * (int((sizes * (sizes - 1) // 2).sum()) + n)
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


def repetition_codes(ids: np.ndarray, bounds: np.ndarray, kernel: CandidateKernel) -> np.ndarray:
    """One bucketing repetition through the join's kernel: every pair inside
    the buckets ids[bounds[c]:bounds[c + 1]]; returns the sorted codes of the
    distinct similar pairs it found, new or found before."""
    kernel.run_segments(ids, bounds)
    return kernel.end_repetition()


def repetitions(prep: Prepared, cfg: LshConfig, kernel: CandidateKernel):
    """LSH's steps, as `run_repetitions` drives them: yields the join's
    (k, repetitions) (`resolve_params`), then once after each repetition,
    and ends after the last; a recall estimate cuts no repetition.

    Repetition `rep` runs `repetition_codes` on its root row: k coordinates
    drawn from its own seed, splitmix64(derive_seed(cfg.seed, _POS_TAG), rep).
    The rows of a block of max(1, _BLOCK_ENTRIES // n) repetitions, never
    past the last, are bucketed in one `split_rows` call when the block's
    first repetition starts, so a join its caller stops early buckets at
    most one block more than it runs, and no call lays out more than
    max(n, _BLOCK_ENTRIES) entries."""
    k, reps = resolve_params(prep, cfg)
    yield k, reps
    per_block = max(1, _BLOCK_ENTRIES // max(prep.data.n, 1))
    for start in range(0, reps, per_block):
        seeds = splitmix64_array(derive_seed(cfg.seed, _POS_TAG),
                                 np.arange(start, min(reps, start + per_block), dtype=np.uint64))
        ids, sizes, rows = _root_buckets(prep, seeds, k)
        bounds = np.concatenate([[0], np.cumsum(sizes)])
        first = np.searchsorted(rows, np.arange(seeds.size + 1))  # each row's first bucket
        for c0, c1 in zip(first[:-1], first[1:]):
            repetition_codes(ids[bounds[c0]:bounds[c1]], bounds[c0:c1 + 1] - bounds[c0], kernel)
            yield


def lsh_join_prepared(prep: Prepared, cfg: LshConfig):
    """Join an already-embedded dataset; returns ((m, 2) pairs, JoinStats).
    Runs the repetitions of `resolve_params` whatever the recall estimate reads."""
    return run_repetitions(prep, cfg, repetitions)


def lsh_join(data: Dataset, cfg: LshConfig):
    """Embed and sketch a dataset at `preprocess`'s default sizes, then join
    it; returns ((m, 2) pairs, JoinStats)."""
    return lsh_join_prepared(preprocess(data, seed=cfg.seed), cfg)
