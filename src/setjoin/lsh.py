"""MinHash LSH self-join: bucket by k signature positions, L repetitions.

A repetition samples k fresh signature positions (without replacement),
buckets records by the tuple of values at those positions, and runs every pair
inside each bucket through the candidate kernel it shares with CPSJoin. Two
records with signature agreement fraction s collide in a repetition with
probability close to s^k, so L = ceil(ln(1/(1-recall)) / threshold^k)
repetitions give the target per-pair recall at the threshold. The number of
signature positions in one bucket key (k) trades the repetition count against
bucket sizes; it is tuned by costing one splitting pass per candidate k.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cpsjoin import CandidateKernel, run_repetitions
from .datasets import Dataset
from .prep import Prepared, check_join_params, preprocess
from .stats import unique_pairs  # noqa: F401  joinbench's tracer wraps lsh.unique_pairs
from .tabulation import derive_seed, splitmix64_array

_POS_TAG = 0x706F73
_TUNE_TAG = 0x74756E
_KEY_SALT = 0x6B657973616C74

K_RANGE = range(2, 11)


@dataclass(frozen=True)
class LshConfig:
    threshold: float
    recall_target: float = 0.9
    k: int | None = None  # None: tune with choose_k
    reps: int | None = None  # None: repetitions_for_recall
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


def sample_positions(seed: int, k: int, sig_len: int) -> np.ndarray:
    """k distinct signature positions, uniform without replacement."""
    ranks = splitmix64_array(seed, np.arange(sig_len, dtype=np.uint64))
    return np.argsort(ranks)[:k]


def bucket_keys(sig: np.ndarray, positions) -> np.ndarray:
    """Fold the values at `positions` into one 64-bit key per record.

    Key collisions between distinct value tuples only add candidates; they
    never lose pairs.
    """
    acc = np.full(sig.shape[0], _KEY_SALT, dtype=np.uint64)
    for pos in positions:
        col = sig[:, int(pos)].astype(np.uint64)
        acc = splitmix64_array(acc + np.uint64(0x9E37 * (int(pos) + 1)), col)
    return acc


def choose_k(prep: Prepared, threshold: float, recall_target: float,
             seed: int = 0, ks=K_RANGE) -> int:
    """Pick k by costing one splitting pass per candidate.

    Estimated cost of a full join at k: repetitions(k) times (bucket pair
    comparisons of the sample pass plus n hashings). Ties go to the smaller k.
    Only k up to the signature length are costed; if none of `ks` is, k is
    the signature length.
    """
    n = prep.data.n
    tune_seed = derive_seed(seed, _TUNE_TAG)
    best_k, best_cost = None, None
    for k in [k for k in ks if k <= prep.sig_len] or [prep.sig_len]:
        positions = sample_positions(derive_seed(tune_seed, k), k, prep.sig_len)
        _, counts = np.unique(bucket_keys(prep.sig, positions), return_counts=True)
        pairs = int((counts * (counts - 1) // 2).sum())
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


def repetition_codes(prep: Prepared, cfg: LshConfig, k: int, rep: int,
                     kernel: CandidateKernel) -> np.ndarray:
    """One bucketing repetition through the join's kernel, on keys of `k`
    positions, which it records as the join's key width; returns the sorted
    codes of the distinct similar pairs it found, new or found before."""
    kernel.stats.key_width = k
    positions = sample_positions(
        splitmix64_array(derive_seed(cfg.seed, _POS_TAG), np.uint64(rep)).item(), k, prep.sig_len)
    keys = bucket_keys(prep.sig, positions)
    order = np.argsort(keys, kind="stable")
    sk = keys[order]
    cuts = np.flatnonzero(sk[1:] != sk[:-1]) + 1
    kernel.run_segments(order, np.concatenate([[0], cuts, [sk.size]]))
    return kernel.end_repetition()


def lsh_join_prepared(prep: Prepared, cfg: LshConfig):
    """Join an already-embedded dataset; returns ((m, 2) pairs, JoinStats).
    Runs the repetitions of `resolve_params` whatever the recall estimate reads."""
    k, reps = resolve_params(prep, cfg)
    return run_repetitions(prep, cfg, reps,
                           lambda rep, kernel: repetition_codes(prep, cfg, k, rep, kernel),
                           lambda kernel: False)


def lsh_join(data: Dataset, cfg: LshConfig):
    """Embed and sketch a dataset at `preprocess`'s default sizes, then join
    it; returns ((m, 2) pairs, JoinStats)."""
    return lsh_join_prepared(preprocess(data, seed=cfg.seed), cfg)
