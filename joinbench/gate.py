"""Correctness gate and determinism fingerprint for one join result.

Every timed join is checked against the exact oracle of its workload:

- the reported pairs are distinct, ordered (i < j) and all in the oracle,
  so precision is exactly 1.0;
- the join's counters satisfy `JoinStats.counters_ok()` and `results`
  equals the number of reported pairs;
- recall is the share of oracle pairs reported.

The fingerprint digests the sorted pair codes together with the counters, so
two runs with equal fingerprints found the same pairs doing the same work.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np


def pair_codes(pairs) -> np.ndarray:
    """uint64 code i << 32 | j per pair row, in the order given."""
    pairs = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
    return (pairs[:, 0].astype(np.uint64) << np.uint64(32)) | pairs[:, 1].astype(np.uint64)


def counters(stats) -> tuple:
    return (stats.pre_candidates, stats.candidates, stats.results, stats.max_depth)


def fingerprint(pairs, stats) -> str:
    digest = hashlib.sha256(np.sort(pair_codes(pairs)).tobytes())
    digest.update(repr(counters(stats)).encode())
    return digest.hexdigest()[:16]


@dataclass
class Verdict:
    ok: bool
    recall: float
    problems: list


def check(pairs, stats, oracle_codes: np.ndarray) -> Verdict:
    """Gate one join result against the oracle's pair codes."""
    pairs = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
    codes = np.sort(pair_codes(pairs))
    problems = []
    if np.any(pairs[:, 0] >= pairs[:, 1]):
        problems.append("pair with i >= j")
    if codes.size > 1 and np.any(codes[1:] == codes[:-1]):
        problems.append("duplicate pair")
    false_positives = int(np.count_nonzero(~np.isin(codes, oracle_codes)))
    if false_positives:
        problems.append(f"{false_positives} pairs not in the oracle")
    if not stats.counters_ok():
        problems.append(f"counters out of order: {counters(stats)}")
    if stats.results != pairs.shape[0]:
        problems.append(f"results counter {stats.results} != {pairs.shape[0]} pairs reported")
    found = int(np.count_nonzero(np.isin(oracle_codes, codes)))
    recall = found / oracle_codes.size if oracle_codes.size else 1.0
    return Verdict(not problems, recall, problems)
