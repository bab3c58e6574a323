"""Join counters and pair-set helpers shared by every join algorithm."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass
class JoinStats:
    """Work counters for one join run.

    pre_candidates counts every pair an algorithm looked at, candidates the
    pairs surviving its cheap filters (and therefore exactly verified), and
    results the unique reported pairs. The chain
    pre_candidates >= candidates >= results holds on every run.
    """

    pre_candidates: int = 0
    candidates: int = 0
    results: int = 0
    max_depth: int = 0
    preprocess_s: float = 0.0
    join_s: float = 0.0

    def counters_ok(self) -> bool:
        return self.pre_candidates >= self.candidates >= self.results >= 0


def encode_pairs(a, b) -> np.ndarray:
    """Pack id pairs into uint64 codes with the smaller id in the high half."""
    a = np.asarray(a, dtype=np.uint64)
    b = np.asarray(b, dtype=np.uint64)
    lo = np.minimum(a, b)
    hi = np.maximum(a, b)
    return (lo << np.uint64(32)) | hi


def decode_pairs(codes: np.ndarray) -> np.ndarray:
    """Unpack codes into an (m, 2) int64 array, ascending pair order."""
    codes = np.asarray(codes, dtype=np.uint64)
    out = np.empty((codes.size, 2), dtype=np.int64)
    out[:, 0] = (codes >> np.uint64(32)).astype(np.int64)
    out[:, 1] = (codes & np.uint64(0xFFFFFFFF)).astype(np.int64)
    return out


def unique_pairs(code_chunks) -> np.ndarray:
    """Deduplicate emitted pair codes (sorted unique array)."""
    chunks = [np.asarray(c, dtype=np.uint64) for c in code_chunks if len(c)]
    if not chunks:
        return np.zeros(0, dtype=np.uint64)
    return np.unique(np.concatenate(chunks))
