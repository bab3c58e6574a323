"""Join counters, pair-set helpers, the packed stable sort and the
concatenated-ranges index shared by the joins."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass
class JoinStats:
    """Work counters for one join run.

    pre_candidates counts every pair an algorithm looked at, candidates the
    pairs surviving its cheap filters, and results the unique reported
    pairs. The approximate joins verify every candidate exactly; AllPairs'
    candidates are the distinct pairs that pass its positional filter, and
    where its fold rule holds it verifies only those whose one-word bitmap
    bound reaches the threshold. The chain
    pre_candidates >= candidates >= results holds on every run. The
    approximate joins also fill new_results_per_rep: per repetition, the
    pairs that passed verification for the first time in the join, so that
    they sum to results. Both also fill recall_estimate_per_rep: per
    repetition, `cpsjoin.estimated_recall` of the pairs found so far (NaN
    after the first), which CPSJoin's stop rule reads; LSH runs its budget
    whatever it says. key_width is the
    number of signature coordinates in each bucket key: CPSJoin's chosen
    width (`cpsjoin.choose_key_width`), LSH's k; 0 for the exact joins.
    reps is the repetition budget chosen with it (CPSJoin's `CpsConfig.reps`,
    LSH's `lsh.resolve_params` count; 0 for the exact joins), which a join
    that stops early does not reach. key_width_s holds the seconds the join
    took to choose both before its first repetition, and repetition_s the
    seconds each repetition took; join_s also covers both, the stop rules
    after each repetition and the kernel's set-up.
    """

    pre_candidates: int = 0
    candidates: int = 0
    results: int = 0
    max_depth: int = 0
    key_width: int = 0
    reps: int = 0
    key_width_s: float = 0.0
    join_s: float = 0.0
    new_results_per_rep: list[int] = field(default_factory=list)
    recall_estimate_per_rep: list[float] = field(default_factory=list)
    repetition_s: list[float] = field(default_factory=list)

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
    """Deduplicate emitted pair codes (sorted unique array).

    Sorts and keeps each code that differs from its left neighbour: on
    uint64 codes, numpy 2's `np.unique` takes a hash path that ran 7x slower
    than this on duplicate-heavy codes and over 60x slower on mostly unique
    ones.
    """
    chunks = [np.asarray(c, dtype=np.uint64) for c in code_chunks if len(c)]
    if not chunks:
        return np.zeros(0, dtype=np.uint64)
    codes = np.concatenate(chunks)  # a fresh array, so sorting in place is safe
    codes.sort()
    keep = np.empty(codes.size, dtype=bool)
    keep[0] = True
    np.not_equal(codes[1:], codes[:-1], out=keep[1:])
    return codes[keep]


def stable_order(key: np.ndarray, key_bits: int) -> np.ndarray:
    """`np.argsort(key, kind="stable")` for uint64 keys below 2**key_bits.
    Where each key's position fits the bits the keys leave free, it is one
    sort of (key << bits) | position, whose values are distinct, so any sort
    is stable; numpy sorts uint64 values 7-10x faster than it stably
    argsorts them (40k keys: 0.35 against 3.6 ms on 2 vCPUs)."""
    bits = int(key.size - 1).bit_length() if key.size else 0
    if key_bits + bits > 64:
        return np.argsort(key, kind="stable")
    packed = (key << np.uint64(bits)) | np.arange(key.size, dtype=np.uint64)
    packed.sort()
    return (packed & np.uint64((1 << bits) - 1)).astype(np.intp)


def concatenated_ranges(starts: np.ndarray, counts: np.ndarray, firsts=None) -> np.ndarray:
    """starts[k] + arange(counts[k]) for every k, laid end to end; `firsts`,
    where each range lands (cumsum(counts) - counts), if the caller has it."""
    if firsts is None:
        firsts = np.cumsum(counts) - counts
    total = int(firsts[-1] + counts[-1]) if counts.size else 0
    return np.repeat(starts - firsts, counts) + np.arange(total)
