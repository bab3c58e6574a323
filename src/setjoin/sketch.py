"""1-bit minwise sketches packed into 64-bit words.

Bit i of a sketch is a 1-bit hash of the i-th MinHash value of the set, so two
sets match on each bit with probability (1 + J)/2. The similarity estimate
inverts that: J_hat = 1 - 2*H/b for Hamming distance H over b bits. A
Hoeffding bound turns a target false-negative rate delta at threshold
`threshold` into the filter line `threshold - sqrt(2*ln(1/delta)/b)`.

The candidate kernel never forms the float estimate: it compares integer
Hamming distances against `max_hamming`, the largest distance whose estimate
reaches the filter line, and sums those distances a word at a time on a
word-major (words, n) copy of the sketches. `estimate_rows` remains for the
pooled-sketch rule, which compares one bucket's records against its pooled
sketch.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import EmptyBucketError, SketchMismatchError
from .minhash import MinHashFamily, checked_tokens, function_seeds
from .tabulation import derive_seed, splitmix64_array, table_tensor

DEFAULT_SKETCH_WORDS = 8
DEFAULT_DELTA = 0.05

_MH_TAG = 0x736B6D68  # sketch minhash family
_BIT_TAG = 0x736B6274  # sketch bit family


class SketchFamily:
    """Hash family for b = 64*words 1-bit minwise sketch bits.

    `minhashes` is the MinHash family whose i-th value bit function i hashes.
    """

    __slots__ = ("words", "bits", "seed", "minhashes", "bit_tables")

    def __init__(self, words: int = DEFAULT_SKETCH_WORDS, seed: int = 0):
        if words < 1:
            raise ValueError("words must be >= 1")
        self.words = words
        self.bits = 64 * words
        self.seed = seed
        self.minhashes = MinHashFamily(self.bits, derive_seed(seed, _MH_TAG))
        bit_seeds = function_seeds(derive_seed(seed, _BIT_TAG), self.bits)
        self.bit_tables = table_tensor(bit_seeds)

    def bit_values(self, minhash_values: np.ndarray) -> np.ndarray:
        """Apply bit function i to minhash value i; returns (bits,) uint8."""
        idx = np.asarray(minhash_values, dtype=np.intp)
        t = self.bit_tables
        rows = np.arange(self.bits)
        h = t[rows, 0, idx & 0xFF]
        h ^= t[rows, 1, (idx >> 8) & 0xFF]
        h ^= t[rows, 2, (idx >> 16) & 0xFF]
        h ^= t[rows, 3, (idx >> 24) & 0xFF]
        return (h & np.uint64(1)).astype(np.uint8)

    def sketch(self, tokens) -> np.ndarray:
        """Sketch of a token set: (words,) uint64, bit i at word i//64, position i%64."""
        tokens = checked_tokens(tokens)
        values = self.minhashes.embed(tokens)
        return pack_bits(self.bit_values(values))


def pack_bits(bits: np.ndarray) -> np.ndarray:
    """Pack a multiple-of-64 bit vector little-endian into uint64 words."""
    packed = np.packbits(np.asarray(bits, dtype=np.uint8), bitorder="little")
    return packed.view("<u8").copy()


def estimate_similarity(a, b) -> float:
    """Similarity estimate 1 - 2*H/b from the Hamming distance of two sketches."""
    a = np.asarray(a, dtype=np.uint64)
    b = np.asarray(b, dtype=np.uint64)
    if a.shape != b.shape:
        raise SketchMismatchError(f"sketch word counts differ: {a.shape} vs {b.shape}")
    bits = 64 * a.size
    h = int(np.bitwise_count(a ^ b).sum())
    return 1.0 - 2.0 * h / bits


def estimate_rows(rows: np.ndarray, one: np.ndarray) -> np.ndarray:
    """Vectorized estimate of every sketch row in `rows` against `one`."""
    if rows.shape[-1] != one.shape[-1]:
        raise SketchMismatchError("sketch word counts differ")
    bits = 64 * rows.shape[-1]
    h = np.bitwise_count(rows ^ one).sum(axis=-1, dtype=np.int64)
    return 1.0 - 2.0 * h / bits


def filter_threshold(threshold: float, bits: int, delta: float = DEFAULT_DELTA) -> float:
    """Estimate cutoff that keeps pairs with J >= threshold except with
    probability at most delta (one-sided Hoeffding on b bit matches)."""
    if bits < 1:
        raise ValueError("bits must be >= 1")
    if not 0.0 < delta <= 1.0:
        raise ValueError("delta must be in (0, 1]")
    return threshold - math.sqrt(2.0 * math.log(1.0 / delta) / bits)


def max_hamming(cut: float, bits: int) -> int:
    """Largest Hamming distance h over `bits` bits whose estimate 1 - 2*h/b
    reaches `cut`, or -1 if none does.

    The estimate is evaluated exactly as `estimate_rows` computes it, for
    every h, and falls as h grows, so `h <= max_hamming(cut, bits)` keeps the
    same sketch pairs as `estimate >= cut`.
    """
    h = np.arange(bits + 1, dtype=np.int64)
    return int(np.count_nonzero(1.0 - 2.0 * h / bits >= cut)) - 1


def pooled_sketch(member_sketches: np.ndarray, seed: int) -> np.ndarray:
    """Single-sketch summary of a bucket.

    Bit i of the result is bit i of a member sampled uniformly with
    replacement, so the estimate of a set against the pooled sketch is, in
    expectation, its average estimated similarity over the bucket (the set's
    own sketch contributes at weight 1/len(bucket) when it is a member).
    """
    members = np.asarray(member_sketches, dtype=np.uint64)
    if members.ndim != 2 or members.shape[0] == 0:
        raise EmptyBucketError("pooled sketch needs at least one member sketch")
    m, words = members.shape
    bits = 64 * words
    picks = splitmix64_array(seed, np.arange(bits, dtype=np.uint64)) % np.uint64(m)
    positions = np.arange(bits)
    chosen = members[picks.astype(np.intp), positions >> 6]
    bit_vals = ((chosen >> (positions & 63).astype(np.uint64)) & np.uint64(1)).astype(np.uint8)
    return pack_bits(bit_vals)
