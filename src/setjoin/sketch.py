"""Minwise sketches packed into 64-bit words, 4 bits per MinHash.

A sketch of b = 64*words bits is built from m = b/4 MinHash values of the set
(b-bit minwise hashing, Li and Koenig 2010): bit 4*j + k is bit k of a
tabulation hash of the j-th MinHash value, one hash function per MinHash.
Any m independent MinHash functions serve; `prep.preprocess` takes the
signature family's first m, so the sketch costs no MinHashes of its own. Two
sets agree on all 4 bits of a MinHash when its values collide (probability
J), and otherwise on each bit with probability 1/2, so each bit matches with
probability (1 + J)/2. The similarity estimate inverts that: J_hat = 1 - 2*H/b
for Hamming distance H over b bits.

The 4 bits of one MinHash are not independent, so the filter's tail bound
counts MinHashes, not bits: J_hat is the mean of m independent per-MinHash
terms, each in [-1, 1], and Hoeffding turns a target false-negative rate delta
at threshold `threshold` into the filter line
`threshold - sqrt(2*ln(1/delta)/m)`.

The candidate kernel never forms the float estimate: it compares integer
Hamming distances against `max_hamming`, the largest distance whose estimate
reaches the filter line, and sums those distances a word at a time on a
word-major (words, n) copy of the sketches. `estimate_rows` remains for the
point rule, which compares the records of each bucket against the bucket's
pooled sketch (`pooled_sketch`), all the buckets of a depth in one call.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import EmptyBucketError, SketchMismatchError
from .minhash import MinHashFamily, checked_tokens, function_seeds
from .tabulation import derive_seed, splitmix64_array, table_tensor

DEFAULT_SKETCH_WORDS = 8
DEFAULT_DELTA = 0.05
BITS_PER_MINHASH = 4  # sketch bits taken from each MinHash value

_MH_TAG = 0x736B6D68  # sketch minhash family
_BIT_TAG = 0x736B6274  # sketch bit family
_NIBBLE_CELLS = 2 ** 16  # MinHash values hashed per gather
_POOL_CELLS = 2 ** 16  # (bucket, bit) member picks drawn per block of buckets


class SketchFamily:
    """Hash family for b = 64*words sketch bits: one bit function for each of
    b/4 MinHashes, whose low 4 bits give the sketch's 4 bits of that MinHash.

    `bit_tables` (b/4, 4, 256) uint8 holds the low 4 bits of each bit
    function's tabulation tables: bits 0-3 of a tabulation hash are the XOR of
    bits 0-3 of its four byte-table entries. `minhashes`, the sketch's own
    family of b/4 MinHash functions, is read only by `sketch` and built on
    first use; `prep.preprocess` packs the signature family's first b/4
    MinHashes instead, through `from_minhashes`.
    """

    __slots__ = ("words", "bits", "seed", "bit_tables", "_minhashes")

    def __init__(self, words: int = DEFAULT_SKETCH_WORDS, seed: int = 0):
        if words < 1:
            raise ValueError("words must be >= 1")
        self.words = words
        self.bits = 64 * words
        self.seed = seed
        count = self.bits // BITS_PER_MINHASH
        tables = table_tensor(function_seeds(derive_seed(seed, _BIT_TAG), count))
        self.bit_tables = (tables & np.uint64(0xF)).astype(np.uint8)
        self._minhashes = None

    @property
    def minhashes(self) -> MinHashFamily:
        """The sketch's own MinHash family, whose j-th value bit function j
        hashes in `sketch`."""
        if self._minhashes is None:
            self._minhashes = MinHashFamily(len(self.bit_tables), derive_seed(self.seed, _MH_TAG))
        return self._minhashes

    def sketch(self, tokens) -> np.ndarray:
        """Sketch of a token set: (words,) uint64, bit i at word i//64, position i%64."""
        tokens = checked_tokens(tokens)
        return self.from_minhashes(self.minhashes.embed(tokens)[:, None])[0]

    def from_minhashes(self, values: np.ndarray) -> np.ndarray:
        """Sketches (n, words) of n sets from their MinHash values (m, n),
        m = b/4, under any family of m functions: bit 4*j + k of a set's
        sketch is bit k of bit function j's hash of its j-th value.

        The values are hashed a block of rows (`_NIBBLE_CELLS` values) at a
        time, one flat gather per key byte. A byte that is 0 in every value
        (bytes 2 and 3 when every value is below 2^16, as over a canonical
        universe of at most 2^16 ids) adds the same entry to every hash of a
        row, so it is XORed in once per row instead of gathered.
        """
        m, n = values.shape
        flat = self.bit_tables.reshape(-1)
        top = int(values.max()) if values.size else 0
        gathered = max(1, -(-top.bit_length() // 8))  # bytes 0 .. gathered - 1 vary
        nibbles = np.empty((m, n), dtype=np.uint8)
        step = max(1, _NIBBLE_CELLS // max(n, 1))
        for r in range(0, m, step):
            v = values[r:r + step].astype(np.intp)
            base = np.arange(r, r + len(v))[:, None] * 1024  # row r's byte-0 table
            nib = flat.take(base + (v & 0xFF))
            for j in range(1, gathered):
                nib ^= flat.take(base + 256 * j + ((v >> 8 * j) & 0xFF))
            nibbles[r:r + len(v)] = nib
        nibbles ^= np.bitwise_xor.reduce(self.bit_tables[:m, gathered:, 0], axis=1)[:, None]
        # byte j of a sketch holds MinHash 2j in its low nibble, 2j + 1 in its high one
        packed = nibbles[0::2] | (nibbles[1::2] << 4)
        return np.ascontiguousarray(packed.T).view("<u8")


def pack_bits(bits: np.ndarray) -> np.ndarray:
    """Pack bit vectors of a multiple of 64 bits, along the last axis,
    little-endian into uint64 words."""
    packed = np.packbits(np.asarray(bits, dtype=np.uint8), axis=-1, bitorder="little")
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
    """Estimates of the sketch rows `rows` against `one`: one sketch, or one per row."""
    if rows.shape[-1] != one.shape[-1]:
        raise SketchMismatchError("sketch word counts differ")
    bits = 64 * rows.shape[-1]
    h = np.bitwise_count(rows ^ one).sum(axis=-1, dtype=np.int64)
    return 1.0 - 2.0 * h / bits


def filter_threshold(threshold: float, minhashes: int, delta: float = DEFAULT_DELTA) -> float:
    """Estimate cutoff that keeps pairs with J >= threshold except with
    probability at most delta.

    One-sided Hoeffding over the `minhashes` independent terms the estimate
    averages, each in [-1, 1]: a sketch's m = bits/4 MinHashes, whose match
    counts lie in [0, 4]. Counting the sketch's bits instead would treat the
    4 correlated bits of one MinHash as independent, and the cutoff would
    miss more than delta of the pairs at the threshold.
    """
    if minhashes < 1:
        raise ValueError("minhashes must be >= 1")
    if not 0.0 < delta <= 1.0:
        raise ValueError("delta must be in (0, 1]")
    return threshold - math.sqrt(2.0 * math.log(1.0 / delta) / minhashes)


def max_hamming(cut: float, bits: int) -> int:
    """Largest Hamming distance h over `bits` bits whose estimate 1 - 2*h/b
    reaches `cut`, or -1 if none does.

    The estimate is evaluated exactly as `estimate_rows` computes it, for
    every h, and falls as h grows, so `h <= max_hamming(cut, bits)` keeps the
    same sketch pairs as `estimate >= cut`.
    """
    h = np.arange(bits + 1, dtype=np.int64)
    return int(np.count_nonzero(1.0 - 2.0 * h / bits >= cut)) - 1


def pooled_sketch(member_sketches: np.ndarray, seed, sizes=None) -> np.ndarray:
    """Single-sketch summary of a bucket: bit i is bit i of the member at
    splitmix64(seed, i) mod the bucket size, sampled uniformly with
    replacement, so the estimate of a set against it is, in expectation, its
    average estimated similarity over the bucket (the set's own sketch
    contributes at weight 1/len(bucket) when it is a member).

    With `sizes`, the rows are B buckets laid end to end, `seed` and `sizes`
    hold one seed and one size per bucket, and the result is (B, words).
    """
    members = np.asarray(member_sketches, dtype=np.uint64)
    counts = np.asarray(members.shape[:1] if sizes is None else sizes, dtype=np.int64)
    if members.ndim != 2 or np.any(counts < 1):
        raise EmptyBucketError("pooled sketch needs at least one member sketch")
    seeds = np.asarray(seed, dtype=np.uint64).reshape(-1, 1)
    starts = (np.cumsum(counts) - counts)[:, None]
    positions = np.arange(64 * members.shape[1])
    shifts = (positions & 63).astype(np.uint64)
    pooled = np.empty((counts.size, members.shape[1]), dtype=np.uint64)
    step = max(1, _POOL_CELLS // positions.size)
    for b in range(0, counts.size, step):
        picks = splitmix64_array(seeds[b:b + step], positions)
        picks %= counts[b:b + step, None].astype(np.uint64)
        chosen = members[picks.astype(np.intp) + starts[b:b + step], positions >> 6]
        pooled[b:b + step] = pack_bits((chosen >> shifts) & np.uint64(1))
    return pooled[0] if sizes is None else pooled
