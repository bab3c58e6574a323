"""Simple tabulation hashing on 32-bit keys.

A hash function is four tables of 256 random 64-bit words; the hash of a key
is the XOR of one entry per key byte. Tables are filled deterministically from
a seed with SplitMix64, so a function is fully described by its seed and two
functions with the same seed are identical across runs and platforms.
"""

from __future__ import annotations

import numpy as np

MASK64 = (1 << 64) - 1

# SplitMix64 constants (Steele, Lea, Flood 2014).
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


def splitmix64(seed: int, counter: int) -> int:
    """Value of the SplitMix64 stream for `seed` at position `counter`."""
    z = (seed + (counter + 1) * _GOLDEN) & MASK64
    z = ((z ^ (z >> 30)) * _MIX1) & MASK64
    z = ((z ^ (z >> 27)) * _MIX2) & MASK64
    return z ^ (z >> 31)


def splitmix64_array(seed, counters) -> np.ndarray:
    """Vectorized splitmix64. `seed` and `counters` broadcast; returns uint64."""
    seed = np.asarray(seed, dtype=np.uint64)
    counters = np.asarray(counters, dtype=np.uint64)
    # uint64 wraparound is the point; keep numpy quiet about it on 0-d inputs
    with np.errstate(over="ignore"):
        z = seed + (counters + np.uint64(1)) * np.uint64(_GOLDEN)
        z = (z ^ (z >> np.uint64(30))) * np.uint64(_MIX1)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(_MIX2)
        return z ^ (z >> np.uint64(31))


def derive_seed(seed: int, tag: int) -> int:
    """Derive an independent child seed. Used for every internal seed split."""
    return splitmix64(seed, tag)


def table_tensor(seeds) -> np.ndarray:
    """Tabulation tables for one or more seeds, shape (..., 4, 256) uint64.

    Entry [s, j, c] is splitmix64(seeds[s], j*256 + c).
    """
    seeds = np.asarray(seeds, dtype=np.uint64)
    counters = np.arange(1024, dtype=np.uint64)
    tables = splitmix64_array(seeds[..., None], counters)
    return tables.reshape(seeds.shape + (4, 256))


def hash_keys(tables: np.ndarray, keys) -> np.ndarray:
    """Hashes (F, m) uint64 of 32-bit `keys` under each of the F functions of a
    (F, 4, 256) table tensor: the XOR of one table entry per key byte."""
    idx = np.asarray(keys, dtype=np.intp)
    h = tables[:, 0, :][:, idx & 0xFF]
    h ^= tables[:, 1, :][:, (idx >> 8) & 0xFF]
    h ^= tables[:, 2, :][:, (idx >> 16) & 0xFF]
    h ^= tables[:, 3, :][:, (idx >> 24) & 0xFF]
    return h
