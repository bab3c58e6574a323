"""Shared preprocessing: embed and sketch every record of a dataset once.

The signature and sketch MinHash families are stacked into one table tensor of
F = sig_len + sketch bits functions, and each record's F MinHash values (the
member of least hash rank under each function) fill one column of an (F, n)
matrix.

When the universe is small enough, every function's ranks over the whole
universe are sorted once into rank tables: `order[f, r]` is the token at rank
position r under function f and `pos[t, f]` the rank position of token t.
Records of equal size are then taken in blocks: the least position over each
record's tokens, per function, is a minimum over a gathered (k, s, F) block,
and `order` turns it back into the token. Above `_UNIVERSE_CELL_CAP`, or when
the universe has more tokens than the records hold together, the ranks are
hashed record by record instead. Both fill the same matrix, from which one
step cuts the signatures and packs the sketch bits.

The embedding's dimensions are chosen here and nowhere else: a `Prepared`
reads them off its arrays, and the joins read them off the `Prepared`.
Signatures and sketches can be reused across joins at different thresholds;
only the filter cutoffs depend on the threshold.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .datasets import Dataset
from .minhash import DEFAULT_SIG_LEN, MinHashFamily
from .sketch import DEFAULT_SKETCH_WORDS, SketchFamily
from .tabulation import derive_seed, hash_keys

_SIG_TAG = 0x707369  # signature family seed
_SK_TAG = 0x70736B  # sketch family seed
_UNIVERSE_CELL_CAP = 2 ** 24  # rank tables over the universe above this are not worth it
_RANK_CHUNK_CELLS = 2 ** 20  # 64-bit ranks hashed and sorted at a time
_BLOCK_CELLS = 2 ** 19  # rank positions gathered per block of equal-size records


@dataclass
class Prepared:
    """Embedded dataset: signatures (n, sig_len) and sketches (n, words)."""

    data: Dataset
    sig: np.ndarray
    sketches: np.ndarray
    seed: int
    elapsed_s: float

    @property
    def sig_len(self) -> int:
        return self.sig.shape[1]

    @property
    def sketch_words(self) -> int:
        return self.sketches.shape[1]

    @property
    def sketch_bits(self) -> int:
        return 64 * self.sketch_words


def check_join_params(threshold: float, delta: float):
    """Validate the config fields every approximate join shares."""
    if not 0.0 < threshold <= 1.0:
        raise ValueError("threshold must be in (0, 1]")
    if not 0.0 < delta <= 1.0:
        raise ValueError("delta must be in (0, 1]")


def preprocess(data: Dataset, sig_len: int = DEFAULT_SIG_LEN,
               sketch_words: int = DEFAULT_SKETCH_WORDS, seed: int = 0) -> Prepared:
    t0 = time.perf_counter()
    sig_fam = MinHashFamily(sig_len, derive_seed(seed, _SIG_TAG))
    sk_fam = SketchFamily(sketch_words, derive_seed(seed, _SK_TAG))

    tables = np.concatenate([sig_fam.tables, sk_fam.minhashes.tables], axis=0)
    if _use_rank_tables(len(tables), data.d, data.tokens.size):
        values = _universe_minhashes(tables, data)
    else:
        values = _record_minhashes(tables, data)

    sig = np.ascontiguousarray(values[:sig_len].T)
    sketches = _sketches(sk_fam, values[sig_len:])
    return Prepared(data, sig, sketches, seed, time.perf_counter() - t0)


def _use_rank_tables(fns: int, d: int, tokens: int) -> bool:
    """Whether to build rank tables over [0, d) rather than hash `tokens`
    record tokens one record at a time: only under the cap, and only when the
    universe is no wider than the record tokens. Per function, building the
    tables costs about as much per universe token as hashing does per record
    token (28-48 ns against 10-70 ns, with record size and F, on a 2-core
    x86-64 host with numpy 2.4), so the two counts decide."""
    return fns * d <= _UNIVERSE_CELL_CAP and d <= tokens


def _universe_minhashes(tables: np.ndarray, data: Dataset) -> np.ndarray:
    """MinHash values (F, n) of every record, from rank tables over [0, d)."""
    order, pos = _rank_tables(tables, data.d)
    fns = np.arange(len(tables))[:, None]
    values = np.empty((len(tables), data.n), dtype=np.uint32)
    # Group records by size, keeping index order within a size (canonical data
    # is already stored this way), so each block is a dense (k, s) token matrix.
    by_size = np.argsort(data.sizes, kind="stable")
    sizes = data.sizes[by_size]
    starts = np.flatnonzero(np.diff(sizes, prepend=-1))
    for start, end in zip(starts, np.append(starts[1:], data.n)):
        s = int(sizes[start])
        step = max(1, _BLOCK_CELLS // (s * len(tables)))
        for b in range(start, end, step):
            ids = by_size[b:min(b + step, end)]
            tokens = data.tokens[data.indptr[ids][:, None] + np.arange(s)]
            least = pos[tokens].min(axis=1)
            values[:, ids] = order[fns, least.T]
    return values


def _rank_tables(tables: np.ndarray, d: int):
    """Rank tables of the stacked functions over the universe [0, d).

    Returns `order` (F, d), the tokens in ascending rank under each function,
    and its inverse `pos` (d, F). Tokens of equal 64-bit rank sit in ascending
    token order, the tie-break `argmin` gives on an ascending record.
    """
    dtype = np.uint16 if d <= 2 ** 16 else np.uint32
    fns = len(tables)
    order = np.empty((fns, d), dtype=dtype)
    pos = np.empty((d, fns), dtype=dtype)
    universe = np.arange(d, dtype=np.uint64)
    positions = np.arange(d, dtype=dtype)[None, :]
    token_mask = np.uint64((1 << max(d - 1, 1).bit_length()) - 1)
    step = max(1, min(64, _RANK_CHUNK_CELLS // max(d, 1)))
    for f in range(0, fns, step):
        chunk = slice(f, min(f + step, fns))
        ranks = _universe_ranks(tables[chunk], d)
        # A rank with its low bits replaced by the token sorts by rank, and by
        # token where the high bits tie. A row where two neighbours share their
        # high bits is sorted again on the full rank, stably.
        keys = (ranks & ~token_mask) | universe
        keys.sort(axis=1)
        perm = (keys & token_mask).astype(dtype)
        near = np.flatnonzero(((keys[:, 1:] ^ keys[:, :-1]) <= token_mask).any(axis=1))
        if near.size:
            perm[near] = np.argsort(ranks[near], axis=1, kind="stable")
        order[chunk] = perm
        inverse = np.empty_like(perm)
        np.put_along_axis(inverse, perm, positions, axis=1)
        pos[:, chunk] = inverse.T
    return order, pos


def _universe_ranks(tables: np.ndarray, d: int) -> np.ndarray:
    """Hash ranks (F, d) of the tokens [0, d), built a key byte at a time: each
    entry of byte j's table XORed with the ranks of every lower-byte key."""
    h = tables[:, 0, :]
    for j in (1, 2, 3):
        count = min(256, -(-d // 256 ** j))
        h = (tables[:, j, :count, None] ^ h[:, None, :]).reshape(len(tables), -1)
    return h[:, :d]


def _record_minhashes(tables: np.ndarray, data: Dataset) -> np.ndarray:
    """MinHash values (F, n) of every record, hashing its tokens on the spot."""
    values = np.empty((len(tables), data.n), dtype=np.uint32)
    for i in range(data.n):
        rec = data.record(i)
        values[:, i] = rec[np.argmin(hash_keys(tables, rec), axis=1)]
    return values


def _sketches(sk_fam: SketchFamily, values: np.ndarray) -> np.ndarray:
    """Packed sketches (n, words): bit f applies bit function f to row f of the
    sketch family's MinHash values (bits, n)."""
    # A bit function's value is the low bit of its tabulation hash, so the XOR
    # of the low bits of its four byte-table entries.
    low = (sk_fam.bit_tables & np.uint64(1)).astype(np.uint8)
    bits = np.empty(values.shape, dtype=np.uint8)
    for f, v in enumerate(values):
        t0, t1, t2, t3 = low[f]
        b = t0.take(v & 0xFF)
        b ^= t1.take((v >> 8) & 0xFF)
        b ^= t2.take((v >> 16) & 0xFF)
        b ^= t3.take(v >> 24)
        bits[f] = b
    packed = np.packbits(bits, axis=0, bitorder="little")
    return np.ascontiguousarray(packed.T).view("<u8")
