"""Shared preprocessing: embed and sketch every record of a dataset once.

Signatures and sketches come from one MinHash family of
F = max(sig_len, 16 * sketch_words) functions (a sketch takes 4 bits from each
of its MinHashes, so 128 by default), and each record's F MinHash values (the
member of least hash rank under each function) fill one column of an (F, n)
matrix. The signature is its first sig_len rows and the sketch packs its first
16 * sketch_words; a family's first functions do not depend on its size, so
signatures do not depend on the sketch's.

Each function's ranks over the universe [0, d) are sorted into rank tables:
`order[f, r]` is the token at rank position r under function f and
`pos[t, f]` the rank position of token t. A canonical dataset's ids are
dense in [0, d), so the universe is the tokens that occur. The sort runs on
keys that hold a rank's high bits and the token in its low ones; they come
straight out of the byte-at-a-time expansion of the hash tables, once the
tables' low bits are cleared, each byte's share of the token is ORed into
its table, and every byte that is 0 over the whole universe is folded into
byte 0's table; only a function whose keys tie on their high bits is ranked
again in full. A record's MinHash under f is `order[f, r*]`, where r* is the
least rank position it holds. Records of equal size, consecutive in
canonical order, are taken in blocks, and one rule (`_first_hit_window`)
picks the kernel that finds r*, for every block before a chunk of functions
builds its tables, so that `pos` is built only for a chunk in which some
block gathers:

- the gather kernel reads all s positions of each record, a minimum over a
  gathered (k, s, F) block;
- the first-hit kernel, for records dense in the universe (s * s well above
  u = d), walks rank positions in order and stops at the first one a record
  holds, after about u / s: a (u, k) indicator gathered at the first W rank
  positions of each function, W about 5u / s, and the rare (function,
  record) pair with no hit in the window scanned on window by window.

Both write rank positions into the chunk's rows of the (F, n) matrix, and
both fill at most `_BLOCK_CELLS` cells at a time. Once every block is in,
one `take` per function row turns the positions into tokens through
`order`. Ties in rank sit in token order in `order`, so both kernels give
the argmin of the per-record definition, bit for bit. The tables are built
`_UNIVERSE_CELL_CAP // d` functions (at least one) at a time, so a wide
universe costs more chunks rather than more memory. One step then cuts the
signatures from the matrix, and the sketch's bit functions pack its rows
into sketches.

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
from .sketch import BITS_PER_MINHASH, DEFAULT_SKETCH_WORDS, SketchFamily
from .tabulation import MASK64, derive_seed

_SIG_TAG = 0x707369  # MinHash family seed
_SK_TAG = 0x70736B  # sketch bit function seed
_UNIVERSE_CELL_CAP = 2 ** 24  # rank table cells built per chunk of functions
_RANK_CHUNK_CELLS = 2 ** 20  # 64-bit ranks hashed and sorted at a time
_BLOCK_CELLS = 2 ** 19  # cells gathered, or indicator bytes filled, per block
_FIRST_HIT_COST = 1.0  # a first-hit window byte's cost in gathered rank positions
_WINDOW_CAP = 248  # rank positions per first-hit window: below 0xFF, a multiple of 8


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

    @property
    def sketch_minhashes(self) -> int:
        """MinHashes behind each sketch, which the filter's tail bound counts:
        the signature family's first 16 * sketch_words, independent of each
        other, not of the signature."""
        return self.sketch_bits // BITS_PER_MINHASH


def check_join_params(threshold: float, delta: float):
    """Validate the config fields every approximate join shares."""
    if not 0.0 < threshold <= 1.0:
        raise ValueError("threshold must be in (0, 1]")
    if not 0.0 < delta <= 1.0:
        raise ValueError("delta must be in (0, 1]")


def check_dims(sig_len: int, sketch_words: int):
    """Validate the embedding's dimensions."""
    if sig_len < 1:
        raise ValueError("sig_len must be >= 1")
    if sketch_words < 1:
        raise ValueError("sketch_words must be >= 1")


def preprocess(data: Dataset, sig_len: int = DEFAULT_SIG_LEN,
               sketch_words: int = DEFAULT_SKETCH_WORDS, seed: int = 0) -> Prepared:
    check_dims(sig_len, sketch_words)
    t0 = time.perf_counter()
    sk_fam = SketchFamily(sketch_words, derive_seed(seed, _SK_TAG))
    count = len(sk_fam.bit_tables)  # MinHashes per sketch
    fam = MinHashFamily(max(sig_len, count), derive_seed(seed, _SIG_TAG))
    values = _minhashes(fam.tables, data)

    sig = np.ascontiguousarray(values[:sig_len].T)
    sketches = sk_fam.from_minhashes(values[:count])
    return Prepared(data, sig, sketches, seed, time.perf_counter() - t0)


def _minhashes(tables: np.ndarray, data: Dataset) -> np.ndarray:
    """MinHash values (F, n) of every record, from rank tables over [0, d)
    built a chunk of functions at a time.

    Canonical records ascend in size, so each size's records are one
    consecutive block of rows of a (k, s) token matrix, read and written as
    slices. Each block writes, per function, the least rank position it
    holds, from the first-hit kernel (`_first_hits`) where
    `_first_hit_window` gives a window for its size and block, and else from
    a gather of every position. One `take` per function row then turns
    positions into tokens through `order`."""
    d, sizes = data.d, data.sizes
    starts = np.flatnonzero(np.diff(sizes, prepend=-1))
    values = None
    step = max(1, _UNIVERSE_CELL_CAP // max(d, 1))
    for f in range(0, len(tables), step):
        fns = min(step, len(tables) - f)
        # (start, end, record size, block, first-hit window) per size, chosen
        # first, so that only a chunk with a gathering block inverts `order`
        plan = []
        for start, end in zip(starts, np.append(starts[1:], data.n)):
            s = int(sizes[start])
            block = min(end - start, max(1, _BLOCK_CELLS // d))
            window = _first_hit_window(s, d, fns, block)
            if not window:
                block = max(1, _BLOCK_CELLS // (s * fns))
            plan.append((start, end, s, block, window))
        order, pos = _rank_tables(tables[f:f + fns], d,
                                  inverse=not all(window for *_, window in plan))
        if values is None:  # allocated after the first tables, not under them
            values = np.empty((len(tables), data.n), dtype=np.uint32)
        out = values[f:f + fns]
        for start, end, s, block, window in plan:
            for b in range(start, end, block):
                e = min(b + block, end)
                members = data.tokens[data.indptr[b]:data.indptr[e]].reshape(-1, s)
                if window:
                    out[:, b:e] = _first_hits(members, order, window)
                else:
                    out[:, b:e] = pos[members].min(axis=1).T
        for r, row in enumerate(out):
            row[:] = order[r].take(row)
        del order, pos  # freed before the next chunk's tables are built
    return values


def _first_hit_window(s: int, u: int, fns: int, k: int) -> int:
    """The one rule choosing a block's kernel: the window of rank positions
    the first-hit kernel scans for `fns` functions over k records of size s
    in a universe of u positions, or 0 where the gather kernel is cheaper.

    A record's first hit comes after about u / s rank positions, so a window
    of W = 5u / s, rounded up to a multiple of 8, leaves a (function, record)
    pair unresolved with probability under e^-5. Per record, the gather
    kernel reads fns * s rank positions. The first-hit kernel fills u
    indicator bytes and gathers fns * W indicator rows of k bytes, which
    cost, in gathered bytes, 3 per byte filled and 160 per row: it is taken
    where

        `_FIRST_HIT_COST` * (3u + fns * W * (1 + 160 / k)) < fns * s.

    The rule counts W before the window is capped at `_WINDOW_CAP` and u,
    about the positions scanned. Its weights are a least-squares fit of both
    kernels at fns = 256 on 2 vCPUs, over u of 500 to 20,000, s * s / u of 2
    to 32, and blocks of 26 to 1,048 records: 1.7 ns per byte filled, 0.63
    per byte gathered and 100 per row, against 0.6-0.7 ns per rank position
    gathered. The rule picked the faster kernel in 57 of those 70 cases,
    and one within 1.7x of it in the rest; the rule s * s > 4u, which
    ignores k, picked it in 48, and one up to 5.4x slower in the rest. With
    it, in-process `preprocess` medians on the `tokens` benchmark set
    (s = 171, u = 800) fell from 69-85 to 27-39 ms, and on the acceptance
    gate's `tokens` set (s = 333, u = 1,000) from 170-194 to 40-59 ms;
    `clusters` (s <= 50, u = 10,000) gathers, as before.
    """
    window = -(-5 * u // s)
    window = -(-window // 8) * 8
    if _FIRST_HIT_COST * (3 * u + fns * window * (1 + 160 / k)) >= fns * s:
        return 0
    return min(window, _WINDOW_CAP, u)


def _first_hits(members: np.ndarray, order: np.ndarray, window: int) -> np.ndarray:
    """Each record's first rank position, per function of `order`, whose
    token it holds: (F, k) for the (k, s) tokens `members`.

    A (u, k) miss indicator is 0 where a record holds a token and 0xFF where
    it does not. Its rows at the first `window` rank positions of a chunk of
    functions, ORed with their position, have their least value at the first
    hit, or 0xFF where the window holds none; those (function, record) pairs
    scan on, a window at a time. Chunks gather at most `_BLOCK_CELLS` cells."""
    k = len(members)
    miss = np.full((order.shape[1], k), 0xFF, dtype=np.uint8)
    held = members * np.uint32(k)  # below 2^32: u * k <= max(u, _BLOCK_CELLS)
    held += np.arange(k, dtype=np.uint32)[:, None]
    miss.ravel()[held.ravel()] = 0
    first = np.empty((len(order), k), dtype=order.dtype)
    positions = np.arange(window, dtype=np.uint8)[:, None]
    step = max(1, _BLOCK_CELLS // (window * k))
    for f in range(0, len(order), step):
        cells = miss[order[f:f + step, :window]]
        cells |= positions
        chunk = cells.min(axis=1)
        first[f:f + step] = chunk
        rows, cols = np.divmod(np.flatnonzero(chunk == 0xFF), k)
        rows += f
        start = window
        while rows.size:
            hit = miss[order[rows, start:start + window], cols[:, None]] == 0
            found = hit.any(axis=1)
            first[rows[found], cols[found]] = start + hit[found].argmax(axis=1)
            rows, cols = rows[~found], cols[~found]
            start += window
    return first


def _rank_tables(tables: np.ndarray, size: int, inverse: bool):
    """Rank tables of the stacked functions over the tokens [0, size).

    Returns `order` (F, size), the tokens in ascending rank under each
    function, and, where `inverse` is set, its inverse `pos` (size, F), the
    rank position of each token (else None). Tokens of equal 64-bit rank sit
    in ascending token order, the tie-break `argmin` gives on an ascending
    record.

    Each function is sorted on keys: its 64-bit ranks with the low bits
    (`token_mask`) replaced by the token, which sort by rank, and by token
    where the high bits tie. Tabulation hashing XORs one table entry per key
    byte, so clearing those bits in the tables clears them in every rank;
    entry c of byte j's table then also holds c << 8j, that byte's share of
    the token, and the expansion (`_universe_ranks`) gives the keys
    themselves. A row where two neighbouring keys share their high bits is
    sorted again on its full ranks, stably. `pos` is scattered a row at a
    time.
    """
    dtype = np.uint16 if size <= 2 ** 16 else np.uint32
    fns = len(tables)
    order = np.empty((fns, size), dtype=dtype)
    pos = np.empty((size, fns), dtype=dtype) if inverse else None
    positions = np.arange(size, dtype=dtype)
    token_mask = (1 << max(size - 1, 1).bit_length()) - 1
    keyed = tables & np.uint64(~token_mask & MASK64)
    keyed |= np.arange(256, dtype=np.uint64) << np.arange(0, 32, 8, dtype=np.uint64)[:, None]
    step = max(1, min(64, _RANK_CHUNK_CELLS // max(size, 1)))
    for f in range(0, fns, step):
        chunk = slice(f, min(f + step, fns))
        keys = _universe_ranks(keyed[chunk], size)
        keys.sort(axis=1)
        near = np.flatnonzero(((keys[:, 1:] ^ keys[:, :-1]) <= token_mask).any(axis=1))
        perm = keys.astype(dtype)
        perm &= dtype(token_mask)
        if near.size:
            ranks = _universe_ranks(tables[chunk][near], size)
            perm[near] = np.argsort(ranks, axis=1, kind="stable")
        order[chunk] = perm
        if pos is not None:
            rank_of = np.empty_like(perm)
            for r, row in enumerate(perm):
                rank_of[r, row.astype(np.intp)] = positions  # faster than a uint16 index
            pos[:, chunk] = rank_of.T
    return order, pos


def _universe_ranks(tables: np.ndarray, d: int) -> np.ndarray:
    """Hash ranks (F, d) of the tokens [0, d), built a key byte at a time: each
    entry of byte j's table XORed with the ranks of every lower-byte key. A
    byte that is 0 for every token of [0, d) adds one entry to every rank,
    so it is folded into byte 0's table first."""
    h = tables[:, 0, :]
    for j in (1, 2, 3):
        if d <= 256 ** j:
            h = h ^ tables[:, j, :1]
    for j in (1, 2, 3):
        if d > 256 ** j:
            count = min(256, -(-d // 256 ** j))
            h = (tables[:, j, :count, None] ^ h[:, None, :]).reshape(len(tables), -1)
    return h[:, :d]
