"""Shared preprocessing: embed and sketch every record of a dataset once.

The signature and sketch MinHash families are stacked into one table tensor of
F = sig_len + 16 * sketch_words functions (a sketch takes 4 bits from each of
its MinHashes, so 128 + 128 by default), and each record's F MinHash values
(the member of least hash rank under each function) fill one column of an
(F, n) matrix.

Each function's ranks over the universe are sorted into rank tables:
`order[f, r]` is the token at rank position r under function f and `pos[t, f]`
the rank position of the token at universe position t. The universe is [0, d)
when it is no wider than the record tokens (always, for canonical data), and
otherwise the distinct tokens that occur. Records of equal size are then taken
in blocks: the least position over each record's tokens, per function, is a
minimum over a gathered (k, s, F) block, written in place into the chunk's
rows of the (F, n) matrix through one column index. Once every block is in,
one `take` per function row turns the positions into tokens through `order`.
The tables are built `_UNIVERSE_CELL_CAP // universe` functions (at least one)
at a time, so a wide universe costs more chunks rather than more memory. One
step then cuts the signatures from the matrix, and the sketch family packs
its rows into sketches.

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
from .tabulation import derive_seed, hash_keys

_SIG_TAG = 0x707369  # signature family seed
_SK_TAG = 0x70736B  # sketch family seed
_UNIVERSE_CELL_CAP = 2 ** 24  # rank table cells built per chunk of functions
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

    @property
    def sketch_minhashes(self) -> int:
        """Independent MinHashes behind each sketch, which the filter's tail
        bound counts."""
        return self.sketch_bits // BITS_PER_MINHASH


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
    values = _minhashes(tables, data)

    sig = np.ascontiguousarray(values[:sig_len].T)
    sketches = sk_fam.from_minhashes(values[sig_len:])
    return Prepared(data, sig, sketches, seed, time.perf_counter() - t0)


def _minhashes(tables: np.ndarray, data: Dataset) -> np.ndarray:
    """MinHash values (F, n) of every record, from rank tables built a chunk of
    functions at a time. The tables rank [0, d) when it is no wider than the
    record tokens, and otherwise the tokens that occur, which records then
    index by position."""
    if data.d <= data.tokens.size:
        universe, tokens, size = None, data.tokens, data.d
    else:
        universe, tokens = np.unique(data.tokens, return_inverse=True)
        size = universe.size
    # Group records by size, keeping index order within a size (canonical data
    # is already stored this way), so each block is a dense (k, s) token matrix.
    by_size = np.argsort(data.sizes, kind="stable")
    sizes = data.sizes[by_size]
    starts = np.flatnonzero(np.diff(sizes, prepend=-1))
    values = None
    step = max(1, _UNIVERSE_CELL_CAP // max(size, 1))
    for f in range(0, len(tables), step):
        order, pos = _rank_tables(tables[f:f + step], size, universe)
        if values is None:  # allocated after the first tables, not under them
            values = np.empty((len(tables), data.n), dtype=np.uint32)
        out = values[f:f + len(order)]
        for start, end in zip(starts, np.append(starts[1:], data.n)):
            s = int(sizes[start])
            block = max(1, _BLOCK_CELLS // (s * len(order)))
            for b in range(start, end, block):
                ids = by_size[b:min(b + block, end)]
                out[:, ids] = pos[tokens[data.indptr[ids][:, None] + np.arange(s)]].min(axis=1).T
        for r, row in enumerate(out):
            row[:] = order[r].take(row)
        del order, pos  # freed before the next chunk's tables are built
    return values


def _rank_tables(tables: np.ndarray, size: int, universe: np.ndarray | None):
    """Rank tables of the stacked functions over `size` tokens: [0, size), or
    the sorted tokens of `universe` when one is given.

    Returns `order` (F, size), the tokens in ascending rank under each
    function, and its inverse `pos` (size, F), indexed by universe position.
    Tokens of equal 64-bit rank sit in ascending token order, the tie-break
    `argmin` gives on an ascending record.
    """
    dtype = np.uint16 if size <= 2 ** 16 else np.uint32
    fns = len(tables)
    order = np.empty((fns, size), dtype=dtype if universe is None else universe.dtype)
    pos = np.empty((size, fns), dtype=dtype)
    index = np.arange(size, dtype=np.uint64)
    positions = np.arange(size, dtype=dtype)[None, :]
    token_mask = np.uint64((1 << max(size - 1, 1).bit_length()) - 1)
    step = max(1, min(64, _RANK_CHUNK_CELLS // max(size, 1)))
    row_offsets = np.arange(step, dtype=np.intp)[:, None] * size
    for f in range(0, fns, step):
        chunk = slice(f, min(f + step, fns))
        if universe is None:
            ranks = _universe_ranks(tables[chunk], size)
        else:
            # C-ordered, so that the key sort below runs on contiguous rows
            ranks = np.ascontiguousarray(hash_keys(tables[chunk], universe))
        # A rank with its low bits replaced by the universe position sorts by
        # rank, and by token where the high bits tie. A row where two neighbours
        # share their high bits is sorted again on the full rank, stably.
        keys = (ranks & ~token_mask) | index
        keys.sort(axis=1)
        perm = (keys & token_mask).astype(dtype)
        near = np.flatnonzero(((keys[:, 1:] ^ keys[:, :-1]) <= token_mask).any(axis=1))
        if near.size:
            perm[near] = np.argsort(ranks[near], axis=1, kind="stable")
        order[chunk] = perm if universe is None else universe[perm]
        inverse = np.empty(perm.size, dtype=dtype)
        inverse[perm + row_offsets[:len(perm)]] = positions
        pos[:, chunk] = inverse.reshape(perm.shape).T
    return order, pos


def _universe_ranks(tables: np.ndarray, d: int) -> np.ndarray:
    """Hash ranks (F, d) of the tokens [0, d), built a key byte at a time: each
    entry of byte j's table XORed with the ranks of every lower-byte key."""
    h = tables[:, 0, :]
    for j in (1, 2, 3):
        count = min(256, -(-d // 256 ** j))
        h = (tables[:, j, :count, None] ^ h[:, None, :]).reshape(len(tables), -1)
    return h[:, :d]

