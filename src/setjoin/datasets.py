"""Datasets of token sets: canonical form, text IO, and synthetic generators.

Canonical form, assumed by the inverted-index join and handy everywhere else:
no duplicate records, every record has at least two tokens, token ids are
dense in [0, d) and ordered by ascending global frequency (ties by original
id), records sorted by size then lexicographically, tokens sorted within each
record.

Records are concatenated once and checked by their least and largest
token, and laid end to end as uint32 tokens with per-record lengths; only
input that fails that check, or whose dtypes numpy cannot join into an
integer one, is checked a dtype at a time, to name its first bad record.
`from_records`, `load` and the generators all build from that flat form in
whole-array passes, with no per-record loop. The three key sorts (one in
pass 1, two in pass 3) pack two halves, `(high << shift) | low`, into
uint32 where the halves' bounds (the record count, the largest token and
the number of distinct ids) fit in 32 bits together, and into uint64
otherwise:

1. One sort of `(record, token)` keys sorts each record and drops
   repeated tokens; records left with fewer than two tokens are dropped.
2. Duplicate records are found per size, as the rows of a `(k, size)` block
   viewed as one big-endian void value each; the first occurrence keeps the
   record, so slots follow input order. This must come before the frequency
   count, which counts each distinct record once.
3. A token-major key sort counts every token's records and ranks the tokens
   by ascending count, ties by original id; a record-major key sort then lays
   the records out by size, each sorted on its new ids.
4. Each size's records, a contiguous block, are put in lexicographic order
   by an argsort of their big-endian void values.

A raw (non-canonical) build stops after pass 2 and keeps the original ids,
`d = max id + 1` and input order.

A Dataset caches every view derived from its records in `Dataset.memo`; its
column view (`Dataset.columns`) is the one place token ids are renumbered.

Wire format: UTF-8 text, one record per line, space-separated decimal tokens.
`load` parses a chunk of lines at a time with one conversion of all its tokens;
only when that fails does it scan the chunk token by token, to name the line
of the first bad token.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from itertools import chain, islice

import numpy as np

from .errors import CapacityExceededError, ParseError, TokenOverflowError

_MAX_TOKEN = 0xFFFFFFFF
_BITSET_BYTE_CAP = 512 * 1024 * 1024
_LOAD_LINES = 2 ** 16  # lines parsed at a time, bounding the token strings held
_RENUMBER_CHUNK = 2 ** 18  # tokens the column view renumbers at a time


def _memoised(build):
    """A Dataset method whose value `build(self)` is built on its first call
    and held in `Dataset.memo` under the method's name."""
    return functools.wraps(build)(lambda self: self.memo(build.__name__, lambda: build(self)))


class Dataset:
    """Immutable collection of token sets in CSR-like layout."""

    __slots__ = ("tokens", "indptr", "n", "d", "canonical", "provenance", "_memo")

    def __init__(self, tokens: np.ndarray, indptr: np.ndarray, d: int,
                 canonical: bool, provenance: dict | None = None):
        self.tokens = tokens
        self.indptr = indptr
        self.n = len(indptr) - 1
        self.d = d
        self.canonical = canonical
        self.provenance = provenance or {}
        self._memo = {}

    def record(self, i: int) -> np.ndarray:
        return self.tokens[self.indptr[i]:self.indptr[i + 1]]

    def records(self):
        for i in range(self.n):
            yield self.record(i)

    @property
    @_memoised
    def token_freq(self) -> np.ndarray:
        """Records holding each id in [0, d), counted on first read."""
        return np.bincount(self.tokens, minlength=self.d)

    @property
    def sizes(self) -> np.ndarray:
        return np.diff(self.indptr)

    @property
    def avg_size(self) -> float:
        return float(self.tokens.size) / self.n if self.n else 0.0

    @property
    def sets_per_token(self) -> float:
        return float(self.tokens.size) / self.d if self.d else 0.0

    def stats(self) -> dict:
        return {
            "n": self.n,
            "d": self.d,
            "total_tokens": int(self.tokens.size),
            "avg_size": self.avg_size,
            "sets_per_token": self.sets_per_token,
        }

    @_memoised
    def columns(self) -> tuple[np.ndarray | None, np.ndarray]:
        """The records' column view (universe, cols), built on first call:
        (None, tokens), no copy, where d is no wider than the tokens (always,
        for canonical data); else the ids that occur, ascending, and each
        token's uint32 position among them, searched `_RENUMBER_CHUNK` tokens
        at a time so that no token-long intp array is made."""
        if self.d <= self.tokens.size:
            return None, self.tokens
        universe = np.unique(self.tokens)
        cols = np.empty(self.tokens.size, dtype=np.uint32)
        for t0 in range(0, cols.size, _RENUMBER_CHUNK):
            chunk = slice(t0, t0 + _RENUMBER_CHUNK)
            cols[chunk] = np.searchsorted(universe, self.tokens[chunk])
        return universe, cols

    @property
    def width(self) -> int:
        """The column view's columns: d, or the number of ids that occur."""
        universe = self.columns()[0]
        return self.d if universe is None else universe.size

    @_memoised
    def bitset(self) -> np.ndarray | None:
        """Packed indicator matrix (n, ceil(d/64)) uint64, or None when the
        universe is too large to justify the memory. Its non-zero words are
        those of `bitset_words()`, scattered into place."""
        words = (self.d + 63) >> 6
        if self.n * words * 8 > _BITSET_BYTE_CAP:
            return None
        bits = np.zeros((self.n, words), dtype=np.uint64)
        starts, cols, runs = self.bitset_words()
        bits[np.repeat(np.arange(self.n), np.diff(starts)), cols] = runs
        return bits

    @_memoised
    def bitset_words(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Each record's non-zero `bitset()` words, built on first call:
        (starts, cols, words), record i owning the word indices
        cols[starts[i]:starts[i + 1]], ascending, and their values in the
        same slice of `words`."""
        cols = (self.tokens >> np.uint32(6)).astype(np.intp)
        vals = np.uint64(1) << (self.tokens.astype(np.uint64) & np.uint64(63))
        # A run of one record's tokens in one word starts where the word
        # index changes or a record starts (records hold tokens, ascending).
        run = np.empty(cols.size, dtype=bool)
        np.not_equal(cols[1:], cols[:-1], out=run[1:])
        run[self.indptr[:-1]] = True
        run_starts = np.flatnonzero(run)
        return (np.searchsorted(run_starts, self.indptr), cols[run_starts],
                np.bitwise_or.reduceat(vals, run_starts))

    def memo(self, key: str, build):
        """`build()`, called on the first read of `key` and then held as long
        as the dataset, and no longer: the one cache of the views derived from
        the records, this module's (`token_freq`, `columns`, `bitset`,
        `bitset_words`) and another module's (`exact` keeps its CSR matrix
        here), which this module then need not know how to build."""
        if key not in self._memo:
            self._memo[key] = build()
        return self._memo[key]

    @staticmethod
    def from_records(records, canonical: bool = True) -> "Dataset":
        ds, _ = _build(*_flatten(records), canonical=canonical, provenance=None)
        return ds


def _check_record(arr: np.ndarray, where: str) -> None:
    """Raise on a non-empty record's bad token: non-integer, then negative,
    then too wide."""
    if arr.dtype.kind not in "ui":
        raise ParseError(f"{where}: non-integer token")
    if arr.dtype.kind == "i" and int(arr.min()) < 0:
        raise ParseError(f"{where}: negative token")
    if int(arr.max()) > _MAX_TOKEN:
        raise TokenOverflowError(f"{where}: token exceeds 32 bits")


def _flatten(records) -> tuple[np.ndarray, np.ndarray]:
    """Validate records and lay them end to end: (tokens uint32, lengths).

    Records of integer dtypes that numpy joins into an integer dtype are
    concatenated once and checked by their least and largest token. Any
    other input (a bad token, a non-integer record, or int64 records mixed
    with uint64 ones, which numpy joins as float64) takes `_check_dtypes`.
    """
    arrays = [np.asarray(r).ravel() for r in records]
    lengths = np.fromiter(map(len, arrays), dtype=np.int64, count=len(arrays))
    if not arrays:
        return np.zeros(0, dtype=np.uint32), lengths
    dtypes = {a.dtype for a in arrays if a.size}
    if all(dtype.kind in "ui" for dtype in dtypes):
        common = np.result_type(np.uint32, *dtypes)
        if common.kind in "ui":
            flat = np.concatenate(arrays, dtype=common, casting="unsafe")
            if not flat.size or ((common.kind == "u" or flat.min() >= 0)
                                 and flat.max() <= _MAX_TOKEN):
                return flat.astype(np.uint32, copy=False), lengths
    _check_dtypes(arrays, lengths)
    # Every token is now in [0, 2^32), so each record casts straight to uint32.
    return np.concatenate(arrays, dtype=np.uint32, casting="unsafe"), lengths


def _check_dtypes(arrays: list, lengths: np.ndarray) -> None:
    """Check the non-empty records one dtype at a time, each dtype's in one
    pass; the earliest record holding a bad token of any kind raises, worded
    by `_check_record`."""
    first_bad = len(arrays)
    for dtype in dict.fromkeys(a.dtype for a in arrays if a.size):  # in order of first appearance
        members = np.array([i for i, a in enumerate(arrays) if a.size and a.dtype == dtype])
        if dtype.kind not in "ui":
            first_bad = min(first_bad, members[0])
            continue
        part = np.concatenate([arrays[i] for i in members])
        bad = part > _MAX_TOKEN
        if dtype.kind == "i":
            bad |= part < 0
        if bad.any():
            ends = np.cumsum(lengths[members])
            first_bad = min(first_bad, members[np.searchsorted(ends, bad.argmax(), side="right")])
    if first_bad < len(arrays):
        _check_record(arrays[first_bad], f"record {first_bad}")


def _key_sort(high: np.ndarray, low: np.ndarray, high_max: int,
              low_max: int) -> tuple[np.ndarray, int]:
    """The keys `(high << shift) | low` ascending, and `shift`, the bit length
    of `low_max`; the keys are uint32 where `high_max` and `low_max` fit in
    32 bits together, else uint64. `keys >> shift` gives back the high
    halves and `_low(keys, shift)` the low ones. Narrow keys halve the bytes
    every pass over them moves, and sort in about half the time."""
    shift = int(low_max).bit_length()
    dtype = np.uint32 if int(high_max).bit_length() + shift <= 32 else np.uint64
    keys = np.left_shift(high, shift, dtype=dtype, casting="unsafe")
    keys |= low
    keys.sort()
    return keys, shift


def _low(keys: np.ndarray, shift: int) -> np.ndarray:
    """The low halves, uint32, of keys from `_key_sort`."""
    return np.bitwise_and(keys, (1 << shift) - 1, dtype=np.uint32, casting="unsafe")


def _runs(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Starts and ends of the runs of equal neighbours in `values`."""
    cuts = np.flatnonzero(values[1:] != values[:-1]) + 1
    if not values.size:
        return cuts, cuts
    return np.append(0, cuts), np.append(cuts, values.size)


def _rows(block: np.ndarray, size: int) -> np.ndarray:
    """Records of one size, given as a (k, size) token block, as one void
    value each that compares like the big-endian token sequence."""
    return np.ascontiguousarray(block, dtype=">u4").view(f"V{4 * size}").ravel()


def _build(tokens: np.ndarray, lengths: np.ndarray, canonical: bool, provenance: dict | None):
    """Assemble a Dataset from validated uint32 tokens laid end to end, record
    i holding the next `lengths[i]`.

    Returns (dataset, index_map) where index_map[i] is the final index of
    input record i, or -1 if it was dropped for having fewer than 2 distinct
    tokens. A duplicate reports its keeper's index: the first occurrence.
    """
    n_in = lengths.size
    index_map = np.full(n_in, -1, dtype=np.int64)
    # Pass 1: sort each record, drop repeated tokens and small records.
    top = int(tokens.max()) if tokens.size else 0  # largest token, bounding every id
    keys, shift = _key_sort(np.repeat(np.arange(n_in), lengths), tokens, n_in - 1, top)
    repeats = np.flatnonzero(keys[1:] == keys[:-1]) + 1
    sizes = lengths - np.bincount((keys[repeats] >> shift).astype(np.intp), minlength=n_in)
    keys = np.delete(keys, repeats)
    big = sizes >= 2
    tokens = _low(keys[np.repeat(big, sizes)], shift)
    kept = np.flatnonzero(big)
    sizes = sizes[kept]
    starts = np.cumsum(sizes) - sizes

    # Pass 2: the first occurrence of each distinct record keeps it, so slots
    # follow input order. This comes before the frequency count, which is
    # over distinct records.
    keeper = np.empty(kept.size, dtype=np.intp)
    by_size = np.argsort(sizes, kind="stable")
    for start, end in zip(*_runs(sizes[by_size])):
        members = by_size[start:end]
        s = int(sizes[members[0]])
        block = tokens[starts[members][:, None] + np.arange(s)]
        _, first, inverse = np.unique(_rows(block, s), return_index=True, return_inverse=True)
        keeper[members] = members[first[inverse]]
    is_keeper = keeper == np.arange(kept.size)
    slot = np.cumsum(is_keeper) - 1
    index_map[kept] = slot[keeper]
    tokens = tokens[np.repeat(is_keeper, sizes)]
    sizes = sizes[is_keeper]

    if not canonical:
        d = int(tokens.max()) + 1 if tokens.size else 0
        return Dataset(tokens, _indptr(sizes), d, False, provenance), index_map

    # Pass 3: a token-major key sort counts each token's records and ranks
    # the tokens by ascending count, ties by original id (lexsort: last key
    # primary). A record-major key sort then lays the records out by size,
    # in slot order within a size, each sorted on its new ids.
    m = sizes.size
    keys, shift = _key_sort(tokens, np.repeat(np.arange(m, dtype=np.uint32), sizes), top, m - 1)
    ids = keys >> shift
    starts, ends = _runs(ids)
    orig_ids, counts = ids[starts], ends - starts
    new_id = np.empty(orig_ids.size, dtype=np.uint32)
    new_id[np.lexsort((orig_ids, counts))] = np.arange(orig_ids.size, dtype=np.uint32)
    by_size = np.argsort(sizes, kind="stable")
    place = np.empty(m, dtype=np.intp)
    place[by_size] = np.arange(m)
    keys, shift = _key_sort(place[_low(keys, shift)], np.repeat(new_id, counts), m - 1,
                            orig_ids.size - 1)
    tokens = _low(keys, shift)
    sizes = sizes[by_size]

    # Pass 4: each size's records, now a contiguous (k, s) block, in
    # lexicographic order.
    indptr = _indptr(sizes)
    final = np.empty(sizes.size, dtype=np.int64)  # final index by place
    for start, end in zip(*_runs(sizes)):
        s = int(sizes[start])
        block = tokens[indptr[start]:indptr[end]].reshape(-1, s)
        order = np.argsort(_rows(block, s))
        block[...] = block[order]
        final[start + order] = np.arange(start, end)
    index_map[kept] = final[place][index_map[kept]]
    return Dataset(tokens, indptr, orig_ids.size, True, provenance), index_map


def _indptr(sizes: np.ndarray) -> np.ndarray:
    indptr = np.zeros(sizes.size + 1, dtype=np.int64)
    np.cumsum(sizes, out=indptr[1:])
    return indptr


def load(path) -> Dataset:
    """Read a dataset file and return its canonical form."""
    tokens, lengths = [], []
    with open(path, encoding="utf-8") as fh:
        lineno = 1
        while lines := list(islice(fh, _LOAD_LINES)):
            parts = [line.split() for line in lines]
            lengths.append(np.fromiter(map(len, parts), dtype=np.int64, count=len(parts)))
            try:
                # numpy parses each token as int(p, 10) does.
                chunk = np.array(list(chain.from_iterable(parts)), dtype=np.int64)
                in_range = chunk.size == 0 or (chunk.min() >= 0 and chunk.max() <= _MAX_TOKEN)
            except (ValueError, OverflowError):
                in_range = False
            if not in_range:
                _raise_first_bad_token(path, parts, lineno)
            tokens.append(chunk.astype(np.uint32))
            lineno += len(lines)
    ds, _ = _build(np.concatenate(tokens or [np.zeros(0, dtype=np.uint32)]),
                   np.concatenate(lengths or [np.zeros(0, dtype=np.int64)]),
                   canonical=True, provenance={"source": str(path)})
    return ds


def _raise_first_bad_token(path, parts, first_lineno: int) -> None:
    """Raise on the first token, in lines split from `first_lineno` on, that
    is not an integer in [0, 2^32), naming its line."""
    for lineno, line in enumerate(parts, first_lineno):
        for p in line:
            try:
                value = int(p, 10)
            except ValueError:
                raise ParseError(f"{path}:{lineno}: bad token {p!r}") from None
            if value < 0:
                raise ParseError(f"{path}:{lineno}: negative token {value}")
            if value > _MAX_TOKEN:
                raise TokenOverflowError(f"{path}:{lineno}: token {value} exceeds 32 bits")
    raise ParseError(f"{path}:{first_lineno}: unreadable tokens")


def save(dataset: Dataset, path) -> None:
    """Write records one per line, tokens space-separated."""
    with open(path, "w", encoding="utf-8") as fh:
        for rec in dataset.records():
            fh.write(" ".join(map(str, rec.tolist())))
            fh.write("\n")


def gen_uniform(n: int, avg_size: float, d: int, seed: int = 0) -> Dataset:
    """Sets of Poisson-distributed size (min 2) drawn uniformly from [0, d)."""
    if n < 1 or d < 2:
        raise ValueError("need n >= 1 and d >= 2")
    if avg_size >= d:
        raise ValueError("avg_size must be below the universe size")
    rng = np.random.default_rng(seed)
    sizes = np.maximum(2, rng.poisson(avg_size, size=n))
    sizes = np.minimum(sizes, d)
    records = [rng.choice(d, size=int(s), replace=False) for s in sizes]
    ds, _ = _build(*_flatten(records), canonical=True, provenance={
        "generator": "uniform", "n": n, "avg_size": avg_size, "d": d, "seed": seed,
    })
    return ds


@dataclass(frozen=True)
class TokensSpec:
    """Recipe for adversarially token-frequent data with planted similar pairs.

    Every background set has size round((2*bg/(1+bg))*d) so that two random
    sets have expected Jaccard `background_similarity`. Each planted entry
    (sim, count) adds `count` pairs of sets of the size that matches `sim`,
    sharing a core of c tokens with c/(2s-c) = sim. Tokens are sampled only
    while under `max_freq` uses; planted sets count against the cap.
    """

    d: int = 1000
    max_freq: int = 100
    planted: tuple = ()
    background_similarity: float = 0.2
    n_background: int | None = None  # None: fill until the caps bind
    seed: int = 0

    def __post_init__(self):
        if self.d < 2:
            raise ValueError("d must be >= 2")
        if self.max_freq < 1:
            raise ValueError("max_freq must be >= 1")
        if not 0.0 < self.background_similarity < 1.0:
            raise ValueError("background_similarity must be in (0, 1)")
        for sim, count in self.planted:
            if not 0.0 < sim < 1.0:
                raise ValueError(f"planted similarity {sim} outside (0, 1)")
            if count < 0:
                raise ValueError("planted count must be >= 0")
        if self.n_background is not None and self.n_background < 0:
            raise ValueError("n_background must be >= 0")


def _size_for_similarity(sim: float, d: int) -> int:
    # Two independent random subsets of [0, d) of this size have expected
    # Jaccard `sim`.
    return int(round(2.0 * sim / (1.0 + sim) * d))


def gen_tokens(spec: TokensSpec) -> Dataset:
    rng = np.random.default_rng(spec.seed)
    s_bg = _size_for_similarity(spec.background_similarity, spec.d)
    if s_bg < 2:
        raise ValueError("background sets would have fewer than 2 tokens")

    demanded = 0
    for sim, count in spec.planted:
        s = _size_for_similarity(sim, spec.d)
        c = int(round(2.0 * sim * s / (1.0 + sim)))
        if 2 * s - c > spec.d:
            raise CapacityExceededError(
                f"planted pair at similarity {sim} needs {2 * s - c} distinct tokens, universe has {spec.d}")
        demanded += count * 2 * s
    if spec.n_background is not None:
        demanded += spec.n_background * s_bg
        if demanded > spec.d * spec.max_freq:
            raise CapacityExceededError(
                f"{demanded} token slots demanded, capacity is {spec.d * spec.max_freq}")

    usage = np.zeros(spec.d, dtype=np.int64)
    records: list[np.ndarray] = []
    planted_raw = []  # (record index a, record index b, target sim, realized J)

    for sim, count in spec.planted:
        s = _size_for_similarity(sim, spec.d)
        c = int(round(2.0 * sim * s / (1.0 + sim)))
        extras = s - c
        for _ in range(count):
            pool = np.flatnonzero(usage < spec.max_freq)
            if pool.size < c + 2 * extras:
                raise CapacityExceededError(
                    f"frequency caps bound while planting pairs at similarity {sim}")
            draw = rng.choice(pool, size=c + 2 * extras, replace=False)
            core, ex_a, ex_b = draw[:c], draw[c:c + extras], draw[c + extras:]
            a = np.sort(np.concatenate([core, ex_a]))
            b = np.sort(np.concatenate([core, ex_b]))
            usage[core] += 2
            usage[ex_a] += 1
            usage[ex_b] += 1
            planted_raw.append((len(records), len(records) + 1, sim, c / (2.0 * s - c)))
            records.append(a)
            records.append(b)

    made = 0
    while spec.n_background is None or made < spec.n_background:
        pool = np.flatnonzero(usage < spec.max_freq)
        if pool.size < s_bg:
            if spec.n_background is not None:
                raise CapacityExceededError(
                    f"frequency caps bound after {made} of {spec.n_background} background sets")
            break
        rec = rng.choice(pool, size=s_bg, replace=False)
        usage[rec] += 1
        records.append(np.sort(rec))
        made += 1

    ds, index_map = _build(*_flatten(records), canonical=True, provenance=None)
    planted = []
    for a, b, sim, realized in planted_raw:
        na, nb = int(index_map[a]), int(index_map[b])
        if na < 0 or nb < 0 or na == nb:
            continue
        planted.append((min(na, nb), max(na, nb), sim, realized))
    ds.provenance.update({
        "generator": "tokens",
        "d": spec.d,
        "max_freq": spec.max_freq,
        "background_similarity": spec.background_similarity,
        "background_sets": made,
        "seed": spec.seed,
        "planted": planted,
    })
    return ds
