"""Datasets of token sets: canonical form, text IO, and synthetic generators.

Canonical form, assumed by the inverted-index join and handy everywhere else:
no duplicate records, every record has at least two tokens, token ids are
dense in [0, d) and ordered by ascending global frequency (ties by original
id), records sorted by size then lexicographically, tokens sorted within each
record.

Wire format: UTF-8 text, one record per line, space-separated decimal tokens.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import CapacityExceededError, ParseError, TokenOverflowError

_MAX_TOKEN = 0xFFFFFFFF
_BITSET_BYTE_CAP = 512 * 1024 * 1024


class Dataset:
    """Immutable collection of token sets in CSR-like layout."""

    __slots__ = ("tokens", "indptr", "n", "d", "canonical", "provenance",
                 "_token_freq", "_bitset")

    def __init__(self, tokens: np.ndarray, indptr: np.ndarray, d: int,
                 canonical: bool, provenance: dict | None = None):
        self.tokens = tokens
        self.indptr = indptr
        self.n = len(indptr) - 1
        self.d = d
        self.canonical = canonical
        self.provenance = provenance or {}
        self._token_freq = None
        self._bitset = None

    def record(self, i: int) -> np.ndarray:
        return self.tokens[self.indptr[i]:self.indptr[i + 1]]

    def records(self):
        for i in range(self.n):
            yield self.record(i)

    @property
    def token_freq(self) -> np.ndarray:
        """Records holding each id in [0, d), counted on first read."""
        if self._token_freq is None:
            self._token_freq = np.bincount(self.tokens, minlength=self.d)
        return self._token_freq

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

    def bitset(self) -> np.ndarray | None:
        """Packed indicator matrix (n, ceil(d/64)) uint64, or None when the
        universe is too large to justify the memory."""
        if self._bitset is None:
            words = (self.d + 63) >> 6
            if self.n * words * 8 > _BITSET_BYTE_CAP:
                return None
            bits = np.zeros((self.n, words), dtype=np.uint64)
            rows = np.repeat(np.arange(self.n), np.diff(self.indptr))
            cols = (self.tokens >> np.uint32(6)).astype(np.intp)
            vals = np.uint64(1) << (self.tokens.astype(np.uint64) & np.uint64(63))
            np.bitwise_or.at(bits, (rows, cols), vals)
            self._bitset = bits
        return self._bitset

    @staticmethod
    def from_records(records, canonical: bool = True, provenance: dict | None = None) -> "Dataset":
        ds, _ = _build(records, canonical=canonical, provenance=provenance)
        return ds


def _clean_record(raw, where: str) -> np.ndarray:
    arr = np.asarray(raw)
    if arr.size and arr.dtype.kind not in "ui":
        raise ParseError(f"{where}: non-integer token")
    if arr.size and arr.dtype.kind == "i" and int(arr.min()) < 0:
        raise ParseError(f"{where}: negative token")
    if arr.size and int(arr.max()) > _MAX_TOKEN:
        raise TokenOverflowError(f"{where}: token exceeds 32 bits")
    return np.unique(arr.astype(np.uint32))


def _build(records, canonical: bool, provenance: dict | None):
    """Clean records and assemble a Dataset.

    Returns (dataset, index_map) where index_map[i] is the final index of
    input record i, or -1 if it was dropped (too small, or a duplicate whose
    keeper's index is reported instead).
    """
    cleaned: list[np.ndarray] = []
    index_map = np.full(len(records), -1, dtype=np.int64)
    seen: dict[bytes, int] = {}
    for i, raw in enumerate(records):
        rec = _clean_record(raw, f"record {i}")
        if rec.size < 2:
            continue
        key = rec.tobytes()
        slot = seen.get(key)
        if slot is None:
            slot = len(cleaned)
            seen[key] = slot
            cleaned.append(rec)
        index_map[i] = slot

    if not canonical:
        d = int(max((int(r[-1]) for r in cleaned), default=-1)) + 1
        return _assemble(cleaned, d, canonical=False, provenance=provenance), index_map

    if cleaned:
        flat = np.concatenate(cleaned)
        orig_ids, counts = np.unique(flat, return_counts=True)
        # Ascending frequency, ties by original id (lexsort: last key primary).
        rank_order = np.lexsort((orig_ids, counts))
        new_id = np.empty(orig_ids.size, dtype=np.uint32)
        new_id[rank_order] = np.arange(orig_ids.size, dtype=np.uint32)
        remapped = [np.sort(new_id[np.searchsorted(orig_ids, rec)]) for rec in cleaned]
        d = orig_ids.size
    else:
        remapped, d = [], 0

    order = sorted(range(len(remapped)),
                   key=lambda s: (remapped[s].size, remapped[s].astype(">u4").tobytes()))
    final_of_slot = np.empty(len(order), dtype=np.int64)
    for pos, slot in enumerate(order):
        final_of_slot[slot] = pos
    keep = index_map >= 0
    index_map[keep] = final_of_slot[index_map[keep]]

    return _assemble([remapped[s] for s in order], d, canonical=True,
                     provenance=provenance), index_map


def _assemble(records, d, canonical, provenance) -> Dataset:
    indptr = np.zeros(len(records) + 1, dtype=np.int64)
    if records:
        np.cumsum([r.size for r in records], out=indptr[1:])
        tokens = np.concatenate(records).astype(np.uint32)
    else:
        tokens = np.zeros(0, dtype=np.uint32)
    return Dataset(tokens, indptr, d, canonical, provenance)


def load(path) -> Dataset:
    """Read a dataset file and return its canonical form."""
    records = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            parts = line.split()
            rec = []
            for p in parts:
                try:
                    value = int(p, 10)
                except ValueError:
                    raise ParseError(f"{path}:{lineno}: bad token {p!r}") from None
                if value < 0:
                    raise ParseError(f"{path}:{lineno}: negative token {value}")
                if value > _MAX_TOKEN:
                    raise TokenOverflowError(f"{path}:{lineno}: token {value} exceeds 32 bits")
                rec.append(value)
            records.append(np.asarray(rec, dtype=np.uint32))
    ds, _ = _build(records, canonical=True, provenance={"source": str(path)})
    return ds


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
    ds, _ = _build(records, canonical=True, provenance={
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

    ds, index_map = _build(records, canonical=True, provenance=None)
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
