"""Randomized similarity self-join with adaptive brute-force stops.

Each repetition splits the record set into a tree of buckets, one depth at a
time: a bucket samples signature coordinates independently with probability
min(1, 1/(threshold**k * sig_len)) and partitions its records, for each
sampled coordinate c, by a key of k coordinates, c and k - 1 more drawn from
(bucket seed, c); its non-singleton parts are the buckets of the next depth.
A threshold-similar pair agrees on a key with probability threshold**k, so
it expects one surviving child per bucket at every key width, and meets in a
bucket with probability bounded below; a fixed number of repetitions gives
per-pair recall, and every reported pair is exactly verified, so precision
is 1. The key width k is chosen once per join, before its first repetition,
by costing one root split per width (`choose_key_width`): one coordinate
over a small universe of frequent tokens leaves buckets far above `limit`,
and a wider key cuts them at the root.

Each depth is three batches. Buckets at or below `limit` are compared
pairwise and not split. A pooled sketch summarizes each larger bucket, and
every record whose estimated average similarity to its bucket exceeds
(1 - eps) * threshold is compared against the full bucket and removed (the
point rule); the rest split. Every comparison goes through the join's one
`CandidateKernel`, which the LSH join shares: it filters pairs by record
sizes and by minwise sketches at a cutoff that keeps threshold-similar pairs
except with probability delta, then verifies the survivors exactly.
Repetitions re-find most pairs the earlier ones found, so the kernel
verifies each distinct pair once per join and remembers the outcome.

The join tunes its own repetition count: the kernel counts, for every pair
found so far, the repetitions that found it, and after each one turns the
counts into Chao's capture-recapture estimate of the share of the result set
found (`estimated_recall`). The join is one generator of its steps
(`repetitions`): it yields its key width and budget, then once per
repetition, and ends once some pair has been found and the estimate reaches
`CpsConfig.recall_target`, or after `reps`. `run_repetitions` times and
drives that generator, and the LSH join's, for the joins and for `bench`.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .datasets import Dataset
from .exact import verify_pairs
from .prep import Prepared, check_join_params, preprocess
from .sketch import DEFAULT_DELTA, estimate_rows, filter_threshold, max_hamming, pooled_sketch
from .stats import (JoinStats, concatenated_ranges, decode_pairs, encode_pairs, stable_order,
                    unique_pairs)
from .tabulation import derive_seed, splitmix64, splitmix64_array

_EPS = 1e-9
_REP_TAG = 0x726570
_POOL_TAG = 1
_MASK_TAG = 2
_CHILD_TAG_BASE = 3
_KEY_TAG = 0x6B6579  # streams of the extra key coordinates; past every child tag
_FOLD_MUL = np.uint64(0x9E3779B97F4A7C15)  # odd: the fold's multiply-add constant
_WIDTH_TAG = 0x776964  # the root row `choose_key_width` costs
_WIDTHS = range(1, 5)  # key widths costed; wider ones were not measured
_WIDTH_SAMPLE = 512  # pairs sampled per width to estimate candidates
_PAIR_BLOCK = 2 ** 18  # candidate pairs per block handed to the kernel, and per flush


@dataclass(frozen=True)
class CpsConfig:
    """Parameters of one CPSJoin run.

    `reps` is the repetition budget. The join (`repetitions`) stops after
    the first repetition r >= 2 whose `estimated_recall` reaches
    `recall_target`, once some pair has been found; with None it runs all
    `reps`, as `bench` does when its oracle stops the join. A stopped run is
    exactly the first r repetitions of the run with `reps=r, recall_target=None`.
    The key width is not a field: the join derives it (`choose_key_width`).

    The default target, 0.999, is far above `LshConfig.recall_target`'s 0.9
    because the two measure different things. LSH's target is the
    probability that one pair exactly at the threshold collides in some
    repetition; pairs above the threshold collide more often, so the share of
    the result set LSH finds is well above it. This target is that share
    itself. Over eight seeds of the benchmark workloads, with one-coordinate
    keys and the stop read off the point estimate, a target of 0.99 stopped
    most runs after 2 repetitions and lost up to 1.6% of the `tokens` pairs;
    0.999 stopped them after 3-4 with at most 0.08% lost. With the chosen
    widths (3 on `tokens`, 2 on `clusters`), 0.999 stops both after 3-4
    repetitions (records seeds 21, 7, 1, 2, 3, 33, 4, 5), with at most 0.30%
    of the `tokens` pairs lost: keys of 3 coordinates catch pairs at uneven
    rates, and Chao's estimate then over-reports recall.
    """

    threshold: float
    delta: float = DEFAULT_DELTA
    eps: float = 0.1
    limit: int = 250
    reps: int = 10
    seed: int = 0x5E770
    recall_target: float | None = 0.999

    def __post_init__(self):
        check_join_params(self.threshold, self.delta)
        if not 0.0 <= self.eps <= 1.0:
            raise ValueError("eps must be in [0, 1]")
        if self.limit < 2:
            raise ValueError("limit must be >= 2")
        if self.reps < 1:
            raise ValueError("reps must be >= 1")
        if self.recall_target is not None and not 0.0 < self.recall_target < 1.0:
            raise ValueError("recall_target must be in (0, 1) or None")


def estimated_recall(hits: np.ndarray, reps: int) -> float:
    """Estimated share of the result set found after `reps` repetitions, from
    `hits`, the number of repetitions that found each distinct pair found.

    Chao's incidence-based estimator (Chao 1987, Biometrics 43, "Estimating
    the population size for capture-recapture data with unequal
    catchability") puts the pairs no repetition found at
    f0 = ((r - 1) / r) * Q1^2 / (2 * Q2), or ((r - 1) / r) * Q1 * (Q1 - 1) / 2
    when Q2 = 0, where Q1 and Q2 count the pairs found exactly once and
    exactly twice. The estimate is S / (S + f0) for the S pairs found, and
    1.0 when that is 0/0. One repetition cannot tell a pair that only it
    found from one that every repetition would find, so before r = 2 the
    estimate is NaN, which reaches no target.
    """
    if reps < 2:
        return math.nan
    found = hits.size
    once = int(np.count_nonzero(hits == 1))
    twice = int(np.count_nonzero(hits == 2))
    scale = (reps - 1) / reps
    missed = scale * once * once / (2 * twice) if twice else scale * once * (once - 1) / 2
    return found / (found + missed) if found else 1.0


class CandidateKernel:
    """The step both approximate joins end in, one per join: candidate pairs
    in, verified codes out, each distinct pair verified at most once.

    `run_ranges` and `run_segments` build the pairs of ranges of an id array,
    and hand them to `run` in blocks of at most _PAIR_BLOCK pairs.
    `run(a_ids, b_ids)` counts every pair as a pre-candidate, keeps the pairs
    whose sizes allow the threshold and whose sketch estimate reaches the
    cutoff that loses a threshold-similar pair with probability at most
    delta, and counts those as candidates, duplicates included. It buffers
    their codes. A flush, whenever the buffer reaches _PAIR_BLOCK codes and
    at the end of each repetition, deduplicates the buffer, drops the codes
    this join has already verified (passed or failed), verifies the rest
    exactly and merges them into one sorted array of verified codes, by the
    positions of one searchsorted, which also finds the codes met before.

    Next to each verified code it counts the repetitions that found it,
    0 for a failed pair, and stamps the last repetition that counted it. A
    flush adds one hit to each passed code it meets whose stamp is an
    earlier repetition, so a pair that several flushes of one repetition
    meet counts once; a new pass enters with one hit.
    `end_repetition()` flushes, appends the first-time passes to
    `stats.new_results_per_rep` and the hits' `estimated_recall` to
    `stats.recall_estimate_per_rep`, and returns the sorted codes of the
    pairs the repetition found that pass, new or found before (those
    stamped with it). `codes()` flushes any buffered codes and returns the
    sorted codes of every pair passed so far.

    The sketch cutoff is applied as an integer one: the largest Hamming
    distance whose estimate reaches it (`max_h`). Distances are summed a word
    at a time over `columns`, a word-major (words, n) copy of the sketches,
    so each pair reads one small contiguous array per word.
    """

    __slots__ = ("data", "sketches", "columns", "sizes", "threshold", "max_h", "stats",
                 "_hamming_dtype", "_buffer", "_buffered", "_codes", "_hits", "_stamp",
                 "_rep_new")

    def __init__(self, prep: Prepared, threshold: float, delta: float, stats: JoinStats):
        self.data = prep.data
        self.sketches = prep.sketches
        self.columns = np.ascontiguousarray(prep.sketches.T)
        self.sizes = prep.data.sizes.astype(np.float64)  # exact, and no casts in run()
        self.threshold = threshold
        bits = prep.sketch_bits
        cut = filter_threshold(threshold, prep.sketch_minhashes, delta)
        self.max_h = max_hamming(cut, bits)
        self._hamming_dtype = np.min_scalar_type(bits)  # holds any distance up to bits
        self.stats = stats
        self._buffer = []  # code arrays of candidates not yet flushed
        self._buffered = 0
        self._codes = np.zeros(0, dtype=np.uint64)  # sorted, verified
        self._hits = np.zeros(0, dtype=np.int64)  # repetitions that found each; 0: failed
        self._stamp = np.zeros(0, dtype=np.int64)  # last repetition that counted each
        self._rep_new = 0

    def filter_pairs(self, a_ids: np.ndarray, b_ids: np.ndarray):
        """The (a_ids, b_ids) pairs that pass the size and sketch filters."""
        sa, sb = self.sizes.take(a_ids), self.sizes.take(b_ids)
        keep = self.threshold * np.maximum(sa, sb) <= np.minimum(sa, sb) + _EPS
        a_ids, b_ids = a_ids[keep], b_ids[keep]
        h = np.zeros(a_ids.size, dtype=self._hamming_dtype)
        for col in self.columns:
            x = col.take(a_ids)
            x ^= col.take(b_ids)
            h += np.bitwise_count(x)
        keep = h <= self.max_h
        return a_ids[keep], b_ids[keep]

    def run(self, a_ids: np.ndarray, b_ids: np.ndarray):
        self.stats.pre_candidates += a_ids.size
        a_ids, b_ids = self.filter_pairs(a_ids, b_ids)
        self.stats.candidates += a_ids.size
        if a_ids.size:
            self._buffer.append(encode_pairs(a_ids, b_ids))
            self._buffered += a_ids.size
            if self._buffered >= _PAIR_BLOCK:
                self._flush()

    def run_segments(self, ids: np.ndarray, bounds):
        """Run every i < j pair inside each segment ids[bounds[k]:bounds[k + 1]]."""
        bounds = np.asarray(bounds, dtype=np.int64)
        pos = np.arange(bounds[0], bounds[-1])
        self.run_ranges(ids, pos, pos + 1, np.repeat(bounds[1:], np.diff(bounds)) - pos - 1)

    def run_ranges(self, ids: np.ndarray, rows, lo, counts):
        """Run ids[rows[k]] against each of ids[lo[k]:lo[k] + counts[k]], for
        every k in order, in blocks of at most _PAIR_BLOCK pairs."""
        ends = np.cumsum(counts)
        starts = ends - counts
        heads, shift = ids[rows], lo - starts  # pair p of row k is (heads[k], ids[p + shift[k]])
        total = int(ends[-1]) if ends.size else 0
        for p0 in range(0, total, _PAIR_BLOCK):
            p1 = min(total, p0 + _PAIR_BLOCK)
            # the rows whose pairs overlap [p0, p1), and how many of them each has there
            k0 = int(np.searchsorted(ends, p0, side="right"))
            k1 = int(np.searchsorted(ends, p1, side="left")) + 1
            per_row = np.minimum(ends[k0:k1], p1) - np.maximum(starts[k0:k1], p0)
            self.run(np.repeat(heads[k0:k1], per_row),
                     ids[np.arange(p0, p1) + np.repeat(shift[k0:k1], per_row)])

    def _flush(self):
        codes = unique_pairs(self._buffer)
        self._buffer, self._buffered = [], 0
        rep = len(self.stats.new_results_per_rep)
        at = np.searchsorted(self._codes, codes)
        known = np.zeros(codes.size, dtype=bool)
        if self._codes.size:
            known = self._codes.take(at, mode="clip") == codes
        met = at[known]  # distinct, as the codes are
        met = met[self._hits[met] > 0]
        self._hits[met] += self._stamp[met] != rep
        self._stamp[met] = rep
        at, new = at[~known], codes[~known]
        a, b = decode_pairs(new).T
        ok = verify_pairs(self.data, a, b, self.threshold)
        if new.size:
            self._codes = np.insert(self._codes, at, new)
            self._hits = np.insert(self._hits, at, ok)
            self._stamp = np.insert(self._stamp, at, rep)
        self._rep_new += int(np.count_nonzero(ok))

    def end_repetition(self) -> np.ndarray:
        """Close a repetition; returns the sorted codes of the distinct pairs
        it found that pass, whether first found in it or earlier."""
        self._flush()
        passed = self._hits > 0
        found = self._codes[passed & (self._stamp == len(self.stats.new_results_per_rep))]
        self.stats.new_results_per_rep.append(self._rep_new)
        self._rep_new = 0
        self.stats.recall_estimate_per_rep.append(
            estimated_recall(self._hits[passed], len(self.stats.new_results_per_rep)))
        return found

    def codes(self) -> np.ndarray:
        """Sorted codes of every distinct pair passed so far in the join."""
        if self._buffer:
            self._flush()
        return self._codes[self._hits > 0]


def coordinate_mask(seed, sig_len: int, threshold: float, width: int = 1) -> np.ndarray:
    """Per-node coordinate sample: Bernoulli(min(1, 1/(threshold**width * sig_len))).
    A (k, 1) array of seeds gives one mask row per seed.

    A pair that agrees on a fraction `threshold` of the coordinates agrees on
    a key of `width` independently drawn ones with probability
    threshold**width, so it expects one child per node for as long as
    threshold**width * sig_len >= 1."""
    p = min(1.0, 1.0 / (threshold ** width * sig_len))
    vals = splitmix64_array(seed, np.arange(sig_len, dtype=np.uint64))
    return (vals >> np.uint64(11)).astype(np.float64) * (2.0 ** -53) < p


def brute_force_step(ids: np.ndarray, sizes: np.ndarray, seeds: np.ndarray, cfg: CpsConfig,
                     kernel: CandidateKernel):
    """Apply the point rule to the buckets above the limit, laid end to end
    in `ids` with one size and one seed per bucket; returns the (ids, sizes)
    each bucket keeps for the split.

    A record whose estimate against its bucket's pooled sketch exceeds
    (1 - eps) * threshold runs against the members before it and those after
    it, and is removed, so two removed records are compared, and counted,
    once from each side.
    """
    bucket = np.repeat(np.arange(sizes.size), sizes)
    sk_rows = kernel.sketches[ids]
    pooled = pooled_sketch(sk_rows, splitmix64_array(seeds, _POOL_TAG), sizes)
    removed = estimate_rows(sk_rows, pooled[bucket]) > (1.0 - cfg.eps) * cfg.threshold
    at = np.flatnonzero(removed)
    start = (np.cumsum(sizes) - sizes)[bucket[at]]
    after = start + sizes[bucket[at]] - at - 1
    kernel.run_ranges(ids, np.repeat(at, 2), np.column_stack([start, at + 1]).ravel(),
                      np.column_stack([at - start, after]).ravel())
    kept = ~removed
    return ids[kept], np.bincount(bucket[kept], minlength=sizes.size)


def _split(sig: np.ndarray, threshold: float, ids: np.ndarray, sizes: np.ndarray,
           seeds: np.ndarray, width: int):
    """Split the buckets laid end to end in `ids`, with sizes `sizes` and
    seeds `seeds`, by the records' signatures `sig`, into the next depth's
    (ids, sizes, seeds): each bucket samples coordinates at
    `coordinate_mask`'s rate for `width`, `split_rows` keys one row per
    (bucket, sampled coordinate) under the bucket's seed, and each child's
    seed comes from its row's seed, coordinate and key value."""
    node, coord = np.nonzero(coordinate_mask(
        splitmix64_array(seeds, _MASK_TAG)[:, None], sig.shape[1], threshold, width))
    row_seeds = seeds[node]
    ids, sizes, row, key = split_rows(sig, ids, sizes, row_seeds, node, coord, width)
    return ids, sizes, splitmix64_array(
        splitmix64_array(row_seeds[row], _CHILD_TAG_BASE + coord[row]), key)


def split_rows(sig: np.ndarray, ids: np.ndarray, sizes: np.ndarray, seeds: np.ndarray,
               node: np.ndarray, coord: np.ndarray, width: int):
    """The children, laid end to end as (ids, sizes, rows, keys), of the rows
    (node[r], coord[r], seeds[r]) of the buckets laid end to end in `ids`,
    with sizes `sizes`: row r holds bucket node[r]'s records in order, one
    stable sort by (row, key value) groups them, and each group of two or
    more records is a child, of row `rows[c]` and key value `keys[c]`. The
    children of one row therefore come out in the order a call with that
    row alone gives. Row r's key is `width` coordinates, coord[r] and
    `width - 1` more drawn from (seeds[r], coord[r]) by `_key_coords`,
    folded by `bucket_keys`. Both approximate joins group records by key
    here and nowhere else.
    """
    row_sizes = sizes[node]
    # node[r]'s records, in row r
    ids = ids[concatenated_ranges((np.cumsum(sizes) - sizes)[node], row_sizes)]
    at = ids * sig.shape[1]  # each entry's signature, in the flat signature array
    flat = sig.reshape(-1)
    key = bucket_keys([flat[at + np.repeat(c, row_sizes)]
                       for c in _key_coords(seeds, coord, width, sig.shape[1]).T])
    # key values fit 32 bits, so (row, value) fits one sort key
    key |= np.repeat(np.arange(node.size, dtype=np.uint64) << np.uint64(32), row_sizes)
    order = stable_order(key, 32 + int(node.size - 1).bit_length())
    ids, key = ids[order], key[order]
    first = np.flatnonzero(np.concatenate([[True], key[1:] != key[:-1]]))
    sizes = np.diff(np.append(first, ids.size))
    child = sizes >= 2
    key = key[first[child]]
    return (ids[np.repeat(child, sizes)], sizes[child], (key >> np.uint64(32)).astype(np.intp),
            key & np.uint64(0xFFFFFFFF))


def _key_coords(seeds: np.ndarray, coord: np.ndarray, width: int, sig_len: int) -> np.ndarray:
    """(rows, width) key coordinates: each row's sampled coordinate, then
    `width - 1` drawn uniformly, with replacement, from (its bucket's seed,
    that coordinate). Draws with replacement make a pair that agrees on a
    fraction s of the coordinates agree on the whole key with probability
    exactly s**width, and a key of width k is the key of width k - 1 plus one
    coordinate."""
    if width == 1:
        return coord[:, None]
    stream = splitmix64_array(splitmix64_array(seeds, _KEY_TAG), coord)
    extra = splitmix64_array(stream[:, None], np.arange(width - 1, dtype=np.uint64))
    return np.column_stack([coord, extra % np.uint64(sig_len)]).astype(np.intp)


def bucket_keys(columns) -> np.ndarray:
    """One 32-bit bucket key, as uint64, per entry of the key's 32-bit
    signature value `columns`: the value itself for one column, else the
    high half of a multiply-add fold of them all, where a collision of two
    keys only merges their buckets."""
    out = columns[0].astype(np.uint64)
    if len(columns) == 1:
        return out
    for col in columns[1:]:
        out *= _FOLD_MUL
        out += col
    out *= _FOLD_MUL
    return out >> np.uint64(32)


def choose_key_width(prep: Prepared, cfg: CpsConfig, kernel: CandidateKernel) -> int:
    """The key width the join splits on: the width of `_WIDTHS` of least
    estimated cost per repetition, ties to the smaller. Only widths k with
    threshold**k * sig_len >= 1 are costed, where a threshold-similar pair
    still expects one surviving child per node; width 1 always is. A root at
    or below `limit` never splits, so it gets width 1 uncosted, and so does
    threshold 1: every width then samples one coordinate per node, so a key
    of width k parts a bucket as k successive one-coordinate splits would,
    which also run the point rule and the small-bucket batch between them.

    Each width is costed on one root row, all on the same coordinate c drawn
    from `cfg.seed` (the key of width k is the key of width k - 1 plus one
    coordinate). With P the pairs inside the row's children of 2 to `limit`
    records, C the candidates among them (the share of `_WIDTH_SAMPLE` pairs
    drawn uniformly from those children that pass the kernel's filters,
    times P) and A the records in children above `limit`, the cost in
    pre-candidates is

        R(k) * (P + C / 2 + A * limit / 2 + (0.8 + 0.2 * k) * n),

    where R(k) = min(sig_len, 1 / threshold**k) is the expected number of
    rows the root samples. The weights are costs relative to one
    pre-candidate (size filter and 8-word Hamming sum, 35-55 ns on 2 vCPUs):

    - a candidate costs 0.04-0.55 more to buffer, deduplicate and look up
      once verified, measured on 60 clusters of 100 near-duplicates, and
      0.3-0.7 in place, from `clusters`' repetition times at widths 1 and 2;
    - `_split` costs 0.7-1.3 per (row, record) at width 1, 1.0-1.5 at widths
      2-3 and 1.2-1.7 at width 4 on `gen_uniform(6000, 30, 5000)`: its sort,
      plus one gather and one multiply-add per coordinate;
    - a record in a child above `limit` is split again and ends in buckets
      of at most `limit` records, in about limit / 2 pairs (135 were
      measured per such record and row on `tokens` at width 1).

    The rule picks width 3 on `tokens` and 2 on `clusters` (records seeds 21,
    7, 1, 2, 3, 33, 4, 5). Joins at fixed widths 1-4, medians of 5, measured
    99/50/20/29 ms (seed 21) and 110/70/31/31 ms (seed 7) on `tokens`, and
    43/41/46/56 and 57/54/57/57 ms on `clusters`. Costing takes one sort of
    n keys and one filtered sample per width: 0.8-2 ms on either workload.
    """
    n, sig_len = prep.data.n, prep.sig_len
    widths = [k for k in _WIDTHS if k == 1 or cfg.threshold ** k * sig_len >= 1]
    if n <= cfg.limit or len(widths) == 1 or cfg.threshold == 1.0:
        return 1
    seed = derive_seed(cfg.seed, _WIDTH_TAG)
    root = (np.arange(n, dtype=np.int64), np.array([n]), np.array([seed], dtype=np.uint64),
            np.zeros(1, dtype=np.intp), np.array([splitmix64(seed, 0) % sig_len]))
    uniforms = (splitmix64_array(seed, np.arange(1, 3 * _WIDTH_SAMPLE + 1, dtype=np.uint64))
                >> np.uint64(11)).astype(np.float64) * 2.0 ** -53
    costs = []
    for k in widths:
        ids, sizes, *_ = split_rows(prep.sig, *root, k)
        costs.append(min(sig_len, cfg.threshold ** -k)
                     * _row_cost(kernel, ids, sizes, k, cfg.limit, uniforms))
    return widths[int(np.argmin(costs))]


def _row_cost(kernel: CandidateKernel, ids: np.ndarray, sizes: np.ndarray, width: int,
              limit: int, uniforms: np.ndarray) -> float:
    """`choose_key_width`'s cost, before the factor R(k), of one root row
    keyed on `width` coordinates, from its `split_rows` children."""
    deep = int(sizes[sizes > limit].sum())
    pairs = np.cumsum(np.where(sizes <= limit, sizes * (sizes - 1) // 2, 0))
    total = int(pairs[-1]) if pairs.size else 0
    candidates = 0.0
    if total:
        m = _WIDTH_SAMPLE
        child = np.searchsorted(pairs, np.sort(uniforms[:m]) * total, side="right")
        size, start = sizes[child], (np.cumsum(sizes) - sizes)[child]
        i = (uniforms[m:2 * m] * size).astype(np.int64)
        j = (uniforms[2 * m:] * (size - 1)).astype(np.int64)
        j += j >= i  # the other member, uniform over the rest of the child
        a, _ = kernel.filter_pairs(ids[start + i], ids[start + j])
        candidates = total * a.size / m
    return total + candidates / 2 + deep * limit / 2 + (0.8 + 0.2 * width) * kernel.data.n


def repetition_codes(prep: Prepared, cfg: CpsConfig, rep: int,
                     kernel: CandidateKernel) -> np.ndarray:
    """Run one repetition through the join's kernel; returns the sorted codes
    of the distinct similar pairs it found, new or found before.

    The repetition walks the split tree one depth at a time, with the
    records of every bucket of a depth laid end to end and each bucket's size
    and seed. Each depth is three batches: the buckets at or below `limit`
    compared pairwise, the point rule (`brute_force_step`) over the larger
    ones, and the split of what it keeps into the next depth. Every split
    keys on `JoinStats.key_width`, which the join chose before its first
    repetition (`choose_key_width`, the first step of `repetitions`).
    """
    # Engineering guard far above the expected O(log n / eps) depth: at the
    # cap, what the point rule keeps is compared pairwise instead of split.
    depth_cap = 64 + int(10 * math.log2(prep.data.n + 1))
    width = kernel.stats.key_width
    ids = np.arange(prep.data.n, dtype=np.int64)
    sizes = np.array([ids.size], dtype=np.int64)
    seeds = np.array([splitmix64(derive_seed(cfg.seed, _REP_TAG), rep)], dtype=np.uint64)
    depth = 0
    while sizes.size:
        kernel.stats.max_depth = max(kernel.stats.max_depth, depth)
        small = sizes <= cfg.limit
        in_small = np.repeat(small, sizes)
        kernel.run_segments(ids[in_small], np.concatenate([[0], np.cumsum(sizes[small])]))
        if small.all():
            break
        ids, sizes = brute_force_step(ids[~in_small], sizes[~small], seeds[~small], cfg, kernel)
        if depth >= depth_cap:
            kernel.run_segments(ids, np.concatenate([[0], np.cumsum(sizes)]))
            break
        ids, sizes, seeds = _split(prep.sig, cfg.threshold, ids, sizes, seeds[~small], width)
        depth += 1
    return kernel.end_repetition()


def repetitions(prep: Prepared, cfg: CpsConfig, kernel: CandidateKernel):
    """CPSJoin's steps, which `run_repetitions` drives: yields the key width
    (`choose_key_width`) and budget `cfg.reps`, then once after each
    repetition (`repetition_codes`); ends after the budget, or after the
    first repetition at which some pair has been found and the recall
    estimate reaches `cfg.recall_target` (never if None). With no pair found
    the estimate reads 0/0 as 1.0, which says nothing of the pairs missed,
    so a join that finds none runs its whole budget. Two repetitions miss a
    pair caught in about half of them a quarter of the time: the one result
    pair of the acceptance gate's `uniform` set at 0.5 was found in 34, 40
    and 32 of 60 one-repetition joins at key widths 1, 2 and 3."""
    yield choose_key_width(prep, cfg, kernel), cfg.reps
    stats = kernel.stats
    for rep in range(cfg.reps):
        repetition_codes(prep, cfg, rep, kernel)
        yield
        if (cfg.recall_target is not None and any(stats.new_results_per_rep)
                and stats.recall_estimate_per_rep[-1] >= cfg.recall_target):
            return


def run_repetitions(prep: Prepared, cfg, repetitions, stop=None):
    """Drive a join's generator of steps, `repetitions(prep, cfg, kernel)`
    (`cpsjoin.repetitions`, `lsh.repetitions`), through one kernel, for both
    joins and `bench`. The first step, which yields the (key width, budget),
    is timed into `key_width_s`, each later one, a repetition, into
    `repetition_s`. The join ends with the generator, or after a repetition
    at which the caller's extra `stop(kernel)` holds; returns ((m, 2)
    pairs, JoinStats)."""
    stats = JoinStats()
    t0 = time.perf_counter()
    kernel = CandidateKernel(prep, cfg.threshold, cfg.delta, stats)
    steps = repetitions(prep, cfg, kernel)
    t = time.perf_counter()
    stats.key_width, stats.reps = next(steps)
    stats.key_width_s = time.perf_counter() - t
    t = time.perf_counter()
    for _ in steps:
        stats.repetition_s.append(time.perf_counter() - t)
        if stop is not None and stop(kernel):
            break
        t = time.perf_counter()
    codes = kernel.codes()
    stats.results = codes.size
    stats.join_s = time.perf_counter() - t0
    return decode_pairs(codes), stats


def cps_join_prepared(prep: Prepared, cfg: CpsConfig):
    """Join an already-embedded dataset; returns ((m, 2) pairs, JoinStats)."""
    return run_repetitions(prep, cfg, repetitions)


def cps_join(data: Dataset, cfg: CpsConfig):
    """Embed and sketch a dataset at `preprocess`'s default sizes, then join
    it; returns ((m, 2) pairs, JoinStats)."""
    return cps_join_prepared(preprocess(data, seed=cfg.seed), cfg)


def co_bucket_frequency(sig_a, sig_b, threshold: float, depth: int,
                        trials: int, seed: int = 0, width: int = 1) -> float:
    """Empirical probability that two signatures stay together to `depth`.

    Runs the join's own `_split` at key width `width` on `trials` copies of
    the pair laid end to end, trial t as records 2t and 2t + 1 under its own
    seed, and counts the trials that still hold a bucket after `depth`
    splits. Each bucket holds the pair, and its children are the sampled
    keys on which the signatures agree (the branching-process view).
    """
    sig_a = np.asarray(sig_a)
    sig_b = np.asarray(sig_b)
    if sig_a.shape != sig_b.shape:
        raise ValueError("signature shapes differ")
    sig = np.tile(np.stack([sig_a, sig_b]), (trials, 1))
    ids = np.arange(2 * trials, dtype=np.int64)
    sizes = np.full(trials, 2, dtype=np.int64)
    seeds = splitmix64_array(seed, np.arange(trials, dtype=np.uint64))
    for _ in range(depth):
        ids, sizes, seeds = _split(sig, threshold, ids, sizes, seeds, width)
        trial = ids[::2] // 2  # buckets stay in trial order
        # survival is near certain long before a frontier of 64 buckets dies
        keep = np.arange(trial.size) - np.searchsorted(trial, trial) < 64
        ids, sizes, seeds = ids.reshape(-1, 2)[keep].reshape(-1), sizes[keep], seeds[keep]
    return np.unique(ids // 2).size / trials
