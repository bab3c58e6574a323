"""Randomized similarity self-join with adaptive brute-force stops.

Each repetition splits the record set into a tree of buckets, one depth at a
time: a bucket samples signature coordinates independently with probability
min(1, 1/(threshold * sig_len)) and partitions its records by signature
value on each sampled coordinate; its non-singleton parts are the buckets of
the next depth. Similar records agree on sampled coordinates often enough to
meet in a bucket with probability bounded below, so a fixed number of
repetitions gives per-pair recall; every reported pair is exactly verified,
so precision is 1.

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
found (`estimated_recall`). The join stops once that reaches
`CpsConfig.recall_target`, or after `reps`, in the one repetition loop
(`run_repetitions`) that both approximate joins and `bench` drive.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .datasets import Dataset
from .exact import verify_pairs
from .prep import Prepared, check_join_params, preprocess
from .sketch import estimate_rows, filter_threshold, max_hamming, pooled_sketch
from .stats import JoinStats, decode_pairs, encode_pairs, unique_pairs
from .tabulation import derive_seed, splitmix64, splitmix64_array

_EPS = 1e-9
_REP_TAG = 0x726570
_POOL_TAG = 1
_MASK_TAG = 2
_CHILD_TAG_BASE = 3
_PAIR_BLOCK = 2 ** 18  # candidate pairs per block handed to the kernel, and per flush


@dataclass(frozen=True)
class CpsConfig:
    """Parameters of one CPSJoin run.

    `reps` is the repetition budget. The stop rule `estimate_reaches` ends
    the join after the first repetition r >= 2 whose `estimated_recall`
    reaches `recall_target`; with None it runs all `reps`. A stopped run is
    exactly the first r repetitions of the run with `reps=r, recall_target=None`.

    The default target, 0.999, is far above `LshConfig.recall_target`'s 0.9
    because the two measure different things. LSH's target is the
    probability that one pair exactly at the threshold collides in some
    repetition; pairs above the threshold collide more often, so the share of
    the result set LSH finds is well above it. This target is that share
    itself. Over eight seeds of the benchmark workloads, a target of 0.99
    stopped most runs after 2 repetitions and lost up to 1.6% of the `tokens`
    pairs; 0.999 stopped them after 3-4 with at most 0.08% lost.
    """

    threshold: float
    delta: float = 0.05
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
    exactly and merges the outcomes into two sorted arrays, one of passed and
    one of failed codes.

    Next to each passed code it counts the repetitions that found it and
    stamps the last repetition that counted it. A flush adds one hit to each
    passed code it meets whose stamp is an earlier repetition, from the
    lookup it already makes, so a pair that several flushes of one
    repetition meet counts once; a new pass enters with one hit.
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
                 "_hamming_dtype", "_buffer", "_buffered", "_passed", "_hits", "_stamp",
                 "_failed", "_rep_new")

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
        self._passed = np.zeros(0, dtype=np.uint64)  # sorted, verified similar
        self._hits = np.zeros(0, dtype=np.int64)  # repetitions that found each passed code
        self._stamp = np.zeros(0, dtype=np.int64)  # last repetition that counted each
        self._failed = np.zeros(0, dtype=np.uint64)  # sorted, verified not similar
        self._rep_new = 0

    def run(self, a_ids: np.ndarray, b_ids: np.ndarray):
        self.stats.pre_candidates += a_ids.size
        sa, sb = self.sizes.take(a_ids), self.sizes.take(b_ids)
        keep = self.threshold * np.maximum(sa, sb) <= np.minimum(sa, sb) + _EPS
        a_ids, b_ids = a_ids[keep], b_ids[keep]
        h = np.zeros(a_ids.size, dtype=self._hamming_dtype)
        for col in self.columns:
            x = col.take(a_ids)
            x ^= col.take(b_ids)
            h += np.bitwise_count(x)
        keep = h <= self.max_h
        a_ids, b_ids = a_ids[keep], b_ids[keep]
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
        idx, passed = _lookup(self._passed, codes)
        met = idx[passed]  # distinct, as the codes are
        self._hits[met] += self._stamp[met] != rep
        self._stamp[met] = rep
        fresh = ~(passed | _lookup(self._failed, codes)[1])
        new = codes[fresh]
        a, b = decode_pairs(new).T
        ok = verify_pairs(self.data, a, b, self.threshold)
        new_passed = new[ok]
        if new_passed.size:
            at = np.searchsorted(self._passed, new_passed)
            self._passed = np.insert(self._passed, at, new_passed)
            self._hits = np.insert(self._hits, at, 1)
            self._stamp = np.insert(self._stamp, at, rep)
        self._failed = _insert_sorted(self._failed, new[~ok])
        self._rep_new += new_passed.size

    def end_repetition(self) -> np.ndarray:
        """Close a repetition; returns the sorted codes of the distinct pairs
        it found that pass, whether first found in it or earlier."""
        self._flush()
        found = self._passed[self._stamp == len(self.stats.new_results_per_rep)]
        self.stats.new_results_per_rep.append(self._rep_new)
        self._rep_new = 0
        self.stats.recall_estimate_per_rep.append(
            estimated_recall(self._hits, len(self.stats.new_results_per_rep)))
        return found

    def codes(self) -> np.ndarray:
        """Sorted codes of every distinct pair passed so far in the join."""
        if self._buffer:
            self._flush()
        return self._passed


def _lookup(sorted_codes: np.ndarray, codes: np.ndarray):
    """(index, found): where each of `codes` sits in the sorted array
    `sorted_codes`, and whether it is there."""
    if sorted_codes.size == 0:
        return np.zeros(codes.size, dtype=np.intp), np.zeros(codes.size, dtype=bool)
    idx = np.searchsorted(sorted_codes, codes)
    np.minimum(idx, sorted_codes.size - 1, out=idx)
    return idx, sorted_codes[idx] == codes


def _insert_sorted(sorted_codes: np.ndarray, new: np.ndarray) -> np.ndarray:
    """Merge sorted codes absent from `sorted_codes` into it, keeping it sorted."""
    if new.size == 0:
        return sorted_codes
    return np.insert(sorted_codes, np.searchsorted(sorted_codes, new), new)


def coordinate_mask(seed, sig_len: int, threshold: float) -> np.ndarray:
    """Per-node coordinate sample: Bernoulli(min(1, 1/(threshold*sig_len))).
    A (k, 1) array of seeds gives one mask row per seed."""
    p = min(1.0, 1.0 / (threshold * sig_len))
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
           seeds: np.ndarray):
    """Split the buckets laid end to end in `ids`, with sizes `sizes` and
    seeds `seeds`, by the records' signatures `sig`, into the next depth's
    (ids, sizes, seeds): one row per (bucket, sampled coordinate) holds the
    bucket's records in order, one stable sort by (row, signature value)
    groups them, and each group of two or more records is a child."""
    node, coord = np.nonzero(coordinate_mask(
        splitmix64_array(seeds, _MASK_TAG)[:, None], sig.shape[1], threshold))
    row_sizes = sizes[node]
    row = np.repeat(np.arange(node.size, dtype=np.uint64), row_sizes)
    shift = (np.cumsum(sizes) - sizes)[node] - (np.cumsum(row_sizes) - row_sizes)
    ids = ids[np.arange(row.size) + shift[row]]  # bucket node[r]'s records, in row r
    # signature values are 32-bit tokens, so (row, value) fits one sort key
    key = (row << np.uint64(32)) | sig[ids, coord[row]].astype(np.uint64)
    order = np.argsort(key, kind="stable")
    ids, key = ids[order], key[order]
    first = np.flatnonzero(np.concatenate([[True], key[1:] != key[:-1]]))
    sizes = np.diff(np.append(first, ids.size))
    child = sizes >= 2
    first = first[child]
    child_row = key[first] >> np.uint64(32)
    child_seeds = splitmix64_array(
        splitmix64_array(seeds[node[child_row]], _CHILD_TAG_BASE + coord[child_row]),
        key[first] & np.uint64(0xFFFFFFFF))
    return ids[np.repeat(child, sizes)], sizes[child], child_seeds


def repetition_codes(prep: Prepared, cfg: CpsConfig, rep: int,
                     kernel: CandidateKernel) -> np.ndarray:
    """Run one repetition through the join's kernel; returns the sorted codes
    of the distinct similar pairs it found, new or found before.

    The repetition walks the split tree one depth at a time, with the
    records of every bucket of a depth laid end to end and each bucket's size
    and seed. Each depth is three batches: the buckets at or below `limit`
    compared pairwise, the point rule (`brute_force_step`) over the larger
    ones, and the split of what it keeps into the next depth.
    """
    # Engineering guard far above the expected O(log n / eps) depth: at the
    # cap, what the point rule keeps is compared pairwise instead of split.
    depth_cap = 64 + int(10 * math.log2(prep.data.n + 1))
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
        ids, sizes, seeds = _split(prep.sig, cfg.threshold, ids, sizes, seeds[~small])
        depth += 1
    return kernel.end_repetition()


def run_repetitions(prep: Prepared, cfg, reps: int, one_repetition, stop):
    """Run `one_repetition(rep, kernel)` through one kernel until `stop(kernel)`
    holds after one, or `reps` times, timing each call into `repetition_s`;
    returns ((m, 2) pairs, JoinStats) of both approximate joins and `bench`."""
    stats = JoinStats(preprocess_s=prep.elapsed_s)
    t0 = time.perf_counter()
    kernel = CandidateKernel(prep, cfg.threshold, cfg.delta, stats)
    for rep in range(reps):
        t = time.perf_counter()
        one_repetition(rep, kernel)
        stats.repetition_s.append(time.perf_counter() - t)
        if stop(kernel):
            break
    codes = kernel.codes()
    stats.results = codes.size
    stats.join_s = time.perf_counter() - t0
    return decode_pairs(codes), stats


def estimate_reaches(target: float | None):
    """CPSJoin's stop rule: the recall estimate reaches `target` (never if None)."""
    return lambda kernel: target is not None and kernel.stats.recall_estimate_per_rep[-1] >= target


def cps_join_prepared(prep: Prepared, cfg: CpsConfig):
    """Join an already-embedded dataset until `estimate_reaches(cfg.recall_target)`
    or after `cfg.reps` repetitions; returns ((m, 2) pairs, JoinStats)."""
    return run_repetitions(prep, cfg, cfg.reps,
                           lambda rep, kernel: repetition_codes(prep, cfg, rep, kernel),
                           estimate_reaches(cfg.recall_target))


def cps_join(data: Dataset, cfg: CpsConfig):
    """Embed and sketch a dataset at `preprocess`'s default sizes, then join
    it; returns ((m, 2) pairs, JoinStats)."""
    return cps_join_prepared(preprocess(data, seed=cfg.seed), cfg)


def co_bucket_frequency(sig_a, sig_b, threshold: float, depth: int,
                        trials: int, seed: int = 0) -> float:
    """Empirical probability that two signatures stay together to `depth`.

    Runs the join's own `_split` on `trials` copies of the pair laid end to
    end, trial t as records 2t and 2t + 1 under its own seed, and counts the
    trials that still hold a bucket after `depth` splits. Each bucket holds
    the pair, and its children are the sampled coordinates on which the
    signatures agree (the branching-process view).
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
        ids, sizes, seeds = _split(sig, threshold, ids, sizes, seeds)
        trial = ids[::2] // 2  # buckets stay in trial order
        # survival is near certain long before a frontier of 64 buckets dies
        keep = np.arange(trial.size) - np.searchsorted(trial, trial) < 64
        ids, sizes, seeds = ids.reshape(-1, 2)[keep].reshape(-1), sizes[keep], seeds[keep]
    return np.unique(ids // 2).size / trials
