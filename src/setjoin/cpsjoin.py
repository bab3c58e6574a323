"""Randomized recursive similarity self-join with adaptive brute-force stops.

Each repetition recursively splits the record set: a node samples signature
coordinates independently with probability min(1, 1/(threshold * sig_len)) and
partitions its records by signature value on each sampled coordinate,
recursing on non-singleton children. Similar records agree on sampled
coordinates often enough to meet in a node with probability bounded below, so
a fixed number of repetitions gives per-pair recall; every reported pair is
exactly verified, so precision is 1.

Before splitting, a node removes records that look similar to the whole
bucket: a pooled sketch summarizes the bucket, every record whose estimated
average similarity exceeds (1 - eps) * threshold is compared against the full
bucket directly, and buckets at or below `limit` are compared pairwise and not
split at all. Every comparison goes through the join's one `CandidateKernel`,
which the LSH join shares: it filters pairs by record sizes and by 1-bit
sketches at a cutoff that keeps threshold-similar pairs except with
probability delta, then verifies the survivors exactly. Repetitions re-find
most pairs the earlier ones found, so the kernel verifies each distinct pair
once per join and remembers the outcome. The children of one split that are
small enough to be compared pairwise go through the kernel in one batch.

The join tunes its own repetition count: after each repetition it counts, for
every distinct pair found so far, the repetitions that found it, and stops
once Chao's capture-recapture estimate of the share of the result set found
(`estimated_recall`) reaches `CpsConfig.recall_target`, or after `reps`.
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

    `reps` is the repetition budget. The join stops after the first
    repetition r >= 2 whose `estimated_recall` reaches `recall_target`, and
    `recall_target=None` runs all `reps`. A stopped run is exactly the first
    r repetitions of the run with `reps=r, recall_target=None`.

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


class Incidence:
    """How many repetitions found each distinct pair, for `estimated_recall`."""

    __slots__ = ("codes", "hits", "reps")

    def __init__(self):
        self.codes = np.zeros(0, dtype=np.uint64)  # sorted codes of the pairs found
        self.hits = np.zeros(0, dtype=np.int64)  # repetitions that found each
        self.reps = 0

    def add(self, codes: np.ndarray) -> float:
        """Count in one repetition's sorted distinct pair codes; returns the
        estimated recall after it."""
        merged = np.concatenate([self.codes, codes])
        order = np.argsort(merged, kind="stable")  # merges the two sorted runs
        merged = merged[order]
        hits = np.concatenate([self.hits, np.ones(codes.size, dtype=np.int64)])[order]
        # a code found before sits just ahead of its copy from this repetition
        again = merged[1:] == merged[:-1]
        hits[:-1] += again
        keep = np.ones(merged.size, dtype=bool)
        np.logical_not(again, out=keep[1:])
        self.codes, self.hits = merged[keep], hits[keep]
        self.reps += 1
        return estimated_recall(self.hits, self.reps)


class CandidateKernel:
    """The step both approximate joins end in, one per join: candidate pairs
    in, verified codes out, each distinct pair verified at most once.

    `run(a_ids, b_ids)` counts every pair as a pre-candidate, keeps the pairs
    whose sizes allow the threshold and whose sketch estimate reaches the
    cutoff that loses a threshold-similar pair with probability at most
    delta, and counts those as candidates, duplicates included. It buffers
    their codes. A flush, whenever the buffer reaches _PAIR_BLOCK codes and
    at the end of each repetition, deduplicates the buffer, drops the codes
    this join has already verified (passed or failed), verifies the rest
    exactly and merges the outcomes into two sorted arrays, one of passed and
    one of failed codes.

    `end_repetition()` flushes, appends the repetition's first-time passes to
    `stats.new_results_per_rep` and returns the sorted codes of every pair
    the repetition found that passes, whether new or found before.
    `codes()` flushes and returns the sorted codes of every pair passed so
    far in the join.

    The sketch cutoff is applied as an integer one: the largest Hamming
    distance whose estimate reaches it (`max_h`). Distances are summed a word
    at a time over `columns`, a word-major (words, n) copy of the sketches,
    so each pair reads one small contiguous array per word.
    """

    __slots__ = ("data", "sketches", "columns", "sizes", "threshold", "max_h", "stats",
                 "_hamming_dtype", "_buffer", "_buffered", "_passed", "_failed",
                 "_rep_passed", "_rep_new")

    def __init__(self, prep: Prepared, threshold: float, delta: float, stats: JoinStats):
        self.data = prep.data
        self.sketches = prep.sketches
        self.columns = np.ascontiguousarray(prep.sketches.T)
        self.sizes = prep.data.sizes.astype(np.float64)  # exact, and no casts in run()
        self.threshold = threshold
        bits = prep.sketch_bits
        self.max_h = max_hamming(filter_threshold(threshold, bits, delta), bits)
        self._hamming_dtype = np.min_scalar_type(bits)  # holds any distance up to bits
        self.stats = stats
        self._buffer = []  # code arrays of candidates not yet flushed
        self._buffered = 0
        self._passed = np.zeros(0, dtype=np.uint64)  # sorted, verified similar
        self._failed = np.zeros(0, dtype=np.uint64)  # sorted, verified not similar
        self._rep_passed = []  # per flush of this repetition, its candidates that pass
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
        for a, b in segment_pairs(ids, bounds):
            self.run(a, b)

    def _flush(self):
        if not self._buffer:
            return
        codes = unique_pairs(self._buffer)
        self._buffer, self._buffered = [], 0
        passed = _members(self._passed, codes)
        fresh = ~(passed | _members(self._failed, codes))
        new = codes[fresh]
        a, b = decode_pairs(new).T
        ok = verify_pairs(self.data, a, b, self.threshold)
        passed[fresh] = ok
        self._passed = _insert_sorted(self._passed, new[ok])
        self._failed = _insert_sorted(self._failed, new[~ok])
        self._rep_passed.append(codes[passed])
        self._rep_new += int(np.count_nonzero(ok))

    def end_repetition(self) -> np.ndarray:
        """Close a repetition; returns the sorted codes of the distinct pairs
        it found that pass, whether first found in it or earlier."""
        self._flush()
        parts, self._rep_passed = self._rep_passed, []
        self.stats.new_results_per_rep.append(self._rep_new)
        self._rep_new = 0
        return parts[0] if len(parts) == 1 else unique_pairs(parts)

    def codes(self) -> np.ndarray:
        """Sorted codes of every distinct pair passed so far in the join."""
        self._flush()
        return self._passed


def _members(sorted_codes: np.ndarray, codes: np.ndarray) -> np.ndarray:
    """Which of `codes` occur in the sorted array `sorted_codes`."""
    if sorted_codes.size == 0:
        return np.zeros(codes.size, dtype=bool)
    idx = np.searchsorted(sorted_codes, codes)
    np.minimum(idx, sorted_codes.size - 1, out=idx)
    return sorted_codes[idx] == codes


def _insert_sorted(sorted_codes: np.ndarray, new: np.ndarray) -> np.ndarray:
    """Merge sorted codes absent from `sorted_codes` into it, keeping it sorted."""
    if new.size == 0:
        return sorted_codes
    return np.insert(sorted_codes, np.searchsorted(sorted_codes, new), new)


def segment_pairs(ids: np.ndarray, bounds):
    """Every i < j pair inside each segment ids[bounds[k]:bounds[k + 1]].

    Yields (a, b) id arrays of at most _PAIR_BLOCK pairs each; `a` holds the
    member that comes first in `ids`.
    """
    bounds = np.asarray(bounds, dtype=np.int64)
    pos = np.arange(bounds[0], bounds[-1])
    later = np.repeat(bounds[1:], np.diff(bounds)) - pos - 1  # partners after each position
    ends = np.cumsum(later)  # pair index one past each position's last pair
    total = int(ends[-1]) if ends.size else 0
    for p0 in range(0, total, _PAIR_BLOCK):
        p1 = min(total, p0 + _PAIR_BLOCK)
        # positions whose pairs overlap [p0, p1)
        r0 = int(np.searchsorted(ends, p0, side="right"))
        r1 = int(np.searchsorted(ends, p1, side="left")) + 1
        counts = later[r0:r1]
        first = ends[r0:r1] - counts
        a = np.repeat(pos[r0:r1], counts)
        b = a + 1 + np.arange(first[0], first[0] + a.size) - np.repeat(first, counts)
        lo = p0 - int(first[0])
        hi = lo + p1 - p0
        yield ids[a[lo:hi]], ids[b[lo:hi]]


class _Ctx:
    __slots__ = ("kernel", "sig", "threshold", "eps", "limit", "sig_len", "stats", "depth_cap")

    def __init__(self, prep: Prepared, cfg: CpsConfig, kernel: CandidateKernel):
        self.kernel = kernel
        self.sig = prep.sig
        self.threshold = cfg.threshold
        self.eps = cfg.eps
        self.limit = cfg.limit
        self.sig_len = prep.sig_len
        self.stats = kernel.stats
        # Engineering guard far above the expected O(log n / eps) depth; a
        # stuck bucket gets brute-forced instead of recursing forever.
        self.depth_cap = 64 + int(10 * math.log2(prep.data.n + 1))


def coordinate_mask(seed, sig_len: int, threshold: float) -> np.ndarray:
    """Per-node coordinate sample: Bernoulli(min(1, 1/(threshold*sig_len))).
    A (k, 1) array of seeds gives one mask row per seed."""
    p = min(1.0, 1.0 / (threshold * sig_len))
    vals = splitmix64_array(seed, np.arange(sig_len, dtype=np.uint64))
    return (vals >> np.uint64(11)).astype(np.float64) * (2.0 ** -53) < p


def brute_force_step(ids: np.ndarray, node_seed: int, ctx: _Ctx) -> np.ndarray:
    """Handle a bucket's brute-force work; return the records that recurse on.

    Buckets at or below the limit are compared pairwise and consumed. Larger
    buckets are summarized by one pooled sketch; records whose estimated
    average similarity to the bucket exceeds (1 - eps) * threshold are
    compared against the full bucket and removed, all in a single pass.
    """
    if ids.size == 0:
        return ids
    if ids.size <= ctx.limit:
        ctx.kernel.run_segments(ids, [0, ids.size])
        return ids[:0]
    sk_rows = ctx.kernel.sketches[ids]
    pooled = pooled_sketch(sk_rows, derive_seed(node_seed, _POOL_TAG))
    est = estimate_rows(sk_rows, pooled)
    removed = est > (1.0 - ctx.eps) * ctx.threshold
    if removed.any():
        # each removed record against every other member, so a pair of two
        # removed records is compared (and counted) once from each side
        points = ids[removed]
        step = max(1, _PAIR_BLOCK // ids.size)
        for r0 in range(0, points.size, step):
            x = points[r0:r0 + step]
            a = np.repeat(x, ids.size)
            b = np.tile(ids, x.size)
            other = a != b
            ctx.kernel.run(a[other], b[other])
        ids = ids[~removed]
    return ids


def _recurse(ids: np.ndarray, node_seed: int, depth: int, ctx: _Ctx):
    if depth > ctx.stats.max_depth:
        ctx.stats.max_depth = depth
    ids = brute_force_step(ids, node_seed, ctx)
    if ids.size < 2:
        return
    if depth >= ctx.depth_cap:
        ctx.kernel.run_segments(ids, [0, ids.size])
        return
    mask = coordinate_mask(derive_seed(node_seed, _MASK_TAG), ctx.sig_len, ctx.threshold)
    for coord in np.flatnonzero(mask):
        vals = ctx.sig[ids, coord]
        order = np.argsort(vals, kind="stable")
        sv = vals[order]
        cuts = np.flatnonzero(sv[1:] != sv[:-1]) + 1
        bounds = np.concatenate([[0], cuts, [sv.size]])
        sizes = np.diff(bounds)
        # Children at or below the limit would only be compared pairwise at
        # depth + 1, so all of them go through the kernel together.
        small = (sizes >= 2) & (sizes <= ctx.limit)
        if small.any():
            ctx.stats.max_depth = max(ctx.stats.max_depth, depth + 1)
            ctx.kernel.run_segments(ids[order[np.repeat(small, sizes)]],
                                    np.concatenate([[0], np.cumsum(sizes[small])]))
        for k in np.flatnonzero(sizes > ctx.limit):
            a, b = bounds[k], bounds[k + 1]
            child_seed = splitmix64(
                splitmix64(node_seed, _CHILD_TAG_BASE + int(coord)), int(sv[a]))
            _recurse(ids[order[a:b]], child_seed, depth + 1, ctx)


def repetition_codes(prep: Prepared, cfg: CpsConfig, rep: int,
                     kernel: CandidateKernel) -> np.ndarray:
    """Run one repetition through the join's kernel; returns the sorted codes
    of the distinct similar pairs it found, new or found before."""
    ctx = _Ctx(prep, cfg, kernel)
    rep_seed = splitmix64(derive_seed(cfg.seed, _REP_TAG), rep)
    ids = np.arange(prep.data.n, dtype=np.int64)
    _recurse(ids, rep_seed, 0, ctx)
    return kernel.end_repetition()


def cps_join_prepared(prep: Prepared, cfg: CpsConfig):
    """Join an already-embedded dataset; returns ((m, 2) pairs, JoinStats).

    Runs repetitions until the estimated recall after one reaches
    `cfg.recall_target`, or `cfg.reps` of them.
    """
    stats = JoinStats(preprocess_s=prep.elapsed_s)
    t0 = time.perf_counter()
    kernel = CandidateKernel(prep, cfg.threshold, cfg.delta, stats)
    incidence = Incidence()
    for rep in range(cfg.reps):
        estimate = incidence.add(repetition_codes(prep, cfg, rep, kernel))
        stats.recall_estimate_per_rep.append(estimate)
        if cfg.recall_target is not None and estimate >= cfg.recall_target:
            break
    codes = kernel.codes()
    stats.results = codes.size
    stats.join_s = time.perf_counter() - t0
    return decode_pairs(codes), stats


def cps_join(data: Dataset, cfg: CpsConfig):
    """Embed and sketch a dataset at `preprocess`'s default sizes, then join
    it; returns ((m, 2) pairs, JoinStats)."""
    return cps_join_prepared(preprocess(data, seed=cfg.seed), cfg)


def co_bucket_frequency(sig_a, sig_b, threshold: float, depth: int,
                        trials: int, seed: int = 0) -> float:
    """Empirical probability that two signatures stay together to `depth`.

    Simulates the recursive split on a pair with fresh coordinate samples per
    node (the production sampling rule), counting trials where some depth-k
    node still contains both records. Mirrors the branching-process view: a
    node's offspring are the sampled coordinates on which the signatures
    agree, since equal values land in the same child and unequal values make
    both children singletons.
    """
    sig_a = np.asarray(sig_a)
    sig_b = np.asarray(sig_b)
    if sig_a.shape != sig_b.shape:
        raise ValueError("signature shapes differ")
    sig_len = sig_a.size
    agree_idx = np.flatnonzero(sig_a == sig_b)
    cap = 64  # survival is near certain long before a frontier this wide dies
    chunk = 2 ** 16
    alive = np.ones(trials, dtype=np.int64)
    level_seed = seed
    for level in range(depth):
        level_seed = splitmix64(level_seed, 0xD0 + level)
        total = int(alive.sum())
        if total == 0:
            break
        # One production-style coordinate mask per live node; offspring are
        # the sampled coordinates on which the signatures agree.
        offspring = np.empty(total, dtype=np.int64)
        for c0 in range(0, total, chunk):
            c1 = min(total, c0 + chunk)
            node_seeds = splitmix64_array(level_seed, np.arange(c0, c1, dtype=np.uint64))
            mask = coordinate_mask(node_seeds[:, None], sig_len, threshold)
            offspring[c0:c1] = mask[:, agree_idx].sum(axis=1)
        trial_of_node = np.repeat(np.arange(trials), alive)
        sums = np.bincount(trial_of_node, weights=offspring, minlength=trials)
        alive = np.minimum(sums.astype(np.int64), cap)
    return float(np.count_nonzero(alive)) / trials
