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
split at all. Every comparison goes through `CandidateKernel`, which the LSH
join shares: it filters pairs by record sizes and by 1-bit sketches at a
cutoff that keeps threshold-similar pairs except with probability delta, then
verifies the survivors exactly. The children of one split that are small
enough to be compared pairwise go through the kernel in one batch.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .datasets import Dataset
from .exact import verify_pairs
from .prep import Prepared, check_join_params, preprocess
from .sketch import estimate_rows, filter_threshold, pooled_sketch
from .stats import JoinStats, decode_pairs, encode_pairs, unique_pairs
from .tabulation import derive_seed, splitmix64, splitmix64_array

_EPS = 1e-9
_REP_TAG = 0x726570
_POOL_TAG = 1
_MASK_TAG = 2
_CHILD_TAG_BASE = 3
_PAIR_BLOCK = 2 ** 18  # candidate pairs per block handed to the kernel
_VERIFY_BLOCK = 4096  # pairs per verify_pairs call, so gathered bitset rows stay cache-sized


@dataclass(frozen=True)
class CpsConfig:
    threshold: float
    sig_len: int = 128
    sketch_words: int = 8
    delta: float = 0.05
    eps: float = 0.1
    limit: int = 250
    reps: int = 10
    seed: int = 0x5E770

    def __post_init__(self):
        check_join_params(self.threshold, self.sig_len, self.sketch_words, self.delta)
        if not 0.0 <= self.eps <= 1.0:
            raise ValueError("eps must be in [0, 1]")
        if self.limit < 2:
            raise ValueError("limit must be >= 2")
        if self.reps < 1:
            raise ValueError("reps must be >= 1")


class CandidateKernel:
    """The step both approximate joins end in: candidate pairs in, verified codes out.

    `run(a_ids, b_ids)` counts every pair as a pre-candidate, keeps the pairs
    whose sizes allow the threshold and whose sketch estimate reaches the
    cutoff that loses a threshold-similar pair with probability at most
    delta, counts those as candidates, verifies them exactly and keeps the
    codes of the pairs that pass. `codes()` returns everything kept so far.
    """

    __slots__ = ("data", "sketches", "sizes", "threshold", "filter_cut", "stats", "_codes")

    def __init__(self, prep: Prepared, threshold: float, delta: float, stats: JoinStats):
        self.data = prep.data
        self.sketches = prep.sketches
        self.sizes = prep.data.sizes.astype(np.int64)
        self.threshold = threshold
        self.filter_cut = filter_threshold(threshold, prep.sketch_bits, delta)
        self.stats = stats
        self._codes = []

    def run(self, a_ids: np.ndarray, b_ids: np.ndarray):
        self.stats.pre_candidates += a_ids.size
        sa, sb = self.sizes[a_ids], self.sizes[b_ids]
        keep = self.threshold * np.maximum(sa, sb) <= np.minimum(sa, sb) + _EPS
        a_ids, b_ids = a_ids[keep], b_ids[keep]
        keep = estimate_rows(self.sketches[a_ids], self.sketches[b_ids]) >= self.filter_cut
        a_ids, b_ids = a_ids[keep], b_ids[keep]
        self.stats.candidates += a_ids.size
        for v0 in range(0, a_ids.size, _VERIFY_BLOCK):
            a = a_ids[v0:v0 + _VERIFY_BLOCK]
            b = b_ids[v0:v0 + _VERIFY_BLOCK]
            ok = verify_pairs(self.data, a, b, self.threshold)
            if ok.any():
                self._codes.append(encode_pairs(a[ok], b[ok]))

    def run_segments(self, ids: np.ndarray, bounds):
        """Run every i < j pair inside each segment ids[bounds[k]:bounds[k + 1]]."""
        for a, b in segment_pairs(ids, bounds):
            self.run(a, b)

    def codes(self) -> np.ndarray:
        """Codes of every verified pair, duplicates included."""
        return np.concatenate(self._codes) if self._codes else np.zeros(0, dtype=np.uint64)


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

    def __init__(self, prep: Prepared, cfg: CpsConfig, stats: JoinStats):
        self.kernel = CandidateKernel(prep, cfg.threshold, cfg.delta, stats)
        self.sig = prep.sig
        self.threshold = cfg.threshold
        self.eps = cfg.eps
        self.limit = cfg.limit
        self.sig_len = cfg.sig_len
        self.stats = stats
        # Engineering guard far above the expected O(log n / eps) depth; a
        # stuck bucket gets brute-forced instead of recursing forever.
        self.depth_cap = 64 + int(10 * math.log2(prep.data.n + 1))


def coordinate_mask(seed: int, sig_len: int, threshold: float) -> np.ndarray:
    """Per-node coordinate sample: Bernoulli(min(1, 1/(threshold*sig_len)))."""
    p = min(1.0, 1.0 / (threshold * sig_len))
    u = _uniforms(seed, sig_len)
    return u < p


def _uniforms(seed: int, count: int) -> np.ndarray:
    vals = splitmix64_array(seed, np.arange(count, dtype=np.uint64))
    return (vals >> np.uint64(11)).astype(np.float64) * (2.0 ** -53)


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


def repetition_codes(prep: Prepared, cfg: CpsConfig, rep: int, stats: JoinStats) -> np.ndarray:
    """Run one repetition; returns raw (possibly duplicated) pair codes."""
    ctx = _Ctx(prep, cfg, stats)
    rep_seed = splitmix64(derive_seed(cfg.seed, _REP_TAG), rep)
    ids = np.arange(prep.data.n, dtype=np.int64)
    _recurse(ids, rep_seed, 0, ctx)
    return ctx.kernel.codes()


def cps_join_prepared(prep: Prepared, cfg: CpsConfig):
    """Join an already-embedded dataset; returns ((m, 2) pairs, JoinStats)."""
    prep.check_dimensions(cfg.sig_len, cfg.sketch_words)
    stats = JoinStats(preprocess_s=prep.elapsed_s)
    t0 = time.perf_counter()
    chunks = [repetition_codes(prep, cfg, rep, stats) for rep in range(cfg.reps)]
    merged = unique_pairs(chunks)
    stats.results = merged.size
    stats.join_s = time.perf_counter() - t0
    return decode_pairs(merged), stats


def cps_join(data: Dataset, cfg: CpsConfig):
    """Embed, sketch, and join a dataset; returns ((m, 2) pairs, JoinStats)."""
    prep = preprocess(data, cfg.sig_len, cfg.sketch_words, cfg.seed)
    return cps_join_prepared(prep, cfg)


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
    p = min(1.0, 1.0 / (threshold * sig_len))
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
            u = (splitmix64_array(node_seeds[:, None],
                                  np.arange(sig_len, dtype=np.uint64)[None, :])
                 >> np.uint64(11)).astype(np.float64) * (2.0 ** -53)
            offspring[c0:c1] = (u[:, agree_idx] < p).sum(axis=1)
        trial_of_node = np.repeat(np.arange(trials), alive)
        sums = np.bincount(trial_of_node, weights=offspring, minlength=trials)
        alive = np.minimum(sums.astype(np.int64), cap)
    return float(np.count_nonzero(alive)) / trials
