"""Exact joins: the all-pairs brute-force oracle and prefix-filtered AllPairs.

Both report exactly the pairs with Jaccard similarity >= threshold. The
brute-force join computes intersection counts for every pair through a dense
or sparse matrix product; AllPairs probes an inverted index over prefix
tokens, built and probed as whole-array passes (sort, searchsorted, blocked
pair dedup) rather than record by record. One float predicate (float64
intersection/union >= threshold) decides membership everywhere, so the two
routes agree bit-for-bit.

All cheap pruning bounds carry a 1e-9 slack in the keep direction: float
rounding can only add candidates, never drop a true pair.
"""

from __future__ import annotations

import math
import time

import numpy as np

from .datasets import Dataset
from .errors import CanonicalOrderError
from .stats import JoinStats, decode_pairs, encode_pairs, unique_pairs

_EPS = 1e-9
_DENSE_CELL_CAP = 2 ** 26  # n*d above this switches the oracle to sparse blocks
_BLOCK_CELLS = 2 ** 23  # target cells per intersection-count block
_PAIR_BLOCK = 2 ** 18  # AllPairs (j, i) pairs built per block, unless one record has more
_VERIFY_BLOCK = 4096  # pairs per popcount block, so gathered bitset rows stay cache-sized


def jaccard(x, y) -> float:
    """Exact Jaccard similarity of two sorted unique token arrays."""
    x = np.asarray(x)
    y = np.asarray(y)
    c = np.intersect1d(x, y, assume_unique=True).size
    union = x.size + y.size - c
    if union == 0:
        return 1.0
    return c / union


def min_overlap(threshold: float, size_a: int, size_b: int) -> int:
    """Smallest intersection size compatible with J >= threshold."""
    return max(1, math.ceil(threshold / (1.0 + threshold) * (size_a + size_b) - _EPS))


def prefix_length(threshold: float, size: int) -> int:
    """Tokens of a record that must be probed/indexed for completeness."""
    return size - math.ceil(threshold * size - _EPS) + 1


def verify(x, y, threshold: float) -> bool:
    """Merge-based exact check of J(x, y) >= threshold.

    Walks both sorted arrays, bailing out as soon as the remaining possible
    overlap cannot reach the minimum required overlap.
    """
    xs = np.asarray(x).tolist()
    ys = np.asarray(y).tolist()
    sa, sb = len(xs), len(ys)
    need = min_overlap(threshold, sa, sb)
    if need > min(sa, sb):
        return False
    i = j = c = 0
    while i < sa and j < sb:
        if c + min(sa - i, sb - j) < need:
            return False
        xi, yj = xs[i], ys[j]
        if xi == yj:
            c += 1
            i += 1
            j += 1
        elif xi < yj:
            i += 1
        else:
            j += 1
    union = sa + sb - c
    return c / union >= threshold


def verify_pairs(data: Dataset, a_ids, b_ids, threshold: float) -> np.ndarray:
    """Vectorized exact check for batches of candidate pairs.

    Uses packed-bitset popcounts, `_VERIFY_BLOCK` pairs at a time, when the
    universe is small enough, otherwise falls back to the per-pair merge. Same
    predicate either way.
    """
    a_ids = np.asarray(a_ids, dtype=np.int64)
    b_ids = np.asarray(b_ids, dtype=np.int64)
    bits = data.bitset()
    sizes = data.sizes
    out = np.empty(a_ids.size, dtype=bool)
    if bits is None:
        for k in range(a_ids.size):
            out[k] = verify(data.record(int(a_ids[k])), data.record(int(b_ids[k])), threshold)
        return out
    for v0 in range(0, a_ids.size, _VERIFY_BLOCK):
        a, b = a_ids[v0:v0 + _VERIFY_BLOCK], b_ids[v0:v0 + _VERIFY_BLOCK]
        c = np.bitwise_count(bits[a] & bits[b]).sum(axis=1, dtype=np.int64)
        out[v0:v0 + _VERIFY_BLOCK] = c / (sizes[a] + sizes[b] - c) >= threshold
    return out


def _intersection_blocks(data: Dataset):
    """Yield (row_start, counts_block) with counts_block[r, j] = |x_{row_start+r} & x_j|."""
    n, d = data.n, data.d
    block = max(1, _BLOCK_CELLS // max(n, 1))
    if n * d <= _DENSE_CELL_CAP:
        dense = np.zeros((n, d), dtype=np.float32)
        rows = np.repeat(np.arange(n), np.diff(data.indptr))
        dense[rows, data.tokens.astype(np.intp)] = 1.0
        for i0 in range(0, n, block):
            counts = dense[i0:i0 + block] @ dense.T
            yield i0, counts.astype(np.int64)
    else:
        from scipy.sparse import csr_matrix

        x = csr_matrix(
            (np.ones(data.tokens.size, dtype=np.int32),
             data.tokens.astype(np.int64), data.indptr),
            shape=(n, d),
        )
        xt = x.T.tocsr()
        for i0 in range(0, n, block):
            counts = (x[i0:i0 + block] @ xt).toarray()
            yield i0, counts.astype(np.int64)


def brute_force_join_multi(data: Dataset, thresholds) -> dict:
    """One intersection-count pass, evaluated at several thresholds.

    Returns {threshold: ((m, 2) pair array, JoinStats)}.
    """
    thresholds = list(thresholds)
    n = data.n
    sizes = data.sizes.astype(np.int64)
    out_codes = {lam: [] for lam in thresholds}
    cand_counts = {lam: 0 for lam in thresholds}
    t0 = time.perf_counter()
    for i0, counts in _intersection_blocks(data):
        rows = np.arange(i0, i0 + counts.shape[0])
        cols = np.arange(n)
        upper = cols[None, :] > rows[:, None]
        smin = np.minimum(sizes[rows][:, None], sizes[None, :])
        smax = np.maximum(sizes[rows][:, None], sizes[None, :])
        union = sizes[rows][:, None] + sizes[None, :] - counts
        sim = counts / union
        for lam in thresholds:
            size_ok = upper & (lam * smax <= smin + _EPS)
            cand_counts[lam] += int(np.count_nonzero(size_ok))
            hit = size_ok & (sim >= lam)
            ri, ci = np.nonzero(hit)
            if ri.size:
                out_codes[lam].append(encode_pairs(rows[ri], ci))
    elapsed = time.perf_counter() - t0
    result = {}
    for lam in thresholds:
        codes = np.sort(np.concatenate(out_codes[lam])) if out_codes[lam] \
            else np.zeros(0, dtype=np.uint64)
        stats = JoinStats(
            pre_candidates=n * (n - 1) // 2,
            candidates=cand_counts[lam],
            results=codes.size,
            join_s=elapsed,
        )
        result[lam] = (decode_pairs(codes), stats)
    return result


def brute_force_join(data: Dataset, threshold: float):
    """Ground-truth join: every pair checked, no filtering beyond sizes."""
    _check_threshold(threshold)
    return brute_force_join_multi(data, [threshold])[threshold]


def allpairs_join(data: Dataset, threshold: float, prefix_filter: bool = True):
    """Inverted-index self-join over ascending-frequency prefixes (AllPairs).

    Record i, in canonical order, is compared with every earlier record j
    that shares one of its prefix tokens and whose size passes the size
    filter (s_j >= threshold * s_i). The join runs as array passes, with no
    per-record loop: the (record, token) prefix entries, stably sorted by
    token, are every token's postings in record order, so an entry's own
    position ends the postings of the earlier records, and one searchsorted
    on (token, size) keys starts them past the records the size filter
    drops. Pre-candidates are the lengths of those ranges; candidates are
    the distinct (j, i) pairs in them, built and deduplicated in blocks cut
    at record boundaries, then verified exactly. `prefix_filter=False` uses
    whole records as prefixes; results must not change (used to test that
    the filter is lossless).
    """
    _check_threshold(threshold)
    if not data.canonical:
        raise CanonicalOrderError("allpairs_join needs frequency-remapped canonical data")
    n = data.n
    stats = JoinStats()
    t0 = time.perf_counter()
    sizes = data.sizes.astype(np.int64)
    # Smallest size that passes the size filter: for an integer size,
    # size >= threshold * s - eps exactly when size >= ceil(threshold * s - eps).
    min_size = np.ceil(threshold * sizes - _EPS).astype(np.int64)
    # prefix_length(threshold, s), clipped to the record: below threshold
    # 5e-10, min_size is 0 and the formula gives s + 1
    plen = np.minimum(sizes - min_size + 1, sizes) if prefix_filter else sizes

    # Prefix entries (record, token) in record order; record r owns entries
    # entry_bounds[r] to entry_bounds[r + 1].
    entry_bounds = np.concatenate(([0], np.cumsum(plen)))
    entry_rec = np.repeat(np.arange(n), plen)
    at = np.arange(entry_rec.size) + np.repeat(data.indptr[:-1] - entry_bounds[:-1], plen)
    entry_tok = data.tokens[at].astype(np.int64)
    # Postings: entries stably sorted by token, so records (and, in canonical
    # order, sizes) ascend along each token's list.
    order = np.argsort(entry_tok, kind="stable")
    post_rec = entry_rec[order]
    hi = np.empty(order.size, dtype=np.int64)
    hi[order] = np.arange(order.size)
    base = int(sizes.max(initial=0)) + 1
    keys = entry_tok[order] * base + sizes[post_rec]
    lo = np.searchsorted(keys, entry_tok * base + min_size[entry_rec], side="left")
    counts = hi - lo  # >= 0: min_size <= size, so lo never passes the entry itself
    stats.pre_candidates = int(counts.sum())

    # Pairs before each record boundary; blocks end only on those boundaries,
    # so every duplicate of a pair is built in the same block.
    pairs_before = np.concatenate(([0], np.cumsum(counts)))[entry_bounds]
    kept = []
    r0 = 0
    while r0 < n:
        r1 = int(np.searchsorted(pairs_before, pairs_before[r0] + _PAIR_BLOCK, side="right")) - 1
        r1 = max(r1, r0 + 1)  # a record with more pairs than a block gets one of its own
        e0, e1 = entry_bounds[r0], entry_bounds[r1]
        c = counts[e0:e1]
        first = np.cumsum(c) - c
        idx = np.repeat(lo[e0:e1] - first, c) + np.arange(pairs_before[r1] - pairs_before[r0])
        cand = unique_pairs([encode_pairs(post_rec[idx], np.repeat(entry_rec[e0:e1], c))])
        stats.candidates += cand.size
        pairs = decode_pairs(cand)
        ok = verify_pairs(data, pairs[:, 0], pairs[:, 1], threshold)
        if ok.any():
            kept.append(cand[ok])
        r0 = r1

    merged = np.sort(np.concatenate(kept)) if kept else np.zeros(0, dtype=np.uint64)
    stats.results = merged.size
    stats.join_s = time.perf_counter() - t0
    return decode_pairs(merged), stats


def _check_threshold(threshold: float):
    if not 0.0 < threshold <= 1.0:
        raise ValueError(f"threshold must be in (0, 1], got {threshold}")
