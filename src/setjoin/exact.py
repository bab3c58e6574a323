"""Exact joins and exact verification.

Both joins report exactly the pairs with Jaccard similarity >= threshold: the
brute-force oracle counts every pair's intersection through a dense or sparse
matrix product; AllPairs probes an inverted index over prefix tokens as
whole-array passes (sort, searchsorted, blocked pair dedup). `verify_pairs`,
which AllPairs and both approximate joins end in, counts intersections by
bitset popcount or, past the bitset's memory cap, by searchsorted over the
sorted (record, token) keys. One float predicate (float64 intersection/union
>= threshold) decides membership everywhere, so every route agrees bit-for-bit.

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
_PROBE_BLOCK = 2 ** 18  # probed tokens per block of the bitset-free intersection count


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
    """Exact check of J(x, y) >= threshold for two sorted unique token
    arrays, on `verify_pairs`' predicate; two empty sets fail."""
    return np.size(x) + np.size(y) > 0 and jaccard(x, y) >= threshold


def verify_pairs(data: Dataset, a_ids, b_ids, threshold: float) -> np.ndarray:
    """Vectorized exact check for batches of candidate pairs.

    Counts each pair's intersection c with packed-bitset popcounts,
    `_VERIFY_BLOCK` pairs at a time, when the dataset has a bitset, and with
    the token probe otherwise; then keeps c / (|a| + |b| - c) >= threshold.
    """
    a_ids = np.asarray(a_ids, dtype=np.int64)
    b_ids = np.asarray(b_ids, dtype=np.int64)
    bits = data.bitset()
    if bits is None:
        c = _probe_intersections(data, a_ids, b_ids)
    else:
        c = np.empty(a_ids.size, dtype=np.int64)
        for v0 in range(0, a_ids.size, _VERIFY_BLOCK):
            v = slice(v0, v0 + _VERIFY_BLOCK)
            c[v] = np.bitwise_count(bits[a_ids[v]] & bits[b_ids[v]]).sum(axis=1, dtype=np.int64)
    sizes = data.sizes
    return c / (sizes[a_ids] + sizes[b_ids] - c) >= threshold


def _probe_intersections(data: Dataset, a_ids, b_ids) -> np.ndarray:
    """|x_a & x_b| per pair: the smaller record's tokens are looked up under
    the other record's id among the (record << 32) | token keys, sorted as
    tokens ascend in each record, in blocks of about `_PROBE_BLOCK` probed
    tokens and at least one pair."""
    sizes = data.sizes
    swap = sizes[a_ids] > sizes[b_ids]
    small, other = np.where(swap, b_ids, a_ids), np.where(swap, a_ids, b_ids)
    plen = sizes[small]
    ends = np.cumsum(plen)
    keys = (np.repeat(np.arange(data.n, dtype=np.int64), sizes) << 32) | data.tokens
    c = np.empty(a_ids.size, dtype=np.int64)
    p0 = 0
    while p0 < a_ids.size:
        start = ends[p0] - plen[p0]
        p1 = max(p0 + 1, int(np.searchsorted(ends, start + _PROBE_BLOCK, side="right")))
        counts, first = plen[p0:p1], ends[p0:p1] - plen[p0:p1] - start
        at = np.repeat(data.indptr[small[p0:p1]] - first, counts) + np.arange(ends[p1 - 1] - start)
        probe = (np.repeat(other[p0:p1], counts) << 32) | data.tokens[at]
        pos = np.minimum(np.searchsorted(keys, probe), keys.size - 1)
        hits = np.concatenate(([0], np.cumsum(keys[pos] == probe)))
        c[p0:p1] = hits[first + counts] - hits[first]
        p0 = p1
    return c


def _intersection_blocks(data: Dataset):
    """Yield (row_start, counts_block) with counts_block[r, j] = |x_{row_start+r} & x_j|.

    The matrix columns are the token ids, or, where the universe is wider than
    the record tokens, the ids that occur, so no array spans an unused universe.
    """
    n, d = data.n, data.d
    cols = data.tokens
    if d > cols.size:
        universe, cols = np.unique(cols, return_inverse=True)
        d = universe.size
    block = max(1, _BLOCK_CELLS // max(n, 1))
    if n * d <= _DENSE_CELL_CAP:
        dense = np.zeros((n, d), dtype=np.float32)
        rows = np.repeat(np.arange(n), np.diff(data.indptr))
        dense[rows, cols.astype(np.intp)] = 1.0
        for i0 in range(0, n, block):
            counts = dense[i0:i0 + block] @ dense.T
            yield i0, counts.astype(np.int64)
    else:
        from scipy.sparse import csr_matrix

        x = csr_matrix(
            (np.ones(data.tokens.size, dtype=np.int32),
             cols.astype(np.int64), data.indptr),
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
