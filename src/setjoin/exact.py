"""Exact joins and exact verification.

Both joins report exactly the pairs with Jaccard similarity >= threshold: the
brute-force oracle counts every pair's intersection through a dense or sparse
matrix product, over the upper triangle only, in row blocks of about
`_BLOCK_CELLS` cells, keeps the pairs that pass the one Jaccard predicate and
counts its size-filter candidates with one searchsorted over the sorted
sizes; AllPairs probes an inverted index over prefix tokens as
whole-array passes (sort, searchsorted, blocked pair dedup). Its positional
filter bounds the overlap of a pair met at a prefix token by 1 + min(rest_i,
rest_j), the tokens from there on in the shorter tail, and keeps it only where
that reaches `min_overlap`: a second searchsorted ends each entry's postings at
the largest partner size its own tail allows, and one gather and compare per
built pair applies the partner's tail. AllPairs' `candidates` are the distinct
pairs that pass it, which are the pairs it verifies.

`verify_pairs`, which AllPairs and both approximate joins end in, counts
intersections on one of three routes. Past the bitset's memory cap it takes
elementwise row products of the records' CSR matrix, the one `_csr` also
builds for the oracle's sparse route. With a bitset, it popcounts the ANDed
rows, all ceil(d/64) words of them (the dense route), unless the bitset is
sparse: where tokens * `_GATHER_COST` < n * ceil(d/64), it popcounts only the
lower id's non-zero words, each ANDed with the word at the same index in the
other row (the word route). The token count bounds the non-zero words from
above, so the rule costs nothing and a dense dataset never builds its word
lists. `_GATHER_COST` = 4 is the measured cost of a gathered word against a
dense one: on `gen_uniform(4000, avg, 10^4)` with 100k sorted random pairs,
2 vCPUs, a word took 12-17 ns gathered and 3.1-3.5 ns dense. The word route
won 2.5x at tokens / (n * ceil(d/64)) = 0.10, 1.5x at 0.19 and 1.13x at 0.25,
broke even between 0.32 and 0.38 and lost at 0.51 (0.73x); the rule switches
at 0.25. One float predicate (float64 intersection/union >= threshold)
decides membership everywhere, so every route agrees bit-for-bit.

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
_BLOCK_CELLS = 2 ** 19  # target cells per intersection-count block
_PAIR_BLOCK = 2 ** 18  # AllPairs (j, i) pairs built per block, unless one record has more
# Words (bitset words, or CSR entries) a verify block gathers per side, on
# average: 512 KB of uint64, so both sides and their AND fit a 2 MB L2 cache.
_VERIFY_BLOCK = 2 ** 16
_GATHER_COST = 4  # the word route runs where tokens * this < n * ceil(d/64); see the docstring


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

    Counts each pair's intersection c on one of three routes, then keeps
    c / (|a| + |b| - c) >= threshold:

    - dense: popcounts of the ANDed bitset rows, all ceil(d/64) words;
    - words: where tokens * `_GATHER_COST` < n * ceil(d/64), popcounts of
      only the lower id's non-zero bitset words, each ANDed with the word at
      the same index in the other record's row;
    - CSR: without a bitset, the sums of the elementwise products of the
      pairs' rows in the records' CSR matrix.

    A block holds `_VERIFY_BLOCK` over the route's mean row (bitset words,
    non-zero words or CSR entries per record) pairs, so it gathers about
    `_VERIFY_BLOCK` of them per side.
    """
    a_ids = np.asarray(a_ids, dtype=np.int64)
    b_ids = np.asarray(b_ids, dtype=np.int64)
    bits = data.bitset()
    if bits is None:
        x = _csr(data, data.tokens, data.d)
        # np.asarray: a sparse matrix sums to an (m, 1) matrix, an array to (m,)
        count = lambda a, b: np.asarray(x[a].multiply(x[b]).sum(axis=1)).reshape(-1)
        entries = data.tokens.size
    elif data.tokens.size * _GATHER_COST < bits.size:
        starts, cols, words = data.bitset_words()
        count = lambda a, b: _word_intersections(starts, cols, words, bits, a, b)
        entries = cols.size
    else:
        count = lambda a, b: np.bitwise_count(bits[a] & bits[b]).sum(axis=1, dtype=np.int64)
        entries = bits.size
    step = max(1, _VERIFY_BLOCK * data.n // max(entries, 1))  # pairs per block
    c = np.empty(a_ids.size, dtype=np.int64)
    for v0 in range(0, a_ids.size, step):
        v = slice(v0, v0 + step)
        c[v] = count(a_ids[v], b_ids[v])
    sizes = data.sizes
    return c / (sizes[a_ids] + sizes[b_ids] - c) >= threshold


def _word_intersections(starts, cols, words, bits, a, b) -> np.ndarray:
    """|x_a & x_b| for each pair: the non-zero words (`bitset_words`) of the
    lower id, in canonical order the smaller record, each ANDed with the word
    at the same index in the other record's bitset row."""
    a, b = np.minimum(a, b), np.maximum(a, b)
    k = starts[a + 1] - starts[a]  # >= 1: every record holds two tokens or more
    firsts = np.cumsum(k) - k
    at = np.repeat(starts[a] - firsts, k) + np.arange(firsts[-1] + k[-1])
    row = np.repeat(b * bits.shape[1], k)
    hits = np.bitwise_count(words[at] & bits.reshape(-1)[row + cols[at]])
    return np.add.reduceat(hits, firsts, dtype=np.int64)


def _csr(data: Dataset, cols: np.ndarray, d: int):
    """The records as an (n, d) int32 CSR matrix of ones at columns `cols`,
    which are `data.tokens` or a renumbering of them in the same order."""
    from scipy.sparse import csr_matrix

    return csr_matrix((np.ones(cols.size, dtype=np.int32), cols.astype(np.int64), data.indptr),
                      shape=(data.n, d))


def _intersection_blocks(data: Dataset):
    """Yield (i0, counts) with counts[r, c] = |x_{i0+r} & x_{i0+c}|: row blocks
    of the upper triangle, each rows [i0, i1) against columns [i0, n).

    A block has `_BLOCK_CELLS // (n - i0)` rows (at least one), so the blocks
    tile the triangle in about `_BLOCK_CELLS` cells each and grow taller as
    the triangle narrows. The counts are exact integers: float32 from a dense
    product, int32 from a sparse one. The matrix columns are the token ids,
    or, where the universe is wider than the record tokens, the ids that
    occur, so no array spans an unused universe.
    """
    n, d = data.n, data.d
    cols = data.tokens
    if d > cols.size:
        universe, cols = np.unique(cols, return_inverse=True)
        d = universe.size
    if n * d <= _DENSE_CELL_CAP:
        x = np.zeros((n, d), dtype=np.float32)
        x[np.repeat(np.arange(n), np.diff(data.indptr)), cols.astype(np.intp)] = 1.0
        product = lambda i0, i1: x[i0:i1] @ x[i0:].T
    else:
        x = _csr(data, cols, d)
        xt = x.T.tocsc()
        product = lambda i0, i1: (x[i0:i1] @ xt[:, i0:]).toarray()
    i0 = 0
    while i0 < n:
        i1 = min(n, i0 + max(1, _BLOCK_CELLS // (n - i0)))
        yield i0, product(i0, i1)
        i0 = i1


def brute_force_join_multi(data: Dataset, thresholds) -> dict:
    """One intersection-count pass over the upper triangle, evaluated at
    several thresholds.

    Each block's Jaccard values are one float64 division of its exact counts
    by the unions, so a pair (i, j), i < j, is a result where `verify_pairs`'
    predicate holds. `candidates`, the pairs passing the size filter
    threshold * max(s_i, s_j) <= min(s_i, s_j) + 1e-9, is one searchsorted
    over the sorted sizes. The filter needs no test at the hits: c / u >=
    threshold in float64 gives threshold * max <= min * (1 + 2^-52), which
    is within the slack for records under 2^21 tokens.

    Returns {threshold: ((m, 2) pair array, JoinStats)}.
    """
    thresholds = list(dict.fromkeys(thresholds))  # a repeated threshold is one result
    for lam in thresholds:
        _check_threshold(lam)
    n = data.n
    t0 = time.perf_counter()
    asc = np.sort(data.sizes.astype(np.int64))
    # per size in ascending order, the sizes k with lam * asc[k] <= asc[i] + eps,
    # less the i + 1 at or before it, which always pass: its partners after it
    cand_counts = {lam: int((np.searchsorted(lam * asc, asc + _EPS, side="right")
                             - np.arange(1, n + 1)).sum()) for lam in thresholds}
    out_codes = {lam: [] for lam in thresholds}
    for i0, counts in _intersection_blocks(data):
        sizes = data.sizes.astype(counts.dtype)
        union = sizes[i0:i0 + counts.shape[0], None] + sizes[None, i0:]
        union -= counts
        sim = np.divide(counts, union, dtype=np.float64)
        for lam in thresholds:
            ri, ci = np.divmod(np.flatnonzero(sim >= lam), sim.shape[1])
            upper = ci > ri
            out_codes[lam].append(encode_pairs(ri[upper] + i0, ci[upper] + i0))
    elapsed = time.perf_counter() - t0
    result = {}
    for lam in thresholds:
        # blocks arrive in row order and are read row-major: the codes ascend
        codes = np.concatenate(out_codes[lam]) if out_codes[lam] \
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
    """Ground-truth join: every pair checked."""
    return brute_force_join_multi(data, [threshold])[threshold]


def allpairs_join(data: Dataset, threshold: float, prefix_filter: bool = True):
    """Inverted-index self-join over ascending-frequency prefixes (AllPairs)
    with PPJoin's positional filter.

    Record i, in canonical order, is compared with every earlier record j
    that shares one of its prefix tokens and whose size passes the size
    filter (s_j >= threshold * s_i). The join runs as array passes, with no
    per-record loop: the (record, token) prefix entries, stably sorted by
    token, are every token's postings in record order, so an entry's own
    position ends the postings of the earlier records, and one searchsorted
    on (token, size) keys starts them past the records the size filter
    drops. Pre-candidates are the lengths of those ranges.

    The positional filter (Xiao et al., WWW 2008) then drops an occurrence,
    prefix token t of record i met in a posting of record j, unless
    1 + min(rest_i, rest_j) reaches `min_overlap(threshold, s_i, s_j)`,
    where rest is the number of tokens after t in the record. In sorted
    order a result pair's smallest common token lies in both prefixes and
    every other common token follows it in both records, so at that
    occurrence the bound is at least the true overlap: the filter is
    lossless. Each entry's `reach`, the largest s_i + s_j its rest allows
    (one table over the possible sums) minus its own size, bounds the
    partner's size, so the bound is two integer steps. On the i side, a
    second searchsorted on the (token, size) keys ends the entry's range at
    sizes above its reach; those pairs are never built. On the j side, each
    built pair is kept only if the posting's reach is at least s_i.

    Candidates are the distinct (j, i) pairs that pass the positional
    filter, built and deduplicated in blocks cut at record boundaries, then
    verified exactly. `prefix_filter=False` uses whole records as prefixes;
    results must not change (used to test that the filter is lossless).
    """
    _check_threshold(threshold)
    if not data.canonical:
        raise CanonicalOrderError("allpairs_join needs frequency-remapped canonical data")
    n = data.n
    stats = JoinStats()
    t0 = time.perf_counter()
    sizes = data.sizes.astype(np.int64)
    base = int(sizes.max(initial=0)) + 1
    # Smallest size that passes the size filter: for an integer size,
    # size >= threshold * s - eps exactly when size >= ceil(threshold * s - eps).
    min_size = np.ceil(threshold * sizes - _EPS).astype(np.int64)
    # prefix_length(threshold, s), clipped to the record: below threshold
    # 5e-10, min_size is 0 and the formula gives s + 1
    plen = np.minimum(sizes - min_size + 1, sizes) if prefix_filter else sizes
    # max_sum[r]: the largest s_i + s_j whose min_overlap is at most r, from
    # min_overlap's own float expression, so the filter agrees with it exactly
    coef = threshold / (1.0 + threshold)
    max_sum = np.searchsorted(coef * np.arange(2 * base) - _EPS, np.arange(base + 1),
                              side="right") - 1

    # Prefix entries (record, token) in record order; record r owns entries
    # entry_bounds[r] to entry_bounds[r + 1].
    entry_bounds = np.concatenate(([0], np.cumsum(plen)))
    entry_rec = np.repeat(np.arange(n), plen)
    at = np.arange(entry_rec.size) + np.repeat(data.indptr[:-1] - entry_bounds[:-1], plen)
    entry_tok = data.tokens[at].astype(np.int64)
    # 1 + rest, the entry's token and those after it, is indptr[r + 1] - at
    reach = max_sum[data.indptr[1:][entry_rec] - at] - sizes[entry_rec]
    # Postings: entries stably sorted by token, so records (and, in canonical
    # order, sizes) ascend along each token's list.
    order = np.argsort(entry_tok, kind="stable")
    post_rec = entry_rec[order]
    post_reach = reach[order]
    hi = np.empty(order.size, dtype=np.int64)
    hi[order] = np.arange(order.size)
    keys = entry_tok[order] * base + sizes[post_rec]
    lo = np.searchsorted(keys, entry_tok * base + min_size[entry_rec], side="left")
    stats.pre_candidates = int((hi - lo).sum())  # >= 0: min_size <= size, so lo <= hi
    # The i-side cut; the entry's own position caps it, so a reach past the
    # largest size never runs into the next token's postings.
    cut = np.searchsorted(keys, entry_tok * base + reach, side="right")
    counts = np.clip(cut, lo, hi) - lo

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
        i = np.repeat(entry_rec[e0:e1], c)
        ok = post_reach[idx] >= sizes[i]  # the j side
        cand = unique_pairs([encode_pairs(post_rec[idx[ok]], i[ok])])
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
