"""Exact joins and exact verification.

Both joins report exactly the pairs with Jaccard similarity >= threshold,
and both read the order of a canonical Dataset, the only kind there is: ids
in [0, d) by ascending frequency, records by ascending size. The
brute-force oracle's matrix columns are the ids, split at a cut
(`_choose_cut`) below which they are the rare ones. It multiplies only the
columns from the cut on, over the upper triangle only, in row blocks of
about `_BLOCK_CELLS` cells, charges each record's tokens below the cut to a
per-record bound, and gives exact counts only to the pairs the bound keeps
(the prefix-filter idea of AllPairs, Bayardo et al., WWW 2007, in dense
form). Its size-filter candidates are one searchsorted over the sizes.
AllPairs probes an inverted index over ascending-frequency prefix tokens as
whole-array passes: one packed sort builds the postings, two searchsorted
calls take their queries in posting order, and each block of records
dedups its pairs on keys of 32 bits where they fit. Its positional filter
bounds the overlap of a pair met at a prefix token by 1 + min(rest_i,
rest_j), the tokens from there on in the shorter tail, and keeps it only
where that reaches `min_overlap`: the second searchsorted
ends each entry's postings at the largest partner size its own tail
allows, and one gather and compare per built pair applies the partner's
tail. AllPairs' `candidates` are the distinct pairs that pass it. Where a
cost rule finds the records' folds informative (`_fold_filter_pays`), it
verifies only the candidates whose fold bound reaches the threshold: a
record's fold is the OR of 1 << (t & 63) over its tokens, and
|x & y| <= (s_x + s_y - popcount(fold_x ^ fold_y)) // 2 (the bitmap filter
of Sandes, Teodoro and Melo); elsewhere it verifies every candidate.

`_intersection_counts`, which `verify_pairs` (so AllPairs and both
approximate joins) and the oracle's kept pairs go through, counts
intersections on one of three routes. Past the bitset's memory cap it takes
elementwise row products of the records' CSR matrix (`_csr`, built on first
use and held by the dataset, so a join builds it once; the oracle's sparse
blocks multiply the same matrix by its transpose, built once per call as
CSR, so no block's column slice converts it). With a bitset, it popcounts
the ANDed rows, all ceil(d/64) words of them (the dense route), unless the
bitset is sparse: where tokens * `_GATHER_COST` < n * ceil(d/64), it
popcounts only the lower id's non-zero words, each ANDed with the word at
the same index in the other row (the word route). The token count bounds the
non-zero words from above, so the rule costs nothing; it spares no word
lists, since `Dataset.bitset()` scatters its rows from them, so every
dataset under the bitset's cap builds them with its bitset.
`_GATHER_COST` = 4 is the measured cost of a gathered word against a dense
one: on `gen_uniform(4000, avg, 10^4)` with 100k sorted random pairs, 2
vCPUs, a word took 12-17 ns gathered and 3.1-3.5 ns dense. The word route
won 2.5x at tokens / (n * ceil(d/64)) = 0.10, 1.5x at 0.19 and 1.13x at
0.25, broke even between 0.32 and 0.38 and lost at 0.51 (0.73x); the rule
switches at 0.25. One predicate, `_jaccard_at_least` (int64 intersection
over int64 union, one float64 division, >= threshold), decides membership
everywhere, so every route agrees bit-for-bit.

All cheap pruning bounds carry a slack in the keep direction, so float
rounding can only add candidates, never drop a true pair: 1e-9 for the size,
prefix and positional filters, and the rounding down of the oracle's
per-record terms to multiples of `_BOUND_STEP`.
"""

from __future__ import annotations

import math
import time

import numpy as np

from .datasets import Dataset
from .stats import JoinStats, concatenated_ranges, decode_pairs, encode_pairs, stable_order

_EPS = 1e-9
_DENSE_CELL_CAP = 2 ** 26  # n*d above this switches the oracle to sparse blocks
_BLOCK_CELLS = 2 ** 19  # target cells per intersection-count block
_FILL_CHUNK = 2 ** 18  # tokens set in the oracle's dense matrix per step
# AllPairs (j, i) pairs built per block, unless one record has more; a block of
# records [r0, r1) dedups them on 32-bit keys where (r1 - r0) * r1 < 2^32.
_PAIR_BLOCK = 2 ** 18
# Bitset words a verify block gathers per side, on average: 512 KB of uint64,
# so both sides and their AND fit a 2 MB L2 cache.
_VERIFY_BLOCK = 2 ** 16
_CSR_VERIFY_BLOCK = 2 ** 18  # CSR entries a verify block gathers per side; see verify_pairs
_GATHER_COST = 4  # the word route runs where tokens * this < n * ceil(d/64); see the docstring
_DENSE_SIZE_CAP = 2 ** 17  # largest record of the oracle's dense route; see brute_force_join_multi
_BOUND_STEP = 2.0 ** -6  # grid of the oracle's per-record bound terms
_CUT_STEPS = 64  # cuts the oracle's cut rule prices, evenly spaced over the columns
_CUT_SAMPLE = 2 ** 9  # pairs the cut rule samples
_VERIFY_COST = 4000  # a verified survivor, in dense product cells; see _choose_cut
_SPARSE_COST = 1400  # a sparse product term, in dense product cells; see _choose_cut


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

    Counts each pair's intersection with `_intersection_counts` (bitset
    rows, non-zero bitset words or CSR rows, as the dataset's shape picks)
    and keeps c / (|a| + |b| - c) >= threshold by `_jaccard_at_least`:
    int64 counts and sizes and one float64 division, exact at any record
    size. The brute-force oracle decides its kept pairs by the same two
    functions, so every route agrees bit for bit."""
    a_ids = np.asarray(a_ids, dtype=np.int64)
    b_ids = np.asarray(b_ids, dtype=np.int64)
    sizes = data.sizes
    return _jaccard_at_least(_intersection_counts(data, a_ids, b_ids), sizes[a_ids],
                             sizes[b_ids], threshold)


def _jaccard_at_least(c, size_a, size_b, threshold: float) -> np.ndarray:
    """c / (|a| + |b| - c) >= threshold, on int64 counts and sizes: the
    division is one float64 rounding of exact integers."""
    return c / (size_a + size_b - c) >= threshold


def _intersection_counts(data: Dataset, a_ids: np.ndarray, b_ids: np.ndarray) -> np.ndarray:
    """|x_a & x_b| for each pair, int64, on one of three routes:

    - dense: popcounts of the ANDed bitset rows, all ceil(d/64) words;
    - words: where tokens * `_GATHER_COST` < n * ceil(d/64), popcounts of
      only the lower id's non-zero bitset words, each ANDed with the word at
      the same index in the other record's row;
    - CSR: without a bitset, the sums of the elementwise products of the
      pairs' rows in the records' CSR matrix (`_csr`, built once per
      dataset).

    A block holds `_VERIFY_BLOCK` over the route's mean row (bitset words or
    non-zero words per record) pairs, so it gathers about `_VERIFY_BLOCK` of
    them per side. The CSR route's blocks hold `_CSR_VERIFY_BLOCK` over the
    mean record's CSR entries pairs, a measured size: without a bitset,
    AllPairs on the benchmark's `tokens` records (seed 21, 4.1M candidates)
    took 18.9/16.1/15.3/16.9/19.5 s with CSR blocks of 2^16-2^20 entries,
    and on `clusters` 0.165/0.152/0.143/0.151/0.152 s (medians of 4, 2
    vCPUs).
    """
    bits = data.bitset()
    if bits is None:
        x = _csr(data)
        # np.asarray: a sparse matrix sums to an (m, 1) matrix, an array to (m,)
        count = lambda a, b: np.asarray(x[a].multiply(x[b]).sum(axis=1)).reshape(-1)
        entries, block = data.tokens.size, _CSR_VERIFY_BLOCK
    elif data.tokens.size * _GATHER_COST < bits.size:
        starts, cols, words = data.bitset_words()
        count = lambda a, b: _word_intersections(starts, cols, words, bits, a, b)
        entries, block = cols.size, _VERIFY_BLOCK
    else:
        count = lambda a, b: np.bitwise_count(bits[a] & bits[b]).sum(axis=1, dtype=np.int64)
        entries, block = bits.size, _VERIFY_BLOCK
    step = max(1, block * data.n // max(entries, 1))  # pairs per block
    c = np.empty(a_ids.size, dtype=np.int64)
    for v0 in range(0, a_ids.size, step):
        v = slice(v0, v0 + step)
        c[v] = count(a_ids[v], b_ids[v])
    return c


def _word_intersections(starts, cols, words, bits, a, b) -> np.ndarray:
    """|x_a & x_b| for each pair: the non-zero words (`bitset_words`) of the
    lower id, in canonical order the smaller record, each ANDed with the word
    at the same index in the other record's bitset row."""
    a, b = np.minimum(a, b), np.maximum(a, b)
    k = starts[a + 1] - starts[a]  # >= 1: every record holds two tokens or more
    firsts = np.cumsum(k) - k
    at = concatenated_ranges(starts[a], k, firsts)
    row = np.repeat(b * bits.shape[1], k)
    hits = np.bitwise_count(words[at] & bits.reshape(-1)[row + cols[at]])
    return np.add.reduceat(hits, firsts, dtype=np.int64)


def _csr(data: Dataset):
    """The records as an (n, d) int32 CSR matrix of ones, built on first use
    and held by the dataset, for verification's CSR route and the oracle's
    sparse blocks alike."""
    def build():
        from scipy.sparse import csr_matrix

        return csr_matrix((np.ones(data.tokens.size, dtype=np.int32),
                           data.tokens.astype(np.int64), data.indptr), shape=(data.n, data.d))
    return data.memo("csr", build)


def _dense_route(data: Dataset) -> bool:
    """Whether the oracle multiplies an (n, d) float32 matrix: n * d within
    `_DENSE_CELL_CAP`, and no record past `_DENSE_SIZE_CAP` tokens, below
    which every count and every cell of the bound is an exact float32."""
    return data.n * data.d <= _DENSE_CELL_CAP and int(data.sizes.max(initial=0)) <= _DENSE_SIZE_CAP


def _intersection_blocks(data: Dataset, cut: int = 0):
    """Yield (i0, counts) with counts[r, c] the number of tokens records
    i0 + r and i0 + c share in matrix columns [cut, d): row blocks of the
    upper triangle, each rows [i0, i1) against columns [i0, n).

    A block has `_BLOCK_CELLS // (n - i0)` rows (at least one), so the blocks
    tile the triangle in about `_BLOCK_CELLS` cells each and grow taller as
    the triangle narrows. The counts are exact integers: float32 from a dense
    product (`_dense_route`), int32 from a sparse one. The matrix columns are
    the token ids [0, d), every one of which some record holds.

    The sparse route multiplies each block's rows of the records' CSR matrix
    (`_csr`) by the columns [i0, n) of the transpose, built once as a CSR
    matrix: scipy slices a CSR matrix's columns directly, where a CSC one
    was converted and copied for every block (71 against 28-30 ns a product
    term on `gen_uniform(10^4, 30, 10^4)`; see `_choose_cut`).

    The dense matrix is built with no token-long array beside the tokens:
    its cells are set a run of whole records of about `_FILL_CHUNK`
    tokens at a time, through int32 offsets into the flat matrix, which
    n * d <= `_DENSE_CELL_CAP` allows.
    """
    n = data.n
    if _dense_route(data):
        width = data.d - cut
        x = np.zeros((n, width), dtype=np.float32)
        flat = x.reshape(-1)
        tokens, indptr, sizes = data.tokens, data.indptr, data.sizes
        r0 = 0
        while r0 < n:
            r1 = int(np.searchsorted(indptr, indptr[r0] + _FILL_CHUNK, side="right")) - 1
            r1 = max(r1, r0 + 1)  # a record past the chunk gets one of its own
            at = np.repeat(np.arange(r0, r1, dtype=np.int32) * np.int32(width), sizes[r0:r1])
            cols = tokens[indptr[r0]:indptr[r1]]
            if cut:
                kept = cols >= cut
                at, cols = at[kept], cols[kept] - cut
            flat[at + cols] = 1.0
            r0 = r1
        product = lambda i0, i1: x[i0:i1] @ x[i0:].T
    else:
        x = _csr(data)
        if cut:
            x = x[:, cut:]
        xt = x.T.tocsr()
        product = lambda i0, i1: (x[i0:i1] @ xt[:, i0:]).toarray()
    i0 = 0
    while i0 < n:
        i1 = min(n, i0 + max(1, _BLOCK_CELLS // (n - i0)))
        yield i0, product(i0, i1)
        i0 = i1


def _bound_terms(sizes: np.ndarray, below: np.ndarray, coef: float) -> np.ndarray:
    """Each record's term coef * s - b / 2 of the oracle's bound, with b its
    tokens below the cut, rounded down to a multiple of `_BOUND_STEP`."""
    return np.floor((coef * sizes - 0.5 * below) / _BOUND_STEP) * _BOUND_STEP


def _tokens_below(data: Dataset, cut: int) -> np.ndarray:
    """Each record's tokens in matrix columns below `cut`."""
    if cut == 0:
        return np.zeros(data.n, dtype=np.int64)
    # every record holds tokens, so each segment of the sum is its own
    return np.add.reduceat((data.tokens < cut).view(np.uint8), data.indptr[:-1],
                           dtype=np.int64)


def _choose_cut(data: Dataset, coef: float) -> int:
    """The oracle's cut: the matrix columns below it are bounded, not
    multiplied; 0 where no cut is priced below multiplying every column.

    The rule prices `_CUT_STEPS` evenly spaced cuts, 0 and d included. A cut
    costs the product over the columns from it on plus `_VERIFY_COST` per
    pair the bound keeps, in units of one dense product cell (one pair, one
    column). A column costs n(n-1)/2 cells on the dense route and f(f-1)/2 *
    `_SPARSE_COST` on the sparse one, f its records. The share of pairs kept
    at each cut is read off `_CUT_SAMPLE` pairs drawn with a fixed seed:
    their own and common tokens below each cut are counted from the
    records' sorted tokens, with no matrix, and a sampled pair is kept where
    the oracle's block would keep it. On the benchmark's `tokens` records
    the rule takes about 3.5 ms, and at 256 to 2,048 sampled pairs and ten
    sample seeds its cut cost at most 0.7 ms more than the best of the 64.

    The weights were measured with one BLAS thread on 2 vCPUs (minimum of
    7 runs, forced cuts). Dense route: from cut 0 to cut 400 the product
    fell from 63 to 33 ms on the `tokens` records (seed 21, n 2,963, d 800)
    and from 583 to 131 ms on `gen_uniform(10^4, 10, 500)`, 17-23 ps per
    cell. A kept pair added 65 ns of oracle time on `tokens` (8.6k kept at
    cut 300 against 606k at cut 425) and 89 ns on the uniform set (1.2k at
    cut 100 against 12.3M at cut 300), 3,000-5,200 cells, hence 4,000.
    Sparse route, `gen_uniform(10^4, 30, 10^4)`: the product fell from 141
    to 56 ms as the sum of f(f-1)/2 over the multiplied columns fell from
    4.5M to 1.7M, 28-30 ns a term (a line fit over five cuts: 28 ns), about
    1,400 cells at 20 ps.
    """
    n = data.n
    pairs = n * (n - 1) // 2
    d = data.d
    steps = min(d, _CUT_STEPS)
    if pairs == 0 or steps == 0:
        return 0
    m = min(pairs, _CUT_SAMPLE)
    rng = np.random.default_rng(28)  # a fixed sample: the same data gets the same cut
    a = rng.integers(0, n, size=m)
    b = rng.integers(0, n - 1, size=m)
    b += b >= a  # a uniform pair of distinct records
    sizes = data.sizes
    step_of = np.arange(d) * steps // d  # the step each column lies in

    def side(ids):  # each pair's tokens of one side: (pair * d + column, pair * steps + step)
        k = sizes[ids]
        cols = data.tokens[concatenated_ranges(data.indptr[ids], k)].astype(np.int64)
        pair = np.repeat(np.arange(m, dtype=np.int64), k)
        return pair * d + cols, pair * steps + step_of[cols]

    (ka, sa), (kb, sb) = side(a), side(b)
    shared = sa[np.isin(ka, kb, assume_unique=True)]
    hist = np.bincount(np.concatenate((sa, sb + m * steps, shared + 2 * m * steps)),
                       minlength=3 * m * steps).reshape(3, m, steps)
    below = np.zeros((3, m, steps + 1), dtype=np.int64)  # a's, b's and common tokens below each cut
    np.cumsum(hist, axis=2, out=below[:, :, 1:])
    c_above = below[2, :, -1:] - below[2]  # common tokens from each cut on
    kept = c_above >= (_bound_terms(sizes[a, None], below[0], coef)
                       + _bound_terms(sizes[b, None], below[1], coef))
    cuts = -(-np.arange(steps + 1) * d // steps)  # ceil(g * d / steps)
    if _dense_route(data):
        weight = np.full(d, float(pairs))
    else:
        freq = data.token_freq.astype(np.float64)
        weight = freq * (freq - 1) / 2 * _SPARSE_COST
    product = np.concatenate((np.cumsum(weight[::-1])[::-1], [0.0]))  # columns from c on
    cost = product[cuts] + _VERIFY_COST * pairs * kept.mean(axis=0)
    return int(cuts[np.argmin(cost)])


def brute_force_join_multi(data: Dataset, thresholds) -> dict:
    """One pass over the upper triangle, evaluated at several thresholds.

    A pair (i, j), i < j, is a result where `_jaccard_at_least` holds on its
    exact count. The matrix columns are split at a cut (`_choose_cut`):
    [cut, d) are multiplied (`_intersection_blocks`) and [0, cut) bounded.
    With c_A a pair's count over the multiplied columns and b a record's
    tokens below the cut, the bounded columns hold at most min(b_i, b_j) <=
    (b_i + b_j) / 2 common tokens, so the pair can reach threshold lam only
    if

        c_A >= t_i + t_j,  t = lam / (1 + lam) * s - b / 2.

    Each block keeps the cells that pass, with one term per record and side
    (`_bound_terms`) at the least threshold; at cut 0 it keeps little more
    than the results. Only the kept pairs get exact int64 counts, from
    `_intersection_counts`, and each threshold's predicate decides on them.

    Exactness: each term is rounded down to a multiple of `_BOUND_STEP` =
    2^-6. For a result, c_A is at least the exact t_i + t_j less the float64
    error of c / u >= lam, and the computed terms exceed the exact ones by at
    most their own float64 error; for records under 2^40 tokens the two stay
    under 2^-6, and c_A and the rounded sum both lie on the 2^-6 grid, so
    the rounded sum is at most c_A. The dense route runs only where no
    record passes `_DENSE_SIZE_CAP` = 2^17 tokens (`_dense_route`): there
    its float32 counts are exact, and so is every c_A - t_i, a multiple of
    2^-6 below 2^18. The sparse route's int32 counts meet the terms in
    float64.

    `candidates`, the pairs passing the size filter threshold * max(s_i,
    s_j) <= min(s_i, s_j) + 1e-9, is one searchsorted over the sizes, which
    ascend in canonical order. The filter needs no test at the hits: c / u
    >= threshold in float64 gives threshold * max <= min * (1 + 2^-52),
    which is within the slack for records under 2^21 tokens.

    Returns {threshold: ((m, 2) pair array, JoinStats)}.
    """
    thresholds = list(dict.fromkeys(thresholds))  # a repeated threshold is one result
    if not thresholds:
        raise ValueError("need at least one threshold")
    for lam in thresholds:
        _check_threshold(lam)
    n = data.n
    t0 = time.perf_counter()
    sizes = data.sizes
    # per record i, the records k with lam * sizes[k] <= sizes[i] + eps, less
    # the i + 1 at or before it, which always pass: its partners after it
    cand_counts = {lam: int((np.searchsorted(lam * sizes, sizes + _EPS, side="right")
                             - np.arange(1, n + 1)).sum()) for lam in thresholds}
    out_codes = {lam: [] for lam in thresholds}
    least = min(thresholds)
    coef = least / (1.0 + least)
    cut = _choose_cut(data, coef)
    terms = _bound_terms(sizes, _tokens_below(data, cut), coef)
    for i0, counts in _intersection_blocks(data, cut):
        t = terms.astype(np.result_type(counts.dtype, np.float32))  # float32 on the dense route
        i1 = i0 + counts.shape[0]
        kept = np.subtract(counts, t[i0:i1, None], dtype=t.dtype) >= t[i0:]
        ri, ci = np.divmod(np.flatnonzero(kept), kept.shape[1])
        upper = ci > ri
        a, b = ri[upper] + i0, ci[upper] + i0
        c = _intersection_counts(data, a, b)
        for lam in thresholds:
            hit = _jaccard_at_least(c, sizes[a], sizes[b], lam)
            out_codes[lam].append(encode_pairs(a[hit], b[hit]))
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
    token (one packed uint64 sort, `stats.stable_order`), are every token's
    postings in record order, so an entry's own position ends the postings
    of the earlier records, and one searchsorted on (token, size) keys
    starts them past the records the size filter drops. Pre-candidates are
    the lengths of those ranges. Both searchsorted calls take the entries in
    posting order, where the size filter's (token, min_size) queries ascend,
    so the searches walk the keys in order, and their answers are scattered
    back to record order.

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
    filter, built and deduplicated in blocks cut at record boundaries. A
    block of records [r0, r1) holds only j < i < r1, so it dedups its pairs
    on the key (i - r0) * r1 + j, 32 bits wide where it fits
    (`_distinct_block_pairs`). Where `_fold_filter_pays`, a candidate goes
    on to exact verification only if `_jaccard_at_least` holds on its fold
    bound (`_fold_overlap_bound`, one uint64 per record); the bound is never
    below the true overlap and the predicate is monotone in it, so no
    result is dropped. Elsewhere every candidate is verified. Only the pairs
    that pass are encoded into the uint64 codes of the final merge.
    `prefix_filter=False` uses whole records as prefixes; results must not
    change (used to test that the filter is lossless).
    """
    _check_threshold(threshold)
    n = data.n
    stats = JoinStats()
    t0 = time.perf_counter()
    sizes = data.sizes.astype(np.int64)
    base = int(sizes.max(initial=0)) + 1
    folds = _folds(data)  # first, so its temporaries meet none of the index arrays
    if not _fold_filter_pays(data, folds, threshold):
        folds = None
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
    at = concatenated_ranges(data.indptr[:-1], plen, entry_bounds[:-1])
    entry_tok = data.tokens[at].astype(np.int64)
    # 1 + rest, the entry's token and those after it, is indptr[r + 1] - at
    reach = max_sum[data.indptr[1:][entry_rec] - at] - sizes[entry_rec]
    # Postings: entries stably sorted by token, one packed sort, so records
    # (and, in canonical order, sizes) ascend along each token's list.
    order = stable_order(entry_tok.astype(np.uint64), int(data.d).bit_length())
    post_rec = entry_rec[order]
    post_reach = reach[order]
    tok_key = entry_tok[order] * base
    keys = tok_key + sizes[post_rec]
    # Both searches run in posting order, where the (token, min_size) queries
    # ascend; the ranges are scattered back to entry order.
    pos = np.arange(order.size)  # an entry's own position ends its postings
    start = np.searchsorted(keys, tok_key + min_size[post_rec], side="left")
    stats.pre_candidates = int((pos - start).sum())  # >= 0: min_size <= size, so start <= pos
    # The i-side cut; the entry's own position caps it, so a reach past the
    # largest size never runs into the next token's postings.
    cut = np.searchsorted(keys, tok_key + post_reach, side="right")
    lo, counts = np.empty_like(start), np.empty_like(start)
    lo[order] = start
    counts[order] = np.clip(cut, start, pos) - start

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
        idx = concatenated_ranges(lo[e0:e1], c)
        i = np.repeat(entry_rec[e0:e1], c)
        ok = post_reach[idx] >= sizes[i]  # the j side
        i, j = _distinct_block_pairs(i[ok], post_rec[idx[ok]], r0, r1)
        stats.candidates += i.size
        if folds is not None:
            ok = _jaccard_at_least(_fold_overlap_bound(folds[i], folds[j], sizes[i], sizes[j]),
                                   sizes[i], sizes[j], threshold)
            i, j = i[ok], j[ok]
        ok = verify_pairs(data, j, i, threshold)
        if ok.any():
            kept.append(encode_pairs(j[ok], i[ok]))
        r0 = r1

    merged = np.sort(np.concatenate(kept)) if kept else np.zeros(0, dtype=np.uint64)
    stats.results = merged.size
    stats.join_s = time.perf_counter() - t0
    return decode_pairs(merged), stats


def _distinct_block_pairs(i: np.ndarray, j: np.ndarray, r0: int, r1: int):
    """The distinct pairs among (i, j), ascending by i and then j, of an
    AllPairs block of records [r0, r1): r0 <= i < r1 and 0 <= j < r1. A pair
    is the key (i - r0) * r1 + j, held as uint32 where (r1 - r0) * r1 < 2^32
    and as uint64 otherwise; one sort and a neighbour mask dedup the keys,
    and i and j are read back off them as int64."""
    dtype = np.uint32 if (r1 - r0) * r1 < 2 ** 32 else np.uint64
    key = (i - r0).astype(dtype)
    key *= dtype(r1)
    key += j.astype(dtype)
    key.sort()
    keep = np.empty(key.size, dtype=bool)
    keep[:1] = True
    np.not_equal(key[1:], key[:-1], out=keep[1:])
    i, j = np.divmod(key[keep], dtype(r1))
    return i.astype(np.int64) + r0, j.astype(np.int64)


def _folds(data: Dataset) -> np.ndarray:
    """Each record's fold: the OR of 1 << (t & 63) over its tokens t, one
    uint64 per record."""
    bits = (data.tokens & 63).astype(np.uint64)
    np.left_shift(np.uint64(1), bits, out=bits)
    return np.bitwise_or.reduceat(bits, data.indptr[:-1])


def _fold_overlap_bound(fold_a, fold_b, size_a, size_b) -> np.ndarray:
    """(s_a + s_b - h) // 2 >= |x_a & x_b|, h = popcount(fold_a ^ fold_b):
    each bit set in one fold alone has a token of that record at its residue
    mod 64, and none of the other record, so h distinct tokens lie in the
    symmetric difference, whose size is s_a + s_b - 2|x_a & x_b|."""
    return (size_a + size_b - np.bitwise_count(fold_a ^ fold_b)) // 2


def _fold_filter_pays(data: Dataset, folds: np.ndarray, threshold: float) -> bool:
    """The one rule that decides whether AllPairs drops candidates on their
    fold bound before verifying them: where

        64 f (1 - f) > s (1 - t) / (1 + t),

    f the mean fold popcount over 64, s the mean record size and t the
    threshold. The left side is half the expected h of two random folds; the
    right side is half the h at which a pair of two size-s records is
    dropped, since (2s - h) / 2 then falls below the overlap t / (1 + t) * 2s
    a result needs. Saturated folds (f near 1) prune nothing and cost a pass.

    Measured basis (2 vCPUs, AllPairs with the filter forced on against
    forced off, best of 6 in 3 alternating rounds, pairs and counters
    equal). On `gen_uniform(n, avg, d)` at 0.5 / 0.7 / 0.9 it changed the
    join by -34 / -34 / -38% at (4000, 30, 300), -57 / -53 / -45% at (4000,
    30, 3000), +21 / -32 / -39% at (3000, 60, 600), +17 / +11 / -49% at
    (2000, 100, 3000) and -5 / +4 / -11% at (2000, 150, 10^4); the rule
    picks the faster side in all but the last at 0.9 (5.5 against 7.9). On
    the benchmark's `clusters` records (seed 21, 15.2 against 5.5 at 0.7)
    50,880 of 154,284 candidates survive, exactly the results, and the
    join's median fell from 51-72 to 28-39 ms (four alternating rounds of 30
    joins). The acceptance gate's `tokens` set (343 tokens a record) reads
    0.1 against 114.5, 60.6 and 18.1 at 0.5, 0.7 and 0.9, so it skips:
    forced on, the filter slowed those joins by 8, 2 and 12% (best of 2
    alternating, one BLAS thread).
    """
    if folds.size == 0:
        return False
    f = float(np.bitwise_count(folds).mean()) / 64
    return 64 * f * (1 - f) > data.tokens.size / data.n * (1 - threshold) / (1 + threshold)


def _check_threshold(threshold: float):
    if not 0.0 < threshold <= 1.0:
        raise ValueError(f"threshold must be in (0, 1], got {threshold}")
