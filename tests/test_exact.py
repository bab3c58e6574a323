"""Exact join tests.

The two exact algorithms are each other's oracle: the quadratic matrix join
and the inverted-index prefix join must agree on every dataset. Individual
predicates (verify, min_overlap, prefix_length) are pinned by hand-computable
cases and by property tests against the direct Jaccard formula. The array-pass
AllPairs is also checked against a per-record loop reference, pairs and
counters alike.
"""

import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from setjoin import exact
from setjoin.datasets import Dataset, gen_uniform
from setjoin.errors import CanonicalOrderError
from setjoin.exact import (
    _EPS,
    allpairs_join,
    brute_force_join,
    brute_force_join_multi,
    jaccard,
    min_overlap,
    prefix_length,
    verify,
    verify_pairs,
)
from setjoin.stats import JoinStats, decode_pairs, encode_pairs


def test_jaccard_known_values():
    assert jaccard([1, 2, 3], [2, 3, 4]) == 0.5
    assert jaccard([1, 2], [3, 4]) == 0.0
    assert jaccard([5, 6, 7], [5, 6, 7]) == 1.0
    assert jaccard([1, 2], [2, 3]) == pytest.approx(1 / 3)


def test_verify_at_exact_boundary():
    x = np.array([1, 2], dtype=np.uint32)
    y = np.array([2, 3], dtype=np.uint32)
    assert verify(x, y, 1 / 3)
    assert not verify(x, y, 1 / 3 + 1e-9)


def test_verify_early_exit_cases():
    # required overlap exceeds the smaller set: no merge needed
    assert not verify(np.arange(2), np.arange(100), 0.5)
    # bail mid-merge once the remaining tail cannot reach the overlap bound
    x = np.array([0, 1, 2, 3], dtype=np.uint32)
    y = np.array([10, 11, 12, 13], dtype=np.uint32)
    assert not verify(x, y, 0.5)
    assert verify(np.arange(10), np.arange(10), 1.0)


sets_strategy = st.sets(st.integers(min_value=0, max_value=60), min_size=1, max_size=25)


@settings(max_examples=300, deadline=None)
@given(sets_strategy, sets_strategy, st.sampled_from([0.2, 1 / 3, 0.5, 0.7, 0.9, 1.0]))
def test_verify_agrees_with_jaccard(xs, ys, lam):
    x = np.array(sorted(xs), dtype=np.uint32)
    y = np.array(sorted(ys), dtype=np.uint32)
    assert verify(x, y, lam) == (jaccard(x, y) >= lam)


def test_min_overlap_is_tight():
    # sizes 4 and 6 at threshold 0.5: c=4 gives J=0.667, c=3 gives 0.429
    assert min_overlap(0.5, 4, 6) == 4
    assert jaccard(np.arange(4), np.arange(4 + 2)) >= 0.5
    for lam in (0.3, 0.5, 0.75, 0.9):
        for sa in (2, 5, 40):
            for sb in (2, 17, 40):
                c = min_overlap(lam, sa, sb)
                assert c / (sa + sb - c) >= lam
                if c > 1:
                    assert (c - 1) / (sa + sb - (c - 1)) < lam


def test_prefix_length_known_values():
    assert prefix_length(0.5, 8) == 5
    assert prefix_length(1.0, 8) == 1
    assert prefix_length(0.9, 10) == 2


def test_verify_pairs_bitset_and_merge_routes_agree():
    ds = gen_uniform(120, 8, 50, seed=1)
    rng = np.random.default_rng(2)
    a = rng.integers(0, ds.n, size=300)
    b = rng.integers(0, ds.n, size=300)
    got = verify_pairs(ds, a, b, 0.4)
    assert ds.bitset() is not None  # the vectorized route was exercised
    want = np.array([verify(ds.record(int(i)), ds.record(int(j)), 0.4)
                     for i, j in zip(a, b)])
    assert np.array_equal(got, want)


def _random_dataset(rng):
    n = int(rng.integers(30, 200))
    d = int(rng.integers(30, 400))
    sizes = rng.integers(2, min(30, d), size=n)
    return Dataset.from_records([rng.choice(d, size=int(s), replace=False)
                                 for s in sizes])


def test_exact_joins_agree_on_random_data():
    rng = np.random.default_rng(3)
    for _ in range(10):
        ds = _random_dataset(rng)
        for lam in (0.3, 0.5, 0.8):
            pairs_bf, st_bf = brute_force_join(ds, lam)
            pairs_ap, st_ap = allpairs_join(ds, lam)
            assert np.array_equal(pairs_bf, pairs_ap)
            assert st_bf.counters_ok() and st_ap.counters_ok()
            assert st_ap.results == len(pairs_ap)


def test_prefix_filter_is_lossless():
    rng = np.random.default_rng(4)
    ds = _random_dataset(rng)
    for lam in (0.4, 0.7):
        full, st_full = allpairs_join(ds, lam, prefix_filter=False)
        filt, st_filt = allpairs_join(ds, lam, prefix_filter=True)
        assert np.array_equal(full, filt)
        # the filter only removes work, never results
        assert st_filt.pre_candidates <= st_full.pre_candidates
        assert st_filt.candidates <= st_full.candidates


def test_reported_pairs_actually_meet_threshold():
    ds = gen_uniform(300, 10, 40, seed=5)
    pairs, _ = allpairs_join(ds, 0.5)
    assert len(pairs) > 0
    for a, b in pairs:
        assert jaccard(ds.record(a), ds.record(b)) >= 0.5
    # and no i >= j pairs, no duplicates
    assert (pairs[:, 0] < pairs[:, 1]).all()
    assert np.unique(pairs, axis=0).shape == pairs.shape


def test_threshold_one_returns_no_pairs_on_deduped_data():
    ds = gen_uniform(200, 6, 30, seed=6)
    pairs, _ = brute_force_join(ds, 1.0)
    assert len(pairs) == 0
    pairs, _ = allpairs_join(ds, 1.0)
    assert len(pairs) == 0


def test_allpairs_requires_canonical_data():
    ds = Dataset.from_records([[1, 2], [2, 3]], canonical=False)
    with pytest.raises(CanonicalOrderError):
        allpairs_join(ds, 0.5)


def test_threshold_validation():
    ds = gen_uniform(10, 4, 20, seed=7)
    with pytest.raises(ValueError):
        brute_force_join(ds, 0.0)
    with pytest.raises(ValueError):
        allpairs_join(ds, 1.2)


def test_multi_threshold_matches_single_runs():
    ds = gen_uniform(150, 8, 35, seed=8)
    multi = brute_force_join_multi(ds, [0.4, 0.6, 0.9])
    for lam in (0.4, 0.6, 0.9):
        single_pairs, single_stats = brute_force_join(ds, lam)
        pairs, stats = multi[lam]
        assert np.array_equal(pairs, single_pairs)
        assert stats.pre_candidates == single_stats.pre_candidates == ds.n * (ds.n - 1) // 2
        assert stats.candidates == single_stats.candidates
        assert stats.results == len(pairs)


def test_brute_force_uses_sparse_route_on_large_universe():
    # records spread over a universe too large for the dense matrix path
    rng = np.random.default_rng(9)
    recs = [rng.choice(3_000_000, size=400, replace=False) for _ in range(60)]
    recs += [recs[0][:350], recs[1][:300]]  # a few overlapping pairs
    ds = Dataset.from_records(recs, canonical=False)  # keep sparse original ids
    dense_route_cells = ds.n * ds.d
    assert dense_route_cells > 2 ** 26  # really on the sparse path
    pairs, _ = brute_force_join(ds, 0.5)
    want = []
    for i in range(ds.n):
        for j in range(i + 1, ds.n):
            if jaccard(ds.record(i), ds.record(j)) >= 0.5:
                want.append((i, j))
    assert [tuple(p) for p in pairs] == want


def _allpairs_loop(data: Dataset, threshold: float, prefix_filter: bool = True):
    """Reference AllPairs: one record and one prefix token at a time.

    Records are scanned in canonical order; each probes the postings of its
    prefix tokens among earlier records (size-filtered), gets verified against
    the unique candidates, then indexes its own prefix.
    """
    n = data.n
    sizes = data.sizes.astype(np.int64)
    stats = JoinStats()
    t0 = time.perf_counter()

    starts = np.zeros(data.d + 1, dtype=np.int64)
    np.cumsum(data.token_freq, out=starts[1:])
    post_ids = np.empty(data.tokens.size, dtype=np.int64)
    fill = np.zeros(data.d, dtype=np.int64)

    codes = []
    for i in range(n):
        rec = data.record(i)
        s = int(sizes[i])
        plen = prefix_length(threshold, s) if prefix_filter else s
        size_cut = threshold * s - _EPS
        slices = []
        for tok in rec[:plen].astype(np.intp):
            sl = post_ids[starts[tok]:starts[tok] + fill[tok]]
            if sl.size:
                # postings are appended in processing order, so sizes ascend
                lo = int(np.searchsorted(sizes[sl], size_cut, side="left"))
                sl = sl[lo:]
                stats.pre_candidates += sl.size
                if sl.size:
                    slices.append(sl)
        if slices:
            cand = np.unique(np.concatenate(slices))
            stats.candidates += cand.size
            ok = verify_pairs(data, cand, np.full(cand.size, i), threshold)
            if ok.any():
                codes.append(encode_pairs(cand[ok], np.full(int(ok.sum()), i)))
        for tok in rec[:plen].astype(np.intp):
            post_ids[starts[tok] + fill[tok]] = i
            fill[tok] += 1

    merged = np.sort(np.concatenate(codes)) if codes else np.zeros(0, dtype=np.uint64)
    stats.results = merged.size
    stats.join_s = time.perf_counter() - t0
    return decode_pairs(merged), stats


def _assert_same_join(got, want):
    (pairs, stats), (want_pairs, want_stats) = got, want
    assert pairs.dtype == want_pairs.dtype == np.int64
    assert np.array_equal(pairs, want_pairs)
    assert (stats.pre_candidates, stats.candidates, stats.results) == \
        (want_stats.pre_candidates, want_stats.candidates, want_stats.results)


@pytest.mark.parametrize("prefix_filter", [True, False])
@pytest.mark.parametrize("lam", [1 / 3, 0.5, 0.9, 1.0])
def test_allpairs_matches_per_record_loop(lam, prefix_filter):
    rng = np.random.default_rng(10)
    for _ in range(6):
        ds = _random_dataset(rng)
        _assert_same_join(allpairs_join(ds, lam, prefix_filter),
                          _allpairs_loop(ds, lam, prefix_filter))


@pytest.mark.parametrize("prefix_filter", [True, False])
def test_allpairs_matches_loop_when_one_record_overflows_a_block(monkeypatch, prefix_filter):
    # near-duplicates share most tokens, so later records repeat candidates
    # across their prefix tokens and each has more pairs than a block holds
    base = np.arange(12)
    recs = [np.concatenate([np.delete(base, k), [100 + k]]) for k in range(12)]
    ds = Dataset.from_records(recs + [np.arange(200, 215), np.arange(205, 220)])
    monkeypatch.setattr(exact, "_PAIR_BLOCK", 3)
    monkeypatch.setattr(exact, "_VERIFY_BLOCK", 2)
    for lam in (1 / 3, 0.7):
        got = allpairs_join(ds, lam, prefix_filter)
        want = _allpairs_loop(ds, lam, prefix_filter)
        assert np.bincount(want[0][:, 1]).max() > exact._PAIR_BLOCK
        _assert_same_join(got, want)
