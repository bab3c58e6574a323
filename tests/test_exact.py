"""Exact join tests.

The two exact algorithms are each other's oracle: the quadratic matrix join
and the inverted-index prefix join must agree on every dataset. Individual
predicates (verify, min_overlap, prefix_length) are pinned by hand-computable
cases and by property tests against the direct Jaccard formula. Batch
verification must give the same intersection counts on all three routes:
whole bitset rows, the non-zero bitset words and the bitset-free CSR rows.
The route follows the bitset's fill, and the word lists are built once per
dataset and freed with it. The array-pass AllPairs is also checked against a
per-record loop reference, pairs and counters alike, and its positional
filter at its exact bound and against brute force on near-duplicates; its
block pair keys round-trip every pair on both key widths. Its fold bound is
never below the true overlap, saturated folds included; with
the fold filter forced on and off it matches brute force on every verify
route, and its rule drops candidates on clustered sets and skips saturated
folds. The quadratic join's upper-triangle blocks are checked against a per-pair scan,
on both product routes and at block sizes down to one row, its candidates on
300 distinct sizes given in no order, and the float fact that lets it skip a size
test at its hits is a property test. Its bound over the columns below a cut
is a property test against the per-pair scan at forced cuts, its cut rule is
checked where the bound prunes and where it cannot, and its float32 route is
checked to stop where float32 stops being exact. Every join that counts on
the CSR route builds the records' CSR matrix once per dataset.
"""

import gc
import time
import tracemalloc
import weakref
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from setjoin import LshConfig, datasets, exact, lsh_join
from setjoin.datasets import Dataset, TokensSpec, gen_tokens, gen_uniform
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
    # required overlap exceeds the smaller set
    assert not verify(np.arange(2), np.arange(100), 0.5)
    # disjoint sets of equal size
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


def test_verify_pairs_bitset_and_probe_routes_agree(monkeypatch):
    ds = gen_uniform(120, 8, 50, seed=1)
    rng = np.random.default_rng(2)
    a = rng.integers(0, ds.n, size=300)
    b = rng.integers(0, ds.n, size=300)
    got = verify_pairs(ds, a, b, 0.4)
    assert ds.bitset() is not None  # the bitset route was exercised
    want = np.array([verify(ds.record(int(i)), ds.record(int(j)), 0.4)
                     for i, j in zip(a, b)])
    assert np.array_equal(got, want)
    monkeypatch.setattr(datasets, "_BITSET_BYTE_CAP", 0)
    bare = gen_uniform(120, 8, 50, seed=1)
    assert bare.bitset() is None  # the CSR route is exercised
    assert np.array_equal(verify_pairs(bare, a, b, 0.4), want)


def test_probe_matches_bitset_over_several_blocks(monkeypatch):
    ds = gen_uniform(200, 12, 60, seed=12)
    rng = np.random.default_rng(13)
    a = rng.integers(0, ds.n, size=500)
    b = rng.integers(0, ds.n, size=500)
    a[:25] = b[:25]  # a record against itself
    c = np.array([np.intersect1d(ds.record(int(i)), ds.record(int(j))).size
                  for i, j in zip(a, b)])
    union = ds.sizes[a] + ds.sizes[b] - c
    assert ds.bitset() is not None
    monkeypatch.setattr(datasets, "_BITSET_BYTE_CAP", 0)
    # 84 CSR entries a block, 12 a record (2,382 in 200): blocks of 7 pairs,
    # 72 of them, the last one short; the bitset side runs in blocks too
    monkeypatch.setattr(exact, "_CSR_VERIFY_BLOCK", 84)
    monkeypatch.setattr(exact, "_VERIFY_BLOCK", 84)
    bare = gen_uniform(200, 12, 60, seed=12)
    assert bare.bitset() is None
    for lam in (1 / 3, 0.5, 1.0):
        want = c / union >= lam
        assert np.array_equal(verify_pairs(bare, a, b, lam), want)
        assert np.array_equal(verify_pairs(ds, a, b, lam), want)
    assert verify_pairs(bare, a[:25], b[:25], 1.0).all()


def test_verify_pairs_without_a_bitset_on_32_bit_token_ids(monkeypatch):
    # input ids up to 0xFFFFFFFF, renumbered by the canonical build, and the
    # bitset over its cap: the CSR route
    monkeypatch.setattr(datasets, "_BITSET_BYTE_CAP", 0)
    rng = np.random.default_rng(16)
    top = 0xFFFFFFFF
    recs = [rng.choice(64, size=int(s), replace=False) + (top - 63)
            for s in rng.integers(1, 20, size=40)]
    recs[0][0] = top
    recs += [recs[0][1:], np.concatenate([recs[1], [0]])]  # near-duplicates
    ds = Dataset.from_records(recs)
    assert ds.d == 65 and ds.bitset() is None  # 64 ids near 2^32, and 0
    a, b = np.triu_indices(ds.n, 1)
    for lam in (0.2, 0.5, 0.9):
        want = [verify(ds.record(int(i)), ds.record(int(j)), lam) for i, j in zip(a, b)]
        got = verify_pairs(ds, a, b, lam)
        assert np.array_equal(got, want)
        assert got.any() and not got.all()


def _force_route(monkeypatch, route):
    """Send `verify_pairs` down one route, whatever the dataset's shape."""
    if route == "csr":
        monkeypatch.setattr(datasets, "_BITSET_BYTE_CAP", 0)
    else:
        monkeypatch.setattr(exact, "_GATHER_COST", 0 if route == "words" else 2 ** 40)


def _word_boundary_records():
    """Records over [0, 192), three 64-id words, and records that hold ids
    63, 64 and 127 on both sides of a word boundary, among them one with an
    id in every word and ones with ids in one or two."""
    rng = np.random.default_rng(21)
    recs = [np.array([0, 63, 64, 127, 128, 191]), np.array([62, 63]),
            np.array([63, 64]), np.array([63, 64, 127]), np.array([64, 127, 128])]
    recs += [rng.choice(192, size=int(s), replace=False) for s in rng.integers(2, 30, size=60)]
    recs += [np.union1d(r, [63, 64, 127]) for r in recs[5:25]]
    return recs


@pytest.mark.parametrize("canonical", [True, False])
@pytest.mark.parametrize("route", ["dense", "words", "csr"])
def test_every_verify_route_gives_the_same_counts(monkeypatch, route, canonical):
    _force_route(monkeypatch, route)
    recs = _word_boundary_records()
    if canonical:  # given as a canonical dataset holds them, ids renumbered
        recs = list(Dataset.from_records(recs).records())
    ds = Dataset.from_records(recs)
    assert (ds.bitset() is None) == (route == "csr") and (ds.d + 63) >> 6 == 3  # three words
    rng = np.random.default_rng(22)
    m = 499  # a prime, so blocks of 2 or more pairs end in a short one
    a = rng.integers(0, ds.n, size=m)
    b = rng.integers(0, ds.n, size=m)
    a[:20] = b[:20]  # a record with itself
    a[20:40], b[20:40] = np.arange(20), 0  # a > b, and record 0 with each of the first 20
    c = np.array([np.intersect1d(ds.record(int(i)), ds.record(int(j))).size
                  for i, j in zip(a, b)])
    union = ds.sizes[a] + ds.sizes[b] - c
    words = np.diff(ds.bitset_words()[0])
    # the word route reads the lower id's words: at times the more of the two
    assert (words[np.minimum(a, b)] > words[np.maximum(a, b)]).any()
    widest = max((ds.d + 63) >> 6, int(ds.sizes.max()))
    # no route's mean row is wider than `widest`: 4 pairs a block or more
    monkeypatch.setattr(exact, "_VERIFY_BLOCK", 4 * widest)
    blocks = []
    word_intersections = exact._word_intersections

    def spy(*args):
        blocks.append(args[-1].size)
        return word_intersections(*args)

    monkeypatch.setattr(exact, "_word_intersections", spy)
    for lam in (1 / 3, 0.5, 1.0):
        assert np.array_equal(verify_pairs(ds, a, b, lam), c / union >= lam)
    if route == "words":
        assert len(blocks) > 3 and sum(blocks) == 3 * m and blocks[-1] < blocks[0]
    else:
        assert not blocks
    assert verify_pairs(ds, a[:20], b[:20], 1.0).all()


def test_verify_route_follows_the_bitset_fill(monkeypatch):
    built = []
    bitset_words = Dataset.bitset_words

    def spy(data):
        built.append(data)
        return bitset_words(data)

    monkeypatch.setattr(Dataset, "bitset_words", spy)
    # about 30 tokens in 157 words: the word route
    sparse = gen_uniform(2000, 30, 10_000, seed=23)
    assert sparse.d > 9_900
    sparse.bitset()  # scattered from the word lists
    built.clear()
    a, b = np.random.default_rng(23).integers(0, sparse.n, size=(2, 5000))
    verify_pairs(sparse, a, b, 0.5)
    assert built == [sparse]
    # every word holds tokens: the dense route, which reads no word lists
    dense = gen_tokens(TokensSpec(d=800, max_freq=60, background_similarity=0.12, seed=23))
    assert dense.tokens.size * exact._GATHER_COST >= dense.bitset().size
    built.clear()
    a, b = np.triu_indices(dense.n, 1)
    verify_pairs(dense, a, b, 0.5)
    assert built == []


def test_word_lists_are_built_once_and_die_with_their_dataset():
    ds = gen_uniform(600, 10, 10_000, seed=24)
    assert ds.tokens.size * exact._GATHER_COST < ds.bitset().size  # the word route
    pairs, _ = allpairs_join(ds, 0.2)
    lists = ds.bitset_words()
    verify_pairs(ds, pairs[:, 0], pairs[:, 1], 0.5)
    allpairs_join(ds, 0.1)
    assert ds.bitset_words() is lists  # built once, with the bitset
    # Dataset has no __weakref__ slot; its arrays do, and nothing else holds them
    refs = [weakref.ref(x) for x in (ds.bitset(), *lists)]
    del ds, lists, pairs
    gc.collect()
    assert all(ref() is None for ref in refs)


@pytest.mark.parametrize("join", ["allpairs", "lsh", "bruteforce"])
def test_a_join_builds_the_csr_view_once(monkeypatch, join):
    # no bitset: every verify block reads the records' CSR matrix, which the
    # dataset holds from the first read, and the oracle's sparse blocks
    # multiply that same matrix
    monkeypatch.setattr(datasets, "_BITSET_BYTE_CAP", 0)
    monkeypatch.setattr(exact, "_DENSE_CELL_CAP", 0)
    monkeypatch.setattr(exact, "_PAIR_BLOCK", 2 ** 10)
    monkeypatch.setattr(exact, "_BLOCK_CELLS", 2 ** 14)
    ds = gen_uniform(400, 10, 200, seed=25)
    assert ds.bitset() is None
    built, calls = _memo_builds(monkeypatch), []
    counts = exact._intersection_counts
    monkeypatch.setattr(exact, "_intersection_counts",
                        lambda *args: calls.append(args[1].size) or counts(*args))
    run = {"allpairs": lambda: allpairs_join(ds, 0.3),
           "lsh": lambda: lsh_join(ds, LshConfig(threshold=0.5, seed=3)),
           "bruteforce": lambda: brute_force_join(ds, 0.3)}[join]
    run()
    assert len(calls) > 1 and built.count("csr") == 1 and exact._csr(ds).shape == (ds.n, ds.d)
    run()
    assert built.count("csr") == 1
    view = weakref.ref(exact._csr(ds))
    del ds, run
    gc.collect()
    assert view() is None  # it dies with its dataset


def _memo_builds(monkeypatch) -> list:
    """The keys of the views datasets build through `Dataset.memo` from here
    on, in build order."""
    built, memo = [], Dataset.memo
    monkeypatch.setattr(Dataset, "memo", lambda self, key, build:
                        memo(self, key, lambda: built.append(key) or build()))
    return built


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


def test_allpairs_size_filter_keeps_a_pair_at_exactly_the_threshold():
    # 27 of 42 tokens shared: Jaccard 27/42 == 9/14 exactly, but
    # 9/14 * 42 evaluates to 27.000000000000004, so a size filter of
    # ceil(threshold * size) with no tolerance would ask for 28 tokens.
    lam = 9 / 14
    assert lam * 42 > 27
    ds = Dataset.from_records([np.arange(27), np.arange(42)])
    pairs, stats = allpairs_join(ds, lam)
    assert pairs.tolist() == [[0, 1]]
    assert stats.results == 1
    assert np.array_equal(pairs, brute_force_join(ds, lam)[0])


@pytest.mark.parametrize("prefix_filter", [True, False])
def test_positional_filter_keeps_a_pair_at_exactly_its_bound(prefix_filter):
    # 4 of 6 and 8 tokens shared: Jaccard 4/10 == 0.4 exactly, and the shared
    # tokens, the most frequent, end both records. At the first of them
    # 1 + min(rest_i, rest_j) is 4 == min_overlap, and the pair is kept only
    # if both steps of the positional filter keep their bound inclusively;
    # 0.4/1.4 * 14 evaluates to 4.000000000000001, so neither may drop the
    # 1e-9 slack either.
    lam = 0.4
    assert lam / (1 + lam) * 14 > 4
    ds = Dataset.from_records([[0, 1, 2, 3, 10, 11], [0, 1, 2, 3, 20, 21, 22, 23]])
    x, y = ds.record(0), ds.record(1)
    assert jaccard(x, y) == lam
    first = int(np.intersect1d(x, y).min())
    rest_x = x.size - 1 - int(np.flatnonzero(x == first)[0])
    rest_y = y.size - 1 - int(np.flatnonzero(y == first)[0])
    assert 1 + rest_x == 1 + rest_y == min_overlap(lam, 6, 8) == 4  # tight on both records
    pairs, stats = allpairs_join(ds, lam, prefix_filter)
    assert pairs.tolist() == [[0, 1]]
    assert (stats.candidates, stats.results) == (1, 1)


def test_threshold_one_returns_no_pairs_on_deduped_data():
    ds = gen_uniform(200, 6, 30, seed=6)
    pairs, _ = brute_force_join(ds, 1.0)
    assert len(pairs) == 0
    pairs, _ = allpairs_join(ds, 1.0)
    assert len(pairs) == 0


def test_threshold_validation():
    ds = gen_uniform(10, 4, 20, seed=7)
    with pytest.raises(ValueError):
        brute_force_join(ds, 0.0)
    with pytest.raises(ValueError):
        allpairs_join(ds, 1.2)


@pytest.mark.parametrize("bad", [0.0, -1.0, 1.5])
def test_multi_threshold_join_rejects_each_bad_threshold(bad):
    # at 0 or below, every pair would pass, J = 0 included
    ds = gen_uniform(50, 6, 30, seed=1)
    for thresholds in ([bad], [0.5, bad]):
        with pytest.raises(ValueError, match="threshold must be in"):
            brute_force_join_multi(ds, thresholds)


def test_multi_threshold_join_needs_a_threshold():
    with pytest.raises(ValueError, match="need at least one threshold"):
        brute_force_join_multi(gen_uniform(50, 6, 30, seed=1), [])


def test_multi_threshold_join_reports_a_repeated_threshold_once():
    ds = gen_uniform(60, 6, 30, seed=2)
    pairs, stats = brute_force_join(ds, 0.5)
    assert stats.results == 6
    multi = brute_force_join_multi(ds, [0.5, 0.5])
    assert list(multi) == [0.5]
    assert np.array_equal(multi[0.5][0], pairs)
    assert multi[0.5][1].results == 6


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


def test_brute_force_uses_sparse_route_on_large_universe(monkeypatch):
    # records over a large universe of mostly single-use ids; a cap just
    # below the dense matrix's n * d cells sends the oracle to the sparse route
    rng = np.random.default_rng(9)
    recs = [rng.choice(3_000_000, size=400, replace=False) for _ in range(60)]
    recs += [recs[0][:350], recs[1][:300]]  # a few overlapping pairs
    ds = Dataset.from_records(recs)
    assert ds.d > 20_000
    monkeypatch.setattr(exact, "_DENSE_CELL_CAP", ds.n * ds.d - 1)
    built = _memo_builds(monkeypatch)
    pairs, _ = brute_force_join(ds, 0.5)
    assert built.count("csr") == 1 and exact._csr(ds).shape == (ds.n, ds.d)
    want = []
    for i in range(ds.n):
        for j in range(i + 1, ds.n):
            if jaccard(ds.record(i), ds.record(j)) >= 0.5:
                want.append((i, j))
    assert [tuple(p) for p in pairs] == want


def _tiling_records():
    """Records of many sizes, given in no size order, with the 27-in-42 pair whose
    Jaccard is exactly 9/14 (see the AllPairs size-filter test above)."""
    rng = np.random.default_rng(14)
    recs = [rng.choice(60, size=int(s), replace=False) for s in rng.integers(2, 46, size=45)]
    recs[10:10] = [np.arange(27), np.arange(42)]
    recs += [recs[3][:-1], np.concatenate([recs[7], [60, 61]])]  # near-duplicates
    return recs


def _per_pair_scan(data: Dataset, lam: float):
    """Reference brute force: every pair i < j, its Jaccard and size filter."""
    pairs, candidates = [], 0
    for i in range(data.n):
        for j in range(i + 1, data.n):
            small, large = sorted((int(data.sizes[i]), int(data.sizes[j])))
            candidates += lam * large <= small + _EPS
            if jaccard(data.record(i), data.record(j)) >= lam:
                pairs.append((i, j))
    return pairs, candidates


@pytest.mark.parametrize("route", ["dense", "sparse"])
@pytest.mark.parametrize("block_cells", [1, 130, 2 ** 19])
@pytest.mark.parametrize("bitset", [True, False])
def test_brute_force_triangle_blocks_match_per_pair_scan(monkeypatch, route, block_cells,
                                                         bitset):
    # without a bitset the kept pairs are counted on the CSR route
    if not bitset:
        monkeypatch.setattr(datasets, "_BITSET_BYTE_CAP", 0)
    ds = Dataset.from_records(_tiling_records())
    assert (ds.bitset() is not None) == bitset
    monkeypatch.setattr(exact, "_BLOCK_CELLS", block_cells)
    if route == "sparse":
        monkeypatch.setattr(exact, "_DENSE_CELL_CAP", 0)
    # every block spans rows [i0, i1) and columns [i0, n), and the blocks
    # cover each row once; 130 cells cut the first blocks mid-triangle
    blocks, next_row = 0, 0
    for i0, counts in exact._intersection_blocks(ds):
        rows = counts.shape[0]
        assert i0 == next_row and counts.shape[1] == ds.n - i0
        assert rows == min(ds.n - i0, max(1, block_cells // (ds.n - i0)))
        want = [[np.intersect1d(ds.record(i), ds.record(j)).size
                 for j in range(i0, ds.n)] for i in range(i0, i0 + rows)]
        assert np.array_equal(counts, want)
        blocks, next_row = blocks + 1, i0 + rows
    assert next_row == ds.n
    if block_cells == 130:
        assert 1 < blocks < ds.n
    lams = (0.2, 1 / 3, 0.5, 9 / 14, 0.8, 1.0)
    multi = brute_force_join_multi(ds, lams)
    for lam in lams:
        pairs, stats = multi[lam]
        want_pairs, want_candidates = _per_pair_scan(ds, lam)
        assert [tuple(p) for p in pairs.tolist()] == want_pairs
        assert stats.candidates == want_candidates
        assert stats.results == len(want_pairs)
        assert stats.pre_candidates == ds.n * (ds.n - 1) // 2
    # the 27-in-42 pair is found: sizes 27 and 42 reach 9/14 only at c = 27
    assert any(sorted(ds.sizes[p].tolist()) == [27, 42] for p in multi[9 / 14][0])


@settings(max_examples=500, deadline=None)
@given(st.integers(2, 2 ** 21), st.integers(2, 2 ** 21), st.data())
def test_a_jaccard_hit_passes_the_size_filter(size_a, size_b, data):
    # why brute force needs no size test at its hits: a float64 c / u that
    # reaches the threshold keeps lam * max within the filter's 1e-9 slack
    small, large = sorted((size_a, size_b))
    c = data.draw(st.integers(1, small))
    sim = np.float64(c) / np.float64(size_a + size_b - c)
    # the largest threshold the hit reaches is the tightest case
    lam = data.draw(st.one_of(st.just(float(sim)), st.floats(0, 1, exclude_min=True)))
    if sim >= lam:
        assert lam * large <= small + _EPS


def test_brute_force_candidates_over_many_sizes_in_no_order():
    rng = np.random.default_rng(3)
    recs = [rng.choice(400, size=s, replace=False) for s in rng.permutation(np.arange(2, 302))]
    ds = Dataset.from_records(recs)
    sizes = ds.sizes.astype(np.int64)
    assert np.unique(sizes).size == ds.n == 300
    i, j = np.triu_indices(ds.n, 1)
    lams = (0.2, 1 / 3, 0.5, 0.7, 0.9, 1.0)
    multi = brute_force_join_multi(ds, lams)
    for lam in lams:
        pairs, stats = multi[lam]
        small, large = np.minimum(sizes[i], sizes[j]), np.maximum(sizes[i], sizes[j])
        assert stats.candidates == int((lam * large <= small + _EPS).sum())
        hit = verify_pairs(ds, i, j, lam)
        assert np.array_equal(pairs, np.stack([i[hit], j[hit]], axis=1))
    assert multi[0.5][1].results > 0


@st.composite
def _oracle_records(draw):
    """Up to 18 records over 51 ids, at times with the 27-in-42 pair whose
    Jaccard is exactly 9/14."""
    recs = draw(st.lists(st.sets(st.integers(0, 50), min_size=2, max_size=30),
                         min_size=2, max_size=18))
    if draw(st.booleans()):
        recs += [set(range(27)), set(range(42))]
    return [np.array(sorted(r)) for r in recs]


@settings(max_examples=150, deadline=None)
@given(_oracle_records(), st.sampled_from(["dense", "sparse"]),
       st.sampled_from(["none", "mid", "all"]))
def test_the_oracle_bound_is_lossless_at_any_cut(records, route, cut):
    ds = Dataset.from_records(records)
    forced = {"none": 0, "mid": ds.d // 2, "all": ds.d}[cut]
    lams = (0.2, 1 / 3, 0.5, 9 / 14, 0.8, 1.0)
    with mock.patch.object(exact, "_choose_cut", lambda *args: forced), \
            mock.patch.object(exact, "_DENSE_CELL_CAP", 0 if route == "sparse" else exact._DENSE_CELL_CAP):
        multi = brute_force_join_multi(ds, lams)
    for lam in lams:
        pairs, stats = multi[lam]
        want_pairs, want_candidates = _per_pair_scan(ds, lam)
        assert [tuple(p) for p in pairs.tolist()] == want_pairs
        assert (stats.pre_candidates, stats.candidates, stats.results) == \
            (ds.n * (ds.n - 1) // 2, want_candidates, len(want_pairs))


def _verified_pairs(monkeypatch, ds, lam, cut=None):
    """The pairs the oracle gives exact counts at `lam`, with the cut its
    rule picks or, if given, `cut`."""
    verified = []
    counts = exact._intersection_counts
    monkeypatch.setattr(exact, "_intersection_counts",
                        lambda data, a, b: verified.append(a.size) or counts(data, a, b))
    if cut is not None:
        monkeypatch.setattr(exact, "_choose_cut", lambda *args: cut)
    brute_force_join(ds, lam)
    monkeypatch.undo()
    return sum(verified)


def test_the_cut_rule_bounds_the_rare_columns_of_the_benchmark_tokens_recipe(monkeypatch):
    ds = gen_tokens(TokensSpec(
        d=800, max_freq=700, background_similarity=0.12,
        planted=((0.55, 10), (0.65, 10), (0.75, 10), (0.85, 10), (0.95, 10)), seed=21))
    cut = exact._choose_cut(ds, 0.5 / 1.5)
    assert 0.3 * ds.d < cut < ds.d
    # the product skips the rare columns for a few more verified pairs
    pairs, stats = brute_force_join(ds, 0.5)
    assert stats.results > 4000
    assert stats.results < _verified_pairs(monkeypatch, ds, 0.5) < 20 * stats.results
    with mock.patch.object(exact, "_choose_cut", lambda *args: 0):
        assert np.array_equal(brute_force_join(ds, 0.5)[0], pairs)


def test_the_cut_rule_keeps_every_column_where_the_bound_cannot_prune(monkeypatch):
    # 12 ids, each in about half the records: bounding even the rarest
    # column keeps thousands more pairs than it saves cells
    ds = gen_uniform(500, 6, 12, seed=1)
    assert exact._choose_cut(ds, 0.5 / 1.5) == 0
    exact_only = _verified_pairs(monkeypatch, ds, 0.5)
    assert exact_only == _verified_pairs(monkeypatch, ds, 0.5, cut=0)
    assert _verified_pairs(monkeypatch, ds, 0.5, cut=1) > exact_only + 3000


def test_the_int64_predicate_rejects_what_float32_sizes_accept():
    # records arange(2^24 + 1), arange(2^24) and arange(1, 2^24 + 2) at
    # lam = (s - 1) / (s + 1), s = 2^24 + 1: records 1 and 2 share 2^24 - 1
    # tokens of a union of 2^24 + 2, under the threshold; float32 sizes and
    # unions round that to 2^24 - 1 of 2^24 + 1 and accept it
    s = 2 ** 24 + 1
    lam = (s - 1) / (s + 1)
    c, size_a, size_b = np.int64(2 ** 24 - 1), np.int64(2 ** 24), np.int64(2 ** 24 + 1)
    assert not exact._jaccard_at_least(c, size_a, size_b, lam)
    as32 = np.float32
    union32 = as32(size_a) + as32(size_b) - as32(c)
    assert np.divide(as32(c), union32, dtype=np.float64) >= lam  # what the float32 route said


def test_the_dense_oracle_route_stops_where_float32_stops_being_exact(monkeypatch):
    # every cell of the bound, c_A - t_i with |t| <= s / 2 + 1 step, is a
    # multiple of the step under 2^24 steps at the cap
    cap, step = exact._DENSE_SIZE_CAP, exact._BOUND_STEP
    assert (cap + cap // 2 + 1) / step <= 2 ** 24
    big = Dataset.from_records([np.arange(s) for s in (cap, cap + 1)])
    assert exact._dense_route(Dataset.from_records([np.arange(cap)]))
    assert not exact._dense_route(big)
    # the same rule at a cap of 40 tokens: records past it take the int32
    # sparse blocks, and the results stand
    monkeypatch.setattr(exact, "_DENSE_SIZE_CAP", 40)
    ds = Dataset.from_records(_tiling_records())
    assert ds.sizes.max() > 40
    assert next(exact._intersection_blocks(ds))[1].dtype == np.int32
    for lam in (1 / 3, 9 / 14):
        assert [tuple(p) for p in brute_force_join(ds, lam)[0].tolist()] == \
            _per_pair_scan(ds, lam)[0]


def test_brute_force_memory_stays_bounded():
    # the acceptance tokens recipe: n = 4,928 records over 1,000 tokens; the
    # count matrix in one piece would be 4928^2 float32 cells, about 93 MB
    ds = gen_tokens(TokensSpec(
        d=1000, max_freq=1700,
        planted=((0.55, 10), (0.65, 10), (0.75, 10), (0.85, 10), (0.95, 10)), seed=41))
    assert ds.n == 4928
    tracemalloc.start()
    try:
        brute_force_join_multi(ds, (0.5, 0.6, 0.7, 0.8, 0.9))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 200 * 2 ** 20


def test_dense_oracle_matrix_is_built_in_4_bytes_per_token():
    # records of sizes 2..2,501: 3.1M tokens against a matrix of n * d cells;
    # two token-long intp index arrays would add 8 bytes per token each
    rng = np.random.default_rng(24)
    data = Dataset.from_records([rng.choice(2600, size=s, replace=False)
                                 for s in range(2, 2502)])
    assert data.d == 2600 and data.n * 2600 <= exact._DENSE_CELL_CAP
    tracemalloc.start()
    try:
        i0, counts = next(exact._intersection_blocks(data))  # the build and the first block
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert i0 == 0 and counts.dtype == np.float32
    assert peak < (data.n * 2600 * 4 + 4 * data.tokens.size + counts.nbytes
                   + 16 * exact._FILL_CHUNK + 2 ** 20)


def _allpairs_loop(data: Dataset, threshold: float, prefix_filter: bool = True):
    """Reference AllPairs: one record and one prefix token at a time.

    Records are scanned in canonical order; each probes the postings of its
    prefix tokens among earlier records (size-filtered), keeps a posting only
    if the tokens from the probe's and the posting's positions onward,
    1 + min(rest_i, rest_j), reach `min_overlap` (the positional filter),
    gets verified against the unique candidates, then indexes its own prefix
    with each token's position.
    """
    n = data.n
    sizes = data.sizes.astype(np.int64)
    stats = JoinStats()
    t0 = time.perf_counter()

    starts = np.zeros(data.d + 1, dtype=np.int64)
    np.cumsum(data.token_freq, out=starts[1:])
    post_ids = np.empty(data.tokens.size, dtype=np.int64)
    post_pos = np.empty(data.tokens.size, dtype=np.int64)
    fill = np.zeros(data.d, dtype=np.int64)

    codes = []
    for i in range(n):
        rec = data.record(i)
        s = int(sizes[i])
        plen = prefix_length(threshold, s) if prefix_filter else s
        size_cut = threshold * s - _EPS
        kept = []
        for p, tok in enumerate(rec[:plen].astype(np.intp)):
            sl = slice(starts[tok], starts[tok] + fill[tok])
            # postings are appended in processing order, so sizes ascend
            lo = int(np.searchsorted(sizes[post_ids[sl]], size_cut, side="left"))
            stats.pre_candidates += fill[tok] - lo
            for j, q in zip(post_ids[sl][lo:], post_pos[sl][lo:]):
                rest_i, rest_j = s - 1 - p, int(sizes[j]) - 1 - q
                if 1 + min(rest_i, rest_j) >= min_overlap(threshold, s, int(sizes[j])):
                    kept.append(j)
        if kept:
            cand = np.unique(kept)
            stats.candidates += cand.size
            ok = verify_pairs(data, cand, np.full(cand.size, i), threshold)
            if ok.any():
                codes.append(encode_pairs(cand[ok], np.full(int(ok.sum()), i)))
        for p, tok in enumerate(rec[:plen].astype(np.intp)):
            post_ids[starts[tok] + fill[tok]] = i
            post_pos[starts[tok] + fill[tok]] = p
            fill[tok] += 1

    merged = np.sort(np.concatenate(codes)) if codes else np.zeros(0, dtype=np.uint64)
    stats.results = merged.size
    stats.join_s = time.perf_counter() - t0
    return decode_pairs(merged), stats


def _near_duplicate_records(rng):
    """Uniform background sets plus clusters of near-duplicates, each member
    its center with a few tokens dropped and a few rare ones added."""
    recs = [rng.choice(60, size=int(s), replace=False) for s in rng.integers(2, 16, size=25)]
    for _ in range(4):
        center = rng.choice(60, size=int(rng.integers(6, 20)), replace=False)
        for _ in range(int(rng.integers(4, 12))):
            kept = np.delete(center, rng.choice(center.size, size=int(rng.integers(0, 3)),
                                                replace=False))
            recs.append(np.concatenate([kept, rng.integers(60, 90, size=int(rng.integers(0, 3)))]))
    return recs


@pytest.mark.parametrize("route", ["bitset", "probe"])
def test_positional_filter_is_lossless_on_near_duplicates(monkeypatch, route):
    if route == "probe":
        monkeypatch.setattr(datasets, "_BITSET_BYTE_CAP", 0)
    rng = np.random.default_rng(15)
    for _ in range(3):
        ds = Dataset.from_records(_near_duplicate_records(rng))
        assert (ds.bitset() is None) == (route == "probe")
        sharing = np.sort(ds.sizes[brute_force_join(ds, 1e-6)[0]], axis=1)
        for lam in (1e-6, 1 / 3, 0.7, 1.0):
            want, _ = brute_force_join(ds, lam)
            # pairs sharing a token that pass the size filter: what
            # whole-record prefixes verify without the positional filter
            sized = np.count_nonzero(lam * sharing[:, 1] <= sharing[:, 0] + _EPS)
            for prefix_filter in (True, False):
                got = allpairs_join(ds, lam, prefix_filter)
                assert np.array_equal(got[0], want)
                _assert_same_join(got, _allpairs_loop(ds, lam, prefix_filter))
                if lam == 1e-6:
                    # every pair sharing a token is a result; the range cut
                    # reaches past the largest size yet stays inside the
                    # token's postings of earlier records
                    assert got[1].candidates == got[1].results == sized == len(sharing)
                elif lam == 0.7:
                    assert got[1].results < got[1].candidates < sized  # the filter prunes


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


def test_the_fold_bound_is_never_below_the_intersection():
    rng = np.random.default_rng(30)
    top = 0xFFFFFFFF
    recs = []
    for kind, s in zip(rng.integers(3, size=150), rng.integers(2, 40, size=150)):
        if kind == 0:
            recs.append(rng.choice(200, size=s, replace=False))  # small ids
        elif kind == 1:
            recs.append(top - rng.choice(200, size=s, replace=False))  # 32-bit ids
        else:
            recs.append(rng.choice(400, size=s + 150, replace=False))  # mostly saturated
    recs += [np.arange(64), np.arange(64, 128), top - np.arange(70)]  # saturated
    # near-duplicates, each with a token at the residue of the one it drops
    recs += [np.union1d(r[1:], [r[0] ^ 64, top]) for r in recs[:40]]
    ds = Dataset.from_records(recs)
    folds = exact._folds(ds)
    want = [np.bitwise_or.reduce(np.uint64(1) << (ds.record(r).astype(np.uint64) % np.uint64(64)))
            for r in range(ds.n)]
    assert folds.dtype == np.uint64 and np.array_equal(folds, want)
    assert (np.bitwise_count(folds) == 64).sum() > 3
    x = np.zeros((ds.n, ds.d))
    x[np.repeat(np.arange(ds.n), ds.sizes), ds.tokens] = 1
    a, b = np.triu_indices(ds.n, 1)
    c = (x @ x.T)[a, b].astype(np.int64)
    sizes = ds.sizes.astype(np.int64)
    bound = exact._fold_overlap_bound(folds[a], folds[b], sizes[a], sizes[b])
    assert (bound >= c).all()
    assert (bound == c).any()  # tight, and below the smaller size, on some pairs
    assert (bound < np.minimum(sizes[a], sizes[b])).mean() > 0.45


@pytest.mark.parametrize("route", ["dense", "words", "csr"])
@pytest.mark.parametrize("fold", [True, False])
def test_allpairs_matches_brute_force_with_the_fold_filter_on_and_off(monkeypatch, fold, route):
    _force_route(monkeypatch, route)
    monkeypatch.setattr(exact, "_fold_filter_pays", lambda *args: fold)
    rng = np.random.default_rng(31)
    for ds in [Dataset.from_records(_near_duplicate_records(rng)) for _ in range(3)] \
            + [_random_dataset(rng) for _ in range(3)]:
        assert (ds.bitset() is None) == (route == "csr")
        for lam in (0.3, 0.7, 1.0):
            got = allpairs_join(ds, lam)
            assert np.array_equal(got[0], brute_force_join(ds, lam)[0])
            _assert_same_join(got, _allpairs_loop(ds, lam, True))


def _spy_verified(monkeypatch) -> list:
    """The number of pairs each `verify_pairs` call gets."""
    verified = []
    verify_pairs = exact.verify_pairs
    monkeypatch.setattr(exact, "verify_pairs",
                        lambda data, a, b, lam: verified.append(len(a)) or verify_pairs(data, a, b, lam))
    return verified


def test_the_fold_filter_drops_candidates_on_clustered_sets(monkeypatch):
    # the benchmark's clusters recipe at its small size: uniform background
    # sets plus clusters of near-duplicates
    rng = np.random.default_rng(32)
    recs = [rng.choice(1000, size=int(s), replace=False)
            for s in np.maximum(2, rng.poisson(30, size=500))]
    for _ in range(2):
        center = rng.choice(1000, size=40, replace=False)
        for _ in range(30):
            rec = center.copy()
            rec[rng.choice(40, size=2, replace=False)] = rng.integers(0, 1000, size=2)
            recs.append(rec)
    ds = Dataset.from_records(recs)
    assert exact._fold_filter_pays(ds, exact._folds(ds), 0.7)
    verified = _spy_verified(monkeypatch)
    pairs, stats = allpairs_join(ds, 0.7)
    assert np.array_equal(pairs, brute_force_join(ds, 0.7)[0])
    assert 0 < stats.results <= sum(verified) < stats.candidates / 2


def test_the_fold_filter_skips_saturated_folds(monkeypatch):
    # the acceptance gate's tokens recipe at a small size: every fold is
    # (nearly) full, so the bound prunes nothing
    ds = gen_tokens(TokensSpec(d=1000, max_freq=100, planted=((0.55, 3), (0.75, 3), (0.95, 3)),
                               seed=41))
    folds = exact._folds(ds)
    assert np.bitwise_count(folds).mean() > 63
    verified = _spy_verified(monkeypatch)
    for lam in (0.5, 0.7, 0.9):
        assert not exact._fold_filter_pays(ds, folds, lam)
        verified.clear()
        pairs, stats = allpairs_join(ds, lam)
        assert stats.results > 0 and sum(verified) == stats.candidates


# (r1 - r0) * r1 = 2^32 - 1 takes uint32 keys and 2^32 uint64 ones; at 2^40 a
# uint32 key would wrap
@pytest.mark.parametrize("r0, r1", [(2, 2 ** 16 + 1), (0, 2 ** 16), (0, 2 ** 20)])
def test_block_pair_keys_round_trip_every_pair_in_i_j_order(r0, r1):
    rng = np.random.default_rng(29)
    i = np.concatenate([[max(r0, 1), r1 - 1, r1 - 1], rng.integers(max(r0, 1), r1, 2000)])
    j = np.concatenate([[0, 0, r1 - 2], rng.integers(0, i[3:])])  # every j < i
    twice = rng.permutation(np.concatenate([np.arange(i.size)] * 2))
    got_i, got_j = exact._distinct_block_pairs(i[twice], j[twice], r0, r1)
    want = np.unique(np.column_stack([i, j]), axis=0)  # ascending by i, then j
    assert got_i.dtype == got_j.dtype == np.int64
    assert np.array_equal(np.column_stack([got_i, got_j]), want)
