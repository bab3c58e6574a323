"""The rank-table embedding must agree with the per-family reference, however
its tables are chunked and whichever kernel a block of records takes."""

import hashlib
import tracemalloc

import numpy as np
import pytest

from setjoin import cpsjoin
from setjoin import prep as prep_module
from setjoin.datasets import Dataset, TokensSpec, gen_tokens, gen_uniform
from setjoin.exact import allpairs_join
from setjoin.minhash import MinHashFamily
from setjoin.prep import _SIG_TAG, _SK_TAG, _UNIVERSE_CELL_CAP, preprocess
from setjoin.sketch import SketchFamily, filter_threshold, max_hamming
from setjoin.tabulation import derive_seed, hash_keys, splitmix64_array, table_tensor


def families(prep):
    """The one MinHash family a Prepared was built with, of
    max(sig_len, 16 * sketch_words) functions, and the sketch family whose
    bit functions pack its first 16 * sketch_words values."""
    count = 16 * prep.sketch_words
    fam = MinHashFamily(max(prep.sig_len, count), derive_seed(prep.seed, _SIG_TAG))
    sk_fam = SketchFamily(prep.sketch_words, derive_seed(prep.seed, _SK_TAG))
    return fam, sk_fam


def _check_against_families(prep):
    fam, sk_fam = families(prep)
    count = 16 * prep.sketch_words
    ds = prep.data
    for i in range(ds.n):
        values = fam.embed(ds.record(i))
        assert np.array_equal(prep.sig[i], values[:prep.sig_len])
        assert np.array_equal(prep.sketches[i], sk_fam.from_minhashes(values[:count, None])[0])


def test_universe_path_matches_reference_families():
    ds = gen_uniform(60, 10, 200, seed=0)
    prep = preprocess(ds, sig_len=32, sketch_words=2, seed=9)
    assert 32 * ds.d <= _UNIVERSE_CELL_CAP
    _check_against_families(prep)


def test_per_record_path_matches_reference_families():
    ds = gen_uniform(150, 600, 200000, seed=1)
    prep = preprocess(ds, sig_len=256, sketch_words=8, seed=9)
    assert 256 * ds.d > _UNIVERSE_CELL_CAP
    _check_against_families(prep)


@pytest.mark.parametrize("sig_len, words", [(32, 8), (128, 1), (64, 4)],
                         ids=["sketch-wider", "signature-wider", "equal"])
def test_one_family_of_the_wider_size_serves_both(sig_len, words, monkeypatch):
    ranked, rank_tables = [], prep_module._rank_tables

    def spy(tables, *args, **kwargs):
        ranked.append(len(tables))
        return rank_tables(tables, *args, **kwargs)

    monkeypatch.setattr(prep_module, "_rank_tables", spy)
    data = _mixed()
    p = preprocess(data, sig_len=sig_len, sketch_words=words, seed=21)
    assert sum(ranked) == max(sig_len, 16 * words)
    assert p.sig.shape == (data.n, sig_len) and p.sig.dtype == np.uint32
    assert p.sketches.shape == (data.n, words) and p.sketches.dtype == np.uint64
    assert p.sketch_minhashes == 16 * words
    _check_against_families(p)


def test_signatures_do_not_depend_on_the_sketch_size():
    for data in (_tokens(), _mixed()):
        sigs = [preprocess(data, sig_len=64, sketch_words=words, seed=22).sig
                for words in (1, 2, 4, 8, 16)]
        assert all(np.array_equal(sig, sigs[0]) for sig in sigs[1:])


def _threshold_pairs(n, seed):
    """n pairs of 30-token sets sharing 20 tokens (Jaccard 0.5), each pair
    over 40 tokens of its own, and the (n, 2) record ids of the pairs."""
    tokens = np.random.default_rng(seed).permutation(40 * n).reshape(n, 40)
    data = Dataset.from_records([rec for t in tokens for rec in (t[:30], t[10:])])
    return data, allpairs_join(data, 0.5)[0]


def _co_bucketed(sig, threshold, depth, trials, seed):
    """Per pair (rows 2i, 2i + 1 of `sig`), the buckets CPSJoin's own split at key
    width 3 holds it in together after `depth` splits, summed over `trials`
    root buckets of the pair under seeds of their own."""
    n = len(sig) // 2
    ids = np.tile(np.arange(2 * n), trials)
    sizes = np.full(n * trials, 2)
    seeds = splitmix64_array(seed, np.arange(n * trials, dtype=np.uint64))
    for _ in range(depth):
        ids, sizes, seeds = cpsjoin._split(sig, threshold, ids, sizes, seeds, 3)
    return np.bincount(ids[::2] // 2, minlength=n)


def test_the_shared_family_misses_no_more_co_bucketed_threshold_pairs():
    # Sketches packed from the signature's own MinHashes agree wherever a
    # co-bucketed pair's signatures agree on its keys, so the filter should
    # drop fewer of those pairs than sketches of a family drawn apart from
    # the signature do. `apart` is such a family: the sketches of another
    # seed's family, independent of `shared`'s signatures. Each pair counts
    # once per bucket it shares, after one split and after two. At the
    # default delta of 0.05 the filter drops too few threshold pairs to
    # compare, so the cut is set at delta 0.9, where it drops about a fifth.
    threshold = 0.5
    data, pairs = _threshold_pairs(3000, seed=2611)
    assert pairs.shape == (3000, 2)
    rows = pairs.ravel()  # each pair's records as rows 2i and 2i + 1
    shared = preprocess(data, seed=2612)
    sig, sketches = shared.sig[rows], shared.sketches[rows]
    apart = preprocess(data, seed=2613).sketches[rows]
    cut = max_hamming(filter_threshold(threshold, shared.sketch_minhashes, 0.9),
                      shared.sketch_bits)

    def missed(sketches):
        return np.bitwise_count(sketches[0::2] ^ sketches[1::2]).sum(axis=1) > cut

    for depth in (1, 2):
        weight = _co_bucketed(sig, threshold, depth, trials=8, seed=2614)
        rate_shared, rate_apart = (np.average(missed(s), weights=weight)
                                   for s in (sketches, apart))
        ess = weight.sum() ** 2 / (weight ** 2).sum()  # effective number of pairs
        se_apart = np.sqrt(rate_apart * (1 - rate_apart) / ess)
        se = np.sqrt(rate_shared * (1 - rate_shared) / ess + se_apart ** 2)
        # co-bucketing tells nothing about sketches of an independent family
        assert abs(rate_apart - missed(apart).mean()) < 3 * se_apart
        assert rate_shared + 3 * se < rate_apart


def test_prepared_shapes_and_metadata():
    ds = gen_uniform(25, 8, 50, seed=2)
    prep = preprocess(ds, sig_len=64, sketch_words=4, seed=3)
    assert prep.sig.shape == (25, 64) and prep.sig.dtype == np.uint32
    assert prep.sketches.shape == (25, 4) and prep.sketches.dtype == np.uint64
    assert prep.sketch_bits == 256
    assert prep.elapsed_s >= 0.0
    assert prep.data is ds


@pytest.mark.parametrize("sig_len", [0, -1])
def test_preprocess_rejects_a_signature_shorter_than_one(sig_len):
    # 0 would leave (n, 0) signatures, -1 silently 127 columns of them
    with pytest.raises(ValueError, match="sig_len must be >= 1"):
        preprocess(gen_uniform(25, 8, 50, seed=2), sig_len=sig_len)


def _tokens():
    return gen_tokens(TokensSpec(d=300, max_freq=60, planted=((0.7, 3),),
                                 background_similarity=0.15, seed=4))


def _mixed():
    """Records of sizes 2..39 over 500 ids, every block of them gathering."""
    rng = np.random.default_rng(8)
    sizes = rng.integers(2, 40, size=150)
    return Dataset.from_records([rng.choice(500, size=int(s), replace=False) for s in sizes])


def _wide():
    """70 records of 1,000 ids drawn from 10^6: a universe past 2^16, so the
    rank tables hold uint32 positions."""
    rng = np.random.default_rng(6)
    return Dataset.from_records([rng.choice(10 ** 6, size=1000, replace=False)
                                 for _ in range(70)])


# Blocks of 1 to 7 records, and ranks hashed and sorted 3 functions at a time.
_SMALL_BLOCKS = {"_BLOCK_CELLS": 5000, "_RANK_CHUNK_CELLS": 3 * 500}
# Rank tables built and used 2 to 6 functions at a time.
_CHUNKED = {"_UNIVERSE_CELL_CAP": 2000}

# (sha256 of sig.tobytes(), sha256 of sketches.tobytes()). The signature
# digest was computed with the per-record argmin embedding before the
# rank-table path existed; the sketch digest when sketches came to pack the
# signature family's first MinHashes rather than a family of their own.
_TOKENS_DIGEST = ("9747ec7a754d1049e6e7ae8d20a9b88cb97e158df16cd45483ccb41d930095b8",
                  "53c131ade1b0996d02d6ac469c01d72bf2f288b6b0dec3fa52c0cb49f4bde59a")


@pytest.mark.parametrize("dataset, dims, patch, want", [
    (_tokens, (128, 8, 7), {}, _TOKENS_DIGEST),
    (_tokens, (128, 8, 7), _CHUNKED, _TOKENS_DIGEST),
], ids=["tokens", "tokens-chunked"])
def test_embedding_digest(dataset, dims, patch, want, monkeypatch):
    for name, value in patch.items():
        monkeypatch.setattr(prep_module, name, value)
    data = dataset()
    sig_len, words, seed = dims
    if not patch:
        assert max(sig_len, 16 * words) * data.d <= _UNIVERSE_CELL_CAP
    p = preprocess(data, sig_len=sig_len, sketch_words=words, seed=seed)
    assert p.sig.shape == (data.n, sig_len) and p.sig.dtype == np.uint32
    assert p.sketches.shape == (data.n, words) and p.sketches.dtype == np.uint64
    assert (hashlib.sha256(p.sig.tobytes()).hexdigest(),
            hashlib.sha256(p.sketches.tobytes()).hexdigest()) == want


def _first_hit_records(monkeypatch, data, sig_len=128, sketch_words=8, seed=0):
    """The sizes of the records `preprocess` passes to the first-hit kernel,
    one entry per record."""
    taken, first_hits = [], prep_module._first_hits

    def spy(members, order, window):
        taken.extend([members.shape[1]] * len(members))
        return first_hits(members, order, window)

    monkeypatch.setattr(prep_module, "_first_hits", spy)
    preprocess(data, sig_len=sig_len, sketch_words=sketch_words, seed=seed)
    return taken


def test_digest_cases_cover_their_regimes(monkeypatch):
    assert _wide().d > 2 ** 16
    # the pinned `_tokens` digest comes from the first-hit kernel alone, and
    # `_mixed` takes the gather kernel alone
    tokens = _tokens()
    assert len(_first_hit_records(monkeypatch, tokens, 128, 8, 7)) == tokens.n
    assert _first_hit_records(monkeypatch, _mixed(), 64, 4, 2) == []


def test_only_a_chunk_with_a_gathering_block_inverts_its_rank_tables(monkeypatch):
    built, rank_tables = [], prep_module._rank_tables

    def spy(*args, **kwargs):
        order, pos = rank_tables(*args, **kwargs)
        built.append(pos is not None)
        return order, pos

    monkeypatch.setattr(prep_module, "_rank_tables", spy)
    data = _tokens()
    p = preprocess(data, sig_len=128, sketch_words=8, seed=7)
    assert built == [False]  # every `_tokens` block takes the first-hit kernel
    assert (hashlib.sha256(p.sig.tobytes()).hexdigest(),
            hashlib.sha256(p.sketches.tobytes()).hexdigest()) == _TOKENS_DIGEST
    built.clear()
    preprocess(_mixed(), sig_len=64, sketch_words=4, seed=2)
    assert built == [True]


# The kernel rule's constant, patched to send every block to one kernel.
_FIRST_HIT_ONLY = {"_FIRST_HIT_COST": 0.0}
_GATHER_ONLY = {"_FIRST_HIT_COST": float("inf")}


def _straddling():
    """Records, 30 each of sizes 2, 5, 20, 60, 150 and 300 over [0, 400)."""
    rng = np.random.default_rng(12)
    return Dataset.from_records([rng.choice(400, size=s, replace=False)
                                 for s in (2, 5, 20, 60, 150, 300) for _ in range(30)])


def _pairs():
    """Records of two ids each drawn from 5,000: a universe of the 150-odd
    that occur."""
    rng = np.random.default_rng(13)
    return Dataset.from_records([rng.choice(5000, size=2, replace=False) for _ in range(80)])


def _one():
    return Dataset.from_records([[3, 7, 9]])


def test_the_rule_sends_large_records_to_the_first_hit_kernel(monkeypatch):
    data = _straddling()
    assert data.d <= data.tokens.size
    assert sorted(set(_first_hit_records(monkeypatch, data))) == [150, 300]


@pytest.mark.parametrize("kernel", [_FIRST_HIT_ONLY, _GATHER_ONLY], ids=["first-hit", "gather"])
@pytest.mark.parametrize("dataset, patch", [
    (_straddling, {}),
    (_wide, {}),
    (_one, {}),
    (_pairs, {}),
    # 7 records per first-hit block, each over the indicator's cap of 2,800 bytes
    (_straddling, {"_BLOCK_CELLS": 400 * 7}),
    # windows of 8 positions out of the 150-odd: most pairs scan on past the first
    (_pairs, {"_WINDOW_CAP": 8}),
], ids=["straddling", "wide", "one-record", "size-two", "over-the-cap", "unresolved"])
def test_each_kernel_matches_reference_families(dataset, patch, kernel, monkeypatch):
    for name, value in {**patch, **kernel}.items():
        monkeypatch.setattr(prep_module, name, value)
    _check_against_families(preprocess(dataset(), sig_len=16, sketch_words=1, seed=3))


def test_first_hits_scan_on_past_the_window():
    rng = np.random.default_rng(5)
    u, window = 60, 8
    order = np.array([rng.permutation(u) for _ in range(5)], dtype=np.uint16)
    members = np.array([rng.choice(u, size=3, replace=False) for _ in range(4)], dtype=np.uint32)
    rank = np.argsort(order, axis=1)  # rank[f, t]: the rank position of t
    want = rank[:, members].min(axis=2)
    assert (want >= window).any() and (want < window).any()
    assert np.array_equal(prep_module._first_hits(members, order, window), want)


def test_first_hit_blocks_keep_the_peak_of_the_gather_kernel(monkeypatch):
    data = gen_tokens(TokensSpec(d=600, max_freq=300, planted=((0.8, 5),),
                                 background_similarity=0.12, seed=4))
    assert _first_hit_records(monkeypatch, data)
    monkeypatch.undo()
    peaks = []
    for patch in ({}, _GATHER_ONLY):
        for name, value in patch.items():
            monkeypatch.setattr(prep_module, name, value)
        tracemalloc.start()
        try:
            preprocess(data)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[0] <= 1.1 * peaks[1]


@pytest.mark.parametrize("records", [[], [[3, 7, 9]]], ids=["empty", "one"])
@pytest.mark.parametrize("canonical", [True, False])
def test_empty_and_single_record(records, canonical):
    if canonical:  # given as a canonical dataset holds them, ids renumbered
        records = list(Dataset.from_records(records).records())
    ds = Dataset.from_records(records)
    p = preprocess(ds, sig_len=32, sketch_words=2, seed=1)
    assert p.sig.shape == (len(records), 32) and p.sig.dtype == np.uint32
    assert p.sketches.shape == (len(records), 2) and p.sketches.dtype == np.uint64
    _check_against_families(p)


def test_rank_ties_go_to_the_smaller_token():
    rng = np.random.default_rng(0)
    tables = np.zeros((3, 4, 256), dtype=np.uint64)
    tables[:2, 0] = rng.integers(2 ** 62, 2 ** 63, size=(2, 256), dtype=np.uint64)
    ds = Dataset.from_records([[1, 3, 5, 7], [3, 5], [3, 5, 9, 200], [2, 4]])
    x, y = ds.d - 2, ds.d - 1  # the canonical ids of 3 and 5, the most frequent
    # Function 0: tokens x and y share the least rank.
    tables[0, 0, [x, y]] = 7
    # Function 1: y ranks below x, and the two differ only in their lowest bits.
    tables[1, 0, x] = 2 ** 40 + 6
    tables[1, 0, y] = 2 ** 40 + 1
    # Function 2: every token has rank 0.

    values = prep_module._minhashes(tables, ds)

    ref = MinHashFamily(3)
    ref.tables = tables
    for i in range(ds.n):
        rec = ds.record(i)
        assert np.array_equal(values[:, i], ref.embed(rec))
        assert values[2, i] == rec[0]
        if y in rec:
            assert values[:2, i].tolist() == [x, y]
    assert sum(y in rec for rec in ds.records()) == 3


def test_canonical_universe_past_2_16_matches_reference_families():
    ds = gen_uniform(150, 600, 10 ** 6, seed=5)
    assert ds.d > 2 ** 16
    p = preprocess(ds, sig_len=16, sketch_words=1, seed=6)
    _check_against_families(p)


def test_ranks_are_hashed_per_chunk_of_functions_not_per_record(monkeypatch):
    calls, universe_ranks = [], prep_module._universe_ranks

    def counting(tables, d):
        calls.append(len(tables))
        return universe_ranks(tables, d)

    monkeypatch.setattr(prep_module, "_universe_ranks", counting)
    # F * d past the cap: [0, d) is ranked byte table by byte table, a chunk of
    # functions at a time, and a function again only where its keys tie
    data = gen_uniform(150, 600, 200000, seed=1)
    assert 256 * data.d > _UNIVERSE_CELL_CAP
    preprocess(data, sig_len=256)
    assert 256 <= sum(calls) < 2 * 256
    assert 0 < len(calls) < data.n


def _spanning(u):
    """Records that hold every id of [0, u), so that the rank tables span
    [0, u) itself, byte table by byte table."""
    rng = np.random.default_rng(u)
    s = min(u, 40 if u < 1000 else 1000)
    records = np.array_split(rng.permutation(u), max(1, u // s))  # each of s ids or more
    return Dataset.from_records(records + [rng.choice(u, size=s, replace=False)])


# Universe sizes around each byte a rank key folds (byte 1 varies from 257
# positions on, byte 2 from 65,537) and the uint16 / uint32 table boundary.
@pytest.mark.parametrize("u", [1, 2, 255, 256, 257, 2 ** 16, 2 ** 16 + 1])
def test_folded_rank_keys_at_byte_boundaries(u):
    tables = table_tensor(np.arange(3, dtype=np.uint64) + np.uint64(u))
    order, pos = prep_module._rank_tables(tables, u, inverse=True)
    ranks = hash_keys(tables, np.arange(u))
    assert order.dtype == (np.uint16 if u <= 2 ** 16 else np.uint32)
    assert np.array_equal(order, np.argsort(ranks, axis=1, kind="stable"))
    assert np.array_equal(pos.T, np.argsort(order, axis=1))
    if u > 1:  # a record holds two tokens, so no dataset spans one
        data = _spanning(u)
        assert data.d == u <= data.tokens.size
        _check_against_families(preprocess(data, sig_len=16, sketch_words=1, seed=u))


def test_clusters_shaped_preprocess_keeps_its_peak_under_32_mib():
    # Uniform sets of about 30 tokens over d = 10^4, shaped like the `clusters`
    # benchmark's background: every block gathers, so the one chunk of 128
    # functions builds `order` and its inverse. The peak reads 19.9 MiB, and
    # 28.7 MiB with the 128 functions of a separate sketch family stacked on;
    # rank tables of those 256 functions built with a separate uint64 rank
    # array, masked keys and an intp scatter index peak at 35.9 MiB, above the
    # bound.
    data = gen_uniform(2000, 30, 10_000, seed=0)
    assert data.d <= data.tokens.size and 128 * data.d <= _UNIVERSE_CELL_CAP
    tracemalloc.start()
    try:
        preprocess(data)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2 ** 20
