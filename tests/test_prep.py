"""The rank-table embedding must agree with the per-family reference, however
its tables are chunked and whichever universe they rank."""

import hashlib
import tracemalloc

import numpy as np
import pytest

from setjoin import prep as prep_module
from setjoin.datasets import Dataset, TokensSpec, gen_tokens, gen_uniform
from setjoin.minhash import MinHashFamily
from setjoin.prep import _SIG_TAG, _SK_TAG, _UNIVERSE_CELL_CAP, preprocess
from setjoin.sketch import SketchFamily
from setjoin.tabulation import derive_seed, hash_keys, table_tensor


def families(prep):
    """The signature and sketch families a Prepared was built with."""
    sig_fam = MinHashFamily(prep.sig_len, derive_seed(prep.seed, _SIG_TAG))
    sk_fam = SketchFamily(prep.sketch_words, derive_seed(prep.seed, _SK_TAG))
    return sig_fam, sk_fam


def _check_against_families(prep):
    sig_fam, sk_fam = families(prep)
    ds = prep.data
    for i in range(ds.n):
        rec = ds.record(i)
        assert np.array_equal(prep.sig[i], sig_fam.embed(rec))
        assert np.array_equal(prep.sketches[i], sk_fam.sketch(rec))


def test_universe_path_matches_reference_families():
    ds = gen_uniform(60, 10, 200, seed=0)
    prep = preprocess(ds, sig_len=32, sketch_words=2, seed=9)
    assert (32 + 32) * ds.d <= _UNIVERSE_CELL_CAP
    _check_against_families(prep)


def test_per_record_path_matches_reference_families():
    ds = gen_uniform(150, 600, 200000, seed=1)
    prep = preprocess(ds, sig_len=128, sketch_words=8, seed=9)
    assert (128 + 128) * ds.d > _UNIVERSE_CELL_CAP
    _check_against_families(prep)


def test_prepared_shapes_and_metadata():
    ds = gen_uniform(25, 8, 50, seed=2)
    prep = preprocess(ds, sig_len=64, sketch_words=4, seed=3)
    assert prep.sig.shape == (25, 64) and prep.sig.dtype == np.uint32
    assert prep.sketches.shape == (25, 4) and prep.sketches.dtype == np.uint64
    assert prep.sketch_bits == 256
    assert prep.elapsed_s >= 0.0
    assert prep.data is ds


def _tokens():
    return gen_tokens(TokensSpec(d=300, max_freq=60, planted=((0.7, 3),),
                                 background_similarity=0.15, seed=4))


def _mixed():
    """Non-canonical: record sizes 2..39 in no order, tokens not frequency-ranked."""
    rng = np.random.default_rng(8)
    sizes = rng.integers(2, 40, size=150)
    return Dataset.from_records([rng.choice(500, size=int(s), replace=False) for s in sizes],
                                canonical=False)


def _wide():
    """Token ids past 2^16 over a few records, so the tables rank only the
    tokens that occur and map their positions back to uint32 ids."""
    rng = np.random.default_rng(6)
    records = [rng.choice(100_000, size=int(s), replace=False)
               for s in rng.integers(2, 12, size=120)]
    records.append(np.array([3, 99_999]))
    return Dataset.from_records(records, canonical=False)


# Blocks of 1 to 7 records, and ranks hashed and sorted 3 functions at a time.
_SMALL_BLOCKS = {"_BLOCK_CELLS": 5000, "_RANK_CHUNK_CELLS": 3 * 500}
# Rank tables built and used 2 to 6 functions at a time.
_CHUNKED = {"_UNIVERSE_CELL_CAP": 2000}

# (sha256 of sig.tobytes(), sha256 of sketches.tobytes()). The signature
# digests were computed with the per-record argmin embedding before the
# rank-table path existed; the sketch digests when sketches took 4 bits per
# MinHash.
_TOKENS_DIGEST = ("9747ec7a754d1049e6e7ae8d20a9b88cb97e158df16cd45483ccb41d930095b8",
                  "4a499ebdf2287335ef6eaa5239f28b13d1c929b9173a7108b03d71c5647c921f")
_MIXED_DIGEST = ("1347a7801de4945857fd2567ed622a2d757929264177c2b1204fc1449c5d93c1",
                 "1f7e9f0a79da9c861eb3b8905cafe0b2dda4312d08cf0164323a11575d0a592d")
_WIDE_DIGEST = ("7faaa0b781b4421260c1b22e01b4afe6e81df6cfb1281d7e087c0a1a197efdb3",
                "504baaa1487fcd5cb8128e351bb7f388509b8711642365ad73ce7d5940553c35")


@pytest.mark.parametrize("dataset, dims, patch, want", [
    (_tokens, (128, 8, 7), {}, _TOKENS_DIGEST),
    (_tokens, (128, 8, 7), _CHUNKED, _TOKENS_DIGEST),
    (_mixed, (64, 4, 2), {}, _MIXED_DIGEST),
    (_mixed, (64, 4, 2), _SMALL_BLOCKS, _MIXED_DIGEST),
    (_mixed, (64, 4, 2), _CHUNKED, _MIXED_DIGEST),
    (_wide, (16, 1, 5), {}, _WIDE_DIGEST),
    (_wide, (16, 1, 5), _CHUNKED, _WIDE_DIGEST),
], ids=["tokens", "tokens-chunked", "mixed", "mixed-small-blocks", "mixed-chunked",
        "wide-uint32", "wide-uint32-chunked"])
def test_embedding_digest(dataset, dims, patch, want, monkeypatch):
    for name, value in patch.items():
        monkeypatch.setattr(prep_module, name, value)
    data = dataset()
    sig_len, words, seed = dims
    if not patch:
        assert (sig_len + 16 * words) * data.d <= _UNIVERSE_CELL_CAP
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
    wide = _wide()
    assert wide.d > 2 ** 16 and wide.d > wide.tokens.size
    sizes = _mixed().sizes
    assert not np.all(sizes[:-1] <= sizes[1:])
    # the pinned `_tokens` digest comes from the first-hit kernel alone, and
    # `_mixed`'s from the gather kernel alone
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
    """Raw records, 30 each of sizes 2, 5, 20, 60, 150 and 300 over [0, 400)."""
    rng = np.random.default_rng(12)
    return Dataset.from_records([rng.choice(400, size=s, replace=False)
                                 for s in (2, 5, 20, 60, 150, 300) for _ in range(30)],
                                canonical=False)


def _pairs():
    """Raw records of two tokens each, ranked over the 150-odd that occur."""
    rng = np.random.default_rng(13)
    return Dataset.from_records([rng.choice(5000, size=2, replace=False) for _ in range(80)],
                                canonical=False)


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


def test_out_of_order_sizes_match_reference_families():
    p = preprocess(_mixed(), sig_len=16, sketch_words=1, seed=4)
    _check_against_families(p)


@pytest.mark.parametrize("records", [[], [[3, 7, 9]]], ids=["empty", "one"])
@pytest.mark.parametrize("canonical", [True, False])
def test_empty_and_single_record(records, canonical):
    ds = Dataset.from_records(records, canonical=canonical)
    p = preprocess(ds, sig_len=32, sketch_words=2, seed=1)
    assert p.sig.shape == (len(records), 32) and p.sig.dtype == np.uint32
    assert p.sketches.shape == (len(records), 2) and p.sketches.dtype == np.uint64
    _check_against_families(p)


def test_rank_ties_go_to_the_smaller_token():
    rng = np.random.default_rng(0)
    tables = np.zeros((3, 4, 256), dtype=np.uint64)
    tables[:2, 0] = rng.integers(2 ** 62, 2 ** 63, size=(2, 256), dtype=np.uint64)
    # Function 0: tokens 3 and 5 share the least rank.
    tables[0, 0, [3, 5]] = 7
    # Function 1: 5 ranks below 3, and the two differ only in their lowest bits.
    tables[1, 0, 3] = 2 ** 40 + 6
    tables[1, 0, 5] = 2 ** 40 + 1
    # Function 2: every token has rank 0.
    records = [[1, 3, 5, 7], [3, 5], [3, 5, 9, 200], [2, 4]]
    ds = Dataset.from_records(records, canonical=False)

    values = prep_module._minhashes(tables, ds)

    ref = MinHashFamily(3)
    ref.tables = tables
    for i in range(ds.n):
        assert np.array_equal(values[:, i], ref.embed(ds.record(i)))
    assert values[:, 0].tolist() == [3, 5, 1]
    assert values[:, 2].tolist() == [3, 5, 3]


def test_canonical_universe_past_2_16_matches_reference_families():
    ds = gen_uniform(150, 600, 10 ** 6, seed=5)
    assert ds.canonical and ds.d > 2 ** 16
    p = preprocess(ds, sig_len=16, sketch_words=1, seed=6)
    _check_against_families(p)


def test_ranks_are_hashed_per_chunk_of_functions_not_per_record(monkeypatch):
    calls = []

    def counting_hash_keys(tables, keys):
        calls.append(len(tables))
        return hash_keys(tables, keys)

    monkeypatch.setattr(prep_module, "hash_keys", counting_hash_keys)
    # canonical, and F * d past the cap: [0, d) is ranked byte table by byte table
    dense = gen_uniform(150, 600, 200000, seed=1)
    assert (128 + 128) * dense.d > _UNIVERSE_CELL_CAP
    preprocess(dense)
    assert calls == []
    # sparse ids: only the tokens that occur are hashed, a chunk of functions at a time
    sparse = _wide()
    preprocess(sparse)
    assert sum(calls) == 128 + 128
    assert 0 < len(calls) < sparse.n


def _spanning(u):
    """Raw records over [0, u) holding at least u tokens, so that the rank
    tables span [0, u) itself, byte table by byte table."""
    rng = np.random.default_rng(u)
    s = min(u, 40 if u < 1000 else 1000)
    records = [rng.choice(u, size=s, replace=False) for _ in range(-(-u // s) + 2)]
    return Dataset.from_records(records + [[0, u - 1]], canonical=False)


# Universe sizes around each byte a rank key folds (byte 1 varies from 257
# positions on, byte 2 from 65,537) and the uint16 / uint32 table boundary.
@pytest.mark.parametrize("u", [1, 2, 255, 256, 257, 2 ** 16, 2 ** 16 + 1])
def test_folded_rank_keys_at_byte_boundaries(u):
    tables = table_tensor(np.arange(3, dtype=np.uint64) + np.uint64(u))
    order, pos = prep_module._rank_tables(tables, u, None, inverse=True)
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
    # benchmark's background: every block gathers, so the one chunk of 256
    # functions builds `order` and its inverse. The peak reads 28.7 MB; rank
    # tables built with a separate uint64 rank array, masked keys and an intp
    # scatter index peak at 35.9 MB, above the bound.
    data = gen_uniform(2000, 30, 10_000, seed=0)
    assert data.d <= data.tokens.size and (128 + 128) * data.d <= _UNIVERSE_CELL_CAP
    tracemalloc.start()
    try:
        preprocess(data)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2 ** 20
