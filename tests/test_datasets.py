"""Dataset layer tests: parsing rules, canonical form invariants, the
similarity-preserving remap, and both synthetic generators."""

import numpy as np
import pytest

from setjoin import exact
from setjoin.cpsjoin import CpsConfig, cps_join
from setjoin.datasets import Dataset, TokensSpec, gen_tokens, gen_uniform, load, save
from setjoin.errors import CapacityExceededError, ParseError, TokenOverflowError
from setjoin.exact import brute_force_join, jaccard
from setjoin.lsh import LshConfig, lsh_join


def _assert_canonical(ds: Dataset):
    assert ds.canonical
    sizes = ds.sizes
    assert (sizes >= 2).all()
    assert np.array_equal(sizes, np.sort(sizes))
    # dense ids and correct frequency table, ascending
    assert ds.token_freq.size == ds.d
    counts = np.bincount(ds.tokens.astype(np.intp), minlength=ds.d)
    assert np.array_equal(counts, ds.token_freq)
    assert (ds.token_freq[:-1] <= ds.token_freq[1:]).all()
    assert (ds.token_freq > 0).all()
    for rec in ds.records():
        assert (rec[:-1] < rec[1:]).all()


def test_load_dedupes_and_drops_small_records(tmp_path):
    p = tmp_path / "sets.txt"
    p.write_text("1 2 3\n3 2 1\n7\n\n")
    ds = load(p)
    assert ds.n == 1
    assert ds.sizes[0] == 3
    _assert_canonical(ds)


def test_load_rejects_garbage(tmp_path):
    p = tmp_path / "bad.txt"
    p.write_text("1 x 2\n")
    with pytest.raises(ParseError, match="bad.txt:1"):
        load(p)
    p.write_text("1 2\n3 -4\n")
    with pytest.raises(ParseError, match="bad.txt:2"):
        load(p)
    p.write_text(f"1 {2 ** 32}\n")
    with pytest.raises(TokenOverflowError):
        load(p)


def test_roundtrip_is_identity_on_canonical_data(tmp_path):
    ds = gen_uniform(200, 8, 100, seed=1)
    p = tmp_path / "roundtrip.txt"
    save(ds, p)
    back = load(p)
    assert back.n == ds.n
    assert np.array_equal(back.tokens, ds.tokens)
    assert np.array_equal(back.indptr, ds.indptr)
    assert np.array_equal(back.token_freq, ds.token_freq)


def test_remap_preserves_pairwise_similarity():
    rng = np.random.default_rng(2)
    raw = [np.unique(rng.integers(0, 10_000, size=rng.integers(3, 20)))
           for _ in range(30)]
    ds = Dataset.from_records(raw)
    # map each original record to its remapped version by size multiset:
    # instead compare the full similarity spectrum, which the remap must keep
    def spectrum(records):
        sims = []
        for i in range(len(records)):
            for j in range(i + 1, len(records)):
                sims.append(round(jaccard(records[i], records[j]), 12))
        return sorted(sims)

    kept = [r for r in raw if np.unique(r).size >= 2]
    # dedup by content like the builder does
    uniq, seen = [], set()
    for r in kept:
        key = r.tobytes()
        if key not in seen:
            seen.add(key)
            uniq.append(r)
    assert spectrum(uniq) == spectrum(list(ds.records()))
    _assert_canonical(ds)


def test_duplicate_records_collapse():
    recs = [[1, 2, 3], [4, 5], [3, 2, 1], [1, 2, 3]]
    ds = Dataset.from_records(recs)
    assert ds.n == 2


def test_non_canonical_build_keeps_original_ids():
    ds = Dataset.from_records([[7, 3], [900, 7]], canonical=False)
    assert not ds.canonical
    assert ds.d == 901
    got = sorted(tuple(r.tolist()) for r in ds.records())
    assert got == [(3, 7), (7, 900)]


def test_raw_32_bit_ids_join_without_a_table_over_the_universe(monkeypatch):
    # d = 2^32: no bitset, so the joins verify with the token probe, and
    # preprocess builds rank tables over the tokens that occur, as brute
    # force builds its matrix columns. Nothing here may allocate per id in
    # [0, d), so the test never reads `token_freq`.
    rng = np.random.default_rng(21)
    top = 0xFFFFFFFF
    recs = [rng.choice(2 ** 20, size=20, replace=False) + (top - 2 ** 20) for _ in range(30)]
    recs[0][0] = top
    recs[1][0] = 0
    planted = []
    for k in range(10):
        base = rng.choice(2 ** 20, size=20, replace=False) + (top - 2 ** 20)
        twin = base.copy()
        twin[:2] = rng.choice(2 ** 20, size=2, replace=False) + 2 ** 20
        planted.append((len(recs), len(recs) + 1))
        recs += [base, twin]
    ds = Dataset.from_records(recs, canonical=False)
    assert ds.n == 50 and ds.d == 2 ** 32
    assert ds.bitset() is None
    want = {(i, j) for i in range(ds.n) for j in range(i + 1, ds.n)
            if jaccard(ds.record(i), ds.record(j)) >= 0.5}
    assert set(planted) <= want
    for pairs, stats in (cps_join(ds, CpsConfig(threshold=0.5, seed=1)),
                         lsh_join(ds, LshConfig(threshold=0.5, seed=1))):
        got = {tuple(p) for p in pairs.tolist()}
        assert got <= want
        assert set(planted) <= got
        assert stats.counters_ok()
    for dense_cap in (exact._DENSE_CELL_CAP, 0):  # dense, then sparse intersection blocks
        monkeypatch.setattr(exact, "_DENSE_CELL_CAP", dense_cap)
        pairs, stats = brute_force_join(ds, 0.5)
        assert {tuple(p) for p in pairs.tolist()} == want
        assert stats.results == len(want) and stats.counters_ok()


def test_bitset_matches_records():
    ds = gen_uniform(50, 6, 80, seed=3)
    bits = ds.bitset()
    assert bits is not None
    assert np.bitwise_count(bits).sum() == ds.tokens.size
    a, b = 0, ds.n - 1
    c = int(np.bitwise_count(bits[a] & bits[b]).sum())
    assert c == np.intersect1d(ds.record(a), ds.record(b)).size


def test_stats_reports_shape_of_the_data():
    ds = gen_uniform(100, 5, 60, seed=4)
    st = ds.stats()
    assert st["n"] == ds.n
    assert st["total_tokens"] == int(ds.tokens.size)
    assert st["avg_size"] == pytest.approx(ds.tokens.size / ds.n)
    assert st["sets_per_token"] == pytest.approx(ds.tokens.size / ds.d)


def test_gen_uniform_shape_and_determinism():
    ds = gen_uniform(2000, 10, 5000, seed=5)
    _assert_canonical(ds)
    assert ds.n >= 1990  # only rare duplicates collapse
    assert ds.d <= 5000
    assert abs(ds.avg_size - 10) < 0.3
    again = gen_uniform(2000, 10, 5000, seed=5)
    assert np.array_equal(ds.tokens, again.tokens)
    other = gen_uniform(2000, 10, 5000, seed=6)
    assert not np.array_equal(ds.tokens, other.tokens)


def test_gen_uniform_validation():
    with pytest.raises(ValueError):
        gen_uniform(0, 5, 10)
    with pytest.raises(ValueError):
        gen_uniform(10, 12, 10)


def test_tokens_spec_validation():
    with pytest.raises(ValueError):
        TokensSpec(d=1)
    with pytest.raises(ValueError):
        TokensSpec(background_similarity=0.0)
    with pytest.raises(ValueError):
        TokensSpec(planted=((1.5, 2),))
    with pytest.raises(ValueError):
        TokensSpec(max_freq=0)


def test_gen_tokens_respects_frequency_cap_and_sizes():
    spec = TokensSpec(d=400, max_freq=60, planted=((0.75, 3),), seed=7)
    ds = gen_tokens(spec)
    _assert_canonical(ds)
    assert (ds.token_freq <= 60).all()
    # background sets all share the size matched to the background similarity
    s_bg = round(2 * 0.2 / 1.2 * 400)
    planted_ids = {i for a, b, _, _ in ds.provenance["planted"] for i in (a, b)}
    bg_sizes = [int(ds.sizes[i]) for i in range(ds.n) if i not in planted_ids]
    assert bg_sizes and all(s == s_bg for s in bg_sizes)
    assert ds.provenance["background_sets"] == len(bg_sizes)


def test_gen_tokens_planted_pairs_have_recorded_similarity():
    spec = TokensSpec(d=500, max_freq=80, planted=((0.55, 4), (0.9, 4)), seed=8)
    ds = gen_tokens(spec)
    planted = ds.provenance["planted"]
    assert len(planted) == 8
    for a, b, target, realized in planted:
        actual = jaccard(ds.record(a), ds.record(b))
        assert actual == pytest.approx(realized, abs=1e-12)
        assert abs(actual - target) < 0.03


def test_gen_tokens_fills_until_caps_bind():
    spec = TokensSpec(d=300, max_freq=20, seed=9)
    ds = gen_tokens(spec)
    s_bg = round(2 * 0.2 / 1.2 * 300)
    # remaining capacity cannot fit another background set
    slack = int((ds.token_freq.max() <= 20) and (20 * 300 - ds.tokens.size))
    assert np.count_nonzero(ds.token_freq < 20) < s_bg or slack < s_bg


def test_gen_tokens_capacity_errors():
    # caps bind while planting: 100 pairs of size-67 sets need far more than
    # the 500 token slots d=100, max_freq=5 provides
    with pytest.raises(CapacityExceededError):
        gen_tokens(TokensSpec(d=100, max_freq=5, planted=((0.5, 100),)))
    # demanded background slots exceed capacity outright
    with pytest.raises(CapacityExceededError):
        gen_tokens(TokensSpec(d=100, max_freq=5, n_background=1000))
    # passes the aggregate precheck (60 * 100 slots = exact capacity) but
    # uneven cap exhaustion strands tokens before the last sets are drawn
    with pytest.raises(CapacityExceededError):
        gen_tokens(TokensSpec(d=300, max_freq=20, n_background=60, seed=11))


def test_gen_tokens_fixed_count_and_determinism():
    spec = TokensSpec(d=300, max_freq=50, n_background=20, seed=10)
    ds = gen_tokens(spec)
    assert ds.provenance["background_sets"] == 20
    again = gen_tokens(spec)
    assert np.array_equal(ds.tokens, again.tokens)
    assert ds.provenance["planted"] == again.provenance["planted"]
