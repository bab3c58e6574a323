"""Dataset layer tests: parsing rules, canonical form invariants, the
similarity-preserving remap, and both synthetic generators.

The array-pass build is checked against `_reference_build`, the per-record
algorithm it replaced, on every field, index map included.
"""

from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from setjoin import datasets
from setjoin.datasets import Dataset, TokensSpec, gen_tokens, gen_uniform, load, save
from setjoin.errors import CapacityExceededError, ParseError, TokenOverflowError
from setjoin.exact import jaccard


def _reference_clean(raw, where: str) -> np.ndarray:
    arr = np.asarray(raw)
    if arr.size and arr.dtype.kind not in "ui":
        raise ParseError(f"{where}: non-integer token")
    if arr.size and arr.dtype.kind == "i" and int(arr.min()) < 0:
        raise ParseError(f"{where}: negative token")
    if arr.size and int(arr.max()) > 0xFFFFFFFF:
        raise TokenOverflowError(f"{where}: token exceeds 32 bits")
    return np.unique(arr.astype(np.uint32))


def _reference_build(records):
    """One record at a time: clean, dedup by content, then remap ids by
    ascending frequency and sort the records by size and content.
    Returns (tokens, indptr, d, index_map)."""
    cleaned = []
    index_map = np.full(len(records), -1, dtype=np.int64)
    seen = {}
    for i, raw in enumerate(records):
        rec = _reference_clean(raw, f"record {i}")
        if rec.size < 2:
            continue
        slot = seen.setdefault(rec.tobytes(), len(cleaned))
        if slot == len(cleaned):
            cleaned.append(rec)
        index_map[i] = slot
    d = 0
    remapped = []
    if cleaned:
        orig_ids, counts = np.unique(np.concatenate(cleaned), return_counts=True)
        new_id = np.empty(orig_ids.size, dtype=np.uint32)
        new_id[np.lexsort((orig_ids, counts))] = np.arange(orig_ids.size, dtype=np.uint32)
        remapped = [np.sort(new_id[np.searchsorted(orig_ids, rec)]) for rec in cleaned]
        d = orig_ids.size
    order = sorted(range(len(remapped)),
                   key=lambda s: (remapped[s].size, remapped[s].astype(">u4").tobytes()))
    final_of_slot = np.empty(len(order), dtype=np.int64)
    final_of_slot[order] = np.arange(len(order))
    keep = index_map >= 0
    index_map[keep] = final_of_slot[index_map[keep]]
    out = [remapped[s] for s in order]
    indptr = np.zeros(len(out) + 1, dtype=np.int64)
    np.cumsum([r.size for r in out], out=indptr[1:])
    tokens = np.concatenate(out).astype(np.uint32) if out else np.zeros(0, dtype=np.uint32)
    return tokens, indptr, d, index_map


def _assert_matches_reference(records):
    ds, index_map = datasets._build(*datasets._flatten(records), provenance=None)
    tokens, indptr, d, want_map = _reference_build(records)
    assert ds.tokens.dtype == np.uint32 and np.array_equal(ds.tokens, tokens)
    assert ds.indptr.dtype == np.int64 and np.array_equal(ds.indptr, indptr)
    assert ds.d == d
    assert index_map.dtype == np.int64 and np.array_equal(index_map, want_map)


_FORMS = (list, partial(np.array, dtype=np.int64), partial(np.array, dtype=np.uint32),
          partial(np.array, dtype=np.uint64))
_TOKEN_IDS = st.one_of(st.integers(0, 9), st.sampled_from([2 ** 31, 0xFFFFFFFE, 0xFFFFFFFF]))


@st.composite
def _record_lists(draw):
    """Records, some repeated in another token order, each in one of the
    list, int64, uint32 and uint64 forms; tokens may repeat in a record."""
    records = []
    for base in draw(st.lists(st.lists(_TOKEN_IDS, max_size=6), max_size=10)):
        records += [draw(st.permutations(base)) for _ in range(draw(st.integers(1, 3)))]
    records = draw(st.permutations(records))
    return [draw(st.sampled_from(_FORMS))(rec) for rec in records]


@settings(max_examples=300, deadline=None)
@given(_record_lists())
def test_build_matches_per_record_reference(records):
    _assert_matches_reference(records)


def test_build_matches_reference_on_edge_inputs():
    for records in ([], [[]], [[5], [5, 5], [7, 7, 7]], [[3, 1, 2], [2, 3, 1, 1], [9, 0xFFFFFFFF]]):
        _assert_matches_reference(records)


def test_from_records_names_the_bad_record():
    with pytest.raises(ParseError, match="record 2: non-integer"):
        Dataset.from_records([[1, 2], [3, 4], [1.5, 2.0]])
    with pytest.raises(ParseError, match="record 1: negative"):
        Dataset.from_records([[1, 2], np.array([3, -4])])
    with pytest.raises(TokenOverflowError, match="record 1: token exceeds 32 bits"):
        Dataset.from_records([[1, 2], np.array([3, 2 ** 32], dtype=np.uint64)])


def test_from_records_reports_the_earliest_bad_record_of_any_kind():
    records = [[1, 2], [2, 3], [3, 4], np.array([4, -5]), [5, 6], np.array([0.5, 1.0]),
               np.array([2 ** 32, 1], dtype=np.uint64)]
    with pytest.raises(ParseError, match="record 3: negative"):
        Dataset.from_records(records)
    records[3], records[5] = records[5], records[3]
    with pytest.raises(ParseError, match="record 3: non-integer"):
        Dataset.from_records(records)
    records[3] = records[6]
    with pytest.raises(TokenOverflowError, match="record 3"):
        Dataset.from_records(records)


def test_from_records_mixes_int64_and_uint64_records_exactly():
    # A plain concatenate of these would go through float64.
    top = 0xFFFFFFFF
    records = [np.array([top, 1, 2]), np.array([top - 1, 1, top], dtype=np.uint64),
               np.array([2, top - 1], dtype=np.int64), np.array([1, 2, top], dtype=np.uint64)]
    _assert_matches_reference(records)


def _ring(top):
    """Records {i, i + 1} for i < 2^16, wrapping to 0 at `top` + 1, shuffled:
    2^16 records of 2^16 or 2^16 + 1 ids."""
    ids = np.arange(2 ** 16)
    records = np.stack([ids, (ids + 1) % (top + 1)], axis=1)
    return list(np.random.default_rng(top).permutation(records))


def _given(records, canonical: bool) -> list:
    """The records in canonical record form, each one's tokens sorted and
    distinct, or raw: each one's tokens reversed with its last repeated, and
    the records in reverse order. A build keeps the same records from both."""
    arrays = [np.asarray(r) for r in records]
    if canonical:
        return [np.unique(a) for a in arrays]
    return [np.append(a[::-1], a[-1:]) for a in reversed(arrays)]


_T30 = 2 ** 30 - 1  # 30 bits; one more is 31


# Each `_key_sort` packs its (high, low) halves into uint32 keys when their
# bit lengths (the high and low maxima the build passes) add up to 32 at
# most. The sorts are record-major over the input (input index, token),
# token-major (token, record slot) and record-major over the output (place,
# new id). The widths hang on the number of records, the largest token and
# the number of distinct records and ids, which raw input leaves unchanged.
@pytest.mark.parametrize("records, widths", [
    # 4 records: index 3 has 2 bits, record slot 3 has 2, ids 0..4 have 3
    ([[i, _T30] for i in range(4)], (32, 32, 5)),
    ([[i, _T30 + 1] for i in range(4)], (33, 33, 5)),
    # 2^16 records over 2^16 ids: every sort 16 + 16 bits; then one id more
    (_ring(2 ** 16 - 1), (32, 32, 32)),
    (_ring(2 ** 16), (33, 33, 33)),
    # the widest token: one record's keys are its tokens shifted by 32
    ([[5, 0xFFFFFFFF]], (32, 32, 1)),
    ([np.array([0xFFFFFFFF, 1], dtype=np.uint64), [2, 0xFFFFFFFF, 1]], (33, 33, 3)),
], ids=["small-32", "small-33", "ring-32", "ring-33", "top-id-one-record", "top-id"])
@pytest.mark.parametrize("canonical", [True, False], ids=["canonical", "raw"])
def test_key_width_switches_at_32_bits(records, widths, canonical, monkeypatch):
    dtypes, key_sort = [], datasets._key_sort

    def spy(*args):
        keys, shift = key_sort(*args)
        dtypes.append(keys.dtype)
        return keys, shift

    monkeypatch.setattr(datasets, "_key_sort", spy)
    _assert_matches_reference(_given(records, canonical))
    assert dtypes == [np.uint32 if w <= 32 else np.uint64 for w in widths]


def test_load_matches_from_records_across_line_endings(tmp_path):
    p = tmp_path / "sets.txt"
    p.write_bytes(b"1 2 3\r\n  3\t2 1 \r\n\n4 4294967295\r5 6 7\n8")
    got = load(p)
    want = Dataset.from_records([[1, 2, 3], [3, 2, 1], [], [4, 4294967295], [5, 6, 7], [8]])
    assert np.array_equal(got.tokens, want.tokens)
    assert np.array_equal(got.indptr, want.indptr)
    assert got.d == want.d



def test_load_parses_in_chunks_of_lines(tmp_path, monkeypatch):
    monkeypatch.setattr(datasets, "_LOAD_LINES", 2)
    ds = gen_uniform(51, 6, 40, seed=3)
    p = tmp_path / "chunks.txt"
    save(ds, p)
    back = load(p)
    assert np.array_equal(back.tokens, ds.tokens)
    assert np.array_equal(back.indptr, ds.indptr)
    p.write_text("1 2\n3 4\n5 6\n7 -8\n9 x\n")
    with pytest.raises(ParseError, match=r"chunks.txt:4: negative token -8"):
        load(p)
    p.write_text("1 2\n3 4\n5 6\n7 8\n9 x\n")
    with pytest.raises(ParseError, match=r"chunks.txt:5: bad token 'x'"):
        load(p)


def _assert_canonical(ds: Dataset):
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


def test_bitset_matches_records():
    ds = gen_uniform(50, 6, 80, seed=3)
    bits = ds.bitset()
    assert bits is not None
    assert np.bitwise_count(bits).sum() == ds.tokens.size
    a, b = 0, ds.n - 1
    c = int(np.bitwise_count(bits[a] & bits[b]).sum())
    assert c == np.intersect1d(ds.record(a), ds.record(b)).size


@pytest.mark.parametrize("canonical", [True, False])
def test_bitset_rows_hold_exactly_their_records_tokens(canonical):
    rng = np.random.default_rng(5)
    # dense runs of tokens in one word, and lone tokens in sparse words
    records = [rng.choice(300, size=int(s), replace=False) for s in rng.integers(2, 90, size=80)]
    ds = Dataset.from_records(_given(records, canonical))
    want = np.zeros((ds.n, (ds.d + 63) // 64), dtype=np.uint64)
    for i, rec in enumerate(ds.records()):
        for t in rec.tolist():
            want[i, t // 64] |= np.uint64(1) << np.uint64(t % 64)
    assert np.array_equal(ds.bitset(), want)


def test_gen_uniform_shape_and_determinism():
    ds = gen_uniform(2000, 10, 5000, seed=5)
    _assert_canonical(ds)
    assert ds.n >= 1990  # only rare duplicates collapse
    assert ds.d <= 5000
    assert abs(ds.tokens.size / ds.n - 10) < 0.3  # the mean record size
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
