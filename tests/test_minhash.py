"""MinHash tests: membership and subset structure, the collision law against
exactly known Jaccard values, and input hygiene."""

import numpy as np
import pytest

from setjoin.errors import EmptySetError, SignatureMismatchError
from setjoin.minhash import MinHashFamily, function_seeds, signature_similarity
from setjoin.tabulation import splitmix64


def _tabulation_hash(seed: int, key: int) -> int:
    """Tabulation hash of one key: the XOR over its bytes of the seed's
    SplitMix64 stream at 256*byte_index + byte."""
    h = 0
    for j in range(4):
        h ^= splitmix64(seed, 256 * j + ((key >> (8 * j)) & 0xFF))
    return h


def _minhash(fam: MinHashFamily, index: int, tokens) -> int:
    """Value of one function of the family on a token set, from that
    function's tables alone."""
    tokens = np.asarray(tokens, dtype=np.intp)
    t = fam.tables[index]
    ranks = t[0, tokens & 0xFF] ^ t[1, (tokens >> 8) & 0xFF]
    ranks ^= t[2, (tokens >> 16) & 0xFF] ^ t[3, (tokens >> 24) & 0xFF]
    return int(tokens[np.argmin(ranks)])


def _pair_with_jaccard(c: int, extra_a: int, extra_b: int):
    """Two sets sharing tokens [0, c) with disjoint tails; J = c/(c+ea+eb)."""
    core = np.arange(c, dtype=np.uint32)
    a = np.concatenate([core, 1000 + np.arange(extra_a, dtype=np.uint32)])
    b = np.concatenate([core, 2000 + np.arange(extra_b, dtype=np.uint32)])
    return a, b, c / (c + extra_a + extra_b)


def test_minhash_value_is_a_member():
    fam = MinHashFamily(64, seed=1)
    rng = np.random.default_rng(0)
    for _ in range(20):
        tokens = np.unique(rng.integers(0, 10_000, size=30)).astype(np.uint32)
        sig = fam.embed(tokens)
        assert np.isin(sig, tokens).all()


def test_singleton_set_maps_to_its_token():
    fam = MinHashFamily(32, seed=2)
    sig = fam.embed(np.array([777], dtype=np.uint32))
    assert (sig == 777).all()


def test_minhash_picks_smallest_rank():
    # independent route: recompute each function's ranks from its seed's stream
    fam = MinHashFamily(8, seed=3)
    tokens = np.array([4, 99, 1234, 500_000], dtype=np.uint32)
    sig = fam.embed(tokens)
    for i in range(8):
        ranks = [_tabulation_hash(int(fam.fn_seeds[i]), int(t)) for t in tokens]
        assert int(sig[i]) == int(tokens[int(np.argmin(ranks))])
        assert _minhash(fam, i, tokens) == int(sig[i])


def test_union_value_comes_from_a_side():
    # h(x | y) is h(x) or h(y): the union's minimum is one side's minimum
    fam = MinHashFamily(64, seed=4)
    rng = np.random.default_rng(1)
    for _ in range(10):
        x = np.unique(rng.integers(0, 5000, size=20)).astype(np.uint32)
        y = np.unique(rng.integers(0, 5000, size=20)).astype(np.uint32)
        u = np.union1d(x, y)
        su, sx, sy = fam.embed(u), fam.embed(x), fam.embed(y)
        assert ((su == sx) | (su == sy)).all()


def test_collision_frequency_tracks_jaccard():
    a, b, j = _pair_with_jaccard(10, 5, 5)  # J = 0.5
    fam = MinHashFamily(4000, seed=5)
    sim = signature_similarity(fam.embed(a), fam.embed(b))
    assert abs(sim - j) < 0.04  # 5 sigma at t=4000


def test_disjoint_sets_rarely_collide():
    x = np.arange(100, dtype=np.uint32)
    y = np.arange(100, dtype=np.uint32) + 1000
    fam = MinHashFamily(1000, seed=6)
    assert signature_similarity(fam.embed(x), fam.embed(y)) <= 0.002


def test_input_order_and_duplicates_do_not_matter():
    fam = MinHashFamily(32, seed=7)
    clean = np.array([3, 8, 15, 100], dtype=np.uint32)
    messy = np.array([100, 8, 3, 15, 8, 3], dtype=np.uint32)
    assert np.array_equal(fam.embed(clean), fam.embed(messy))


def test_empty_set_rejected():
    fam = MinHashFamily(8, seed=8)
    with pytest.raises(EmptySetError):
        fam.embed(np.array([], dtype=np.uint32))


def test_two_dimensional_input_rejected():
    fam = MinHashFamily(8, seed=8)
    with pytest.raises(ValueError):
        fam.embed(np.zeros((2, 3), dtype=np.uint32))


def test_signature_shape_mismatch_rejected():
    with pytest.raises(SignatureMismatchError):
        signature_similarity(np.zeros(4), np.zeros(5))
    with pytest.raises(SignatureMismatchError):
        signature_similarity(np.zeros(0), np.zeros(0))


def test_signature_similarity_counts_positions():
    assert signature_similarity([1, 2, 3, 4], [1, 2, 9, 9]) == 0.5


def test_function_seeds_deterministic_and_distinct():
    s1 = function_seeds(9, 100)
    s2 = function_seeds(9, 100)
    assert np.array_equal(s1, s2)
    assert np.unique(s1).size == 100
    # a family's functions are genuinely different
    fam = MinHashFamily(16, seed=10)
    tokens = np.arange(50, dtype=np.uint32)
    assert np.unique(fam.embed(tokens)).size > 1


def test_family_same_seed_same_signatures():
    tokens = np.array([5, 6, 7, 8, 9], dtype=np.uint32)
    a = MinHashFamily(64, seed=11).embed(tokens)
    b = MinHashFamily(64, seed=11).embed(tokens)
    assert np.array_equal(a, b)
    c = MinHashFamily(64, seed=12).embed(tokens)
    assert not np.array_equal(a, c)


def test_sig_len_validation():
    with pytest.raises(ValueError):
        MinHashFamily(0, seed=1)
