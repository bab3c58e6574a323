"""Sketch layer tests.

The estimator identities are exact (identical and complementary bit patterns),
the statistical behavior is checked against small sets whose Jaccard values
are known rationals, and the filter cutoff is cross-checked against an
independent root-finding route through the same tail bound.
"""

import math

import numpy as np
import pytest
from scipy.optimize import brentq

from setjoin.errors import EmptyBucketError, SketchMismatchError
from setjoin.minhash import MinHashFamily, function_seeds
from setjoin.sketch import (
    _BIT_TAG,
    _MH_TAG,
    SketchFamily,
    estimate_rows,
    estimate_similarity,
    filter_threshold,
    pack_bits,
    pooled_sketch,
)
from setjoin.tabulation import derive_seed, splitmix64


def _bit_hash(seed: int, key: int) -> int:
    """1-bit hash: the low bit of the key's tabulation hash, the XOR over its
    bytes of the seed's SplitMix64 stream at 256*byte_index + byte."""
    h = 0
    for j in range(4):
        h ^= splitmix64(seed, 256 * j + ((key >> (8 * j)) & 0xFF))
    return h & 1


def _pair(c, ea, eb):
    core = np.arange(c, dtype=np.uint32)
    a = np.concatenate([core, 5000 + np.arange(ea, dtype=np.uint32)])
    b = np.concatenate([core, 9000 + np.arange(eb, dtype=np.uint32)])
    return a, b, c / (c + ea + eb)


def test_identical_sketches_estimate_one():
    fam = SketchFamily(words=2, seed=1)
    s = fam.sketch(np.array([1, 2, 3], dtype=np.uint32))
    assert estimate_similarity(s, s) == 1.0


def test_complementary_sketches_estimate_minus_one():
    a = np.array([0x0F0F0F0F0F0F0F0F, 0], dtype=np.uint64)
    assert estimate_similarity(a, ~a) == -1.0


def test_pack_bits_is_little_endian_per_word():
    bits = np.zeros(128, dtype=np.uint8)
    bits[0] = 1
    bits[63] = 1
    bits[64] = 1
    packed = pack_bits(bits)
    assert packed.dtype == np.uint64
    assert packed[0] == (np.uint64(1) | (np.uint64(1) << np.uint64(63)))
    assert packed[1] == np.uint64(1)


def test_estimate_rows_matches_pairwise():
    rng = np.random.default_rng(2)
    rows = rng.integers(0, 2 ** 63, size=(10, 4), dtype=np.uint64)
    one = rng.integers(0, 2 ** 63, size=4, dtype=np.uint64)
    out = estimate_rows(rows, one)
    for i in range(10):
        assert out[i] == pytest.approx(estimate_similarity(rows[i], one))


def test_sketch_bits_come_from_bit_hashed_minhash_values():
    # reconstruct both function families from the seed derivation contract
    fam = SketchFamily(words=1, seed=7)
    mh = MinHashFamily(64, derive_seed(7, _MH_TAG))
    bit_seeds = function_seeds(derive_seed(7, _BIT_TAG), 64)
    tokens = np.array([10, 20, 30, 40, 50], dtype=np.uint32)
    values = mh.embed(tokens)
    word = int(fam.sketch(tokens)[0])
    for i in (0, 1, 31, 63):
        want = _bit_hash(int(bit_seeds[i]), int(values[i]))
        assert (word >> i) & 1 == want


def test_estimate_is_unbiased_at_known_jaccard():
    a, b, j = _pair(4, 2, 2)  # J = 0.5
    ests = []
    for seed in range(300):
        fam = SketchFamily(words=2, seed=seed)
        ests.append(estimate_similarity(fam.sketch(a), fam.sketch(b)))
    assert abs(np.mean(ests) - j) < 0.03


def test_estimate_near_zero_for_disjoint_sets():
    a = np.arange(10, dtype=np.uint32)
    b = np.arange(10, dtype=np.uint32) + 100
    ests = []
    for seed in range(300):
        fam = SketchFamily(words=2, seed=seed)
        ests.append(estimate_similarity(fam.sketch(a), fam.sketch(b)))
    assert abs(np.mean(ests)) < 0.03


def test_filter_threshold_value_and_independent_route():
    got = filter_threshold(0.5, 512, 0.05)
    assert got == pytest.approx(0.3918, abs=5e-4)
    # same tail bound, separate route: solve exp(-b (lam-c)^2 / 2) = delta
    root = brentq(lambda c: math.exp(-512 * (0.5 - c) ** 2 / 2) - 0.05, -1.0, 0.5)
    assert got == pytest.approx(root, abs=1e-12)


def test_filter_threshold_with_full_delta_is_identity():
    assert filter_threshold(0.7, 256, 1.0) == 0.7


def test_filter_threshold_validation():
    with pytest.raises(ValueError):
        filter_threshold(0.5, 0, 0.05)
    with pytest.raises(ValueError):
        filter_threshold(0.5, 64, 0.0)
    with pytest.raises(ValueError):
        filter_threshold(0.5, 64, 1.5)


def test_false_negative_rate_within_budget():
    # pair at exactly J = 0.5 filtered at the cut for delta = 0.05: the
    # observed miss rate must stay under delta plus sampling slack
    a, b, j = _pair(4, 2, 2)
    cut = filter_threshold(j, 128, 0.05)
    misses = 0
    trials = 400
    for seed in range(trials):
        fam = SketchFamily(words=2, seed=seed)
        if estimate_similarity(fam.sketch(a), fam.sketch(b)) < cut:
            misses += 1
    assert misses / trials <= 0.07


def test_pooled_sketch_of_single_member_is_that_sketch():
    rng = np.random.default_rng(3)
    one = rng.integers(0, 2 ** 63, size=(1, 8), dtype=np.uint64)
    for seed in (0, 1, 99):
        assert np.array_equal(pooled_sketch(one, seed), one[0])


def test_pooled_sketch_of_identical_members_is_that_sketch():
    rng = np.random.default_rng(4)
    row = rng.integers(0, 2 ** 63, size=8, dtype=np.uint64)
    members = np.tile(row, (5, 1))
    assert np.array_equal(pooled_sketch(members, 42), row)


def test_pooled_estimate_matches_mean_pairwise_estimate():
    # expectation over pool draws equals the average pairwise estimate
    rng = np.random.default_rng(5)
    fam = SketchFamily(words=8, seed=6)
    sets = [np.unique(rng.integers(0, 300, size=40)).astype(np.uint32) for _ in range(8)]
    sketches = np.stack([fam.sketch(s) for s in sets])
    x = sketches[0]
    want = np.mean([estimate_similarity(x, sketches[i]) for i in range(8)])
    got = np.mean([estimate_similarity(x, pooled_sketch(sketches, seed))
                   for seed in range(400)])
    assert abs(got - want) < 0.03


def test_pooled_sketch_rejects_empty_bucket():
    with pytest.raises(EmptyBucketError):
        pooled_sketch(np.zeros((0, 4), dtype=np.uint64), 1)
    with pytest.raises(EmptyBucketError):
        pooled_sketch(np.zeros(4, dtype=np.uint64), 1)


def test_estimate_shape_mismatch_rejected():
    with pytest.raises(SketchMismatchError):
        estimate_similarity(np.zeros(2, dtype=np.uint64), np.zeros(3, dtype=np.uint64))
    with pytest.raises(SketchMismatchError):
        estimate_rows(np.zeros((2, 2), dtype=np.uint64), np.zeros(3, dtype=np.uint64))


def test_sketch_family_validation():
    with pytest.raises(ValueError):
        SketchFamily(words=0, seed=1)


def test_same_seed_same_sketch():
    tokens = np.array([9, 18, 27], dtype=np.uint32)
    assert np.array_equal(SketchFamily(4, seed=5).sketch(tokens),
                          SketchFamily(4, seed=5).sketch(tokens))
