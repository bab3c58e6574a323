"""Sketch layer tests.

The estimator identities are exact (identical and complementary bit patterns),
the statistical behavior is checked against small sets whose Jaccard values
are known rationals, and the filter cutoff is cross-checked against an
independent root-finding route through the same tail bound and against the
exact distribution of the 4-bit-per-MinHash estimator.
"""

import math

import numpy as np
import pytest
from scipy.optimize import brentq

from setjoin.cpsjoin import CandidateKernel
from setjoin.datasets import Dataset
from setjoin.errors import EmptyBucketError, SketchMismatchError
from setjoin.minhash import MinHashFamily, function_seeds
from setjoin.prep import Prepared
from setjoin.sketch import (
    _BIT_TAG,
    _MH_TAG,
    SketchFamily,
    estimate_rows,
    estimate_similarity,
    filter_threshold,
    max_hamming,
    pack_bits,
    pooled_sketch,
)
from setjoin.stats import JoinStats
from setjoin.tabulation import derive_seed, splitmix64


def _tab_hash(seed: int, key: int) -> int:
    """The key's tabulation hash: the XOR over its bytes of the seed's
    SplitMix64 stream at 256*byte_index + byte."""
    h = 0
    for j in range(4):
        h ^= splitmix64(seed, 256 * j + ((key >> (8 * j)) & 0xFF))
    return h


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
    rows = np.random.default_rng(1).integers(0, 2, size=(3, 128), dtype=np.uint8)
    assert np.array_equal(pack_bits(rows), [pack_bits(r) for r in rows])  # along the last axis


def test_estimate_rows_matches_pairwise():
    rng = np.random.default_rng(2)
    rows = rng.integers(0, 2 ** 63, size=(10, 4), dtype=np.uint64)
    one = rng.integers(0, 2 ** 63, size=4, dtype=np.uint64)
    out = estimate_rows(rows, one)
    for i in range(10):
        assert out[i] == pytest.approx(estimate_similarity(rows[i], one))


def test_sketch_bits_come_from_bit_hashed_minhash_values():
    # reconstruct both function families from the seed derivation contract
    # bit i is bit i % 4 of bit function i // 4's hash of MinHash value i // 4
    fam = SketchFamily(words=1, seed=7)
    mh = MinHashFamily(16, derive_seed(7, _MH_TAG))
    bit_seeds = function_seeds(derive_seed(7, _BIT_TAG), 16)
    tokens = np.array([10, 20, 30, 40, 50], dtype=np.uint32)
    values = mh.embed(tokens)
    word = int(fam.sketch(tokens)[0])
    for i in range(64):
        want = (_tab_hash(int(bit_seeds[i // 4]), int(values[i // 4])) >> (i % 4)) & 1
        assert (word >> i) & 1 == want



# Largest MinHash values around each byte boundary: the bytes above the
# largest value's are folded in per row, not gathered.
@pytest.mark.parametrize("top", [0, 255, 256, 2 ** 16 - 1, 2 ** 16, 2 ** 24 - 1, 2 ** 24,
                                 0xFFFFFFFF])
def test_sketch_bits_of_values_of_every_width(top):
    fam = SketchFamily(words=1, seed=3)
    bit_seeds = function_seeds(derive_seed(3, _BIT_TAG), 16)
    values = np.random.default_rng(top).integers(0, top + 1, size=(16, 4), dtype=np.uint64)
    values[3, 2] = top
    sketches = fam.from_minhashes(values.astype(np.uint32))
    for c in range(4):
        word = int(sketches[c, 0])
        for i in range(64):
            want = (_tab_hash(int(bit_seeds[i // 4]), int(values[i // 4, c])) >> (i % 4)) & 1
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


def _match_count_distribution(j: float, minhashes: int) -> np.ndarray:
    """Exact law of the number of matching sketch bits between two sets at
    Jaccard j: each MinHash matches on all 4 of its bits with probability j,
    and otherwise on Binomial(4, 1/2) of them, independently of the others."""
    one = (1 - j) * np.array([math.comb(4, k) for k in range(5)]) / 16
    one[4] += j
    law = np.ones(1)
    for _ in range(minhashes):
        law = np.convolve(law, one)
    return law


def _kernel_max_h(threshold: float, delta: float, words: int) -> int:
    ds = Dataset.from_records([[0, 1], [0, 2]])
    sketches = np.zeros((ds.n, words), dtype=np.uint64)
    prep = Prepared(ds, np.zeros((ds.n, 1), dtype=np.uint32), sketches, 0, 0.0)
    return CandidateKernel(prep, threshold, delta, JoinStats()).max_h


def _false_negative_rate(law: np.ndarray, max_h: int) -> float:
    """P(Hamming distance > max_h) under a law of bit-match counts."""
    bits = law.size - 1
    return float(law[:bits - max_h].sum())


_THRESHOLDS = [round(0.1 + 0.05 * i, 2) for i in range(19)]  # 0.1, 0.15, ..., 1.0


@pytest.mark.parametrize("delta", [0.2, 0.05, 0.01, 0.001])
def test_kernel_cut_misses_at_most_delta_of_pairs_at_the_threshold(delta):
    words, bits = 8, 512
    worst = 0.0
    for threshold in _THRESHOLDS:
        law = _match_count_distribution(threshold, bits // 4)
        assert law.sum() == pytest.approx(1.0, abs=1e-12)
        worst = max(worst, _false_negative_rate(law, _kernel_max_h(threshold, delta, words)))
    assert 0.0 < worst <= delta


def test_a_cut_counting_bits_misses_more_than_delta():
    # The 4 bits of one MinHash are correlated, so a Hoeffding cut over all
    # 512 bits is too tight: at J = threshold it misses more than delta.
    delta, bits = 0.001, 512
    worst = max(_false_negative_rate(_match_count_distribution(t, bits // 4),
                                     max_hamming(filter_threshold(t, bits, delta), bits))
                for t in _THRESHOLDS)
    assert worst > delta


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


def test_pooled_sketches_of_buckets_laid_end_to_end_match_one_bucket_calls():
    rng = np.random.default_rng(7)
    members = rng.integers(0, 2 ** 63, size=(12, 2), dtype=np.uint64)
    sizes = np.array([5, 1, 6])
    seeds = np.array([3, 2 ** 64 - 1, 77], dtype=np.uint64)
    pooled = pooled_sketch(members, seeds, sizes)
    assert pooled.shape == (3, 2)
    for k, (lo, hi) in enumerate([(0, 5), (5, 6), (6, 12)]):
        assert np.array_equal(pooled[k], pooled_sketch(members[lo:hi], int(seeds[k])))
        # bit i is bit i of the member at splitmix64(seed, i) mod the bucket size
        for i in range(128):
            member = members[lo + splitmix64(int(seeds[k]), i) % (hi - lo)]
            word, bit = divmod(i, 64)
            assert (int(pooled[k, word]) >> bit) & 1 == (int(member[word]) >> bit) & 1


def test_pooled_sketch_rejects_empty_bucket():
    with pytest.raises(EmptyBucketError):
        pooled_sketch(np.zeros((0, 4), dtype=np.uint64), 1)
    with pytest.raises(EmptyBucketError):
        pooled_sketch(np.zeros(4, dtype=np.uint64), 1)
    with pytest.raises(EmptyBucketError):
        pooled_sketch(np.zeros((3, 4), dtype=np.uint64), [1, 2], [3, 0])


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
