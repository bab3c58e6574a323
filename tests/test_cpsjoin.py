"""Recursive join tests.

The adversarial cases matter most here: buckets whose signatures barely
differ must terminate through the bucket-average removal rule, and a record
similar to a whole dissimilar bucket must be caught by the point rule before
splitting scatters its neighbors.
"""

import math

import numpy as np
import pytest

from setjoin import cpsjoin, exact
from setjoin.cpsjoin import (
    CandidateKernel,
    CpsConfig,
    Incidence,
    brute_force_step,
    co_bucket_frequency,
    coordinate_mask,
    cps_join,
    estimated_recall,
    segment_pairs,
)
from setjoin.datasets import Dataset, gen_uniform
from setjoin.exact import brute_force_join, jaccard, verify
from setjoin.prep import Prepared, preprocess
from setjoin.sketch import estimate_similarity, filter_threshold
from setjoin.stats import JoinStats, encode_pairs


def _pair_codes(pairs):
    return {(int(a), int(b)) for a, b in pairs}


def test_config_validation():
    with pytest.raises(ValueError):
        CpsConfig(threshold=0.0)
    with pytest.raises(ValueError):
        CpsConfig(threshold=0.5, limit=1)
    with pytest.raises(ValueError):
        CpsConfig(threshold=0.5, eps=1.5)
    with pytest.raises(ValueError):
        CpsConfig(threshold=0.5, reps=0)
    with pytest.raises(ValueError):
        CpsConfig(threshold=0.5, delta=0.0)
    for target in (0.0, 1.0, -0.1, 1.5):
        with pytest.raises(ValueError):
            CpsConfig(threshold=0.5, recall_target=target)
    assert CpsConfig(threshold=0.5, recall_target=None).recall_target is None


def _hits(*counts):
    return np.array(counts, dtype=np.int64)


@pytest.mark.parametrize("hits, reps, want", [
    # S = 5, Q1 = 2, Q2 = 1: f0 = (3/4) * 2^2 / (2 * 1) = 1.5
    (_hits(1, 1, 2, 3, 4), 4, 5 / 6.5),
    # Q2 = 0: f0 = ((r - 1) / r) * Q1 (Q1 - 1) / 2 = (2/3) * 3 * 2 / 2 = 2
    (_hits(1, 1, 1, 3), 3, 4 / 6),
    (_hits(1, 4), 4, 1.0),  # Q2 = 0 and Q1 = 1: f0 = 0
    (_hits(3, 5, 5), 5, 1.0),  # no pair found only once or twice
    (_hits(), 2, 1.0),  # S = 0: the 0/0 estimate reads as 1
    (_hits(), 10, 1.0),
])
def test_estimated_recall_on_hand_made_incidence_counts(hits, reps, want):
    assert estimated_recall(hits, reps) == pytest.approx(want)


def test_estimated_recall_never_stops_after_one_repetition():
    for hits in (_hits(), _hits(1), _hits(1, 1, 1)):
        assert math.isnan(estimated_recall(hits, 1))  # NaN reaches no target
    # so even a target that any estimate reaches runs a second repetition
    ds = gen_uniform(200, 8, 40, seed=3)
    _, stats = cps_join(ds, CpsConfig(threshold=0.5, recall_target=1e-9))
    assert len(stats.new_results_per_rep) == 2
    assert math.isnan(stats.recall_estimate_per_rep[0])


def test_incidence_counts_the_repetitions_that_found_each_pair():
    inc = Incidence()

    def codes(*c):
        return np.array(c, dtype=np.uint64)

    assert math.isnan(inc.add(codes()))
    inc.add(codes(5, 9))
    inc.add(codes(2, 9))
    inc.add(codes(9))
    inc.add(codes())
    assert inc.codes.tolist() == [2, 5, 9] and inc.hits.tolist() == [1, 1, 3]
    assert inc.reps == 5
    assert inc.add(codes(2, 5, 7)) == estimated_recall(_hits(2, 2, 1, 3), 6)
    assert inc.codes.tolist() == [2, 5, 7, 9] and inc.hits.tolist() == [2, 2, 1, 3]


def _clustered():
    """200 uniform background sets plus 4 clusters of 25 near-duplicates."""
    rng = np.random.default_rng(17)
    recs = [rng.choice(1500, size=int(s), replace=False) for s in rng.integers(8, 25, size=200)]
    for _ in range(4):
        center = rng.choice(1500, size=25, replace=False)
        for _ in range(25):
            rec = center.copy()
            rec[rng.choice(25, size=3, replace=False)] = rng.integers(0, 1500, size=3)
            recs.append(rec)
    return Dataset.from_records(recs)


@pytest.mark.parametrize("limit", [20, 250])
def test_a_stopped_run_is_the_fixed_run_cut_at_its_repetitions(limit):
    ds = _clustered()
    pairs, stats = cps_join(ds, CpsConfig(threshold=0.6, limit=limit, seed=9))
    reps = len(stats.new_results_per_rep)
    assert 2 <= reps < CpsConfig.reps  # the rule stopped the run early
    estimates = stats.recall_estimate_per_rep
    assert len(estimates) == reps
    assert estimates[-1] >= CpsConfig.recall_target
    assert not any(e >= CpsConfig.recall_target for e in estimates[:-1])
    fixed_pairs, fixed = cps_join(ds, CpsConfig(threshold=0.6, limit=limit, seed=9, reps=reps,
                                                recall_target=None))
    assert np.array_equal(pairs, fixed_pairs)
    assert (stats.pre_candidates, stats.candidates, stats.results, stats.max_depth) == \
        (fixed.pre_candidates, fixed.candidates, fixed.results, fixed.max_depth)
    assert stats.new_results_per_rep == fixed.new_results_per_rep
    assert np.array_equal(estimates, fixed.recall_estimate_per_rep, equal_nan=True)
    _, full = cps_join(ds, CpsConfig(threshold=0.6, limit=limit, seed=9, recall_target=None))
    assert len(full.new_results_per_rep) == CpsConfig.reps
    assert full.new_results_per_rep[:reps] == stats.new_results_per_rep


def test_coordinate_mask_sampling_rate():
    # sampling probability 1/(lam*t) makes the expected draw 1/lam coordinates
    sums = [coordinate_mask(seed, 128, 0.5).sum() for seed in range(1000)]
    assert abs(np.mean(sums) - 2.0) < 0.2
    mask = coordinate_mask(0, 128, 0.5)
    assert mask.dtype == bool and mask.size == 128


def test_coordinate_mask_saturates_for_tiny_thresholds():
    assert coordinate_mask(1, 128, 1 / 256).all()


def test_similar_pair_in_tiny_dataset_always_found():
    ds = Dataset.from_records([np.arange(20), np.arange(1, 22)])
    lam = jaccard(ds.record(0), ds.record(1)) - 0.01
    for seed in range(20):
        pairs, stats = cps_join(ds, CpsConfig(threshold=lam, seed=seed))
        assert _pair_codes(pairs) == {(0, 1)}
        assert stats.counters_ok()


def test_pair_detection_frequency_across_seeds():
    # a J=2/3 pair inside a bucket big enough to force splitting; the planted
    # records are the only size-10 ones, so they sort to the end
    rng = np.random.default_rng(0)
    recs = [np.arange(0, 10), np.arange(2, 12)]  # J = 8/12 = 0.667
    recs += [rng.choice(600, size=8, replace=False) for _ in range(300)]
    ds = Dataset.from_records(recs)
    target = (ds.n - 2, ds.n - 1)
    assert jaccard(ds.record(target[0]), ds.record(target[1])) == 8 / 12
    hits = 0
    for seed in range(50):
        pairs, _ = cps_join(ds, CpsConfig(threshold=0.6, seed=seed))
        hits += target in _pair_codes(pairs)
    assert hits >= 45


def test_returned_pairs_meet_threshold():
    ds = gen_uniform(400, 10, 40, seed=1)
    pairs, stats = cps_join(ds, CpsConfig(threshold=0.5))
    assert len(pairs) > 0
    for a, b in pairs:
        assert jaccard(ds.record(a), ds.record(b)) >= 0.5
    assert np.unique(pairs, axis=0).shape == pairs.shape
    assert stats.results == len(pairs)


def test_recall_against_exact_join():
    ds = gen_uniform(800, 10, 30, seed=2)
    exact, _ = brute_force_join(ds, 0.5)
    got, stats = cps_join(ds, CpsConfig(threshold=0.5))
    exact_set, got_set = _pair_codes(exact), _pair_codes(got)
    assert len(exact_set) > 50
    assert got_set <= exact_set
    assert len(got_set & exact_set) / len(exact_set) >= 0.9
    assert stats.counters_ok()


def test_full_eps_consumes_the_bucket_at_the_root():
    # eps=1 removes every record whose bucket-average estimate is positive,
    # so a mutually similar bucket never splits at all
    recs = [np.concatenate([np.arange(90), [90 + i]]) for i in range(30)]
    ds = Dataset.from_records(recs)
    cfg = CpsConfig(threshold=0.9, eps=1.0, limit=2, reps=1)
    pairs, stats = cps_join(ds, cfg)
    assert len(pairs) == 30 * 29 // 2
    assert stats.max_depth == 0


def test_indistinguishable_signatures_terminate():
    # near-identical records: splitting cannot separate them, so termination
    # relies on the bucket-average removal rule
    recs = [np.concatenate([np.arange(90), [90 + i]]) for i in range(80)]
    ds = Dataset.from_records(recs)
    pairs, stats = cps_join(ds, CpsConfig(threshold=0.9, limit=10, reps=2))
    assert len(pairs) == 80 * 79 // 2
    assert stats.max_depth <= 64 + 10 * np.log2(ds.n + 1)


def test_bucket_at_limit_is_compared_without_splitting():
    ds = gen_uniform(250, 8, 60, seed=3)
    assert ds.n == 250
    cfg = CpsConfig(threshold=0.5, limit=250, reps=10, recall_target=None)
    pairs, stats = cps_join(ds, cfg)
    assert stats.max_depth == 0
    assert stats.pre_candidates == 10 * (250 * 249 // 2)
    exact, _ = brute_force_join(ds, 0.5)
    assert _pair_codes(pairs) <= _pair_codes(exact)


def test_bucket_above_limit_splits():
    ds = gen_uniform(400, 8, 500, seed=4)  # sparse, nothing similar
    pairs, stats = cps_join(ds, CpsConfig(threshold=0.5, limit=100, reps=2))
    assert stats.max_depth >= 1


def test_point_rule_catches_a_hub_record():
    # one big record similar to every bucket member at exactly the threshold,
    # while the members are mutually dissimilar: splitting would scatter the
    # star, the bucket-average rule must catch it first
    rng = np.random.default_rng(5)
    recs = [np.arange(1000)] + [rng.choice(1000, size=100, replace=False)
                                for _ in range(40)]
    ds = Dataset.from_records(recs)
    hub = int(np.argmax(ds.sizes))
    assert hub == ds.n - 1
    pairs, _ = cps_join(ds, CpsConfig(threshold=0.1, limit=10))
    want = {(i, hub) for i in range(ds.n - 1)
            if jaccard(ds.record(i), ds.record(hub)) >= 0.1}
    assert len(want) == 40  # every spoke shares exactly 100 of 1000 tokens
    assert _pair_codes(pairs) == want


def test_determinism_same_seed_same_everything():
    ds = gen_uniform(300, 8, 50, seed=6)
    cfg = CpsConfig(threshold=0.5, seed=77)
    p1, s1 = cps_join(ds, cfg)
    p2, s2 = cps_join(ds, cfg)
    assert np.array_equal(p1, p2)
    assert (s1.pre_candidates, s1.candidates, s1.results, s1.max_depth) == \
        (s2.pre_candidates, s2.candidates, s2.results, s2.max_depth)
    _, s3 = cps_join(ds, CpsConfig(threshold=0.5, seed=78))
    # a different seed explores different splits; the pairs found may agree
    assert (s1.pre_candidates, s1.candidates) != (s3.pre_candidates, s3.candidates)


def test_co_bucket_frequency_certain_when_all_coordinates_sampled():
    sig = np.arange(128, dtype=np.uint32)
    assert co_bucket_frequency(sig, sig, 1 / 128, 3, 100) == 1.0


def test_co_bucket_frequency_respects_survival_floor():
    # agreement exactly at the threshold: survival to depth k stays above
    # 1/(k+1) (critical branching process floor)
    sig_a = np.arange(128, dtype=np.uint32)
    sig_b = sig_a.copy()
    sig_b[64:] += 1000  # agreement fraction exactly 0.5
    for k in (1, 2, 3):
        freq = co_bucket_frequency(sig_a, sig_b, 0.5, k, 2000, seed=k)
        assert freq >= 1 / (k + 1) - 0.05


def test_co_bucket_frequency_shape_mismatch():
    with pytest.raises(ValueError):
        co_bucket_frequency(np.arange(4), np.arange(5), 0.5, 1, 10)


def _reference_kernel(prep, threshold, delta, pairs):
    """Per-pair loop the candidate kernel must reproduce: size predicate,
    sketch estimate against the filter cutoff, then exact verification."""
    cut = filter_threshold(threshold, prep.sketch_bits, delta)
    sizes = prep.data.sizes
    stats, codes = JoinStats(), []
    for a, b in pairs:
        stats.pre_candidates += 1
        small, big = sorted((int(sizes[a]), int(sizes[b])))
        if threshold * big > small + 1e-9:
            continue
        if estimate_similarity(prep.sketches[a], prep.sketches[b]) < cut:
            continue
        stats.candidates += 1
        if verify(prep.data.record(a), prep.data.record(b), threshold):
            codes.append(encode_pairs(a, b))
    return np.sort(np.array(codes, dtype=np.uint64)), stats


def _assert_kernel_matches(kernel, prep, threshold, delta, pairs):
    """The kernel keeps each distinct pair the reference passes, once;
    returns the reference's codes, duplicates included."""
    want_codes, want = _reference_kernel(prep, threshold, delta, pairs)
    assert np.array_equal(kernel.codes(), np.unique(want_codes))
    assert (kernel.stats.pre_candidates, kernel.stats.candidates) == \
        (want.pre_candidates, want.candidates)
    return want_codes


def _segment_reference_pairs(ids, bounds):
    return [(int(ids[i]), int(ids[j])) for lo, hi in zip(bounds[:-1], bounds[1:])
            for i in range(lo, hi) for j in range(i + 1, hi)]


@pytest.mark.parametrize("sizes, small_blocks", [
    ([0], False),
    ([1], False),
    ([2], False),
    ([0, 1, 2, 0, 5, 1, 7, 3, 2], False),
    ([40], True),  # one segment spread over many pair and verify blocks
    ([3, 40, 1, 12], True),
])
def test_candidate_kernel_matches_per_pair_loop(monkeypatch, sizes, small_blocks):
    if small_blocks:
        monkeypatch.setattr(cpsjoin, "_PAIR_BLOCK", 7)
        monkeypatch.setattr(exact, "_VERIFY_BLOCK", 5)
    ds = gen_uniform(120, 8, 30, seed=8)
    prep = preprocess(ds, sig_len=32, sketch_words=2, seed=4)
    ids = np.random.default_rng(1).permutation(ds.n)[:sum(sizes)].astype(np.int64)
    bounds = np.concatenate([[0], np.cumsum(sizes)])
    blocks = list(segment_pairs(ids, bounds))
    got = [(int(a), int(b)) for ab in blocks for a, b in zip(*ab)]
    want = _segment_reference_pairs(ids, bounds)
    assert sorted(got) == sorted(want)
    assert all(a.size <= cpsjoin._PAIR_BLOCK for a, _ in blocks)
    if small_blocks:
        assert len(blocks) > 1
    kernel = CandidateKernel(prep, 0.3, 0.05, JoinStats())
    kernel.run_segments(ids, bounds)
    if len(want) > 100:  # the filters and verification each drop some pairs
        assert len(want) > kernel.stats.candidates > kernel.codes().size > 0
    _assert_kernel_matches(kernel, prep, 0.3, 0.05, want)


@pytest.mark.parametrize("pair_block", [None, 50])
def test_point_rule_matches_per_pair_loop(monkeypatch, pair_block):
    # a cluster of near-duplicates inside a bucket of unrelated records: every
    # cluster member looks similar to the whole bucket and is removed, so the
    # point rule compares several removed records against the same bucket
    if pair_block is not None:
        monkeypatch.setattr(cpsjoin, "_PAIR_BLOCK", pair_block)
    rng = np.random.default_rng(9)
    recs = [np.concatenate([np.arange(60), [1000 + i]]) for i in range(12)]
    recs += [rng.choice(np.arange(100, 900), size=40, replace=False) for _ in range(20)]
    ds = Dataset.from_records(recs)
    prep = preprocess(ds, sig_len=32, sketch_words=4, seed=2)
    cfg = CpsConfig(threshold=0.5, eps=0.5, limit=5)
    ctx = cpsjoin._Ctx(prep, cfg, CandidateKernel(prep, cfg.threshold, cfg.delta, JoinStats()))
    ids = np.arange(ds.n, dtype=np.int64)
    kept = brute_force_step(ids, 123, ctx)
    removed = np.setdiff1d(ids, kept)
    assert removed.size >= 2 and kept.size >= 2
    pairs = [(int(x), int(y)) for x in removed for y in ids if y != x]
    assert ctx.stats.pre_candidates == removed.size * (ds.n - 1)
    want_codes = _assert_kernel_matches(ctx.kernel, prep, cfg.threshold, cfg.delta, pairs)
    assert np.unique(want_codes).size < want_codes.size  # the kernel dropped duplicates


@pytest.mark.parametrize("words", [1, 2, 8])
def test_max_h_is_the_largest_distance_the_float_cutoff_passes(words):
    bits = 64 * words
    ds = Dataset.from_records([[0, 1], [0, 2]])
    sketches = np.zeros((ds.n, words), dtype=np.uint64)
    prep = Prepared(ds, np.zeros((ds.n, 1), dtype=np.uint32), sketches, 0, 0.0)
    for threshold in (0.05, 0.3, 0.5, 0.7, 0.9, 1.0):
        for delta in (0.01, 0.05, 0.5, 1.0):
            cut = filter_threshold(threshold, bits, delta)
            want = max((h for h in range(bits + 1) if 1 - 2 * h / bits >= cut), default=-1)
            kernel = CandidateKernel(prep, threshold, delta, JoinStats())
            assert kernel.max_h == want
            assert all(1 - 2 * h / bits >= cut for h in range(kernel.max_h + 1))


def test_kernel_keeps_pairs_whose_estimate_lands_on_the_cutoff():
    # delta=1 makes the cutoff the threshold itself, 0.5, which a 64-bit
    # sketch pair at Hamming distance 16 reaches exactly
    ds = gen_uniform(120, 8, 30, seed=8)
    prep = preprocess(ds, sig_len=16, sketch_words=1, seed=4)
    assert filter_threshold(0.5, prep.sketch_bits, 1.0) == 0.5
    ids = np.arange(ds.n, dtype=np.int64)
    pairs = _segment_reference_pairs(ids, [0, ds.n])
    on_cut = [(a, b) for a, b in pairs
              if estimate_similarity(prep.sketches[a], prep.sketches[b]) == 0.5
              and ds.sizes[a] == ds.sizes[b]]
    assert len(on_cut) > 0
    kernel = CandidateKernel(prep, 0.5, 1.0, JoinStats())
    assert kernel.max_h == 16
    kernel.run_segments(ids, [0, ds.n])
    _assert_kernel_matches(kernel, prep, 0.5, 1.0, pairs)


def test_hamming_sum_does_not_wrap_on_wide_sketches():
    # 1100 words hold 70,400 bits, past what a uint16 distance can count:
    # complementary sketches would wrap to 4,864 and pass the cutoff
    words = 1100
    ds = Dataset.from_records([np.arange(10), np.append(np.arange(9), 10)])
    sketches = np.zeros((ds.n, words), dtype=np.uint64)
    sketches[1] = ~sketches[0]
    prep = Prepared(ds, np.zeros((ds.n, 1), dtype=np.uint32), sketches, 0, 0.0)
    kernel = CandidateKernel(prep, 0.5, 0.05, JoinStats())
    assert (64 * words) % 2 ** 16 <= kernel.max_h < 64 * words
    kernel.run(np.array([0]), np.array([1]))
    assert (kernel.stats.pre_candidates, kernel.stats.candidates) == (1, 0)
    assert kernel.codes().size == 0
    # the same pair with equal sketches passes and verifies
    prep.sketches[1] = sketches[0]
    kernel = CandidateKernel(prep, 0.5, 0.05, JoinStats())
    kernel.run(np.array([0]), np.array([1]))
    assert kernel.stats.candidates == 1 and kernel.codes().size == 1
