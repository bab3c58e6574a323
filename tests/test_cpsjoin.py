"""CPSJoin tests.

The adversarial cases matter most here: buckets whose signatures barely
differ must terminate through the bucket-average removal rule, and a record
similar to a whole dissimilar bucket must be caught by the point rule before
splitting scatters its neighbors.
"""

import math
import time
from dataclasses import replace

import numpy as np
import pytest

from setjoin import cpsjoin, exact, lsh
from setjoin.cpsjoin import (
    CandidateKernel,
    CpsConfig,
    brute_force_step,
    co_bucket_frequency,
    coordinate_mask,
    cps_join,
    cps_join_prepared,
    estimated_recall,
)
from setjoin.datasets import Dataset, gen_uniform
from setjoin.exact import brute_force_join, jaccard, verify
from setjoin.lsh import LshConfig, lsh_join
from setjoin.prep import Prepared, preprocess
from setjoin.sketch import estimate_similarity, filter_threshold, pooled_sketch
from setjoin.stats import JoinStats, encode_pairs, stable_order
from setjoin.tabulation import derive_seed, splitmix64


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


def test_a_join_that_finds_no_pair_runs_its_budget():
    ds = Dataset.from_records([[3 * i, 3 * i + 1, 3 * i + 2] for i in range(50)])  # disjoint
    _, stats = cps_join(ds, CpsConfig(threshold=0.5, limit=5, seed=2))
    assert stats.results == 0 and len(stats.new_results_per_rep) == CpsConfig.reps
    assert stats.recall_estimate_per_rep[1:] == [1.0] * (CpsConfig.reps - 1)  # 0/0 reads 1.0
    _, empty = cps_join(Dataset.from_records([]), CpsConfig(threshold=0.5))
    assert len(empty.new_results_per_rep) == CpsConfig.reps


class _FixedVerdicts:
    """Stands in for `verify_pairs`: a pair passes when its code is in `passing`."""

    def __init__(self, passing):
        self.passing = set(passing)

    def __call__(self, data, a, b, threshold):
        return np.array([int(c) in self.passing for c in encode_pairs(a, b)], dtype=bool)


@pytest.mark.parametrize("pair_block", [None, 1])
def test_kernel_counts_the_repetitions_that_found_each_pair(monkeypatch, pair_block):
    data = Dataset.from_records([list(range(8)) + [100 + i] for i in range(8)])  # J = 0.8
    kernel = CandidateKernel(preprocess(data, seed=1), 0.5, 0.05, JoinStats())
    passing = encode_pairs([0, 0, 1, 3], [2, 5, 4, 6])
    monkeypatch.setattr(cpsjoin, "verify_pairs", _FixedVerdicts(passing))
    if pair_block is not None:
        monkeypatch.setattr(cpsjoin, "_PAIR_BLOCK", pair_block)  # one flush per pair

    def repetition(*pairs):
        for a, b in pairs:
            kernel.run(np.array([a]), np.array([b]))
        return kernel.end_repetition()

    repetition()
    repetition((0, 5), (1, 4), (0, 7))  # (0, 7) fails
    repetition((0, 2), (1, 4), (4, 1))  # a pair found twice in one repetition counts once
    assert repetition((1, 4), (1, 4)).tolist() == encode_pairs([1], [4]).tolist()
    repetition()
    repetition((0, 2), (0, 5), (3, 6), (5, 0))
    # repetitions that found (0, 2), (0, 5), (1, 4), (3, 6): 1, 1, 3, 0 after
    # five, then 2, 2, 3, 1
    estimates = kernel.stats.recall_estimate_per_rep
    assert math.isnan(estimates[0])
    assert estimates[1:] == [estimated_recall(_hits(1, 1), 2), estimated_recall(_hits(1, 1, 2), 3),
                             estimated_recall(_hits(1, 1, 3), 4), estimated_recall(_hits(1, 1, 3), 5),
                             estimated_recall(_hits(2, 2, 3, 1), 6)]
    assert kernel.stats.new_results_per_rep == [0, 2, 1, 0, 0, 1]
    assert kernel.stats.candidates == kernel.stats.pre_candidates  # no filter dropped a pair


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


def test_run_repetitions_stops_where_the_rule_says():
    prep = preprocess(_clustered(), seed=3)
    cfg = CpsConfig(threshold=0.6, seed=11, recall_target=None)
    seen = []

    def stop(kernel):
        seen.append(len(kernel.stats.new_results_per_rep))
        return seen[-1] == 3

    pairs, stats = cpsjoin.run_repetitions(prep, cfg, cpsjoin.repetitions, stop)
    assert seen == [1, 2, 3]  # asked once after each repetition
    fixed_pairs, fixed = cps_join_prepared(prep, replace(cfg, reps=3))
    assert np.array_equal(pairs, fixed_pairs)
    assert stats.new_results_per_rep == fixed.new_results_per_rep
    assert stats.results == fixed.results == pairs.shape[0]


def test_stats_record_the_budget_each_join_chose():
    prep = preprocess(_clustered(), seed=3)
    for cfg in (CpsConfig(threshold=0.6, seed=11, recall_target=None),
                CpsConfig(threshold=0.6, seed=11, reps=4, recall_target=None)):
        _, stats = cps_join_prepared(prep, cfg)
        assert stats.reps == cfg.reps == len(stats.repetition_s)
    # the estimate stops this join early; the budget it chose stays
    _, stopped = cps_join_prepared(prep, CpsConfig(threshold=0.6, seed=11))
    assert len(stopped.repetition_s) < stopped.reps == CpsConfig.reps
    for cfg in (LshConfig(threshold=0.6, seed=9), LshConfig(threshold=0.6, seed=9, k=3, reps=4)):
        _, stats = lsh.lsh_join_prepared(prep, cfg)
        assert stats.reps == lsh.resolve_params(prep, cfg)[1] == len(stats.repetition_s)
    assert JoinStats().reps == 0 and exact.brute_force_join(prep.data, 0.6)[1].reps == 0


@pytest.mark.parametrize("join", ["cpsjoin", "lsh"])
def test_each_repetition_is_timed_inside_the_join_time(join):
    ds = _clustered()
    if join == "cpsjoin":
        _, stats = cps_join(ds, CpsConfig(threshold=0.6, seed=9))
    else:
        _, stats = lsh_join(ds, LshConfig(threshold=0.6, seed=9))
    assert len(stats.repetition_s) == len(stats.new_results_per_rep) >= 2
    assert all(t > 0 for t in stats.repetition_s)
    assert sum(stats.repetition_s) <= stats.join_s


def test_the_key_width_choice_is_timed_apart_from_the_first_repetition(monkeypatch):
    choose = cpsjoin.choose_key_width

    def slow_choice(*args):
        time.sleep(0.3)
        return choose(*args)

    monkeypatch.setattr(cpsjoin, "choose_key_width", slow_choice)
    _, stats = cps_join(_clustered(), CpsConfig(threshold=0.6, seed=9, reps=2))
    assert stats.key_width >= 1 and stats.key_width_s >= 0.3
    assert stats.repetition_s[0] < 0.3
    assert stats.key_width_s + sum(stats.repetition_s) <= stats.join_s


def test_the_lsh_k_choice_is_timed_into_the_join(monkeypatch):
    choose = lsh.choose_k

    def slow_choice(*args):
        time.sleep(0.3)
        return choose(*args)

    monkeypatch.setattr(lsh, "choose_k", slow_choice)
    _, stats = lsh_join(_clustered(), LshConfig(threshold=0.6, seed=9, reps=2))
    assert stats.key_width >= 2 and stats.key_width_s >= 0.3 and stats.join_s >= 0.3
    assert stats.repetition_s[0] < 0.3
    assert stats.key_width_s + sum(stats.repetition_s) <= stats.join_s


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
    cut = filter_threshold(threshold, prep.sketch_minhashes, delta)
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


def _record_pair_blocks(monkeypatch):
    """Wraps `CandidateKernel.run`; returns the list it appends each (a, b)
    block of pairs to."""
    blocks, run = [], CandidateKernel.run

    def recording(kernel, a, b):
        blocks.append((a, b))
        run(kernel, a, b)
    monkeypatch.setattr(CandidateKernel, "run", recording)
    return blocks


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
    kernel = CandidateKernel(prep, 0.3, 0.05, JoinStats())
    blocks = _record_pair_blocks(monkeypatch)
    kernel.run_segments(ids, bounds)
    got = [(int(a), int(b)) for ab in blocks for a, b in zip(*ab)]
    want = _segment_reference_pairs(ids, bounds)
    assert sorted(got) == sorted(want)
    assert all(a.size <= cpsjoin._PAIR_BLOCK for a, _ in blocks)
    if small_blocks:
        assert len(blocks) > 1
    if len(want) > 100:  # the filters and verification each drop some pairs
        assert len(want) > kernel.stats.candidates > kernel.codes().size > 0
    _assert_kernel_matches(kernel, prep, 0.3, 0.05, want)


def _point_rule_buckets(layout):
    """Buckets of ids, one per list of (group, start, stop) slices, where the
    groups are two clusters of near-duplicates, `a` of 12 records and `b` of
    8, and `r`, 30 unrelated records."""
    rng = np.random.default_rng(9)
    recs = [np.concatenate([np.arange(60), [1000 + i]]) for i in range(12)]
    recs += [np.concatenate([np.arange(2000, 2050), [3000 + i]]) for i in range(8)]
    recs += [rng.choice(np.arange(100, 900), size=40, replace=False) for _ in range(30)]
    ds = Dataset.from_records(recs)
    groups = {"a": np.flatnonzero(ds.sizes == 61), "b": np.flatnonzero(ds.sizes == 51),
              "r": np.flatnonzero(ds.sizes == 40)}
    return ds, [[int(x) for g, lo, hi in bucket for x in groups[g][lo:hi]] for bucket in layout]


@pytest.mark.parametrize("pair_block", [None, 50])
def test_point_rule_matches_per_pair_loop(monkeypatch, pair_block):
    # a cluster inside a bucket of unrelated records: every cluster member
    # looks similar to the whole bucket and is removed, so the point rule
    # compares several removed records against the same bucket
    _assert_point_rule_matches_per_pair_loop(monkeypatch, pair_block,
                                             [[("a", 0, 12), ("r", 0, 20)]])


@pytest.mark.parametrize("pair_block", [None, 50])
def test_point_rule_over_several_buckets_matches_per_pair_loop(monkeypatch, pair_block):
    # mixed sizes, a record in two buckets, and a bucket of unrelated records
    # only, where nothing is removed
    _assert_point_rule_matches_per_pair_loop(monkeypatch, pair_block, [
        [("r", 0, 10), ("a", 0, 12), ("r", 10, 15)],
        [("r", 15, 30)],
        [("b", 0, 8), ("a", 1, 2), ("r", 0, 2)],
        [("a", 2, 4), ("r", 20, 24)]])


def _assert_point_rule_matches_per_pair_loop(monkeypatch, pair_block, layout):
    """One `brute_force_step` call over the buckets `layout` makes, against
    a per-bucket, per-pair loop: the pairs and their blocks, the counters,
    the records kept and each bucket's kept size."""
    if pair_block is not None:
        monkeypatch.setattr(cpsjoin, "_PAIR_BLOCK", pair_block)
    ds, buckets = _point_rule_buckets(layout)
    prep = preprocess(ds, sig_len=32, sketch_words=4, seed=2)
    cfg = CpsConfig(threshold=0.5, eps=0.5, limit=2)
    kernel = CandidateKernel(prep, cfg.threshold, cfg.delta, JoinStats())
    blocks = _record_pair_blocks(monkeypatch)
    seeds = np.array([123 + 7 * k for k in range(len(buckets))], dtype=np.uint64)
    ids = np.concatenate(buckets).astype(np.int64)
    kept, kept_sizes = brute_force_step(ids, np.array([len(b) for b in buckets]), seeds, cfg,
                                        kernel)
    pairs, bucket_ends, want_kept, want_sizes = [], [], [], []
    for bucket, seed in zip(buckets, seeds):
        pooled = pooled_sketch(prep.sketches[bucket], derive_seed(int(seed), cpsjoin._POOL_TAG))
        removed = [x for x in bucket if estimate_similarity(prep.sketches[x], pooled)
                   > (1 - cfg.eps) * cfg.threshold]
        pairs += [(x, y) for x in removed for y in bucket if y != x]
        bucket_ends.append(len(pairs))
        want_kept += [x for x in bucket if x not in removed]
        want_sizes.append(len(bucket) - len(removed))
    assert 0 < len(want_kept) < ids.size
    assert kept.tolist() == want_kept
    assert kept_sizes.tolist() == want_sizes
    if len(buckets) > 1:
        assert kept_sizes[1] == len(buckets[1])  # nothing removed from the unrelated bucket
        if pair_block is not None:  # a block runs across the end of a bucket's pairs
            block_sizes = np.array([a.size for a, _ in blocks])
            block_ends = np.cumsum(block_sizes)
            assert any(lo < end < hi for lo, hi in zip(block_ends - block_sizes, block_ends)
                       for end in bucket_ends)
    assert all(a.size <= cpsjoin._PAIR_BLOCK for a, _ in blocks)
    assert [(int(x), int(y)) for ab in blocks for x, y in zip(*ab)] == pairs
    assert kernel.stats.pre_candidates == len(pairs)
    want_codes = _assert_kernel_matches(kernel, prep, cfg.threshold, cfg.delta, pairs)
    assert np.unique(want_codes).size < want_codes.size  # the kernel dropped duplicates


def test_the_point_rule_runs_once_per_depth(monkeypatch):
    calls, step = [], cpsjoin.brute_force_step

    def counting(*args):
        calls.append(1)
        return step(*args)
    monkeypatch.setattr(cpsjoin, "brute_force_step", counting)
    _, stats = cps_join(_clustered(), CpsConfig(threshold=0.6, limit=2, seed=11))
    assert len(calls) <= len(stats.new_results_per_rep) * (stats.max_depth + 1)


@pytest.mark.parametrize("words", [1, 2, 8])
def test_max_h_is_the_largest_distance_the_float_cutoff_passes(words):
    bits = 64 * words
    ds = Dataset.from_records([[0, 1], [0, 2]])
    sketches = np.zeros((ds.n, words), dtype=np.uint64)
    prep = Prepared(ds, np.zeros((ds.n, 1), dtype=np.uint32), sketches, 0, 0.0)
    for threshold in (0.05, 0.3, 0.5, 0.7, 0.9, 1.0):
        for delta in (0.01, 0.05, 0.5, 1.0):
            cut = filter_threshold(threshold, 16 * words, delta)  # the sketch's MinHashes
            want = max((h for h in range(bits + 1) if 1 - 2 * h / bits >= cut), default=-1)
            kernel = CandidateKernel(prep, threshold, delta, JoinStats())
            assert kernel.max_h == want
            assert all(1 - 2 * h / bits >= cut for h in range(kernel.max_h + 1))


def test_kernel_keeps_pairs_whose_estimate_lands_on_the_cutoff():
    # delta=1 makes the cutoff the threshold itself, 0.5, which a 64-bit
    # sketch pair at Hamming distance 16 reaches exactly
    ds = gen_uniform(120, 8, 30, seed=8)
    prep = preprocess(ds, sig_len=16, sketch_words=1, seed=4)
    assert filter_threshold(0.5, prep.sketch_minhashes, 1.0) == 0.5
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


class _RecursiveReference:
    """The recursive CPSJoin repetition the depth loop replaced, kept as the
    reference it must match: a node at or below the limit is compared
    pairwise, a larger one applies the point rule, and the records it keeps
    split on every sampled coordinate, children at or below the limit in one
    batch and larger ones recursed on, until the depth cap."""

    def __init__(self, prep, cfg, kernel, width):
        self.prep, self.cfg, self.kernel, self.width = prep, cfg, kernel, width
        self.depth_cap = 64 + int(10 * math.log2(prep.data.n + 1))

    def brute_force_step(self, ids, node_seed):
        if ids.size == 0:
            return ids
        if ids.size <= self.cfg.limit:
            self.kernel.run_segments(ids, [0, ids.size])
            return ids[:0]
        return brute_force_step(ids, np.array([ids.size]), np.array([node_seed], dtype=np.uint64),
                                self.cfg, self.kernel)[0]

    def recurse(self, ids, node_seed, depth):
        stats = self.kernel.stats
        stats.max_depth = max(stats.max_depth, depth)
        ids = self.brute_force_step(ids, node_seed)
        if ids.size < 2:
            return
        if depth >= self.depth_cap:
            self.kernel.run_segments(ids, [0, ids.size])
            return
        mask = coordinate_mask(derive_seed(node_seed, cpsjoin._MASK_TAG), self.prep.sig_len,
                               self.cfg.threshold, self.width)
        for coord in np.flatnonzero(mask):
            key = cpsjoin._key_coords(np.array([node_seed], dtype=np.uint64), np.array([coord]),
                                      self.width, self.prep.sig_len)[0]
            vals = cpsjoin.bucket_keys([self.prep.sig[ids, c] for c in key])
            order = np.argsort(vals, kind="stable")
            sv = vals[order]
            bounds = np.concatenate([[0], np.flatnonzero(sv[1:] != sv[:-1]) + 1, [sv.size]])
            sizes = np.diff(bounds)
            small = (sizes >= 2) & (sizes <= self.cfg.limit)
            if small.any():
                stats.max_depth = max(stats.max_depth, depth + 1)
                self.kernel.run_segments(ids[order[np.repeat(small, sizes)]],
                                         np.concatenate([[0], np.cumsum(sizes[small])]))
            for k in np.flatnonzero(sizes > self.cfg.limit):
                a, b = bounds[k], bounds[k + 1]
                child_seed = splitmix64(
                    splitmix64(node_seed, cpsjoin._CHILD_TAG_BASE + int(coord)), int(sv[a]))
                self.recurse(ids[order[a:b]], child_seed, depth + 1)

    @staticmethod
    def repetitions(prep, cfg, kernel):
        yield cpsjoin.choose_key_width(prep, cfg, kernel), cfg.reps
        target = cfg.recall_target
        for rep in range(cfg.reps):
            rep_seed = splitmix64(derive_seed(cfg.seed, cpsjoin._REP_TAG), rep)
            _RecursiveReference(prep, cfg, kernel, kernel.stats.key_width).recurse(
                np.arange(prep.data.n, dtype=np.int64), rep_seed, 0)
            kernel.end_repetition()
            yield
            if (target is not None and any(kernel.stats.new_results_per_rep)
                    and kernel.stats.recall_estimate_per_rep[-1] >= target):
                return

    @staticmethod
    def join(prep, cfg):
        return cpsjoin.run_repetitions(prep, cfg, _RecursiveReference.repetitions)


def _assert_matches_recursive_reference(prep, cfg, before_each_join=lambda: None):
    before_each_join()
    pairs, stats = cpsjoin.cps_join_prepared(prep, cfg)
    before_each_join()
    want_pairs, want = _RecursiveReference.join(prep, cfg)
    assert np.array_equal(pairs, want_pairs)
    assert (stats.pre_candidates, stats.candidates, stats.results, stats.max_depth) == \
        (want.pre_candidates, want.candidates, want.results, want.max_depth)
    assert stats.new_results_per_rep == want.new_results_per_rep
    assert np.array_equal(stats.recall_estimate_per_rep, want.recall_estimate_per_rep,
                          equal_nan=True)
    return stats


@pytest.mark.parametrize("pair_block", [None, 64])
@pytest.mark.parametrize("eps", [0.1, 1.0])
@pytest.mark.parametrize("limit", [2, 5, 20, 250])
def test_depth_loop_matches_the_recursive_reference(monkeypatch, limit, eps, pair_block):
    if pair_block is not None:
        monkeypatch.setattr(cpsjoin, "_PAIR_BLOCK", pair_block)
    prep = preprocess(_clustered(), seed=3)
    stats = _assert_matches_recursive_reference(
        prep, CpsConfig(threshold=0.6, eps=eps, limit=limit, seed=11))
    assert stats.results > 0
    if limit < prep.data.n:
        assert stats.max_depth >= 1


@pytest.mark.parametrize("width", [2, 3])
@pytest.mark.parametrize("limit", [5, 20])
def test_depth_loop_matches_the_recursive_reference_at_wider_keys(monkeypatch, limit, width):
    monkeypatch.setattr(cpsjoin, "choose_key_width", lambda prep, cfg, kernel: width)
    prep = preprocess(_clustered(), seed=3)
    stats = _assert_matches_recursive_reference(
        prep, CpsConfig(threshold=0.6, limit=limit, seed=11))
    assert stats.key_width == width and stats.results > 0 and stats.max_depth >= 1


class _RemoveAtCall:
    """Stands in for `estimate_rows`: every row estimates at 0, except the
    first `k` rows on call number `call`, which estimate at 1."""

    def __init__(self, call, k):
        self.call, self.k, self.calls = call, k, 0

    def __call__(self, rows, pooled):
        est = np.zeros(len(rows))
        if self.calls == self.call:
            est[:self.k] = 1.0
        self.calls += 1
        return est


@pytest.mark.parametrize("removed_at_cap", [0, 5])
def test_a_bucket_that_never_splits_apart_stops_at_the_depth_cap(monkeypatch, removed_at_cap):
    # every record has the same one-coordinate signature, so each depth has
    # one bucket of all n records; zero sketches and eps=0 keep the point
    # rule from removing any, so the bucket reaches the cap and is compared
    # pairwise there
    n = 300
    cap = 64 + int(10 * math.log2(n + 1))
    data = Dataset.from_records([[i, n + i] for i in range(n)])
    prep = Prepared(data, np.zeros((n, 1), dtype=np.uint32), np.zeros((n, 1), dtype=np.uint64),
                    0, 0.0)
    cfg = CpsConfig(threshold=1.0, eps=0.0, limit=2, reps=1, recall_target=None)
    before_each_join = lambda: None  # noqa: E731
    if removed_at_cap:
        # the point rule still runs at the cap, before the pairwise
        # comparison: there a stand-in estimate removes the first records of
        # the bucket, and each is compared against all the others first
        cfg = CpsConfig(threshold=1.0, eps=0.5, limit=2, reps=1, recall_target=None)

        def before_each_join():
            monkeypatch.setattr(cpsjoin, "estimate_rows", _RemoveAtCall(cap, removed_at_cap))
    stats = _assert_matches_recursive_reference(prep, cfg, before_each_join)
    assert stats.max_depth == cap == 146
    kept = n - removed_at_cap
    assert stats.pre_candidates == removed_at_cap * (n - 1) + kept * (kept - 1) // 2
    assert stats.candidates == stats.pre_candidates  # equal sizes and sketches pass the filters


@pytest.mark.parametrize("width", [2, 3, 4])
def test_co_bucket_frequency_at_wider_keys_keeps_the_survival_floor(width):
    # criterion 6's floors, 1/(depth + 1) - 0.03, at each width's own
    # sampling rate, for a pair that agrees on exactly a `lam` fraction
    for lam, agree in ((0.5, 64), (0.75, 96)):
        sig_a = np.arange(128, dtype=np.uint32)
        sig_b = sig_a.copy()
        sig_b[agree:] += 1000
        for depth in (1, 2, 3, 4):
            freq = co_bucket_frequency(sig_a, sig_b, lam, depth, 4000, seed=10 * depth,
                                       width=width)
            assert freq >= 1 / (depth + 1) - 0.03, (lam, depth, freq)


@pytest.mark.parametrize("width", [1, 2, 3])
def test_split_children_are_the_records_agreeing_on_every_key_coordinate(width):
    rng = np.random.default_rng(4)
    sig = rng.integers(0, 3, size=(60, 16)).astype(np.uint32)  # few values: large children
    sizes, seeds = np.array([25, 35]), np.array([7, 8], dtype=np.uint64)
    ids = rng.permutation(60).astype(np.int64)
    got_ids, got_sizes, _ = cpsjoin._split(sig, 0.5, ids, sizes, seeds, width)
    want = []
    for bucket, seed in zip(np.split(ids, [25]), seeds):
        mask = coordinate_mask(derive_seed(int(seed), cpsjoin._MASK_TAG), 16, 0.5, width)
        for c in np.flatnonzero(mask):
            key = cpsjoin._key_coords(np.array([seed]), np.array([c]), width, 16)[0]
            assert key[0] == c
            children = {}
            for i in bucket:
                children.setdefault(tuple(sig[i, key]), []).append(int(i))
            want += [child for child in children.values() if len(child) >= 2]
    got = [part.tolist() for part in np.split(got_ids, np.cumsum(got_sizes)[:-1])]
    assert len(want) > 5
    assert sorted(got) == sorted(want)  # each child keeps its bucket's order


def test_extra_key_coordinates_are_drawn_per_bucket_and_coordinate():
    seeds = np.arange(300, dtype=np.uint64)
    coords = cpsjoin._key_coords(seeds, np.full(300, 5), 4, 128)
    assert coords.shape == (300, 4) and (coords[:, 0] == 5).all()
    assert coords.min() >= 0 and coords.max() < 128
    assert len({tuple(row) for row in coords[:, 1:]}) > 250  # no fixed offset from c
    assert len(np.unique(coords[:, 1] - coords[:, 0])) > 100
    # a key of width k is the key of width k - 1 plus one coordinate
    assert np.array_equal(cpsjoin._key_coords(seeds, np.full(300, 5), 3, 128), coords[:, :3])
    other = cpsjoin._key_coords(seeds, np.full(300, 6), 4, 128)
    assert not np.array_equal(other[:, 1:], coords[:, 1:])  # and depend on c


def test_stable_order_is_the_stable_argsort():
    rng = np.random.default_rng(2)
    for size, bits in ((0, 40), (1, 40), (7, 40), (5000, 40), (3000, 63)):  # 63: no room, argsort
        key = rng.integers(0, 2 ** min(bits, 62), size).astype(np.uint64) >> np.uint64(30)
        assert np.array_equal(stable_order(key, bits), np.argsort(key, kind="stable"))


def _count_costed_widths(monkeypatch):
    costed, row_cost = [], cpsjoin._row_cost
    monkeypatch.setattr(cpsjoin, "_row_cost",
                        lambda kernel, ids, sizes, width, *args: costed.append(width)
                        or row_cost(kernel, ids, sizes, width, *args))
    return costed


@pytest.mark.parametrize("records, lam, results", [
    ([], 0.5, 0),
    ([[1, 2, 3]], 0.5, 0),
    ([[4, 5, 6, 7]] * 5, 0.5, 0),  # canonicalized to one record
    # above `limit`; canonical records are distinct, so nothing is 1-similar
    ([rec.tolist() for rec in gen_uniform(400, 6, 30, seed=2).records()], 1.0, 0),
    ([[1, 2, 3, 4, 5, 6, 7, 8, 9, 10], [1, 2]], 0.1, 1),  # 0.1^2 * 128 < 1
], ids=["empty", "one-record", "all-duplicates", "threshold-one", "low-threshold"])
def test_edge_inputs_take_width_one_uncosted(monkeypatch, records, lam, results):
    costed = _count_costed_widths(monkeypatch)
    data = Dataset.from_records(records)
    assert (data.n > CpsConfig.limit) == (lam == 1.0)  # threshold 1 is costed by no rule else
    t0 = time.perf_counter()
    _, stats = cps_join(data, CpsConfig(threshold=lam, seed=1))
    assert time.perf_counter() - t0 < 10
    assert stats.key_width == 1 and costed == [] and stats.results == results


def test_only_widths_that_keep_a_child_per_similar_pair_are_costed(monkeypatch):
    costed = _count_costed_widths(monkeypatch)
    ds = gen_uniform(400, 10, 40, seed=1)
    for lam, want in ((0.08, []), (0.15, [1, 2]), (0.5, [1, 2, 3, 4]), (0.95, [1, 2, 3, 4])):
        # 0.08^2 * 128 < 1, so only width 1 is eligible and nothing is costed;
        # at 0.95 every width is eligible, and no more than _WIDTHS are costed
        costed.clear()
        _, stats = cps_join(ds, CpsConfig(threshold=lam, limit=20, seed=1, reps=2))
        assert costed == want
        assert stats.key_width == 1 if not want else stats.key_width in want


def test_the_width_is_chosen_once_per_join_from_its_seed(monkeypatch):
    calls, choose = [], cpsjoin.choose_key_width
    monkeypatch.setattr(cpsjoin, "choose_key_width",
                        lambda *args: calls.append(1) or choose(*args))
    ds = _clustered()
    cfg = CpsConfig(threshold=0.6, limit=20, seed=9, recall_target=None)
    _, first = cps_join(ds, cfg)
    assert len(calls) == 1 and len(first.new_results_per_rep) == cfg.reps
    _, again = cps_join(ds, cfg)
    assert again.key_width == first.key_width >= 1
    widths = {cps_join(ds, replace(cfg, seed=seed, reps=1))[1].key_width for seed in range(6)}
    assert widths <= set(cpsjoin._WIDTHS)

