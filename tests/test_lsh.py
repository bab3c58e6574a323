"""Bucketing join tests: repetition math, key folding, k tuning, recall."""

import dataclasses
import math

import numpy as np
import pytest

from setjoin import cpsjoin, lsh
from setjoin.cpsjoin import estimated_recall
from setjoin.datasets import Dataset, gen_uniform
from setjoin.exact import brute_force_join, jaccard
from setjoin.lsh import (
    K_RANGE,
    _TUNE_TAG,
    LshConfig,
    bucket_keys,
    choose_k,
    lsh_join,
    lsh_join_prepared,
    repetitions_for_recall,
    resolve_params,
    sample_positions,
)
from setjoin.prep import preprocess
from setjoin.tabulation import derive_seed


def test_repetitions_known_value():
    assert repetitions_for_recall(0.5, 3, 0.9) == 19


def test_repetitions_at_threshold_one():
    for k in range(1, 11):
        assert repetitions_for_recall(1.0, k, 0.9) == 3


def test_repetitions_monotone_in_k():
    last = 0
    for k in range(1, 9):
        reps = repetitions_for_recall(0.7, k, 0.9)
        assert reps >= last
        last = reps
    assert math.ceil(math.log(10.0) / 0.7) == repetitions_for_recall(0.7, 1, 0.9)


def test_repetitions_validation():
    with pytest.raises(ValueError):
        repetitions_for_recall(0.5, 3, 1.0)
    with pytest.raises(ValueError):
        repetitions_for_recall(0.5, 3, 0.0)


def test_config_validation():
    with pytest.raises(ValueError):
        LshConfig(threshold=0.0)
    with pytest.raises(ValueError):
        LshConfig(threshold=0.5, recall_target=1.0)
    with pytest.raises(ValueError):
        LshConfig(threshold=0.5, k=0)
    with pytest.raises(ValueError):
        LshConfig(threshold=0.5, reps=0)
    # k is checked against the embedding's signature length at join time
    prep = preprocess(gen_uniform(30, 6, 40, seed=10), sig_len=64, sketch_words=1, seed=1)
    assert resolve_params(prep, LshConfig(threshold=0.5, k=64, reps=1)) == (64, 1)
    with pytest.raises(ValueError):
        lsh_join_prepared(prep, LshConfig(threshold=0.5, k=65))


def test_sample_positions_distinct_and_in_range():
    for seed in range(50):
        pos = sample_positions(seed, 5, 128)
        assert pos.size == 5
        assert np.unique(pos).size == 5
        assert pos.min() >= 0 and pos.max() < 128
    assert np.array_equal(sample_positions(7, 5, 128), sample_positions(7, 5, 128))


def test_sample_positions_uniform():
    # frequency of "all 3 positions inside a fixed 96-of-128 subset" should
    # match the hypergeometric value C(96,3)/C(128,3)
    want = (96 * 95 * 94) / (128 * 127 * 126)
    hits = sum(sample_positions(seed, 3, 128).max() < 96 for seed in range(3000))
    assert abs(hits / 3000 - want) < 0.025


def test_bucket_keys_depend_only_on_selected_columns():
    rng = np.random.default_rng(0)
    sig = rng.integers(0, 2**32, size=(50, 8), dtype=np.uint32)
    positions = np.array([1, 5])
    noisy = sig.copy()
    for c in (0, 2, 3, 4, 6, 7):
        noisy[:, c] = rng.integers(0, 2**32, size=50, dtype=np.uint32)
    assert np.array_equal(bucket_keys(sig, positions), bucket_keys(noisy, positions))


def test_bucket_keys_rowwise():
    rng = np.random.default_rng(1)
    sig = rng.integers(0, 2**32, size=(200, 6), dtype=np.uint32)
    perm = rng.permutation(200)
    positions = np.array([0, 3, 4])
    assert np.array_equal(bucket_keys(sig, positions)[perm],
                          bucket_keys(sig[perm], positions))


def test_bucket_keys_separate_distinct_tuples():
    # 5000 rows with distinct value tuples fold to 5000 distinct keys
    sig = np.arange(5000, dtype=np.uint32).reshape(-1, 1).repeat(4, axis=1)
    keys = bucket_keys(sig, np.array([0, 2]))
    assert np.unique(keys).size == 5000


def test_choose_k_matches_cost_model():
    ds = gen_uniform(300, 10, 50, seed=3)
    prep = preprocess(ds, 128, 8, seed=5)
    threshold, target, seed = 0.5, 0.9, 11
    tune_seed = derive_seed(seed, _TUNE_TAG)
    best_k, best_cost = None, None
    for k in K_RANGE:
        positions = sample_positions(derive_seed(tune_seed, k), k, prep.sig_len)
        _, counts = np.unique(bucket_keys(prep.sig, positions), return_counts=True)
        pairs = int((counts * (counts - 1) // 2).sum())
        cost = repetitions_for_recall(threshold, k, target) * (pairs + ds.n)
        if best_cost is None or cost < best_cost:
            best_k, best_cost = k, cost
    assert choose_k(prep, threshold, target, seed) == best_k
    assert choose_k(prep, threshold, target, seed) == choose_k(prep, threshold, target, seed)
    assert choose_k(prep, threshold, target, seed, ks=(4,)) == 4


def test_choose_k_prefers_small_k_when_buckets_cannot_shrink():
    # identical signature rows: every k yields one giant bucket, so the
    # repetition count decides and the smallest k wins
    ds = gen_uniform(120, 8, 50, seed=4)
    prep = preprocess(ds, 128, 8, seed=6)
    degenerate = dataclasses.replace(prep, sig=np.zeros_like(prep.sig))
    assert choose_k(degenerate, 0.5, 0.9, 0) == K_RANGE.start


def test_choose_k_stays_within_the_signature():
    # a k above sig_len samples only sig_len positions, while its repetition
    # budget is sized for k
    ds = gen_uniform(120, 8, 50, seed=4)
    one = preprocess(ds, 1, 8, seed=6)
    assert choose_k(one, 0.5, 0.9) == 1
    assert resolve_params(one, LshConfig(threshold=0.5)) == (1, 5)
    four = preprocess(ds, 4, 8, seed=6)
    assert choose_k(four, 0.5, 0.9, ks=(5, 6)) == 4
    degenerate = dataclasses.replace(four, sig=np.zeros_like(four.sig))
    assert choose_k(degenerate, 0.5, 0.9, ks=(3, 4, 5, 6)) == 3


def test_resolve_params_passthrough_and_tuning():
    ds = gen_uniform(200, 10, 50, seed=5)
    prep = preprocess(ds, 128, 8, seed=7)
    cfg = LshConfig(threshold=0.5, k=3, reps=8)
    assert resolve_params(prep, cfg) == (3, 8)
    cfg = LshConfig(threshold=0.5, k=3)
    assert resolve_params(prep, cfg) == (3, 19)
    cfg = LshConfig(threshold=0.5)
    k, reps = resolve_params(prep, cfg)
    assert k in K_RANGE
    assert reps == repetitions_for_recall(0.5, k, 0.9)


def test_similar_pair_found_across_seeds():
    ds = Dataset.from_records([np.arange(12), np.arange(3, 15)])
    assert jaccard(ds.record(0), ds.record(1)) == 0.6
    hits = 0
    for seed in range(100):
        cfg = LshConfig(threshold=0.5, k=3, reps=19, seed=seed)
        pairs, _ = lsh_join(ds, cfg)
        hits += any((a, b) == (0, 1) for a, b in pairs)
    assert hits >= 90


def test_recall_and_precision_on_random_data():
    ds = gen_uniform(800, 10, 30, seed=2)
    exact, _ = brute_force_join(ds, 0.5)
    exact_set = {(int(a), int(b)) for a, b in exact}
    pairs, stats = lsh_join(ds, LshConfig(threshold=0.5))
    got = {(int(a), int(b)) for a, b in pairs}
    assert got <= exact_set
    assert len(got) / len(exact_set) >= 0.9
    assert stats.counters_ok()
    assert stats.pre_candidates >= stats.candidates >= stats.results


def test_nothing_similar_returns_empty():
    ds = gen_uniform(300, 8, 5000, seed=8)
    pairs, stats = lsh_join(ds, LshConfig(threshold=0.99, k=4, reps=5))
    assert pairs.shape == (0, 2)
    assert stats.results == 0


def test_determinism():
    ds = gen_uniform(400, 10, 40, seed=9)
    cfg = LshConfig(threshold=0.5, seed=13)
    p1, s1 = lsh_join(ds, cfg)
    p2, s2 = lsh_join(ds, cfg)
    assert np.array_equal(p1, p2)
    assert (s1.pre_candidates, s1.candidates, s1.results) == \
        (s2.pre_candidates, s2.candidates, s2.results)


def test_lsh_reports_its_recall_estimate_but_runs_its_budget(monkeypatch):
    ds = gen_uniform(400, 10, 40, seed=9)
    cfg = LshConfig(threshold=0.5, seed=13)
    prep = preprocess(ds, seed=cfg.seed)
    _, reps = resolve_params(prep, cfg)
    found = []
    repetition_codes = lsh.repetition_codes

    def recording(*args):
        found.append(repetition_codes(*args))
        return found[-1]

    monkeypatch.setattr(lsh, "repetition_codes", recording)
    pairs, stats = lsh_join_prepared(prep, cfg)
    estimates = stats.recall_estimate_per_rep
    assert len(estimates) == len(stats.new_results_per_rep) == len(found) == reps > 2
    assert math.isnan(estimates[0])
    for r in range(2, reps + 1):
        _, hits = np.unique(np.concatenate(found[:r]), return_counts=True)
        assert estimates[r - 1] == estimated_recall(hits, r)
    # an estimate that reads the join as complete does not cut the budget
    monkeypatch.setattr(cpsjoin, "estimated_recall", lambda hits, reps: 1.0)
    same_pairs, same = lsh_join_prepared(prep, cfg)
    assert np.array_equal(same_pairs, pairs)
    assert (same.pre_candidates, same.candidates, same.results) == \
        (stats.pre_candidates, stats.candidates, stats.results)
    assert same.new_results_per_rep == stats.new_results_per_rep
