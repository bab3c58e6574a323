"""Bucketing join tests: repetition math, key folding, k tuning, recall."""

import dataclasses
import math

import numpy as np
import pytest

from setjoin import cpsjoin, lsh
from setjoin.cpsjoin import CandidateKernel, bucket_keys, estimated_recall, split_rows
from setjoin.datasets import Dataset, gen_uniform
from setjoin.exact import brute_force_join, jaccard
from setjoin.lsh import (
    _POS_TAG,
    _TUNE_TAG,
    K_RANGE,
    LshConfig,
    choose_k,
    lsh_join,
    lsh_join_prepared,
    repetitions_for_recall,
    resolve_params,
)
from setjoin.prep import preprocess
from setjoin.tabulation import derive_seed, splitmix64, splitmix64_array


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


def _rep_seeds(reps, seed=LshConfig.seed):
    """The seeds of an LSH join's first `reps` repetitions."""
    return splitmix64_array(derive_seed(seed, _POS_TAG), np.arange(reps, dtype=np.uint64))


def _key(seeds, k, sig_len):
    """(len(seeds), k) coordinates of the key each seed draws: the first is
    seed % sig_len, the rest come from (seed, first), with replacement."""
    return cpsjoin._key_coords(seeds, seeds % np.uint64(sig_len), k, sig_len)


def _root(n, sig_len, seed):
    """split_rows' arguments, before the width, for the one row of a root of
    n records that `seed` keys."""
    return (np.arange(n, dtype=np.int64), np.array([n]), np.array([seed], dtype=np.uint64),
            np.zeros(1, dtype=np.intp), np.array([seed % sig_len]))


def test_sample_positions_distinct_and_in_range():
    # an LSH key's coordinates are drawn with replacement, so they need not
    # be distinct; they are in range, start at seed % sig_len and are
    # deterministic
    seeds = _rep_seeds(50)
    pos = _key(seeds, 5, 128)
    assert pos.shape == (50, 5)
    assert pos.min() >= 0 and pos.max() < 128
    assert np.array_equal(pos[:, 0], seeds % np.uint64(128))
    assert np.array_equal(_key(seeds, 5, 128), pos)
    assert np.array_equal(_key(seeds, 3, 128), pos[:, :3])  # one chain per seed


def test_sample_positions_uniform():
    # frequency of "all 3 coordinates inside a fixed 96-of-128 subset" should
    # match (96/128)^3, the law of independent uniform draws
    want = (96 / 128) ** 3
    hits = np.count_nonzero(_key(_rep_seeds(3000), 3, 128).max(axis=1) < 96)
    assert abs(hits / 3000 - want) < 0.025


def test_bucket_keys_depend_only_on_selected_columns():
    # the children of a root row keyed on 2 coordinates are the same
    # whatever the other columns hold
    rng = np.random.default_rng(0)
    sig = rng.integers(0, 4, size=(50, 8), dtype=np.uint32)
    seed = 7
    used = set(_key(np.array([seed], dtype=np.uint64), 2, 8)[0].tolist())
    noisy = sig.copy()
    for c in set(range(8)) - used:
        noisy[:, c] = rng.integers(0, 2**32, size=50, dtype=np.uint32)
    ids, sizes, *_ = split_rows(sig, *_root(50, 8, seed), 2)
    noisy_ids, noisy_sizes, *_ = split_rows(noisy, *_root(50, 8, seed), 2)
    assert sizes.size > 2
    assert np.array_equal(ids, noisy_ids) and np.array_equal(sizes, noisy_sizes)


def test_bucket_keys_rowwise():
    rng = np.random.default_rng(1)
    sig = rng.integers(0, 2**32, size=(200, 6), dtype=np.uint32)
    perm = rng.permutation(200)
    positions = np.array([0, 3, 4])
    assert np.array_equal(bucket_keys([sig[:, c] for c in positions])[perm],
                          bucket_keys([sig[perm, c] for c in positions]))


def test_bucket_keys_separate_distinct_tuples():
    # 5000 rows with distinct value tuples fold to 5000 distinct keys
    sig = np.arange(5000, dtype=np.uint32).reshape(-1, 1).repeat(4, axis=1)
    keys = bucket_keys([sig[:, 0], sig[:, 2]])
    assert np.unique(keys).size == 5000


def test_choose_k_matches_cost_model():
    ds = gen_uniform(300, 10, 50, seed=3)
    prep = preprocess(ds, 128, 8, seed=5)
    threshold, target = 0.5, 0.9
    picked = set()
    for seed in range(11, 19):
        tune_seed = derive_seed(seed, _TUNE_TAG)
        chain = _key(np.array([tune_seed], dtype=np.uint64), K_RANGE[-1], prep.sig_len)[0]
        best_k, best_cost = None, None
        for k in K_RANGE:
            # every k keys on the first k coordinates of one chain
            _, counts = np.unique(prep.sig[:, chain[:k]], axis=0, return_counts=True)
            pairs = int((counts * (counts - 1) // 2).sum())
            cost = repetitions_for_recall(threshold, k, target) * (pairs + ds.n)
            if best_cost is None or cost < best_cost:
                best_k, best_cost = k, cost
        assert choose_k(prep, threshold, target, seed) == best_k
        picked.add(best_k)
    assert len(picked) > 1  # the seeds reach different choices
    assert choose_k(prep, threshold, target, 11) == choose_k(prep, threshold, target, 11)
    assert choose_k(prep, threshold, target, 11, ks=(4,)) == 4


def test_choose_k_prefers_small_k_when_buckets_cannot_shrink():
    # identical signature rows: every k yields one giant bucket, so the
    # repetition count decides and the smallest k wins
    ds = gen_uniform(120, 8, 50, seed=4)
    prep = preprocess(ds, 128, 8, seed=6)
    degenerate = dataclasses.replace(prep, sig=np.zeros_like(prep.sig))
    assert choose_k(degenerate, 0.5, 0.9, 0) == K_RANGE.start


def test_choose_k_stays_within_the_signature():
    # only k up to sig_len are costed; with none of them, k is sig_len
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


def test_a_pair_shares_a_bucket_at_the_law_s_to_the_k():
    # two signatures that agree on exactly 4 of 16 coordinates share a
    # bucket in a share (4/16)^4 of the repetitions at k = 4, as
    # `repetitions_for_recall` assumes; k distinct coordinates would give
    # C(4, 4) / C(16, 4) = 0.00055 instead
    ds = Dataset.from_records([np.arange(10), np.arange(1, 11)])
    prep = preprocess(ds, sig_len=16, sketch_words=1, seed=1)
    sig = np.tile(np.arange(16, dtype=prep.sig.dtype), (2, 1))
    sig[1, 4:] += 100
    reps, p = 12_000, 0.25 ** 4
    _, stats = lsh_join_prepared(dataclasses.replace(prep, sig=sig),
                                 LshConfig(threshold=0.25, k=4, reps=reps, seed=3))
    assert stats.key_width == 4 and len(stats.repetition_s) == reps
    # each repetition looks at the pair once if it buckets it, else not at all
    assert abs(stats.pre_candidates - reps * p) <= 4 * math.sqrt(reps * p * (1 - p))


def _spy_blocks(monkeypatch):
    """Record the seeds of every `split_rows` call of `lsh` and the
    (ids, bounds) of every `run_segments` call; returns both lists."""
    blocks, segments = [], []
    split_rows, run_segments = lsh.split_rows, CandidateKernel.run_segments
    monkeypatch.setattr(lsh, "split_rows", lambda sig, ids, sizes, seeds, *rest: (
        blocks.append((seeds, sizes[rest[0]].sum())), split_rows(sig, ids, sizes, seeds, *rest))[1])
    monkeypatch.setattr(CandidateKernel, "run_segments", lambda kernel, ids, bounds: (
        segments.append((ids, bounds)), run_segments(kernel, ids, bounds)))
    return blocks, segments


@pytest.mark.parametrize("k", [1, 3])
def test_a_repetitions_buckets_are_a_one_row_split_of_the_root(monkeypatch, k):
    # once with the 5 repetitions in one block, once in blocks of 2, 2 and 1
    prep = preprocess(gen_uniform(400, 10, 40, seed=9), seed=13)
    cfg = LshConfig(threshold=0.5, k=k, reps=5, seed=13)
    runs = []
    for block_entries, block_reps in ((lsh._BLOCK_ENTRIES, [5]), (2 * prep.data.n, [2, 2, 1])):
        with monkeypatch.context() as patch:
            patch.setattr(lsh, "_BLOCK_ENTRIES", block_entries)
            blocks, segments = _spy_blocks(patch)
            runs.append(lsh_join_prepared(prep, cfg))
        assert [seeds.size for seeds, _ in blocks] == block_reps
        assert np.array_equal(np.concatenate([seeds for seeds, _ in blocks]), _rep_seeds(5, 13))
        assert len(segments) == cfg.reps
        for rep, (ids, bounds) in enumerate(segments):
            seed = splitmix64(derive_seed(cfg.seed, _POS_TAG), rep)
            root = _root(prep.data.n, prep.sig_len, seed)
            want_ids, want_sizes, *_ = split_rows(prep.sig, *root, k)
            assert want_sizes.size > 1 and (want_sizes >= 2).all()
            assert np.array_equal(ids, want_ids)
            assert np.array_equal(bounds, np.concatenate([[0], np.cumsum(want_sizes)]))
    (pairs, stats), (block_pairs, block_stats) = runs
    assert np.array_equal(block_pairs, pairs)
    for name in ("pre_candidates", "candidates", "results", "key_width",
                 "new_results_per_rep", "recall_estimate_per_rep"):
        assert getattr(block_stats, name) == getattr(stats, name), name


def test_no_bucketing_call_lays_out_more_than_a_block(monkeypatch):
    # k = 10 at threshold 0.5 runs 2,358 repetitions; a block of 300 records
    # holds 873 of them, so they are bucketed in blocks of 873, 873 and 612
    prep = preprocess(gen_uniform(300, 10, 40, seed=9), seed=13)
    blocks, _ = _spy_blocks(monkeypatch)
    _, stats = lsh_join_prepared(prep, LshConfig(threshold=0.5, k=10))
    assert len(stats.repetition_s) == repetitions_for_recall(0.5, 10, 0.9) == 2358
    assert [seeds.size for seeds, _ in blocks] == [873, 873, 612]
    assert max(entries for _, entries in blocks) <= max(prep.data.n, lsh._BLOCK_ENTRIES)


def _choose_k_unpruned(prep, threshold, target, seed, ks):
    """(k, widths costed) of choose_k's cost model over every k of `ks` up
    to the signature length, with the costed count of the pruned scan, which
    stops at the first k whose repetitions times n reach the best cost."""
    n = prep.data.n
    ks = sorted(k for k in ks if k <= prep.sig_len) or [prep.sig_len]
    chain = _key(np.array([derive_seed(seed, _TUNE_TAG)], dtype=np.uint64), ks[-1],
                 prep.sig_len)[0]
    costs, costed = [], None
    for k in ks:
        reps = repetitions_for_recall(threshold, k, target)
        if costed is None and costs and reps * n >= min(costs):
            costed = len(costs)
        _, counts = np.unique(prep.sig[:, chain[:k]], axis=0, return_counts=True)
        costs.append(reps * (int((counts * (counts - 1) // 2).sum()) + n))
    return ks[int(np.argmin(costs))], len(ks) if costed is None else costed


def test_pruned_choose_k_matches_a_full_scan(monkeypatch):
    prep = preprocess(gen_uniform(300, 10, 50, seed=3), 128, 8, seed=5)
    blocks, _ = _spy_blocks(monkeypatch)
    pruned = 0
    for threshold in (0.3, 0.5, 0.7, 0.9):
        for seed in (11, 12, 13):
            for ks in (K_RANGE, (7, 3, 5), range(1, 14), (4,)):
                want, costed = _choose_k_unpruned(prep, threshold, 0.9, seed, ks)
                blocks.clear()
                assert choose_k(prep, threshold, 0.9, seed, ks) == want
                assert len(blocks) == costed
                pruned += costed < len(ks)
    assert pruned > 24  # 36 of these 48 scans stop early
