"""One candidate kernel per join: each distinct candidate pair is verified at
most once, however many repetitions or point-rule passes find it again.

The counters still count every candidate, duplicates included, so pairs and
counters match the per-repetition verification the kernel replaces (the
golden digests pin that); these tests check the verification itself, the
flushes inside a repetition, and the per-repetition result counts.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from setjoin import CpsConfig, Dataset, LshConfig, cps_join, cpsjoin, lsh_join, preprocess
from setjoin.cpsjoin import CandidateKernel
from setjoin.stats import JoinStats, encode_pairs

BENCH_DIR = Path(__file__).resolve().parent.parent / "joinbench"


def _near_duplicates():
    """300 uniform background sets plus 3 clusters of 30 near-duplicates."""
    rng = np.random.default_rng(21)
    recs = [rng.choice(2000, size=int(s), replace=False) for s in rng.integers(8, 25, size=300)]
    for _ in range(3):
        center = rng.choice(2000, size=25, replace=False)
        for _ in range(30):
            rec = center.copy()
            rec[rng.choice(25, size=3, replace=False)] = rng.integers(0, 2000, size=3)
            recs.append(rec)
    return Dataset.from_records(recs)


JOINS = [(cps_join, CpsConfig(threshold=0.7, limit=20, seed=5)),
         (lsh_join, LshConfig(threshold=0.7, seed=5))]


def _counters(stats):
    return (stats.pre_candidates, stats.candidates, stats.results, stats.max_depth)


@pytest.mark.parametrize("pair_block", [None, 64])
@pytest.mark.parametrize("join, cfg", JOINS, ids=["cpsjoin", "lsh"])
def test_each_candidate_pair_is_verified_at_most_once(monkeypatch, join, cfg, pair_block):
    data = _near_duplicates()
    want_pairs, want_stats = join(data, cfg)
    verified, outcomes, dedups = [], [], []
    verify_pairs, unique_pairs = cpsjoin.verify_pairs, cpsjoin.unique_pairs

    def recording_verify(data, a, b, threshold):
        verified.append(encode_pairs(a, b))
        outcomes.append(verify_pairs(data, a, b, threshold))
        return outcomes[-1]

    def recording_unique(chunks):
        dedups.append(1)
        return unique_pairs(chunks)

    monkeypatch.setattr(cpsjoin, "verify_pairs", recording_verify)
    monkeypatch.setattr(cpsjoin, "unique_pairs", recording_unique)
    if pair_block is not None:
        monkeypatch.setattr(cpsjoin, "_PAIR_BLOCK", pair_block)
    pairs, stats = join(data, cfg)
    codes = np.concatenate(verified)
    assert np.unique(codes).size == codes.size
    assert stats.candidates > 2 * codes.size  # repetitions re-found most pairs
    outcomes = np.concatenate(outcomes)
    assert 0 < np.count_nonzero(outcomes) < outcomes.size  # failed pairs are not re-verified either
    reps = len(stats.new_results_per_rep)
    if pair_block is None:
        assert len(dedups) == reps  # one flush per repetition
    else:
        assert len(dedups) > 2 * reps  # flushes inside repetitions
    assert np.array_equal(pairs, want_pairs)
    assert _counters(stats) == _counters(want_stats)
    assert stats.new_results_per_rep == want_stats.new_results_per_rep
    assert sum(stats.new_results_per_rep) == stats.results


def test_codes_are_the_same_on_every_call():
    data = _near_duplicates()
    prep = preprocess(data, seed=3)
    kernel = CandidateKernel(prep, 0.7, 0.05, JoinStats())
    ids = np.arange(data.n, dtype=np.int64)
    kernel.run_segments(ids[-90:], [0, 30, 60, 90])  # the three clusters
    first = kernel.codes()
    assert first.size > 0
    assert np.array_equal(kernel.codes(), first)
    assert np.array_equal(kernel.end_repetition(), first)
    assert np.array_equal(kernel.codes(), first)
    kernel.run_segments(ids[-90:], [0, 30, 60, 90])  # the same pairs again
    assert np.array_equal(kernel.end_repetition(), first)
    assert kernel.stats.new_results_per_rep == [first.size, 0]
    assert np.array_equal(kernel.codes(), first)


@pytest.mark.parametrize("workload", ["clusters", "tokens"])
def test_new_results_per_rep_matches_the_benchmark_trace(capsys, monkeypatch, workload):
    monkeypatch.syspath_prepend(str(BENCH_DIR))
    import run

    assert run.main(["--workload", workload, "--seed", "1", "--seconds", "0", "--trace", "1"]) == 0
    report = json.loads(capsys.readouterr().out.strip().splitlines()[-2])["report"]
    assert not report["problems"]
    pipe = run.Pipeline(run._import_setjoin(), run.WORKLOADS[workload])
    prep = pipe.setup(pipe.workload.records(1))
    for join in ("cpsjoin", "lsh"):
        _, stats = pipe.call(join, prep)
        assert stats.new_results_per_rep == report["new_results_per_rep"][join]
        assert sum(stats.new_results_per_rep) == stats.results
    if workload == "clusters":
        assert report["new_results_per_rep"]["cpsjoin"] == [45893, 4931, 56]
