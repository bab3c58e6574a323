"""Recall against the exact oracle over eight seeds.

CPSJoin runs over eight records seeds of each benchmark-shaped input: the
`tokens` recipe through `gen_tokens`, and uniform background sets with
clusters of near-duplicates.

The join's stop rule targets a recall of 0.999 (`CpsConfig.recall_target`).
Over the seeds, the median recall must reach the target and no seed may fall
under 0.997; precision is exactly 1.

The `tokens` case is a strict expected failure. The join splits it on keys
of 3 coordinates, which catch a pair whose signatures agree on a fraction s
of their coordinates at a rate that grows like s**3, so catchability is
uneven and Chao's estimate, which the stop reads, over-reports recall: every
seed stops at an estimate of at least 0.999, but the true recall reads
0.9976-0.9998, median 0.9986. A stop rule that accounts for uneven
catchability is the open item that makes this case pass.

LSH runs over eight config seeds on each golden set of `test_golden.py`. Its
target (`LshConfig.recall_target`) is the chance that a pair exactly at the
threshold shares a bucket in some repetition, so the share of the result set
found sits above it: the median over the seeds must reach it, and precision
is exactly 1. One seed is not enough: at config seed 5 the golden `clusters`
recall reads 0.9923 with distinct key coordinates and 0.9688 with
coordinates drawn with replacement, at equal means over 24 seeds.
"""

import numpy as np
import pytest

import test_golden as golden
from setjoin import (CpsConfig, Dataset, LshConfig, TokensSpec, allpairs_join, brute_force_join,
                     cps_join, gen_tokens, lsh_join)
from setjoin.stats import encode_pairs

SEEDS = range(8)


def _tokens(seed):
    data = gen_tokens(TokensSpec(
        d=800, max_freq=700, background_similarity=0.12, seed=seed,
        planted=((0.55, 10), (0.65, 10), (0.75, 10), (0.85, 10), (0.95, 10))))
    return data, 0.5, brute_force_join


def _clusters(seed):
    """6,000 uniform sets (Poisson sizes around 30, d = 10^4) plus 4
    clusters of 160 members, each its cluster's 40-token centre with 2
    tokens replaced."""
    rng = np.random.default_rng(seed)
    sizes = np.maximum(2, rng.poisson(30, size=6000))
    recs = [rng.choice(10_000, size=int(s), replace=False) for s in sizes]
    for _ in range(4):
        center = rng.choice(10_000, size=40, replace=False)
        for _ in range(160):
            rec = center.copy()
            rec[rng.choice(40, size=2, replace=False)] = rng.integers(0, 10_000, size=2)
            recs.append(rec)
    return Dataset.from_records(recs), 0.7, allpairs_join


_OVER_REPORT = pytest.mark.xfail(
    strict=True, raises=AssertionError,
    reason="Chao's estimate over-reports recall at the key width 3 chosen on tokens")


@pytest.mark.parametrize("make", [pytest.param(_tokens, marks=_OVER_REPORT), _clusters],
                         ids=["tokens", "clusters"])
def test_recall_over_records_seeds(make):
    recalls, widths = [], []
    for seed in SEEDS:
        data, lam, oracle = make(seed)
        exact = encode_pairs(*oracle(data, lam)[0].T)
        pairs, stats = cps_join(data, CpsConfig(threshold=lam))
        assert stats.recall_estimate_per_rep[-1] >= CpsConfig.recall_target  # not the budget
        found = encode_pairs(*pairs.T)
        assert np.isin(found, exact).all()  # precision 1
        recalls.append(np.isin(exact, found).mean())
        widths.append(stats.key_width)
    detail = f"recalls {np.round(recalls, 5).tolist()}, key widths {widths}"
    assert np.median(recalls) >= 0.999, detail
    assert min(recalls) >= 0.997, detail


@pytest.mark.parametrize("golden_set", [golden._tokens, golden._uniform, golden._clusters],
                         ids=["tokens", "uniform", "clusters"])
def test_lsh_recall_over_config_seeds(golden_set):
    data, lam = golden_set()
    exact = encode_pairs(*brute_force_join(data, lam)[0].T)
    recalls = []
    for seed in SEEDS:
        pairs, _ = lsh_join(data, LshConfig(threshold=lam, seed=seed))
        found = encode_pairs(*pairs.T)
        assert np.isin(found, exact).all()  # precision 1
        recalls.append(np.isin(exact, found).mean())
    assert np.median(recalls) >= LshConfig.recall_target, np.round(recalls, 4).tolist()
