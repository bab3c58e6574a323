"""Seeded runs pinned across versions of the library.

Each digest is the sha256 of the sorted pair codes followed by the counters
(pre_candidates, candidates, results, max_depth). A change to how candidate
pairs are generated, filtered, verified or counted that alters what a seeded
join finds or the work it reports changes the digest. The `tokens` case runs
CPSJoin with a small `limit`, so its large buckets go through the pooled-sketch
point rule as well as the recursive split. The `clusters` case holds clusters
of near-duplicates, which every repetition re-finds, so most of its
candidates are pairs the join has verified before. The exact joins are pinned
on the `tokens` and `uniform` sets, AllPairs with and without its prefix
filter. The CPSJoin cases pass `recall_target=None`, so they pin the
fixed ten-repetition run rather than where the self-tuned stop falls.

Every join that verifies pairs is pinned on both verification routes: the
bitset popcount these small universes take by default, and the token probe
that datasets too wide for a bitset take. The digests are the same.
"""

import hashlib
from functools import partial

import numpy as np
import pytest

from setjoin import (CpsConfig, Dataset, LshConfig, TokensSpec, allpairs_join, brute_force_join,
                     cps_join, datasets, gen_tokens, gen_uniform, lsh_join)
from setjoin.stats import encode_pairs


def _digest(pairs, stats) -> str:
    h = hashlib.sha256(np.sort(encode_pairs(pairs[:, 0], pairs[:, 1])).tobytes())
    h.update(repr((stats.pre_candidates, stats.candidates, stats.results,
                   stats.max_depth)).encode())
    return h.hexdigest()


def _tokens():
    return gen_tokens(TokensSpec(d=400, max_freq=200, planted=((0.6, 5), (0.8, 5)),
                                 background_similarity=0.1, seed=3)), 0.5


def _uniform():
    return gen_uniform(1500, 8, 120, seed=11), 0.4


def _clusters():
    """400 uniform background sets plus 3 clusters of 40 near-duplicates, each
    member its cluster's 30-token center with 2 tokens replaced."""
    rng = np.random.default_rng(13)
    recs = [rng.choice(3000, size=int(s), replace=False) for s in rng.integers(8, 30, size=400)]
    for _ in range(3):
        center = rng.choice(3000, size=30, replace=False)
        for _ in range(40):
            rec = center.copy()
            rec[rng.choice(30, size=2, replace=False)] = rng.integers(0, 3000, size=2)
            recs.append(rec)
    return Dataset.from_records(recs), 0.7


def _fixed_cps(lam):
    """All ten repetitions, without the self-tuned stop."""
    return CpsConfig(threshold=lam, limit=20, seed=5, recall_target=None)


_CASES = [
    (_tokens, cps_join, _fixed_cps,
     "232e23b71f4c0221db0323366625c665dba5b9e151b4aa125e707c9ad23dd48a"),
    (_tokens, lsh_join, lambda lam: LshConfig(threshold=lam, seed=5),
     "177d841f8153c9ee46ccb3a142ecf5f7cfbf7f2d5f26a273a632aceab9309912"),
    (_uniform, cps_join, _fixed_cps,
     "933ffaa9b9e4cb1048432d90fc13f548171a9d7df21a0d991bdef2b31717d107"),
    (_uniform, lsh_join, lambda lam: LshConfig(threshold=lam, seed=5),
     "7dec08c4533318a46f18a4eebe6fcbb9927458d0709a77a3d23d9ac428d3db72"),
    (_clusters, cps_join, _fixed_cps,
     "5d8df98e1558f582f27648cd16df0dcab33ae2531c94fba2712ae79bd4dc4e40"),
    (_clusters, lsh_join, lambda lam: LshConfig(threshold=lam, seed=5),
     "e6d2832ebee3ba06f36e8652597e7645532a9cf142c5f8b9825ed9f37bcefc8f"),
    (_tokens, allpairs_join, lambda lam: lam,
     "4721ecacfb5776cb951b4df49527400f3925da792bfce84040ce61531d79041e"),
    (_tokens, partial(allpairs_join, prefix_filter=False), lambda lam: lam,
     "784f8954816bd0599f16307e4a50df2fbbb792622d5b37f817bbfe4e41617fe5"),
    (_tokens, brute_force_join, lambda lam: lam,
     "d95fed5badad2c9e08424279e31cb502e5b35cc1338879880ff119b01993563c"),
    (_uniform, allpairs_join, lambda lam: lam,
     "bacd4ed469300acc74406a47d0ce62adc9e7062a3679c776cecbeac6ef4d4ee0"),
    (_uniform, partial(allpairs_join, prefix_filter=False), lambda lam: lam,
     "63bc3210b26e2128563f87f40c19f9dcbbfd3371924e2aeb365ff72834ef1f14"),
    (_uniform, brute_force_join, lambda lam: lam,
     "f9b4035f13112729d5499584fd09f5ababe28c53eaa28e61b672891d141d6ed7"),
]
_IDS = ["tokens-cpsjoin", "tokens-lsh", "uniform-cpsjoin", "uniform-lsh",
        "clusters-cpsjoin", "clusters-lsh",
        "tokens-allpairs", "tokens-allpairs-noprefix", "tokens-bruteforce",
        "uniform-allpairs", "uniform-allpairs-noprefix", "uniform-bruteforce"]
# Brute force counts every intersection itself and never verifies a pair.
_VERIFYING = [(case, name) for case, name in zip(_CASES, _IDS) if case[1] is not brute_force_join]


@pytest.mark.parametrize("dataset, join, config, want", _CASES, ids=_IDS)
def test_seeded_join_digest(dataset, join, config, want):
    data, lam = dataset()
    pairs, stats = join(data, config(lam))
    assert data.bitset() is not None
    assert _digest(pairs, stats) == want


@pytest.mark.parametrize("dataset, join, config, want", [c for c, _ in _VERIFYING],
                         ids=[name for _, name in _VERIFYING])
def test_seeded_join_digest_on_the_probe_route(monkeypatch, dataset, join, config, want):
    monkeypatch.setattr(datasets, "_BITSET_BYTE_CAP", 0)
    data, lam = dataset()
    pairs, stats = join(data, config(lam))
    assert data.bitset() is None
    assert _digest(pairs, stats) == want
