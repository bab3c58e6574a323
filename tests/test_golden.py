"""Seeded runs pinned across versions of the library.

Each digest is the sha256 of the sorted pair codes followed by the counters
(pre_candidates, candidates, results, max_depth). A change to how candidate
pairs are generated, filtered, verified or counted that alters what a seeded
join finds or the work it reports changes the digest. The `tokens` case runs
CPSJoin with a small `limit`, so its large buckets go through the pooled-sketch
point rule as well as the recursive split. The exact joins are pinned on the
same sets, AllPairs with and without its prefix filter.
"""

import hashlib
from functools import partial

import numpy as np
import pytest

from setjoin import (CpsConfig, LshConfig, TokensSpec, allpairs_join, brute_force_join, cps_join,
                     gen_tokens, gen_uniform, lsh_join)
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


@pytest.mark.parametrize("dataset, join, config, want", [
    (_tokens, cps_join, lambda lam: CpsConfig(threshold=lam, limit=20, seed=5),
     "232e23b71f4c0221db0323366625c665dba5b9e151b4aa125e707c9ad23dd48a"),
    (_tokens, lsh_join, lambda lam: LshConfig(threshold=lam, seed=5),
     "177d841f8153c9ee46ccb3a142ecf5f7cfbf7f2d5f26a273a632aceab9309912"),
    (_uniform, cps_join, lambda lam: CpsConfig(threshold=lam, limit=20, seed=5),
     "933ffaa9b9e4cb1048432d90fc13f548171a9d7df21a0d991bdef2b31717d107"),
    (_uniform, lsh_join, lambda lam: LshConfig(threshold=lam, seed=5),
     "7dec08c4533318a46f18a4eebe6fcbb9927458d0709a77a3d23d9ac428d3db72"),
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
], ids=["tokens-cpsjoin", "tokens-lsh", "uniform-cpsjoin", "uniform-lsh",
        "tokens-allpairs", "tokens-allpairs-noprefix", "tokens-bruteforce",
        "uniform-allpairs", "uniform-allpairs-noprefix", "uniform-bruteforce"])
def test_seeded_join_digest(dataset, join, config, want):
    data, lam = dataset()
    pairs, stats = join(data, config(lam))
    assert _digest(pairs, stats) == want
