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
fixed ten-repetition run rather than where the self-tuned stop falls. Each
CPSJoin case also pins the key width the join chooses: the `clusters` case
splits on one coordinate, the `uniform` case on two and the `tokens` case on
three. Sketches pack the signature family's first MinHashes, so the
approximate joins' digests moved when sketches stopped drawing a family of
their own; only the `clusters` LSH case kept its digest.

Every join that verifies pairs is pinned on all three verification routes:
the popcount over whole bitset rows that these small universes take by
default, the popcount over the lower id's non-zero bitset words that sparse
bitsets take, and the CSR row product that datasets too wide for a bitset
take. The digests are the same. A mismatch prints the join's counters, so a
re-pin shows which of them moved.

The canonical datasets themselves are pinned too: the sha256 of `tokens`,
`indptr`, `d` and the build's index map (input record to final index, which
`gen_tokens` reads to number its planted pairs), taken from the per-record
build before the array-pass build replaced it.
"""

import hashlib
from functools import partial

import numpy as np
import pytest

from setjoin import (CpsConfig, Dataset, LshConfig, TokensSpec, allpairs_join, brute_force_join,
                     cps_join, datasets, exact, gen_tokens, gen_uniform, lsh_join)
from setjoin.stats import encode_pairs


def _counters(stats) -> tuple:
    return stats.pre_candidates, stats.candidates, stats.results, stats.max_depth


def _digest(pairs, stats) -> str:
    h = hashlib.sha256(np.sort(encode_pairs(pairs[:, 0], pairs[:, 1])).tobytes())
    h.update(repr(_counters(stats)).encode())
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
     "8cf0c27996ffa1d188e2e05a1e7d0163599e6714aa063eb917c4651010ba0b45"),
    (_tokens, lsh_join, lambda lam: LshConfig(threshold=lam, seed=5),
     "923c3b69e3f07430d47a44e649ee2965c91eeed5476a4d790cbf45ca2a6a8f70"),
    (_uniform, cps_join, _fixed_cps,
     "6b7fbb478d93f5e29c87ccbe722c04d395e7330fc6cc118bc2b81af38350f1dd"),
    (_uniform, lsh_join, lambda lam: LshConfig(threshold=lam, seed=5),
     "c24a13dab5761adab42701539b1a9405bed5889e187a9ae77afc7cd57174418c"),
    (_clusters, cps_join, _fixed_cps,
     "4097c55a868c14d13dc389ae42872763b27da41d9e6bf71d18441883c37f35df"),
    (_clusters, lsh_join, lambda lam: LshConfig(threshold=lam, seed=5),
     "f35b956df47294eeef26f508a1374e25bbe323812ba36af9a21b8b4959c30418"),
    (_tokens, allpairs_join, lambda lam: lam,
     "ec8edead7a451ad9e3cf8c6ce03d65cb138be0a1b60ee177eedf492a35fdc7a7"),
    (_tokens, partial(allpairs_join, prefix_filter=False), lambda lam: lam,
     "0b17116daa17fa0f13e0d23d16f16dc3dc31c9bca06de2fcb6f46b969ffc7682"),
    (_tokens, brute_force_join, lambda lam: lam,
     "d95fed5badad2c9e08424279e31cb502e5b35cc1338879880ff119b01993563c"),
    (_uniform, allpairs_join, lambda lam: lam,
     "49ea1436dbbf8196fc4aa2200c6b427736f873203777985c77d19e35e89447e1"),
    (_uniform, partial(allpairs_join, prefix_filter=False), lambda lam: lam,
     "14a9b5799ea5e55cbb4ee859b0abdb22a9eb6808b764307c1b072856f66b4b31"),
    (_uniform, brute_force_join, lambda lam: lam,
     "f9b4035f13112729d5499584fd09f5ababe28c53eaa28e61b672891d141d6ed7"),
]
_IDS = ["tokens-cpsjoin", "tokens-lsh", "uniform-cpsjoin", "uniform-lsh",
        "clusters-cpsjoin", "clusters-lsh",
        "tokens-allpairs", "tokens-allpairs-noprefix", "tokens-bruteforce",
        "uniform-allpairs", "uniform-allpairs-noprefix", "uniform-bruteforce"]
# Brute force counts every intersection itself and never verifies a pair.
_VERIFYING = [(case, name) for case, name in zip(_CASES, _IDS) if case[1] is not brute_force_join]


@pytest.mark.parametrize("dataset, width", [(_tokens, 3), (_uniform, 2), (_clusters, 1)],
                         ids=["tokens", "uniform", "clusters"])
def test_seeded_cpsjoin_key_width(dataset, width):
    data, lam = dataset()
    _, stats = cps_join(data, _fixed_cps(lam))
    assert stats.key_width == width


@pytest.mark.parametrize("dataset, join, config, want", _CASES, ids=_IDS)
def test_seeded_join_digest(dataset, join, config, want):
    data, lam = dataset()
    pairs, stats = join(data, config(lam))
    assert data.bitset() is not None
    assert _digest(pairs, stats) == want, _counters(stats)


@pytest.mark.parametrize("dataset, join, config, want", [c for c, _ in _VERIFYING],
                         ids=[name for _, name in _VERIFYING])
def test_seeded_join_digest_on_the_probe_route(monkeypatch, dataset, join, config, want):
    monkeypatch.setattr(datasets, "_BITSET_BYTE_CAP", 0)
    data, lam = dataset()
    pairs, stats = join(data, config(lam))
    assert data.bitset() is None
    assert _digest(pairs, stats) == want, _counters(stats)


@pytest.mark.parametrize("dataset, join, config, want", [c for c, _ in _VERIFYING],
                         ids=[name for _, name in _VERIFYING])
def test_seeded_join_digest_on_the_word_route(monkeypatch, dataset, join, config, want):
    monkeypatch.setattr(exact, "_GATHER_COST", 0)
    calls = []
    word_intersections = exact._word_intersections
    monkeypatch.setattr(exact, "_word_intersections",
                        lambda *args: calls.append(1) or word_intersections(*args))
    data, lam = dataset()
    pairs, stats = join(data, config(lam))
    assert calls
    assert _digest(pairs, stats) == want, _counters(stats)


def _dataset_digest(monkeypatch, generate) -> str:
    built = []
    build = datasets._build

    def spy(*args, **kwargs):
        built.append(build(*args, **kwargs))
        return built[-1]

    monkeypatch.setattr(datasets, "_build", spy)
    generate()
    (data, index_map), = built
    h = hashlib.sha256()
    for part in (data.tokens, data.indptr, np.array([data.d], dtype=np.int64), index_map):
        h.update(np.ascontiguousarray(part).tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("generate, want", [
    (lambda: gen_uniform(2000, 30, 10_000, seed=17),
     "5bf2c8bab66c24e653ae4e5bc303e9e8e6f11c05a331910f936db20f970ad305"),
    (lambda: gen_tokens(TokensSpec(  # the acceptance gate's recipe
        d=1000, max_freq=1700, seed=41,
        planted=((0.55, 10), (0.65, 10), (0.75, 10), (0.85, 10), (0.95, 10)))),
     "ee6c300f472e1a346cf3b54b2124447716efd282a27766742bd2d5ba2f6fa15b"),
], ids=["uniform", "acceptance-tokens"])
def test_canonical_dataset_digest(monkeypatch, generate, want):
    assert _dataset_digest(monkeypatch, generate) == want
