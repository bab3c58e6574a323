"""Seeded workload generators for the join benchmark.

Each generator returns raw records (lists of token-id arrays) drawn from
`numpy.random.default_rng(seed)`; the program under test only ever sees those
records, through `Dataset.from_records`. The same seed gives the same records.

The two workloads stress different layers of the pipeline, so that an
optimisation of one layer shows on one workload and predicts no change on
the other:

- tokens: every token is frequent (the acceptance-gate recipe). Preprocess
  takes the universe-rank path, the sketch filter does most of the join
  work, verification takes the bitset route. Candidate-heavy, few results.
- clusters: a few clusters of near-duplicates in uniform background sets.
  Result-heavy: verification and dedup dominate, and each repetition
  re-verifies pairs already found.

Neither runs the large-universe fallbacks (per-record preprocess hashing,
per-pair merge verification): a universe large enough to pass the bitset
cap makes each set-up take ~7 s, which leaves too little of a run's time
for steady join timings.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def tokens_records(rng, d, max_freq, planted, background_similarity):
    """Adversarially token-frequent sets with planted similar pairs.

    Mirrors the `TokensSpec` recipe: planted pairs share a core sized for
    their target similarity, then background sets of the size that makes two
    random sets `background_similarity`-similar are drawn until the
    per-token frequency cap binds.
    """
    usage = np.zeros(d, dtype=np.int64)
    records = []
    for sim, count in planted:
        s = _size_for_similarity(sim, d)
        c = int(round(2.0 * sim * s / (1.0 + sim)))
        extras = s - c
        for _ in range(count):
            pool = np.flatnonzero(usage < max_freq)
            draw = rng.choice(pool, size=c + 2 * extras, replace=False)
            core, ex_a, ex_b = draw[:c], draw[c:c + extras], draw[c + extras:]
            usage[core] += 2
            usage[ex_a] += 1
            usage[ex_b] += 1
            records.append(np.concatenate([core, ex_a]))
            records.append(np.concatenate([core, ex_b]))
    s_bg = _size_for_similarity(background_similarity, d)
    while True:
        pool = np.flatnonzero(usage < max_freq)
        if pool.size < s_bg:
            return records
        rec = rng.choice(pool, size=s_bg, replace=False)
        usage[rec] += 1
        records.append(rec)


def _size_for_similarity(sim, d):
    return int(round(2.0 * sim / (1.0 + sim) * d))


def clusters_records(rng, n_background, avg_size, d, clusters, members, center_size, swaps):
    """Uniform background sets plus clusters of near-duplicates.

    Each cluster has a random center of `center_size` tokens; every member
    is the center with `swaps` tokens replaced by random ones, so any two
    members of a cluster share at least center_size - 2*swaps tokens.
    """
    sizes = np.minimum(d, np.maximum(2, rng.poisson(avg_size, size=n_background)))
    records = [rng.choice(d, size=int(s), replace=False) for s in sizes]
    for _ in range(clusters):
        center = rng.choice(d, size=center_size, replace=False)
        for _ in range(members):
            rec = center.copy()
            rec[rng.choice(center_size, size=swaps, replace=False)] = rng.integers(0, d, size=swaps)
            records.append(rec)
    return records


@dataclass(frozen=True)
class Workload:
    """One benchmark input: a generator, its parameters and the join threshold.

    `oracle` names the exact join used as the recall oracle; `small` holds
    the parameter overrides of the scaled-down mode used by the tests.
    """

    name: str
    threshold: float
    oracle: str
    generate: object
    params: dict
    small: dict
    loads: tuple
    bypasses: tuple

    def records(self, seed: int, small: bool = False):
        params = {**self.params, **self.small} if small else self.params
        return self.generate(np.random.default_rng(seed), **params)


WORKLOADS = {
    "tokens": Workload(
        name="tokens", threshold=0.5, oracle="bruteforce", generate=tokens_records,
        params=dict(d=800, max_freq=700, background_similarity=0.12,
                    planted=((0.55, 10), (0.65, 10), (0.75, 10), (0.85, 10), (0.95, 10))),
        small=dict(d=200, max_freq=100, planted=((0.55, 3), (0.75, 3), (0.95, 3))),
        loads=("prep universe-rank path", "sketch.estimate_rows", "cpsjoin pooled-sketch rule",
               "lsh bucket loop"),
        bypasses=("prep per-record path", "exact merge route"),
    ),
    "clusters": Workload(
        name="clusters", threshold=0.7, oracle="allpairs", generate=clusters_records,
        params=dict(n_background=6_000, avg_size=30, d=10_000, clusters=4, members=160,
                    center_size=40, swaps=2),
        small=dict(n_background=500, d=1_000, clusters=2, members=30),
        loads=("exact.verify_pairs bitset route", "stats.unique_pairs", "repeated re-verification"),
        bypasses=("prep per-record path", "exact merge route"),
    ),
}
