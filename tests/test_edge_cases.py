"""Edge cases every join must handle alike.

Each join runs on an empty dataset, a single record, a set of records that
are all duplicates of one another, a record holding the largest 32-bit token
id, a threshold of 1.0, records whose ids are spread over a universe far
wider than their tokens, and records of ids spanning all 32 bits with
planted near-duplicate twins. Each must return an (m, 2) int64 pair array
equal to the brute-force join's, with consistent counters.
"""

from functools import partial

import numpy as np
import pytest

from setjoin import (CpsConfig, Dataset, LshConfig, allpairs_join, brute_force_join, cps_join,
                     gen_uniform, lsh_join)

def _wide_universe():
    """60 records of 400 ids drawn from [0, 3 * 10^6), and truncated copies
    of the first two (Jaccard 0.875 and 0.75)."""
    rng = np.random.default_rng(9)
    recs = [rng.choice(3_000_000, size=400, replace=False) for _ in range(60)]
    return recs + [recs[0][:350], recs[1][:300]]


def _32_bit_twins():
    """30 records of 20 ids just under 2^32, one holding 0 and one
    0xFFFFFFFF, and 10 pairs of twins that differ in 2 of their 20 ids
    (Jaccard 18/22)."""
    rng = np.random.default_rng(21)
    top = 0xFFFFFFFF
    recs = [rng.choice(2 ** 20, size=20, replace=False) + (top - 2 ** 20) for _ in range(30)]
    recs[0][0] = top
    recs[1][0] = 0
    for _ in range(10):
        base = rng.choice(2 ** 20, size=20, replace=False) + (top - 2 ** 20)
        twin = base.copy()
        twin[:2] = rng.choice(2 ** 20, size=2, replace=False) + 2 ** 20
        recs += [base, twin]
    return recs


_CASES = {
    "empty": ([], 0.5),
    "one-record": ([[1, 2, 3]], 0.5),
    "all-duplicates": ([[4, 5, 6, 7]] * 5, 0.5),
    "max-token": ([[0xFFFFFFFF, 1, 2, 3], [0xFFFFFFFF, 1, 2, 4], [7, 8, 9]], 0.5),
    "threshold-one": ([rec.tolist() for rec in gen_uniform(60, 6, 30, seed=2).records()], 1.0),
    "wide-universe": (_wide_universe(), 0.5),
    "32-bit-twins": (_32_bit_twins(), 0.5),
}

_JOINS = {
    "allpairs": allpairs_join,
    "allpairs-noprefix": partial(allpairs_join, prefix_filter=False),
    "bruteforce": brute_force_join,
    "cpsjoin": lambda data, lam: cps_join(data, CpsConfig(threshold=lam, seed=1)),
    "lsh": lambda data, lam: lsh_join(data, LshConfig(threshold=lam, seed=1)),
}


@pytest.mark.parametrize("join", list(_JOINS))
@pytest.mark.parametrize("case", list(_CASES))
def test_join_handles_edge_case(case, join):
    records, lam = _CASES[case]
    data = Dataset.from_records(records)
    want, _ = brute_force_join(data, lam)
    pairs, stats = _JOINS[join](data, lam)
    assert pairs.dtype == np.int64 and pairs.ndim == 2 and pairs.shape[1] == 2
    assert np.array_equal(pairs, want)
    assert stats.counters_ok()
    assert stats.results == len(pairs)


def test_edge_cases_are_what_they_claim():
    sizes = {case: Dataset.from_records(records).n for case, (records, _) in _CASES.items()}
    assert sizes["empty"] == 0
    assert sizes["one-record"] == sizes["all-duplicates"] == 1
    data = Dataset.from_records(_CASES["max-token"][0])
    assert len(brute_force_join(data, 0.5)[0]) == 1  # the two records sharing 0xFFFFFFFF
    spread = _CASES["wide-universe"][0]
    wide = Dataset.from_records(spread)
    assert 100 * wide.d < max(r.max() for r in spread)  # renumbered to the ids that occur
    assert len(brute_force_join(wide, 0.5)[0]) == 2  # the truncated copies
    twins = _CASES["32-bit-twins"][0]
    assert min(r.min() for r in twins) == 0 and max(r.max() for r in twins) == 0xFFFFFFFF
    assert len(brute_force_join(Dataset.from_records(twins), 0.5)[0]) == 10
