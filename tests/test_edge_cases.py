"""Edge cases every join must handle alike.

Each join runs on an empty dataset, a single record, a set of records that
are all duplicates of one another, a record holding the largest 32-bit token
id, and a threshold of 1.0. Each must return an (m, 2) int64 pair array equal
to the brute-force join's, with consistent counters.
"""

from functools import partial

import numpy as np
import pytest

from setjoin import (CpsConfig, Dataset, LshConfig, allpairs_join, brute_force_join, cps_join,
                     gen_uniform, lsh_join)

_CASES = {
    "empty": ([], 0.5),
    "one-record": ([[1, 2, 3]], 0.5),
    "all-duplicates": ([[4, 5, 6, 7]] * 5, 0.5),
    "max-token": ([[0xFFFFFFFF, 1, 2, 3], [0xFFFFFFFF, 1, 2, 4], [7, 8, 9]], 0.5),
    "threshold-one": ([rec.tolist() for rec in gen_uniform(60, 6, 30, seed=2).records()], 1.0),
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
