"""Tests of the join benchmark, on the scaled-down mode of each workload.

Run from the repository root: python3 -m pytest joinbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import gate  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

sj = run._import_setjoin()
CONTRACT = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())


def _run(capsys, *argv):
    assert run.main([*argv, "--small", "--seconds", "0"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    return json.loads(lines[-2])["report"], json.loads(lines[-1])


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_timed_run_prints_every_end_to_end_metric_with_its_unit(capsys, workload):
    report, result = _run(capsys, "--workload", workload, "--seed", "5", "--trace", "0")
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0, report["problems"]
    assert result["attempted"] == (1 + run.MIN_ROUNDS) * len(run.JOINS)  # warm-up round too
    want = {m["name"]: m["unit"] for m in CONTRACT["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    for name, metric in result["metrics"].items():
        assert isinstance(metric["value"], float) and metric["value"] > 0, name
    assert set(report["fingerprints"]) == set(run.JOINS)


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_traced_run_matches_untraced_and_accounts_for_join_time(capsys, workload):
    report, result = _run(capsys, "--workload", workload, "--seed", "5", "--trace", "1")
    assert result["correct"] is True and result["failed"] == 0, report["problems"]
    want = {m["name"]: m["unit"] for m in CONTRACT["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    values = {k: v["value"] for k, v in result["metrics"].items()}
    for join, names in spans.SELF_TIMES.items():
        assert sum(values[n] for n in names) == pytest.approx(values[f"{join}.join_s"])
        assert values[f"{join}.results"] == sum(report["new_results_per_rep"][join])
    assert values["cpsjoin.nodes"] >= 1 and values["lsh.reps"] >= 1
    assert report["route"] == ("bitset" if values["exact.bitset_route"] else "merge")
    assert (BENCH_DIR.parent / report["spans"]).stat().st_size > 0


def _stats(pre, cand, results):
    return sj.JoinStats(pre_candidates=pre, candidates=cand, results=results)


ORACLE = gate.pair_codes([[0, 1], [2, 3], [4, 5]])


def test_gate_accepts_a_subset_of_the_oracle_and_measures_recall():
    verdict = gate.check(np.array([[0, 1], [2, 3]]), _stats(10, 5, 2), ORACLE)
    assert verdict.ok and verdict.recall == pytest.approx(2 / 3)


@pytest.mark.parametrize("pairs, stats", [
    ([[0, 1], [2, 3], [1, 4]], _stats(10, 5, 3)),  # injected false positive
    ([[0, 1], [2, 3]], _stats(10, 1, 2)),  # dropped candidate counter
    ([[0, 1], [2, 3]], _stats(10, 5, 3)),  # results counter disagrees with pairs
    ([[0, 1], [0, 1]], _stats(10, 5, 2)),  # duplicated pair
    ([[1, 0]], _stats(10, 5, 1)),  # unordered pair
])
def test_gate_fires_on_doctored_results(pairs, stats):
    verdict = gate.check(np.array(pairs), stats, ORACLE)
    assert not verdict.ok and verdict.problems


def test_ledger_counts_violations_errors_and_changed_fingerprints():
    oracle = (0.1, (np.array([[0, 1], [2, 3]]), _stats(4, 2, 2)), None)
    ledger = run.Ledger()
    ledger.record({"cpsjoin": (0.1, (np.array([[0, 1]]), _stats(3, 1, 1)), None),
                   "lsh": (0.1, None, "ValueError: boom"), "oracle": oracle}, oracle)
    assert (ledger.attempted, ledger.failed) == (3, 1)
    ledger.record({"cpsjoin": (0.1, (np.array([[0, 1]]), _stats(4, 1, 1)), None)}, oracle)
    assert (ledger.attempted, ledger.failed) == (4, 2)
    assert "fingerprint" in ledger.problems[-1]


def test_doctored_join_fails_the_run(capsys, monkeypatch):
    real = sj.cps_join_prepared

    def with_false_positive(prep, cfg):
        pairs, stats = real(prep, cfg)
        stats.results += 1
        stats.candidates += 1
        stats.pre_candidates += 1
        j = next(j for j in range(1, prep.data.n)
                 if sj.jaccard(prep.data.record(0), prep.data.record(j)) < cfg.threshold)
        return np.vstack([pairs, [[0, j]]]), stats

    monkeypatch.setattr(sj, "cps_join_prepared", with_false_positive)
    report, result = _run(capsys, "--workload", "clusters", "--seed", "5", "--trace", "0")
    assert result["correct"] is False
    assert result["failed"] == 1 + run.MIN_ROUNDS  # the warm-up round is gated too
    assert all("not in the oracle" in p for p in report["problems"])


def test_tracer_restores_the_library_after_an_error():
    from setjoin import cpsjoin, lsh

    before = {(m, a): getattr({"cpsjoin": cpsjoin, "lsh": lsh}[m], a) for m, a, _ in spans.WRAPPED}
    tracer = spans.Tracer()
    with pytest.raises(RuntimeError):
        with tracer.installed():
            assert cpsjoin.verify_pairs is not before[("cpsjoin", "verify_pairs")]
            raise RuntimeError
    after = {(m, a): getattr({"cpsjoin": cpsjoin, "lsh": lsh}[m], a) for m, a, _ in spans.WRAPPED}
    assert after == before


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_records_depend_only_on_the_seed(workload):
    first, again, other = (WORKLOADS[workload].records(seed, small=True) for seed in (3, 3, 4))
    assert all(np.array_equal(a, b) for a, b in zip(first, again)) and len(first) == len(again)
    assert len(first) != len(other) or any(not np.array_equal(a, b) for a, b in zip(first, other))


def test_contract_matches_the_code():
    assert [w["name"] for w in CONTRACT["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in CONTRACT["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in CONTRACT["per_layer"]] == \
        [row[:3] for row in spans.PER_LAYER]
    bounds = {m["name"]: m["bound"] for m in CONTRACT["end_to_end"]}
    assert max(bounds.values()) == bounds["setup_s"] <= 0.25


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(BENCH_DIR.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / BENCH_DIR.name,
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, *CONTRACT["command"][1:], "--workload", "tokens", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""
