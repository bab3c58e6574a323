"""The paired benchmark runner: the order of each pair, and its summary."""

import importlib.util
import json
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)


def test_pairs_alternate_which_revision_runs_first(monkeypatch, tmp_path):
    calls = []
    monkeypatch.setattr(bench_pairs, "export", lambda rev, into: f"commit-{rev}")

    contract = json.loads((_PATH.parent.parent / "BENCHMARK.json").read_text())

    def fake_run(tree, workload, seed, seconds):
        side = tree.name
        calls.append((side, workload))
        metrics = {m["name"]: 1.0 if side == "base" or m["better"] == "higher" else 0.5
                   for m in contract["end_to_end"]}
        return {"metrics": metrics, "failed": 0, "fingerprints": {"cpsjoin": side}}

    monkeypatch.setattr(bench_pairs, "run_once", fake_run)
    out = tmp_path / "BENCH.json"
    assert bench_pairs.main(["--base", "A", "--head", "B", "--pairs", "3",
                             "--workloads", "tokens", "--out", str(out)]) == 0
    assert [side for side, _ in calls] == ["base", "head", "head", "base", "base", "head"]
    result = json.loads(out.read_text())
    assert result["base"]["commit"] == "commit-A" and result["protocol"]["pairs"] == 3
    tokens = result["workloads"]["tokens"]
    assert tokens["base"]["samples"]["cps_join_s"] == [1.0, 1.0, 1.0]
    assert tokens["change"]["cps_join_s"] == pytest.approx(-0.5)
    assert tokens["head_better_pairs"]["cps_join_s"] == 3  # lower is better
    assert tokens["head_better_pairs"]["cps_recall"] == 0  # a tie is no win
    assert tokens["head"]["fingerprints"] == [{"cpsjoin": "head"}]


def test_rejects_an_empty_run(tmp_path):
    with pytest.raises(SystemExit):
        bench_pairs.main(["--base", "A", "--head", "B", "--pairs", "0",
                          "--out", str(tmp_path / "x.json")])
