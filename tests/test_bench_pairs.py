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
    assert tokens["gain"]["cps_join_s"] is True and tokens["gain"]["cps_recall"] is False
    assert tokens["head"]["quartiles"]["cps_join_s"] == [0.5, 0.5]
    assert tokens["head"]["fingerprints"] == [{"cpsjoin": "head"}]
    assert tokens["fingerprints_equal"] is False


def test_rejects_an_empty_run(tmp_path):
    with pytest.raises(SystemExit):
        bench_pairs.main(["--base", "A", "--head", "B", "--pairs", "0",
                          "--out", str(tmp_path / "x.json")])


def _runs(base, head, metric="setup_s"):
    return {side: [{"metrics": {metric: v}, "failed": 0, "fingerprints": {}} for v in values]
            for side, values in (("base", base), ("head", head))}


@pytest.mark.parametrize("head, gain", [
    # better in 9 of 10 pairs, the median 0.35 lower against an IQR of 0.1
    ([0.7] * 9 + [1.5], True),
    # better in 8 of 10: too few pairs won, however far the median moved
    ([0.1] * 8 + [1.5, 1.5], False),
    # better in every pair, by less than the base's interquartile range
    ([v - 0.05 for v in (1.0, 1.1, 1.2, 0.9, 1.0, 1.1, 0.9, 1.2, 1.0, 1.1)], False),
], ids=["gain", "too-few-pairs", "inside-the-spread"])
def test_gain_needs_nine_tenths_of_the_pairs_and_a_shift_past_the_base_iqr(head, gain):
    base = [1.0, 1.1, 1.2, 0.9, 1.0, 1.1, 0.9, 1.2, 1.0, 1.1]
    out = bench_pairs.summarize(_runs(base, head), {"setup_s": "lower"})
    assert out["base"]["quartiles"]["setup_s"] == pytest.approx([1.0, 1.1])
    assert out["gain"]["setup_s"] is gain
    # the same samples read as a loss where higher is better
    assert bench_pairs.summarize(_runs(base, head), {"setup_s": "higher"})["gain"]["setup_s"] is False


def test_fingerprints_are_equal_only_when_both_sides_report_the_same_set():
    def runs(base, head):
        return {side: [{"metrics": {"setup_s": 1.0}, "failed": 0, "fingerprints": f} for f in fps]
                for side, fps in (("base", base), ("head", head))}

    same = {"cpsjoin": "ab12", "lsh": "cd34"}
    moved = {"cpsjoin": "ab12", "lsh": "ef56"}
    assert bench_pairs.summarize(runs([same, same], [same, same]),
                                 {"setup_s": "lower"})["fingerprints_equal"] is True
    assert bench_pairs.summarize(runs([same, same], [same, moved]),
                                 {"setup_s": "lower"})["fingerprints_equal"] is False


_SPREAD = [1.0, 1.1, 1.2, 0.9, 1.0, 1.1, 0.9, 1.2, 1.0, 1.1]  # median 1.05, IQR 0.1


@pytest.mark.parametrize("base, head, better, bound, verdict", [
    # the median 30% worse against a 25% bound, in either direction
    (_SPREAD, [v * 1.3 for v in _SPREAD], "lower", 0.25, "worse"),
    (_SPREAD, [v * 0.7 for v in _SPREAD], "higher", 0.25, "worse"),
    # 20% worse is inside the bound, and the base's spread (IQR 0.1 over a
    # median of 1.05) is narrower than it
    (_SPREAD, [v * 1.2 for v in _SPREAD], "lower", 0.25, "none"),
    # a spread of 9.5% against a 5% bound: a head that lost one pair cannot
    # rule a loss out, a head that won every pair can
    (_SPREAD, [v - 0.01 for v in _SPREAD[:9]] + [1.5], "lower", 0.05, "unresolved"),
    (_SPREAD, [v - 0.01 for v in _SPREAD], "lower", 0.05, "none"),
    # equal samples: no pair won, so a wide base spread leaves it unresolved
    (_SPREAD, _SPREAD, "higher", 0.05, "unresolved"),
    ([1.0] * 10, [1.0] * 10, "higher", 0.05, "none"),
], ids=["worse-lower", "worse-higher", "inside-the-bound", "unresolved", "won-every-pair",
        "ties-in-a-wide-spread", "ties-in-no-spread"])
def test_regression_reads_the_bound_against_the_base(base, head, better, bound, verdict):
    out = bench_pairs.summarize(_runs(base, head), {"setup_s": better}, {"setup_s": bound})
    assert out["regression"] == {"setup_s": verdict}


def test_every_bounded_metric_gets_a_regression_verdict(monkeypatch, tmp_path):
    contract = json.loads((_PATH.parent.parent / "BENCHMARK.json").read_text())
    monkeypatch.setattr(bench_pairs, "export", lambda rev, into: f"commit-{rev}")
    monkeypatch.setattr(bench_pairs, "run_once", lambda tree, workload, seed, seconds: {
        "metrics": {m["name"]: 1.0 for m in contract["end_to_end"]}, "failed": 0,
        "fingerprints": {}})
    out = tmp_path / "BENCH.json"
    bench_pairs.main(["--base", "A", "--head", "B", "--pairs", "2", "--workloads", "tokens",
                      "--out", str(out)])
    regression = json.loads(out.read_text())["workloads"]["tokens"]["regression"]
    assert regression == {m["name"]: "none" for m in contract["end_to_end"]}
