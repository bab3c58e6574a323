"""Report runner and CLI tests.

Timing columns are the only nondeterministic part of a report, so the CSV
checks compare everything except them.
"""

import csv
import io
from dataclasses import replace

import numpy as np
import pytest

from setjoin import bench
from setjoin.bench import ExperimentSpec, ReportRow, csv_text, run, sweep, write_csv
from setjoin.cli import _generate, _parse_planted, main
from setjoin.cpsjoin import CpsConfig, cps_join_prepared
from setjoin.datasets import gen_uniform
from setjoin.exact import allpairs_join, brute_force_join
from setjoin.lsh import lsh_join_prepared
from setjoin.prep import preprocess
from setjoin.tabulation import derive_seed

_TIMING_IDX = tuple(bench.COLUMNS.index(c) for c in
                    ("join_time_s", "preprocess_time_s", "relative_join_time"))


def _spec(data, algorithm, **kw):
    kw.setdefault("thresholds", (0.5,))
    kw.setdefault("trials", 1)
    return ExperimentSpec(dataset="t", data=data, algorithm=algorithm, **kw)


def join_pairs(spec, threshold):
    """The pair array an approximate run reports at its first trial's seed
    (all repetitions, no early stop); the exact joins' pairs otherwise."""
    one = replace(spec, thresholds=(threshold,), use_oracle=False, trials=1)
    trial_seed = derive_seed(bench._stable_seed(one.seed, one.dataset, one.algorithm), 0)
    if one.algorithm in ("cpsjoin", "lsh"):
        prep = preprocess(one.data, one.sig_len, one.sketch_words, trial_seed)
        cfg = bench._approximate_config(one, threshold, trial_seed)
        join = cps_join_prepared if one.algorithm == "cpsjoin" else lsh_join_prepared
        return join(prep, cfg)
    join = allpairs_join if one.algorithm == "allpairs" else brute_force_join
    return join(one.data, threshold)


def _strip_timing(text):
    rows = list(csv.reader(io.StringIO(text)))
    for row in rows[1:]:
        for i in _TIMING_IDX:
            row[i] = ""
    return rows


@pytest.fixture(scope="module")
def dense():
    return gen_uniform(300, 10, 30, seed=2)


def test_spec_validation(dense):
    with pytest.raises(ValueError):
        _spec(dense, "quadratic")
    with pytest.raises(ValueError):
        _spec(dense, "cpsjoin", thresholds=())
    with pytest.raises(ValueError):
        _spec(dense, "cpsjoin", trials=0)


def test_exact_rows(dense):
    ap = run(_spec(dense, "allpairs", thresholds=(0.5, 0.7)))
    bf = run(_spec(dense, "bruteforce", thresholds=(0.5, 0.7)))
    assert [r.results for r in ap] == [r.results for r in bf]
    for row in ap + bf:
        assert row.recall == 1.0
        assert row.reps_used == 1
        assert row.pre_candidates >= row.candidates >= row.results
    no_oracle = run(_spec(dense, "allpairs", use_oracle=False))
    assert no_oracle[0].recall is None


def test_cpsjoin_row_tracks_recall_and_budget(dense):
    rows = run(_spec(dense, "cpsjoin"))
    row = rows[0]
    assert row.algorithm == "cpsjoin"
    assert 0.9 <= row.recall <= 1.0
    assert 1 <= row.reps_used <= 10
    assert row.pre_candidates >= row.candidates >= row.results > 0
    assert "limit=250" in row.params and "eps=0.1" in row.params


def test_lsh_row_echoes_tuned_parameters(dense):
    rows = run(_spec(dense, "lsh"))
    row = rows[0]
    assert 0.9 <= row.recall <= 1.0
    assert "k=" in row.params and "reps=" in row.params


def test_lsh_echo_is_the_lower_median_over_trials(dense, monkeypatch):
    tuned = []
    original = bench.mlsh.resolve_params

    def recording(prep, cfg):
        tuned.append(original(prep, cfg))
        return tuned[-1]

    monkeypatch.setattr(bench.mlsh, "resolve_params", recording)
    row, = run(_spec(dense, "lsh", trials=5, seed=3))
    # the last trial's (4, 37) is not the median
    assert tuned == [(3, 19), (4, 37), (3, 19), (3, 19), (4, 37)]
    assert row.params.endswith(";k=3;reps=19")


def test_no_oracle_runs_full_budget(dense):
    # LSH has no estimate of its own recall (CPSJoin's is tested below)
    row = run(_spec(dense, "lsh", use_oracle=False, k=3, max_reps=4))[0]
    assert row.recall is None
    assert row.reps_used == 4


def test_no_oracle_stops_cpsjoin_at_its_recall_estimate(dense):
    spec = _spec(dense, "cpsjoin", use_oracle=False)
    row = run(spec)[0]
    assert row.recall is None
    _, full = join_pairs(spec, 0.5)  # every repetition of the same trial
    assert len(full.new_results_per_rep) == CpsConfig.reps
    stop = next(r for r, e in enumerate(full.recall_estimate_per_rep, 1)
                if e >= spec.recall_target)
    assert row.reps_used == stop < len(full.new_results_per_rep)
    assert row.results == sum(full.new_results_per_rep[:stop])
    assert f"reps={CpsConfig.reps}" in row.params  # the echo is the budget


def test_oracle_run_stops_cpsjoin_at_the_oracle_recall(dense, monkeypatch):
    def no_estimate(self, codes):
        raise AssertionError("a run with the oracle must not consult the estimate")

    monkeypatch.setattr(bench.cps.Incidence, "add", no_estimate)
    spec = _spec(dense, "cpsjoin", recall_target=0.99)
    row = run(spec)[0]
    assert row.recall >= 0.99
    assert row.reps_used > 1
    assert run(replace(spec, max_reps=row.reps_used - 1))[0].recall < 0.99


def test_join_pairs_consistency(dense):
    exact, _ = join_pairs(_spec(dense, "allpairs"), 0.5)
    brute, _ = join_pairs(_spec(dense, "bruteforce"), 0.5)
    exact_set = {tuple(p) for p in exact.tolist()}
    assert {tuple(p) for p in brute.tolist()} == exact_set
    for algo in ("cpsjoin", "lsh"):
        pairs, stats = join_pairs(_spec(dense, algo), 0.5)
        got = {tuple(p) for p in pairs.tolist()}
        assert got <= exact_set
        assert len(got) / len(exact_set) >= 0.8
        assert stats.counters_ok()


def test_report_deterministic_apart_from_timing(dense):
    spec = _spec(dense, "cpsjoin", thresholds=(0.5, 0.7), trials=2)
    a = _strip_timing(csv_text(run(spec)))
    b = _strip_timing(csv_text(run(spec)))
    assert a == b
    assert a[0] == list(bench.COLUMNS)


def test_preprocess_time_is_mean_over_trials(dense, monkeypatch):
    elapsed = []

    def recording(*args):
        prep = preprocess(*args)
        elapsed.append(prep.elapsed_s)
        return prep

    monkeypatch.setattr(bench, "preprocess", recording)
    rows = run(_spec(dense, "lsh", thresholds=(0.5, 0.7), trials=3))
    assert len(elapsed) == 3
    want = float(np.mean(elapsed))
    column = bench.COLUMNS.index("preprocess_time_s")
    for row, cells in zip(rows, list(csv.reader(io.StringIO(csv_text(rows))))[1:]):
        assert row.preprocess_time_s == want
        assert cells[column] == f"{want:.6f}"


def test_counters_are_lower_median_over_trials(dense, monkeypatch):
    trial_stats = []
    original = bench.cps.repetition_codes

    def recording(prep, cfg, rep, kernel):
        stats = kernel.stats
        if not any(s is stats for s in trial_stats):
            trial_stats.append(stats)
        return original(prep, cfg, rep, kernel)

    monkeypatch.setattr(bench.cps, "repetition_codes", recording)
    row, = run(_spec(dense, "cpsjoin", trials=3))
    per_trial = [s.pre_candidates for s in trial_stats]
    assert len(per_trial) == 3 and len(set(per_trial)) == 3
    assert row.pre_candidates == sorted(per_trial)[1]
    assert row.candidates == sorted(s.candidates for s in trial_stats)[1]
    assert isinstance(row.reps_used, int) and isinstance(row.results, int)


def test_sweep_relative_times(dense):
    spec = _spec(dense, "cpsjoin")
    rows = sweep(spec, "limit", [250, 50])
    assert rows[0].relative_join_time == 1.0
    assert rows[1].relative_join_time is not None and rows[1].relative_join_time > 0
    assert rows[0].params.endswith("sweep=limit:250")
    assert rows[1].params.endswith("sweep=limit:50")
    for row in rows:
        assert row.recall >= 0.8


def test_sweep_computes_each_oracle_once(dense, monkeypatch):
    calls = []

    def counting(data, threshold):
        calls.append(threshold)
        return allpairs_join(data, threshold)

    monkeypatch.setattr(bench, "allpairs_join", counting)
    rows = sweep(_spec(dense, "cpsjoin"), "limit", [50, 250, 1000])
    assert len(rows) == 3 and calls == [0.5]


def test_sweep_rejects_bad_requests(dense):
    with pytest.raises(ValueError):
        sweep(_spec(dense, "lsh"), "limit", [100])
    with pytest.raises(ValueError):
        sweep(_spec(dense, "cpsjoin"), "threshold", [0.5])
    with pytest.raises(ValueError):
        sweep(_spec(dense, "cpsjoin"), "limit", [])


def test_write_csv_paths_and_errors(tmp_path):
    with pytest.raises(ValueError):
        write_csv([], io.StringIO())
    row = ReportRow(dataset="d", algorithm="allpairs", threshold=0.5,
                    join_time_s=0.25, preprocess_time_s=0.0, recall=None,
                    reps_used=1, pre_candidates=10, candidates=5, results=2)
    path = tmp_path / "report.csv"
    write_csv([row], path)
    lines = path.read_text().splitlines()
    assert lines[0] == ",".join(bench.COLUMNS)
    cells = lines[1].split(",")
    assert cells[bench.COLUMNS.index("recall")] == ""
    assert cells[bench.COLUMNS.index("threshold")] == "0.5"


def test_parse_planted():
    assert _parse_planted("0.75x10;0.85x10") == ((0.75, 10), (0.85, 10))
    assert _parse_planted("") == ()
    with pytest.raises(ValueError):
        _parse_planted("0.75*10")


def test_generate_specs():
    data = _generate("uniform:n=50,avg=6,d=40,seed=3")
    assert data.n <= 50 and data.d <= 40
    data = _generate("tokens:d=300,max_freq=30,planted=0.8x2,seed=1")
    assert data.provenance["generator"] == "tokens"
    with pytest.raises(ValueError):
        _generate("zipf:n=10")
    with pytest.raises(ValueError):
        _generate("uniform:n=50,avg=6,d=40,shape=2")
    with pytest.raises(ValueError):
        _generate("uniform:avg=6,d=40")


def test_cli_end_to_end(tmp_path, capsys):
    out = tmp_path / "r.csv"
    code = main(["--gen", "uniform:n=200,avg=10,d=30", "--algo", "cpsjoin",
                 "--threshold", "0.5", "--trials", "1", "--out", str(out)])
    assert code == 0
    text = out.read_text()
    assert text.startswith(",".join(bench.COLUMNS))
    assert "cpsjoin" in text

    code = main(["--gen", "uniform:n=100,avg=8,d=30", "--algo", "allpairs",
                 "--trials", "1", "--no-oracle"])
    captured = capsys.readouterr()
    assert code == 0
    rows = list(csv.reader(io.StringIO(captured.out)))
    assert rows[1][bench.COLUMNS.index("recall")] == ""


def test_cli_error_paths(tmp_path, capsys):
    assert main(["--input", str(tmp_path / "missing.txt")]) == 1
    assert "setjoin-bench:" in capsys.readouterr().err
    assert main(["--gen", "uniform:n=50,avg=6,d=40", "--reps", "3", "--L", "4"]) == 1
    assert main(["--gen", "uniform:n=50,avg=6,d=40", "--threshold", "1.5"]) == 1
    with pytest.raises(SystemExit) as exc:
        main(["--algo", "cpsjoin"])  # no dataset source
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["--gen", "uniform:n=10,avg=4,d=20", "--algo", "quadratic"])
    assert exc.value.code == 2
