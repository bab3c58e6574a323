"""Join benchmark: the public setjoin pipeline on two seeded workloads.

Run from the repository root:

    python3 joinbench/run.py --workload tokens --seed 1 --seconds 10 --trace 0

Workloads (see workloads.py): tokens, clusters. Each run is one
process driving one join at a time in a closed loop, with no worker threads
or processes and a single BLAS thread. The process keeps the memory it frees
(see `_keep_freed_memory`).

--trace 0 (timed): builds the workload's records from --seed, runs one
  untimed warm-up round, then repeats timed rounds of set-up
  (`Dataset.from_records`, `Dataset.bitset()`, `preprocess`), cps join, lsh
  join and the exact oracle, at least `MIN_ROUNDS` times and then for as long
  as the next round is expected to end within --seconds. Prints each time's
  mean over the rounds, and the median recall, as end-to-end metrics.
--trace 1 (traced): sets up once, runs every join untraced, then each
  approximate join traced (see spans.py) and the oracle under one span,
  prints the per-layer metrics and writes every span to joinbench/out/.

Every join result is gated (see gate.py); a violation or an exception counts
as a failed operation. A report line with the fingerprints of every join
precedes the last line of output, which is one JSON object with the keys
correct, attempted, failed and metrics. --small selects the scaled-down
inputs the tests use.
"""

from __future__ import annotations

import argparse
import ctypes
import ctypes.util
import gc
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path

import gate
import spans
from workloads import WORKLOADS

BENCH_DIR = Path(__file__).resolve().parent
SRC = BENCH_DIR.parent / "src"
OUT_DIR = BENCH_DIR / "out"

MIN_ROUNDS = 3
SIG_LEN = 128
SKETCH_WORDS = 8
JOINS = (*spans.JOINS, "oracle")

# (name, unit, better) of every metric a timed run prints, on every workload.
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("cps_join_s", "s", "lower"),
    ("lsh_join_s", "s", "lower"),
    ("oracle_s", "s", "lower"),
    ("cps_recall", "fraction", "higher"),
    ("lsh_recall", "fraction", "higher"),
    ("peak_rss_mb", "MB", "lower"),
)
_TIME_METRIC = {"setup": "setup_s", "cpsjoin": "cps_join_s", "lsh": "lsh_join_s", "oracle": "oracle_s"}
_RECALL_METRIC = {"cpsjoin": "cps_recall", "lsh": "lsh_recall"}


def _single_thread_blas():
    # One BLAS thread: the oracle's matrix products then do not depend on a
    # second core being free, which a shared machine does not promise.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"


def _keep_freed_memory() -> bool:
    """Make glibc keep freed memory in the heap instead of returning it.

    By default glibc maps every block above a threshold of at most 32 MB
    afresh, so the kernel must fault in and zero its pages, and the oracle's
    intersection blocks are 64 MB each: on a 2-vCPU x86 VM, half of its time
    on `tokens` went to page faults. That cost
    varies with the other guests of a shared host far more than the joins'
    own arithmetic does, so the benchmark keeps freed pages for reuse, as a
    long-running process with a warm heap would. Returns whether it took
    effect (False off glibc, where the default stays).
    """
    path = ctypes.util.find_library("c")
    if path is None:
        return False
    try:
        mallopt = ctypes.CDLL(path).mallopt
    except (OSError, AttributeError):
        return False
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    m_trim_threshold, m_mmap_threshold = -1, -3
    never = 2 ** 31 - 1
    return bool(mallopt(m_mmap_threshold, 2 ** 30)) and bool(mallopt(m_trim_threshold, never))


def _import_setjoin():
    """Import setjoin from this checkout's src/, and from nowhere else."""
    sys.path.insert(0, str(SRC))
    import setjoin

    if Path(setjoin.__file__).resolve().parent != SRC / "setjoin":
        raise ImportError(f"setjoin imported from {setjoin.__file__}, not {SRC}")
    return setjoin


class Pipeline:
    """The public calls the benchmark times, bound to one workload."""

    def __init__(self, sj, workload):
        self.sj = sj
        self.workload = workload

    def setup(self, records):
        """Once-per-dataset work: canonical dataset, bitset warm-up, embedding."""
        data = self.sj.Dataset.from_records(records)
        data.bitset()
        return self.sj.preprocess(data, sig_len=SIG_LEN, sketch_words=SKETCH_WORDS)

    def call(self, join: str, prep):
        sj, threshold = self.sj, self.workload.threshold
        if join == "cpsjoin":
            return sj.cps_join_prepared(prep, sj.CpsConfig(threshold=threshold))
        if join == "lsh":
            return sj.lsh_join_prepared(prep, sj.LshConfig(threshold=threshold))
        if self.workload.oracle == "bruteforce":
            return sj.brute_force_join(prep.data, threshold)
        return sj.allpairs_join(prep.data, threshold)


def attempt(fn):
    """Run fn(); returns (seconds, result or None, error text or None).

    Collects garbage first, so that no call pays for the previous one's.
    """
    gc.collect()
    t0 = time.perf_counter()
    try:
        result = fn()
    except Exception as exc:  # a join that raises is a failed operation, not a crash
        return time.perf_counter() - t0, None, f"{type(exc).__name__}: {exc}"
    return time.perf_counter() - t0, result, None


class Ledger:
    """Gate verdicts, recalls and fingerprints of every join a run made."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.recall = {}
        self.fingerprints = {}

    def record(self, outcomes: dict, oracle, tag: str = ""):
        """Gate (seconds, result, error) outcomes against the oracle's outcome."""
        self.attempted += len(outcomes)
        oracle_codes = None if oracle[1] is None else gate.pair_codes(oracle[1][0])
        for join, (_, result, error) in outcomes.items():
            problems = [error] if error else []
            if oracle_codes is None and not error:
                problems.append("no oracle to check against")
            if not problems:
                verdict = gate.check(result[0], result[1], oracle_codes)
                problems = verdict.problems
                self.recall.setdefault(join, []).append(verdict.recall)
                fp = gate.fingerprint(*result)
                first = self.fingerprints.setdefault(join, fp)
                if fp != first:
                    problems.append(f"fingerprint {fp}{tag} differs from {first}")
            if problems:
                self.failed += 1
                self.problems.append(f"{join}{tag}: {'; '.join(problems)}")


def timed_run(pipe: Pipeline, records, seconds: float, ledger: Ledger):
    """Rounds of set-up, cps, lsh and oracle for `seconds`; mean time of each.

    A warm-up round, gated but not timed, first grows the heap to the run's
    working size (see `_keep_freed_memory`). Each timed round then sets up
    afresh and runs every join on the new embedding. A round starts only if a
    round as long as the last one would still end within `seconds`, so that a
    slow machine does not overrun the run.

    Interleaving spreads each metric's samples over the whole run, so a slow
    spell of the machine touches a few samples of every metric, not every
    sample of one. Every round does the same work (the gate's fingerprints
    check it), so the samples of one metric differ only by what the machine's
    other tenants took from them: on a shared host, spells of +-30% a second
    or so long. Against such bounded swings the mean of a run's ~12 samples
    varied less from run to run than their median did, in ten-seed sets on
    both workloads, so the time metrics are means. The report line keeps every sample.
    """
    times = {name: [] for name in ("setup", *JOINS)}
    prep = pipe.setup(records)
    warm_up = {join: attempt(lambda: pipe.call(join, prep)) for join in JOINS}
    ledger.record(warm_up, warm_up["oracle"], tag=" (warm-up)")
    warm_up = None
    start = time.perf_counter()
    round_s = 0.0
    while len(times["oracle"]) < MIN_ROUNDS or time.perf_counter() - start + round_s <= seconds:
        t_round = time.perf_counter()
        outcomes = prep = None  # drop the previous round's embedding and pairs
        gc.collect()
        t0 = time.perf_counter()
        prep = pipe.setup(records)
        times["setup"].append(time.perf_counter() - t0)
        outcomes = {join: attempt(lambda: pipe.call(join, prep)) for join in JOINS}
        for join, (elapsed, _, _) in outcomes.items():
            times[join].append(elapsed)
        ledger.record(outcomes, outcomes["oracle"])
        round_s = time.perf_counter() - t_round
    metrics = {name: statistics.fmean(times[join]) for join, name in _TIME_METRIC.items()}
    for join, name in _RECALL_METRIC.items():
        metrics[name] = statistics.median(ledger.recall.get(join, [0.0]))
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return metrics, {"samples_s": times}


def traced_run(pipe: Pipeline, records, ledger: Ledger, spans_path: Path):
    """Set up once, run every join untraced, then each again under its span.

    The untraced calls give `trace.overhead_s`, and grow the heap so that the
    spanned oracle, like the timed runs' oracle, does not pay for it.
    """
    sj = pipe.sj
    tracer = spans.Tracer()
    setup = {}
    with tracer.span("setup.from_records") as setup["from_records"]:
        data = sj.Dataset.from_records(records)
    with tracer.span("setup.bitset") as setup["bitset"]:
        bitset = data.bitset()
    with tracer.span("setup.preprocess") as setup["preprocess"]:
        prep = sj.preprocess(data, sig_len=SIG_LEN, sketch_words=SKETCH_WORDS)
    untraced = {join: attempt(lambda: pipe.call(join, prep)) for join in JOINS}
    roots = {}
    with tracer.installed():
        traced = {}
        for join in spans.JOINS:
            with tracer.span(f"join.{join}") as roots[join]:
                traced[join] = attempt(lambda: pipe.call(join, prep))
    with tracer.span("join.oracle") as roots["oracle"]:
        oracle = attempt(lambda: pipe.call("oracle", prep))
    ledger.record({**untraced, "oracle": oracle}, oracle)
    ledger.record(traced, oracle, tag=" (traced)")
    tracer.write(spans_path)

    zero = sj.JoinStats()
    oracle_stats = oracle[1][1] if oracle[1] else zero
    metrics = {
        "datasets.from_records_s": tracer.duration(setup["from_records"]),
        "datasets.bitset_s": tracer.duration(setup["bitset"]),
        "datasets.n": data.n,
        "datasets.d": data.d,
        "datasets.tokens": int(data.tokens.size),
        "prep.preprocess_s": tracer.duration(setup["preprocess"]),
        "prep.rank_cells": int(data.tokens.size) * (SIG_LEN + 64 * SKETCH_WORDS),
        "exact.bitset_route": int(bitset is not None),
        "exact.oracle_s": tracer.duration(roots["oracle"]),
        "exact.oracle_pre_candidates": oracle_stats.pre_candidates,
        "exact.oracle_candidates": oracle_stats.candidates,
        "exact.oracle_results": oracle_stats.results,
    }
    new_results = {}
    for join in spans.JOINS:
        layers = spans.Layers(tracer, roots[join])
        new_results[join] = spans.new_results_per_rep(tracer, roots[join])
        stats = traced[join][1][1] if traced[join][1] else zero
        metrics.update(spans.join_metrics(join, layers, stats, new_results[join], untraced[join][0]))
    return metrics, {
        "route": "bitset" if bitset is not None else "merge",
        "new_results_per_rep": new_results,
        "spans": str(spans_path.relative_to(BENCH_DIR.parent)),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--small", action="store_true", help="scaled-down inputs (tests)")
    args = parser.parse_args(argv)

    _single_thread_blas()
    heap_kept = _keep_freed_memory()
    try:
        sj = _import_setjoin()
    except ImportError as exc:
        print(f"joinbench: cannot import setjoin from {SRC}: {exc}", file=sys.stderr)
        return 1
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    records = workload.records(args.seed, small=args.small)
    pipe = Pipeline(sj, workload)
    ledger = Ledger()
    if args.trace:
        OUT_DIR.mkdir(exist_ok=True)
        spans_path = OUT_DIR / f"{workload.name}-seed{args.seed}-spans.tsv"
        metrics, extra = traced_run(pipe, records, ledger, spans_path)
        units = {name: unit for name, unit, _, _ in spans.PER_LAYER}
    else:
        metrics, extra = timed_run(pipe, records, args.seconds, ledger)
        units = {name: unit for name, unit, _ in END_TO_END}
    report = {
        "workload": workload.name, "seed": args.seed, "small": args.small,
        "threshold": workload.threshold, "oracle": workload.oracle,
        "params": {**workload.params, **(workload.small if args.small else {})},
        "loads": workload.loads, "bypasses": workload.bypasses, "heap_kept": heap_kept,
        "fingerprints": ledger.fingerprints, "problems": ledger.problems, **extra,
    }
    print(json.dumps({"report": report}))
    print(json.dumps({
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
