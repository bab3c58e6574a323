"""Compare two git revisions on the join benchmark, in alternating pairs.

Run from the repository root:

    python3 tools/bench_pairs.py --base HEAD~1 --head HEAD --pairs 10 --out BENCH_22.json

Each revision is exported with `git archive` into its own temporary
directory, and `joinbench/run.py` runs from that export, so each side builds
what it measures from its own committed source. A pair is one timed run of
each revision on each workload, one after the other; the order flips every
pair (base first in even pairs, head first in odd ones), so that neither
side always runs on the heap and caches the other left behind.

The output file holds, per workload and revision, every end-to-end sample,
their medians and quartiles and the join fingerprints the runs reported;
per workload, whether both revisions reported the same fingerprints
(`fingerprints_equal`, which a change meant to keep behaviour must show),
and the same per join (`fingerprints_equal_by_join`, which names the joins
whose pairs or counters a change moved);
per metric, the relative change of the medians (head against base), the number
of pairs in which head was better, in the direction `BENCHMARK.json` gives,
whether head shows a gain: it was better in at least nine tenths of the
pairs, ties counting for neither, and its median lies beyond base's by more
than base's interquartile range; and, per metric with a bound in
`BENCHMARK.json`, a regression verdict:

- `worse`: head's median is worse than base's by more than the bound,
  relative to base's median;
- `unresolved`: base's interquartile range over its median is wider than
  the bound, and head did not beat base in every pair, so the runs cannot
  rule such a loss out;
- `none` otherwise.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def export(rev: str, into: Path) -> str:
    """Write the tree of `rev` under `into`; returns its commit id."""
    commit = subprocess.run(["git", "rev-parse", "--verify", f"{rev}^{{commit}}"], cwd=ROOT,
                            check=True, capture_output=True, text=True).stdout.strip()
    archive = subprocess.run(["git", "archive", "--format=tar", commit], cwd=ROOT,
                             check=True, capture_output=True).stdout
    into.mkdir(parents=True)
    tar_path = into.with_suffix(".tar")
    tar_path.write_bytes(archive)
    with tarfile.open(tar_path) as tar:
        tar.extractall(into, filter="data")
    tar_path.unlink()
    return commit


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One timed run of the benchmark in `tree`: its metrics and report."""
    out = subprocess.run(
        [sys.executable, "joinbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, check=True, capture_output=True, text=True).stdout.strip().splitlines()
    result, report = json.loads(out[-1]), json.loads(out[-2])["report"]
    return {"metrics": {k: v["value"] for k, v in result["metrics"].items()},
            "failed": result["failed"], "fingerprints": report["fingerprints"]}


def quartiles(values: list) -> list:
    """The first and third quartiles, interpolated as numpy's default does
    (one value gives itself twice)."""
    if len(values) == 1:
        return [values[0], values[0]]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return [q1, q3]


def summarize(runs: dict, metrics: dict, bounds: dict | None = None) -> dict:
    """Samples, medians, quartiles and fingerprints per side; whether the
    sides' fingerprints are equal, in all and per join; per metric the change of the medians, the
    pairs head won and whether that is a gain; per metric of `bounds` (name
    to relative bound), the regression verdict."""
    out = {}
    for side, samples in runs.items():
        values = {m: [s["metrics"][m] for s in samples] for m in metrics}
        fingerprints = sorted({json.dumps(s["fingerprints"], sort_keys=True) for s in samples})
        out[side] = {"samples": values,
                     "median": {m: statistics.median(v) for m, v in values.items()},
                     "quartiles": {m: quartiles(v) for m, v in values.items()},
                     "failed": sum(s["failed"] for s in samples),
                     "fingerprints": [json.loads(f) for f in fingerprints]}
    base, head = out["base"], out["head"]
    out["fingerprints_equal"] = base["fingerprints"] == head["fingerprints"]
    by_join = lambda side, join: sorted({f[join] for f in side["fingerprints"] if join in f})
    joins = sorted({join for side in (base, head) for f in side["fingerprints"] for join in f})
    out["fingerprints_equal_by_join"] = {join: by_join(base, join) == by_join(head, join)
                                         for join in joins}
    out["change"] = {m: head["median"][m] / base["median"][m] - 1 if base["median"][m] else None
                     for m in metrics}
    out["head_better_pairs"] = {
        m: sum((h < b) if better == "lower" else (h > b)
               for b, h in zip(base["samples"][m], head["samples"][m]))
        for m, better in metrics.items()}
    out["gain"] = {}
    for m, better in metrics.items():
        q1, q3 = base["quartiles"][m]
        shift = head["median"][m] - base["median"][m]
        pairs = len(base["samples"][m])
        out["gain"][m] = (10 * out["head_better_pairs"][m] >= 9 * pairs
                          and (-shift if better == "lower" else shift) > q3 - q1)
    out["regression"] = {}
    for m, bound in (bounds or {}).items():
        base_median = base["median"][m]
        q1, q3 = base["quartiles"][m]
        loss = head["median"][m] - base_median if metrics[m] == "lower" else \
            base_median - head["median"][m]
        if loss > bound * abs(base_median):
            out["regression"][m] = "worse"
        elif (q3 - q1 > bound * abs(base_median)
              and out["head_better_pairs"][m] < len(base["samples"][m])):
            out["regression"][m] = "unresolved"
        else:
            out["regression"][m] = "none"
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, help="git revision to compare against")
    parser.add_argument("--head", required=True, help="git revision under test")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=20.0, help="seconds per timed run")
    parser.add_argument("--seed", type=int, default=21, help="records seed of every run")
    parser.add_argument("--workloads", default=None,
                        help="comma-separated (default: every workload of BENCHMARK.json)")
    parser.add_argument("--out", required=True, help="JSON file to write, e.g. BENCH_22.json")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")

    contract = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {m["name"]: m["better"] for m in contract["end_to_end"]}
    bounds = {m["name"]: m["bound"] for m in contract["end_to_end"] if "bound" in m}
    workloads = args.workloads.split(",") if args.workloads else \
        [w["name"] for w in contract["workloads"]]
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        trees, commits = {}, {}
        for side, rev in (("base", args.base), ("head", args.head)):
            trees[side] = Path(tmp) / side
            commits[side] = export(rev, trees[side])
        runs = {w: {"base": [], "head": []} for w in workloads}
        for pair in range(args.pairs):
            order = ("base", "head") if pair % 2 == 0 else ("head", "base")
            for workload in workloads:
                for side in order:
                    runs[workload][side].append(
                        run_once(trees[side], workload, args.seed, args.seconds))
            print(f"bench_pairs: pair {pair + 1}/{args.pairs} done", file=sys.stderr)
    result = {
        "base": {"rev": args.base, "commit": commits["base"]},
        "head": {"rev": args.head, "commit": commits["head"]},
        "protocol": {"pairs": args.pairs, "seconds": args.seconds, "records_seed": args.seed,
                     "order": "base first in even pairs, head first in odd ones",
                     "command": "joinbench/run.py --trace 0, from a git archive of each revision"},
        "host": {"cpus": os.cpu_count(), "machine": platform.machine(),
                 "python": platform.python_version()},
        "workloads": {w: summarize(runs[w], metrics, bounds) for w in workloads},
    }
    Path(args.out).write_text(json.dumps(result, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
