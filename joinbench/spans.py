"""Outside-in tracing of the join pipeline and the per-layer metrics it yields.

`Tracer.installed()` replaces public module-level names of `setjoin.cpsjoin`
and `setjoin.lsh` with wrappers that record one span per call, and restores
them on exit. The joins look these names up as module globals at call time,
so the wrappers see every call without any change to the library. Spans stay
in memory as [name, start, end, parent, a, b] rows, where a and b are counts
taken at that boundary (see `_COUNTS`), and are written out when the run ends.

A span's self time is its duration minus the durations of its children, so
the self times of all spans under one join root add up to the root's
duration: a join's `SELF_TIMES` metrics sum to its traced `join_s`.
"""

from __future__ import annotations

import contextlib
import functools
import statistics
import time

import numpy as np

# (module, attribute, span name) of every wrapped public name.
WRAPPED = (
    ("cpsjoin", "verify_pairs", "exact.verify_pairs"),
    ("cpsjoin", "estimate_rows", "sketch.estimate_rows"),
    ("cpsjoin", "pooled_sketch", "sketch.pooled_sketch"),
    ("cpsjoin", "brute_force_step", "cpsjoin.brute_force_step"),
    ("cpsjoin", "repetition_codes", "cpsjoin.repetition_codes"),
    ("cpsjoin", "unique_pairs", "stats.unique_pairs"),
    ("lsh", "repetition_codes", "lsh.repetition_codes"),
    ("lsh", "choose_k", "lsh.choose_k"),
    ("lsh", "bucket_keys", "lsh.bucket_keys"),
    ("lsh", "unique_pairs", "stats.unique_pairs"),
)

# attribute -> counts(args, result) -> (a, b) recorded on its span.
_COUNTS = {
    "estimate_rows": lambda args, out: (int(np.size(out)), 0),
    "verify_pairs": lambda args, out: (int(out.size), int(np.count_nonzero(out))),
    "unique_pairs": lambda args, out: (sum(len(c) for c in args[0]), int(out.size)),
    "repetition_codes": lambda args, out: (int(out.size), 0),
    "choose_k": lambda args, out: (int(out), 0),
}

JOINS = ("cpsjoin", "lsh")  # the traced (approximate) joins

# Per join, the self-time metrics that partition its traced join time.
SELF_TIMES = {
    "cpsjoin": ("cpsjoin.join_self_s", "cpsjoin.split_s", "cpsjoin.brute_force_step_s",
                "cpsjoin.sketch.estimate_rows_s", "cpsjoin.sketch.pooled_sketch_s",
                "cpsjoin.exact.verify_s", "cpsjoin.stats.unique_pairs_s"),
    "lsh": ("lsh.join_self_s", "lsh.choose_k_s", "lsh.bucket_keys_s", "lsh.repetition_s",
            "lsh.sketch.estimate_rows_s", "lsh.exact.verify_s", "lsh.stats.unique_pairs_s"),
}


class Tracer:
    """In-memory span recorder; one instance per traced run."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self.rep_codes = []  # (root span index, codes one repetition returned)

    @contextlib.contextmanager
    def span(self, name: str):
        """Record a span around a block, such as one call the benchmark makes."""
        idx = self._open(name)
        try:
            yield idx
        finally:
            self.spans[idx][2] = time.perf_counter()
            self._stack.pop()

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, 0.0, 0.0, self._stack[-1] if self._stack else -1, 0, 0])
        self._stack.append(idx)
        self.spans[idx][1] = time.perf_counter()
        return idx

    def _wrap(self, fn, attr: str, name: str):
        counts = _COUNTS.get(attr)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as idx:
                out = fn(*args, **kwargs)
            if counts is not None:
                self.spans[idx][4:6] = counts(args, out)
            if attr == "repetition_codes":
                self.rep_codes.append((self.root_of(idx), out))
            return out
        return traced

    def duration(self, idx: int) -> float:
        return self.spans[idx][2] - self.spans[idx][1]

    def root_of(self, idx: int) -> int:
        while self.spans[idx][3] >= 0:
            idx = self.spans[idx][3]
        return idx

    @contextlib.contextmanager
    def installed(self):
        """Swap the wrappers in while the block runs."""
        from setjoin import cpsjoin, lsh

        modules = {"cpsjoin": cpsjoin, "lsh": lsh}
        saved = []
        try:
            for mod_name, attr, name in WRAPPED:
                mod = modules[mod_name]
                saved.append((mod, attr, getattr(mod, attr)))
                setattr(mod, attr, self._wrap(getattr(mod, attr), attr, name))
            yield self
        finally:
            for mod, attr, original in reversed(saved):
                setattr(mod, attr, original)

    def write(self, path):
        """Write every span as one tab-separated row."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id\tparent\tname\tstart\tend\ta\tb\n")
            for i, (name, start, end, parent, a, b) in enumerate(self.spans):
                fh.write(f"{i}\t{parent}\t{name}\t{start:.9f}\t{end:.9f}\t{a}\t{b}\n")


class Layers:
    """Per-span-name totals over the spans under one root span."""

    def __init__(self, tracer: Tracer, root: int):
        spans = tracer.spans
        under = {root}
        self_time = {}
        self.self_s, self.calls, self.a, self.b, self.durations = {}, {}, {}, {}, {}
        for i in range(root, len(spans)):
            name, start, end, parent, a, b = spans[i]
            if i != root and parent not in under:
                continue
            under.add(i)
            self_time[i] = end - start
            if i != root:
                self_time[parent] -= end - start
            self.calls[name] = self.calls.get(name, 0) + 1
            self.a[name] = self.a.get(name, 0) + a
            self.b[name] = self.b.get(name, 0) + b
            self.durations.setdefault(name, []).append(end - start)
        for i, t in self_time.items():
            self.self_s[spans[i][0]] = self.self_s.get(spans[i][0], 0.0) + t
        self.total_s = tracer.duration(root)


def new_results_per_rep(tracer: Tracer, root: int) -> list:
    """Unique pairs each repetition adds to those of the earlier ones."""
    seen = np.zeros(0, dtype=np.uint64)
    added = []
    for r, codes in tracer.rep_codes:
        if r == root:
            merged = np.union1d(seen, codes)
            added.append(int(merged.size - seen.size))
            seen = merged
    return added


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def join_metrics(join: str, layers: Layers, stats, new_per_rep: list, untraced_s: float) -> dict:
    """Per-layer metrics of one traced join, named `<join>.<layer>.<what>`."""
    emitted = layers.a.get(f"{join}.repetition_codes", 0)
    verified = layers.a.get("exact.verify_pairs", 0)
    out = {
        f"{join}.join_s": layers.total_s,
        f"{join}.join_self_s": layers.self_s.get(f"join.{join}", 0.0),
        f"{join}.trace.overhead_s": layers.total_s - untraced_s,
        f"{join}.sketch.estimate_rows_s": layers.self_s.get("sketch.estimate_rows", 0.0),
        f"{join}.sketch.estimate_rows_calls": layers.calls.get("sketch.estimate_rows", 0),
        f"{join}.sketch.estimate_cells": layers.a.get("sketch.estimate_rows", 0),
        f"{join}.exact.verify_s": layers.self_s.get("exact.verify_pairs", 0.0),
        f"{join}.exact.verify_calls": layers.calls.get("exact.verify_pairs", 0),
        f"{join}.exact.verify_pairs": verified,
        f"{join}.exact.verify_pass_ratio": _ratio(layers.b.get("exact.verify_pairs", 0), verified),
        f"{join}.stats.unique_pairs_s": layers.self_s.get("stats.unique_pairs", 0.0),
        f"{join}.stats.unique_pairs_in": layers.a.get("stats.unique_pairs", 0),
        f"{join}.pre_candidates": stats.pre_candidates,
        f"{join}.candidates": stats.candidates,
        f"{join}.results": stats.results,
        f"{join}.emitted": emitted,
        f"{join}.filter_ratio": _ratio(stats.candidates, stats.pre_candidates),
        f"{join}.yield_ratio": _ratio(stats.results, emitted),
        f"{join}.new_results_last_rep": new_per_rep[-1] if new_per_rep else 0,
    }
    if join == "cpsjoin":
        reps = layers.durations.get("cpsjoin.repetition_codes", [0.0])
        out.update({
            "cpsjoin.repetition_s_median": statistics.median(reps),
            "cpsjoin.repetition_s_max": max(reps),
            "cpsjoin.nodes": layers.calls.get("cpsjoin.brute_force_step", 0),
            "cpsjoin.brute_force_step_s": layers.self_s.get("cpsjoin.brute_force_step", 0.0),
            "cpsjoin.split_s": layers.self_s.get("cpsjoin.repetition_codes", 0.0),
            "cpsjoin.sketch.pooled_sketch_s": layers.self_s.get("sketch.pooled_sketch", 0.0),
            "cpsjoin.max_depth": stats.max_depth,
        })
    else:
        out.update({
            "lsh.choose_k_s": layers.self_s.get("lsh.choose_k", 0.0),
            "lsh.k": layers.a.get("lsh.choose_k", 0),
            "lsh.reps": layers.calls.get("lsh.repetition_codes", 0),
            "lsh.bucket_keys_s": layers.self_s.get("lsh.bucket_keys", 0.0),
            "lsh.repetition_s": layers.self_s.get("lsh.repetition_codes", 0.0),
        })
    return out


def _join_table(join: str, e2e: str, recall: str) -> list:
    rows = [
        ("join_s", "s", "lower", e2e),
        ("join_self_s", "s", "lower", e2e),
        ("trace.overhead_s", "s", "lower", "none: traced minus untraced time of the same join"),
        ("sketch.estimate_rows_s", "s", "lower", f"{e2e} on tokens"),
        ("sketch.estimate_rows_calls", "count", "lower", f"{e2e} on tokens"),
        ("sketch.estimate_cells", "count", "lower", f"{e2e} on tokens"),
        ("exact.verify_s", "s", "lower", f"{e2e} on clusters"),
        ("exact.verify_calls", "count", "lower", f"{e2e} on clusters"),
        ("exact.verify_pairs", "count", "lower", f"{e2e} on clusters"),
        ("exact.verify_pass_ratio", "ratio", "higher", f"{e2e} on clusters"),
        ("stats.unique_pairs_s", "s", "lower", f"{e2e} on clusters"),
        ("stats.unique_pairs_in", "count", "lower", f"{e2e} on clusters"),
        ("pre_candidates", "count", "lower", e2e),
        ("candidates", "count", "lower", e2e),
        ("results", "count", "higher", recall),
        ("emitted", "count", "lower", f"{e2e} on clusters and tokens"),
        ("filter_ratio", "ratio", "lower", f"{e2e} on tokens"),
        ("yield_ratio", "ratio", "higher", f"{e2e} on clusters and tokens"),
        ("new_results_last_rep", "count", "lower", "none: saturation signal of the repetitions"),
    ]
    return [(f"{join}.{name}", unit, better, moves) for name, unit, better, moves in rows]


# (name, unit, better, the end-to-end metric it should move) of every
# per-layer metric a traced run prints, on every workload.
PER_LAYER = [
    ("datasets.from_records_s", "s", "lower", "setup_s"),
    ("datasets.bitset_s", "s", "lower", "setup_s"),
    ("datasets.n", "count", "higher", "none: input size"),
    ("datasets.d", "count", "higher", "none: input size"),
    ("datasets.tokens", "count", "higher", "none: input size"),
    ("prep.preprocess_s", "s", "lower", "setup_s"),
    ("prep.rank_cells", "count", "lower", "setup_s"),
    ("exact.bitset_route", "flag", "higher", "cps_join_s and lsh_join_s"),
    ("exact.oracle_s", "s", "lower", "oracle_s"),
    ("exact.oracle_pre_candidates", "count", "lower", "oracle_s"),
    ("exact.oracle_candidates", "count", "lower", "oracle_s"),
    ("exact.oracle_results", "count", "higher", "none: size of the exact answer"),
    *_join_table("cpsjoin", "cps_join_s", "cps_recall"),
    ("cpsjoin.repetition_s_median", "s", "lower", "cps_join_s"),
    ("cpsjoin.repetition_s_max", "s", "lower", "cps_join_s"),
    ("cpsjoin.nodes", "count", "lower", "cps_join_s"),
    ("cpsjoin.brute_force_step_s", "s", "lower", "cps_join_s"),
    ("cpsjoin.split_s", "s", "lower", "cps_join_s"),
    ("cpsjoin.sketch.pooled_sketch_s", "s", "lower", "cps_join_s on tokens"),
    ("cpsjoin.max_depth", "count", "lower", "cps_join_s"),
    *_join_table("lsh", "lsh_join_s", "lsh_recall"),
    ("lsh.choose_k_s", "s", "lower", "lsh_join_s"),
    ("lsh.k", "count", "higher", "lsh_join_s"),
    ("lsh.reps", "count", "lower", "lsh_join_s"),
    ("lsh.bucket_keys_s", "s", "lower", "lsh_join_s"),
    ("lsh.repetition_s", "s", "lower", "lsh_join_s on tokens"),
]
