"""Command line front end for join experiments.

Examples:
    setjoin-bench --input sets.txt --algo cpsjoin --threshold 0.5 --out report.csv
    setjoin-bench --gen uniform:n=10000,avg=10,d=500 --algo lsh --threshold 0.5,0.7
    setjoin-bench --gen "tokens:d=1000,max_freq=1700,planted=0.75x10;0.85x10" \
        --algo cpsjoin --sweep limit=50,250,1000
"""

from __future__ import annotations

import argparse
import os
import sys

from . import bench
from .cpsjoin import CpsConfig
from .datasets import TokensSpec, gen_tokens, gen_uniform, load
from .lsh import LshConfig


def _parse_kv(text: str) -> dict:
    out = {}
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        key, sep, value = part.partition("=")
        if not sep:
            raise ValueError(f"expected key=value, got {part!r}")
        out[key.strip()] = value.strip()
    return out


def _parse_planted(text: str) -> tuple:
    """'0.75x10;0.85x10' -> ((0.75, 10), (0.85, 10))"""
    groups = []
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        sim, sep, count = chunk.partition("x")
        if not sep:
            raise ValueError(f"expected SIMxCOUNT, got {chunk!r}")
        groups.append((float(sim), int(count)))
    return tuple(groups)


def _generate(text: str):
    kind, _, rest = text.partition(":")
    kv = _parse_kv(rest)
    try:
        if kind == "uniform":
            data = gen_uniform(n=int(kv.pop("n")), avg_size=float(kv.pop("avg")),
                               d=int(kv.pop("d")), seed=int(kv.pop("seed", "0")))
        elif kind == "tokens":
            spec = TokensSpec(
                d=int(kv.pop("d", "1000")),
                max_freq=int(kv.pop("max_freq", "100")),
                planted=_parse_planted(kv.pop("planted", "")),
                background_similarity=float(kv.pop("bg", "0.2")),
                n_background=int(kv.pop("n")) if "n" in kv else None,
                seed=int(kv.pop("seed", "0")),
            )
            data = gen_tokens(spec)
        else:
            raise ValueError(f"unknown generator {kind!r} (use uniform: or tokens:)")
    except KeyError as exc:
        raise ValueError(f"generator {kind!r} needs parameter {exc.args[0]}") from None
    if kv:
        raise ValueError(f"unknown generator parameters: {', '.join(sorted(kv))}")
    return data


def _parse_thresholds(text: str) -> tuple:
    values = tuple(float(part) for part in text.split(",") if part.strip())
    if not values:
        raise ValueError("no thresholds given")
    for lam in values:
        if not 0.0 < lam <= 1.0:
            raise ValueError(f"threshold {lam} outside (0, 1]")
    return values


def _parse_sweep(text: str):
    param, sep, rest = text.partition("=")
    if not sep:
        raise ValueError("expected --sweep PARAM=V1,V2,...")
    param = param.strip()
    if param not in bench.SWEEP_PARAMS:
        raise ValueError(f"sweep parameter must be one of {bench.SWEEP_PARAMS}")
    cast = float if param == "eps" else int
    values = [cast(part) for part in rest.split(",") if part.strip()]
    if not values:
        raise ValueError("no sweep values given")
    return param, values


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="setjoin-bench",
        description="Run set similarity self-joins and report recall and timing as CSV.")
    source = parser.add_mutually_exclusive_group(required=True)
    source.add_argument("--input", metavar="PATH",
                        help="dataset file, one whitespace-separated token set per line")
    source.add_argument("--gen", metavar="SPEC",
                        help="synthesize a dataset: uniform:n=..,avg=..,d=.. or "
                             "tokens:d=..,max_freq=..,planted=SIMxCOUNT;..")
    parser.add_argument("--algo", choices=bench.ALGORITHMS, default="cpsjoin")
    parser.add_argument("--threshold", default="0.5",
                        help="comma separated similarity thresholds (default 0.5)")
    defaults = bench.ExperimentSpec
    parser.add_argument("--recall", type=float, default=None,
                        help="stop repetitions at this recall (default: "
                             f"{CpsConfig.recall_target} for cpsjoin, "
                             f"{LshConfig.recall_target} for lsh)")
    parser.add_argument("--reps", type=int, default=None,
                        help="repetition budget override")
    parser.add_argument("--limit", type=int, default=defaults.limit,
                        help="bucket size that is compared directly (default %(default)s)")
    parser.add_argument("--eps", type=float, default=defaults.eps,
                        help="local similarity slack for early removal (default %(default)s)")
    parser.add_argument("--sketch-words", type=int, default=defaults.sketch_words,
                        help="64-bit words per similarity sketch (default %(default)s)")
    parser.add_argument("--minhash-t", type=int, default=defaults.sig_len,
                        help="signature length (default %(default)s)")
    parser.add_argument("--delta", type=float, default=defaults.delta,
                        help="sketch filter false negative budget (default %(default)s)")
    parser.add_argument("--k", type=int, default=None,
                        help="concatenation length for the bucketing join (default: tuned)")
    parser.add_argument("--seed", type=int, default=defaults.seed)
    parser.add_argument("--out", metavar="PATH", default=None,
                        help="CSV destination (default stdout)")
    parser.add_argument("--sweep", metavar="PARAM=V1,V2", default=None,
                        help=f"sweep one of {', '.join(bench.SWEEP_PARAMS)}")
    parser.add_argument("--no-oracle", action="store_true",
                        help="skip the exact join: cpsjoin stops at its own recall "
                             "estimate, lsh runs its full budget; no recall column")
    parser.add_argument("--trials", type=int, default=defaults.trials,
                        help="timing repetitions per row (default %(default)s)")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.input:
            data = load(args.input)
            label = os.path.basename(args.input)
        else:
            data = _generate(args.gen)
            label = args.gen

        spec = bench.ExperimentSpec(
            dataset=label, data=data, algorithm=args.algo,
            thresholds=_parse_thresholds(args.threshold),
            recall_target=args.recall, max_reps=args.reps,
            limit=args.limit, eps=args.eps, sig_len=args.minhash_t,
            sketch_words=args.sketch_words, delta=args.delta, k=args.k,
            use_oracle=not args.no_oracle, trials=args.trials, seed=args.seed)

        if args.sweep:
            param, values = _parse_sweep(args.sweep)
            rows = bench.sweep(spec, param, values)
        else:
            rows = bench.run(spec)

        if args.out:
            bench.write_csv(rows, args.out)
        else:
            sys.stdout.write(bench.csv_text(rows))
    except (ValueError, OSError) as exc:
        print(f"setjoin-bench: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
