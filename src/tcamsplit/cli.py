"""Command-line frontend.

Exit codes: 0 success, 1 validation error, 2 usage error (argparse).
Randomized subcommands require an explicit --seed.
"""
from __future__ import annotations

import argparse
import functools
import json
import random
import re
import sys
from fractions import Fraction

from . import analysis, core, matcher, signed, tcam, worstcase
from .errors import BadProbability, TcamSplitError


def _read_input(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _partition(args) -> core.Partition:
    weights = sys.stdin.read().strip() if args.weights == "-" else args.weights
    return core.partition_from_text(weights, args.width)


def _emit(text: str, out: str | None) -> None:
    if out is not None:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def cmd_compile(args) -> str:
    p = _partition(args)
    moves = matcher.bit_matcher(p)
    width, rows = tcam._prefix_rows(moves)
    text = tcam.prefix_text
    lo, hi = signed.lpm_bounds(p)
    if args.format == "json":
        rules = [{"pattern": text(start, lvl, width), "target": t} for start, lvl, t in rows]
        js = {"width": width, "rules": rules, "lambda": len(rows), "lpm_lower": lo, "lpm_upper": hi}
        if args.emit_sequence:
            js["sequence"] = core.sequence_to_json_obj(moves)
        return json.dumps(js, indent=2)
    lines = [f"{text(start, lvl, width)} {t}" for start, lvl, t in rows]
    lines.append(f"# lambda={len(rows)} lpm_lower={lo} lpm_upper={hi}")
    if args.emit_sequence:
        lines += ["# tx " + tx for tx in core.sequence_to_text(moves).splitlines()]
    return "\n".join(lines)


def cmd_bounds(args) -> str:
    p = _partition(args)
    lo, hi = signed.lpm_bounds(p)
    fields = {
        "trivial_lower": p.k,
        "lpm_lower": lo,
        "lpm_upper": hi,
        "general_lower": signed.general_lower_bound(p),
        "worstcase_cap": signed.worstcase_cap(p.k, p.width) if p.k >= 2 else None,
        "lambda": matcher.min_rules(p),
        "phi_total": signed.naf_total(p),
        "phi_max": signed.naf_max(p),
    }
    if args.format == "json":
        return json.dumps(fields)
    return "\n".join(f"{k}={v}" for k, v in fields.items())


def cmd_verify(args) -> str:
    table = tcam.table_from_text(_read_input(args.rules), args.width)
    counts = tcam.evaluate_table(table)
    if args.format == "json":
        return json.dumps({"unmatched": counts[0], "counts": counts[1:]})
    if args.format == "csv":
        return ",".join(str(c) for c in counts[1:])
    lines = [f"{t} {c}" for t, c in enumerate(counts) if t > 0]
    if counts[0]:
        lines.append(f"unmatched {counts[0]}")
    return "\n".join(lines)


def _given(args, option: str, choice: str):
    if getattr(args, option) is None:
        raise TcamSplitError(f"--{option} is required for --{choice} {getattr(args, choice)}")
    return getattr(args, option)


MATCHERS = {  # --matcher choice -> (args, partition) -> sequence
    "bm": lambda a, p: matcher.bit_matcher(p),
    "rm": lambda a, p: matcher.random_matcher(p, random.Random(_given(a, "seed", "matcher"))),
    "sm": lambda a, p: matcher.signed_matcher(p),
    "anchor": lambda a, p: matcher.anchor_sequence(p),
}

WORSTCASE_KINDS = {  # --kind choice -> args -> partition
    "k2": lambda a: worstcase.gen_k2(a.width),
    "k3": lambda a: worstcase.gen_k3(a.width),
    "triplets": lambda a: worstcase.gen_triplets(_given(a, "k", "kind"), a.width),
    "general": lambda a: worstcase.gen_general_hard(_given(a, "k", "kind"), a.width),
}


def cmd_sequence(args) -> str:
    seq = MATCHERS[args.matcher](args, _partition(args))
    if args.format == "json":
        return json.dumps(core.sequence_to_json_obj(seq))
    return core.sequence_to_text(seq)


def cmd_sample(args) -> str:
    stats = analysis.run_experiment(args.k, args.width, args.trials, args.seed)
    if args.format == "json":
        return json.dumps(stats.__dict__)
    return stats.csv_header() + "\n" + stats.csv_row()


def cmd_worstcase(args) -> str:
    p = WORSTCASE_KINDS[args.kind](args)
    lam = matcher.min_rules(p)
    if args.format == "json":
        return json.dumps({"width": p.width, "weights": list(p.weights), "lambda": lam})
    return ",".join(str(w) for w in p.weights) + f" lambda={lam}"


def cmd_normalize(args) -> str:
    counts = analysis.read_counts(_read_input(args.counts))
    p = analysis.normalize_counts(counts, args.multiple)
    if args.format == "json":
        return core.partition_to_json(p)
    return f"width={p.width}\n" + ",".join(str(w) for w in p.weights)


def cmd_rw(args) -> str:
    # CPython's int() reads at most 4300 digits, and Fraction("1e-999999999") would build 10**10**9
    if re.search(r"\d{4301}|[eE][-+]?\d{5}", args.p.replace("_", "")):
        raise BadProbability("--p needs numbers of at most 4300 digits and exponents of at most 4")
    try:
        p = Fraction(args.p)
    except ZeroDivisionError:
        raise BadProbability(f"zero denominator in --p {args.p!r}") from None
    return str(analysis.rw(p, args.n))


def cmd_game(args) -> str:
    trace = analysis.play_game(args.strategy, args.m, random.Random(args.seed))
    mean_gain = sum(trace.gains) / len(trace.gains) if trace.gains else 0.0
    if args.format == "json":
        return json.dumps({"strategy": trace.strategy, "m": trace.m,
                           "turns": trace.turns, "mean_gain": mean_gain})
    return f"turns={trace.turns} mean_gain={mean_gain:.4f}"


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tcamsplit",
        description="Compile weighted traffic splits into minimal prefix rule tables.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp, *formats):
        # only the formats the subcommand renders, so others exit 2
        if formats:
            sp.add_argument("--format", choices=("table", *formats), default="table")
        sp.add_argument("--out", default=None)

    sp = sub.add_parser("compile", help="partition -> minimal prefix rule table")
    sp.add_argument("--weights", required=True, help="comma-separated weights or '-'")
    sp.add_argument("--width", type=int, default=None)
    sp.add_argument("--emit-sequence", action="store_true")
    common(sp, "json")
    sp.set_defaults(func=cmd_compile)

    sp = sub.add_parser("bounds", help="size bounds for a partition")
    sp.add_argument("--weights", required=True, help="comma-separated weights or '-'")
    sp.add_argument("--width", type=int, default=None)
    common(sp, "json")
    sp.set_defaults(func=cmd_bounds)

    sp = sub.add_parser("verify", help="evaluate a rule table (file or '-')")
    sp.add_argument("--rules", required=True)
    sp.add_argument("--width", type=int, default=None)
    common(sp, "json", "csv")
    sp.set_defaults(func=cmd_verify)

    sp = sub.add_parser("sequence", help="emit a zeroing transaction sequence")
    sp.add_argument("--weights", required=True, help="comma-separated weights or '-'")
    sp.add_argument("--width", type=int, default=None)
    sp.add_argument("--matcher", choices=MATCHERS, default="bm")
    sp.add_argument("--seed", type=int, default=None)
    common(sp, "json")
    sp.set_defaults(func=cmd_sequence)

    sp = sub.add_parser("sample", help="Monte Carlo partition statistics")
    sp.add_argument("--k", type=int, required=True)
    sp.add_argument("--width", type=int, required=True)
    sp.add_argument("--trials", type=int, required=True)
    sp.add_argument("--seed", type=int, required=True)
    common(sp, "json", "csv")
    sp.set_defaults(func=cmd_sample)

    sp = sub.add_parser("worstcase", help="extremal partition generators")
    sp.add_argument("--kind", choices=WORSTCASE_KINDS, required=True)
    sp.add_argument("--width", type=int, required=True)
    sp.add_argument("--k", type=int, default=None)
    common(sp, "json")
    sp.set_defaults(func=cmd_worstcase)

    sp = sub.add_parser("normalize", help="round raw counts to a partition")
    sp.add_argument("--counts", required=True, help="file of counts or '-'")
    sp.add_argument("--multiple", type=int, default=8)
    common(sp, "json")
    sp.set_defaults(func=cmd_normalize)

    sp = sub.add_parser("rw", help="expected walk displacement, exact")
    sp.add_argument("--p", required=True, help="probability as a fraction, e.g. 1/6")
    sp.add_argument("--n", type=int, required=True)
    common(sp)
    sp.set_defaults(func=cmd_rw)

    sp = sub.add_parser("game", help="bit-zeroing game simulator")
    sp.add_argument("--strategy", choices=("opt", "rnd", "mix"), required=True)
    sp.add_argument("--m", type=int, required=True)
    sp.add_argument("--seed", type=int, required=True)
    common(sp, "json")
    sp.set_defaults(func=cmd_game)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if [] in vars(args).values():  # CPython 3.11's argparse reads --opt=-- as []
            raise ValueError("an option is missing its value")
        _emit(args.func(args), args.out)
    except (TcamSplitError, ValueError, OSError) as exc:
        msg = str(exc)  # it may quote an input of any length: keep 60 characters of each end
        print("error:", msg if len(msg) <= 123 else f"{msg[:60]}...{msg[-60:]}", file=sys.stderr)
        return 1
    return 0


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
