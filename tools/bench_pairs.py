"""Run the benchmark in alternating parent/change pairs and write BENCH_<n>.json.

    python3 tools/bench_pairs.py --parent ../tree-parent --change ../tree-change --number 13 \
        --claim compile:ops_per_s:1.2

--parent and --change are two checkouts, for example two `git worktree`s.
Each of the 10 pairs runs every workload of the change's BENCHMARK.json once
on each tree, one run at a time, with the tree's own unmodified
`perfbench/run.py --seconds 25 --trace 0` and seed 41 + pair; the parent runs
first in even pairs.  Both trees must hold the same benchmark files.  The
report goes to BENCH_<n>.json at the root of this repository.

Per workload and end-to-end metric the file holds each side's median and
quartiles (statistics.quantiles(n=4, method='inclusive')), the ratio of the
medians, the number of pairs the change won (ties count for neither) and
whether the change's median is within the metric's bound.  With --claim
workload:metric:ratio it also checks a claimed gain: the medians differ by
at least that factor in the metric's better direction, the change wins at
least 9 in 10 pairs, and the medians differ by more than the parent's
interquartile range.  A speed claim (ops_per_s, op_ms_p50 or op_ms_p90) must
also be faster in raw wall time: the change's median raw wall ops/s above the
parent's.  The normalized metrics scale each op by a calibration task timed
beside it, so a calibration that runs slower in one tree reads as a gain
there: 6-9% in two runs whose raw wall ops/s fell.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

PAIRS = 10
SECONDS = 25
FIRST_SEED = 41
OUT_DIR = Path(__file__).resolve().parent.parent
BENCH_FILES = ("BENCHMARK.json", "perfbench")
SIDES = ("parent", "change")
SPEED_METRICS = ("ops_per_s", "op_ms_p50", "op_ms_p90")


def bench_digest(tree: Path) -> str:
    digest = hashlib.sha256()
    for name in BENCH_FILES:
        path = tree / name
        for f in sorted(path.rglob("*")) if path.is_dir() else [path]:
            if f.is_file() and "__pycache__" not in f.parts:
                digest.update(str(f.relative_to(tree)).encode() + b"\0" + f.read_bytes())
    return digest.hexdigest()


def commit(tree: Path) -> str | None:
    proc = subprocess.run(["git", "-C", str(tree), "rev-parse", "--short", "HEAD"],
                          capture_output=True, text=True)
    return proc.stdout.strip() or None


def run_once(tree: Path, workload: str, seed: int) -> dict:
    """One run of the tree's perfbench/run.py: its context and result lines."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(SECONDS), "--trace", "0"],
        cwd=tree, capture_output=True, text=True, check=True,
    )
    context, result = (json.loads(line) for line in proc.stdout.splitlines()[-2:])
    return {"context": context["run"], "result": result}


def spread(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": round(median, 4), "q1": round(q1, 4), "q3": round(q3, 4)}


def better(a: float, b: float, direction: str) -> bool:
    """a is strictly better than b."""
    return a > b if direction == "higher" else a < b


def summarize(runs: list[dict], bounds: dict) -> dict:
    """One workload's entry, from its runs: [{side: run_once(...)}, ...]."""

    def pick(side, field):
        return [field(r[side]) for r in runs]

    out = {
        "seeds": [r["seed"] for r in runs],
        "pairs": len(runs),
        "ops_failed": {s: sum(pick(s, lambda x: x["result"]["failed"])) for s in SIDES},
        "ops_attempted": {s: sum(pick(s, lambda x: x["result"]["attempted"])) for s in SIDES},
        "all_correct": all(r[s]["result"]["correct"] for r in runs for s in SIDES),
        "golden_mismatches": {
            s: sum(pick(s, lambda x: len(x["context"]["golden_mismatches"]))) for s in SIDES
        },
    }
    wall = {s: pick(s, lambda x: x["context"]["wall"][0]["ops_per_s"]) for s in SIDES}
    out["wall_ops_per_s"] = {
        "note": "raw wall-clock ops/s from the run record, not speed-normalized",
        **{s: spread(wall[s]) for s in SIDES},
        "change_over_parent": round(statistics.median(wall["change"])
                                    / statistics.median(wall["parent"]), 4),
    }
    out["metrics"] = {}
    for name, (unit, direction, bound) in bounds.items():
        vals = {s: pick(s, lambda x: x["result"]["metrics"][name]["value"]) for s in SIDES}
        par, chg = (statistics.median(vals[s]) for s in SIDES)
        allowed = par * (1 - bound) if direction == "higher" else par * (1 + bound)
        out["metrics"][name] = {
            "unit": unit,
            "better": direction,
            **{s: spread(vals[s]) for s in SIDES},
            "change_over_parent": round(chg / par, 4),
            "change_better_pairs": sum(
                better(c, p, direction) for p, c in zip(vals["parent"], vals["change"])
            ),
            "bound": bound,
            "within_bound": not better(allowed, chg, direction),
        }
    out["runs"] = [
        {"pair": r["pair"], "seed": r["seed"], "first": r["first"],
         **{s: {"wall_ops_per_s": round(wall[s][n], 4),
                **{name: round(r[s]["result"]["metrics"][name]["value"], 4) for name in bounds}}
            for s in SIDES}}
        for n, r in enumerate(runs)
    ]
    return out


def claim_check(workloads: dict, claim: str) -> dict:
    workload, metric, target = claim.split(":")
    entry = workloads[workload]["metrics"][metric]
    par, chg = entry["parent"]["median"], entry["change"]["median"]
    ratio = chg / par if entry["better"] == "higher" else par / chg
    iqr = entry["parent"]["q3"] - entry["parent"]["q1"]
    pairs = workloads[workload]["pairs"]
    wall = workloads[workload]["wall_ops_per_s"]["change_over_parent"]
    return {
        "workload": workload,
        "metric": metric,
        "median_ratio": round(ratio, 4),
        "target_ratio": float(target),
        "change_better_pairs": entry["change_better_pairs"],
        "pairs": pairs,
        "median_difference": round(abs(chg - par), 4),
        "parent_iqr": round(iqr, 4),
        "wall_ops_per_s_ratio": wall,
        "met": ratio >= float(target) and entry["change_better_pairs"] >= 0.9 * pairs
        and abs(chg - par) > iqr and (metric not in SPEED_METRICS or wall > 1.0),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--number", type=int, required=True, help="writes BENCH_<number>.json")
    parser.add_argument("--claim", default=None, help="workload:metric:ratio")
    args = parser.parse_args(argv)
    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    if len({bench_digest(t) for t in trees.values()}) != 1:
        sys.exit("error: the two trees hold different benchmark files")
    spec = json.loads((trees["change"] / "BENCHMARK.json").read_text(encoding="utf-8"))
    bounds = {m["name"]: (m["unit"], m["better"], m["bound"]) for m in spec["end_to_end"]}
    names = [w["name"] for w in spec["workloads"]]

    runs: dict[str, list[dict]] = {name: [] for name in names}
    for pair in range(PAIRS):
        seed = FIRST_SEED + pair
        order = SIDES if pair % 2 == 0 else SIDES[::-1]
        for name in names:
            entry = {"pair": pair, "seed": seed, "first": order[0]}
            for side in order:
                entry[side] = run_once(trees[side], name, seed)
                ops = entry[side]["result"]["metrics"]["ops_per_s"]["value"]
                print(f"pair {pair} {name} {side}: {ops:.1f} ops/s", file=sys.stderr, flush=True)
            runs[name].append(entry)

    parent = commit(trees["parent"])
    report = {
        "parent_commit": parent,
        "change_src_sha256": runs[names[0]][0]["change"]["context"]["src_sha256"],
        "source": (
            f"perfbench/run.py, unmodified, --seconds {SECONDS} --trace 0, one run at a"
            f" time on a {len(os.sched_getaffinity(0))}-core {platform.machine()} host under"
            f" CPython {platform.python_version()}; in each pair the parent ({parent}) and the"
            " change alternate which runs first (the parent first in even pairs); quartiles"
            " are statistics.quantiles(n=4, method='inclusive')"
        ),
        "claim": args.claim or "none",
        "workloads": {name: summarize(runs[name], bounds) for name in names},
    }
    if args.claim:
        report["claim_check"] = claim_check(report["workloads"], args.claim)
    out = OUT_DIR / f"BENCH_{args.number}.json"
    out.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    print(out, file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
