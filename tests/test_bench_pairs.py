"""tools/bench_pairs.py decides every BENCH claim: its bound, pair and claim
rules on hand-built run records."""
import importlib.util
import json
import math
from pathlib import Path

import pytest

_REPO = Path(__file__).resolve().parent.parent
_PATH = _REPO / "tools" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

BOUNDS = {
    "ops_per_s": ("1/s", "higher", 0.2),
    "op_ms_p50": ("ms", "lower", 0.2),
}


def _run(ops_per_s, op_ms_p50, wall=None):
    """One side of one pair, as run_once returns it; raw wall ops/s default to ops_per_s."""
    return {
        "context": {"wall": [{"ops_per_s": ops_per_s if wall is None else wall}],
                    "golden_mismatches": []},
        "result": {
            "failed": 0,
            "attempted": 10,
            "correct": True,
            "metrics": {"ops_per_s": {"value": ops_per_s}, "op_ms_p50": {"value": op_ms_p50}},
        },
    }


def _summary(parent, change):
    """summarize over pairs of (ops_per_s, op_ms_p50[, wall]) per side."""
    runs = [
        {"pair": n, "seed": 41 + n, "first": "parent" if n % 2 == 0 else "change",
         "parent": _run(*p), "change": _run(*c)}
        for n, (p, c) in enumerate(zip(parent, change))
    ]
    return bench_pairs.summarize(runs, BOUNDS)


def test_bound_is_inclusive_at_the_edge():
    par_ops, par_ms = 100.0, 4.0
    edge_ops, edge_ms = par_ops * (1 - 0.2), par_ms * (1 + 0.2)
    for ops, ms, within in [
        (edge_ops, edge_ms, True),
        (math.nextafter(edge_ops, -math.inf), math.nextafter(edge_ms, math.inf), False),
        (math.nextafter(edge_ops, math.inf), math.nextafter(edge_ms, -math.inf), True),
    ]:
        out = _summary([(par_ops, par_ms)] * 10, [(ops, ms)] * 10)["metrics"]
        assert out["ops_per_s"]["within_bound"] is within
        assert out["op_ms_p50"]["within_bound"] is within


def test_ties_count_for_neither_side():
    parent = [(100.0, 4.0)] * 4
    change = [(101.0, 3.9), (100.0, 4.0), (100.0, 4.0), (99.0, 4.1)]
    out = _summary(parent, change)["metrics"]
    assert out["ops_per_s"]["change_better_pairs"] == 1
    assert out["op_ms_p50"]["change_better_pairs"] == 1
    # 9 wins of 10 meet a claim; 8 wins and 2 ties do not
    for wins, met in [(9, True), (8, False)]:
        change = [(200.0, 2.0)] * wins + [(100.0, 4.0)] * (10 - wins)
        workloads = {"w": _summary([(100.0, 4.0)] * 10, change)}
        for claim in ("w:ops_per_s:1.5", "w:op_ms_p50:1.5"):
            check = bench_pairs.claim_check(workloads, claim)
            assert check["change_better_pairs"] == wins
            assert check["met"] is met


def test_claim_inside_the_parent_iqr_is_not_met():
    ops = [60.0, 70.0, 80.0, 90.0, 100.0, 100.0, 110.0, 120.0, 130.0, 140.0]
    parent = [(v, 1000.0 / v) for v in ops]
    change = [(1.2 * v, 1000.0 / (1.2 * v)) for v in ops]
    check = bench_pairs.claim_check({"w": _summary(parent, change)}, "w:ops_per_s:1.1")
    assert check["median_ratio"] == 1.2
    assert check["change_better_pairs"] == 10
    assert check["median_difference"] < check["parent_iqr"]
    assert check["met"] is False
    # the same gain over a tight parent is met
    parent = [(100.0 + n / 10, 10.0) for n in range(10)]
    change = [(1.2 * v, t) for v, t in parent]
    check = bench_pairs.claim_check({"w": _summary(parent, change)}, "w:ops_per_s:1.1")
    assert check["median_difference"] > check["parent_iqr"]
    assert check["met"] is True


def test_speed_claims_need_a_raw_wall_gain():
    # normalized times 1.25x better in every pair, raw wall ops/s as given
    parent = [(100.0 + n / 10, 10.0 - n / 100, 100.0) for n in range(10)]
    for wall, met in [(101.0, True), (100.0, False), (99.0, False)]:
        change = [(1.25 * ops, ms / 1.25, wall) for ops, ms, _ in parent]
        out = _summary(parent, change)
        assert [r["change"]["wall_ops_per_s"] for r in out["runs"]] == [wall] * 10
        for metric in ("ops_per_s", "op_ms_p50"):
            check = bench_pairs.claim_check({"w": out}, f"w:{metric}:1.2")
            assert check["wall_ops_per_s_ratio"] == wall / 100.0
            assert check["met"] is met


@pytest.mark.parametrize("number, claim, met", [
    (10, "compile:ops_per_s:1.25", True),
    (13, "compile:ops_per_s:1.2", True),
    (14, "compile:ops_per_s:1.4", True),
    (16, "audit:ops_per_s:1.2", True),
    (18, "audit:ops_per_s:1.10", True),
    (21, "compile:ops_per_s:1.12", True),
    (26, "montecarlo:ops_per_s:1.10", True),
    (27, "compile:ops_per_s:1.07", True),
    # no claim was made: normalized audit read 1.094 and 1.064, raw wall 0.985 and 0.977
    (19, "audit:ops_per_s:1.05", False),
    (20, "audit:ops_per_s:1.05", False),
])
def test_wall_rule_on_recorded_runs(number, claim, met):
    report = json.loads((_REPO / f"BENCH_{number}.json").read_text(encoding="utf-8"))
    check = bench_pairs.claim_check(report["workloads"], claim)
    assert check["met"] is met
    assert (check["wall_ops_per_s_ratio"] > 1.0) is met
    if number == 19:  # every other rule passes: the raw wall rule refuses it
        assert check["median_ratio"] >= check["target_ratio"]
        assert check["change_better_pairs"] >= 9
        assert check["median_difference"] > check["parent_iqr"]
