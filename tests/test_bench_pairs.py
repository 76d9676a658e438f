"""tools/bench_pairs.py decides every BENCH claim: its bound, pair and claim
rules on hand-built run records."""
import importlib.util
import math
from pathlib import Path

_PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

BOUNDS = {
    "ops_per_s": ("1/s", "higher", 0.2),
    "op_ms_p50": ("ms", "lower", 0.2),
}


def _run(ops_per_s, op_ms_p50):
    """One side of one pair, as run_once returns it."""
    return {
        "context": {"wall": [{"ops_per_s": ops_per_s}], "golden_mismatches": []},
        "result": {
            "failed": 0,
            "attempted": 10,
            "correct": True,
            "metrics": {"ops_per_s": {"value": ops_per_s}, "op_ms_p50": {"value": op_ms_p50}},
        },
    }


def _summary(parent, change):
    """summarize over pairs of (ops_per_s, op_ms_p50) per side."""
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
