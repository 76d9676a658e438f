"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest -v -s tests/test_acceptance.py` to see the per-criterion
lines as they complete.  The Monte Carlo criteria share one set of
experiment runs via a module fixture.
"""
import math
import random

import pytest

from naf_reference import to_naf
from support import all_partitions, prefix_span
from tcamsplit.analysis import c_of_k, p_levels, play_game, run_experiment
from tcamsplit.core import new_partition, sample_partition, validate_sequence
from tcamsplit.matcher import anchor_sequence, bit_matcher, meet_distances, min_rules
from tcamsplit.signed import (
    lpm_bounds,
    naf_count,
    naf_decompose,
    naf_max,
    naf_total,
    worstcase_cap,
)
from tcamsplit.tcam import evaluate_table, synthesize_lpm, table_from_text
from tcamsplit.worstcase import gen_k2, gen_k3, gen_triplets

SEED = 20240817


def report(name, ok):
    print(f"\n[{'PASS' if ok else 'FAIL'}] {name}")
    assert ok, name


def test_criterion_1_paper_exact_lambda():
    cases = [
        ([5, 1, 2], 3, 3),
        ([4, 3, 3, 3, 3], 4, 7),
        ([683, 341], 10, 6),
        ([5, 5, 5, 1], 4, 6),
        ([1, 3, 12], 4, 3),
        ([15, 4, 45], 6, 4),
    ]
    ok = all(min_rules(new_partition(ws, w)) == lam for ws, w, lam in cases)
    ok = ok and min_rules(gen_triplets(12, 7)) == 18
    report("criterion 1: published instance rule counts exact", ok)


def test_criterion_2_worstcase_families():
    ok = all(min_rules(gen_k2(w)) == (w + 1) // 2 + 1 for w in range(1, 65))
    ok = ok and all(min_rules(gen_k3(w)) == w + 1 for w in range(2, 65))
    for k in range(4, 31):
        for w in (8, 12, 16):
            p = gen_triplets(k, w)
            bound = (k - 1) // 3 * (w - (k - 1).bit_length() + 1)
            ok = ok and min_rules(p) > bound
    report("criterion 2: worst-case generator families hit their sizes", ok)


def test_criterion_3_oracle_equivalence():
    targets = {}
    for w in range(6):
        for p in all_partitions(w, 4):
            lam = min_rules(p)
            state = tuple(sorted(p.weights + (0,) * (4 - p.k)))
            targets[state] = lam
    # exact search distances, met against zero balls of 5061 and 5436 states
    ok = meet_distances(targets, 5, 4, radius=4) == targets
    # negative intermediates never help on the exhaustively checkable range
    neg_targets = {s: l for s, l in targets.items() if sum(s) <= 16}
    ok = ok and meet_distances(neg_targets, 4, 4, allow_negative=True, radius=3) == neg_targets
    report("criterion 3: search oracle matches the matcher exhaustively", ok)


def test_criterion_4_bound_sandwich():
    rng = random.Random(SEED)
    combos = [(k, w) for k in (3, 4, 8, 16) for w in (10, 20, 32)]
    ok = True
    for i in range(10_000):
        k, w = combos[i % len(combos)]
        p = sample_partition(k, w, rng)
        lo, hi = lpm_bounds(p)
        lam = min_rules(p)
        ok = ok and k <= lo <= lam <= hi <= worstcase_cap(k, w) + k
        anchor = anchor_sequence(p)
        ok = ok and len(anchor) == hi
        ok = ok and validate_sequence(p, anchor).zeroes
        if not ok:
            break
    report("criterion 4: bound sandwich and anchor length on 10^4 samples", ok)


def test_criterion_5_synthesis_round_trip():
    rng = random.Random(SEED + 1)
    ok = True
    for _ in range(10_000):
        k = rng.randrange(1, 17)
        w = rng.randrange(5, 33)
        p = sample_partition(k, w, rng)
        t = synthesize_lpm(p)
        lens = [r.pattern.care.bit_count() for r in t.rules]
        ok = (
            ok
            and evaluate_table(t) == [0, *p.weights]
            and len(t) == min_rules(p)
            and all(prefix_span(r.pattern) for r in t.rules)
            and lens == sorted(lens, reverse=True)
        )
        if not ok:
            break
    paper_tables = [
        ("011 1\n01* 2\n0** 3\n*** 1", [0, 5, 1, 2]),
        ("**00 1\n00** 2\n01** 3\n10** 4\n11** 5", [0, 4, 3, 3, 3, 3]),
        ("**000 2\n00*** 2\n***** 1", [0, 21, 11]),
        (
            "0000000000 2\n*000***000 1\n**000***** 2\n00******** 2\n********** 1",
            [0, 683, 341],
        ),
    ]
    for text, expected in paper_tables:
        ok = ok and evaluate_table(table_from_text(text)) == expected
    report("criterion 5: synthesis round trip and published tables", ok)


@pytest.fixture(scope="module")
def experiments():
    return {
        k: run_experiment(k, 100, 10_000, SEED + k) for k in (3, 8, 16, 100)
    }


def test_criterion_6_monte_carlo(experiments):
    e3, e100 = experiments[3], experiments[100]
    ok = abs(e3.mean_lambda_over_kw - 0.189) <= 0.005
    ok = ok and abs(e100.mean_lambda_over_kw - 0.163) <= 0.005
    ok = ok and abs(e100.mean_ub_ratio - 1.923) <= 0.015
    ok = ok and abs(e100.mean_lb_ratio - 0.973) <= 0.01
    ok = ok and abs(e3.mean_lb_ratio - 0.901) <= 0.01
    report("criterion 6: Monte Carlo statistics match the published curves", ok)


def test_criterion_7_average_case_theory():
    from fractions import Fraction

    ok = p_levels(5) == [
        Fraction(a, b) for a, b in ((1, 4), (1, 8), (3, 16), (5, 32), (11, 64))
    ]
    rng = random.Random(SEED + 2)
    for strategy, expected in (("opt", 3.0), ("rnd", 2.0), ("mix", 2.5)):
        gains = []
        while len(gains) < 100_000:
            gains.extend(play_game(strategy, 1024, rng).gains)
        ok = ok and abs(sum(gains) / len(gains) - expected) <= 0.05
    turns = [play_game("opt", 10_000, rng).turns for _ in range(10)]
    ok = ok and abs(sum(turns) / len(turns) / 10_000 - 1 / 3) <= 0.01
    ok = ok and 0.9 <= math.sqrt(6 * math.pi * 1000) * c_of_k(1000) <= 1.1
    report("criterion 7: game gains, renewal ratio, and c(k) scaling", ok)


def test_criterion_8_signed_digit_properties():
    rng = random.Random(SEED + 3)
    ok = True
    for _ in range(1_000_000):
        n = rng.getrandbits(128)
        plus, minus = naf_decompose(n)
        nz = plus | minus
        if plus - minus != n or plus & minus or nz & (nz >> 1):
            ok = False
            break
    # spot-check the digit-list construction against the mask form
    for _ in range(5_000):
        n = rng.getrandbits(128)
        d = to_naf(n)
        ok = ok and d.value() == n and d.nonzero() == naf_count(n)
    # perturbation bound, exhaustive
    for n in range(4096):
        base = naf_count(n)
        for h in range(13):
            if abs(naf_count(n + (1 << h)) - base) > 1:
                ok = False
    # sparsest decomposition, brute force
    for n in range(-1000, 1001):
        c = naf_count(n)
        lo = max(0, n)
        for x in range(lo, min(2048, n + 2048) + 1):
            if x.bit_count() + (x - n).bit_count() < c:
                ok = False
                break
    # +1/-1 symmetry below the top level
    d = 12
    plus_c = [0] * d
    minus_c = [0] * d
    for n in range(1 << d):
        plus, minus = naf_decompose(n)
        for lvl in range(d):
            plus_c[lvl] += (plus >> lvl) & 1
            minus_c[lvl] += (minus >> lvl) & 1
    ok = ok and all(plus_c[l] == minus_c[l] for l in range(d - 1))
    ok = ok and minus_c[d - 1] == 0
    report("criterion 8: signed-digit canonicity, perturbation, sparsity", ok)


def test_criterion_9_rules_per_bit_envelope(experiments):
    ok = True
    for k, stats in experiments.items():
        lo = 1 / 6 - 0.02
        hi = 1 / 6 + c_of_k(k) + 0.02
        ok = ok and lo <= stats.mean_lambda_over_kw <= hi
    report("criterion 9: mean rules-per-bit inside the theoretical envelope", ok)
