import json
import math
import random
import time
from bisect import bisect_left, bisect_right, insort
from functools import reduce
from itertools import product
from operator import sub
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from support import REMARK3_W10, THM8, prefix_span, tie_heavy_partitions
from tcamsplit import tcam
from tcamsplit.cli import main
from tcamsplit.core import (
    MAX_TARGET,
    Transaction,
    new_partition,
    sample_partition,
    validate_sequence,
)
from tcamsplit.errors import (
    IncompleteCover,
    IndexOutOfRange,
    InternalInvariantViolated,
    KTooLarge,
    TooLargeToEvaluate,
    WidthMismatch,
    WidthOverflow,
)
from tcamsplit.matcher import bit_matcher, min_rules
from tcamsplit.tcam import (
    Rule,
    RuleTable,
    TernaryPattern,
    evaluate_table,
    intersect_two,
    synthesize_lpm,
    table_from_text,
    table_to_sequence,
    table_to_text,
)
from tcamsplit.worstcase import gen_general_hard, gen_k3, gen_triplets

EX1 = "011 1\n01* 2\n0** 3\n*** 1"
REMARK3_W4 = "**00 1\n00** 2\n01** 3\n10** 4\n11** 5"


def test_pattern_parse_format():
    p = TernaryPattern.parse("01*")
    assert str(p) == "01*" and p.width == 3 and p.count == 2
    assert prefix_span(p) == (2, 4) and p.care.bit_count() == 2
    q = TernaryPattern.parse("*0*")
    assert prefix_span(q) is None and q.count == 4
    assert [a for a in range(8) if q.matches(a)] == [0, 1, 4, 5]


def _replace_parse(text):
    """(width, care, value) by the str.replace reads parse used for every pattern."""
    care = int("0" + text.replace("0", "1").replace("*", "0"), 2)
    return len(text), care, int("0" + text.replace("*", "0"), 2)


def test_parse_matches_replace_reads():
    # prefixes take one int() of their fixed head, other patterns the replace reads
    texts = ["".join(chars) for width in range(7) for chars in product("01*", repeat=width)]
    rng = random.Random(18)
    for _ in range(3000):
        width = rng.randint(0, 128)
        chars = rng.choice(["01", "01*"])  # a prefix, or most likely not
        head = "".join(rng.choice(chars) for _ in range(width))
        texts.append(head[:rng.randint(0, width)].ljust(width, "*"))
    assert sum("*" in t.rstrip("*") for t in texts) > 1000  # both paths are run
    assert sum("*" not in t.rstrip("*") for t in texts) > 1000
    for text in texts:
        pattern = TernaryPattern.parse(text)
        assert pattern == _replace_parse(text), text
        assert str(pattern) == text


@pytest.mark.parametrize("text", ["1_0", "0b1", "+1", "0x1", "1_0**", "-1*", " 1 0"])
def test_parse_refuses_int_syntax(text):
    # int(_, 2) reads "1_0" and "0b1", so the character check must come first
    with pytest.raises(ValueError, match="^bad pattern character"):
        TernaryPattern.parse(text)


def test_pattern_and_rule_are_named_tuples():
    pattern = TernaryPattern(3, 6, 2)
    assert pattern == (3, 6, 2) and str(pattern) == "01*"
    width, care, value = pattern
    assert (width, care, value) == (pattern.width, pattern.care, pattern.value)
    rule = Rule(pattern, 5)
    assert rule == (pattern, 5)
    pat, target = rule
    assert pat is rule.pattern and target == rule.target == 5
    assert TernaryPattern.parse("***").count == 8  # the property shadows tuple.count
    assert RuleTable(3, (rule,)).k == 5
    # parse and table_from_text build both by tuple.__new__: still the named types
    read = table_from_text("01* 5\n0*1 2")
    assert [type(r) for r in read.rules] == [Rule, Rule]
    assert [type(r.pattern) for r in read.rules] == [TernaryPattern, TernaryPattern]
    assert read.rules == (rule, (TernaryPattern(3, 5, 1), 2))


def _per_bit_str(pattern):
    """One character per bit, most significant first."""
    return "".join(
        ("1" if pattern.value >> pos & 1 else "0") if pattern.care >> pos & 1 else "*"
        for pos in range(pattern.width - 1, -1, -1)
    )


@st.composite
def ternary_patterns(draw):
    width = draw(st.integers(0, 128))
    care = draw(st.integers(0, (1 << width) - 1))
    return TernaryPattern(width, care, draw(st.integers(0, (1 << width) - 1)) & care)


@settings(max_examples=500, deadline=None)
@given(ternary_patterns())
def test_pattern_str_matches_per_bit(pattern):
    assert str(pattern) == _per_bit_str(pattern)
    assert TernaryPattern.parse(str(pattern)) == pattern


def test_pattern_str_edge_cases():
    for width in (0, 1, 2, 64, 127, 128):
        full = (1 << width) - 1
        for care, value in [(full, full), (full, 0), (full, full // 3), (0, 0)]:
            pattern = TernaryPattern(width, care, value)
            assert str(pattern) == _per_bit_str(pattern)
    assert str(TernaryPattern(0, 0, 0)) == ""
    assert str(TernaryPattern(3, 0, 0)) == "***"
    assert str(TernaryPattern(3, 7, 0)) == "000"
    assert str(TernaryPattern(128, (1 << 128) - 1, 1)) == "0" * 127 + "1"


def _decimal_digit_str(pattern):
    """str(TernaryPattern) before prefixes were rendered directly: the value
    and wildcard masks read as decimal digits, 1 = set and 2 = wildcard."""
    if not pattern.width:
        return ""
    fmt = f"0{pattern.width}b"
    wild = ((1 << pattern.width) - 1) ^ pattern.care
    digits = int(format(pattern.value, fmt)) + 2 * int(format(wild, fmt))
    return str(digits).zfill(pattern.width).replace("2", "*")


def test_pattern_str_matches_decimal_digits_exhaustive():
    # every (care, value), stray bits outside the care mask or the width included
    for width in range(7):
        for care in range(2 << width):
            for value in range(2 << width):
                pattern = TernaryPattern(width, care, value)
                assert str(pattern) == _decimal_digit_str(pattern)


def test_pattern_str_matches_decimal_digits_wide():
    rng = random.Random(18)
    seen_prefix = seen_general = 0
    for _ in range(3000):
        width = rng.randint(0, 128)
        low = rng.randint(0, width)
        for care in (((1 << width) - 1) >> low << low, rng.getrandbits(width)):
            pattern = TernaryPattern(width, care, rng.getrandbits(width) & care)
            assert str(pattern) == _decimal_digit_str(pattern) == _per_bit_str(pattern)
            seen_prefix += prefix_span(pattern) is not None
            seen_general += prefix_span(pattern) is None
    assert seen_prefix > 3000 and seen_general > 2000


def test_synthesize_basic():
    p = new_partition([5, 1, 2], 3)
    t = synthesize_lpm(p)
    assert len(t) == 3
    assert evaluate_table(t) == [0, 5, 1, 2]
    assert evaluate_table(synthesize_lpm(new_partition([1 << 6], 6))) == [0, 64]
    t10 = synthesize_lpm(new_partition([341, 683], 10))
    assert len(t10) == 6 and evaluate_table(t10) == [0, 341, 683]


def test_synthesize_prefix_monotone():
    rng = random.Random(12)
    for _ in range(100):
        p = sample_partition(rng.randrange(1, 9), 12, rng)
        t = synthesize_lpm(p)
        assert all(prefix_span(r.pattern) for r in t.rules)
        lens = [r.pattern.care.bit_count() for r in t.rules]
        assert lens == sorted(lens, reverse=True)
        assert lens[-1] == 0  # match-all at the bottom


def test_round_trip_random():
    rng = random.Random(13)
    for _ in range(500):
        k = rng.randrange(1, 17)
        w = rng.randrange(max(1, k.bit_length()), 33)
        if k > 1 << w:
            continue
        p = sample_partition(k, w, rng)
        t = synthesize_lpm(p)
        assert len(t) == min_rules(p)
        assert evaluate_table(t) == [0, *p.weights]
        assert table_from_text(table_to_text(t)) == t


def _block(width, start, level):
    """Prefix pattern covering the aligned block [start, start + 2**level)."""
    assert start % (1 << level) == 0
    return TernaryPattern(width, ((1 << (width - level)) - 1) << level, start)


def _reference_synthesize(p):
    """Rescan every held block for the lowest-addressed eligible one: the
    allocator the start-sorted block lists replaced."""
    txs = bit_matcher(p)
    width = p.width
    top = txs[-1][0]
    rules = [Rule(_block(width, 0, width), top)]
    blocks = {top: [(0, width)]}  # target -> [(start, level)]
    for src, dst, size in reversed(txs[:-1]):
        lvl = size.bit_length() - 1
        holding = blocks.get(dst, [])
        start, blvl = min(b for b in holding if b[1] >= lvl)
        holding.remove((start, blvl))
        while blvl > lvl:
            blvl -= 1
            holding.append((start + (1 << blvl), blvl))
        rules.append(Rule(_block(width, start, lvl), src))
        blocks.setdefault(src, []).append((start, lvl))
    rules.reverse()
    return RuleTable(width, tuple(rules))


def _worst_partitions():
    for width in (2, 3, 8, 33, 100):
        yield gen_k3(width)
    for k in (4, 5, 6, 7, 16, 37, 100):
        for width in (12, 40, 100):
            yield gen_triplets(k, width)
    for k in (2, 3, 5, 16, 37, 100):
        for width in (9, 40, 100):
            yield gen_general_hard(k, width)


def test_synthesize_matches_reference_allocator():
    rng = random.Random(16)
    parts = list(_worst_partitions())
    for k in (1, 2, 3, 5, 8, 16, 37, 100):
        for width in (max(1, (k - 1).bit_length()), 7, 12, 32, 64, 100):
            parts += [sample_partition(k, width, rng) for _ in range(4)]
    for p in parts:
        assert synthesize_lpm(p) == _reference_synthesize(p)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 100), st.integers(0, 100), st.integers(0, 2**32))
def test_synthesize_matches_reference_allocator_random(k, width, seed):
    width = max(width, (k - 1).bit_length())
    p = sample_partition(k, width, random.Random(seed))
    assert synthesize_lpm(p) == _reference_synthesize(p)


def _reference_prefix_rows(moves):
    """_prefix_rows with every run a target holds kept in a start-sorted list:
    the allocator that one lowest run per target replaced."""
    top, _, space = moves[-1]
    if space & (space - 1):
        raise InternalInvariantViolated(f"last move of size {space} is not a whole space")
    width = space.bit_length() - 1
    rows = [(0, width, top)]
    # target -> its sorted runs; sizes only fall, so run starts stay aligned
    runs: dict[int, list[tuple[int, int]]] = {top: [(0, space)]}
    for src, dst, size in reversed(moves[:-1]):
        lvl = size.bit_length() - 1
        holding = runs.get(dst) or [(0, 0)]  # an empty run fails the guard
        start, end = holding[0]
        if end - start <= size or start % size:  # a target moves once a level: no run empties
            raise InternalInvariantViolated(f"no block of size 2**{lvl} held by target {dst}")
        holding[0] = (start + size, end)
        rows.append((start, lvl, src))
        insort(runs.setdefault(src, []), (start, start + size))
    rows.reverse()
    return width, rows


def test_prefix_rows_match_sorted_runs():
    rng = random.Random(27)
    parts = [*_worst_partitions(), *tie_heavy_partitions()]
    for k in (1, 2, 3, 5, 8, 16, 37, 100, 1000):
        for width in (max(1, (k - 1).bit_length()), 7, 12, 32, 64, 100):
            if (k - 1).bit_length() <= width:
                parts += [sample_partition(k, width, rng) for _ in range(2)]
    for p in parts:
        moves = bit_matcher(p)
        assert tcam._prefix_rows(moves) == _reference_prefix_rows(moves)


@pytest.mark.parametrize(
    "moves",
    [
        [(1, 2, 1), (1, 0, 4)],  # the receiver holds no run
        [(3, 2, 2), (2, 1, 1), (1, 0, 4)],  # its first run is shorter than the move
        [(2, 1, 2), (3, 1, 1), (1, 0, 4)],  # its first run starts off the move's alignment
        [(2, 1, 2), (3, 1, 2), (1, 0, 4)],  # it receives twice at one level: its run is used up
        [(1, 0, 3)],  # the last move, which gives the width, is not a whole space
    ],
    ids=["no-run", "short", "misaligned", "used-up", "last-not-whole"],
)
def test_table_from_sequence_guard(moves):
    # hand-built (src, dst, size) moves that bit_matcher never emits
    with pytest.raises(InternalInvariantViolated):
        tcam._prefix_rows(moves)


def test_evaluate_paper_tables():
    assert evaluate_table(table_from_text(EX1)) == [0, 5, 1, 2]
    assert evaluate_table(table_from_text(REMARK3_W4)) == [0, 4, 3, 3, 3, 3]
    assert evaluate_table(table_from_text(THM8)) == [0, 21, 11]
    assert evaluate_table(table_from_text(REMARK3_W10)) == [0, 683, 341]


def test_evaluate_general_matches_enumeration():
    # inclusion-exclusion path vs brute-force address walk
    for text in (REMARK3_W4, THM8, REMARK3_W10):
        t = table_from_text(text)
        counts = [0] * (t.k + 1)
        for addr in range(1 << t.width):
            counts[t.lookup(addr)] += 1
        assert evaluate_table(t) == counts


def test_evaluate_unmatched():
    t = table_from_text("11* 1")
    assert evaluate_table(t) == [6, 2]


def test_table_to_sequence_examples():
    s = table_to_sequence(table_from_text(EX1))
    assert [(t.src, t.size, t.dst) for t in s] == [
        (1, 1, 2),
        (2, 2, 3),
        (3, 4, 1),
        (1, 8, 0),
    ]
    s2 = table_to_sequence(table_from_text("0* 1\n*0 2\n*1 3"))
    assert [(t.src, t.size, t.dst) for t in s2][:2] == [(1, 1, 2), (1, 1, 3)]
    s3 = table_to_sequence(table_from_text("*** 1"))
    assert [(t.src, t.size, t.dst) for t in s3] == [(1, 8, 0)]


def test_table_to_sequence_requires_cover():
    with pytest.raises(IncompleteCover):
        table_to_sequence(table_from_text("11* 1"))


def test_sequence_round_trip_random():
    rng = random.Random(14)
    for _ in range(200):
        p = sample_partition(rng.randrange(1, 9), rng.randrange(4, 33), rng)
        t = synthesize_lpm(p)
        s = table_to_sequence(t)
        assert len(s) == min_rules(p)
        assert validate_sequence(p, s).zeroes
        assert sorted(x.size for x in s) == sorted(size for _, _, size in bit_matcher(p))


def test_intersect():
    merged = intersect_two(TernaryPattern.parse("0*"), TernaryPattern.parse("*0"))
    assert str(merged) == "00" and merged.count == 1
    assert intersect_two(TernaryPattern.parse("01"), TernaryPattern.parse("10")) is None
    ident = intersect_two(TernaryPattern.parse("***"), TernaryPattern.parse("***"))
    assert str(ident) == "***" and ident.count == 8
    with pytest.raises(WidthMismatch):
        intersect_two(TernaryPattern.parse("0*"), TernaryPattern.parse("0**"))


def test_intersect_power_of_two_random():
    rng = random.Random(15)
    for _ in range(5000):
        w = rng.randrange(1, 17)
        pats = [
            TernaryPattern.parse(
                "".join(rng.choice("01*") for _ in range(w))
            )
            for _ in range(rng.randrange(1, 6))
        ]
        merged = reduce(lambda acc, q: acc and intersect_two(acc, q), pats)
        if merged is None:
            continue
        assert merged.count & (merged.count - 1) == 0
        if w <= 10:
            brute = sum(1 for a in range(1 << w) if all(p.matches(a) for p in pats))
            assert brute == merged.count


def test_table_text_json_round_trip(capsys):
    t = synthesize_lpm(new_partition([5, 1, 2], 3))
    assert tcam.table_from_text(table_to_text(t)) == t
    assert main(["compile", "--weights", "5,1,2", "--format", "json"]) == 0
    obj = json.loads(capsys.readouterr().out)  # compile renders without the RuleTable
    assert obj["width"] == 3
    assert [f"{r['pattern']} {r['target']}" for r in obj["rules"]] == table_to_text(t).splitlines()
    commented = "# header\n" + table_to_text(t) + "\n# trailing\n"
    assert tcam.table_from_text(commented) == t


def test_table_from_text_width_check():
    with pytest.raises(WidthMismatch):
        table_from_text("0* 1\n0** 2")
    with pytest.raises(WidthMismatch):
        table_from_text("0* 1", width=3)
    with pytest.raises(WidthOverflow):
        table_from_text("1" + "*" * 199 + " 1")
    with pytest.raises(WidthOverflow):
        RuleTable(200, (Rule(TernaryPattern.parse("*" * 200), 1),))
    assert table_from_text("*" * 128 + " 1").width == 128


def test_rule_table_rejects_negative_targets():
    with pytest.raises(IndexOutOfRange):
        RuleTable(2, (Rule(TernaryPattern.parse("**"), -1),))
    with pytest.raises(IndexOutOfRange):
        table_from_text("1* -1\n** 1")
    with pytest.raises(IndexOutOfRange):
        RuleTable(2, (Rule(TernaryPattern.parse("1*"), 1), Rule(TernaryPattern.parse("**"), -1)))


def test_rule_table_k_is_the_highest_target():
    star = TernaryPattern.parse("**")
    assert RuleTable(2, ()).k == 0
    assert RuleTable(2, (Rule(star, MAX_TARGET),)).k == MAX_TARGET
    with pytest.raises(KTooLarge) as info:
        RuleTable(2, (Rule(star, 1), Rule(star, MAX_TARGET + 1)))
    assert str(info.value) == f"target {MAX_TARGET + 1} above {MAX_TARGET}"
    # targets 1..4 are unused; counts still run up to target 5
    table = RuleTable(2, (Rule(star, 5),))
    assert table.k == 5
    assert evaluate_table(table) == [0, 0, 0, 0, 0, 4]
    assert table_to_sequence(table) == (Transaction(5, 0, 4),)


def test_rule_table_k_is_computed_once():
    assert RuleTable(3, ()).k == 0
    rules = tuple(Rule(TernaryPattern.parse(t), n) for t, n in (("01*", 2), ("0**", 7), ("***", 3)))
    table, twin = RuleTable(3, rules), RuleTable(3, rules)
    # __post_init__ reads k once, and the instance keeps it
    assert vars(table)["k"] == table.k == 7
    assert table == twin and hash(table) == hash(twin)
    # the frozen dataclass's == and hash read the fields only, not the cached k
    vars(twin).pop("k")
    assert table == twin and hash(table) == hash(twin)
    assert twin.k == 7 and table == twin and hash(table) == hash(twin)
    assert table != RuleTable(3, rules[:2]) and RuleTable(3, rules[:2]).k == 7


def test_rule_table_rejects_stray_pattern_bits():
    # evaluate_table once painted these past the address space: [0, 3, 1]
    star = Rule(TernaryPattern.parse("**"), 2)
    with pytest.raises(InternalInvariantViolated):
        RuleTable(2, (Rule(TernaryPattern(2, 0, 1), 1), star))
    with pytest.raises(WidthMismatch):
        RuleTable(2, (Rule(TernaryPattern(2, 3, 4), 1), star))
    with pytest.raises(WidthMismatch):
        RuleTable(2, (Rule(TernaryPattern(2, 4, 0), 1), star))


def _reference_rule_check(width, rules):
    """RuleTable's rule scan as three checks per rule, in rule order: the
    exception type and message of the first failure, or None."""
    for i, r in enumerate(rules):
        pat = r.pattern
        if pat.width != width or (pat.care | pat.value) >> width:
            return WidthMismatch, f"rule {i}: pattern does not fit table width {width}"
        if pat.value & ~pat.care:
            return InternalInvariantViolated, f"rule {i}: value bits outside the care mask"
        if r.target < 0:
            return IndexOutOfRange, f"target {r.target} is negative"
    return None


def _rule_check(width, rules):
    try:
        RuleTable(width, tuple(rules))
    except (WidthMismatch, InternalInvariantViolated, IndexOutOfRange) as exc:
        return type(exc), str(exc)
    return None


def test_rule_table_diagnoses_first_failing_rule():
    star = Rule(TernaryPattern.parse("**"), 2)
    stray = Rule(TernaryPattern(2, 0, 1), 1)  # a value bit outside the care mask
    wide = Rule(TernaryPattern(2, 4, 0), 1)  # a care bit above the width
    negative = Rule(TernaryPattern.parse("1*"), -1)
    cases = [
        ((star, stray, wide), InternalInvariantViolated, "rule 1: value bits outside the care mask"),
        ((star, star, wide, stray), WidthMismatch, "rule 2: pattern does not fit table width 2"),
        ((star, negative, stray), IndexOutOfRange, "target -1 is negative"),
        ((star, Rule(TernaryPattern.parse("***"), 1)), WidthMismatch,
         "rule 1: pattern does not fit table width 2"),
        ((Rule(TernaryPattern(2, -1, 0), 1),), WidthMismatch, "rule 0: pattern does not fit table width 2"),
        ((Rule(TernaryPattern(2, 3, -1), 1),), WidthMismatch, "rule 0: pattern does not fit table width 2"),
    ]
    for rules, exc, message in cases:
        with pytest.raises(exc) as info:
            RuleTable(2, rules)
        assert str(info.value) == message
        assert _reference_rule_check(2, rules) == (exc, message)


def test_rule_table_check_matches_reference():
    rng = random.Random(19)
    failures = []
    for _ in range(3000):
        width = rng.randint(0, 6)
        rules = []
        for _ in range(rng.randint(1, 6)):
            pat_width = width + (rng.random() < 0.05) * rng.choice((-1, 1))
            care = rng.randint(-3, (2 << width) + 1) if rng.random() < 0.1 else rng.getrandbits(width)
            value = care & rng.getrandbits(width + 1)
            if rng.random() < 0.1:
                value = rng.randint(-3, (2 << width) + 1)
            rules.append(Rule(TernaryPattern(pat_width, care, value), rng.choice((1, 1, 1, 0, -1))))
        want = _reference_rule_check(width, rules)
        assert _rule_check(width, rules) == want
        failures += [want[0]] if want else []
    assert 500 < len(failures) < 2500
    assert {WidthMismatch, InternalInvariantViolated, IndexOutOfRange} == set(failures)


def test_lookup_first_match_priority():
    t = table_from_text("00 1\n0* 2\n** 3")
    assert [t.lookup(a) for a in range(4)] == [1, 2, 3, 3]


@st.composite
def prefix_tables(draw):
    """Prefix rules in any order: random targets (0 included), repeats, gaps."""
    width = draw(st.integers(0, 10))
    k = draw(st.integers(1, 5))
    pool = []
    for _ in range(draw(st.integers(1, 12))):
        level = draw(st.integers(0, width))
        start = draw(st.integers(0, (1 << (width - level)) - 1)) << level
        pool.append(_block(width, start, level))
    if draw(st.booleans()):
        pool.append(_block(width, 0, width))
    patterns = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=30))
    return RuleTable(width, tuple(Rule(q, draw(st.integers(0, k))) for q in patterns))


def _reference_sequence(table):
    """Per address: each rule's addresses fall to their first match below it."""
    addrs = range(1 << table.width)
    if any(table.lookup(a) == 0 for a in addrs):
        raise IncompleteCover("reference: some address is unmatched or on target 0")
    rules = table.rules
    runs = []
    for t, rule in enumerate(rules):
        by_owner = {}
        for a in filter(rule.pattern.matches, addrs):
            owner = next(
                (u for u in range(t + 1, len(rules)) if rules[u].pattern.matches(a)),
                len(rules),
            )
            by_owner[owner] = by_owner.get(owner, 0) + 1
        runs.append(sorted(by_owner.items()))
    return _sequence_from_runs(table, runs)


def _sequence_from_runs(table, runs):
    """The transactions of rule t's (owner, size) runs, sorted by owner: one per
    target its addresses fall to, in order of first owner, unless it is t's own."""
    targets = [r.target for r in table.rules] + [0]
    out = []
    for rule, by_owner in zip(table.rules, runs):
        moved = {}
        for owner, size in by_owner:
            moved[targets[owner]] = moved.get(targets[owner], 0) + size
        out += [(rule.target, tgt, n) for tgt, n in moved.items() if tgt != rule.target]
    return out


def _check_evaluate(table):
    counts = [0] * (table.k + 1)
    for addr in range(1 << table.width):
        counts[table.lookup(addr)] += 1
    assert evaluate_table(table) == counts


def _check_sequence(table):
    try:
        expected = _reference_sequence(table)
    except IncompleteCover:
        with pytest.raises(IncompleteCover):
            table_to_sequence(table)
        return
    got = [(x.src, x.dst, x.size) for x in table_to_sequence(table)]
    assert got == expected


@settings(max_examples=300, deadline=None)
@given(prefix_tables())
def test_evaluate_prefix_matches_lookup(table):
    _check_evaluate(table)


@settings(max_examples=300, deadline=None)
@given(prefix_tables())
def test_table_to_sequence_matches_reference(table):
    _check_sequence(table)


def _interval_paint(table):
    """Each rule's runs, by position, and the counts per target by the interval
    paint that the sentinel paint replaced: starts without a sentinel, every
    rule's runs built from its edges, every paint's segments built as new lists."""
    rules, n, end = table.rules, len(table.rules), 1 << table.width
    starts, owners, below = [0], [n], [None] * n
    for i in range(n - 1, -1, -1):
        lo, hi = prefix_span(rules[i].pattern)
        j = bisect_right(starts, lo) - 1
        m = bisect_left(starts, hi, j)
        edges = [lo, *starts[j + 1:m], hi]
        below[i] = list(zip(owners[j:m], map(sub, edges[1:], edges[:-1])))
        seg_starts, seg_owners = [lo], [i]
        if starts[j] < lo:
            seg_starts.insert(0, starts[j])
            seg_owners.insert(0, owners[j])
        if hi < (starts[m] if m < len(starts) else end):
            seg_starts.append(hi)
            seg_owners.append(owners[m - 1])
        starts[j:m] = seg_starts
        owners[j:m] = seg_owners
    targets = [r.target for r in rules] + [0]
    counts = [0] * (table.k + 1)
    for owner, size in zip(owners, map(sub, [*starts[1:], end], starts)):
        counts[targets[owner]] += size
    return below, counts


def _check_paint(table):
    """The sentinel paint's runs and counts, and both readers, against the reference paint."""
    below, counts = _interval_paint(table)
    assert tcam._fall_through(table) == (below, counts)
    assert tcam._fall_through(table, runs=False) == ([None] * len(table), counts)
    assert evaluate_table(table) == counts
    if counts[0]:
        with pytest.raises(IncompleteCover):
            table_to_sequence(table)
    else:
        got = [(x.src, x.dst, x.size) for x in table_to_sequence(table)]
        assert got == _sequence_from_runs(table, [sorted(r) for r in below])
    return below


@settings(max_examples=300, deadline=None)
@given(prefix_tables())
def test_paint_matches_reference_paint(table):
    _check_paint(table)


@pytest.mark.parametrize("text, width, runs", [
    ("", 0, []),  # no rules, RuleTable(width, ()): every address unmatched
    ("", 3, []),
    (" 1", 0, [[(1, 1)]]),  # width 0: the one address, up to the sentinel
    ("*** 1\n0** 2\n1** 3", 3, [[(1, 4), (2, 4)], [(3, 4)], [(3, 4)]]),  # several runs
    ("01* 1\n01* 2\n0** 3\n0** 1\n*** 2", 3,  # duplicate spans, and hi == 2**width
     [[(1, 2)], [(2, 2)], [(3, 4)], [(4, 4)], [(5, 8)]]),
    ("1** 1\n*** 2", 3, [[(1, 4)], [(2, 8)]]),
])
def test_paint_matches_reference_paint_edge_cases(text, width, runs):
    assert _check_paint(table_from_text(text, width)) == runs


@pytest.mark.parametrize("width", [32, 100])
@pytest.mark.parametrize("k", [16, 100])
def test_paint_matches_reference_paint_synthesized(k, width):
    # synthesized tables: every rule's span lies inside one segment
    rng = random.Random(k * width)
    for _ in range(5):
        table = synthesize_lpm(sample_partition(k, width, rng))
        assert all(len(r) == 1 for r in _check_paint(table))


@st.composite
def ternary_tables(draw):
    """Rules over {0,1,*}, 1-30 of them (so both general evaluators run),
    random targets (0 included), with or without a match-all at the bottom."""
    width = draw(st.integers(1, 10))
    k = draw(st.integers(1, 5))
    pattern = st.text("01*", min_size=width, max_size=width).map(TernaryPattern.parse)
    rules = draw(st.lists(st.builds(Rule, pattern, st.integers(0, k)), min_size=1, max_size=30))
    if draw(st.booleans()):
        rules[-1] = Rule(TernaryPattern.parse("*" * width), draw(st.integers(0, k)))
    return RuleTable(width, tuple(rules))


@settings(max_examples=300, deadline=None)
@given(ternary_tables())
def test_evaluate_general_matches_lookup(table):
    _check_evaluate(table)


@settings(max_examples=300, deadline=None)
@given(ternary_tables())
def test_table_to_sequence_general_matches_reference(table):
    _check_sequence(table)


def _is_prefix_table(table):
    return all(prefix_span(r.pattern) for r in table.rules)


def test_too_large_to_evaluate():
    # 21 single-bit rules, all but the first non-prefix, at width 25
    rules = "".join("*" * i + "1" + "*" * (24 - i) + " 1\n" for i in range(21))
    table = table_from_text(rules)
    assert not _is_prefix_table(table)
    for read in (evaluate_table, table_to_sequence):
        with pytest.raises(TooLargeToEvaluate, match="^21 general rules at width 25$"):
            read(table)


def test_single_bit_rules_past_ie_limit():
    # each of bits 0-23 set, over a match-all: inclusion-exclusion's time
    # doubles with each such rule, so above 20 rules owner sets take over
    text = "".join("*" * (23 - b) + "1" + "*" * b + " 1\n" for b in range(24))
    table = table_from_text(text + "*" * 24 + " 2\n")
    assert len(table) == 25 and not _is_prefix_table(table)
    assert evaluate_table(table) == [0, 2**24 - 1, 1]
    p = new_partition([2**24 - 1, 1], 24)
    assert validate_sequence(p, table_to_sequence(table)).zeroes


@pytest.mark.parametrize("width", [10, 13, 16, 20, 24])
def test_resequence_budget(width):
    # each rule's runs may claim past every rule below it, so table_to_sequence
    # refuses rules**2 * 2**width past its budget, charging narrow widths as 2**13
    most = math.isqrt(tcam._WALK_BUDGET >> max(width, 13))
    assert most == {10: 2048, 13: 2048, 16: 724, 20: 181, 24: 45}[width]
    odd = "*" * (width - 1) + "1"  # not a prefix
    for n in (most, most + 1):
        rules = (Rule(TernaryPattern.parse(odd), 1),) * (n - 1)
        table = RuleTable(width, rules + (Rule(TernaryPattern.parse("*" * width), 2),))
        assert evaluate_table(table) == [0, 2 ** (width - 1), 2 ** (width - 1)]
        if n == most:
            assert table_to_sequence(table) == (Transaction(1, 2, 2 ** (width - 1)),
                                                Transaction(2, 0, 2**width))
            continue
        start = time.perf_counter()
        with pytest.raises(TooLargeToEvaluate, match=f"^{n} general rules at width {width} to"):
            table_to_sequence(table)
        assert time.perf_counter() - start < 0.1


def _owner_walk(table):
    """Each rule's runs and the counts per target by the bottom-up owner walk
    that the top-down claim replaced: per 2**16-address chunk, each rule from
    the last up takes its addresses from the owners below it (owner[u] holds
    the addresses whose first match so far is u), and owners are counted at the end."""
    pats, width = [r.pattern for r in table.rules], table.width
    n, low = len(pats), min(width, 16)
    sets = []
    for p in pats:
        s = 1
        for b in range(low):
            s |= s << ((~p.care >> b & 1) << b)
        sets.append(s << (p.value & ((1 << low) - 1)))
    runs, owned = [{} for _ in range(n)], [0] * (n + 1)
    for high in range(0, 1 << width, 1 << low):
        owner = [0] * n + [(1 << (1 << low)) - 1]
        for i in range(n - 1, -1, -1):
            p = pats[i]
            owner[i] = rest = 0 if (high ^ p.value) & (p.care >> low << low) else sets[i]
            u = i
            while rest:
                u += 1
                cut = owner[u] & rest
                if cut:
                    owner[u] ^= cut
                    runs[i][u] = runs[i].get(u, 0) + cut.bit_count()
                    rest ^= cut
        for u, s in enumerate(owner):
            owned[u] += s.bit_count()
    targets = [r.target for r in table.rules] + [0]
    counts = [0] * (table.k + 1)
    for u, c in enumerate(owned):
        counts[targets[u]] += c
    return [sorted(r.items()) for r in runs], counts


@st.composite
def wide_general_tables(draw):
    """21-40 rules over 13-20 bits, mostly wildcards so that rules overlap;
    targets skip numbers and include 0; the cover may be incomplete."""
    width = draw(st.integers(13, 20))
    char = st.sampled_from("*****01")
    pattern = st.lists(char, min_size=width, max_size=width).map("".join)
    target = st.sampled_from([0, 1, 2, 5, 9])
    rules = draw(st.lists(st.tuples(pattern, target), min_size=21, max_size=40))
    rules[0] = ("*" * (width - 1) + "1", draw(target))  # not a prefix
    if draw(st.booleans()):
        rules[-1] = ("*" * width, draw(target))
    return table_from_text("\n".join(f"{p} {t}" for p, t in rules))


@settings(max_examples=12, deadline=None)
@given(wide_general_tables())
def test_evaluate_wide_general_matches_lookup_and_owner_pass(table):
    # the claim's counts and runs against the owner walk, over up to 16 chunks
    assert not _is_prefix_table(table) and len(table) > 20
    _check_evaluate(table)
    # few drawn tables leave no address on target 0, so each is also read
    # with target 0 renamed and a match-all below, which must resequence
    renamed = [Rule(r.pattern, r.target or 3) for r in table.rules]
    covered = RuleTable(table.width, (*renamed, Rule(TernaryPattern.parse("*" * table.width), 7)))
    for t in (table, covered):
        runs, counts = _owner_walk(t)
        assert evaluate_table(t) == counts
        if counts[0]:
            with pytest.raises(IncompleteCover):
                table_to_sequence(t)
        else:
            got = [(x.src, x.dst, x.size) for x in table_to_sequence(t)]
            assert got == _sequence_from_runs(t, runs)
    assert not counts[0]  # the covered copy took the resequencing branch


def test_evaluate_thousand_general_rules():
    # the owner walk counted this in seconds; the claim runs it in tens of ms
    rng = random.Random(20)
    lines = ["".join(rng.choice("****01") for _ in range(20)) + f" {rng.randint(0, 9)}"
             for _ in range(999)]
    table = table_from_text("\n".join(lines) + "\n" + "*" * 20 + " 3")
    counts = evaluate_table(table)
    assert sum(counts) == 2**20
    assert counts == _owner_walk(table)[1]


def test_bit_permuted_prefix_tables():
    # permuting bit positions maps addresses one to one, so a permuted prefix
    # table reads exactly as the prefix table: inclusion-exclusion and owner
    # sets (wider than one chunk too) checked against the interval paint
    rng = random.Random(16)
    general = {"ie": 0, "owner sets": 0}
    for _ in range(120):
        width = rng.randint(6, 22)
        p = sample_partition(rng.randint(2, 12), width, rng)
        prefix = synthesize_lpm(p)
        perm = list(range(width))
        rng.shuffle(perm)
        text = "\n".join(
            "".join(str(r.pattern)[j] for j in perm) + f" {r.target}" for r in prefix.rules
        )
        table = table_from_text(text)
        assert table_from_text(table_to_text(table)) == table  # as audit reads it
        if not _is_prefix_table(table):
            general["ie" if len(table) <= 20 else "owner sets"] += 1
        assert evaluate_table(table) == evaluate_table(prefix) == [0, *p.weights]
        assert table_to_sequence(table) == table_to_sequence(prefix)
    assert min(general.values()) >= 20, general


@settings(max_examples=10, deadline=None)
@given(st.integers(0, 2**32))
def test_sequence_zeroes_at_full_size(seed):
    p = sample_partition(100, 100, random.Random(seed))
    s = table_to_sequence(synthesize_lpm(p))
    assert validate_sequence(p, s).zeroes


def test_readme_python_example():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    example = readme.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(example, "README.md", "exec"), {})
