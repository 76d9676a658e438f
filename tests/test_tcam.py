import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tcamsplit import tcam
from tcamsplit.core import new_partition, sample_partition, validate_sequence
from tcamsplit.errors import (
    IncompleteCover,
    IndexOutOfRange,
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
    intersect_patterns,
    synthesize_lpm,
    table_from_text,
    table_to_sequence,
    table_to_text,
)
from tcamsplit.worstcase import gen_general_hard, gen_k3, gen_triplets

EX1 = "011 1\n01* 2\n0** 3\n*** 1"
REMARK3_W4 = "**00 1\n00** 2\n01** 3\n10** 4\n11** 5"
REMARK3_W10 = (
    "0000000000 2\n*000***000 1\n**000***** 2\n00******** 2\n********** 1"
)
THM8 = "**000 2\n00*** 2\n***** 1"


def test_pattern_parse_format():
    p = TernaryPattern.parse("01*")
    assert str(p) == "01*" and p.width == 3 and p.count == 2
    assert p.is_prefix() and p.prefix_len == 2 and p.interval() == (2, 4)
    q = TernaryPattern.parse("*0*")
    assert not q.is_prefix() and q.count == 4
    assert [a for a in range(8) if q.matches(a)] == [0, 1, 4, 5]


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
        lens = [r.pattern.prefix_len for r in t.rules]
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


def _reference_synthesize(p):
    """Rescan every held block for the lowest-addressed eligible one: the
    allocator the start-sorted block lists replaced."""
    txs = bit_matcher(p).transactions
    width = p.width
    last = txs[-1]
    rules = [Rule(TernaryPattern.from_block(width, 0, width), last.src)]
    blocks = {last.src: [(0, width)]}  # target -> [(start, level)]
    for t in reversed(txs[:-1]):
        lvl = t.level
        holding = blocks.get(t.dst, [])
        start, blvl = min(b for b in holding if b[1] >= lvl)
        holding.remove((start, blvl))
        while blvl > lvl:
            blvl -= 1
            holding.append((start + (1 << blvl), blvl))
        rules.append(Rule(TernaryPattern.from_block(width, start, lvl), t.src))
        blocks.setdefault(t.src, []).append((start, lvl))
    rules.reverse()
    return RuleTable(width, tuple(rules), p.k)


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
        assert sorted(x.size for x in s) == sorted(x.size for x in bit_matcher(p))


def test_intersect():
    pats = [TernaryPattern.parse(x) for x in ("0*", "*0")]
    merged = intersect_patterns(pats)
    assert str(merged) == "00" and merged.count == 1
    assert intersect_patterns([TernaryPattern.parse("01"), TernaryPattern.parse("10")]) is None
    ident = intersect_patterns([TernaryPattern.parse("***")])
    assert str(ident) == "***" and ident.count == 8
    with pytest.raises(WidthMismatch):
        intersect_patterns([TernaryPattern.parse("0*"), TernaryPattern.parse("0**")])


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
        merged = intersect_patterns(pats)
        if merged is None:
            continue
        assert merged.count & (merged.count - 1) == 0
        if w <= 10:
            brute = sum(1 for a in range(1 << w) if all(p.matches(a) for p in pats))
            assert brute == merged.count


def test_table_text_json_round_trip():
    t = synthesize_lpm(new_partition([5, 1, 2], 3))
    assert tcam.table_from_text(table_to_text(t)) == t
    assert tcam.table_from_json(tcam.table_to_json(t)) == t
    commented = "# header\n" + table_to_text(t) + "\n# trailing\n"
    assert tcam.table_from_text(commented) == t


def test_table_from_text_width_check():
    with pytest.raises(WidthMismatch):
        table_from_text("0* 1\n0** 2")
    with pytest.raises(WidthMismatch):
        table_from_text("0* 1", width=3)
    with pytest.raises(WidthMismatch):
        tcam.table_from_json('{"width": 2, "rules": [{"pattern": "***", "target": 1}]}')
    with pytest.raises(WidthOverflow):
        table_from_text("1" + "*" * 199 + " 1")
    with pytest.raises(WidthOverflow):
        tcam.table_from_json(f'{{"width": 200, "rules": [{{"pattern": "{"*" * 200}", "target": 1}}]}}')
    assert table_from_text("*" * 128 + " 1").width == 128


def test_rule_table_rejects_negative_targets():
    with pytest.raises(IndexOutOfRange):
        RuleTable(2, (Rule(TernaryPattern.parse("**"), -1),), 0)
    with pytest.raises(IndexOutOfRange):
        table_from_text("1* -1\n** 1")
    with pytest.raises(IndexOutOfRange):
        tcam.table_from_json('{"width": 2, "rules": [{"pattern": "**", "target": -1}]}')


def test_lookup_first_match_priority():
    t = table_from_text("00 1\n0* 2\n** 3")
    assert [t.lookup(a) for a in range(4)] == [1, 2, 3, 3]


@st.composite
def prefix_tables(draw):
    """Prefix rules in any order: random targets (0 included), repeats, gaps."""
    width = draw(st.integers(1, 10))
    k = draw(st.integers(1, 5))
    pool = []
    for _ in range(draw(st.integers(1, 12))):
        level = draw(st.integers(0, width))
        start = draw(st.integers(0, (1 << (width - level)) - 1)) << level
        pool.append(TernaryPattern.from_block(width, start, level))
    if draw(st.booleans()):
        pool.append(TernaryPattern.from_block(width, 0, width))
    patterns = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=30))
    return RuleTable(
        width, tuple(Rule(q, draw(st.integers(0, k))) for q in patterns), k
    )


def _reference_sequence(table):
    """Per address: each rule's addresses fall to their first match below it."""
    addrs = range(1 << table.width)
    if any(table.lookup(a) == 0 for a in addrs):
        raise IncompleteCover("reference: some address is unmatched or on target 0")
    rules = table.rules
    out = []
    for t, rule in enumerate(rules):
        by_owner = {}
        for a in filter(rule.pattern.matches, addrs):
            owner = next(
                (u for u in range(t + 1, len(rules)) if rules[u].pattern.matches(a)),
                len(rules),
            )
            by_owner[owner] = by_owner.get(owner, 0) + 1
        moved = {}
        for owner in sorted(by_owner):
            tgt = rules[owner].target if owner < len(rules) else 0
            moved[tgt] = moved.get(tgt, 0) + by_owner[owner]
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
    return RuleTable(width, tuple(rules), k)


@settings(max_examples=300, deadline=None)
@given(ternary_tables())
def test_evaluate_general_matches_lookup(table):
    _check_evaluate(table)


@settings(max_examples=300, deadline=None)
@given(ternary_tables())
def test_table_to_sequence_general_matches_reference(table):
    _check_sequence(table)


def test_too_large_to_evaluate():
    # 21 single-bit rules, all but the first non-prefix, at width 25
    rules = "".join("*" * i + "1" + "*" * (24 - i) + " 1\n" for i in range(21))
    table = table_from_text(rules)
    assert not table.is_prefix_table()
    for read in (evaluate_table, table_to_sequence):
        with pytest.raises(TooLargeToEvaluate, match="^21 general rules at width 25$"):
            read(table)


@settings(max_examples=10, deadline=None)
@given(st.integers(0, 2**32))
def test_sequence_zeroes_at_full_size(seed):
    p = sample_partition(100, 100, random.Random(seed))
    s = table_to_sequence(synthesize_lpm(p))
    assert validate_sequence(p, s).zeroes
