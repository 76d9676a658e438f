import json
import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tcamsplit import core
from tcamsplit.core import (
    MAX_TARGET,
    MAX_WIDTH,
    Partition,
    Transaction,
    ValidationReport,
    new_partition,
    sample_partition,
    validate_sequence,
)
from tcamsplit.errors import BadSum, IndexOutOfRange, KTooLarge, WidthOverflow, ZeroWeight


def seq(*triples):
    return tuple(Transaction(s, d, m) for s, m, d in triples)


def test_new_partition_basic():
    p = new_partition([5, 1, 2], 3)
    assert p.k == 3 and p.width == 3 and p.total == 8
    p1 = new_partition([8], 3)
    assert p1.k == 1


def test_new_partition_rejects():
    for weights, width, exc, msg in [
        ([5, 1, 1], 3, BadSum, "weights sum to 7, expected 2**3 = 8"),
        ([8, 0], 3, ZeroWeight, "weight 0 is not positive"),
        ([], 3, ZeroWeight, "empty weight list"),
        ([1], 129, WidthOverflow, "width 129 outside 0..128"),
        ([1], -1, WidthOverflow, "width -1 outside 0..128"),
        ([1], 3.0, WidthOverflow, "width 3.0 is not an int"),
    ]:
        for build in (new_partition, lambda ws, w: Partition(tuple(ws), w)):
            with pytest.raises(exc) as info:
                build(weights, width)
            assert str(info.value) == msg
    # new_partition converts to int; Partition takes ints only
    assert new_partition([4.0, True, 3], 3).weights == (4, 1, 3)
    # a weight int() would change is refused, not truncated to (3, 1)
    for weights, width, bad in [
        ([3.2, 1.3], 2, "3.2"),
        ([Fraction(5, 2), Fraction(11, 2)], 3, r"Fraction\(5, 2\)"),
        ((w for w in [4, 3.5, 0.5]), 3, "3.5"),
    ]:
        with pytest.raises(ZeroWeight, match=rf"^weight {bad} is not an int$"):
            new_partition(weights, width)
    with pytest.raises(ZeroWeight, match=r"^weight 4\.0 is not an int$"):
        Partition((4.0, 1, 3), 3)
    # a list would leave the frozen Partition unhashable
    with pytest.raises(ZeroWeight, match=r"^weights \[8\] are not a tuple$"):
        Partition([8], 3)


def _new_partition_reference(weights, width):
    """new_partition as it was before Partition checked itself."""
    ws = tuple(int(w) for w in weights)
    if width < 0 or width > MAX_WIDTH:
        raise WidthOverflow(f"width {width} outside 0..{MAX_WIDTH}")
    if not ws:
        raise ZeroWeight("empty weight list")
    for w in ws:
        if w <= 0:
            raise ZeroWeight(f"weight {w} is not positive")
    if sum(ws) != 1 << width:
        raise BadSum(f"weights sum to {sum(ws)}, expected 2**{width} = {1 << width}")
    return Partition(ws, width)


def _outcome(build, *args):
    try:
        return build(*args)
    except Exception as exc:  # compared by type and message
        return type(exc), str(exc)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_new_partition_matches_reference(data):
    width = data.draw(st.integers(-2, MAX_WIDTH + 2))
    total = 1 << max(width, 0)
    weights = data.draw(st.lists(st.integers(-3, total + 1), max_size=6))
    if data.draw(st.booleans()) and width >= 0:  # often a valid sum
        weights.append(total - sum(weights))
    assert _outcome(new_partition, weights, width) == _outcome(
        _new_partition_reference, weights, width)


def test_apply_sequence_example():
    p = new_partition([5, 1, 2], 3)
    s = seq((1, 1, 2), (2, 2, 3), (3, 4, 1), (1, 8, 0))
    rep = validate_sequence(p, s)
    assert rep.zeroes and rep.final == (0, 0, 0, 0)


def test_apply_sequence_trivial():
    assert validate_sequence(new_partition([8], 3), seq((1, 8, 0))).zeroes
    assert validate_sequence(
        new_partition([4, 4], 3), seq((1, 4, 2), (2, 8, 0))
    ).zeroes
    rep = validate_sequence(new_partition([4, 4], 3), seq((1, 4, 2)))
    assert not rep.zeroes and rep.final == (-8, 0, 8)


def test_apply_sequence_index_out_of_range():
    p = new_partition([4, 4], 3)
    with pytest.raises(IndexOutOfRange):
        validate_sequence(p, seq((1, 4, 3)))


@pytest.mark.parametrize("move", [(1, 1, 4), (1, 2, 0)], ids=["self-move", "zero-size"])
def test_validate_sequence_refuses_self_moves_and_empty_sizes(move):
    p = new_partition([4, 4], 3)
    for s in ((Transaction(*move),), (move,), seq((1, 4, 2)) + (move,)):
        with pytest.raises(IndexOutOfRange):
            validate_sequence(p, s)


def test_transaction_is_a_named_triple():
    t = Transaction(1, 2, 4)
    assert t == (1, 2, 4) and (t.src, t.dst, t.size, t.level) == (1, 2, 4, 2)
    src, dst, size = t
    assert (src, dst, size) == (1, 2, 4)
    for size in (0, -4, 3):  # 0 & -1 == 0 must not read as level -1
        with pytest.raises(ValueError, match=rf"^size {size} is not a power of two$"):
            Transaction(1, 2, size).level
    # plain triples read as Transactions do
    moves = [(2, 1, 1), (3, 1, 2), (1, 0, 8)]
    p = new_partition([5, 1, 2], 3)
    assert validate_sequence(p, moves) == validate_sequence(p, tuple(map(Transaction._make, moves)))
    assert validate_sequence(p, moves).ok_for_synthesis()
    assert core.sequence_to_text(moves) == "2 1 1\n3 2 1\n1 8 0"
    assert core.sequence_to_json_obj([(1, 0, 3), (1, 0, 4)]) == [
        {"src": 1, "level": None, "size": 3, "dst": 0},
        {"src": 1, "level": 2, "size": 4, "dst": 0},
    ]
    assert not validate_sequence(p, [(1, 0, 3)]).power_of_two_sizes


def test_validate_sequence_flags():
    p = new_partition([8], 3)
    rep = validate_sequence(p, seq())
    assert not rep.zeroes
    rep = validate_sequence(p, seq((1, 8, 0)))
    assert rep.zeroes and rep.nonnegative and rep.sizes_monotone
    assert rep.zero_target_terminal_only and rep.power_of_two_sizes
    # shrinking sizes and mid-sequence pool use are flagged
    p2 = new_partition([4, 4], 3)
    rep = validate_sequence(p2, seq((1, 4, 0), (2, 4, 0)))
    assert rep.zeroes and not rep.zero_target_terminal_only
    rep = validate_sequence(p2, seq((1, 4, 2), (2, 8, 0), (1, 1, 2), (2, 1, 1)))
    assert not rep.sizes_monotone and not rep.nonnegative


def _validate_by_rescan(p, s):
    """validate_sequence's report by rescanning every x_1..x_k after each move."""
    values = [-(1 << p.width), *p.weights]
    nonneg = True
    for src, dst, size in s:
        values[src] -= size
        values[dst] += size
        nonneg = nonneg and all(v >= 0 for v in values[1:])
    return ValidationReport(
        zeroes=not any(values),
        nonnegative=nonneg,
        sizes_monotone=all(a[2] <= b[2] for a, b in zip(s, s[1:])),
        power_of_two_sizes=all(size & (size - 1) == 0 for _, _, size in s),
        zero_target_terminal_only=all(0 not in (src, dst) for src, dst, _ in s[:-1]),
        final=tuple(values),
    )


@st.composite
def partitions_and_moves(draw):
    width = draw(st.integers(0, 4))
    k = draw(st.integers(1, min(5, 1 << width)))
    p = sample_partition(k, width, random.Random(draw(st.integers(0, 99))))
    move = st.tuples(st.integers(0, k), st.integers(0, k), st.integers(1, 2 << width))
    return p, tuple(draw(st.lists(move.filter(lambda m: m[0] != m[1]), max_size=12)))


@settings(max_examples=400, deadline=None)
@given(partitions_and_moves())
# x_1 dips to -2 and recovers, and x_0 (never checked) goes further below 0
@example((new_partition([4, 4], 3), ((1, 2, 6), (2, 1, 4), (0, 2, 2))))
def test_validate_sequence_matches_full_rescan(case):
    p, s = case
    assert validate_sequence(p, s) == _validate_by_rescan(p, s)


def test_sum_conservation_random_sequences():
    rng = random.Random(11)
    p = new_partition([5, 1, 2], 3)
    values = [-8, 5, 1, 2]
    txs = []
    for _ in range(50):
        s, d = rng.sample(range(4), 2)
        lvl = rng.randrange(4)
        txs.append(Transaction(s, d, 1 << lvl))
        values[s] -= 1 << lvl
        values[d] += 1 << lvl
        final = validate_sequence(p, tuple(txs)).final
        assert sum(final) == 0
        assert list(final) == values


def test_sampler_edges():
    rng = random.Random(0)
    assert sample_partition(1, 5, rng).weights == (32,)
    assert sample_partition(16, 4, rng).weights == (1,) * 16
    with pytest.raises(KTooLarge):
        sample_partition(17, 4, rng)
    with pytest.raises(KTooLarge):
        sample_partition(0, 4, rng)
    for width in (-1, 129, 200):
        with pytest.raises(WidthOverflow):
            sample_partition(3, width, rng)
    assert sum(sample_partition(3, 128, rng).weights) == 1 << 128


def test_sampler_refuses_k_above_max_target():
    # the rejection loop would fill a k-element set first
    with pytest.raises(KTooLarge, match=rf"^k={MAX_TARGET + 1} above {MAX_TARGET}$"):
        sample_partition(MAX_TARGET + 1, 128, random.Random(0))


def test_sampler_invariants():
    rng = random.Random(42)
    for _ in range(200):
        p = sample_partition(3, 8, rng)
        assert sum(p.weights) == 256
        assert all(w > 0 for w in p.weights)
        assert p.k == 3


def test_sampler_uniformity_k2_w4():
    rng = random.Random(7)
    freq = Counter(sample_partition(2, 4, rng).weights for _ in range(100_000))
    assert len(freq) == 15
    for count in freq.values():
        assert abs(count / 100_000 - 1 / 15) < 0.01


def test_sampler_huge_width():
    p = sample_partition(5, 100, random.Random(3))
    assert sum(p.weights) == 1 << 100 and all(w > 0 for w in p.weights)


@given(st.integers(1, 6), st.data())
@settings(max_examples=50, deadline=None)
def test_sampler_valid_partitions_property(width, data):
    k = data.draw(st.integers(1, min(8, 1 << width)))
    seed = data.draw(st.integers(0, 2**32))
    p = sample_partition(k, width, random.Random(seed))
    assert sum(p.weights) == 1 << width and len(p.weights) == k


@pytest.mark.parametrize("text, field", [("1,,1", 2), ("1,1,", 3), (",2", 1), ("", 1)])
def test_partition_from_text_refuses_empty_field(text, field):
    # empty fields were skipped, so "1,,1" and "1,1," were read as 1,1
    for width in (None, 1):
        with pytest.raises(ZeroWeight, match=f"^empty field {field} in the weight list$"):
            core.partition_from_text(text, width)


def test_partition_from_text_refuses_over_long_field():
    # 2**128 has 39 digits, so no weight has 40; the count skips leading zeros
    for width in (None, 3, MAX_WIDTH):
        with pytest.raises(WidthOverflow, match=r"^weight field 2 has 40 digits, 2\*\*128 has 39$"):
            core.partition_from_text("1," + "0" * 50 + "1" * 40, width)
    top = str(1 << MAX_WIDTH)
    for text in (top, "0" * 50 + top, "+" + "0" * 50 + top):
        assert core.partition_from_text(text) == Partition((1 << MAX_WIDTH,), MAX_WIDTH)
    assert core.partition_from_text("5," + "0" * 40 + "1,2", 3) == new_partition([5, 1, 2], 3)


def test_text_and_json_round_trips():
    p = core.partition_from_text("5,1,2")
    assert p == new_partition([5, 1, 2], 3)
    with pytest.raises(BadSum):
        core.partition_from_text("5,1,1")
    assert json.loads(core.partition_to_json(p)) == {"width": 3, "weights": [5, 1, 2]}
    s = seq((1, 1, 2), (1, 8, 0))
    assert core.sequence_to_text(s) == "1 1 2\n1 8 0"
    obj = core.sequence_to_json_obj(s)
    assert obj[0] == {"src": 1, "level": 0, "size": 1, "dst": 2}
