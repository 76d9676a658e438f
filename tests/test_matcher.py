import math
import random
from itertools import combinations, compress
from operator import sub

import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from support import all_partitions, tie_heavy_partitions
from tcamsplit import matcher
from tcamsplit.core import (
    MAX_WIDTH,
    Partition,
    Transaction,
    new_partition,
    sample_partition,
    validate_sequence,
)
from tcamsplit.errors import (
    BadOracleInput,
    BadSum,
    InstanceTooLarge,
    InternalInvariantViolated,
    TcamSplitError,
    ZeroWeight,
)
from tcamsplit.matcher import (
    anchor_sequence,
    bit_matcher,
    brute_force_lambda,
    min_rules,
    random_matcher,
    signed_matcher,
)
from tcamsplit.signed import lpm_bounds, naf_count, naf_decompose, naf_max, naf_total
from tcamsplit.worstcase import gen_general_hard, gen_k2, gen_k3, gen_triplets


def test_bit_matcher_lengths():
    assert min_rules(new_partition([5, 1, 2], 3)) == 3
    assert min_rules(new_partition([4, 3, 3, 3, 3], 4)) == 7
    assert min_rules(new_partition([683, 341], 10)) == 6
    assert min_rules(new_partition([1 << 20], 20)) == 1
    assert min_rules(new_partition([5, 5, 6], 4)) == 5


def _unchecked_partition(weights, width):
    """A Partition past __post_init__'s checks, which refuse every input below."""
    p = object.__new__(Partition)
    object.__setattr__(p, "weights", weights)
    object.__setattr__(p, "width", width)
    return p


@pytest.mark.parametrize(
    "weights, width, fns, message",
    [((3, 2), 3, (min_rules, bit_matcher), "odd active set at level 0"),
     ((8, 8), 3, (min_rules, bit_matcher), "matcher did not converge to 2\\*\\*width"),
     ((12,), 3, (signed_matcher,), "NAF digit at level 4 above width 3")],  # 12 = 16 - 4
    ids=["odd-active-set", "no-convergence", "naf-digit-above-width"],
)
def test_invariant_violations_raise(weights, width, fns, message):
    p = _unchecked_partition(weights, width)
    for fn in fns:
        with pytest.raises(InternalInvariantViolated, match=f"^{message}$"):
            fn(p)


def test_bit_matcher_output_is_clean():
    rng = random.Random(1)
    for _ in range(300):
        k = rng.randrange(1, 9)
        w = rng.randrange(4, 20)
        p = sample_partition(k, w, rng)
        s = bit_matcher(p)
        rep = validate_sequence(p, s)
        assert rep.ok_for_synthesis()


def test_zeroed_bits_accounting():
    # every transaction below level W-1 leaves >= 3 zeros among the two
    # participants' bits at its level and the level above (>= 4 when k == 2)
    rng = random.Random(2)
    for _ in range(200):
        k = rng.choice([2, 3, 5, 8])
        p = sample_partition(k, 12, rng)
        weights = [0] + list(p.weights)
        for src, dst, size in bit_matcher(p):
            if dst == 0:
                break
            weights[src] -= size
            weights[dst] += size
            lvl = size.bit_length() - 1
            if lvl < p.width - 1:
                zeros = sum(
                    1
                    for idx in (src, dst)
                    for sh in (lvl, lvl + 1)
                    if not (weights[idx] >> sh) & 1
                )
                assert zeros >= (4 if k == 2 else 3)


def test_random_matcher():
    rng = random.Random(9)
    assert len(random_matcher(new_partition([32], 5), rng)) == 1
    for _ in range(100):
        p = sample_partition(3, 8, rng)
        s = random_matcher(p, rng)
        assert validate_sequence(p, s).zeroes
        assert len(s) >= min_rules(p)


def test_random_matcher_mean_length_envelope():
    rng = random.Random(10)
    k, w, runs = 3, 32, 400
    lam_sum = rm_sum = 0
    for _ in range(runs):
        p = sample_partition(k, w, rng)
        lam_sum += min_rules(p)
        rm_sum += len(random_matcher(p, rng))
    assert lam_sum <= rm_sum
    assert rm_sum / runs <= (1 / 5 + 0.02) * k * w


def test_signed_matcher():
    p = new_partition([3, 1], 2)
    s = signed_matcher(p)
    assert [(src, size, dst) for src, dst, size in s] == [(2, 1, 1), (1, 4, 0)]
    assert len(signed_matcher(new_partition([64], 6))) == 1
    rng = random.Random(3)
    for _ in range(100):
        q = sample_partition(5, 10, rng)
        rep = validate_sequence(q, signed_matcher(q))
        assert rep.zeroes


def test_signed_matcher_uses_pool_mid_sequence():
    p = new_partition([5, 5, 5, 1], 4)
    rep = validate_sequence(p, signed_matcher(p))
    assert rep.zeroes and not rep.zero_target_terminal_only


def test_signed_matcher_mean_length():
    from tcamsplit.analysis import c_of_k

    rng = random.Random(4)
    k, w, runs = 8, 64, 1000
    total = 0
    for _ in range(runs):
        p = sample_partition(k, w, rng)
        total += len(signed_matcher(p))
    assert total / runs / (k * w) <= 1 / 6 + c_of_k(k) + 0.01


def test_anchor_sequence():
    for ws, w, exp in [([15, 4, 45], 6, 4), ([8], 3, 1), ([5, 5, 5, 1], 4, 6)]:
        p = new_partition(ws, w)
        s = anchor_sequence(p)
        assert len(s) == exp == naf_total(p) + 1 - naf_max(p)
        assert validate_sequence(p, s).zeroes
    # ascending level order
    s = anchor_sequence(new_partition([5, 5, 5, 1], 4))
    sizes = [size for _, _, size in s]
    assert sizes == sorted(sizes)


def test_sandwich_random():
    rng = random.Random(6)
    for _ in range(300):
        p = sample_partition(rng.randrange(2, 10), 16, rng)
        lo, hi = lpm_bounds(p)
        lam = min_rules(p)
        assert lo <= lam <= hi == len(anchor_sequence(p))


def test_brute_force_examples():
    assert brute_force_lambda(new_partition([5, 1, 2], 3)) == 3
    assert brute_force_lambda(new_partition([1, 3, 12], 4)) == 3
    assert brute_force_lambda(new_partition([8], 3)) == 1
    assert brute_force_lambda(new_partition([1, 3, 12], 4), allow_negative=True) == 3


def test_brute_force_guard():
    with pytest.raises(InstanceTooLarge):
        brute_force_lambda(new_partition([512], 9))
    with pytest.raises(InstanceTooLarge):
        brute_force_lambda(new_partition([4, 1, 1, 1, 1, 8], 4))


def test_oracle_agrees_small():
    # exhaustive W <= 3; the full W <= 5 sweep lives in the acceptance suite
    for width in range(4):
        for p in all_partitions(width, 4):
            assert brute_force_lambda(p) == min_rules(p)
            assert brute_force_lambda(p, allow_negative=True) == min_rules(p)


def test_zeroing_distances_stop_at_max_depth():
    # the backward search and brute_force_lambda's forward one agree
    dist = matcher.zeroing_distances(3, 3, max_depth=4)
    assert len(dist) == 515 and max(dist.values()) == 4
    for p in all_partitions(3, 3):
        assert dist[tuple(sorted(p.weights + (0,) * (3 - p.k)))] == brute_force_lambda(p)
    assert matcher.zeroing_distances(3, 3, max_depth=0) == {(0, 0, 0): 0}
    with pytest.raises(InstanceTooLarge):
        matcher.zeroing_distances(3, 6)


@pytest.mark.parametrize("args, name", [
    ((-1, 3), "width"),
    ((3, -2), "slots"),
    ((3, 3, False, -1), "max_depth"),
    ((3, 3, False, 2.5), "max_depth"),
    ((2.0, 3), "width"),
    (("3", 3), "width"),
    ((3, True), "slots"),
    ((3, 3, False, math.inf), "max_depth"),
])
def test_zeroing_distances_refuse_bad_counts(args, name):
    with pytest.raises(BadOracleInput, match=f"^{name} must be a non-negative int, got "):
        matcher.zeroing_distances(*args)


def test_meet_distances_match_zeroing_distances():
    # every radius 0..3 against targets inside the ball, at radius + 1 and
    # beyond: every state within 2 moves of zero, and the deepest states of
    # each space of at most 1000 states
    for width in range(5):
        for slots in range(1, 5):
            for allow_negative in (False, True):
                values = (2 if allow_negative else 1) * (1 << (width + 1)) + 1
                cases = [matcher.zeroing_distances(width, slots, allow_negative, 2)]
                if math.comb(values + slots - 1, slots) <= 1000:
                    whole = matcher.zeroing_distances(width, slots, allow_negative, 99)
                    assert len(whole) == math.comb(values + slots - 1, slots)
                    top = max(whole.values())
                    cases.append({s: d for s, d in whole.items() if d == top})
                for radius in range(4):
                    for targets in cases:
                        got = matcher.meet_distances(targets, width, slots, allow_negative, radius)
                        assert got == targets


def test_meet_distances_prove_lambda():
    # criterion 3's check at W <= 3 (targets given unsorted come back sorted):
    # every lambda matches, and any one lambda lowered by 1 fails it
    parts = [p for width in range(4) for p in all_partitions(width, 4)]
    got = matcher.meet_distances([p.weights + (0,) * (4 - p.k) for p in parts], 3, 4, radius=2)
    targets = {tuple(sorted(p.weights + (0,) * (4 - p.k))): min_rules(p) for p in parts}
    assert got == targets
    for t, lam in targets.items():
        assert got != {**targets, t: lam - 1}


def test_meet_distances_refuse_a_foreign_space():
    # the search builds its own zero ball, so a target must be a state of its space
    for targets, width, allow_negative, msg in [
        ([(0, 0, 4)], 2, False, r"has 3 values, the zero ball 4"),
        ([(0, 0, 0, 9)], 2, False, r"has a value outside \[0, 8\]"),
        ([(0, 0, 0, -1)], 2, False, r"has a value outside \[0, 8\]"),
        ([(0, 0, 0, -9)], 2, True, r"has a value outside \[-8, 8\]"),
    ]:
        with pytest.raises(BadOracleInput, match=msg):
            matcher.meet_distances(targets, width, 4, allow_negative, radius=1)
    with pytest.raises(BadOracleInput, match="^max_depth must be"):
        matcher.meet_distances([(0, 0)], 2, 2, radius=-1)
    with pytest.raises(InstanceTooLarge):
        matcher.meet_distances([(0,) * 6], 2, 6)


# --- the breadth-first oracle against a sorted-tuple search -----------------

def _reference_successors(state, sizes, lo, hi):
    """All states one transaction away (targets include the unallocated pool,
    which is unconstrained)."""
    n = len(state)
    for i in range(n):
        v = state[i]
        for s in sizes:
            dec = v - s
            if dec >= lo:
                rest = state[:i] + state[i + 1:]
                # to the pool
                yield tuple(sorted(rest + (dec,)))
                # to another slot
                for j in range(n - 1):
                    w = rest[j] + s
                    if w <= hi:
                        yield tuple(sorted(rest[:j] + (w,) + rest[j + 1:] + (dec,)))
            inc = v + s
            if inc <= hi:
                # from the pool
                yield tuple(sorted(state[:i] + (inc,) + state[i + 1:]))


def _reference_search(start, width, allow_negative, max_depth=math.inf, goal=None):
    """Sort and hash every successor: the search the keyed one replaced."""
    hi = 1 << (width + 1)
    lo = -hi if allow_negative else 0
    sizes = [1 << lvl for lvl in range(width + 2)]
    dist = {start: 0}
    frontier = [start]
    depth = 0
    while frontier and depth < max_depth and goal not in dist:
        depth += 1
        level, frontier = frontier, []
        for state in level:
            for nxt in _reference_successors(state, sizes, lo, hi):
                if nxt not in dist:
                    dist[nxt] = depth
                    frontier.append(nxt)
            if goal in dist:
                break
    return dist


def _check_distances(width, slots, allow_negative, max_depth):
    ref = _reference_search((0,) * slots, width, allow_negative, max_depth)
    for depth in range(max_depth + 1):
        got = matcher.zeroing_distances(width, slots, allow_negative, depth)
        assert got == {s: d for s, d in ref.items() if d <= depth}
    return ref


def test_zeroing_distances_match_reference_search():
    for width in range(5):
        for slots in range(1, 6):
            for allow_negative in (False, True):
                _check_distances(width, slots, allow_negative, 3)
    # the widest key fields: 2**8 with negatives, five slots
    for allow_negative in (False, True):
        _check_distances(8, 5, allow_negative, 2)
    # the benchmark's two searches: 5061 and 5436 states, by depth
    for args, counts in [((5, 4, False, 4), [1, 7, 68, 568, 4417]),
                         ((4, 4, True, 3), [1, 18, 343, 5074])]:
        ref = _check_distances(*args)
        assert [list(ref.values()).count(d) for d in range(args[3] + 1)] == counts


def test_brute_force_lambda_matches_reference_search():
    parts = [p for width in range(4) for p in all_partitions(width, 4)]
    # start values outside [lo, hi] cannot reach the search: construction refuses them
    for weights, exc, msg in [
        ((9, -1), ZeroWeight, "weight -1 is not positive"),
        ((-1, 1, 8), ZeroWeight, "weight -1 is not positive"),
        ((3, 2), BadSum, "weights sum to 5, expected 2**3 = 8"),
        ((40,), BadSum, "weights sum to 40, expected 2**3 = 8"),
        ((-20, 36), ZeroWeight, "weight -20 is not positive"),
        ((), ZeroWeight, "empty weight list"),
    ]:
        with pytest.raises(exc) as info:
            Partition(weights, 3)
        assert str(info.value) == msg
    for p in parts:
        for allow_negative in (False, True):
            goal = (0,) * p.k
            ref = _reference_search(tuple(sorted(p.weights)), p.width, allow_negative, goal=goal)
            assert brute_force_lambda(p, allow_negative) == ref[goal]


# --- min_rules is a count-only kernel; bit_matcher is its reference ----------

@st.composite
def uniform_partitions(draw):
    width = draw(st.integers(0, MAX_WIDTH))
    k = draw(st.integers(1, min(200, 1 << width)))
    cuts = draw(st.lists(st.integers(1, (1 << width) - 1), min_size=k - 1,
                         max_size=k - 1, unique=True)) if k > 1 else []
    bounds = [0] + sorted(cuts) + [1 << width]
    return new_partition([b - a for a, b in zip(bounds, bounds[1:])], width)


@st.composite
def tied_partitions(draw):
    """Up to three groups of equal weights plus a remainder, shuffled, so
    that bit_matcher's order is often decided by the index alone."""
    width = draw(st.integers(1, MAX_WIDTH))
    left = 1 << width
    weights: list[int] = []
    for _ in range(draw(st.integers(1, 3))):
        w = draw(st.integers(1, left))
        reps = draw(st.integers(1, min(60, left // w)))
        weights += [w] * reps
        left -= w * reps
        if not left:
            break
    if left:
        weights.append(left)
    return new_partition(draw(st.permutations(weights)), width)


@settings(max_examples=200, deadline=None)
@given(uniform_partitions())
def test_min_rules_matches_bit_matcher(p):
    assert min_rules(p) == len(bit_matcher(p))


@settings(max_examples=200, deadline=None)
@given(tied_partitions())
def test_min_rules_matches_bit_matcher_on_ties(p):
    assert min_rules(p) == len(bit_matcher(p))


def test_min_rules_matches_bit_matcher_small_families():
    for width in range(1, MAX_WIDTH + 1):
        families = [gen_k2(width)] + ([gen_k3(width)] if width >= 2 else [])
        for p in families:
            assert min_rules(p) == len(bit_matcher(p))
    # every ordered partition of 2**W into k parts, the support of sample_partition
    for width in range(6):
        total = 1 << width
        for k in range(1, min(4, total) + 1):
            for cuts in combinations(range(1, total), k - 1):
                bounds = (0, *cuts, total)
                p = Partition(tuple(map(sub, bounds[1:], bounds[:-1])), width)
                assert min_rules(p) == len(bit_matcher(p))


@settings(max_examples=100, deadline=None)
@given(
    st.sampled_from([gen_triplets, gen_general_hard]),
    st.integers(4, 200),
    st.integers(2, MAX_WIDTH),
)
def test_min_rules_matches_bit_matcher_hard_families(gen, k, width):
    try:
        p = gen(k, width)
    except TcamSplitError:
        reject()
    assert min_rules(p) == len(bit_matcher(p))


@pytest.mark.parametrize(
    "p",
    [
        ((9, -1), ZeroWeight, "weight -1 is not positive"),  # negative weight
        ((3, 2), BadSum, "weights sum to 5, expected 2**3 = 8"),  # odd sum
        ((16,), BadSum, "weights sum to 16, expected 2**3 = 8"),  # weight above 2**width
        ((-1, 1, 8), ZeroWeight, "weight -1 is not positive"),  # negatives, right sum
        ((5, 3, 1, -1), ZeroWeight, "weight -1 is not positive"),
        ((), ZeroWeight, "empty weight list"),
        ((4.0, 4.0), ZeroWeight, "weight 4.0 is not an int"),  # int-valued floats
        ((True, 7), ZeroWeight, "weight True is not an int"),  # a bool is not a weight
    ],
)
def test_min_rules_rejects_hand_built_partitions(p):
    # bit_matcher, random_matcher and min_rules never see an invalid Partition:
    # construction refuses it, with new_partition's message where it had one
    weights, exc, msg = p
    with pytest.raises(exc) as info:
        Partition(weights, 3)
    assert str(info.value) == msg


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.integers(-(1 << 130), 1 << 130), min_size=1, max_size=50),
    st.integers(-(1 << 130), -1),
    st.integers(0, MAX_WIDTH),
)
def test_min_rules_rejects_negative_weights(weights, negative, width):
    # a negative int has infinitely many set bits: refused at construction, no hang
    weights = tuple(weights) + (negative,)
    with pytest.raises(ZeroWeight) as info:
        Partition(weights, width)
    assert str(info.value) == f"weight {next(w for w in weights if w <= 0)} is not positive"


# --- the kernel's bit transposition and tie rule against the loops they replaced

def _reference_bit_planes(weights, count):
    """The strided transposition: one int() parse per plane, of every
    count-th digit of the weights' concatenated fixed-width rows."""
    fmt = f"0{count}b"
    rows = "".join(format(w, fmt) for w in reversed(weights))
    return [int(rows[j::count], 2) for j in range(count - 1, -1, -1)]


def test_bit_planes_match_strided_reference():
    # k <= 8 takes the byte lanes, k >= 9 the strided slices
    rng = random.Random(26)
    for width in (0, 1, 63, 64, 100, 128):
        count = width + 1
        for k in range(1, 13):
            cases = [[1 << width] * k, [(1 << count) - 1] * k, [1] * k, [0] * k,
                     [rng.randrange(1 << count) for _ in range(k)]]
            for weights in map(tuple, cases):
                got = matcher._bit_planes(weights, count)
                assert got == _reference_bit_planes(weights, count)
                assert got == [sum((w >> d & 1) << i for i, w in enumerate(weights))
                               for d in range(count)]


def _reference_lowest_bits(mask, n):
    """The tie rule as a loop: clear the lowest set bit n times."""
    rest = mask
    for _ in range(n):
        rest &= rest - 1
    return mask ^ rest


def test_lowest_bits_matches_loop_on_random_masks():
    rng = random.Random(26)
    for _ in range(20_000):
        mask = rng.getrandbits(rng.randrange(1, 300)) & rng.getrandbits(300)
        n = rng.randrange(mask.bit_count() + 1)
        assert matcher._lowest_bits(mask, n) == _reference_lowest_bits(mask, n)


def test_tie_rule_matches_loop_on_tie_heavy_partitions(monkeypatch):
    calls = []

    def checked(mask, n):
        got = lowest_bits(mask, n)
        assert got == _reference_lowest_bits(mask, n)
        calls.append(n)
        return got

    lowest_bits = matcher._lowest_bits
    monkeypatch.setattr(matcher, "_lowest_bits", checked)
    for p in tie_heavy_partitions():
        assert min_rules(p) == len(bit_matcher(p))
    assert len(calls) > 50 and max(calls) >= 2048


# --- bit_matcher relies on a stable sort for ties; an explicit index key is its reference

def _reference_level_loop(p, pair):
    """The level loop with each active set found by a scan of all k weights,
    and a Transaction built per move.  It also checks what matcher's bit-plane
    loop rests on: an active index still has its original bits above d."""
    weights = list(p.weights)
    txs = []
    for d in range(p.width):
        act = [i for i in range(p.k) if (weights[i] >> d) & 1]
        assert len(act) % 2 == 0
        assert all(weights[i] >> (d + 1) == p.weights[i] >> (d + 1) for i in act)
        for i, j in pair(act, weights, d):
            txs.append(Transaction(i + 1, j + 1, 1 << d))
            weights[i] -= 1 << d
            weights[j] += 1 << d
    (survivor,) = [i for i in range(p.k) if weights[i]]
    assert weights[survivor] == 1 << p.width
    txs.append(Transaction(survivor + 1, 0, 1 << p.width))
    return tuple(txs)


def _reference_bit_matcher(p):
    """bit_matcher with the tie made explicit: every active index keyed by
    (reversed fixed-width binary of its weight, index) at every level."""

    def halves(act, weights, d):
        act.sort(key=lambda i: (format(weights[i], f"0{p.width}b")[::-1], i))
        half = len(act) // 2
        return zip(act[:half], act[half:])

    return _reference_level_loop(p, halves)


def _reference_random_matcher(p, rng):
    """random_matcher's shuffle and direction rule on the k-scan loop, so
    the same seed must draw the same sequence."""

    def shuffled(act, weights, d):
        rng.shuffle(act)
        for i, j in zip(act[::2], act[1::2]):
            bi, bj = (weights[i] >> (d + 1)) & 1, (weights[j] >> (d + 1)) & 1
            yield (j, i) if bi > bj or (bi == bj and rng.getrandbits(1)) else (i, j)

    return _reference_level_loop(p, shuffled)


def _bit_matcher_partitions():
    rng = random.Random(41)
    for k in (1, 2, 3, 5, 8, 16, 37, 100):
        for width in (max(0, (k - 1).bit_length()), 7, 12, 32, 64, 100, 128):
            yield from (sample_partition(k, width, rng) for _ in range(3))
    for width in (1, 2, 3, 8, 33, 100, 128):
        yield gen_k2(width)
        if width >= 2:
            yield gen_k3(width)
    for gen in (gen_triplets, gen_general_hard):
        for k in (2, 3, 4, 5, 6, 7, 16, 37, 100):
            for width in (9, 12, 40, 100, 128):
                try:
                    yield gen(k, width)
                except TcamSplitError:
                    pass


def test_bit_matcher_matches_reference_sort():
    parts = list(_bit_matcher_partitions())
    assert len(parts) > 200
    for p in parts:
        got, want = bit_matcher(p), _reference_bit_matcher(p)
        assert got == want
        assert got == tuple((t.src, t.dst, t.size) for t in want)


@settings(max_examples=200, deadline=None)
@given(uniform_partitions() | tied_partitions())
def test_bit_matcher_matches_reference_sort_random(p):
    assert bit_matcher(p) == _reference_bit_matcher(p)


@pytest.mark.parametrize(
    "weights, width, moves",
    [
        # level 0: weight 1 has no bits above it and 5 has a 0 next, so the 1
        # donates; level 1: 2 has none above it and 5 a 1; level 3 is a tie
        ((1, 5, 2, 8), 4, [(1, 2, 1), (3, 2, 2), (2, 4, 8), (4, 0, 16)]),
        # equal keys: the lower index donates within each key at levels 0, 2 and 3
        ((3, 3, 1, 1, 8), 4, [(3, 1, 1), (4, 2, 1), (1, 2, 4), (2, 5, 8), (5, 0, 16)]),
        ((1,), 0, [(1, 0, 1)]),
        ((1 << 128,), 128, [(1, 0, 1 << 128)]),
    ],
)
def test_bit_matcher_matches_reference_sort_cases(weights, width, moves):
    p = new_partition(weights, width)
    assert bit_matcher(p) == _reference_bit_matcher(p) == tuple(moves)
    assert list(bit_matcher(p)) == moves


def test_random_matcher_matches_reference_with_seed():
    # the active sets come in ascending index order, so the RNG calls are unchanged
    for n, p in enumerate(_bit_matcher_partitions()):
        got = random_matcher(p, random.Random(n))
        assert got == _reference_random_matcher(p, random.Random(n))


@settings(max_examples=200, deadline=None)
@given(uniform_partitions() | tied_partitions(), st.integers(0, 2**32))
def test_random_matcher_matches_reference_with_seed_random(p, seed):
    got = random_matcher(p, random.Random(seed))
    assert got == _reference_random_matcher(p, random.Random(seed))


# --- the pairs path lists a level's indices by popping the mask's lowest bit,
# --- or on a dense level by one scan of its digits; the k-scan loop is the reference

def test_listing_matches_k_scan_on_tie_heavy_partitions():
    for n, p in enumerate(tie_heavy_partitions()):
        assert bit_matcher(p) == _reference_bit_matcher(p)
        assert random_matcher(p, random.Random(n)) == _reference_random_matcher(p, random.Random(n))


@pytest.mark.parametrize("k, scans", [(17, []), (19, [18])], ids=["16-popped", "18-scanned"])
def test_listing_switches_to_the_scan_above_16_active_indices(monkeypatch, k, scans):
    # level 0 lists the k - 1 unit parts: 16 of them are popped, 18 are
    # scanned, over their 18 digits; every later level has at most 10
    seen = []

    def scan(data, selectors):
        seen.append(len(data))
        return compress(data, selectors)

    monkeypatch.setattr(matcher, "compress", scan)
    p = new_partition([1] * (k - 1) + [2**8 - (k - 1)], 8)
    assert bit_matcher(p) == _reference_bit_matcher(p)
    assert random_matcher(p, random.Random(k)) == _reference_random_matcher(p, random.Random(k))
    assert seen == scans * 2


# --- signed_matcher and anchor_sequence read one digit list; the per-level
# --- walks they replaced are their reference

def _reference_signed_matcher(p):
    """signed_matcher on live weights: every part's NAF is taken again at
    every level, and a last loop sends each full block to target 0."""
    width = p.width
    weights = list(p.weights)
    txs = []
    for d in range(width):
        plus_ix, minus_ix = [], []
        for i in range(p.k):
            plus, minus = naf_decompose(weights[i])
            if (plus >> d) & 1:
                plus_ix.append(i)
            elif (minus >> d) & 1:
                minus_ix.append(i)
        size = 1 << d
        for i, j in zip(plus_ix, minus_ix):
            txs.append(Transaction(i + 1, j + 1, size))
            weights[i] -= size
            weights[j] += size
        for i in plus_ix[len(minus_ix):]:
            txs.append(Transaction(i + 1, 0, size))
            weights[i] -= size
        for j in minus_ix[len(plus_ix):]:
            txs.append(Transaction(0, j + 1, size))
            weights[j] += size
    for i in range(p.k):
        if weights[i]:
            assert weights[i] == 1 << width
            txs.append(Transaction(i + 1, 0, 1 << width))
    return tuple(txs)


def _reference_anchor_sequence(p):
    """anchor_sequence with each non-anchor candidate's digits listed in
    its own loop, x_0's single digit included, then sorted by (level, index)."""
    counts = [1] + [naf_count(w) for w in p.weights]
    anchor = max(range(p.k + 1), key=lambda i: (counts[i], -i))
    entries = []
    for i in range(p.k + 1):
        if i == anchor:
            continue
        if i == 0:
            entries.append((p.width, 0, -1))
            continue
        plus, minus = naf_decompose(p.weights[i - 1])
        for mask, sign in ((plus, 1), (minus, -1)):
            while mask:
                low = mask & -mask
                entries.append((low.bit_length() - 1, i, sign))
                mask ^= low
    entries.sort(key=lambda e: (e[0], e[1]))
    return tuple(
        Transaction(i, anchor, 1 << lvl) if sign > 0 else Transaction(anchor, i, 1 << lvl)
        for lvl, i, sign in entries
    )


def _signed_digit_partitions():
    yield gen_k2(100)
    yield gen_k3(100)
    for gen in (gen_triplets, gen_general_hard):
        for k in (4, 5, 16, 37, 100):
            yield gen(k, 100)
    yield new_partition([1] * 8, 3)  # every candidate has one digit: x_0 anchors
    yield new_partition([4, 2, 1, 1], 3)  # x_0 anchors and its digit is dropped
    yield new_partition([1], 0)  # k=1, W=0: one digit, at level W
    yield new_partition([7, 1], 3)  # 7 = 8 - 1: a -1 digit and a digit at level W


def test_signed_sequences_match_reference_grid():
    for p in _signed_digit_partitions():
        assert signed_matcher(p) == _reference_signed_matcher(p)
        assert anchor_sequence(p) == _reference_anchor_sequence(p)
    assert signed_matcher(new_partition([7, 1], 3)) == ((2, 1, 1), (1, 0, 8))
    assert anchor_sequence(new_partition([4, 2, 1, 1], 3)) == (
        (3, 0, 1), (4, 0, 1), (2, 0, 2), (1, 0, 4),
    )


@settings(max_examples=200, deadline=None)
@given(uniform_partitions() | tied_partitions())
def test_signed_sequences_match_reference_random(p):
    assert signed_matcher(p) == _reference_signed_matcher(p)
    assert anchor_sequence(p) == _reference_anchor_sequence(p)
