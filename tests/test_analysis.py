import math
import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tcamsplit.analysis import (
    c_of_k,
    c_prime_of_k,
    normalize_counts,
    p_levels,
    play_game,
    read_counts,
    run_experiment,
    rw,
    trial_rng,
)
from tcamsplit.errors import (
    AllZero,
    BadCount,
    BadProbability,
    InstanceTooLarge,
    WidthOverflow,
    WidthTooSmall,
    ZeroWeight,
)


def test_rw_small_cases():
    assert rw(0.3, 0) == 0
    assert rw(Fraction(1, 6), 1) == Fraction(1, 3)
    assert rw(0.25, 1) == 0.5
    assert rw(Fraction(1, 2), 2) == 1


def test_rw_rejects():
    with pytest.raises(BadProbability):
        rw(0.7, 3)
    with pytest.raises(BadProbability):
        rw(-0.1, 3)


def test_rw_exact_cap():
    # the exact DP grew worse than n**2 with no limit: n = 400 took seconds
    for p, n in [(Fraction(1, 6), 201), (Fraction(1, 2**40), 25), (0, 10**9)]:
        with pytest.raises(InstanceTooLarge):
            rw(p, n)
    assert 0 < rw(Fraction(1, 2**40), 24) <= Fraction(24, 2**39)  # at most 2pn steps
    # float arithmetic has no cap, so c_of_k is unchanged
    assert rw(1 / 6, 300) == pytest.approx(math.sqrt(2 * 300 / (3 * math.pi)), rel=0.01)
    assert c_of_k(301) > 0


def test_rw_monotone():
    vals = [rw(0.2, n) for n in range(12)]
    assert vals == sorted(vals)
    for n in (3, 7):
        assert rw(0.1, n) <= rw(0.3, n) <= rw(0.5, n)


def test_rw_matches_direct_enumeration():
    # trinomial sum straight from the definition
    p = Fraction(1, 6)
    for n in range(7):
        total = Fraction(0)
        for left in range(n + 1):
            for right in range(n + 1 - left):
                stay = n - left - right
                ways = math.factorial(n) // (
                    math.factorial(left) * math.factorial(right) * math.factorial(stay)
                )
                total += ways * p**left * p**right * (1 - 2 * p) ** stay * abs(left - right)
        assert rw(p, n) == total


def _reference_rw(p, n):
    """The displacement-distribution DP in p's own arithmetic."""
    dist = [p * 0] * (2 * n + 1)
    dist[n] = p * 0 + 1
    for _ in range(n):
        nxt = [p * 0] * (2 * n + 1)
        for i, q in enumerate(dist):
            nxt[i] += (1 - 2 * p) * q
            if i > 0:
                nxt[i - 1] += p * q
            if i < 2 * n:
                nxt[i + 1] += p * q
        dist = nxt
    return sum(abs(i - n) * q for i, q in enumerate(dist))


def test_rw_matches_reference_dp():
    for p in (Fraction(1, 6), Fraction(1, 2), Fraction(0), Fraction(13, 31), Fraction(123457, 1000003)):
        for n in (0, 1, 2, 5, 17, 40):
            got = rw(p, n)
            assert type(got) is Fraction and got == _reference_rw(p, n)
    # the float path (c_of_k) keeps its exact bits
    rng = random.Random(16)
    for p in (1 / 6, 0.25, 0.5, 0.1, 0.0, *(rng.uniform(0, 0.5) for _ in range(20))):
        for n in (0, 1, 9, 60):
            got = rw(p, n)
            assert type(got) is float and got == _reference_rw(p, n)


def test_c_of_k():
    assert c_of_k(1) == 0.5
    for k in range(2, 60):
        assert c_prime_of_k(k) < c_of_k(k)


def test_p_levels():
    assert p_levels(5) == [
        Fraction(1, 4),
        Fraction(1, 8),
        Fraction(3, 16),
        Fraction(5, 32),
        Fraction(11, 64),
    ]
    ps = p_levels(25)
    assert abs(ps[20] - Fraction(1, 6)) < Fraction(1, 1 << 20)
    signs = [(x - Fraction(1, 6)) > 0 for x in ps]
    assert all(a != b for a, b in zip(signs, signs[1:]))


def test_empirical_digit_frequencies():
    # frequency of a non-zero signed digit at level l is 2 * p_l
    rng = random.Random(123)
    low = Counter()  # the nine lowest digits of each sample, as a mask
    for _ in range(1_000_000):
        n = rng.getrandbits(30)
        h = 3 * n
        low[(((h & ~n) >> 1) | ((n & ~h) >> 1)) & 511] += 1
    ps = p_levels(9)
    for lvl in range(9):
        freq = sum(c for mask, c in low.items() if (mask >> lvl) & 1) / 1_000_000
        assert abs(freq - 2 * float(ps[lvl])) < 0.003


def test_sign_symmetry_exhaustive():
    # over [0, 2^12): +1 and -1 digits are equally frequent per level below
    # the top, and the digit just below the top is never -1
    d = 12
    plus_counts = [0] * (d + 1)
    minus_counts = [0] * (d + 1)
    for n in range(1 << d):
        h = 3 * n
        plus, minus = (h & ~n) >> 1, (n & ~h) >> 1
        for lvl in range(d + 1):
            plus_counts[lvl] += (plus >> lvl) & 1
            minus_counts[lvl] += (minus >> lvl) & 1
    for lvl in range(d - 1):
        assert plus_counts[lvl] == minus_counts[lvl]
    assert minus_counts[d - 1] == 0


def test_play_game_terminates_and_counts():
    rng = random.Random(0)
    tr = play_game("opt", 64, rng)
    assert tr.turns == len(tr.gains)
    assert sum(tr.gains) >= 64 - tr.first_level
    with pytest.raises(ValueError):
        play_game("bogus", 8, rng)


def test_play_game_caps_m():
    rng = random.Random(0)
    state = rng.getstate()
    for m in (2**17 + 1, 10**12):
        with pytest.raises(InstanceTooLarge):
            play_game("opt", m, rng)
    assert rng.getstate() == state  # refused before any draw
    tr = play_game("rnd", 2**12, rng)
    assert tr.m == 2**12 and tr.turns == len(tr.gains) > 0


def test_game_mean_gains():
    rng = random.Random(99)
    for strategy, expected in (("opt", 3.0), ("rnd", 2.0), ("mix", 2.5)):
        gains = []
        while len(gains) < 30_000:
            gains.extend(play_game(strategy, 512, rng).gains)
        assert abs(sum(gains) / len(gains) - expected) < 0.1


def test_game_renewal_ratio():
    rng = random.Random(5)
    ratios = [play_game("opt", 4000, rng).turns / 4000 for _ in range(12)]
    assert abs(sum(ratios) / len(ratios) - 1 / 3) < 0.01


def test_run_experiment_deterministic():
    a = run_experiment(4, 24, 50, 2024)
    b = run_experiment(4, 24, 50, 2024)
    assert a == b
    c = run_experiment(4, 24, 50, 2025)
    assert c != a


def test_run_experiment_refuses_width_0():
    # rules per bit at width 0 used to divide by k * width == 0
    with pytest.raises(WidthTooSmall):
        run_experiment(1, 0, 1, 7)


def test_run_experiment_k2_w60():
    stats = run_experiment(2, 60, 10_000, 31)
    assert 1 / 6 - 0.01 <= stats.mean_lambda_over_kw <= 1 / 6 + 0.02
    assert 0 < stats.mean_lb_ratio <= 1 <= stats.mean_ub_ratio <= 2


def test_trial_rng_stable():
    assert trial_rng(7, 3).random() == trial_rng(7, 3).random()
    assert trial_rng(7, 3).random() != trial_rng(7, 4).random()


def test_normalize_counts():
    assert normalize_counts([3, 5], 3).weights == (3, 5)
    p = normalize_counts([1, 1, 1], 8)
    assert p.width == 8 and p.weights == (86, 85, 85)
    assert normalize_counts([10, 6], 4).weights == (10, 6)
    # tiny parts keep the positivity floor
    q = normalize_counts([1000.0, 0.001], 4)
    assert q.k == 2 and q.weights[1] >= 1 and sum(q.weights) == 1 << q.width
    with pytest.raises(AllZero):
        normalize_counts([0, 0], 8)
    # a zero count is refused: dropping it renumbered the targets after it
    with pytest.raises(ZeroWeight, match="^count 1 is zero"):
        normalize_counts([0, 3, 5], 3)
    with pytest.raises(ZeroWeight, match="^line 3: zero count"):
        read_counts("3\n# comment\n0\n5\n")


def _reference_normalize(counts, multiple):
    """The float algorithm in exact Fractions."""
    vals = [Fraction(c) for c in counts]
    raw = sum(vals)
    width = 0
    while 1 << width < max(len(vals), math.ceil(raw)):
        width += multiple
    ideal = [v * (1 << width) / raw for v in vals]
    base = [math.floor(x) for x in ideal]
    order = sorted(range(len(vals)), key=lambda i: (base[i] - ideal[i], i))
    for i in order[:(1 << width) - sum(base)]:
        base[i] += 1
    donors = sorted(range(len(vals)), key=lambda i: ideal[i] - base[i])
    for i in range(len(vals)):
        if base[i] == 0:
            j = next((j for j in donors if base[j] > 1), None)
            if j is not None:
                base[j] -= 1
                base[i] = 1
    return width, tuple(base)


@settings(max_examples=300, deadline=None)
@given(
    st.lists(
        st.floats(min_value=2.0**-40, max_value=2.0**70) | st.integers(1, 2**80),
        min_size=1,
        max_size=12,
    ),
    st.integers(1, 128),
)
def test_normalize_counts_matches_fraction_reference(counts, multiple):
    width, weights = _reference_normalize(counts, multiple)
    if width > 128:
        with pytest.raises(WidthOverflow):
            normalize_counts(counts, multiple)
    else:
        p = normalize_counts(counts, multiple)
        assert (p.width, p.weights) == (width, weights)


def test_normalize_counts_exact_at_wide_widths():
    # scaling in floats lost the L1-minimal rounding from width 53: distance
    # 4/3, not 8/7 (the CLI test covers [1, 2], refused from width 55)
    p = normalize_counts([3, 7, 11], 53)
    assert p.weights == (1286742750677284, 3002399751580331, 4718056752483377)
    assert sum(abs(w - Fraction(c << 53, 21)) for w, c in zip(p.weights, (3, 7, 11))) == Fraction(8, 7)


def test_normalize_counts_rejects_wide_widths():
    # the width is checked before 2**width is used as a float scale
    for multiple in (129, 2000, 10**20):
        with pytest.raises(WidthOverflow):
            normalize_counts([1, 2], multiple)
    assert normalize_counts([1, 2], 40).width == 40


def test_normalize_counts_rejects():
    with pytest.raises(WidthTooSmall):
        normalize_counts([1, 1, 1], 0)  # width += 0 would never end
    for bad in (math.inf, -math.inf, math.nan):
        with pytest.raises(BadCount):
            normalize_counts([3, bad], 8)
    with pytest.raises(BadCount):
        normalize_counts([1e308, 1e308], 8)


def test_read_counts():
    assert read_counts("3\n# comment\n\n5.5\n") == [3.0, 5.5]


def test_stats_csv_shape():
    stats = run_experiment(3, 16, 20, 1)
    row = stats.csv_row().split(",")
    assert row[:3] == ["3", "16", "20"]
    assert len(row) == 7
