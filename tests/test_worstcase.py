import time

import pytest

from tcamsplit.core import MAX_TARGET, MAX_WIDTH, new_partition
from tcamsplit.errors import KTooLarge, KTooSmall, WidthOverflow, WidthTooSmall
from tcamsplit.matcher import min_rules
from tcamsplit.signed import general_lower_bound, naf_count, worstcase_cap
from tcamsplit.worstcase import gen_general_hard, gen_k2, gen_k3, gen_triplets


def test_gen_k2():
    assert gen_k2(10).weights == (341, 683)
    assert gen_k2(1).weights == (1, 1)
    assert gen_k2(2).weights == (1, 3)
    for w in (1, 2, 5, 10, 17):
        assert min_rules(gen_k2(w)) == (w + 1) // 2 + 1


def test_gen_k3():
    assert gen_k3(4).weights == (5, 5, 6)
    assert gen_k3(2).weights == (1, 1, 2)
    assert gen_k3(6).weights == (21, 21, 22)
    for w in (2, 3, 7, 12):
        assert min_rules(gen_k3(w)) == w + 1
    with pytest.raises(WidthTooSmall):
        gen_k3(1)


def test_k3_near_cap():
    for w in (4, 8, 16):
        assert worstcase_cap(3, w) - min_rules(gen_k3(w)) <= 2


def test_gen_triplets():
    p = gen_triplets(12, 7)
    assert p.weights == (5, 5, 6, 5, 5, 6, 5, 5, 6, 1, 39, 40)
    assert min_rules(p) == 18 > 12
    q = gen_triplets(4, 8)
    assert q.weights == (42, 43, 43, 128)
    assert min_rules(q) > 7
    with pytest.raises(KTooSmall):
        gen_triplets(3, 8)
    with pytest.raises(WidthTooSmall):
        gen_triplets(30, 4)


def test_gen_triplets_grid_from_minimum_width():
    # the width check alone keeps every tail part positive: sub_width >= 2
    # makes the left-over even, and 2**ceil_lg(m) >= m makes it >= 2**sub_width
    for k in [*range(4, 200), 383, 384, 385, 1000, 3001]:
        m = (k - 1) // 3
        least = 3 + (m - 1).bit_length()
        with pytest.raises(WidthTooSmall):
            gen_triplets(k, least - 1)
        for width in (least, least + 1, least + 2, 64, MAX_WIDTH):
            p = gen_triplets(k, width)
            assert p.k == k and sum(p.weights) == 1 << width and min(p.weights) >= 1


def test_gen_triplets_bound_sample():
    for k in (4, 7, 13, 22, 30):
        for w in (8, 12):
            p = gen_triplets(k, w)
            assert sum(p.weights) == 1 << w
            floor_m = (k - 1) // 3
            assert min_rules(p) > floor_m * (w - (k - 1).bit_length() + 1)


def test_gen_general_hard():
    p = gen_general_hard(5, 7)
    assert p.weights == (11, 21, 27, 27, 42)
    assert general_lower_bound(p) >= 6
    assert all(naf_count(w) == 3 for w in p.weights)
    q = gen_general_hard(2, 6)
    assert q.weights == (22, 42)
    assert all(naf_count(w) == 3 for w in q.weights)
    with pytest.raises(WidthTooSmall):
        gen_general_hard(5, 4)
    with pytest.raises(KTooSmall):
        gen_general_hard(1, 6)


def test_gen_general_hard_equal_digit_counts():
    for k in (2, 3, 4, 5, 8, 11, 16):
        for w in range(k.bit_length() + 3, 20, 3):
            p = gen_general_hard(k, w)
            assert sum(p.weights) == 1 << w
            h = w - (k - 1).bit_length()
            counts = {naf_count(x) for x in p.weights}
            assert counts == {h // 2 + 1}


def test_permutation_invariance():
    p = gen_triplets(7, 9)
    shuffled = new_partition(tuple(reversed(p.weights)), 9)
    assert min_rules(shuffled) == min_rules(p)


@pytest.mark.parametrize("gen", [gen_triplets, gen_general_hard])
def test_generators_refuse_k_above_max_target(gen):
    # both build k-element lists; k = 10**8 at width 128 exhausted memory
    with pytest.raises(KTooLarge, match=rf"^k={MAX_TARGET + 1} above {MAX_TARGET}$"):
        gen(MAX_TARGET + 1, 128)


@pytest.mark.parametrize("gen", [
    gen_k2,
    gen_k3,
    lambda width: gen_triplets(12, width),
    lambda width: gen_general_hard(2, width),
], ids=["k2", "k3", "triplets", "general"])
def test_generators_refuse_width_above_max_width_at_once(gen):
    # the check comes before any value is built: gen_general_hard's delta sum
    # is quadratic in the width, and 1 << width at width 3 * 10**9 is 375 MB
    start = time.perf_counter()
    with pytest.raises(WidthOverflow, match=rf"^width {10**6} above {MAX_WIDTH}$"):
        gen(10**6)
    assert time.perf_counter() - start < 0.1
