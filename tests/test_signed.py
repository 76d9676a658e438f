import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tcamsplit import signed
from tcamsplit.core import new_partition
from tcamsplit.errors import KTooSmall
from tcamsplit.signed import (
    general_lower_bound,
    lpm_bounds,
    naf_count,
    naf_decompose,
    naf_max,
    naf_total,
    to_naf,
    worstcase_cap,
)


def test_to_naf_examples():
    assert to_naf(11).digits == (-1, 0, -1, 0, 1)
    assert to_naf(0).digits == ()
    assert to_naf(683).digits == (-1, 0, -1, 0, -1, 0, -1, 0, -1, 0, 1)
    assert naf_count(683) == 6


def test_to_naf_rejects_negative():
    with pytest.raises(ValueError):
        to_naf(-3)


def test_naf_recurrences():
    for n in range(1, 400):
        assert to_naf(2 * n).digits == (0,) + to_naf(n).digits
        assert to_naf(4 * n + 1).digits == (1, 0) + to_naf(n).digits
        assert to_naf(4 * n - 1).digits == (-1, 0) + to_naf(n).digits


def test_canonicity_and_reconstruction_small():
    for n in range(4096):
        d = to_naf(n)
        assert d.value() == n
        for a, b in zip(d.digits, d.digits[1:]):
            assert not (a and b), f"adjacent non-zeros for {n}"
        if d.digits:
            assert d.digits[-1] != 0


def test_decompose_examples():
    assert naf_decompose(11) == (16, 5)
    assert naf_decompose(0) == (0, 0)
    assert naf_decompose(341) == (341, 0)


def test_decompose_agrees_with_automaton():
    rng = random.Random(5)
    for _ in range(2000):
        n = rng.getrandbits(rng.randrange(1, 100))
        plus, minus = naf_decompose(n)
        assert plus - minus == n
        assert plus & minus == 0
        d = to_naf(n)
        assert plus == sum(1 << i for i, x in enumerate(d.digits) if x == 1)
        assert minus == sum(1 << i for i, x in enumerate(d.digits) if x == -1)
        assert naf_count(n) == d.nonzero()


@given(st.integers(0, (1 << 128) - 1))
@settings(max_examples=300, deadline=None)
def test_decompose_properties(n):
    plus, minus = naf_decompose(n)
    nz = plus | minus
    assert plus - minus == n
    assert plus & minus == 0
    assert nz & (nz >> 1) == 0  # non-adjacent


def test_counts_on_partitions():
    p = new_partition([5, 5, 5, 1], 4)
    assert naf_total(p) == 7 and naf_max(p) == 2
    assert naf_count(1 << 60) == 1
    q = new_partition([1, 3, 12], 4)
    assert naf_total(q) == 5 and naf_max(q) == 2


def test_lpm_bounds_examples():
    assert lpm_bounds(new_partition([5, 5, 5, 1], 4)) == (4, 6)
    assert lpm_bounds(new_partition([1, 3, 12], 4)) == (3, 4)
    assert lpm_bounds(new_partition([15, 4, 45], 6)) == (4, 4)


def test_general_lower_bound_examples():
    assert general_lower_bound(new_partition([683, 341], 10)) == 4
    assert general_lower_bound(new_partition([21, 11], 5)) == 3
    assert general_lower_bound(new_partition([1 << 7], 7)) == 1


def test_worstcase_cap():
    assert worstcase_cap(2, 10) == 7
    assert worstcase_cap(3, 4) == 7
    # formula value; see notes on the floor of lg k
    assert worstcase_cap(12, 7) == 12 * (7 - 3 + 4) // 3
    with pytest.raises(KTooSmall):
        worstcase_cap(1, 10)


def test_perturbation_bound_small():
    # adding a power of two changes the non-zero digit count by at most 1
    for n in range(512):
        for h in range(10):
            assert abs(naf_count(n + (1 << h)) - naf_count(n)) <= 1


def test_sparsity_small():
    # NAF is the sparsest signed decomposition
    for n in range(-64, 65):
        best = min(
            (x.bit_count() + (x - n).bit_count())
            for x in range(max(0, n), 129)
            if 0 <= x - n <= 128
        )
        assert naf_count(n) <= best


def test_bounds_report_fields():
    rep = signed.bounds_report(new_partition([5, 1, 2], 3))
    assert rep.trivial_lower == 3
    assert rep.phi_total == naf_total(new_partition([5, 1, 2], 3))
    assert rep.lpm_lower <= rep.lpm_upper
    single = signed.bounds_report(new_partition([8], 3))
    assert single.worstcase_cap is None and single.general_lower == 1
