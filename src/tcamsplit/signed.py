"""Canonical signed-digit (non-adjacent form) arithmetic and the size bounds
derived from it."""
from __future__ import annotations

from .core import Partition
from .errors import KTooSmall


def naf_decompose(n: int) -> tuple[int, int]:
    """Split n into (plus, minus) bitmasks of its +1 / -1 NAF digit levels.

    n == plus - minus and the two masks are disjoint.  Closed form: the
    non-zero digits of NAF(n) sit where n and 3n differ.
    """
    h = 3 * n
    return (h & ~n) >> 1, (n & ~h) >> 1


def naf_count(n: int) -> int:
    """Number of non-zero NAF digits of |n|: where |n| and 3|n| differ."""
    return (3 * abs(n) ^ abs(n)).bit_count()


def naf_total(p: Partition) -> int:
    return sum(naf_count(w) for w in p.weights)


def naf_max(p: Partition) -> int:
    return max(naf_count(w) for w in p.weights)


def lpm_bounds(p: Partition) -> tuple[int, int]:
    """(lower, upper) bounds on the minimum prefix rule count for p."""
    counts = [naf_count(w) for w in p.weights]
    total = sum(counts)
    return (total + 2) // 2, total + 1 - max(counts)


def general_lower_bound(p: Partition) -> int:
    """Lower bound on the minimum general ternary rule count for p.

    Sort parts by descending non-zero digit count c_i; the bound is
    max_i ceil(lg(c_i + 1) + i - 1), computed exactly in integers using
    ceil(lg v) == (v - 1).bit_length().
    """
    counts = sorted((naf_count(w) for w in p.weights), reverse=True)
    return max((c).bit_length() + i for i, c in enumerate(counts))


def worstcase_cap(k: int, width: int) -> int:
    """Upper bound on the rule count of ANY partition of 2**width into k parts."""
    if k < 2:
        raise KTooSmall("cap defined for k >= 2 (k = 1 is trivially 1)")
    if k == 2:
        return width // 2 + 2
    return k * (width - (k.bit_length() - 1) + 4) // 3

