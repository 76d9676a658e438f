"""Canonical signed-digit (non-adjacent form) arithmetic and the size bounds
derived from it."""
from __future__ import annotations

from dataclasses import dataclass

from .core import Partition
from .errors import KTooSmall


@dataclass(frozen=True)
class SignedDigits:
    """NAF digits, index = level (level 0 least significant), values in {-1,0,1}."""

    digits: tuple[int, ...]

    def value(self) -> int:
        return sum(d << i for i, d in enumerate(self.digits))

    def nonzero(self) -> int:
        return sum(1 for d in self.digits if d)


def to_naf(n: int) -> SignedDigits:
    """Canonical non-adjacent form of n >= 0, built LSB to MSB."""
    if n < 0:
        raise ValueError("negative values have no representation here")
    digits = []
    while n:
        if n & 1:
            d = 2 - (n & 3)  # +1 if n % 4 == 1, -1 if n % 4 == 3
            digits.append(d)
            n -= d
        else:
            digits.append(0)
        n >>= 1
    return SignedDigits(tuple(digits))


def naf_decompose(n: int) -> tuple[int, int]:
    """Split n into (plus, minus) bitmasks of its +1 / -1 NAF digit levels.

    n == plus - minus and the two masks are disjoint.  Closed form: the
    non-zero digits of NAF(n) sit where n and 3n differ.
    """
    h = 3 * n
    return (h & ~n) >> 1, (n & ~h) >> 1


def naf_count(n: int) -> int:
    """Number of non-zero NAF digits of |n|."""
    plus, minus = naf_decompose(abs(n))
    return plus.bit_count() + minus.bit_count()


def naf_total(p: Partition) -> int:
    return sum(naf_count(w) for w in p.weights)


def naf_max(p: Partition) -> int:
    return max(naf_count(w) for w in p.weights)


def lpm_bounds(p: Partition) -> tuple[int, int]:
    """(lower, upper) bounds on the minimum prefix rule count for p."""
    total = naf_total(p)
    return (total + 2) // 2, total + 1 - naf_max(p)


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


@dataclass(frozen=True)
class BoundsReport:
    lpm_lower: int
    lpm_upper: int
    general_lower: int
    trivial_lower: int
    worstcase_cap: int | None
    phi_total: int
    phi_max: int


def bounds_report(p: Partition) -> BoundsReport:
    lo, hi = lpm_bounds(p)
    return BoundsReport(
        lpm_lower=lo,
        lpm_upper=hi,
        general_lower=general_lower_bound(p),
        trivial_lower=p.k,
        worstcase_cap=worstcase_cap(p.k, p.width) if p.k >= 2 else None,
        phi_total=naf_total(p),
        phi_max=naf_max(p),
    )
