"""The digit-by-digit non-adjacent form, a reference for tcamsplit.signed's
closed forms (naf_decompose, naf_count) in test_signed and criterion 8."""
from __future__ import annotations

from dataclasses import dataclass


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
