"""Fixtures shared by several test modules: the paper's general rule tables,
an exhaustive partition enumerator and a prefix pattern's address span."""
from __future__ import annotations

from tcamsplit.core import new_partition

# Remark 3's W=10 table and Theorem 8's W=5 table, as `verify` reads them
REMARK3_W10 = "0000000000 2\n*000***000 1\n**000***** 2\n00******** 2\n********** 1\n"
THM8 = "**000 2\n00*** 2\n***** 1\n"


def all_partitions(width, kmax):
    """Every multiset partition of 2**width into at most kmax positive parts,
    parts in non-increasing order."""
    out = []

    def rec(rem, maxpart, cur):
        if rem == 0:
            out.append(new_partition(tuple(cur), width))
            return
        if len(cur) == kmax:
            return
        for part in range(min(rem, maxpart), 0, -1):
            cur.append(part)
            rec(rem - part, part, cur)
            cur.pop()

    rec(1 << width, 1 << width, [])
    return out


def prefix_span(pattern):
    """[lo, hi) of the addresses a prefix pattern matches, read from its care
    and value bits; None unless the wildcards are exactly the low bits."""
    low = ((1 << pattern.width) - 1) ^ pattern.care
    if low & (low + 1):
        return None
    return pattern.value, pattern.value + low + 1
