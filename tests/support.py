"""Fixtures shared by several test modules: the paper's general rule tables,
an exhaustive partition enumerator, tie-heavy partitions up to k=4096 and a
prefix pattern's address span."""
from __future__ import annotations

import random

from tcamsplit.core import new_partition, sample_partition
from tcamsplit.worstcase import gen_general_hard

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


def tie_heavy_partitions():
    """Partitions whose levels hold many equal keys and long active sets, up
    to k=4096: the worst-case family, all-equal parts and 2**W unit parts."""
    for k, width in ((2, 4), (5, 9), (100, 40), (1000, 128), (4096, 20)):
        yield gen_general_hard(k, width)
    for e, width in ((1, 1), (3, 7), (6, 6), (9, 30), (12, 128)):
        yield new_partition([1 << (width - e)] * (1 << e), width)  # all equal
    rng = random.Random(26)
    for width in (0, 1, 2, 5, 10, 12):  # the one partition of 2**W into 2**W parts
        yield sample_partition(1 << width, width, rng)


def prefix_span(pattern):
    """[lo, hi) of the addresses a prefix pattern matches, read from its care
    and value bits; None unless the wildcards are exactly the low bits."""
    low = ((1 << pattern.width) - 1) ^ pattern.care
    if low & (low + 1):
        return None
    return pattern.value, pattern.value + low + 1
