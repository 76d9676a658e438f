"""Generators for extremal partitions (tight / near-tight bound instances)."""
from __future__ import annotations

from .core import MAX_TARGET, MAX_WIDTH, Partition, new_partition
from .errors import KTooLarge, KTooSmall, WidthOverflow, WidthTooSmall


def _check_width(width: int, least: int) -> None:
    """Refuse a width outside least..MAX_WIDTH before anything is built."""
    if width < least:
        raise WidthTooSmall(f"need width >= {least}, got {width}")
    if width > MAX_WIDTH:
        raise WidthOverflow(f"width {width} above {MAX_WIDTH}")


def _third_split(total: int) -> list[int]:
    """Split a power of two into three near-thirds: [x, x+1, x+1] for even
    x = total // 3, else [x, x, x+1]."""
    x = total // 3
    if x % 2 == 0:
        return [x, x + 1, x + 1]
    return [x, x, x + 1]


def gen_k2(width: int) -> Partition:
    """Two parts around one third / two thirds; the hardest k=2 instance."""
    _check_width(width, 1)
    total = 1 << width
    # round half up; never hit exactly for a power of two, documented anyway
    x = (2 * total + 3) // 6
    return new_partition([x, total - x], width)


def gen_k3(width: int) -> Partition:
    """Three near-equal parts; costs one rule per bit."""
    _check_width(width, 2)
    return new_partition(_third_split(1 << width), width)


def _ceil_lg(n: int) -> int:
    return (n - 1).bit_length()


def gen_triplets(k: int, width: int) -> Partition:
    """k >= 4 parts: floor((k-1)/3) hard triplets plus small left-over parts."""
    if k < 4:
        raise KTooSmall("need k >= 4")
    m = (k - 1) // 3
    _check_width(width, 3 + _ceil_lg(m))  # each triplet needs a sub-width of 2 or more
    sub_width = width - 1 - _ceil_lg(m)
    if k > MAX_TARGET:
        raise KTooLarge(f"k={k} above {MAX_TARGET}")
    triplet_total = 1 << sub_width
    weights: list[int] = []
    for _ in range(m):
        weights.extend(_third_split(triplet_total))
    leftover = (1 << width) - m * triplet_total
    r = k - 3 * m
    if r == 1:
        tail = [leftover]
    elif r == 2:
        tail = [1, leftover - 1]
    else:  # sub_width >= 2 and 2**ceil_lg(m) >= m: leftover is even and >= 4
        tail = [1, leftover // 2 - 1, leftover // 2]
    return new_partition(weights + tail, width)


def gen_general_hard(k: int, width: int) -> Partition:
    """Parts with identical non-zero signed-digit counts floor(h/2)+1,
    h = width - ceil(lg k); hard for general ternary tables."""
    if k < 2:
        raise KTooSmall("need k >= 2")
    _check_width(width, _ceil_lg(k) + 2)
    h = width - _ceil_lg(k)
    if k > MAX_TARGET:
        raise KTooLarge(f"k={k} above {MAX_TARGET}")
    # base values in {2**h, 2**(h+1)} summing to 2**width, large entries last
    big = (1 << _ceil_lg(k)) - k
    base = [1 << h] * (k - big) + [1 << (h + 1)] * big
    delta = sum(1 << (h - 2 * j) for j in range(1, h // 2 + 1))
    if k % 2 == 0:
        parts = [q - delta if i % 2 == 0 else q + delta for i, q in enumerate(base)]
    else:
        parts = [q - delta if i % 2 == 0 else q + delta for i, q in enumerate(base[:-2])]
        parts.append(base[-2] - delta)
        parts.append(base[-1] + 2 * delta)
    return new_partition(parts, width)
