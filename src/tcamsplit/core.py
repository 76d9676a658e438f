"""Partition / transaction domain model, sequence validation, uniform sampling.

A partition splits an address space of 2**width addresses among k targets
(1-based; target 0 means "unallocated").  A transaction moves weight between
two targets; sequences of power-of-two transactions are the intermediate
representation between partitions and rule tables.
"""
from __future__ import annotations

import json
import random
from dataclasses import dataclass

from .errors import (
    BadSum,
    IndexOutOfRange,
    KTooLarge,
    WidthOverflow,
    ZeroWeight,
)

MAX_WIDTH = 128
MAX_TARGET = 1 << 20  # counts are a list indexed by target


@dataclass(frozen=True)
class Partition:
    """Ordered positive int weights summing to 2**width, checked on construction:
    WidthOverflow, ZeroWeight (also for a weight that is not an int, or a bool) or BadSum."""

    weights: tuple[int, ...]
    width: int

    def __post_init__(self):
        ws, width = self.weights, self.width
        if not isinstance(width, int):
            raise WidthOverflow(f"width {width!r} is not an int")
        if not 0 <= width <= MAX_WIDTH:
            raise WidthOverflow(f"width {width} outside 0..{MAX_WIDTH}")
        if not ws:
            raise ZeroWeight("empty weight list")
        for w in ws:
            if type(w) is not int:
                raise ZeroWeight(f"weight {w!r} is not an int")
            if w <= 0:
                raise ZeroWeight(f"weight {w} is not positive")
        if sum(ws) != 1 << width:
            raise BadSum(f"weights sum to {sum(ws)}, expected 2**{width} = {1 << width}")

    @property
    def k(self) -> int:
        return len(self.weights)

    @property
    def total(self) -> int:
        return 1 << self.width


def new_partition(weights, width: int) -> Partition:
    """Build a Partition from int-convertible weights."""
    return Partition(tuple(int(w) for w in weights), width)


@dataclass(frozen=True)
class Transaction:
    """Move `size` addresses' worth of weight from target src to target dst.

    For the LPM model the size is a power of two; general rule-table
    deletions may produce arbitrary positive sizes (see tcam.table_to_sequence),
    so the size is stored directly and `level` is derived.
    """

    src: int
    dst: int
    size: int

    def __post_init__(self):
        if self.src == self.dst:
            raise IndexOutOfRange(f"src == dst == {self.src}")
        if self.size <= 0:
            raise IndexOutOfRange(f"size {self.size} not positive")

    @property
    def is_power_of_two(self) -> bool:
        return self.size & (self.size - 1) == 0

    @property
    def level(self) -> int:
        if not self.is_power_of_two:
            raise ValueError(f"size {self.size} is not a power of two")
        return self.size.bit_length() - 1


@dataclass(frozen=True)
class TransactionSequence:
    transactions: tuple[Transaction, ...]
    width: int
    parts: int  # k

    def __len__(self) -> int:
        return len(self.transactions)

    def __iter__(self):
        return iter(self.transactions)


@dataclass(frozen=True)
class ValidationReport:
    zeroes: bool                 # final extended state is all-zero
    nonnegative: bool            # every intermediate x_1..x_k stays >= 0
    sizes_monotone: bool         # transaction sizes non-decreasing
    power_of_two_sizes: bool
    zero_target_terminal_only: bool  # target 0 touched only by the last transaction
    final: tuple[int, ...]       # x_0 = -2**width, then x_1..x_k

    def ok_for_synthesis(self) -> bool:
        return (
            self.zeroes
            and self.nonnegative
            and self.sizes_monotone
            and self.power_of_two_sizes
            and self.zero_target_terminal_only
        )


def validate_sequence(p: Partition, s: TransactionSequence) -> ValidationReport:
    """Replay s from x_0 = -2**width, x_1..x_k = the weights; report the flags."""
    values = [-(1 << p.width), *p.weights]
    nonneg = True
    monotone = True
    pow2 = all(t.is_power_of_two for t in s)
    zero_terminal = True
    last = len(s.transactions) - 1
    prev_size = 0
    for idx, t in enumerate(s):
        if not (0 <= t.src <= p.k) or not (0 <= t.dst <= p.k):
            raise IndexOutOfRange(f"transaction {t} targets outside 0..{p.k}")
        values[t.src] -= t.size
        values[t.dst] += t.size
        if any(v < 0 for v in values[1:]):
            nonneg = False
        if t.size < prev_size:
            monotone = False
        prev_size = t.size
        if (t.src == 0 or t.dst == 0) and idx != last:
            zero_terminal = False
    return ValidationReport(
        zeroes=not any(values),
        nonnegative=nonneg,
        sizes_monotone=monotone,
        power_of_two_sizes=pow2,
        zero_target_terminal_only=zero_terminal,
        final=tuple(values),
    )


def sample_partition(k: int, width: int, rng: random.Random) -> Partition:
    """Uniform ordered partition of 2**width into k positive parts.

    Draws k-1 distinct cut points in {1, ..., 2**width - 1} and takes
    consecutive differences.
    """
    if not 0 <= width <= MAX_WIDTH:
        raise WidthOverflow(f"width {width} outside 0..{MAX_WIDTH}")
    total = 1 << width
    if not 1 <= k <= total:
        raise KTooLarge(f"k={k} outside 1..2**{width}")
    if k > MAX_TARGET:
        raise KTooLarge(f"k={k} above {MAX_TARGET}")
    if total <= 1 << 62:
        cuts = sorted(rng.sample(range(1, total), k - 1))
    else:
        # huge spaces: rejection sampling; collisions are vanishingly rare
        seen: set[int] = set()
        while len(seen) < k - 1:
            seen.add(rng.randrange(1, total))
        cuts = sorted(seen)
    bounds = [0] + cuts + [total]
    return Partition(tuple(b - a for a, b in zip(bounds, bounds[1:])), width)


# --- text / JSON interchange ---------------------------------------------

def partition_from_text(text: str, width: int | None = None) -> Partition:
    ws = tuple(int(tok) for tok in text.replace(" ", "").split(",") if tok)
    if width is None:
        total = sum(ws)
        if total <= 0 or total & (total - 1):
            raise BadSum(f"sum {total} is not a power of two")
        width = total.bit_length() - 1
    return new_partition(ws, width)


def partition_to_json(p: Partition) -> str:
    return json.dumps({"width": p.width, "weights": list(p.weights)})


def sequence_to_text(s: TransactionSequence) -> str:
    return "\n".join(f"{t.src} {t.size} {t.dst}" for t in s)


def sequence_to_json_obj(s: TransactionSequence) -> list[dict]:
    return [
        {
            "src": t.src,
            "level": t.level if t.is_power_of_two else None,
            "size": t.size,
            "dst": t.dst,
        }
        for t in s
    ]
