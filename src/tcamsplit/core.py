"""Partition / transaction domain model, sequence validation, uniform sampling.

A partition splits an address space of 2**width addresses among k targets
(1-based; target 0 means "unallocated").  A transaction moves weight between
two targets; sequences of power-of-two transactions, held as plain tuples, are
the intermediate representation between partitions and rule tables.
"""
from __future__ import annotations

import json
import random
from dataclasses import dataclass
from typing import NamedTuple

from .errors import (
    BadSum,
    IndexOutOfRange,
    KTooLarge,
    TcamSplitError,
    WidthOverflow,
    ZeroWeight,
)

MAX_WIDTH = 128
MAX_TARGET = 1 << 20  # counts are a list indexed by target


@dataclass(frozen=True)
class Partition:
    """Ordered positive int weights summing to 2**width, checked on construction:
    WidthOverflow, ZeroWeight (also for a non-tuple, a non-int weight or a bool) or BadSum."""

    weights: tuple[int, ...]
    width: int

    def __post_init__(self):
        ws, width = self.weights, self.width
        if type(ws) is not tuple:  # a list would make the frozen Partition unhashable
            raise ZeroWeight(f"weights {ws!r} are not a tuple")
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
    """Build a Partition from weights that int() leaves equal, such as 4.0 or True;
    any other weight, such as 3.2, inf or '5', is passed on as it is, for Partition
    to refuse."""
    return Partition(tuple(map(_int_if_equal, weights)), width)


def _int_if_equal(w):
    try:
        return int(w) if int(w) == w else w
    except (OverflowError, TypeError, ValueError):  # inf, None, nan or 'x'
        return w


class Transaction(NamedTuple):
    """Move `size` addresses' worth of weight from target src to target dst, as a
    named (src, dst, size) tuple.  LPM sizes are powers of two; general rule-table
    deletions (tcam.table_to_sequence) may give any positive size, so `level` is derived."""

    src: int
    dst: int
    size: int

    @property
    def level(self) -> int:
        if self.size <= 0 or self.size & (self.size - 1):
            raise ValueError(f"size {self.size} is not a power of two")
        return self.size.bit_length() - 1


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


def validate_sequence(p: Partition, s: tuple[Transaction, ...]) -> ValidationReport:
    """Replay s from x_0 = -2**width, x_1..x_k = the weights; report the flags.
    A (src, dst, size) move with src == dst, size <= 0 or a target outside
    0..k raises IndexOutOfRange."""
    values = [-(1 << p.width), *p.weights]
    nonneg = monotone = pow2 = zero_terminal = True
    for idx, (src, dst, size) in enumerate(s):
        if src == dst or size <= 0:
            raise IndexOutOfRange(f"move {src, dst, size} has src == dst or a size below 1")
        if not (0 <= src <= p.k) or not (0 <= dst <= p.k):
            raise IndexOutOfRange(f"move {src, dst, size} targets outside 0..{p.k}")
        values[src] -= size
        values[dst] += size
        if src and values[src] < 0:  # only the source falls, and every part starts above 0
            nonneg = False
        if idx and size < s[idx - 1][2]:
            monotone = False
        if size & (size - 1):
            pow2 = False
        if (src == 0 or dst == 0) and idx != len(s) - 1:
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

def parse_lines(text: str, parse) -> list:
    """parse(line) per line but blanks and '#' comments; errors name the 1-based line."""
    out = []
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.split("#", 1)[0].strip()
        if line:
            try:
                out.append(parse(line))
            except (TcamSplitError, ValueError) as exc:
                raise type(exc)(f"line {lineno}: {exc}") from None
    return out


def partition_from_text(text: str, width: int | None = None) -> Partition:
    """Comma-separated weights; an empty field (as in "1,,1" or "1,1,") is
    refused with ZeroWeight rather than skipped, and one of over 39 digits after
    its leading zeros with WidthOverflow."""
    toks = text.replace(" ", "").split(",")
    if "" in toks:
        raise ZeroWeight(f"empty field {toks.index('') + 1} in the weight list")
    if max(map(len, toks)) > 39:  # 2**128 has 39 digits; CPython's int() reads at most 4300
        for i, tok in enumerate(toks):
            body = (unsigned := tok.lstrip("+-")).lstrip("0")
            if len(body) > 39:
                raise WidthOverflow(f"weight field {i + 1} has {len(body)} digits, 2**128 has 39")
            # int() reads one leading zero as it reads many, and counts them all
            toks[i] = tok[: len(tok) - len(unsigned)] + "0" + body
    ws = tuple(map(int, toks))
    if width is None:
        total = sum(ws)
        if total <= 0 or total & (total - 1):
            raise BadSum(f"sum {total} is not a power of two")
        width = total.bit_length() - 1
    return Partition(ws, width)


def partition_to_json(p: Partition) -> str:
    return json.dumps({"width": p.width, "weights": list(p.weights)})


def sequence_to_text(s: tuple[Transaction, ...]) -> str:
    return "\n".join(f"{src} {size} {dst}" for src, dst, size in s)


def sequence_to_json_obj(s: tuple[Transaction, ...]) -> list[dict]:
    return [
        {
            "src": src,
            "level": size.bit_length() - 1 if size > 0 and not size & (size - 1) else None,
            "size": size,
            "dst": dst,
        }
        for src, dst, size in s
    ]
