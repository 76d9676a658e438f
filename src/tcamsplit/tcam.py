"""Ternary / prefix rule tables: synthesis, exact evaluation, intersection."""
from __future__ import annotations

import json
from dataclasses import dataclass

from .core import Partition, Transaction, TransactionSequence
from .errors import (
    IncompleteCover,
    IndexOutOfRange,
    InternalInvariantViolated,
    TooLargeToEvaluate,
    WidthMismatch,
)
from .matcher import bit_matcher

_IE_RULE_LIMIT = 20
_ENUM_WIDTH_LIMIT = 24


@dataclass(frozen=True)
class TernaryPattern:
    """width-character pattern over {0,1,*}; bit position = significance."""

    width: int
    care: int   # mask of fixed positions
    value: int  # fixed bits (subset of care)

    def matches(self, addr: int) -> bool:
        return addr & self.care == self.value

    @property
    def wildcards(self) -> int:
        return self.width - self.care.bit_count()

    @property
    def count(self) -> int:
        return 1 << self.wildcards

    def is_prefix(self) -> bool:
        low = ((1 << self.width) - 1) ^ self.care
        return low & (low + 1) == 0

    @property
    def prefix_len(self) -> int:
        assert self.is_prefix()
        return self.care.bit_count()

    def interval(self) -> tuple[int, int]:
        """[lo, hi) address range; prefix patterns only."""
        assert self.is_prefix()
        return self.value, self.value + self.count

    def __str__(self) -> str:
        out = []
        for pos in range(self.width - 1, -1, -1):
            if (self.care >> pos) & 1:
                out.append("1" if (self.value >> pos) & 1 else "0")
            else:
                out.append("*")
        return "".join(out)

    @classmethod
    def parse(cls, text: str) -> "TernaryPattern":
        text = text.strip()
        care = value = 0
        for c in text:
            care <<= 1
            value <<= 1
            if c == "1":
                care |= 1
                value |= 1
            elif c == "0":
                care |= 1
            elif c != "*":
                raise ValueError(f"bad pattern character {c!r}")
        return cls(len(text), care, value)

    @classmethod
    def from_block(cls, width: int, start: int, level: int) -> "TernaryPattern":
        """Prefix pattern covering the aligned block [start, start + 2**level)."""
        assert start % (1 << level) == 0
        care = ((1 << (width - level)) - 1) << level
        return cls(width, care, start)


def intersect_two(a: TernaryPattern, b: TernaryPattern) -> TernaryPattern | None:
    if a.width != b.width:
        raise WidthMismatch(f"widths {a.width} and {b.width}")
    both = a.care & b.care
    if (a.value ^ b.value) & both:
        return None
    return TernaryPattern(a.width, a.care | b.care, a.value | b.value)


def intersect_patterns(patterns) -> TernaryPattern | None:
    """Merged pattern matching exactly the common addresses, or None."""
    patterns = list(patterns)
    acc = patterns[0]
    for q in patterns[1:]:
        acc = intersect_two(acc, q)
        if acc is None:
            return None
    return acc


@dataclass(frozen=True)
class Rule:
    pattern: TernaryPattern
    target: int


@dataclass(frozen=True)
class RuleTable:
    """Priority-ordered rules, first match wins."""

    width: int
    rules: tuple[Rule, ...]
    k: int

    def __post_init__(self):
        # counts are indexed by target, so -1 would silently count for target k
        low = min((r.target for r in self.rules), default=0)
        if low < 0:
            raise IndexOutOfRange(f"target {low} is negative")

    def __len__(self) -> int:
        return len(self.rules)

    def is_prefix_table(self) -> bool:
        return all(r.pattern.is_prefix() for r in self.rules)

    def lookup(self, addr: int) -> int:
        for r in self.rules:
            if r.pattern.matches(addr):
                return r.target
        return 0


def synthesize_lpm(p: Partition) -> RuleTable:
    """Minimal prefix table realizing p.

    The optimal transaction sequence is replayed in reverse while dyadic
    address blocks are handed between targets: the final whole-space move
    becomes the bottom match-all rule, and each earlier transaction takes
    the lowest-addressed eligible block from its receiver and pins it to
    its donor with a rule stacked on top.
    """
    seq = bit_matcher(p)
    txs = seq.transactions
    width = p.width
    blocks: dict[int, list[tuple[int, int]]] = {}  # target -> [(start, level)]
    last = txs[-1]
    rules = [Rule(TernaryPattern.from_block(width, 0, width), last.src)]
    blocks[last.src] = [(0, width)]
    for t in reversed(txs[:-1]):
        lvl = t.level
        holding = blocks.get(t.dst, [])
        eligible = [b for b in holding if b[1] >= lvl]
        if not eligible:
            raise InternalInvariantViolated(
                f"no block of size 2**{lvl} held by target {t.dst}"
            )
        start, blvl = min(eligible)
        holding.remove((start, blvl))
        while blvl > lvl:
            blvl -= 1
            holding.append((start + (1 << blvl), blvl))
        rules.append(Rule(TernaryPattern.from_block(width, start, lvl), t.src))
        blocks.setdefault(t.src, []).append((start, lvl))
    rules.reverse()
    return RuleTable(width, tuple(rules), p.k)


# --- evaluation -----------------------------------------------------------

def _subtract_interval(segments, lo, hi):
    """Remove [lo, hi) from disjoint segments; return (remaining, removed_size)."""
    out = []
    removed = 0
    for a, b in segments:
        if b <= lo or a >= hi:
            out.append((a, b))
            continue
        if a < lo:
            out.append((a, lo))
        if b > hi:
            out.append((hi, b))
        removed += min(b, hi) - max(a, lo)
    return out, removed


def _first_match_counts_prefix(table: RuleTable) -> list[int]:
    counts = [0] * (table.k + 1)
    space = [(0, 1 << table.width)]
    for r in table.rules:
        lo, hi = r.pattern.interval()
        kept = []
        taken = 0
        for seg in space:
            rem, cut = _subtract_interval([seg], lo, hi)
            kept.extend(rem)
            taken += cut
        space = kept
        counts[r.target] += taken
    counts[0] += sum(b - a for a, b in space)
    return counts


def _excl_count(base: TernaryPattern | None, blockers) -> int:
    """|base minus union(blockers)| via inclusion-exclusion with pruning."""
    if base is None:
        return 0
    for idx, blk in enumerate(blockers):
        inter = intersect_two(base, blk)
        if inter is not None:
            rest = blockers[idx + 1:]
            return _excl_count(base, rest) - _excl_count(inter, rest)
    return base.count


def _first_match_counts_general(table: RuleTable) -> list[int]:
    counts = [0] * (table.k + 1)
    if len(table.rules) <= _IE_RULE_LIMIT:
        pats: list[TernaryPattern] = []
        for r in table.rules:
            counts[r.target] += _excl_count(r.pattern, pats)
            pats.append(r.pattern)
        counts[0] = (1 << table.width) - sum(counts[1:])
        return counts
    if table.width <= _ENUM_WIDTH_LIMIT:
        for addr in range(1 << table.width):
            counts[table.lookup(addr)] += 1
        return counts
    raise TooLargeToEvaluate(
        f"{len(table.rules)} general rules at width {table.width}"
    )


def evaluate_table(table: RuleTable) -> list[int]:
    """Exact address counts per target, index 0..k (0 = unmatched)."""
    if table.is_prefix_table():
        return _first_match_counts_prefix(table)
    return _first_match_counts_general(table)


def table_to_sequence(table: RuleTable) -> TransactionSequence:
    """Delete rules top-down, emitting one transaction per remap group.

    When the top rule goes away, every address it matched falls through to
    its first match among the remaining rules (or to the unallocated pool);
    groups with an unchanged target emit nothing.
    """
    if evaluate_table(table)[0] != 0:
        raise IncompleteCover("table leaves addresses unmatched")
    txs: list[Transaction] = []
    prefix_mode = table.is_prefix_table()
    rules = table.rules
    for t, rule in enumerate(rules):
        remaining = rules[t + 1:]
        moved: dict[int, int] = {}
        uncovered = rule.pattern.count
        if prefix_mode:
            segments = [rule.pattern.interval()]
            for lower in remaining:
                if not segments:
                    break
                segments, cut = _subtract_interval(segments, *lower.pattern.interval())
                if cut:
                    moved[lower.target] = moved.get(lower.target, 0) + cut
                    uncovered -= cut
        else:
            if len(rules) > _IE_RULE_LIMIT and table.width > _ENUM_WIDTH_LIMIT:
                raise TooLargeToEvaluate("general table too large to resequence")
            between: list[TernaryPattern] = []
            for lower in remaining:
                inter = intersect_two(rule.pattern, lower.pattern)
                cut = _excl_count(inter, between)
                if cut:
                    moved[lower.target] = moved.get(lower.target, 0) + cut
                    uncovered -= cut
                between.append(lower.pattern)
        if uncovered:
            moved[0] = moved.get(0, 0) + uncovered
        for tgt, cnt in moved.items():
            if tgt != rule.target:
                txs.append(Transaction(rule.target, tgt, cnt))
    return TransactionSequence(tuple(txs), table.width, table.k)


# --- text / JSON interchange ---------------------------------------------

def table_to_text(table: RuleTable) -> str:
    return "\n".join(f"{r.pattern} {r.target}" for r in table.rules)


def table_from_text(text: str, width: int | None = None) -> RuleTable:
    rules = []
    for line in text.splitlines():
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        pat_text, target = line.split()
        pat = TernaryPattern.parse(pat_text)
        if width is None:
            width = pat.width
        elif pat.width != width:
            raise WidthMismatch(f"pattern width {pat.width}, table width {width}")
        rules.append(Rule(pat, int(target)))
    if width is None:
        raise IncompleteCover("no rules given")
    k = max((r.target for r in rules), default=0)
    return RuleTable(width, tuple(rules), k)


def table_to_json(table: RuleTable) -> str:
    return json.dumps(
        {
            "width": table.width,
            "rules": [{"pattern": str(r.pattern), "target": r.target} for r in table.rules],
        }
    )


def table_from_json(text: str) -> RuleTable:
    obj = json.loads(text)
    rules = tuple(
        Rule(TernaryPattern.parse(r["pattern"]), int(r["target"]))
        for r in obj["rules"]
    )
    k = max((r.target for r in rules), default=0)
    return RuleTable(int(obj["width"]), rules, k)
