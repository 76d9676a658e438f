"""Ternary / prefix rule tables: synthesis, exact evaluation, intersection."""
from __future__ import annotations

import json
from bisect import bisect_left, bisect_right, insort
from dataclasses import dataclass
from operator import sub

from .core import MAX_WIDTH, Partition, Transaction, TransactionSequence
from .errors import (
    IncompleteCover,
    IndexOutOfRange,
    InternalInvariantViolated,
    KTooLarge,
    TooLargeToEvaluate,
    WidthMismatch,
    WidthOverflow,
)
from .matcher import bit_matcher

_IE_RULE_LIMIT = 20
_ENUM_WIDTH_LIMIT = 24
MAX_TARGET = 1 << 20  # counts are a list indexed by target
_TERNARY_CHARS = str.maketrans("", "", "01*")


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
        # bits read as decimal digits, 1 = set and 2 = wildcard: nothing carries
        if not self.width:
            return ""  # format(0, "00b") is "0"
        fmt = f"0{self.width}b"
        wild = ((1 << self.width) - 1) ^ self.care
        digits = int(format(self.value, fmt)) + 2 * int(format(wild, fmt))
        return str(digits).zfill(self.width).replace("2", "*")

    @classmethod
    def parse(cls, text: str) -> "TernaryPattern":
        text = text.strip()
        bad = text.translate(_TERNARY_CHARS)  # what is left is not 0, 1 or *
        if bad:
            raise ValueError(f"bad pattern character {bad[0]!r}")
        care = int("0" + text.replace("0", "1").replace("*", "0"), 2)
        return cls(len(text), care, int("0" + text.replace("*", "0"), 2))

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
        if not 0 <= self.width <= MAX_WIDTH:
            raise WidthOverflow(f"table width {self.width} outside 0..{MAX_WIDTH}")
        odd = {r.pattern.width for r in self.rules} - {self.width}
        if odd:
            raise WidthMismatch(f"pattern width {min(odd)}, table width {self.width}")
        # counts are indexed by target, so -1 would silently count for target k
        low = min((r.target for r in self.rules), default=0)
        if low < 0:
            raise IndexOutOfRange(f"target {low} is negative")
        if self.k > MAX_TARGET:
            raise KTooLarge(f"target {self.k} above {MAX_TARGET}")

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
    return _table_from_sequence(bit_matcher(p))


def _table_from_sequence(seq: TransactionSequence) -> RuleTable:
    """synthesize_lpm's table for its sequence seq = bit_matcher(p)."""
    width = seq.width
    last = seq.transactions[-1]
    rules = [Rule(TernaryPattern.from_block(width, 0, width), last.src)]
    # target -> its blocks [(start, level)], sorted by start
    blocks: dict[int, list[tuple[int, int]]] = {last.src: [(0, width)]}
    for t in reversed(seq.transactions[:-1]):
        lvl = t.level
        holding = blocks.get(t.dst, [])
        for j, (start, blvl) in enumerate(holding):
            if blvl >= lvl:
                break
        else:
            raise InternalInvariantViolated(f"no block of size 2**{lvl} held by target {t.dst}")
        # the split-off buddies lie inside [start, start + 2**blvl), in start order
        holding[j:j + 1] = [(start + (1 << b), b) for b in range(lvl, blvl)]
        rules.append(Rule(TernaryPattern.from_block(width, start, lvl), t.src))
        insort(blocks.setdefault(t.src, []), (start, lvl))
    rules.reverse()
    return RuleTable(width, tuple(rules), seq.parts)


# --- evaluation -----------------------------------------------------------

def _excl_count(base: TernaryPattern | None, blockers) -> int:
    """|base minus union(blockers)| via inclusion-exclusion with pruning."""
    if base is None:
        return 0
    for idx, blk in enumerate(blockers):
        inter = intersect_two(base, blk)
        if inter == base:  # blk covers base: nothing is left
            return 0
        if inter is not None:
            rest = blockers[idx + 1:]
            return _excl_count(base, rest) - _excl_count(inter, rest)
    return base.count


def _fall_through(table: RuleTable):
    """Where each rule's addresses fall when it is deleted, and the counts.

    Returns, per rule, its addresses as (owner, size) runs by their first
    match among the rules below it (owner len(rules) is unmatched), and the
    first-match address counts per target.

    Prefix tables are painted onto a sorted list of segment starts with
    owners, last rule first: just before rule i is painted, the map shows
    every address's first match below i.  Each paint leaves at most 3
    segments in place of those it covers, so the pass is O(n log n) plus
    list-slice moves.  General tables use inclusion-exclusion, bottom-up:
    rule i takes its addresses from the owners its runs name.
    """
    rules = table.rules
    n = len(rules)
    end = 1 << table.width
    below = [None] * n
    if table.is_prefix_table():
        starts, owners = [0], [n]
        for i in range(n - 1, -1, -1):
            lo, hi = rules[i].pattern.interval()
            j = bisect_right(starts, lo) - 1
            m = bisect_left(starts, hi, j)
            edges = [lo, *starts[j + 1:m], hi]
            below[i] = list(zip(owners[j:m], map(sub, edges[1:], edges[:-1])))
            seg_starts, seg_owners = [lo], [i]
            if starts[j] < lo:
                seg_starts.insert(0, starts[j])
                seg_owners.insert(0, owners[j])
            if hi < (starts[m] if m < len(starts) else end):
                seg_starts.append(hi)
                seg_owners.append(owners[m - 1])
            starts[j:m] = seg_starts
            owners[j:m] = seg_owners
        final = zip(owners, map(sub, [*starts[1:], end], starts))
    elif n > _IE_RULE_LIMIT and table.width > _ENUM_WIDTH_LIMIT:
        raise TooLargeToEvaluate(f"{n} general rules at width {table.width}")
    else:
        pats = [r.pattern for r in rules]
        owned = [0] * n + [end]
        for i in range(n - 1, -1, -1):
            runs = [
                (u, _excl_count(intersect_two(pats[i], pats[u]), pats[i + 1:u]))
                for u in range(i + 1, n)
            ]
            runs.append((n, pats[i].count - sum(cut for _, cut in runs)))
            below[i] = [(u, cut) for u, cut in runs if cut]
            for u, cut in below[i]:
                owned[u] -= cut
            owned[i] = pats[i].count
        final = enumerate(owned)
    targets = [r.target for r in rules] + [0]
    counts = [0] * (table.k + 1)
    for owner, size in final:
        counts[targets[owner]] += size
    return below, counts


def evaluate_table(table: RuleTable) -> list[int]:
    """Exact address counts per target, index 0..k (0 = unmatched)."""
    if (
        len(table.rules) <= _IE_RULE_LIMIT
        or table.width > _ENUM_WIDTH_LIMIT
        or table.is_prefix_table()
    ):
        return _fall_through(table)[1]
    counts = [0] * (table.k + 1)
    for addr in range(1 << table.width):
        counts[table.lookup(addr)] += 1
    return counts


def table_to_sequence(table: RuleTable) -> TransactionSequence:
    """Delete rules top-down, emitting one transaction per remap group.

    When the top rule goes away, every address it matched falls through to
    its first match among the remaining rules (or to the unallocated pool);
    groups with an unchanged target emit nothing.
    """
    below, counts = _fall_through(table)
    if counts[0] != 0:
        raise IncompleteCover("table leaves addresses unmatched")
    txs: list[Transaction] = []
    targets = [r.target for r in table.rules] + [0]
    for rule, runs in zip(table.rules, below):
        moved: dict[int, int] = {}
        # groups in order of their first lower rule; unmatched sorts last
        for owner, size in sorted(runs):
            moved[targets[owner]] = moved.get(targets[owner], 0) + size
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
        rules.append(Rule(pat, int(target)))
    if width is None:
        raise IncompleteCover("no rules given")
    k = max((r.target for r in rules), default=0)
    return RuleTable(width, tuple(rules), k)


def table_to_json_obj(table: RuleTable) -> dict:
    return {
        "width": table.width,
        "rules": [{"pattern": str(r.pattern), "target": r.target} for r in table.rules],
    }


def table_to_json(table: RuleTable) -> str:
    return json.dumps(table_to_json_obj(table))


def table_from_json(text: str) -> RuleTable:
    obj = json.loads(text)
    rules = tuple(
        Rule(TernaryPattern.parse(r["pattern"]), int(r["target"]))
        for r in obj["rules"]
    )
    k = max((r.target for r in rules), default=0)
    return RuleTable(int(obj["width"]), rules, k)
