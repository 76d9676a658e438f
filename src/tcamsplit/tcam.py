"""Ternary / prefix rule tables: synthesis, exact evaluation, intersection."""
from __future__ import annotations

from bisect import bisect_left, bisect_right, insort
from dataclasses import dataclass
from operator import sub

from .core import MAX_TARGET, MAX_WIDTH, Partition, Transaction, parse_lines
from .errors import (
    IncompleteCover,
    IndexOutOfRange,
    InternalInvariantViolated,
    KTooLarge,
    TooLargeToEvaluate,
    WidthMismatch,
    WidthOverflow,
)
# the plain moves, bound to the name perfbench/tracing.py wraps; compile reads it too
from .matcher import _bit_moves as bit_matcher

_IE_RULE_LIMIT = 20
_BITSET_WIDTH_LIMIT = 24
_CHUNK_BITS = 16  # an owner set holds 2**16 addresses, 8 KiB
_WALK_BUDGET = 1 << 35  # rules**2 * addresses (2**13 at least): runs may claim past all below
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
    def count(self) -> int:
        return 1 << (self.width - self.care.bit_count())

    def is_prefix(self) -> bool:
        low = ((1 << self.width) - 1) ^ self.care
        return low & (low + 1) == 0

    @property
    def prefix_len(self) -> int:
        self.interval()  # raises ValueError unless a prefix
        return self.care.bit_count()

    def interval(self) -> tuple[int, int]:
        """[lo, hi) address range; prefix patterns only."""
        if not self.is_prefix():
            raise ValueError(f"pattern {self} is not a prefix")
        return self.value, self.value + self.count

    def __str__(self) -> str:
        width, value = self.width, self.value
        wild = ((1 << width) - 1) ^ self.care
        w = wild.bit_length()
        if w <= width and not (wild & (wild + 1) or value & wild or value >> width):  # a prefix
            return prefix_text(value, w, width)
        if not width:
            return ""  # format(0, "00b") is "0"
        # bits read as decimal digits, 1 = set and 2 = wildcard: nothing carries
        fmt = f"0{width}b"
        digits = int(format(value, fmt)) + 2 * int(format(wild, fmt))
        return str(digits).zfill(width).replace("2", "*")

    @classmethod
    def parse(cls, text: str) -> "TernaryPattern":
        text = text.strip()
        bad = text.translate(_TERNARY_CHARS)  # what is left is not 0, 1 or *
        if bad:
            raise ValueError(f"bad pattern character {bad[0]!r}")
        care = int("0" + text.replace("0", "1").replace("*", "0"), 2)
        return cls(len(text), care, int("0" + text.replace("*", "0"), 2))


def intersect_two(a: TernaryPattern, b: TernaryPattern) -> TernaryPattern | None:
    if a.width != b.width:
        raise WidthMismatch(f"widths {a.width} and {b.width}")
    both = a.care & b.care
    if (a.value ^ b.value) & both:
        return None
    return TernaryPattern(a.width, a.care | b.care, a.value | b.value)


@dataclass(frozen=True)
class Rule:
    pattern: TernaryPattern
    target: int


@dataclass(frozen=True)
class RuleTable:
    """Priority-ordered rules, first match wins; k is the highest target."""

    width: int
    rules: tuple[Rule, ...]

    def __post_init__(self):
        if not 0 <= self.width <= MAX_WIDTH:
            raise WidthOverflow(f"table width {self.width} outside 0..{MAX_WIDTH}")
        if self.k > MAX_TARGET:
            raise KTooLarge(f"target {self.k} above {MAX_TARGET}")
        width, end = self.width, 1 << self.width
        for i, r in enumerate(self.rules):
            pat, care = r.pattern, r.pattern.care
            fits = pat.width == width and 0 <= care < end and care | pat.value == care
            if fits and r.target >= 0:
                continue  # one test per rule; a rule that fails it is diagnosed below
            # a stray bit would paint an interval past the address space
            if pat.width != width or (pat.care | pat.value) >> width:
                raise WidthMismatch(f"rule {i}: pattern does not fit table width {width}")
            if pat.value & ~pat.care:
                raise InternalInvariantViolated(f"rule {i}: value bits outside the care mask")
            # counts are indexed by target, so -1 would silently count for target k
            if r.target < 0:
                raise IndexOutOfRange(f"target {r.target} is negative")

    @property
    def k(self) -> int:
        return max([r.target for r in self.rules], default=0)

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

    The optimal transaction sequence is replayed in reverse while address
    runs [lo, hi) are handed between targets: the final whole-space move
    becomes the bottom match-all rule, and each earlier transaction takes
    the lowest addresses of its receiver's first run and pins them to its
    donor with a rule stacked on top.
    """
    width, rows = _prefix_rows(bit_matcher(p))
    cares = [((1 << width) - 1) >> lvl << lvl for lvl in range(width + 1)]  # by block level
    rules = [Rule(TernaryPattern(width, cares[lvl], start), target) for start, lvl, target in rows]
    return RuleTable(width, tuple(rules))


def _prefix_rows(moves) -> tuple[int, list[tuple[int, int, int]]]:
    """The width, and synthesize_lpm's rules for the bit matcher's (src, dst, size)
    moves as (start, level, target) rows, top first: each matches 2**level from start."""
    top, _, space = moves[-1]
    if space & (space - 1):
        raise InternalInvariantViolated(f"last move of size {space} is not a whole space")
    width = space.bit_length() - 1
    rows = [(0, width, top)]
    # target -> its sorted runs; sizes only fall, so run starts stay aligned
    runs: dict[int, list[tuple[int, int]]] = {top: [(0, space)]}
    for src, dst, size in reversed(moves[:-1]):
        lvl = size.bit_length() - 1
        holding = runs.get(dst) or [(0, 0)]  # an empty run fails the guard
        start, end = holding[0]
        if end - start < size or start % size:
            raise InternalInvariantViolated(f"no block of size 2**{lvl} held by target {dst}")
        holding[:1] = [(start + size, end)] if end - start > size else []
        rows.append((start, lvl, src))
        insort(runs.setdefault(src, []), (start, start + size))
    rows.reverse()
    return width, rows


def prefix_text(start: int, lvl: int, width: int) -> str:
    """The width-character prefix matching the 2**lvl addresses from start."""
    return bin(start >> lvl | 1 << (width - lvl))[3:] + "*" * lvl  # the 1 keeps leading 0s


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


def _fall_through(table: RuleTable, runs: bool = True):
    """Where each rule's addresses fall when it is deleted, and the counts.

    Returns, per rule, its addresses as (owner, size) runs by their first
    match among the rules below it (owner len(rules) is unmatched), and the
    first-match address counts per target (runs=False may leave the runs None).

    Prefix tables, found in one pass that reads each rule's span from its
    care and value bits, are painted onto a sorted list of segment starts
    with owners, last rule first: just before rule i is painted, the map
    shows every address's first match below i.  The starts end in a
    sentinel, 2**width; each paint keeps the head of the segment it starts
    in and rewrites the rest of its span with [lo] or [lo, hi], so the pass
    is O(n log n) plus list-slice moves.  Runs are built only when asked
    for.  General tables of up to _IE_RULE_LIMIT rules run bottom-up by
    inclusion-exclusion, rule i taking its addresses from the owners its
    runs name; larger ones claim address sets top-down.
    """
    rules = table.rules
    n = len(rules)
    end = 1 << table.width
    below = [None] * n
    spans = []  # each rule's [lo, hi), up to the first rule that is not a prefix
    for r in rules:
        low = (end - 1) ^ r.pattern.care  # the wildcards, if they are the low bits
        if low & (low + 1):
            break
        spans.append((r.pattern.value, r.pattern.value + low + 1))
    if len(spans) == n:
        starts, owners = [0, end], [n]  # segment s is [starts[s], starts[s + 1])
        for i in range(n - 1, -1, -1):
            lo, hi = spans[i]
            j = bisect_right(starts, lo) - 1
            m = bisect_left(starts, hi, j)
            if runs and m == j + 1:  # inside one segment
                below[i] = [(owners[j], hi - lo)]
            elif runs:
                edges = [lo, *starts[j + 1:m], hi]
                below[i] = list(zip(owners[j:m], map(sub, edges[1:], edges[:-1])))
            j += starts[j] < lo  # segment j keeps its head
            if hi < starts[m]:  # segment m - 1 keeps its tail
                starts[j:m], owners[j:m] = [lo, hi], [i, owners[m - 1]]
            else:
                starts[j:m], owners[j:m] = [lo], [i]
        final = zip(owners, map(sub, starts[1:], starts))
    elif n > _IE_RULE_LIMIT and table.width > _BITSET_WIDTH_LIMIT:
        raise TooLargeToEvaluate(f"{n} general rules at width {table.width}")
    elif n > _IE_RULE_LIMIT and runs and n * n << max(table.width, 13) > _WALK_BUDGET:
        raise TooLargeToEvaluate(f"{n} general rules at width {table.width} to resequence")
    elif n > _IE_RULE_LIMIT:
        below, final = _owner_sets([r.pattern for r in rules], table.width, runs)
    else:
        pats = [r.pattern for r in rules]
        owned = [0] * n + [end]
        for i in range(n - 1, -1, -1):
            cuts = [
                (u, _excl_count(intersect_two(pats[i], pats[u]), pats[i + 1:u]))
                for u in range(i + 1, n)
            ]
            cuts.append((n, pats[i].count - sum(cut for _, cut in cuts)))
            below[i] = [(u, cut) for u, cut in cuts if cut]
            for u, cut in below[i]:
                owned[u] -= cut
            owned[i] = pats[i].count
        final = enumerate(owned)
    targets = [r.target for r in rules] + [0]
    counts = [0] * (table.k + 1)
    for owner, size in final:
        counts[targets[owner]] += size
    return below, counts


def _owner_sets(pats: list[TernaryPattern], width: int, runs: bool):
    """_fall_through's runs (None unless asked for) and final (owner, size)
    pairs, by address sets as ints over chunks of 2**_CHUNK_BITS addresses (the
    high bits fixed, which a pattern's care bits must match): bit a of a set is
    low address a.  Both are one top-down claim: free addresses go to each rule
    from the first in turn, until none are left.  The counts claim the chunk
    from rule 0, and rule i's runs claim its own addresses from rule i+1."""
    n, low = len(pats), min(width, _CHUNK_BITS)
    sets = []  # a pattern's low addresses: its value plus each sum of wildcard bits
    for p in pats:
        s = 1
        for b in range(low):  # a care bit shifts by 0, which leaves s as it is
            s |= s << ((~p.care >> b & 1) << b)
        sets.append(s << (p.value & ((1 << low) - 1)))

    def claim(free, first, into):  # into: owner -> addresses claimed; owner n is unmatched
        for u in range(first, n):
            cut = live[u] & free
            if cut:
                into[u] = into.get(u, 0) + cut.bit_count()
                free ^= cut
                if not free:
                    return
        into[n] = into.get(n, 0) + free.bit_count()

    below, owned, whole = [{} for _ in range(n)], {}, (1 << (1 << low)) - 1
    for high in range(0, 1 << width, 1 << low):
        live = [0 if (high ^ p.value) & (p.care >> low << low) else s for p, s in zip(pats, sets)]
        claim(whole, 0, owned)
        for i in range(n if runs else 0):
            if live[i]:
                claim(live[i], i + 1, below[i])
    return ([r.items() for r in below] if runs else None), owned.items()


def evaluate_table(table: RuleTable) -> list[int]:
    """Exact address counts per target, index 0..k (0 = unmatched)."""
    return _fall_through(table, runs=False)[1]


def table_to_sequence(table: RuleTable) -> tuple[Transaction, ...]:
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
        if len(runs) == 1:  # one group, as in every rule of a synthesized table
            (owner, size), = runs
            if targets[owner] != rule.target:
                txs.append(Transaction(rule.target, targets[owner], size))
            continue
        moved: dict[int, int] = {}
        # groups in order of their first lower rule; unmatched sorts last
        for owner, size in sorted(runs):
            moved[targets[owner]] = moved.get(targets[owner], 0) + size
        for tgt, cnt in moved.items():
            if tgt != rule.target:
                txs.append(Transaction(rule.target, tgt, cnt))
    return tuple(txs)


# --- text interchange -----------------------------------------------------

def table_to_text(table: RuleTable) -> str:
    return "\n".join([f"{r.pattern} {r.target}" for r in table.rules])


def table_from_text(text: str, width: int | None = None) -> RuleTable:
    def rule(line):
        try:
            pat_text, target = ("", line) if width == 0 else line.split()  # width 0: a target alone
            target = int(target)
        except ValueError:
            raise ValueError(f"expected '<pattern> <target>', got {line!r}") from None
        return Rule(TernaryPattern.parse(pat_text), target)

    rules = parse_lines(text, rule)
    if width is None and not rules:
        raise IncompleteCover("no rules given")
    return RuleTable(rules[0].pattern.width if width is None else width, tuple(rules))
