"""Ternary / prefix rule tables: synthesis, exact evaluation, intersection."""
from __future__ import annotations

from bisect import bisect_left, bisect_right, insort
from dataclasses import dataclass
from operator import sub

from .core import MAX_TARGET, MAX_WIDTH, Partition, Transaction, TransactionSequence
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
_BITSET_WIDTH_LIMIT = 24
_CHUNK_BITS = 16  # an owner set holds 2**16 addresses, 8 KiB
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
        assert self.is_prefix()
        return self.care.bit_count()

    def interval(self) -> tuple[int, int]:
        """[lo, hi) address range; prefix patterns only."""
        assert self.is_prefix()
        return self.value, self.value + self.count

    def __str__(self) -> str:
        wild = ((1 << self.width) - 1) ^ self.care
        w = wild.bit_length()
        if w < self.width and not (wild & (wild + 1) or self.value & wild):  # a prefix
            return format(self.value >> w, f"0{self.width - w}b") + "*" * w
        if not self.width:
            return ""  # format(0, "00b") is "0"
        # bits read as decimal digits, 1 = set and 2 = wildcard: nothing carries
        fmt = f"0{self.width}b"
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
    return _table_from_sequence(bit_matcher(p))


def _table_from_sequence(seq: TransactionSequence) -> RuleTable:
    """synthesize_lpm's table for its sequence seq = bit_matcher(p)."""
    width = seq.width
    last = seq.transactions[-1]
    rules = [Rule(TernaryPattern.from_block(width, 0, width), last.src)]
    # target -> its sorted runs; sizes only fall, so run starts stay aligned
    runs: dict[int, list[tuple[int, int]]] = {last.src: [(0, 1 << width)]}
    for t in reversed(seq.transactions[:-1]):
        size, lvl = t.size, t.size.bit_length() - 1
        holding = runs.get(t.dst) or [(0, 0)]  # an empty run fails the guard
        start, end = holding[0]
        if end - start < size or start % size:
            raise InternalInvariantViolated(f"no block of size 2**{lvl} held by target {t.dst}")
        holding[:1] = [(start + size, end)] if end - start > size else []
        rules.append(Rule(TernaryPattern.from_block(width, start, lvl), t.src))
        insort(runs.setdefault(t.src, []), (start, start + size))
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
    list-slice moves.  General tables run bottom-up, rule i taking its
    addresses from the owners its runs name: by inclusion-exclusion up to
    _IE_RULE_LIMIT rules, else by owner address sets.
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
    elif n > _IE_RULE_LIMIT and table.width > _BITSET_WIDTH_LIMIT:
        raise TooLargeToEvaluate(f"{n} general rules at width {table.width}")
    elif n > _IE_RULE_LIMIT:
        below, final = _owner_sets([r.pattern for r in rules], table.width)
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


def _owner_sets(pats: list[TernaryPattern], width: int):
    """_fall_through's runs and final (owner, size) pairs, by address sets as
    ints over chunks of 2**_CHUNK_BITS addresses (the high bits fixed, which a
    pattern's care bits must match): bit a of a set is low address a, and
    owner[u] holds the addresses whose first match so far is rule u."""
    n, low = len(pats), min(width, _CHUNK_BITS)
    sets = []  # a pattern's low addresses: its value plus each sum of wildcard bits
    for p in pats:
        s = 1
        for b in range(low):  # a care bit shifts by 0, which leaves s as it is
            s |= s << ((~p.care >> b & 1) << b)
        sets.append(s << (p.value & ((1 << low) - 1)))
    runs, owned = [{} for _ in range(n)], [0] * (n + 1)
    for high in range(0, 1 << width, 1 << low):
        owner = [0] * n + [(1 << (1 << low)) - 1]
        for i, p in zip(range(n - 1, -1, -1), reversed(pats)):
            owner[i] = rest = 0 if (high ^ p.value) & (p.care >> low << low) else sets[i]
            u = i
            while rest:  # owners i+1..n partition the chunk, so u stops by n
                u += 1
                cut = owner[u] & rest
                if cut:
                    owner[u] ^= cut
                    runs[i][u] = runs[i].get(u, 0) + cut.bit_count()
                    rest ^= cut
        for u, s in enumerate(owner):
            owned[u] += s.bit_count()
    return [sorted(r.items()) for r in runs], enumerate(owned)


def evaluate_table(table: RuleTable) -> list[int]:
    """Exact address counts per target, index 0..k (0 = unmatched)."""
    return _fall_through(table)[1]


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
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        try:
            pat_text, target = line.split()
            target = int(target)
        except ValueError:
            raise ValueError(
                f"line {lineno}: expected '<pattern> <target>', got {line!r}") from None
        pat = TernaryPattern.parse(pat_text)
        if width is None:
            width = pat.width
        rules.append(Rule(pat, target))
    if width is None:
        raise IncompleteCover("no rules given")
    k = max((r.target for r in rules), default=0)
    return RuleTable(width, tuple(rules), k)


def table_to_json_obj(table: RuleTable) -> dict:
    return {
        "width": table.width,
        "rules": [{"pattern": str(r.pattern), "target": r.target} for r in table.rules],
    }
