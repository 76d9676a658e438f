"""Reference computations the benchmark checks outputs against.

Nothing here calls into tcamsplit: each function re-derives what an output
must be from the input alone, with arithmetic of its own, so a defect in the
function under test cannot also hide in its check.
"""
from __future__ import annotations


def naf_weight(n: int) -> int:
    """Number of non-zero digits of the non-adjacent form of n >= 0."""
    count = 0
    while n:
        if n & 1:
            n -= 2 - (n & 3)  # the digit is +1 when n % 4 == 1, else -1
            count += 1
        n >>= 1
    return count


def lpm_bounds(weights) -> tuple[int, int]:
    """(lower, upper) bounds on the prefix rule count, from the digit counts."""
    digits = [naf_weight(w) for w in weights]
    total = sum(digits)
    return (total + 2) // 2, total + 1 - max(digits)


def prefix_interval(pattern: str, width: int) -> tuple[int, int]:
    """[lo, hi) address range of a prefix pattern; ValueError if not one."""
    fixed = pattern.rstrip("*")
    if len(pattern) != width or set(fixed) - {"0", "1"}:
        raise ValueError(f"{pattern!r} is not a width-{width} prefix pattern")
    span = 1 << (width - len(fixed))
    lo = int(fixed, 2) * span if fixed else 0
    return lo, lo + span


def first_match_counts(rules, width: int) -> dict[int, int]:
    """Addresses each target receives under first-match priority.

    rules: (lo, hi, target) intervals in priority order.  The address space
    is cut at every interval end; each elementary segment goes to the first
    rule covering it, found by skipping already-owned segments with a
    union-find "next free segment" pointer.  Key 0 holds unmatched addresses.
    """
    points = sorted({0, 1 << width, *(x for lo, hi, _ in rules for x in (lo, hi))})
    index = {p: i for i, p in enumerate(points)}
    owner = [0] * (len(points) - 1)
    free = list(range(len(points)))  # free[i] == i while segment i is unowned

    def next_free(i: int) -> int:
        while free[i] != i:
            free[i] = free[free[i]]
            i = free[i]
        return i

    for lo, hi, target in rules:
        end = index[hi]
        i = next_free(index[lo])
        while i < end:
            owner[i] = target
            free[i] = i + 1
            i = next_free(i + 1)
    counts: dict[int, int] = {}
    for i, target in enumerate(owner):
        counts[target] = counts.get(target, 0) + points[i + 1] - points[i]
    return counts


def parse_compile_output(text: str, width: int):
    """Rules and footer fields of `tcamsplit compile` table output."""
    lines = text.rstrip("\n").split("\n")
    footer = lines.pop()
    if not footer.startswith("# "):
        raise ValueError(f"last line {footer!r} is not the footer")
    fields = dict(tok.split("=", 1) for tok in footer[2:].split())
    rules = []
    for line in lines:
        pattern, target = line.split()
        rules.append((*prefix_interval(pattern, width), int(target)))
    return rules, {key: int(val) for key, val in fields.items()}


def zeroed(width: int, weights, transactions) -> bool:
    """True when the moves bring (-2**width, w_1..w_k) to all zero."""
    values = [-(1 << width), *weights]
    for src, dst, size in transactions:
        if not (0 <= src < len(values) and 0 <= dst < len(values)):
            return False
        values[src] -= size
        values[dst] += size
    return not any(values)


def mean_abs_walk(p: float, n: int) -> float:
    """E|S_n| of a walk stepping +1 and -1 with probability p each."""
    dist = {0: 1.0}
    for _ in range(n):
        nxt: dict[int, float] = {}
        for x, q in dist.items():
            for step, w in ((-1, p), (0, 1 - 2 * p), (1, p)):
                nxt[x + step] = nxt.get(x + step, 0.0) + w * q
        dist = nxt
    return sum(abs(x) * q for x, q in dist.items())


def rules_per_bit_envelope(k: int) -> tuple[float, float]:
    """Acceptance envelope of mean lambda/(k*W) at large W: 1/6 - 0.02 up to
    1/6 + c(k) + 0.02, with c(k) = (1 + E|S_(k-1)|) / 2k at p = 1/6."""
    c = (1 + mean_abs_walk(1 / 6, k - 1)) / (2 * k)
    return 1 / 6 - 0.02, 1 / 6 + c + 0.02


def sorted_partitions(total: int, parts: int, smallest: int = 1):
    """Non-decreasing tuples of at most `parts` positive integers summing to total."""
    if total == 0:
        yield ()
        return
    if parts == 0:
        return
    for first in range(smallest, total + 1):
        for rest in sorted_partitions(total - first, parts - 1, first):
            yield (first, *rest)
