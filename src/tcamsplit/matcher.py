"""Transaction-sequence generators and the minimality oracle.

bit-matcher output length equals the minimum prefix rule count; the random
and signed variants are for average-case experiments, and the anchor
construction realizes the signed-digit upper bound exactly.
"""
from __future__ import annotations

import math
import random
from itertools import accumulate, groupby
from operator import itemgetter

from .core import Partition, Transaction
from .errors import InstanceTooLarge, InternalInvariantViolated
from .signed import naf_count, naf_decompose


def _level_loop(p: Partition, pair=None) -> tuple[int, int]:
    """(lambda, survivor index) of the level loop on read-only bit planes.

    At level d, half of the indices with bit d set donate 2**d to the other
    half; receivers gain it through one carry mask, and no active index has a
    carry pending above d, so its bits above d are as read.  Without pair the
    donors are bit_matcher's, only counted: the first half of the active set
    by bits d+1, d+2, ... with zeros first, then the lowest index.  With pair,
    pair(act, d, planes) gets the active indices in ascending order, records
    its moves and returns the donor mask.  lambda counts every move.
    """
    width = p.width
    # every weight stays in 0..2**width, so no carry leaves plane width
    planes = _bit_planes(p.weights, width + 1)
    lam, carry = 1, 0
    for d in range(width):
        act = planes[d] ^ carry
        if not act:  # then planes[d] == carry: every carry moves up a level
            continue
        size = act.bit_count()
        if size % 2:
            raise InternalInvariantViolated(f"odd active set at level {d}")
        need = size // 2
        lam += need
        if pair is not None:
            ix, rest = [], act
            while rest:
                ix.append((rest & -rest).bit_length() - 1)
                rest &= rest - 1
            donors = pair(ix, d, planes)
        else:
            donors, cand = 0, act  # the other `need` donors are still in cand
            e = d + 1
            while need != size and e <= width:
                zeros = cand & ~planes[e]
                z = zeros.bit_count()
                if z >= need:
                    cand, size = zeros, z
                else:
                    donors |= zeros
                    cand ^= zeros
                    need -= z
                    size -= z
                e += 1
            if need < size:  # tied keys are equal weights; the lowest indices donate
                rest = cand
                for _ in range(need):
                    rest &= rest - 1
                cand ^= rest
            donors |= cand
        carry = (planes[d] & carry) | (act & ~donors)  # receivers gain 2**d
    last = planes[width] ^ carry
    if planes[width] & carry or last.bit_count() != 1:
        raise InternalInvariantViolated("matcher did not converge to 2**width")
    return lam, last.bit_length() - 1


def _bit_moves(p: Partition) -> list[tuple[int, int, int]]:
    """Optimal zeroing sequence as plain (src, dst, size) moves.

    Per level d: the active indices are split into halves by
    bit-lexicographic order; each of the smaller half donates 2**d to its
    counterpart in the larger half.  A final move sends the surviving
    2**width weight to target 0.
    """
    rev, moves = [bin(w)[:1:-1] for w in p.weights], []  # each weight's bits, lowest first

    def halves(act, d, planes):
        # bits above d, least significant first: string order is bit-reversed
        # value order, as with zero padding, since a key that is a prefix of
        # another sorts first; the sort is stable, so tied keys keep index order
        act.sort(key=lambda i: rev[i][d + 1:])
        half, size, donors = len(act) // 2, 1 << d, 0
        for i, j in zip(act[:half], act[half:]):
            moves.append((i + 1, j + 1, size))
            donors |= 1 << i
        return donors

    moves.append((_level_loop(p, halves)[1] + 1, 0, 1 << p.width))
    return moves


def bit_matcher(p: Partition) -> tuple[Transaction, ...]:
    """Optimal zeroing sequence: _bit_moves as Transactions."""
    return tuple(map(Transaction._make, _bit_moves(p)))


def _bit_planes(weights: tuple[int, ...], count: int) -> list[int]:
    """planes[d] has bit i set iff bit d of weights[i] is set (weights >= 0)."""
    fmt = f"0{count}b"
    rows = "".join([format(w, fmt) for w in reversed(weights)])
    return [int(rows[j::count], 2) for j in range(count - 1, -1, -1)]


def min_rules(p: Partition) -> int:
    """Minimum prefix rule count realizing p: len(bit_matcher(p)), counted."""
    return _level_loop(p)[0]


def random_matcher(p: Partition, rng: random.Random) -> tuple[Transaction, ...]:
    """Uniform random pairing per level; direction decided by bit d+1."""
    moves = []

    def shuffled(act, d, planes):
        rng.shuffle(act)
        up, size, donors = planes[d + 1], 1 << d, 0
        for i, j in zip(act[::2], act[1::2]):
            bi, bj = up >> i & 1, up >> j & 1
            if bi > bj or (bi == bj and rng.getrandbits(1)):
                i, j = j, i
            moves.append((i + 1, j + 1, size))
            donors |= 1 << i
        return donors

    moves.append((_level_loop(p, shuffled)[1] + 1, 0, 1 << p.width))
    return tuple(map(Transaction._make, moves))


def _digits(p: Partition) -> list[tuple[int, int, int]]:
    """Every non-zero NAF digit of the parts as (level, part, sign), parts 1-based.

    Once a part's digits below d are settled, its live value is its digits
    from d up, a non-adjacent string and so that value's NAF: one
    naf_decompose per part serves every level.
    """
    digits = []
    for i, w in enumerate(p.weights, 1):
        plus, minus = naf_decompose(w)
        for mask, sign in ((plus, 1), (minus, -1)):
            while mask:
                low = mask & -mask
                digits.append((low.bit_length() - 1, i, sign))
                mask ^= low
    return digits


def signed_matcher(p: Partition) -> tuple[Transaction, ...]:
    """Pair +1 digits against -1 digits of the live weights, level by level.

    Unpaired digits are settled against target 0, so the unallocated pool
    may be touched mid-sequence.  Level width holds the final full blocks.
    """
    txs: list[Transaction] = []
    for d, level in groupby(sorted(_digits(p)), key=itemgetter(0)):
        if d > p.width:
            raise InternalInvariantViolated(f"NAF digit at level {d} above width {p.width}")
        plus, minus, size = [], [], 1 << d
        for _, i, sign in level:
            (plus if sign > 0 else minus).append(i)
        txs += [Transaction(i, j, size) for i, j in zip(plus, minus)]
        txs += [Transaction(i, 0, size) for i in plus[len(minus):]]
        txs += [Transaction(0, j, size) for j in minus[len(plus):]]
    return tuple(txs)


def anchor_sequence(p: Partition) -> tuple[Transaction, ...]:
    """Sequence of length phi_total + 1 - phi_max settling every non-anchor
    digit directly against the part with the most non-zero digits.

    x_0 = -2**width counts as a candidate with a single digit.  Negative
    intermediates are possible; the result is for bound demonstration.
    """
    counts = [1] + [naf_count(w) for w in p.weights]
    anchor = max(range(p.k + 1), key=lambda i: (counts[i], -i))
    return tuple(
        Transaction(i, anchor, 1 << lvl) if sign > 0 else Transaction(anchor, i, 1 << lvl)
        for lvl, i, sign in sorted([(p.width, 0, -1), *_digits(p)])
        if i != anchor
    )


# --- brute-force oracle ---------------------------------------------------

def _breadth_first(start, width, allow_negative, max_depth=math.inf, goal=None):
    """Distances from start to every sorted state, searched level by level.

    A move takes 2**lvl (lvl <= width + 1) from a slot or the unallocated
    pool, which is unconstrained, and gives it to another slot or the pool;
    the values it makes stay in [lo, hi].  A state is looked up by an exact
    integer key: the power sums u**1 .. u**k over its values, shifted to
    u = v - lo >= 0, each in a bit field wide enough for it.  Power sums
    1..k fix a multiset of k values (Newton's identities).  A move changes
    the key by one table entry per value it changes, so only a new state is
    sorted into a tuple.  Stops after max_depth levels, or once goal is
    reached, or when no new state is left.
    """
    if (1 << width) > 256 or len(start) > 5:
        raise InstanceTooLarge("oracle limited to 2**width <= 256 and k <= 5")
    hi = 1 << (width + 1)
    lo = -hi if allow_negative else 0
    sizes = [1 << lvl for lvl in range(width + 2)]
    k = len(start)
    # field m holds a sum of k values u**m <= (hi - lo)**m
    bits = [(k * (hi - lo) ** m).bit_length() for m in range(1, k)]
    shifts = list(accumulate(bits, initial=0))
    entry = {}
    for v in range(lo, hi + 1):
        u = power = v - lo
        key = 0
        for shift in shifts:
            key += power << shift
            power *= u
        entry[v] = key
    start_key = sum(entry[v] for v in start)
    goal_key = None if goal is None else sum(entry[v] for v in goal)
    seen = {start_key}
    dist = {start: 0}
    frontier = [(start, start_key)]
    depth = 0
    while frontier and depth < max_depth and goal_key not in seen:
        depth += 1
        level, frontier = frontier, []
        for state, key in level:
            prev = None
            for i, v in enumerate(state):
                if v == prev:  # state is sorted: equal values, equal moves
                    continue
                prev = v
                rest = state[:i] + state[i + 1:]
                key_i = key - entry[v]
                for s in sizes:  # to the pool, or to another slot
                    dec = v - s
                    if dec < lo:
                        break
                    key_d = key_i + entry[dec]
                    if key_d not in seen:
                        seen.add(key_d)
                        nxt = tuple(sorted(rest + (dec,)))
                        dist[nxt] = depth
                        frontier.append((nxt, key_d))
                    last = None
                    for j, w in enumerate(rest):
                        if w == last:
                            continue
                        last = w
                        inc = w + s
                        if inc > hi:
                            break
                        key_j = key_d - entry[w] + entry[inc]
                        if key_j not in seen:
                            seen.add(key_j)
                            nxt = tuple(sorted(rest[:j] + (inc,) + rest[j + 1:] + (dec,)))
                            dist[nxt] = depth
                            frontier.append((nxt, key_j))
                for s in sizes:  # from the pool
                    inc = v + s
                    if inc > hi:
                        break
                    key_p = key_i + entry[inc]
                    if key_p not in seen:
                        seen.add(key_p)
                        nxt = tuple(sorted(rest + (inc,)))
                        dist[nxt] = depth
                        frontier.append((nxt, key_p))
            if goal_key in seen:
                break
    return dist


def brute_force_lambda(p: Partition, allow_negative: bool = False) -> int:
    """Exact minimum zeroing-sequence length by breadth-first search over
    sorted weight multisets.  Desk-scale only."""
    goal = (0,) * p.k
    dist = _breadth_first(tuple(sorted(p.weights)), p.width, allow_negative, goal=goal)
    if goal not in dist:
        raise InternalInvariantViolated("zero state unreachable")
    return dist[goal]


def zeroing_distances(
    width: int, slots: int, allow_negative: bool = False, max_depth: int = 8
) -> dict[tuple[int, ...], int]:
    """Distances-to-zero for every sorted state within max_depth transactions.

    One backward search from the all-zero state; the move set is symmetric,
    so these are exact minimum zeroing lengths.  Extra zero slots subsume
    smaller k (the pool can simulate any scratch slot).
    """
    return _breadth_first((0,) * slots, width, allow_negative, max_depth)
