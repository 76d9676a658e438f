"""Transaction-sequence generators and the minimality oracle.

bit-matcher output length equals the minimum prefix rule count; the random
and signed variants are for average-case experiments, and the anchor
construction realizes the signed-digit upper bound exactly.
"""
from __future__ import annotations

import math
import random
from itertools import accumulate

from .core import Partition, Transaction
from .errors import InstanceTooLarge, InternalInvariantViolated
from .signed import naf_count, naf_decompose


def _level_loop(p: Partition, pair) -> list[tuple[int, int, int]]:
    """Zero the weights level by level, then send the 2**width survivor to 0.

    At level d, pair(act, weights, d) pairs up the indices with bit d set, in
    ascending order; each pair (i, j) is a plain move (i + 1, j + 1, 2**d).
    """
    width = p.width
    weights = list(p.weights)
    planes = _bit_planes(p.weights, width + 1)
    carry = 0  # the indices that carry 2**d into level d; the planes stay as read
    moves: list[tuple[int, int, int]] = []
    for d in range(width):
        act, rest = [], planes[d] ^ carry
        while rest:
            act.append((rest & -rest).bit_length() - 1)
            rest &= rest - 1
        if len(act) % 2:
            raise InternalInvariantViolated(f"odd active set at level {d}")
        size, receivers = 1 << d, 0
        for i, j in pair(act, weights, d):
            moves.append((i + 1, j + 1, size))
            weights[i] -= size
            weights[j] += size
            receivers |= 1 << j
        carry = (planes[d] & carry) | receivers
    survivors = [i for i in range(p.k) if weights[i]]
    if len(survivors) != 1 or weights[survivors[0]] != 1 << width:
        raise InternalInvariantViolated("matcher did not converge to 2**width")
    moves.append((survivors[0] + 1, 0, 1 << width))
    return moves


def _bit_moves(p: Partition) -> list[tuple[int, int, int]]:
    """Optimal zeroing sequence as plain (src, dst, size) moves.

    Per level d: the indices with bit d set are split into halves by
    bit-lexicographic order; each of the smaller half donates 2**d to its
    counterpart in the larger half.  A final move sends the surviving
    2**width weight to target 0.
    """

    def halves(act, weights, d):
        # binary, least significant bit first: string order is bit-reversed value
        # order, as with zero padding, since a key that is a prefix of another
        # sorts first; the sort is stable, so tied keys keep index order
        act.sort(key=lambda i: bin(weights[i])[:1:-1])
        half = len(act) // 2
        return zip(act[:half], act[half:])

    return _level_loop(p, halves)


def bit_matcher(p: Partition) -> tuple[Transaction, ...]:
    """Optimal zeroing sequence: _bit_moves as Transactions."""
    return tuple(map(Transaction._make, _bit_moves(p)))


def _bit_planes(weights: tuple[int, ...], count: int) -> list[int]:
    """planes[d] has bit i set iff bit d of weights[i] is set (weights >= 0)."""
    fmt = f"0{count}b"
    rows = "".join([format(w, fmt) for w in reversed(weights)])
    return [int(rows[j::count], 2) for j in range(count - 1, -1, -1)]


def min_rules(p: Partition) -> int:
    """Minimum prefix rule count realizing p: len(bit_matcher(p)), counted.

    Runs bit_matcher's level loop on bit planes without building the
    sequence.  The donors at level d are the first half of the active set in
    bit_matcher's order: bits d+1, d+2, ... with zeros first, then the
    lowest index.  The planes stay as read: receivers gain 2**d through one
    carry mask, and no index with bit d set has a carry pending above d.
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
        carry = (planes[d] & carry) | (act & ~(donors | cand))  # receivers gain 2**d
    if planes[width] & carry or (planes[width] ^ carry).bit_count() != 1:
        raise InternalInvariantViolated("matcher did not converge to 2**width")
    return lam


def random_matcher(p: Partition, rng: random.Random) -> tuple[Transaction, ...]:
    """Uniform random pairing per level; direction decided by bit d+1."""

    def shuffled(act, weights, d):
        rng.shuffle(act)
        for i, j in zip(act[::2], act[1::2]):
            bi = (weights[i] >> (d + 1)) & 1
            bj = (weights[j] >> (d + 1)) & 1
            if bi > bj or (bi == bj and rng.getrandbits(1)):
                i, j = j, i
            yield i, j

    return tuple(map(Transaction._make, _level_loop(p, shuffled)))


def signed_matcher(p: Partition) -> tuple[Transaction, ...]:
    """Pair +1 digits against -1 digits of the live weights, level by level.

    Unpaired digits are settled against target 0, so the unallocated pool
    may be touched mid-sequence.
    """
    width = p.width
    weights = list(p.weights)
    txs: list[Transaction] = []
    for d in range(width):
        plus_ix, minus_ix = [], []
        for i in range(p.k):
            plus, minus = naf_decompose(weights[i])
            if (plus >> d) & 1:
                plus_ix.append(i)
            elif (minus >> d) & 1:
                minus_ix.append(i)
        size = 1 << d
        for i, j in zip(plus_ix, minus_ix):
            txs.append(Transaction(i + 1, j + 1, size))
            weights[i] -= size
            weights[j] += size
        for i in plus_ix[len(minus_ix):]:
            txs.append(Transaction(i + 1, 0, size))
            weights[i] -= size
        for j in minus_ix[len(plus_ix):]:
            txs.append(Transaction(0, j + 1, size))
            weights[j] += size
    for i in range(p.k):
        if weights[i]:
            if weights[i] != 1 << width:
                raise InternalInvariantViolated("weight not a full block at the end")
            txs.append(Transaction(i + 1, 0, 1 << width))
    return tuple(txs)


def anchor_sequence(p: Partition) -> tuple[Transaction, ...]:
    """Sequence of length phi_total + 1 - phi_max settling every non-anchor
    digit directly against the part with the most non-zero digits.

    x_0 = -2**width counts as a candidate with a single digit.  Negative
    intermediates are possible; the result is for bound demonstration.
    """
    counts = [1] + [naf_count(w) for w in p.weights]
    anchor = max(range(p.k + 1), key=lambda i: (counts[i], -i))
    entries: list[tuple[int, int, int]] = []  # (level, index, sign)
    for i in range(p.k + 1):
        if i == anchor:
            continue
        if i == 0:
            entries.append((p.width, 0, -1))
            continue
        plus, minus = naf_decompose(p.weights[i - 1])
        for mask, sign in ((plus, 1), (minus, -1)):
            while mask:
                low = mask & -mask
                entries.append((low.bit_length() - 1, i, sign))
                mask ^= low
    entries.sort(key=lambda e: (e[0], e[1]))
    return tuple(
        Transaction(i, anchor, 1 << lvl) if sign > 0 else Transaction(anchor, i, 1 << lvl)
        for lvl, i, sign in entries
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
