"""Transaction-sequence generators and the minimality oracle.

bit-matcher output length equals the minimum prefix rule count; the random
and signed variants are for average-case experiments, and the anchor
construction realizes the signed-digit upper bound exactly.
"""
from __future__ import annotations

import random
from collections import deque

from .core import Partition, Transaction, TransactionSequence
from .errors import InstanceTooLarge, InternalInvariantViolated
from .signed import naf_count, naf_decompose


def _bitlex_key(w: int, width: int) -> str:
    # reversed fixed-width binary: integer comparison of the bit-reversed value
    return format(w, f"0{width}b")[::-1]


def _check_weights(p: Partition) -> None:
    # a negative weight would put "-" into a bit key or give a plane infinite bits
    if not p.weights or min(p.weights) < 0:
        raise InternalInvariantViolated("need a non-empty list of non-negative weights")


def bit_matcher(p: Partition) -> TransactionSequence:
    """Optimal zeroing sequence.

    Per level d: the indices with bit d set are split into halves by
    bit-lexicographic order; each of the smaller half donates 2**d to its
    counterpart in the larger half.  A final move sends the surviving
    2**width weight to target 0.
    """
    _check_weights(p)
    width = p.width
    weights = list(p.weights)
    txs: list[Transaction] = []
    for d in range(width):
        act = [i for i in range(p.k) if (weights[i] >> d) & 1]
        if len(act) % 2:
            raise InternalInvariantViolated(f"odd active set at level {d}")
        act.sort(key=lambda i: (_bitlex_key(weights[i], width), i))
        half = len(act) // 2
        size = 1 << d
        for i, j in zip(act[:half], act[half:]):
            txs.append(Transaction(i + 1, j + 1, size))
            weights[i] -= size
            weights[j] += size
    survivors = [i for i in range(p.k) if weights[i]]
    if len(survivors) != 1 or weights[survivors[0]] != 1 << width:
        raise InternalInvariantViolated("matcher did not converge to 2**width")
    txs.append(Transaction(survivors[0] + 1, 0, 1 << width))
    return TransactionSequence(tuple(txs), width, p.k)


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
    lowest index.  Receivers gain 2**d by a carry-add into the planes above.
    """
    _check_weights(p)
    width = p.width
    # no weight outgrows the sum, so the carries stay inside these planes
    planes = _bit_planes(p.weights, max(width + 1, sum(p.weights).bit_length()))
    top = len(planes)
    lam = 1
    for d in range(width):
        act = planes[d]
        if not act:
            continue
        size = act.bit_count()
        if size % 2:
            raise InternalInvariantViolated(f"odd active set at level {d}")
        need = size // 2
        lam += need
        donors, cand = 0, act  # the other `need` donors are still in cand
        e = d + 1
        while need != size and e < top:
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
        carry = act & ~(donors | cand)
        e = d + 1
        while carry:
            plane = planes[e]
            planes[e] = plane ^ carry
            carry &= plane
            e += 1
    if planes[width].bit_count() != 1 or any(planes[width + 1:]):
        raise InternalInvariantViolated("matcher did not converge to 2**width")
    return lam


def min_rules_below(p: Partition, m: int) -> int:
    """Count of optimal-sequence transactions with level < m."""
    return sum(1 for t in bit_matcher(p) if t.level < m)


def random_matcher(p: Partition, rng: random.Random) -> TransactionSequence:
    """Uniform random pairing per level; direction decided by bit d+1."""
    width = p.width
    weights = list(p.weights)
    txs: list[Transaction] = []
    for d in range(width):
        act = [i for i in range(p.k) if (weights[i] >> d) & 1]
        if len(act) % 2:
            raise InternalInvariantViolated(f"odd active set at level {d}")
        rng.shuffle(act)
        size = 1 << d
        for i, j in zip(act[::2], act[1::2]):
            bi = (weights[i] >> (d + 1)) & 1
            bj = (weights[j] >> (d + 1)) & 1
            if bi > bj or (bi == bj and rng.getrandbits(1)):
                i, j = j, i
            txs.append(Transaction(i + 1, j + 1, size))
            weights[i] -= size
            weights[j] += size
    survivors = [i for i in range(p.k) if weights[i]]
    if len(survivors) != 1 or weights[survivors[0]] != 1 << width:
        raise InternalInvariantViolated("matcher did not converge to 2**width")
    txs.append(Transaction(survivors[0] + 1, 0, 1 << width))
    return TransactionSequence(tuple(txs), width, p.k)


def signed_matcher(p: Partition) -> TransactionSequence:
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
    return TransactionSequence(tuple(txs), width, p.k)


def anchor_sequence(p: Partition) -> TransactionSequence:
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
    txs = tuple(
        Transaction(i, anchor, 1 << lvl) if sign > 0 else Transaction(anchor, i, 1 << lvl)
        for lvl, i, sign in entries
    )
    return TransactionSequence(txs, p.width, p.k)


# --- brute-force oracle ---------------------------------------------------

def _successors(state: tuple[int, ...], sizes: list[int], lo: int, hi: int):
    """All states one transaction away (targets include the unallocated pool,
    which is unconstrained)."""
    n = len(state)
    for i in range(n):
        v = state[i]
        for s in sizes:
            dec = v - s
            if dec >= lo:
                rest = state[:i] + state[i + 1:]
                # to the pool
                yield tuple(sorted(rest + (dec,)))
                # to another slot
                for j in range(n - 1):
                    w = rest[j] + s
                    if w <= hi:
                        yield tuple(sorted(rest[:j] + (w,) + rest[j + 1:] + (dec,)))
            inc = v + s
            if inc <= hi:
                # from the pool
                yield tuple(sorted(state[:i] + (inc,) + state[i + 1:]))


def _oracle_sizes(width: int) -> list[int]:
    return [1 << lvl for lvl in range(width + 2)]


def brute_force_lambda(p: Partition, allow_negative: bool = False) -> int:
    """Exact minimum zeroing-sequence length by breadth-first search over
    sorted weight multisets.  Desk-scale only."""
    if (1 << p.width) > 256 or p.k > 5:
        raise InstanceTooLarge("oracle limited to 2**width <= 256 and k <= 5")
    hi = 1 << (p.width + 1)
    lo = -hi if allow_negative else 0
    sizes = _oracle_sizes(p.width)
    start = tuple(sorted(p.weights))
    goal = (0,) * p.k
    if start == goal:
        return 0
    dist = {start: 0}
    frontier = deque([start])
    while frontier:
        state = frontier.popleft()
        d = dist[state] + 1
        for nxt in _successors(state, sizes, lo, hi):
            if nxt == goal:
                return d
            if nxt not in dist:
                dist[nxt] = d
                frontier.append(nxt)
    raise InternalInvariantViolated("zero state unreachable")


def zeroing_distances(
    width: int, slots: int, allow_negative: bool = False, max_depth: int = 8
) -> dict[tuple[int, ...], int]:
    """Distances-to-zero for every sorted state within max_depth transactions.

    One backward search from the all-zero state; the move set is symmetric,
    so these are exact minimum zeroing lengths.  Extra zero slots subsume
    smaller k (the pool can simulate any scratch slot).
    """
    if (1 << width) > 256 or slots > 5:
        raise InstanceTooLarge("oracle limited to 2**width <= 256 and k <= 5")
    hi = 1 << (width + 1)
    lo = -hi if allow_negative else 0
    sizes = _oracle_sizes(width)
    goal = (0,) * slots
    dist = {goal: 0}
    frontier = [goal]
    for depth in range(1, max_depth + 1):
        nxt_frontier = []
        for state in frontier:
            for nxt in _successors(state, sizes, lo, hi):
                if nxt not in dist:
                    dist[nxt] = depth
                    nxt_frontier.append(nxt)
        frontier = nxt_frontier
    return dist
