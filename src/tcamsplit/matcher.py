"""Transaction-sequence generators and the minimality oracle.

bit-matcher output length equals the minimum prefix rule count; the random
and signed variants are for average-case experiments, and the anchor
construction realizes the signed-digit upper bound exactly.
"""
from __future__ import annotations

import functools
import math
import random
from itertools import accumulate, compress, groupby, zip_longest
from operator import itemgetter

from .core import Partition
from .errors import BadOracleInput, InstanceTooLarge, InternalInvariantViolated
from .signed import naf_count, naf_decompose

_NUL = bytes.maketrans(b"0", b"\0")  # a digit string's 0s to false bytes


def _level_loop(p: Partition, pairs=None) -> tuple[int, list[tuple[int, int, int]]]:
    """(lambda, moves) of the level loop on read-only bit planes.

    At level d, half of the indices with bit d set donate 2**d to the other
    half; receivers gain it through one carry mask, and no active index has a
    carry pending above d, so its bits above d are as read.  Without pairs the
    donors are bit_matcher's, only counted, and moves stays empty: the first
    half of the active set by bits d+1, d+2, ... with zeros first, then the
    lowest index.  With pairs, pairs(act, d) gets the active indices in
    ascending order and returns the level's (donor, receiver) index pairs;
    moves holds each as a 1-based (src, dst, 2**d), then the survivor's
    (s, 0, 2**width).  lambda counts every move.
    """
    width = p.width
    # every weight stays in 0..2**width, so no carry leaves plane width
    planes = _bit_planes(p.weights, width + 1)
    lam, carry, moves = 1, 0, []
    for d in range(width):
        act = planes[d] ^ carry
        if not act:  # then planes[d] == carry: every carry moves up a level
            continue
        size = act.bit_count()
        if size % 2:
            raise InternalInvariantViolated(f"odd active set at level {d}")
        need = size // 2
        lam += need
        # dense: list act by one O(k) scan (byte i of keep is bit i), which beats
        # popping its bits, O(k) each, past about k / 10 indices or 256 (measured)
        if pairs is not None and size > 16 and size * 10 > min(act.bit_length(), 2560):
            keep, step = bytearray(bin(act)[:1:-1], "ascii"), 1 << d
            for i, j in pairs(list(compress(range(len(keep)), keep.translate(_NUL))), d):
                moves.append((i + 1, j + 1, step))
                keep[i] = 48  # b"0": the donor's bit clears
            keep.reverse()
            donors = act ^ int(keep, 2)
        elif pairs is not None:
            ix, rest = [], act
            while rest:
                ix.append((rest & -rest).bit_length() - 1)
                rest &= rest - 1
            donors, step = 0, 1 << d
            for i, j in pairs(ix, d):
                moves.append((i + 1, j + 1, step))
                donors |= 1 << i
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
                cand = _lowest_bits(cand, need)
            donors |= cand
        carry = (planes[d] & carry) | (act & ~donors)  # receivers gain 2**d
    last = planes[width] ^ carry
    if planes[width] & carry or last.bit_count() != 1:
        raise InternalInvariantViolated("matcher did not converge to 2**width")
    if pairs is not None:
        moves.append((last.bit_length(), 0, 1 << width))
    return lam, moves


def _lowest_bits(mask: int, n: int) -> int:
    """The n lowest set bits of mask (0 <= n <= mask.bit_count()), by binary
    search for the least m whose low m bits hold n of them: O(log k) big-int
    operations on a k-bit mask, not n."""
    lo, hi = n, mask.bit_length()
    while lo < hi:
        mid = (lo + hi) // 2
        if (mask & ((1 << mid) - 1)).bit_count() < n:
            lo = mid + 1
        else:
            hi = mid
    return mask & ((1 << lo) - 1)


def bit_matcher(p: Partition) -> tuple[tuple[int, int, int], ...]:
    """Optimal zeroing sequence of (src, dst, size) moves.

    Per level d: the active indices are split into halves by
    bit-lexicographic order; each of the smaller half donates 2**d to its
    counterpart in the larger half.  A final move sends the surviving
    2**width weight to target 0.
    """
    rev = [bin(w)[:1:-1] for w in p.weights]  # each weight's bits, lowest first

    def halves(act, d):
        # bits above d, least significant first: string order is bit-reversed
        # value order, as with zero padding, since a key that is a prefix of
        # another sorts first; the sort is stable, so tied keys keep index order
        act.sort(key=lambda i: rev[i][d + 1:])
        half = len(act) // 2
        return zip(act[:half], act[half:])

    return tuple(_level_loop(p, halves)[1])


def _bit_planes(weights: tuple[int, ...], count: int) -> list[int]:
    """planes[d] has bit i set iff bit d of weights[i] is set (0 <= weights < 2**count).

    Up to 8 weights, each plane is a byte of one integer: a weight's binary
    digits as ASCII bytes, read big-endian and masked to each byte's low bit,
    hold its bit d at bit 8d, and weight i is shifted by i.  That is k big-int
    operations, not count int() parses of strided slices: 4 against 22 us at
    k=3, W=100.  16-bit lanes lost to the slices at k=16, W=32.
    """
    fmt = f"0{count}b"
    if len(weights) <= 8:
        ones = int.from_bytes(b"\1" * count, "big")
        acc = 0
        for i, w in enumerate(weights):
            acc |= (int.from_bytes(format(w, fmt).encode(), "big") & ones) << i
        return list(acc.to_bytes(count, "little"))
    rows = "".join([format(w, fmt) for w in reversed(weights)])
    return [int(rows[j::count], 2) for j in range(count - 1, -1, -1)]


def min_rules(p: Partition) -> int:
    """Minimum prefix rule count realizing p: len(bit_matcher(p)), counted."""
    return _level_loop(p)[0]


def random_matcher(p: Partition, rng: random.Random) -> tuple[tuple[int, int, int], ...]:
    """Uniform random pairing per level; direction decided by bit d+1."""
    ws = p.weights

    def shuffled(act, d):
        rng.shuffle(act)
        for i, j in zip(act[::2], act[1::2]):
            bi, bj = ws[i] >> (d + 1) & 1, ws[j] >> (d + 1) & 1
            yield (j, i) if bi > bj or (bi == bj and rng.getrandbits(1)) else (i, j)

    return tuple(_level_loop(p, shuffled)[1])


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


def signed_matcher(p: Partition) -> tuple[tuple[int, int, int], ...]:
    """Pair +1 digits against -1 digits of the live weights, level by level.

    Unpaired digits are settled against target 0, so the unallocated pool
    may be touched mid-sequence.  Level width holds the final full blocks.
    """
    txs = []
    for d, level in groupby(sorted(_digits(p)), key=itemgetter(0)):
        if d > p.width:
            raise InternalInvariantViolated(f"NAF digit at level {d} above width {p.width}")
        plus, minus, size = [], [], 1 << d
        for _, i, sign in level:
            (plus if sign > 0 else minus).append(i)
        txs += [(i, j, size) for i, j in zip_longest(plus, minus, fillvalue=0)]
    return tuple(txs)


def anchor_sequence(p: Partition) -> tuple[tuple[int, int, int], ...]:
    """Sequence of length phi_total + 1 - phi_max settling every non-anchor
    digit directly against the part with the most non-zero digits.

    x_0 = -2**width counts as a candidate with a single digit.  Negative
    intermediates are possible; the result is for bound demonstration.
    """
    counts = [1] + [naf_count(w) for w in p.weights]
    anchor = max(range(p.k + 1), key=lambda i: (counts[i], -i))
    return tuple(
        (i, anchor, 1 << lvl) if sign > 0 else (anchor, i, 1 << lvl)
        for lvl, i, sign in sorted([(p.width, 0, -1), *_digits(p)])
        if i != anchor
    )


# --- brute-force oracle ---------------------------------------------------

@functools.lru_cache(maxsize=8)
def _move_tables(width, allow_negative, k):
    """_breadth_first's tables on k slots: value keys; moves as (new value, key
    change), smallest first, down, up and both (to or from the pool); and, per
    (v, w) pair the search meets, the moves from value v to w as (change, v', w')."""
    hi = 1 << (width + 1)
    lo = -hi if allow_negative else 0
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
    sizes = [1 << lvl for lvl in range(width + 2)]
    down = {v: [(v - s, entry[v - s] - entry[v]) for s in sizes if v - s >= lo] for v in entry}
    up = {v: [(v + s, entry[v + s] - entry[v]) for s in sizes if v + s <= hi] for v in entry}
    return entry, down, up, {v: down[v] + up[v] for v in entry}, {}


def _breadth_first(start, width, allow_negative, max_depth=math.inf):
    """The sorted states first reached from start at each depth, as one list
    per depth from 0, searched level by level.

    A move takes 2**lvl (lvl <= width + 1) from a slot or the unallocated
    pool, which is unconstrained, and gives it to another slot or the pool;
    the values it makes stay in [lo, hi].  A state is looked up by an exact
    integer key: the power sums u**1 .. u**k over its values, shifted to
    u = v - lo >= 0, each in a bit field wide enough for it.  Power sums
    1..k fix a multiset of k values (Newton's identities).  A move changes
    the key by one precomputed change, so only a new state is sorted into a
    tuple.  Stops after max_depth levels, or when no new state is left.
    """
    if (1 << width) > 256 or len(start) > 5:
        raise InstanceTooLarge("oracle limited to 2**width <= 256 and k <= 5")
    k = len(start)
    entry, down, up, pool, pairs = _move_tables(width, allow_negative, k)
    if not all(v in entry for v in start):
        raise BadOracleInput(f"{start} has a value outside [{min(entry)}, {max(entry)}]")
    level, keys = [start], [sum(entry[v] for v in start)]
    seen = set(keys)
    depth = 0
    while level:
        yield level
        if depth == max_depth:
            return
        depth += 1
        expand = depth < max_depth  # the last level's keys are never read
        found, found_keys = [], []
        for state, key in zip(level, keys):
            # state is sorted and equal values make equal moves: each distinct
            # value gives from its first slot to the last slot of each value,
            # its own too unless that is the same slot
            firsts = [(i, v) for i, v in enumerate(state) if not i or state[i - 1] != v]
            lasts = [(i, v) for i, v in enumerate(state) if i == k - 1 or state[i + 1] != v]
            for i, v in firsts:
                for new, change in pool[v]:
                    new_key = key + change
                    if new_key not in seen:
                        seen.add(new_key)
                        nxt = list(state)
                        nxt[i] = new
                        nxt.sort()
                        found.append(tuple(nxt))
                        if expand:
                            found_keys.append(new_key)
                for j, w in lasts:  # to another slot
                    if j == i:
                        continue
                    pw = pairs.get((v, w))
                    if pw is None:
                        pw = pairs[v, w] = [(change + gain, dec, inc) for (dec, change), (inc, gain)
                                            in zip(down[v], up[w])]
                    for change, dec, inc in pw:
                        new_key = key + change
                        if new_key not in seen:
                            seen.add(new_key)
                            nxt = list(state)
                            nxt[i] = dec
                            nxt[j] = inc
                            nxt.sort()
                            found.append(tuple(nxt))
                            if expand:
                                found_keys.append(new_key)
        level, keys = found, found_keys


def zeroing_distances(
    width: int, slots: int, allow_negative: bool = False, max_depth: int = 8
) -> dict[tuple[int, ...], int]:
    """Distances-to-zero for every sorted state within max_depth transactions.

    One backward search from the all-zero state; the move set is symmetric,
    so these are exact minimum zeroing lengths.  Extra zero slots subsume
    smaller k (the pool can simulate any scratch slot).
    """
    for name, n in (("width", width), ("slots", slots), ("max_depth", max_depth)):
        if isinstance(n, bool) or not isinstance(n, int) or n < 0:
            raise BadOracleInput(f"{name} must be a non-negative int, got {n!r}")
    dist = {}
    for depth, level in enumerate(_breadth_first((0,) * slots, width, allow_negative, max_depth)):
        dist.update(dict.fromkeys(level, depth))
    return dist


def meet_distances(
    targets, width: int, slots: int, allow_negative: bool = False, radius: int = 0
) -> dict[tuple[int, ...], int]:
    """Exact distance to zero of each sorted target, by meet-in-the-middle.

    Searches from each target t to the first depth a that meets the zero
    ball, zeroing_distances(width, slots, allow_negative, radius).  Each m
    met there gives d(t, 0) <= a + d(m, 0) <= a + radius, so a shortest path
    from t to 0 is in the ball at depth a too: d(t, 0) is the least a + d(m, 0).
    """
    ball = zeroing_distances(width, slots, allow_negative, radius)
    out = {}
    for target in targets:
        t = tuple(sorted(target))
        if len(t) != slots:
            raise BadOracleInput(f"{target} has {len(t)} values, the zero ball {slots}")
        for a, level in enumerate(_breadth_first(t, width, allow_negative)):
            met = [ball[m] for m in level if m in ball]
            if met:
                out[t] = a + min(met)
                break
    return out


def brute_force_lambda(p: Partition, allow_negative: bool = False) -> int:
    """Exact minimum zeroing-sequence length by breadth-first search over
    sorted weight multisets, met against the zero ball of radius 2 (at most
    1128 states within the oracle's limits).  Desk-scale only."""
    start = tuple(sorted(p.weights))
    return meet_distances([start], p.width, p.k, allow_negative, 2)[start]
