"""Average-case machinery: lazy random-walk expectation, the digit-probability
recurrence, the bit-zeroing game, Monte Carlo experiments, count normalization."""
from __future__ import annotations

import hashlib
import math
import numbers
import random
from dataclasses import dataclass
from fractions import Fraction

from .core import MAX_WIDTH, Partition, new_partition, parse_lines, sample_partition
from .errors import (
    AllZero,
    BadCount,
    BadProbability,
    InstanceTooLarge,
    WidthOverflow,
    WidthTooSmall,
    ZeroWeight,
)
from .matcher import min_rules
from .signed import lpm_bounds


# the exact DP's integers grow to about n * bit_length(denominator) bits
RW_EXACT_MAX_STEPS = 200
RW_EXACT_MAX_BITS = 1024


def rw(p, n: int):
    """Expected |displacement| of an n-step walk moving +-1 each with
    probability p (else staying).  Exact DP over the displacement
    distribution; a rational p (Fraction, int) gives an exact Fraction,
    a float p float arithmetic.  Exact calls are limited to
    n <= RW_EXACT_MAX_STEPS and n * bit_length(denominator(p)) <= RW_EXACT_MAX_BITS.
    """
    exact = isinstance(p, numbers.Rational)
    # p = a/b: after t steps every probability is an integer over b**t,
    # reached with integer weights a (each move) and b - 2a (stay); a float
    # p runs the same steps with b = 1, in the order p*x + (1-2p)*y + p*z
    a, b = (p.numerator, p.denominator) if exact else (p, 1)
    if not 0 <= 2 * p <= 1:  # a huge p's digits would pass int-to-str's 4300-digit limit
        raise BadProbability("need 0 <= 2p <= 1, got " + (
            f"p with a {a.bit_length()}-bit numerator and a {b.bit_length()}-bit denominator"
            if exact and max(abs(a), b).bit_length() > 64 else f"p={p}"))
    if n < 0:
        raise BadProbability(f"negative step count {n}")
    if exact and (n > RW_EXACT_MAX_STEPS or n * b.bit_length() > RW_EXACT_MAX_BITS):
        raise InstanceTooLarge(
            f"exact rw needs n <= {RW_EXACT_MAX_STEPS} and n * bit_length(denominator) "
            f"<= {RW_EXACT_MAX_BITS}, got n={n}, a {b.bit_length()}-bit denominator"
        )
    stay = b - 2 * a
    ways = [a * 0 + 1]  # ways[i]: displacement i - t after t steps, times b**t
    for _ in range(n):
        pad = [0, 0, *ways, 0, 0]
        ways = [a * x + stay * y + a * z for x, y, z in zip(pad, pad[1:], pad[2:])]
    total = sum(abs(i - n) * w for i, w in enumerate(ways))
    return Fraction(total, b**n) if exact else total


def c_of_k(k: int) -> float:
    """Per-part excess of the average rules-per-bit over 1/6."""
    return (1 + rw(1 / 6, k - 1)) / (2 * k)


def c_prime_of_k(k: int) -> float:
    return rw(1 / 6, k) / (2 * k)


def p_levels(count: int) -> list[Fraction]:
    """Exact probabilities of a +1 (equivalently -1) digit at levels 0..count-1
    for a uniform value: p_l = 1/6 + (1/12)(-1/2)**l, so p_0 = 1/4, then
    contraction toward 1/6."""
    return [Fraction(1, 6) + Fraction(1, 12) * Fraction(-1, 2) ** level for level in range(count)]


@dataclass(frozen=True)
class GameTrace:
    strategy: str
    m: int
    turns: int
    first_level: int
    gains: tuple[int, ...]


def play_game(strategy: str, m: int, rng: random.Random) -> GameTrace:
    """Single-player game: repeatedly add or subtract 2**d at the lowest set
    bit d until the m low bits are all zero.

    The value starts with m uniform low bits; higher bits are materialized
    lazily (64 at a time) whenever an operation would look past the frontier.
    "opt" adds iff bit d+1 is set, "rnd" flips a coin, "mix" flips a coin
    between the two.
    """
    strategy = strategy.lower()
    if strategy not in ("opt", "rnd", "mix"):
        raise ValueError(f"unknown strategy {strategy!r}")
    if m < 1:
        raise ValueError("need m >= 1")
    if m > 1 << 17:  # every turn does arithmetic on an m-bit value
        raise InstanceTooLarge(f"game needs m <= 2**17, got m={m}")
    v = rng.getrandbits(m)
    nbits = m

    def extend():
        nonlocal v, nbits
        v |= rng.getrandbits(64) << nbits
        nbits += 64

    def lowest() -> int:
        nonlocal v
        while v == 0:
            extend()
        return (v & -v).bit_length() - 1

    low_mask = (1 << m) - 1
    turns = 0
    gains = []
    d = lowest()
    first_level = d
    while v & low_mask:
        if strategy == "opt" or (strategy == "mix" and rng.getrandbits(1)):
            while d + 1 >= nbits:
                extend()
            add = (v >> (d + 1)) & 1
        else:
            add = rng.getrandbits(1)
        if add:
            while ((v >> d) + 1) >> (nbits - d):
                extend()  # carry would cross the frontier
            v += 1 << d
        else:
            v -= 1 << d
        turns += 1
        nd = lowest()
        gains.append(nd - d)
        d = nd
    return GameTrace(strategy, m, turns, first_level, tuple(gains))


@dataclass(frozen=True)
class ExperimentStats:
    k: int
    width: int
    trials: int
    seed: int
    mean_lambda_over_kw: float
    se_lambda_over_kw: float
    mean_lb_ratio: float
    se_lb_ratio: float
    mean_ub_ratio: float
    se_ub_ratio: float

    def csv_header(self) -> str:
        return "k,W,trials,mean_lambda_per_kw,se,mean_lb_ratio,mean_ub_ratio"

    def csv_row(self) -> str:
        return (
            f"{self.k},{self.width},{self.trials},"
            f"{self.mean_lambda_over_kw:.6f},{self.se_lambda_over_kw:.6f},"
            f"{self.mean_lb_ratio:.6f},{self.mean_ub_ratio:.6f}"
        )


def trial_rng(seed: int, index: int) -> random.Random:
    """Stable per-trial generator so trials can run in any order."""
    digest = hashlib.sha256(f"{seed}:{index}".encode()).digest()
    return random.Random(int.from_bytes(digest[:16], "big"))


def _mean_se(values: list[float]) -> tuple[float, float]:
    n = len(values)
    mean = math.fsum(values) / n
    if n < 2:
        return mean, 0.0
    var = math.fsum((x - mean) ** 2 for x in values) / (n - 1)
    return mean, math.sqrt(var / n)


def run_experiment(k: int, width: int, trials: int, seed: int) -> ExperimentStats:
    """Sample `trials` uniform partitions; aggregate rules-per-bit and the
    signed-digit bound ratios.  Deterministic given (k, width, trials, seed)."""
    if trials < 1:
        raise ValueError("need trials >= 1")
    if width == 0:  # negative widths are refused by sample_partition
        raise WidthTooSmall("need width >= 1 for rules per bit, got 0")
    lam_sum = 0  # exact integer sum
    per_kw: list[float] = []
    lb_ratios: list[float] = []
    ub_ratios: list[float] = []
    kw = k * width
    for t in range(trials):
        p = sample_partition(k, width, trial_rng(seed, t))
        lam = min_rules(p)
        lo, hi = lpm_bounds(p)
        lam_sum += lam
        per_kw.append(lam / kw)
        lb_ratios.append(lo / lam)
        ub_ratios.append(hi / lam)
    mean_lam, se_lam = _mean_se(per_kw)
    assert abs(mean_lam - lam_sum / (trials * kw)) < 1e-12
    mean_lb, se_lb = _mean_se(lb_ratios)
    mean_ub, se_ub = _mean_se(ub_ratios)
    return ExperimentStats(
        k=k,
        width=width,
        trials=trials,
        seed=seed,
        mean_lambda_over_kw=lam_sum / (trials * kw),
        se_lambda_over_kw=se_lam,
        mean_lb_ratio=mean_lb,
        se_lb_ratio=se_lb,
        mean_ub_ratio=mean_ub,
        se_ub_ratio=se_ub,
    )


def normalize_counts(counts, width_multiple: int) -> Partition:
    """Scale raw (possibly real) counts to a partition summing to a power of
    two whose width is a multiple of width_multiple, minimizing L1 distance
    (largest-remainder rounding with a positivity floor of 1).  Count i
    becomes target i + 1, so every count must be positive."""
    if width_multiple < 1:
        raise WidthTooSmall(f"width multiple {width_multiple} is not positive")
    if not all(math.isfinite(c) for c in counts):
        raise BadCount("counts must be finite numbers")
    if any(c > 1 << MAX_WIDTH for c in counts):
        raise BadCount(f"a count above 2**{MAX_WIDTH} needs a width above {MAX_WIDTH}")
    if not any(c > 0 for c in counts):
        raise AllZero("no positive counts")
    if any(c < 0 for c in counts):
        raise AllZero("negative counts are not meaningful")
    zero = next((i for i, c in enumerate(counts) if c == 0), None)
    if zero is not None:
        raise ZeroWeight(f"count {zero + 1} is zero; target {zero + 1} would get no addresses")
    # exact: a float is a dyadic rational, so scale every count to an integer
    fracs = [Fraction(c) for c in counts]
    den = math.lcm(*(f.denominator for f in fracs))
    nums = [f.numerator * (den // f.denominator) for f in fracs]
    raw = sum(nums)  # the counts' sum, times den
    k = len(nums)
    need = max(k, -(-raw // den))
    # the least multiple of width_multiple with 2**width >= need
    width = -(-(need - 1).bit_length() // width_multiple) * width_multiple
    if width > MAX_WIDTH:
        raise WidthOverflow(f"width {width} outside 0..{MAX_WIDTH}")
    total = 1 << width
    # ideal share i is nums[i] * total / raw: floor it, keep the remainder
    base, rems = map(list, zip(*(divmod(c * total, raw) for c in nums)))
    rest = total - sum(base)
    order = sorted(range(k), key=lambda i: (-rems[i], i))
    for i in order[:rest]:
        base[i] += 1
    # positivity floor: steal from the most over-allocated parts
    donors = sorted(range(k), key=lambda i: nums[i] * total - base[i] * raw)
    for i in range(k):
        if base[i] == 0:
            for j in donors:
                if base[j] > 1:
                    base[j] -= 1
                    base[i] = 1
                    break
    return new_partition(base, width)


def read_counts(text: str) -> list[float]:
    """One positive number per line, read by parse_lines; a zero is refused here,
    with its line number, since normalize_counts numbers the targets by count."""
    def count(line):
        c = float(line)
        if c == 0:
            raise ZeroWeight("zero count; its target would get no addresses")
        return c

    return parse_lines(text, count)
