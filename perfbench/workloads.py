"""The four benchmark workloads.

Each workload stresses one layer and leaves the others little to do:

- compile: the command users run; `cli` parsing, synthesis and text
  rendering in `tcam`, and `bit_matcher` under synthesis.
- audit: reads and transforms tables instead of writing them
  (`table_from_text` -> `evaluate_table` -> `table_to_sequence`), on prefix
  tables and on general ternary tables.
- montecarlo: `run_experiment` at W=100, where `bit_matcher` is almost the
  whole profile and `tcam` does nothing.
- oracle: the breadth-first-search half of `matcher` (`zeroing_distances`),
  which nothing else runs.

A workload builds its inputs from the seed during set-up; `item(i)` is the
input of op i, `run` is the timed op, and `check` compares its output with a
reference that does not use the function under test.  Costs quoted below are
medians measured on a 2-core x86-64 container with CPython 3.11.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from dataclasses import asdict, dataclass

from tcamsplit import analysis, cli, core, matcher, tcam, worstcase

import reference


def uniform_weights(k: int, width: int, rng: random.Random) -> tuple[int, ...]:
    """Uniform ordered partition of 2**width into k positive parts."""
    total = 1 << width
    cuts: set[int] = set()
    while len(cuts) < k - 1:
        cuts.add(rng.randrange(1, total))
    bounds = [0, *sorted(cuts), total]
    return tuple(b - a for a, b in zip(bounds, bounds[1:]))


def sha256(obj) -> str:
    return hashlib.sha256(json.dumps(obj).encode()).hexdigest()


def class_pool(classes, size: int, make, rng: random.Random) -> list:
    """`size` inputs holding each class at exactly its share, in seeded order."""
    pool = []
    for name, share in classes:
        pool.extend(make(name, rng) for _ in range(size * share // 100))
    if len(pool) != size:
        raise ValueError("class shares must divide the pool exactly")
    rng.shuffle(pool)
    return pool


# --- compile ---------------------------------------------------------------

@dataclass(frozen=True)
class Request:
    cls: str
    weights: tuple[int, ...]
    width: int
    text: str  # the --weights argument, possibly malformed


class Compile:
    """One in-process `tcamsplit compile` per op, stdout and stderr captured.

    Shares (percent of ops) are set so that op_ms_p50 falls inside the
    8.5-11 ms cluster (cumulative 35-80 %) and op_ms_p90 inside the 46 ms
    class (80-100 %), never on a step between classes; an even mix put p50
    on a step and let it swing by 60 % between runs.  Median wall ms per
    op with the host quiet:
    malformed 1.6, u3_w32 2.1, u16_w32 3.3, u3_w100 3.6, k3_w100 5.9,
    u100_w32 8.5, u16_w100 9.0, general 10.9, triplets 10.9, u100_w100 46.
    On small tables `cli` is most of an op; at k=100, W=100 `bit_matcher`
    is about 40 % of `synthesize_lpm`.
    """

    name = "compile"
    CLASSES = [
        ("malformed", 5),  # 1 in 20: a bad sum or a zero weight; must exit 1
        ("u3_w32", 10),
        ("u16_w32", 5),
        ("u3_w100", 10),
        ("k3_w100", 5),  # gen_k3: lambda = W + 1
        ("u100_w32", 15),
        ("u16_w100", 20),
        ("general_w100", 5),  # gen_general_hard, k in 8..16
        ("triplets_w100", 5),  # gen_triplets, k in 8..16
        ("u100_w100", 20),
    ]
    CYCLE = 20  # distinct inputs; ops cycle through them

    def __init__(self, seed: int):
        self.pool = class_pool(self.CLASSES, self.CYCLE, self.make, random.Random(f"compile:{seed}"))

    def item(self, i: int) -> Request:
        return self.pool[i % self.CYCLE]

    @staticmethod
    def make(cls: str, rng: random.Random) -> Request:
        if cls.startswith("u"):
            k, width = (int(x) for x in cls[1:].split("_w"))
            weights = uniform_weights(k, width, rng)
        elif cls == "k3_w100":
            weights, width = worstcase.gen_k3(100).weights, 100
        elif cls == "general_w100":
            weights, width = worstcase.gen_general_hard(rng.randint(8, 16), 100).weights, 100
        elif cls == "triplets_w100":
            weights, width = worstcase.gen_triplets(rng.randint(8, 16), 100).weights, 100
        else:  # malformed
            weights, width = list(uniform_weights(16, 32, rng)), 32
            if rng.random() < 0.5:
                weights[rng.randrange(16)] += 1  # sum is no longer 2**W
            else:
                i = rng.randrange(15)
                weights[i + 1] += weights[i]
                weights[i] = 0
            weights = tuple(weights)
        return Request(cls, weights, width, ",".join(map(str, weights)))

    @staticmethod
    def run(req: Request):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                rc = cli.main(["compile", "--weights", req.text, "--width", str(req.width)])
            except SystemExit as exc:  # argparse usage errors
                rc = exc.code
        return rc, out.getvalue(), err.getvalue()

    @staticmethod
    def check(req: Request, result) -> str | None:
        rc, out, err = result
        if req.cls == "malformed":
            if rc == 1 and not out and err.startswith("error:") and err.count("\n") == 1:
                return None
            return f"malformed request gave exit {rc}, stderr {err[:60]!r}"
        if rc != 0 or err:
            return f"exit {rc}, stderr {err[:60]!r}"
        rules, footer = reference.parse_compile_output(out, req.width)
        lam = len(rules)
        counts = reference.first_match_counts(rules, req.width)
        if counts != {t + 1: w for t, w in enumerate(req.weights)}:
            return "address counts differ from the weights"
        if footer.get("lambda") != lam:
            return f"footer lambda={footer.get('lambda')} but {lam} rules"
        lo, hi = reference.lpm_bounds(req.weights)
        if (footer.get("lpm_lower"), footer.get("lpm_upper")) != (lo, hi) or not lo <= lam <= hi:
            return f"lambda {lam} or footer bounds outside [{lo}, {hi}]"
        k, width = len(req.weights), req.width
        if req.cls == "k3_w100" and lam != width + 1:
            return f"gen_k3 lambda {lam} != W + 1"
        if req.cls == "triplets_w100":
            # every hard triplet costs its sub-width + 1 (as gen_k3 does),
            # every left-over part one rule
            m = (k - 1) // 3
            sub_width = width - 1 - (m - 1).bit_length()
            if lam != m * (sub_width + 1) + k - 3 * m:
                return f"gen_triplets lambda {lam} off its closed form"
        return None

    def golden_cases(self) -> dict[str, Request]:
        return {cls: self.make(cls, random.Random(f"golden:{cls}")) for cls, _ in self.CLASSES}

    @staticmethod
    def digest(req: Request, result) -> str:
        return sha256(list(result))


# --- audit -----------------------------------------------------------------

@dataclass(frozen=True)
class Table:
    cls: str
    weights: tuple[int, ...]
    width: int
    text: str
    path: str  # "prefix", "ie" (inclusion-exclusion) or "enum" (address enumeration)

    @property
    def kind(self) -> str:
        return "prefix" if self.path == "prefix" else "general"


class Audit:
    """table_from_text -> evaluate_table -> table_to_sequence on table text.

    Half the tables are synthesized prefix tables; the other half are
    general ternary tables: a synthesized table with its bit positions
    permuted, which keeps every target's count, so the expected counts are
    known by construction.  General tables take inclusion-exclusion up to 20
    rules (ie: k=3, W 16..28) and address enumeration beyond it (enum: more
    than 20 rules at W=13, where enumeration costs what a prefix table of
    the same rank does).  Median wall ms per op with the host quiet: ie 1.0,
    p16_w32 3.3, p16_w100 16, enum 28, p100_w32 84, p100_w100 414, mostly
    table_to_sequence.  Shares put op_ms_p50 in p16_w100 (cumulative
    40-60 %) and op_ms_p90 in p100_w32 (80-95 %).  Faster prefix-table
    evaluation acts on the prefix half; the general half is the path it
    must not slow.
    """

    name = "audit"
    CLASSES = [
        ("ie", 30),
        ("p16_w32", 10),
        ("p16_w100", 20),
        ("enum", 20),
        ("p100_w32", 15),
        ("p100_w100", 5),
    ]
    CYCLE = 40  # 8 p16_w100 tables, so the median does not hang on two of them

    def __init__(self, seed: int):
        self.pool = class_pool(self.CLASSES, self.CYCLE, self.make, random.Random(f"audit:{seed}"))

    def item(self, i: int) -> Table:
        return self.pool[i % self.CYCLE]

    @staticmethod
    def make(cls: str, rng: random.Random) -> Table:
        if cls.startswith("p"):
            k, width = (int(x) for x in cls[1:].split("_w"))
            weights = uniform_weights(k, width, rng)
            text = tcam.table_to_text(tcam.synthesize_lpm(core.new_partition(weights, width)))
            return Table(cls, weights, width, text, "prefix")
        k, width = (3, rng.randint(16, 28)) if cls == "ie" else (8, 13)
        while True:
            weights = uniform_weights(k, width, rng)
            lines = tcam.table_to_text(tcam.synthesize_lpm(core.new_partition(weights, width)))
            lines = [line.split() for line in lines.splitlines()]
            if (len(lines) <= 20) != (cls == "ie"):
                continue
            perm = list(range(width))
            rng.shuffle(perm)
            patterns = ["".join(pat[j] for j in perm) for pat, _ in lines]
            if any("*" in pat.rstrip("*") for pat in patterns):  # not a prefix table
                text = "\n".join(f"{pat} {t}" for pat, (_, t) in zip(patterns, lines))
                return Table(cls, weights, width, text, cls)

    @staticmethod
    def run(table: Table):
        parsed = tcam.table_from_text(table.text)
        counts = tcam.evaluate_table(parsed)
        sequence = tcam.table_to_sequence(parsed)
        return counts, sequence

    @staticmethod
    def check(table: Table, result) -> str | None:
        counts, sequence = result
        if list(counts) != [0, *table.weights]:
            return "counts differ from the partition the table was built from"
        moves = [(t.src, t.dst, t.size) for t in sequence]
        if not reference.zeroed(table.width, table.weights, moves):
            return "transactions do not zero (-2**W, w_1..w_k)"
        return None

    def golden_cases(self) -> dict[str, Table]:
        return {cls: self.make(cls, random.Random(f"golden:{cls}")) for cls, _ in self.CLASSES}

    @staticmethod
    def digest(table: Table, result) -> str:
        counts, sequence = result
        return sha256([list(counts), [[t.src, t.dst, t.size] for t in sequence]])


# --- montecarlo ------------------------------------------------------------

@dataclass(frozen=True)
class Experiment:
    k: int
    trials: int
    seed: int


class MonteCarlo:
    """run_experiment(k, 100, T_k, seed_i) with k cycling through 3, 16, 100.

    Measured wall ms per trial: 0.58 (k=3), 1.85 (k=16), 10.1 (k=100), so
    T_k = 170, 52, 10 makes every op cost about 100 ms, short enough for a
    run to hold a few hundred ops: a kernel that wins at k=100 and loses at
    k=3 cannot hide the loss, and with equal thirds neither percentile sits
    on a step between k.  The trial count is in the input, so a sharded
    implementation can decide from it.
    """

    name = "montecarlo"
    WIDTH = 100
    TRIALS = {3: 170, 16: 52, 100: 10}
    CYCLE = len(TRIALS)

    def __init__(self, seed: int):
        self.seed = seed
        self.envelope = {k: reference.rules_per_bit_envelope(k) for k in self.TRIALS}

    def item(self, i: int) -> Experiment:
        k = list(self.TRIALS)[i % self.CYCLE]
        return Experiment(k, self.TRIALS[k], self.seed * 1_000_000 + i)

    def run(self, exp: Experiment):
        return analysis.run_experiment(exp.k, self.WIDTH, exp.trials, exp.seed)

    def check(self, exp: Experiment, stats) -> str | None:
        if (stats.k, stats.width, stats.trials, stats.seed) != (exp.k, self.WIDTH, exp.trials, exp.seed):
            return "stats echo different parameters"
        lo, hi = self.envelope[exp.k]
        if not lo <= stats.mean_lambda_over_kw <= hi:
            return f"mean lambda/kW {stats.mean_lambda_over_kw:.4f} outside [{lo:.4f}, {hi:.4f}]"
        if not stats.mean_lb_ratio <= 1 <= stats.mean_ub_ratio:
            return "bound ratios do not sandwich 1"
        return None

    def golden_cases(self) -> dict[str, Experiment]:
        return {f"k{k}": Experiment(k, t, 20221226) for k, t in self.TRIALS.items()}

    @staticmethod
    def digest(exp: Experiment, stats) -> str:
        return sha256(asdict(stats))


# --- oracle ----------------------------------------------------------------

@dataclass(frozen=True)
class Search:
    mode: str
    width: int
    slots: int
    allow_negative: bool
    depth: int


class Oracle:
    """One zeroing_distances search per op, alternating the two modes.

    Depths 4 (non-negative, width 5) and 3 (negatives allowed, width 4) cost
    51 and 53 ms (5061 and 5436 states).  One level deeper costs 0.49 and
    0.83 s (31k and 50k states), too slow for the hundreds of ops a run
    needs.  An even alternation put p50 exactly on the step between the
    modes, so each cycle runs one non-negative and two negative searches.
    The seed picks where in the cycle the run starts.
    """

    name = "oracle"
    MODES = [Search("nonneg", 5, 4, False, 4), Search("negative", 4, 4, True, 3)]
    CYCLE = 3

    def __init__(self, seed: int, golden: dict):
        cycle = [self.MODES[0], self.MODES[1], self.MODES[1]]
        self.order = cycle[seed % 3:] + cycle[:seed % 3]
        self.states = {mode: int(count) for mode, count in golden.items()}
        # reference: min_rules of every partition of 2**w (w <= width) into at
        # most `slots` parts, keyed by the search's sorted state
        self.expected = {}
        for s in self.MODES:
            self.expected[s.mode] = {
                (0,) * (s.slots - len(parts)) + parts: matcher.min_rules(core.new_partition(parts, w))
                for w in range(s.width + 1)
                for parts in reference.sorted_partitions(1 << w, s.slots)
            }

    def item(self, i: int) -> Search:
        return self.order[i % self.CYCLE]

    @staticmethod
    def run(s: Search):
        return matcher.zeroing_distances(s.width, s.slots, s.allow_negative, s.depth)

    def check(self, s: Search, dist) -> str | None:
        if len(dist) != self.states.get(s.mode):
            return f"{s.mode}: {len(dist)} states, golden {self.states.get(s.mode)}"
        for state, lam in self.expected[s.mode].items():
            if dist.get(state) != (lam if lam <= s.depth else None):
                return f"{s.mode}: distance of {state} is {dist.get(state)}, min_rules {lam}"
        return None

    def golden_cases(self) -> dict[str, Search]:
        return {s.mode: s for s in self.MODES}

    @staticmethod
    def digest(s: Search, dist) -> str:
        return str(len(dist))


WORKLOADS = {w.name: w for w in (Compile, Audit, MonteCarlo, Oracle)}


def build(name: str, seed: int, golden: dict):
    cls = WORKLOADS[name]
    return cls(seed, golden[name]) if cls is Oracle else cls(seed)
