"""Span tracing from outside the package.

Each public function is wrapped at the module attribute its caller looks up
(`cli` calls `tcam.synthesize_lpm`, `synthesize_lpm` calls the `bit_matcher`
name bound in `tcam`, `run_experiment` calls the names bound in `analysis`),
so the program itself is not edited.  Spans stay in memory until the run
writes them out.
"""
from __future__ import annotations

import importlib
import json
import statistics
import time

# (module, attribute, layer).  One layer may be reached through several
# module attributes; every one is wrapped.
TARGETS = [
    ("tcamsplit.cli", "main", "cli.main"),
    ("tcamsplit.core", "partition_from_text", "core.partition_from_text"),
    ("tcamsplit.analysis", "sample_partition", "core.sample_partition"),
    ("tcamsplit.tcam", "bit_matcher", "matcher.bit_matcher"),
    ("tcamsplit.matcher", "bit_matcher", "matcher.bit_matcher"),
    ("tcamsplit.analysis", "min_rules", "matcher.min_rules"),
    ("tcamsplit.matcher", "zeroing_distances", "matcher.zeroing_distances"),
    ("tcamsplit.signed", "lpm_bounds", "signed.lpm_bounds"),
    ("tcamsplit.analysis", "lpm_bounds", "signed.lpm_bounds"),
    ("tcamsplit.tcam", "synthesize_lpm", "tcam.synthesize_lpm"),
    ("tcamsplit.tcam", "table_to_text", "tcam.table_to_text"),
    ("tcamsplit.tcam", "table_from_text", "tcam.table_from_text"),
    ("tcamsplit.tcam", "evaluate_table", "tcam.evaluate_table"),
    ("tcamsplit.tcam", "table_to_sequence", "tcam.table_to_sequence"),
    ("tcamsplit.analysis", "run_experiment", "analysis.run_experiment"),
    ("tcamsplit.worstcase", "gen_k3", "worstcase.gen_k3"),
    ("tcamsplit.worstcase", "gen_triplets", "worstcase.gen_triplets"),
    ("tcamsplit.worstcase", "gen_general_hard", "worstcase.gen_general_hard"),
]

# Worst-case generators run while inputs are built, so their spans are taken
# from set-up; every other layer's spans are taken from timed ops only (set-up
# also synthesizes tables and computes reference answers).
SETUP_LAYERS = {"worstcase.gen_k3", "worstcase.gen_triplets", "worstcase.gen_general_hard"}

# Table-reading layers are split by the kind of table the op reads, because
# prefix and general tables take different code paths.
BY_KIND = {"tcam.table_from_text", "tcam.evaluate_table", "tcam.table_to_sequence"}
KINDS = ("prefix", "general")

# Counters fed from return values: layer -> (counter, amount).
COUNTERS = {
    "matcher.bit_matcher": ("matcher.transactions", len),
    "matcher.zeroing_distances": ("matcher.oracle_states", len),
    "tcam.synthesize_lpm": ("tcam.rules_emitted", len),
    "tcam.table_from_text": ("tcam.rules_read", len),
    "analysis.run_experiment": ("analysis.trials", lambda stats: stats.trials),
}

# Audit op paths: a prefix table, a general table evaluated by
# inclusion-exclusion, or one evaluated by address enumeration.
PATHS = ("prefix", "ie", "enum")


def layers() -> list[str]:
    return list(dict.fromkeys(layer for _, _, layer in TARGETS))


def stems(layer: str) -> list[str]:
    return [f"{layer}.{kind}" for kind in KINDS] if layer in BY_KIND else [layer]


def metric_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    units = {}
    for layer in layers():
        for stem in stems(layer):
            units.update({f"{stem}.calls": "count", f"{stem}.self_ms": "ms",
                          f"{stem}.p50_us": "us"})
    units.update({counter: "count" for counter, _ in COUNTERS.values()})
    units.update({"tcam.general_share": "ratio", "tcam.enum_share": "ratio"})
    return units


class Tracer:
    """Wraps the targets on install() and restores them on uninstall()."""

    def __init__(self):
        # [stem, op, parent index, start ns, end ns, time in child spans ns]
        self.spans: list[list] = []
        self.counts: dict[str, int] = {}
        self.path_ops = dict.fromkeys(PATHS, 0)
        self.op: int | str = "setup"
        self.kind = ""
        self.missing: list[str] = []
        self._wrapped_layers: set[str] = set()
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def install(self) -> None:
        self.missing = []
        for module_name, attr, layer in TARGETS:
            try:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
            except (ImportError, AttributeError):
                self.missing.append(f"{module_name}.{attr}")
                continue
            self._saved.append((module, attr, original))
            self._wrapped_layers.add(layer)
            setattr(module, attr, self._wrap(layer, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved = []

    def begin_op(self, op: int, kind: str = "", path: str = "") -> None:
        self.op, self.kind = op, kind
        if path:
            self.path_ops[path] += 1

    def _wrap(self, layer, fn):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter_ns
        by_kind = layer in BY_KIND
        counter, amount = COUNTERS.get(layer, (None, None))

        def traced(*args, **kwargs):
            stem = f"{layer}.{self.kind}" if by_kind else layer
            span = [stem, self.op, stack[-1] if stack else -1, clock(), 0, 0]
            spans.append(span)
            stack.append(len(spans) - 1)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                span[4] = clock()
                if stack:
                    spans[stack[-1]][5] += span[4] - span[3]
            if counter and self.op != "setup":
                self.counts[counter] = self.counts.get(counter, 0) + amount(result)
            return result

        traced.__wrapped__ = fn
        return traced

    def metrics(self) -> dict[str, dict]:
        """calls, self_ms and p50_us (median call time) per layer, and counts.

        Times are wall-clock, not speed-normalized, so compare layers within
        one run.  A layer this workload never calls reports zero calls.  A
        layer whose every wrap target has disappeared is left out and named
        in `missing`; it is never reported as zero.
        """
        durations: dict[str, list[int]] = {}
        self_ns: dict[str, int] = {}
        setup_stems = {stem for layer in SETUP_LAYERS for stem in stems(layer)}
        for stem, op, _, start, end, child in self.spans:
            if (op == "setup") == (stem in setup_stems):
                durations.setdefault(stem, []).append(end - start)
                self_ns[stem] = self_ns.get(stem, 0) + end - start - child
        values = {}
        for layer in layers():
            if layer not in self._wrapped_layers:
                continue
            for stem in stems(layer):
                times = durations.get(stem, [])
                values[f"{stem}.calls"] = len(times)
                values[f"{stem}.self_ms"] = self_ns.get(stem, 0) / 1e6
                values[f"{stem}.p50_us"] = statistics.median(times) / 1e3 if times else 0.0
        for layer, (counter, _) in COUNTERS.items():
            if layer in self._wrapped_layers:
                values[counter] = self.counts.get(counter, 0)
        general = self.path_ops["ie"] + self.path_ops["enum"]
        audited = general + self.path_ops["prefix"]
        values["tcam.general_share"] = general / audited if audited else 0.0
        values["tcam.enum_share"] = self.path_ops["enum"] / general if general else 0.0
        units = metric_units()
        return {name: {"value": value, "unit": units[name]} for name, value in values.items()}

    def write(self, path, header: dict) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(header) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
