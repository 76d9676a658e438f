"""perfbench/tracing.py wraps the package's functions at the module attributes
their callers look up, so a renamed or rebound name leaves a layer missing or
reading 0.  One small input of each benchmark workload checks every name."""
import importlib.util
from pathlib import Path

from support import THM8
from tcamsplit import analysis, cli, matcher, tcam

_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"
_spec = importlib.util.spec_from_file_location("tracing", _PATH)
tracing = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tracing)

# the layers and counters each workload must read above 0, as CI's trace smoke lists them
LIVE = {
    "compile": ["cli.main.calls", "core.partition_from_text.calls",
                "matcher.bit_matcher.calls", "signed.lpm_bounds.calls",
                "matcher.transactions"],
    "audit": [f"tcam.{layer}.{kind}.calls"
              for layer in ("table_from_text", "evaluate_table", "table_to_sequence")
              for kind in ("prefix", "general")] + ["tcam.rules_read"],
    "montecarlo": ["analysis.run_experiment.calls", "core.sample_partition.calls",
                   "matcher.min_rules.calls", "signed.lpm_bounds.calls",
                   "analysis.trials"],
    "oracle": ["matcher.zeroing_distances.calls", "matcher.oracle_states"],
}


def test_tracer_finds_and_reaches_every_layer(capsys):
    tracer = tracing.Tracer()
    tracer.install()
    try:
        tracer.begin_op(0)
        assert cli.main(["compile", "--weights", "5,1,2"]) == 0
        tracer.begin_op(1)
        analysis.run_experiment(3, 8, 4, 1)
        for op, (kind, text) in enumerate([("prefix", "011 1\n01* 2\n0** 3\n*** 1"),
                                           ("general", THM8)], 2):
            tracer.begin_op(op, kind)
            table = tcam.table_from_text(text)
            tcam.evaluate_table(table)
            tcam.table_to_sequence(table)
        tracer.begin_op(4)
        matcher.zeroing_distances(2, 2, max_depth=2)
    finally:
        tracer.uninstall()
    assert capsys.readouterr().out.endswith("# lambda=3 lpm_lower=3 lpm_upper=3\n")
    assert tracer.missing == []
    values = {name: metric["value"] for name, metric in tracer.metrics().items()}
    dark = [name for names in LIVE.values() for name in names if not values.get(name, 0) > 0]
    assert dark == []
    # compile of 5,1,2 calls the bit matcher once for its three moves
    assert (values["matcher.bit_matcher.calls"], values["matcher.transactions"]) == (1, 3)
