"""Minimal prefix-match rule tables for weighted traffic splitting."""

from .core import (
    Partition,
    Transaction,
    new_partition,
    sample_partition,
    validate_sequence,
)
from .matcher import (
    anchor_sequence,
    bit_matcher,
    brute_force_lambda,
    min_rules,
    random_matcher,
    signed_matcher,
)
from .signed import (
    general_lower_bound,
    lpm_bounds,
    naf_count,
    naf_decompose,
    naf_max,
    naf_total,
    worstcase_cap,
)
from .tcam import (
    Rule,
    RuleTable,
    TernaryPattern,
    evaluate_table,
    synthesize_lpm,
    table_to_sequence,
)
from .worstcase import gen_general_hard, gen_k2, gen_k3, gen_triplets
from .analysis import (
    ExperimentStats,
    GameTrace,
    c_of_k,
    c_prime_of_k,
    normalize_counts,
    p_levels,
    play_game,
    run_experiment,
    rw,
)

__version__ = "0.1.0"
