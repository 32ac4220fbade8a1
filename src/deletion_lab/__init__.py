"""Deletion-channel coding laboratory.

Binary words and deletion patterns, a run-length-varying concatenated code,
the signature/matching analysis of deletion patterns, fixed-pattern code
assembly with unique decoding, online wait-push adversaries, and brute-force
oracles for the small-scale checkable facts.
"""

__version__ = "0.1.0"

from .construction import (
    CodeParams,
    Signature,
    derive_params,
    encode_outer,
    extract_signature,
    inner_codeword,
    is_admissible,
    preserves,
    rate_info,
    toy_params,
)
from .matching import MatchConfig, MatchTrace, is_matchable, run_matching
from .oblivious import (
    SamplingPlan,
    average_case_error,
    build_confusability_graph,
    estimate_f,
    filter_candidates,
    make_stochastic,
    sample_outer_code,
    unique_decode,
)
from .online import (
    ConfusablePair,
    OnlineConfig,
    WaitPushAdversary,
    build_pairs,
    causality_check,
    simulate_online,
    transmit,
    wait_length,
    wait_profile,
)
from .words import (
    DeletionPattern,
    Word,
    apply_pattern,
    enumerate_patterns,
    is_subsequence,
    lcs,
    run_decompose,
    split_pattern,
)

__all__ = [name for name in dir() if not name.startswith("_")]
