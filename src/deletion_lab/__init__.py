"""Deletion-channel coding laboratory.

Binary words and deletion patterns, a run-length-varying concatenated code,
the signature/matching analysis of deletion patterns, fixed-pattern code
assembly with unique decoding, online wait-push adversaries, and brute-force
oracles for the small-scale checkable facts.  The package exports the names
README documents; everything else is reached through its module.
"""

__version__ = "0.2.0"

from .construction import CodeParams, encode_outer, extract_signature, inner_codeword, preserves
from .matching import MatchConfig, is_matchable, run_matching
from .oblivious import (
    average_case_error,
    build_confusability_graph,
    estimate_f,
    filter_candidates,
    unique_decode,
)
from .online import WaitPushAdversary, build_pairs, simulate_online, transmit
from .words import DeletionPattern, Word, apply_pattern, is_subsequence, lcs

__all__ = [
    "CodeParams", "encode_outer", "extract_signature", "inner_codeword", "preserves",
    "MatchConfig", "is_matchable", "run_matching",
    "average_case_error", "build_confusability_graph", "estimate_f", "filter_candidates", "unique_decode",
    "WaitPushAdversary", "build_pairs", "simulate_online", "transmit",
    "DeletionPattern", "Word", "apply_pattern", "is_subsequence", "lcs",
]
