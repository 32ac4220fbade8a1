"""Code assembly against fixed deletion patterns.

The pipeline: score candidate outer words by how easily other words disguise
themselves inside them (the matchability probability f), drop the worst,
sample a random outer code from the rest, concatenate, and measure the
average-case error under families of fixed deletion patterns.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from . import rng as rngmod
from .construction import CodeParams, OuterWord, encode_outer, filter_threshold, matchability_exponent, outer_code_size
from .matching import MatchConfig, all_outer_words, batch_matchable, count_matchable, worst_sets
from .reporting import ExperimentReport, read_lines
from .words import (
    DeletionPattern, Word, apply_pattern, as_word, bit_deletion_pattern, first_repeat, is_subsequence,
    parse_positions,
)


WALK_ROWS = 4800  # Monte-Carlo rows matched in one stacked walk, whole hosts at a time


def estimate_f(
    Ys: Sequence[Sequence[int]],
    params: CodeParams,
    trials: int | None = None,
    master_seed: int = 0,
) -> list[Fraction] | list[float]:
    """Pr over uniform Z of length delta*n that Z is matchable in Y: one value per host Y, in order.

    Matching runs with the worst corruption sets [lambda-1] and the caps
    (2^lambda, sqrt(R)).  ``trials=None`` counts the matchable Z of each host
    with ``count_matchable`` and returns Fractions.  A trial count draws each
    host's Z from its own stream, ``rng.np_rng(master_seed, "estimate-f",
    s)`` with s the host's symbols joined by commas, in the smallest dtype
    that holds K.  So a host's value depends only on its symbols, the master
    seed and ``trials``, not on its position or its pool.  Several hosts'
    rows are matched in one stacked ``batch_matchable`` walk, and the values
    are the fractions of trials matched.
    """
    K = params.K
    m = params.delta_n
    cfg = MatchConfig.paper(params.lam, params.R, worst_sets(m, params.lam))
    hosts = [tuple(Y) for Y in Ys]
    if trials is None:
        return [Fraction(count_matchable(Y, cfg, K), K**m) for Y in hosts]
    if trials < 1:
        raise ValueError(f"trials = {trials}: Monte-Carlo f needs at least one trial")
    group = max(1, WALK_ROWS // trials)
    estimates = []
    for g in range(0, len(hosts), group):
        stack = hosts[g:g + group]
        Zs = np.empty((len(stack), trials, m), dtype=np.min_scalar_type(K))
        for Z, Y in zip(Zs, stack):  # each host's draws, from the stream its symbols name
            Z[:] = rngmod.np_rng(master_seed, "estimate-f", ",".join(map(str, Y))).integers(
                1, K + 1, Z.shape, dtype=Zs.dtype)
        matched = batch_matchable(Zs.reshape(-1, m), stack, cfg, np.repeat(np.arange(len(stack)), trials))
        estimates += [wins / trials for wins in matched.reshape(len(stack), trials).sum(axis=1).tolist()]
    return estimates


@dataclass
class FilterOutcome:
    kept: list[OuterWord]
    discarded: list[OuterWord]

    @property
    def discarded_fraction(self) -> float:
        total = len(self.kept) + len(self.discarded)
        return len(self.discarded) / total if total else 0.0


def filter_candidates(
    pool: Sequence[OuterWord],
    params: CodeParams,
    trials: int | None = None,
    master_seed: int = 0,
) -> FilterOutcome:
    """Keep the pool members whose disguise probability stays under
    ``construction.filter_threshold``, 2 * 2^(-beta n).

    A Monte-Carlo estimate is classified by its point value.  Each host's
    symbols name its Monte-Carlo stream, so a host is kept or dropped
    whatever else the pool holds.
    """
    thr = filter_threshold(params)
    hosts = [tuple(Y) for Y in pool]
    values = estimate_f(hosts, params, trials, master_seed)
    return FilterOutcome([Y for Y, f in zip(hosts, values) if f < thr],
                         [Y for Y, f in zip(hosts, values) if not f < thr])


def sample_outer_code(W: Sequence[OuterWord], target_size: float, rng) -> list[OuterWord]:
    """Include each candidate independently with probability min(1, target_size/|W|)."""
    prob = min(1.0, target_size / len(W)) if W else 0.0
    return [X for X in W if rng.random() < prob]


@dataclass
class ConfusabilityGraph:
    """Directed graph on outer words: an edge Y -> X means the selected part
    of X is matchable in Y (self-loops excluded)."""

    vertices: list[OuterWord]
    edges: list[tuple[int, int]]  # (y_index, x_index)

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def out_degrees(self) -> list[int]:
        out = [0] * len(self.vertices)
        for y, _ in self.edges:
            out[y] += 1
        return out

    def stats(self) -> dict:
        outs, ins = self.out_degrees(), Counter(x for _, x in self.edges).values()
        return {
            "vertices": len(self.vertices),
            "edges": self.edge_count,
            "max_outdegree": max(outs, default=0),
            "max_indegree": max(ins, default=0),
        }


def build_confusability_graph(
    pool: Sequence[OuterWord],
    sigma: DeletionPattern,
    cfg: MatchConfig,
) -> ConfusabilityGraph:
    """Evaluate the matchability relation between every ordered pool pair.

    ``cfg`` holds the move caps and one corruption set per position sigma keeps.
    """
    n = sigma.word_length
    if pool and len(pool[0]) != n:
        raise ValueError("sigma must act on outer words of the pool's length")
    if len(cfg.sets) != n - sigma.weight:
        raise ValueError(f"need {n - sigma.weight} corruption sets, got {len(cfg.sets)}")
    hosts = np.array(pool, dtype=np.int64).reshape(len(pool), n)
    edges: list[tuple[int, int]] = []
    group = max(1, WALK_ROWS // max(1, len(pool)))
    for g in range(0, len(pool), group):
        stack = hosts[g:g + group]
        host = np.repeat(np.arange(len(stack)), len(pool))
        wins = batch_matchable(np.tile(hosts[:, sigma.keep], (len(stack), 1)), stack, cfg, host)
        ys, xs = np.nonzero(wins.reshape(len(stack), len(pool)))
        edges += [(g + y, x) for y, x in zip(ys.tolist(), xs.tolist()) if g + y != x]
    return ConfusabilityGraph(list(pool), edges)


def every_outer_word(params: CodeParams) -> list[OuterWord]:
    """All K^n outer words of ``params``, in lexicographic order."""
    return [tuple(X) for X in all_outer_words(params.K, params.n).tolist()]


def full_confusability_graph(params: CodeParams) -> ConfusabilityGraph:
    """The confusability graph of all of [K]^n under the σ that keeps the first δn positions.

    The A/B-move caps are the paper's, with the worst corruption sets.
    """
    if params.K**params.n > 1 << 16:
        raise ValueError("pool K^n too large for graph enumeration")
    dn = params.delta_n
    sigma = DeletionPattern.from_keep(np.arange(params.n) < dn)
    cfg = MatchConfig.paper(params.lam, params.R, worst_sets(dn, params.lam))
    return build_confusability_graph(every_outer_word(params), sigma, cfg)


def unique_decode(s: Word, C: Sequence[Word]) -> Word | None:
    """The codeword containing s as a subsequence, if there is exactly one."""
    found = None
    for c in C:
        if is_subsequence(s, c):
            if found is not None:
                return None
            found = c
    return found


def average_case_error(C: Sequence[Word], tau: DeletionPattern) -> Fraction:
    """Fraction of codewords whose deleted form fits inside another codeword.

    A codeword that is already a ``Word`` is used as it is, so the runs it
    caches serve every pattern it is tested under.
    """
    words = [as_word(c) for c in C]
    if (twice := first_repeat(words)) is not None:
        raise ValueError(f"the code repeats the codeword {twice.brief()}")
    if not words:
        return Fraction(0)
    bad = 0
    for x in words:
        tx = apply_pattern(tau, x)
        if any(y != x and is_subsequence(tx, y) for y in words):
            bad += 1
    return Fraction(bad, len(words))


@dataclass
class StochasticCode:
    """Messages mapped to disjoint codeword groups, one group per message."""

    groups: tuple[tuple[Word, ...], ...]

    @property
    def codewords(self) -> list[Word]:
        return [c for g in self.groups for c in g]


def make_stochastic(C: Sequence[Word], group_size: int, rng) -> StochasticCode:
    """Draw floor(|C| / (2 group_size)) disjoint groups without replacement."""
    if group_size < 1:
        raise ValueError("group_size must be positive")
    n_groups = len(C) // (2 * group_size)
    if n_groups < 1:
        raise ValueError(
            f"insufficient codewords: need at least {2 * group_size}, have {len(C)}"
        )
    chosen = rng.sample(list(C), n_groups * group_size)
    groups = tuple(
        tuple(chosen[g * group_size : (g + 1) * group_size]) for g in range(n_groups)
    )
    return StochasticCode(groups)


# ---------------------------------------------------------------------------
# fixed deletion-pattern families, built as keep masks


def _pad_to_weight(keep: np.ndarray, weight: int, rng) -> DeletionPattern:
    """The pattern of mask ``keep`` cut to its first ``weight`` deletions, or padded
    with ``rng.sample`` of its kept positions, listed in ascending order."""
    if not 0 <= weight <= len(keep):
        raise ValueError(f"weight {weight} must lie in [0, {len(keep)}]")
    keep = np.array(keep, dtype=bool)
    deleted = np.flatnonzero(~keep)
    keep[deleted[weight:]] = True
    if weight > len(deleted):
        keep[rng.sample(np.flatnonzero(keep).tolist(), weight - len(deleted))] = False
    return DeletionPattern.from_keep(keep)


def uniform_pattern(N: int, weight: int, rng) -> DeletionPattern:
    """``weight`` positions drawn uniformly: the all-kept mask padded to ``weight``."""
    return _pad_to_weight(np.ones(N, dtype=bool), weight, rng)


def delete_bit_pattern(ref: Word, bit: int, weight: int, rng) -> DeletionPattern:
    """Delete the positions carrying ``bit`` in the reference word."""
    return _pad_to_weight(bit_deletion_pattern(ref, bit).keep, weight, rng)


def blockwise_periodic_pattern(N: int, L: int, weight: int, rng) -> DeletionPattern:
    """Delete every other bit inside randomly chosen length-L blocks."""
    if N % L != 0:
        raise ValueError("N must be a multiple of the block length")
    blocks = list(range(N // L))
    rng.shuffle(blocks)
    keep = np.ones((N // L, L), dtype=bool)  # one row per block
    per_block = (L + 1) // 2  # every other bit of a block, from its first
    keep[blocks[:-(-weight // per_block)], ::2] = False  # whole blocks until ``weight`` are deleted
    return _pad_to_weight(keep.ravel(), weight, rng)


def standard_pattern_family(
    params: CodeParams,
    weight: int,
    refs: Sequence[Word],
    master_seed: int = 0,
) -> list[tuple[str, DeletionPattern]]:
    """The experiment family: three uniform, delete-all-of-bit-b, and blockwise."""
    N = params.N
    rng = rngmod.py_rng(master_seed, "pattern-family")
    fam: list[tuple[str, DeletionPattern]] = []
    for k in range(3):
        fam.append((f"uniform-{k}", uniform_pattern(N, weight, rng)))
    for r, ref in enumerate(refs):
        fam.append((f"zeros-of-ref{r}", delete_bit_pattern(ref, 0, weight, rng)))
        fam.append((f"ones-of-ref{r}", delete_bit_pattern(ref, 1, weight, rng)))
    fam.append(("blockwise", blockwise_periodic_pattern(N, params.L, weight, rng)))
    return fam


def read_patterns(path, word_length: int) -> list[tuple[str, DeletionPattern]]:
    """One pattern per line: comma-separated deleted indices ('' = empty)."""
    by_line = read_lines(path, lambda line: DeletionPattern(word_length, parse_positions(line)), keep_blank=True)
    return [(f"line{k}", pat) for k, pat in by_line.items()]


def oblivious_experiment(
    params: CodeParams,
    pool: Sequence[OuterWord],
    patterns: Sequence[tuple[str, DeletionPattern]],
    seeds: Sequence[int],
    master_seed: int = 0,
    target_size: float | None = None,
    use_filter: bool = True,
    f_trials: int | None = None,
    version: str = "0",
) -> ExperimentReport:
    """Assemble codes per seed and measure average-case error per pattern."""
    if not use_filter and f_trials is not None:
        raise ValueError("'f_trials' is read only when 'use_filter' is true")
    if (twice := first_repeat(map(tuple, pool))) is not None:
        raise ValueError(f"the pool repeats the outer word {','.join(map(str, twice))}")
    target_size = outer_code_size(params) if target_size is None else float(target_size)
    outcome = (filter_candidates(pool, params, f_trials, master_seed)
               if use_filter else FilterOutcome(list(pool), []))
    candidates, discarded_fraction = outcome.kept, outcome.discarded_fraction
    report = ExperimentReport(
        kind="oblivious",
        columns=("seed", "pattern_id", "pattern_weight", "code_size", "error_fraction"),
        config={
            "n": params.n,
            "K": params.K,
            "R": params.R,
            "lambda": params.lam,
            "delta": str(params.delta),
            "pool_size": len(pool),
            "use_filter": use_filter,
            "discarded_fraction": discarded_fraction,
            "plan_target_size": target_size,
            "plan_beta": float(matchability_exponent(params)),
        },
        master_seed=master_seed,
        version=version,
    )
    encoded: dict[OuterWord, Word] = {}
    for seed in seeds:
        rng = rngmod.py_rng(master_seed, "outer-sample", seed)
        chosen = sample_outer_code(candidates, target_size, rng)
        for X in chosen:
            if X not in encoded:
                encoded[X] = encode_outer(X, params)
        C = [encoded[X] for X in chosen]
        for pid, tau in patterns:
            report.add(seed, pid, tau.weight, len(C), float(average_case_error(C, tau)))
    return report
