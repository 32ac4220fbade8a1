"""Deterministic matching of outer words: the A-move/B-move procedure.

The matching relation approximates "tau(psi(X)) is a subsequence of psi(Y)"
using only a deletion pattern's signature.  ``run_matching`` is the scalar
reference implementation; ``batch_matchable`` is a vectorized twin that
takes the same ``MatchConfig``, is used by the Monte-Carlo harnesses and is
cross-checked against the scalar one in the test suite.  ``all_outer_words``
is the one exhaustive enumerator of [K]^m.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

Sets = tuple[frozenset[int], ...]

ENUM_LIMIT = 1 << 21  # largest [K]^m that exhaustive enumeration materializes


def exact_sqrt(R: int) -> int:
    """Integer square root of a perfect square; error otherwise.

    The B-move cap is sqrt(R) and the move rules need an integer cap, so
    matching-engine work requires R to be a perfect square.
    """
    t = math.isqrt(R)
    if t * t != R:
        raise ValueError(f"R = {R} is not a perfect square; sqrt(R) cap undefined")
    return t


def worst_sets(m: int, lam: int) -> Sets:
    """m copies of [lambda-1], the worst corruption sets."""
    base = frozenset(range(1, lam))
    return tuple(base for _ in range(m))


@dataclass(frozen=True)
class MatchConfig:
    s: int  # A-move cap, paper value 2^lambda
    t: int  # B-move cap, paper value sqrt(R)
    sets: Sets

    def __post_init__(self):
        if self.s < 1 or self.t < 1:
            raise ValueError("move caps must be positive")
        object.__setattr__(self, "sets", tuple(map(frozenset, self.sets)))

    @classmethod
    def paper(cls, lam: int, R: int, sets: Sequence[frozenset[int]]) -> "MatchConfig":
        return cls(s=2**lam, t=exact_sqrt(R), sets=tuple(sets))


def pair_type(i: int, j: int, X: Sequence[int], Y: Sequence[int], sets: Sequence[frozenset[int]]) -> str:
    """'A' iff X_i is in S_i or X_i >= Y_j (indices 1-based)."""
    if not 1 <= i <= len(X):
        raise IndexError(f"i = {i} outside [1,{len(X)}]")
    if not 1 <= j <= len(Y):
        raise IndexError(f"j = {j} outside [1,{len(Y)}]")
    return "A" if X[i - 1] in sets[i - 1] or X[i - 1] >= Y[j - 1] else "B"


@dataclass(frozen=True)
class MatchTrace:
    states: tuple[tuple[int, int], ...]  # starts at (1,1)
    moves: tuple[tuple[str, str], ...]  # (move, reason), reason in A|B|forced
    success: bool

    def dump(self) -> str:
        lines = []
        for k, ((a, b), (move, reason)) in enumerate(zip(self.states, self.moves), start=1):
            lines.append(f"step {k}: ({a},{b}) move={move} type={reason}")
        return "\n".join(lines)


def _walk(X: Sequence[int], Y: Sequence[int], cfg: MatchConfig, states=None, moves=None) -> int:
    """Apply the move rules from (1, 1) until one word is exhausted; return the final a.

    Rule priority per step: forced B after s consecutive A-moves, forced A
    after t consecutive B-moves, else the pair's type (``pair_type``)
    decides.  When ``states`` and ``moves`` are lists, each step appends
    the state after it to ``states`` and its ``(move, reason)`` to ``moves``.
    """
    m, n = len(X), len(Y)
    if m < 1 or n < 1:
        raise ValueError("matching needs nonempty words")
    sets = cfg.sets
    if len(sets) != m:
        raise ValueError(f"got {len(sets)} sets for |X| = {m}")
    s, t = cfg.s, cfg.t
    a = b = 1
    run_a = run_b = 0
    while a != m and b != n:
        if run_a == s:
            move, reason = "B", "forced"
        elif run_b == t:
            move, reason = "A", "forced"
        else:
            x = X[a - 1]
            move = reason = "A" if x in sets[a - 1] or x >= Y[b - 1] else "B"
        if move == "A":
            a, run_a, run_b = a + 1, run_a + 1, 0
        else:
            b, run_b, run_a = b + 1, run_b + 1, 0
        if states is not None:
            states.append((a, b))
            moves.append((move, reason))
    return a


def run_matching(X: Sequence[int], Y: Sequence[int], cfg: MatchConfig) -> MatchTrace:
    """Execute the move rules, keeping the trace; success means a reached |X|."""
    states, moves = [(1, 1)], []
    a = _walk(X, Y, cfg, states, moves)
    return MatchTrace(tuple(states), tuple(moves), a == len(X))


def is_matchable(X: Sequence[int], Y: Sequence[int], cfg: MatchConfig) -> bool:
    """``run_matching(X, Y, cfg).success`` without building the trace."""
    return _walk(X, Y, cfg) == len(X)


def batch_matchable(Xs: np.ndarray, Y: Sequence[int] | np.ndarray, cfg: MatchConfig) -> np.ndarray:
    """Vectorized matching of many X rows against Y (shared, or one per row).

    Semantics are identical to run_matching under the same config.
    """
    Xs = np.asarray(Xs, dtype=np.int64)
    if Xs.ndim != 2:
        raise ValueError("Xs must be a 2-d array of outer words")
    T, m = Xs.shape
    Yv = np.asarray(Y, dtype=np.int64)
    per_row_y = Yv.ndim == 2
    n = Yv.shape[-1]
    if per_row_y and Yv.shape[0] != T:
        raise ValueError("per-row Y needs one row per X")
    if m < 1 or n < 1:
        raise ValueError("matching needs nonempty words")
    if len(cfg.sets) != m:
        raise ValueError(f"got {len(cfg.sets)} sets for |X| = {m}")
    # member[i, x - lo] answers "x in S_i" for every symbol that occurs in Xs
    lo, hi = int(Xs.min(initial=0)), int(Xs.max(initial=0))
    member = np.zeros((m, hi - lo + 1), dtype=bool)
    for i, S in enumerate(cfg.sets):
        member[i, [x - lo for x in S if lo <= x <= hi]] = True
    a = np.zeros(T, dtype=np.int64)  # 0-based
    b = np.zeros(T, dtype=np.int64)
    run_a = np.zeros(T, dtype=np.int64)
    run_b = np.zeros(T, dtype=np.int64)
    done = (a == m - 1) | (b == n - 1)
    while True:
        idx = np.nonzero(~done)[0]
        if idx.size == 0:
            break
        ai = a[idx]
        xa = Xs[idx, ai]
        yb = Yv[idx, b[idx]] if per_row_y else Yv[b[idx]]
        type_a = member[ai, xa - lo] | (xa >= yb)
        forced_b = run_a[idx] == cfg.s
        forced_a = run_b[idx] == cfg.t
        move_a = ~forced_b & (forced_a | type_a)
        a[idx] += move_a
        b[idx] += ~move_a
        run_a[idx] = np.where(move_a, run_a[idx] + 1, 0)
        run_b[idx] = np.where(move_a, 0, run_b[idx] + 1)
        done[idx] = (a[idx] == m - 1) | (b[idx] == n - 1)
    return a == m - 1


def remap_bijection(A: frozenset[int], lam: int, K: int) -> dict[int, int]:
    """The involution h_A: swap A \\ [lam-1] with [lam-1] \\ A, ascending pairs.

    h maps A into [lam-1] and never decreases symbols outside A.
    """
    if len(A) != lam - 1:
        raise ValueError(f"|A| = {len(A)} != lambda-1 = {lam - 1}")
    if A and (min(A) < 1 or max(A) > K):
        raise ValueError("set elements outside [K]")
    base = set(range(1, lam))
    uppers = sorted(A - base)
    lowers = sorted(base - A)
    h: dict[int, int] = {}
    for x, y in zip(uppers, lowers):
        h[x], h[y] = y, x
    return h


def worst_case_remap(X: Sequence[int], sets: Sequence[frozenset[int]], K: int) -> tuple[int, ...]:
    """Coordinatewise h_{S_i}(X_i); bijective on [K]^|X|."""
    if len(sets) != len(X):
        raise ValueError("need one set per coordinate")
    return tuple(h.get(x, x) for x, h in zip(X, _coordinate_remaps(tuple(map(frozenset, sets)), K)))


@lru_cache(maxsize=256)
def _coordinate_remaps(sets: Sets, K: int) -> tuple[dict[int, int], ...]:
    """h_{S_i} for each coordinate, built once per (sets, K); callers only read them."""
    sizes = {len(S) for S in sets}
    if len(sizes) != 1:
        raise ValueError("all sets must share size lambda-1")
    lam = sizes.pop() + 1
    hs = {S: remap_bijection(S, lam, K) for S in set(sets)}
    return tuple(hs[S] for S in sets)


def all_outer_words(K: int, m: int) -> np.ndarray:
    """Every word of [K]^m as one int64 row each, in lexicographic order."""
    if K**m > ENUM_LIMIT:
        raise ValueError(f"K^m = {K**m} exceeds enumeration limit {ENUM_LIMIT}")
    grids = np.meshgrid(*[np.arange(1, K + 1, dtype=np.int64)] * m, indexing="ij")
    return np.stack([g.reshape(-1) for g in grids], axis=1)


def match_count_dominance(
    Y: Sequence[int],
    sets: Sequence[frozenset[int]],
    s: int,
    t: int,
    K: int,
    m: int,
) -> tuple[int, int]:
    """Exhaustive (#matchable under sets, #matchable under worst sets).

    The paper's dominance lemma says the first count never exceeds the
    second; both are exact enumerations over [K]^m, and callers check the
    inequality.
    """
    Xs = all_outer_words(K, m)
    lam = len(sets[0]) + 1
    count_s = int(batch_matchable(Xs, Y, MatchConfig(s, t, tuple(sets))).sum())
    count_worst = int(batch_matchable(Xs, Y, MatchConfig(s, t, worst_sets(m, lam))).sum())
    return count_s, count_worst
