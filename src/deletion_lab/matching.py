"""Deterministic matching of outer words: the A-move/B-move procedure.

The matching relation approximates "tau(psi(X)) is a subsequence of psi(Y)"
using only a deletion pattern's signature.  ``run_matching`` is the scalar
reference implementation.  The fast paths share one transition, ``_jump``:
between two A-moves the walk stays at one coordinate of X, and the B-moves
it makes there are read from a skip table built once per host.

- ``batch_matchable`` matches many rows of X at once, one whole-array jump
  per coordinate; the Monte-Carlo harnesses use it.
- ``count_matchable`` counts exactly the X in [K]^m that match, by carrying
  counts over the states (b, run_a) through the same jump.

Both are cross-checked in the test suite: ``batch_matchable`` against
``run_matching``, and ``count_matchable`` against ``batch_matchable`` over
``all_outer_words``, the one exhaustive enumerator of [K]^m.
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


# per-row skip tables are built for at most this many bytes of rows at a time
TABLE_BYTES = 1 << 22


def _skip_table(Ys: np.ndarray, values: np.ndarray, t: int) -> np.ndarray:
    """skip[b, row, c]: B-moves in a row from host position b for symbol ``values[c]``.

    That is the number of consecutive symbols of host ``Ys[row]`` from b on
    that exceed the symbol, capped at min(t, n); skip[n], past the host, is
    0.  The table is filled backwards over b in the smallest unsigned dtype
    that holds the cap.
    """
    rows, n = Ys.shape
    cap = min(t, n)
    skip = np.zeros((n + 1, rows, len(values)), dtype=np.min_scalar_type(cap))
    longer = np.empty((rows, len(values)), dtype=skip.dtype)
    for b in range(n - 1, -1, -1):
        np.minimum(skip[b + 1], cap - 1, out=longer)
        longer += 1
        np.multiply(Ys[:, b, None] > values, longer, out=skip[b])
    return skip


def _jump(skip: np.ndarray, b: np.ndarray, forced: np.ndarray, cols: np.ndarray, t: int) -> np.ndarray:
    """Host position after one coordinate's B-moves, before its A-move.

    A forced B-move comes first where run_a has reached s; then the
    coordinate's symbol takes B-moves while the host stays larger, at most
    t in a row.  ``skip`` is a ``_skip_table`` and ``cols`` the flat offset
    of each (row, symbol) column within one b.
    """
    after = b + forced
    steps = skip.reshape(-1).take(after * skip[0].size + cols)
    return after + np.minimum(steps, t - forced)


def _jump_walk(cols: np.ndarray, Ys: np.ndarray, values: np.ndarray, cfg: MatchConfig) -> np.ndarray:
    """Success of every row; ``cols[a]`` is each row's table column for coordinate a.

    ``Ys`` is one shared host or one host per row.  Every row reaches
    coordinate a at the same step, and a row has failed once its b reaches
    n - 1, so no row is ever dropped from the arrays.
    """
    n = Ys.shape[1]
    skip = _skip_table(Ys, values, cfg.t)
    cols = cols + np.arange(len(Ys)) * len(values)
    b = np.zeros(cols.shape[1], dtype=np.intp)
    last_b = np.zeros_like(b)  # the latest coordinate with B-moves: run_a = a - last_b
    for a in range(len(cols)):
        nb = _jump(skip, b, last_b == a - cfg.s, cols[a], cfg.t)
        last_b[nb != b] = a
        np.minimum(nb, n - 1, out=b)
    return b < n - 1


def batch_matchable(Xs: np.ndarray, Y: Sequence[int] | np.ndarray, cfg: MatchConfig) -> np.ndarray:
    """Vectorized matching of many X rows against Y (shared, or one per row).

    Semantics are identical to run_matching under the same config.  Each
    coordinate is one whole-array ``_jump`` read from a skip table of the
    host; a per-row host gets one table per row.
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
    if m == 1:  # the walk stops before it reads anything
        return np.ones(T, dtype=bool)
    # table columns: the symbols lo..hi of Xs, then one for corruption-set
    # members, which never take a B-move
    lo, hi = (int(Xs.min()), int(Xs.max())) if T else (0, 0)
    width = hi - lo + 2
    values = np.arange(lo, lo + width)
    values[-1] = max(hi, int(Yv.max(initial=hi)))
    column = np.tile(np.arange(width - 1), (m - 1, 1))  # [a, x - lo]; the walk never reads X_m
    for a, S in enumerate(cfg.sets[:-1]):
        column[a, [x - lo for x in S if lo <= x <= hi]] = width - 1
    cols = column.reshape(-1).take(Xs[:, :-1] - lo + np.arange(m - 1) * (width - 1))
    cols = np.ascontiguousarray(cols.T)
    if not per_row_y:
        return _jump_walk(cols, Yv[None, :], values, cfg)
    row_bytes = width * (n + 1) * np.min_scalar_type(min(cfg.t, n)).itemsize
    block = max(1, TABLE_BYTES // row_bytes)
    parts = [_jump_walk(cols[:, r:r + block], Yv[r:r + block], values, cfg) for r in range(0, T, block)]
    return np.concatenate([np.zeros(0, dtype=bool), *parts])


def count_matchable(Y: Sequence[int], cfg: MatchConfig, K: int) -> int:
    """Exact number of Z in [K]^m matchable in Y, m = len(cfg.sets).

    The walk reads Z_a only while it stays at coordinate a, so the count is
    carried forward over states (b, run_a), run_a in 0..s, on arrival at
    each coordinate: every state and symbol takes one ``_jump`` at once,
    and states whose b reached n - 1 have failed.  The last symbol is never
    read, so it multiplies the count by K.  Counts are Python integers.
    """
    m, n, s = len(cfg.sets), len(Y), cfg.s
    if m < 1 or n < 1:
        raise ValueError("matching needs nonempty words")
    if K < 1:
        raise ValueError(f"alphabet size K = {K} must be positive")
    if m == 1:  # the walk stops before it reads anything
        return K
    if n == 1:  # ... and otherwise starts at b = n - 1
        return 0
    Ys = np.asarray(Y, dtype=np.int64)[None, :]
    values = np.arange(1, K + 2)
    values[-1] = max(K, int(Ys.max()))
    skip = _skip_table(Ys, values, cfg.t)
    # one state per (b, run_a) with b < n - 1; state k = b * (s + 1) + run_a
    b = np.repeat(np.arange(n - 1), s + 1)[:, None]
    run_a = np.tile(np.arange(s + 1), n - 1)[:, None]
    nb = _jump(skip, b, run_a == s, np.arange(K + 1)[None, :], cfg.t)
    # every (state, column) pair that stays alive, with the state it moves to
    dest = (nb * (s + 1) + np.where(nb == b, run_a + 1, 1)).reshape(-1)
    live = (nb < n - 1).reshape(-1)
    source = np.repeat(np.arange(len(b)), K + 1)
    column = np.tile(np.arange(K + 1), len(b))
    steps = {}  # per corruption set: sources, symbol counts and the sums by destination
    for S in set(cfg.sets[:-1]):
        members = [x - 1 for x in S if 1 <= x <= K]
        weight = np.ones(K + 1, dtype=np.int64)
        weight[members] = 0
        weight[K] = len(members)  # the set's members share the last column
        pick = np.flatnonzero(live & (weight[column] > 0))
        pick = pick[np.argsort(dest[pick], kind="stable")]
        targets, starts = np.unique(dest[pick], return_index=True)
        steps[S] = (source[pick], weight[column[pick]].astype(object), targets, starts)
    counts = np.zeros(len(b), dtype=object)
    counts[0] = 1
    for S in cfg.sets[:-1]:
        src, mult, targets, starts = steps[S]
        flows = counts[src] * mult
        counts = np.zeros(len(b), dtype=object)
        if len(targets):
            counts[targets] = np.add.reduceat(flows, starts)
    return int(counts.sum()) * K


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
