"""Deterministic matching of outer words: the A-move/B-move procedure.

The matching relation approximates "tau(psi(X)) is a subsequence of psi(Y)"
using only a deletion pattern's signature.  ``run_matching`` is the scalar
reference implementation.  The fast paths share one transition, ``_jump``:
between two A-moves the walk stays at one coordinate of X, and the B-moves
it makes there are read from a skip table built once per host.

- ``batch_matchable`` matches many rows of X at once, one whole-array jump
  per coordinate, each row against the host it names in a stack of hosts;
  the Monte-Carlo harnesses score many hosts in one walk.
- ``count_matchable`` counts exactly the X in [K]^m that match, by carrying
  counts over the states (b, run_a) through the same jump.

Both are cross-checked in the test suite: ``batch_matchable`` against
``run_matching``, and ``count_matchable`` against ``batch_matchable`` over
``all_outer_words``, the one exhaustive enumerator of [K]^m.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
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


@dataclass(frozen=True)
class MatchTrace:
    states: tuple[tuple[int, int], ...]  # starts at (1,1)
    moves: tuple[tuple[str, str], ...]  # (move, reason), reason in A|B|forced
    success: bool


def _walk(X: Sequence[int], Y: Sequence[int], cfg: MatchConfig, states=None, moves=None) -> int:
    """Apply the move rules from (1, 1) until one word is exhausted; return the final a.

    Rule priority per step: forced B after s consecutive A-moves, forced A
    after t consecutive B-moves, else the type of the pair (a, b) decides:
    'A' iff X_a is in S_a or X_a >= Y_b.  When ``states`` and ``moves`` are
    lists, each step appends the state after it to ``states`` and its
    ``(move, reason)`` to ``moves``.
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


# the skip tables of a stack of hosts are built for at most this many bytes at a time
TABLE_BYTES = 1 << 22


def _skip_table(Ys: np.ndarray, values: np.ndarray, t: int) -> np.ndarray:
    """skip[b, h, c]: B-moves in a row from host position b for symbol ``values[c]``.

    That is the number of consecutive symbols of host ``Ys[h]`` from b on
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
    of each (host, symbol) column within one b.
    """
    after = b + forced
    steps = skip.reshape(-1).take(after * skip[0].size + cols)
    return after + np.minimum(steps, t - forced)


def batch_matchable(Xs: np.ndarray, hosts: Sequence[Sequence[int]] | np.ndarray, cfg: MatchConfig,
                    host: Sequence[int] | np.ndarray) -> np.ndarray:
    """Vectorized matching of many X rows, row r against the host ``hosts[host[r]]``.

    ``hosts`` is a stack of equal-length hosts and ``host`` names one of them
    per row.  Semantics are identical to run_matching under the same config.
    """
    Xs = np.asarray(Xs)
    if Xs.ndim != 2:
        raise ValueError("Xs must be a 2-d array of outer words")
    T, m = Xs.shape
    Ys = np.asarray(hosts, dtype=np.int64)
    host = np.asarray(host, dtype=np.intp)
    if Ys.ndim != 2 or host.shape != (T,) or T and not 0 <= host.min() <= host.max() < len(Ys):
        raise ValueError(f"a host index needs a stack of hosts and one entry in [0, {len(Ys)}) per row")
    n = Ys.shape[1]
    if m < 1 or n < 1:
        raise ValueError("matching needs nonempty words")
    if len(cfg.sets) != m:
        raise ValueError(f"got {len(cfg.sets)} sets for |X| = {m}")
    if m == 1:  # the walk stops before it reads anything
        return np.ones(T, dtype=bool)
    # table columns: the symbols lo..hi, lo = min(0, min Xs), then one for
    # corruption-set members, which never take a B-move
    Xs = Xs if Xs.dtype.kind in "iu" else Xs.astype(np.int64)
    lo, hi = (min(int(Xs.min()), 0), int(Xs.max())) if T else (0, 0)
    width = hi - lo + 2
    values = np.arange(lo, lo + width)
    values[-1] = max(hi, int(Ys.max(initial=hi)))
    column = np.tile(np.arange(width - 1), (m - 1, 1))  # [a, x - lo]; the walk never reads X_m
    for a, S in enumerate(cfg.sets[:-1]):
        column[a, [x - lo for x in S if lo <= x <= hi]] = width - 1
    # One walk per block of hosts whose skip tables fit in TABLE_BYTES.  Rows reach coordinate a
    # together and look up its table column then; b reaching n - 1 marks a failed row, never dropped.
    per_table = max(1, TABLE_BYTES // (width * (n + 1) * np.min_scalar_type(min(cfg.t, n)).itemsize))
    matched = np.zeros(T, dtype=bool)
    for h in range(0, len(Ys), per_table):
        rows = np.flatnonzero((host >= h) & (host < h + per_table)) if len(Ys) > per_table else slice(None)
        skip = _skip_table(Ys[h:h + per_table], values, cfg.t)
        base = (host[rows] - h) * width  # flat offset of each row's host within one b
        b = np.zeros(len(base), dtype=np.intp)
        last_b = np.zeros_like(b)  # the latest coordinate with B-moves: run_a = a - last_b
        for a in range(m - 1):
            cols = column[a].take(Xs[rows, a] if lo == 0 else np.subtract(Xs[rows, a], lo, dtype=np.intp))
            nb = _jump(skip, b, last_b == a - cfg.s, np.add(cols, base, out=cols), cfg.t)
            last_b[nb != b] = a
            np.minimum(nb, n - 1, out=b)
        matched[rows] = b < n - 1
    return matched


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
    hosts, host = [Y], np.zeros(len(Xs), dtype=np.intp)
    count_s = int(batch_matchable(Xs, hosts, MatchConfig(s, t, tuple(sets)), host).sum())
    count_worst = int(batch_matchable(Xs, hosts, MatchConfig(s, t, worst_sets(m, lam)), host).sum())
    return count_s, count_worst
