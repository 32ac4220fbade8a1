"""Writers, samplers and reference implementations that only the tests use.

The package reads the files these write but never writes them, and the
references are the slow, independent paths its fast code is compared with.
"""

import math
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Sequence

import numpy as np

from deletion_lab.construction import OuterWord, Signature
from deletion_lab.matching import Sets
from deletion_lab.oblivious import ConfusabilityGraph
from deletion_lab.online import ConfusablePair
from deletion_lab.oracles import geom_cap, geom_expectation
from deletion_lab.reporting import atomic_write_text
from deletion_lab.words import DeletionPattern, Word, WordLike, bit_deletion_pattern


def write_patterns(path, patterns: Iterable[DeletionPattern]) -> None:
    """One pattern per line, as ``oblivious.read_patterns`` reads them."""
    atomic_write_text(path, "".join(",".join(str(i) for i in pat.deleted) + "\n" for pat in patterns))


def write_outer_words(path, words: Iterable[Sequence[int]]) -> None:
    """One outer word per line, as ``construction.read_outer_words`` reads them."""
    atomic_write_text(path, "".join(",".join(str(s) for s in X) + "\n" for X in words))


def lcs_length(a: WordLike, b: WordLike) -> int:
    """Length of a longest common subsequence, bit-parallel on one Python int.

    Bit i of ``v`` stands for position i of ``a``; each bit of ``b`` updates
    all of them with a few big-int operations (Allison and Dix 1986, Hyyro
    2004), and the LCS length is the number of zero bits left in ``v``.  The
    reference for the lanes of ``words.lcs_lengths``.
    """
    aa, bb = Word(a).bits, Word(b).bits
    full = (1 << len(aa)) - 1
    ones = sum(1 << i for i, bit in enumerate(aa) if bit)
    match = (full ^ ones, ones)
    v = full
    for sym in bb:
        u = v & match[sym]
        v = ((v + u) | (v - u)) & full
    return len(aa) - v.bit_count()


def split_pattern(tau: DeletionPattern, n: int, L: int) -> list[DeletionPattern]:
    """Split a pattern on words of length n*L into n blockwise patterns, one per row of its mask."""
    if tau.word_length != n * L:
        raise ValueError(f"pattern length {tau.word_length} != {n}*{L}")
    return [DeletionPattern.from_keep(row) for row in tau.keep.reshape(n, L)]


def join_patterns(parts: Sequence[DeletionPattern]) -> DeletionPattern:
    """Inverse of ``split_pattern``: the pattern whose mask is the concatenation of the parts' masks."""
    if len({part.word_length for part in parts}) > 1:
        raise ValueError("all blocks must share one word_length")
    masks = [part.keep for part in parts]
    return DeletionPattern.from_keep(np.concatenate(masks) if masks else np.ones(0, dtype=bool))


# the position-list builders of the standard pattern family, the references
# for the keep-mask builders of ``oblivious``


def pad_positions_to_weight(positions: Iterable[int], N: int, weight: int, rng) -> DeletionPattern:
    """The first ``weight`` of the sorted positions, or them and ``rng.sample`` of the rest."""
    pos = sorted(set(positions))
    if len(pos) > weight:
        pos = pos[:weight]
    elif len(pos) < weight:
        taken = set(pos)
        rest = [i for i in range(1, N + 1) if i not in taken]
        pos += rng.sample(rest, weight - len(pos))
    return DeletionPattern(N, pos)


def uniform_positions(N: int, weight: int, rng) -> DeletionPattern:
    return DeletionPattern(N, rng.sample(range(1, N + 1), weight))


def delete_bit_positions(ref: Word, bit: int, weight: int, rng) -> DeletionPattern:
    return pad_positions_to_weight(bit_deletion_pattern(ref, bit).deleted, len(ref), weight, rng)


def blockwise_positions(N: int, L: int, weight: int, rng) -> DeletionPattern:
    blocks = list(range(N // L))
    rng.shuffle(blocks)
    positions: list[int] = []
    for blk in blocks:
        if len(positions) >= weight:
            break
        positions.extend(blk * L + off for off in range(1, L + 1, 2))
    return pad_positions_to_weight(positions, N, weight, rng)


# the float expressions of beta = log2(K) / (16 R), written out on their own:
# ``construction.matchability_exponent`` and its readers must give these bit for bit


def float_beta(K: int, R: int) -> float:
    return math.log2(K) / (16 * R)


def float_filter_threshold(K: int, R: int, n: int) -> float:
    """2 * 2^(-beta n)."""
    return 2.0 * 2.0 ** (-float_beta(K, R) * n)


def float_formula_target_size(K: int, R: int, n: int) -> float:
    """2^(gamma n) with gamma = beta / 4."""
    return 2.0 ** (float_beta(K, R) / 4 * n)


# what a signature says about the full pattern it summarises


def outer_pattern(sig: Signature) -> DeletionPattern:
    """The pattern on outer words that deletes every position outside ``sig.kept_indices``."""
    kept = set(sig.kept_indices)
    return DeletionPattern(sig.n, tuple(i for i in range(1, sig.n + 1) if i not in kept))


def tau_prime(sig: Signature) -> DeletionPattern:
    """The kept inner patterns joined into one pattern on the encoding of ``select(sig, X)``."""
    return join_patterns(sig.inner_patterns)


def select(sig: Signature, X: Sequence[int]) -> OuterWord:
    """sigma(X): the outer symbols at the kept positions."""
    if len(X) != sig.n:
        raise ValueError(f"outer word has length {len(X)}, expected {sig.n}")
    return tuple(X[i - 1] for i in sig.kept_indices)


def sampled_positive_indegree(graph: ConfusabilityGraph, inclusion_prob: float, rng) -> tuple[int, int]:
    """(sample size, #sampled vertices with an in-edge from the sample)."""
    chosen = {i for i in range(len(graph.vertices)) if rng.random() < inclusion_prob}
    hit = {x for y, x in graph.edges if y in chosen and x in chosen}
    return len(chosen), len(hit)


def weight_within_bound(weight: int, L: int, exp2: int, R: int) -> bool:
    """weight <= L*(1 - 2^-exp2 - 1/sqrt(R)), decided in exact arithmetic.

    Comparisons against the irrational 1/sqrt(R) are done in squared integer
    form, so the predicate is exact for every even R.  The reference for
    ``construction.admissible_weight_cap``.
    """
    scale = 2**exp2
    margin = L * (scale - 1) - scale * weight
    if margin < 0:
        return False
    return (scale * L) ** 2 <= margin * margin * R


def pushed(pair: ConfusablePair) -> Word:
    """The common channel output b^r ++ s_star both codewords of ``pair`` are pushed onto."""
    return Word(bytes([pair.profile.b]) * pair.profile.r_majority) + pair.s_star


# the worst-set remap of the dominance lemma


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


# capped-geometric expectations by other paths than ``oracles.geom_expectation``


def geom_mass_expectation(j: int, K: int, cap: int) -> Fraction:
    """Same expectation by direct probability-mass summation (independent path)."""
    if not 1 <= j <= K:
        raise ValueError(f"j = {j} outside [1,{K}]")
    q = Fraction(j, K)
    r = 1 - q
    total = Fraction(0)
    for z in range(1, cap):
        total += z * q * r ** (z - 1)
    total += cap * r ** (cap - 1)
    return total


def geom1_expectation(K: int, R: int, lam: int) -> Fraction:
    """E[D] where J ~ U([K]); D = 1 on J < lam, else min(Geom(J/K), sqrt(R))."""
    cap, _ = geom_cap(R)
    total = Fraction(lam - 1)
    for j in range(lam, K + 1):
        total += geom_expectation(j, K, cap)
    return total / K


def geom2_expectation(K: int, R: int, lam: int, lam_prime: int) -> Fraction:
    """E[D] where J ~ U([lam, lam']); D = min(Geom(J/K), sqrt(R))."""
    if not lam <= lam_prime <= K:
        raise ValueError("need lam <= lam' <= K")
    cap, _ = geom_cap(R)
    total = sum(geom_expectation(j, K, cap) for j in range(lam, lam_prime + 1))
    return Fraction(total, lam_prime - lam + 1)
