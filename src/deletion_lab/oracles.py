"""Brute-force and closed-form oracles for the desk-checkable lemmas.

Every oracle run is reproducible from (name, parameters, seed), reports the
number of instances checked, and carries witnesses for any violation.
Sampled modes always mix in the structured adversarial inputs (delete-all-
zeros patterns and friends), since uniform randomness rarely stresses the
bounds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache, lru_cache
from itertools import combinations
from typing import Callable, Iterable, NamedTuple, Sequence

import numpy as np

from . import rng as rngmod
from . import words as wordsmod
from .construction import (
    CodeParams,
    admissible_weight_cap,
    corrupted_flags,
    corruption_sets,
    encode_outer,
    pad_corruption_set,
    preserves,
    toy_params,
)
from .matching import (
    MatchConfig,
    batch_matchable,
    exact_sqrt,
    is_matchable,
    match_count_dominance,
    worst_sets,
)
from .words import (
    DeletionPattern,
    Word,
    apply_pattern,
    bit_deletion_pattern,
    is_subsequence,
)

MAX_WITNESSES = 10


@dataclass
class OracleReport:
    name: str
    mode: str
    instances: int = 0
    violations: int = 0
    witnesses: list = field(default_factory=list)
    extras: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return self.violations == 0

    def record_violation(self, witness) -> None:
        self.violations += 1
        if len(self.witnesses) < MAX_WITNESSES:
            self.witnesses.append(witness)

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "mode": self.mode,
            "instances": self.instances,
            "violations": self.violations,
            "witnesses": [repr(w) for w in self.witnesses],
            "extras": {k: repr(v) for k, v in self.extras.items()},
        }

    def summary(self) -> str:
        verdict = "ok" if self.ok else "VIOLATIONS"
        return (
            f"{self.name} [{self.mode}]: {self.instances} instances, "
            f"{self.violations} violations -> {verdict}"
        )


# ---------------------------------------------------------------------------
# deletion/insertion decodability and the LCS criterion


def deletion_ball(w: Word, k: int) -> frozenset[bytes]:
    """All words obtained from w by exactly k deletions (none when k > len(w))."""
    bits = w.bits
    if k > len(bits):
        return frozenset()
    out = set()
    for keep in combinations(range(len(bits)), len(bits) - k):
        out.add(bytes(bits[i] for i in keep))
    return frozenset(out)


def insertion_ball(w: Word, k: int) -> frozenset[bytes]:
    """All words obtained from w by exactly k single-bit insertions."""
    cur = {w.bits}
    for _ in range(k):
        nxt = set()
        for word in cur:
            for pos in range(len(word) + 1):
                for bit in (0, 1):
                    nxt.add(word[:pos] + bytes([bit]) + word[pos:])
        cur = nxt
    return frozenset(cur)


def indel_reach(w: Word, t: int) -> frozenset[bytes]:
    """All words reachable from w with at most t insertions+deletions total."""
    out = set()
    for d in range(t + 1):
        for dw in deletion_ball(w, d):
            for i in range(t - d + 1):
                out |= insertion_ball(Word(dw), i)
    return frozenset(out)


def _collision_free(
    C: Sequence[Word], ball: Callable[[Word, int], frozenset[bytes]], radii: Sequence[int]
) -> bool:
    """True iff no two codewords x, y share a word of ``ball(x, k)`` and ``ball(y, k)``, k in ``radii``.

    Pairs are taken in order, and the radii in order within a pair; the
    search stops at the first collision.  Each ball is built on first use and
    then kept, so a codeword's balls are not rebuilt for every pair.
    """
    ball = cache(ball)
    return not any(ball(x, k) & ball(y, k) for x, y in combinations(C, 2) for k in radii)


def exhaustive_decodable(C: Sequence[Word], t: int) -> bool:
    """True iff no two codewords collide under <= t deletions each."""
    return _collision_free([Word(c) for c in C], deletion_ball, range(t + 1))


def max_pairwise_lcs(C: Sequence[Word]) -> int | None:
    """Max LCS over distinct codeword pairs; None for |C| < 2 (read: -inf).

    The lengths come from ``words.lcs``, which runs the same bit-parallel
    update as one lane of ``words.lcs_lengths``.  The oracle's independent
    check is exhaustive decodability: ``levenshtein_equivalence`` compares
    this maximum with ``exhaustive_decodable`` and the insertion and
    mixed-edit searches.  (perfbench's verify-all trace expects calls at
    the ``words.lcs`` site.)
    """
    best = None
    for x, y in combinations([Word(c) for c in C], 2):
        v = wordsmod.lcs(x, y).length
        best = v if best is None else max(best, v)
    return best


def levenshtein_equivalence(
    codes: Iterable[Sequence[Word]],
    t: int,
    check_insertions: bool = True,
) -> OracleReport:
    """Check the four-way equivalence of t-deletion decodability.

    For each code C of blocklength n: decodable under t deletions, t
    insertions, and t mixed edits must all coincide with max-LCS <= n-t-1.
    """
    report = OracleReport(name="levenshtein-equivalence", mode=f"t={t}")
    for C in codes:
        C = [Word(c) for c in C]
        report.instances += 1
        n = len(C[0]) if C else 0
        top = max_pairwise_lcs(C)
        lcs_ok = True if top is None else top <= n - t - 1
        verdicts = {"deletions": exhaustive_decodable(C, t)}
        if check_insertions:
            verdicts["insertions"] = _collision_free(C, insertion_ball, range(t + 1))
            verdicts["mixed"] = _collision_free(C, indel_reach, (t,))
        if any(v != lcs_ok for v in verdicts.values()):
            report.record_violation(
                {"code": [c.to01() for c in C], "t": t, "lcs_ok": lcs_ok, **verdicts}
            )
    return report


# ---------------------------------------------------------------------------
# corruption cost of inner deletion patterns


def structured_inner_patterns(params: CodeParams) -> list[tuple[str, DeletionPattern]]:
    """Adversarial inner patterns: cumulative delete-all-zeros chains.

    Deleting all zeros of g_{i1}, then the remaining zeros of g_{i2}, and so
    on, is the extremal family behind the corruption-cost bound.
    """
    words = params.inner_words
    out: list[tuple[str, DeletionPattern]] = []
    for order in ([*range(params.K, 0, -1)], [*range(1, params.K + 1)]):
        keep = np.ones(params.L, dtype=bool)
        chain: list[int] = []
        for i in order:
            keep &= bit_deletion_pattern(words[i - 1], 0).keep
            chain.append(i)
            out.append(("zeros-of-" + ",".join(map(str, chain)), DeletionPattern.from_keep(keep)))
    for i, g in enumerate(words, start=1):
        # delete every other run of g_i (all its zeros), one codeword at a time
        out.append((f"zeros-of-{i}", bit_deletion_pattern(g, 0)))
        out.append((f"ones-of-{i}", bit_deletion_pattern(g, 1)))
    return out


# the corruption-cost oracle checks its keep masks in stacks of at most this many bits
MASK_CHUNK_BITS = 1 << 16


def verify_corruption_cost(
    params: CodeParams,
    samples: int | None = None,
    master_seed: int = 0,
) -> OracleReport:
    """Corrupting c inner codewords needs more than L(1-2^-c-1/sqrt(R)) deletions.

    ``samples=None`` checks all 2^L inner patterns (mode "exhaustive", L <= 20); a count checks
    that many weight-stratified uniform ones plus the structured adversaries (mode "sampled").

    The keep masks are checked in stacks of MASK_CHUNK_BITS bits: exhaustive
    mode reads the masks of a stack off the bits of their numbers.  Sampled
    mode makes two draws per stack from the call's one generator: the
    stack's weights, each uniform in [0, max_useful], then its masks, each a
    uniform subset of its weight from ``rng.uniform_keep_masks``.
    A pattern of weight w that corrupts c >= 1 codewords breaks the bound iff
    w is at most the weight cap of (c-1)-admissible patterns.
    """
    L, K = params.L, params.K
    report = OracleReport(name="corruption-cost", mode="exhaustive" if samples is None else "sampled")
    report.extras["params"] = (K, params.R, L, params.lam)
    # caps[c]: the largest weight within L(1 - 2^-c - 1/sqrt(R)); caps[0] = -1 admits no pattern
    caps = np.array([-1] + [admissible_weight_cap(params, c - 1) for c in range(1, K + 1)])
    rows = max(1, MASK_CHUNK_BITS // L)

    def check(keep: np.ndarray, label) -> None:
        """Check the stacked masks ``keep``; ``label(row)`` names a mask in its witness."""
        report.instances += len(keep)
        weights = L - np.count_nonzero(keep, axis=1)
        corrupted = np.count_nonzero(corrupted_flags(params, keep), axis=-1)
        for row in np.flatnonzero(weights <= caps[corrupted]).tolist():
            report.record_violation(
                {"pattern": label(row), "weight": int(weights[row]), "corrupted": int(corrupted[row])}
            )

    if samples is None:
        if L > 20:
            raise ValueError(f"exhaustive mode infeasible at L = {L}")
        positions = np.arange(L)
        for lo in range(0, 2**L, rows):
            masks = np.arange(lo, min(lo + rows, 2**L))[:, None]
            check((masks >> positions) & 1 == 0, lambda row, lo=lo: f"mask={lo + row:#x}")
    else:
        gen = rngmod.np_rng(master_seed, "corruption-cost")
        # stratify weights over the interesting range (beyond the largest
        # bound everything is vacuous)
        max_useful = min(L, math.ceil(L * (1 - 0.5**K)) + 2)
        for lo in range(0, samples, rows):
            weights = gen.integers(0, max_useful + 1, size=min(rows, samples - lo))
            check(rngmod.uniform_keep_masks(gen, L, weights), lambda row, lo=lo: f"sample-{lo + row}")
        labels, patterns = zip(*structured_inner_patterns(params))
        check(np.stack([pat.keep for pat in patterns]), labels.__getitem__)
    return report


# ---------------------------------------------------------------------------
# matching implication: subsequence containment forces matchability


def _draw_implication_chunk(
    params: CodeParams, gen: np.random.Generator, count: int, cap: int, admissible: Sequence[int]
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The draw phase of ``verify_matching_implication`` for ``count`` instances.

    The chunk's arrays come whole from its generator ``gen``, in this order:

    1. X (count x delta n), then the style of Y (count), uniform in {0, 1, 2};
    2. uniform rows in [K]^n and low-symbol rows in [max(2, K) - 1]^n
       (count x n each), then, for each style-1 row, the delta n positions
       at which its Y takes X's symbols in order;
    3. the kind of every block (count x delta n), uniform in {0, 1, 2, 3};
    4. for each kind-2 block, a pick uniform among ``admissible``, the g_i
       whose zeros all fit in the weight cap;
    5. for each kind-1 block, a weight uniform in [1, cap];
    6. the keys of the fresh masks, one per block of kind 1 or 3.

    Style 0 and 1 take Y from the uniform rows, style 2 from the low ones.
    A block of kind 0, or of any kind when cap <= 0, is the empty pattern.
    Kind 2 deletes all zeros of its pick (nothing when no g_i is
    admissible), kind 1 a uniform subset of its weight and kind 3 one of
    weight cap; the subsets and style 1's positions come from
    ``rng.uniform_keep_masks``.  Returns the rows of X, of Y and of block
    ids, and the stacked keep masks of the fresh blocks.  Block id i <= K
    names shared pattern i (0: the empty pattern, i: the zeros of g_i), and
    id K + 1 + r the fresh mask r, numbered in row-major block order.
    """
    K, L, n, dn = params.K, params.L, params.n, params.delta_n
    Xs = gen.integers(1, K + 1, size=(count, dn))
    style = gen.integers(0, 3, size=count)
    Ys = gen.integers(1, K + 1, size=(count, n))
    low = gen.integers(1, max(2, K), size=(count, n))
    Ys[style == 2] = low[style == 2]
    embedded = Ys[style == 1]
    embedded[~rngmod.uniform_keep_masks(gen, n, np.full(len(embedded), dn))] = Xs[style == 1].reshape(-1)
    Ys[style == 1] = embedded
    kinds = gen.integers(0, 4, size=(count, dn))
    if cap <= 0:
        kinds[:] = 0  # no block may delete anything
    blocks = np.zeros((count, dn), dtype=np.int64)
    if admissible:
        picks = gen.integers(0, len(admissible), size=np.count_nonzero(kinds == 2))
        blocks[kinds == 2] = np.asarray(admissible)[picks]
    fresh = (kinds == 1) | (kinds == 3)
    weights = np.full(np.count_nonzero(fresh), cap)
    weights[kinds[fresh] == 1] = gen.integers(1, cap + 1, size=np.count_nonzero(kinds == 1))
    blocks[fresh] = K + 1 + np.arange(len(weights))
    return Xs, Ys, blocks, rngmod.uniform_keep_masks(gen, L, weights)


# matching-implication instances drawn, then decided, together; memory grows
# with this, not with the number of instances
IMPLICATION_CHUNK = 64


def verify_matching_implication(
    params: CodeParams,
    instances: int = 10_000,
    master_seed: int = 0,
) -> OracleReport:
    """Whenever tau(psi(X)) embeds in psi(Y), X must match in Y.

    tau is blockwise (lambda-1)-admissible; corruption sets are read off the
    blocks by ``construction``'s rule, as signature extraction reads them.
    Y generation is biased so a healthy share of instances actually
    satisfies the containment.

    The instances run IMPLICATION_CHUNK at a time, in two phases.

    - Draw: chunk c seeds its own generator, ``rng.np_rng(master_seed,
      "matching-implication", c)``, and ``_draw_implication_chunk`` draws
      the chunk's arrays from it whole, in a fixed order.  A block that is
      the empty pattern or the deletion of all zeros of some g_i names one
      of these K + 1 shared patterns; every other block gets a fresh keep
      mask in one stacked array of the chunk.
    - Decide: one ``corruption_sets`` call gives the sets of every fresh
      mask of the chunk, from one stacked run count per inner codeword.  The
      shared patterns got theirs from ``preserves`` once per call.  One
      ``apply_pattern`` of the chunk's joined tau to psi of the chunk's X words, the concatenation of
      their psi(X), gives every tau(psi(X)).  Each is tested against its
      psi(Y) from ``encode_outer`` with the scalar ``is_subsequence``, and
      each containment goes to ``is_matchable``.

    No word, run tuple or mask of one chunk is kept for the next, so memory
    grows with the chunk and not with ``instances``.  A witness's ``blocks``
    are read off the mask rows only when a violation is recorded.
    """
    K = params.K
    shared = [DeletionPattern(params.L, ())] + [bit_deletion_pattern(g, 0) for g in params.inner_words]
    cap = admissible_weight_cap(params, params.lam - 1)
    admissible = [i for i, pat in enumerate(shared[1:], 1) if pat.weight <= cap]
    shared_keep = np.stack([pat.keep for pat in shared])
    shared_sets = [pad_corruption_set({i for i in range(1, K + 1) if not preserves(pat, i, params)}, params)
                   for pat in shared]
    report = OracleReport(name="matching-implication", mode=f"instances={instances}")

    def check_chunk(chunk: int, count: int) -> int:
        """Draw and decide the ``count`` instances of chunk ``chunk``; returns how many are containments."""
        gen = rngmod.np_rng(master_seed, "matching-implication", chunk)
        Xs, Ys, blocks, fresh = _draw_implication_chunk(params, gen, count, cap, admissible)
        masks = np.concatenate([shared_keep, fresh])
        sets = shared_sets + corruption_sets(params, fresh)
        # every block of the chunk, joined, applied to psi of the chunk's X words
        corrupted_words = apply_pattern(
            DeletionPattern.from_keep(masks[blocks].reshape(-1)),
            encode_outer(Xs.reshape(-1).tolist(), params),
        )
        ends = np.cumsum(np.count_nonzero(masks, axis=1)[blocks].sum(axis=1)).tolist()
        start = positives = 0
        for X, Y, ids, end in zip(Xs.tolist(), Ys.tolist(), blocks.tolist(), ends):
            corrupted_word, start = corrupted_words[start:end], end
            report.instances += 1
            if not is_subsequence(corrupted_word, encode_outer(Y, params)):
                continue
            positives += 1
            X, Y = tuple(X), tuple(Y)
            if not is_matchable(X, Y, MatchConfig.paper(params.lam, params.R, [sets[i] for i in ids])):
                deleted = [DeletionPattern.from_keep(masks[i]).deleted for i in ids]
                report.record_violation({"X": X, "Y": Y, "blocks": deleted})
        return positives

    report.extras["positives"] = sum(
        check_chunk(lo // IMPLICATION_CHUNK, min(IMPLICATION_CHUNK, instances - lo))
        for lo in range(0, instances, IMPLICATION_CHUNK)
    )
    return report


def verify_worst_sets_dominance(master_seed: int = 0) -> OracleReport:
    """Random corruption sets never admit more matchable X than the worst sets.

    K = 3, lambda = 2: for each of 100 random hosts Y in [K]^8 with four
    random (lambda-1)-sets, ``match_count_dominance`` counts the matchable X
    of [K]^4 exactly under both, with the caps s = 4, t = 2.
    """
    report = OracleReport(name="worst-sets-dominance", mode="random-configs")
    rng = rngmod.py_rng(master_seed, "verify-dominance")
    K, m, lam = 3, 4, 2
    for _ in range(100):
        Y = [rng.randrange(1, K + 1) for _ in range(8)]
        sets = tuple(frozenset(rng.sample(range(1, K + 1), lam - 1)) for _ in range(m))
        count_s, count_worst = match_count_dominance(Y, sets, s=4, t=2, K=K, m=m)
        report.instances += 1
        if count_s > count_worst:
            report.record_violation({"Y": Y, "sets": sets})
    return report


# ---------------------------------------------------------------------------
# matchability decay in n


def matchability_estimates(
    K: int,
    R: int,
    lam: int,
    delta: Fraction,
    ns: Sequence[int],
    trials: int,
    master_seed: int = 0,
) -> dict[int, float]:
    """Monte-Carlo Pr[X matchable in Y] for uniform X in [K]^(delta n), Y in [K]^n."""
    out: dict[int, float] = {}
    for n in ns:
        dn = int(Fraction(delta) * n)
        gen = rngmod.np_rng(master_seed, "matching-decay", n)
        Xs = gen.integers(1, K + 1, size=(trials, dn))
        Ys = gen.integers(1, K + 1, size=(trials, n))
        wins = batch_matchable(Xs, Ys, MatchConfig.paper(lam, R, worst_sets(dn, lam)), np.arange(trials))
        out[n] = float(wins.mean())
    return out


def fit_log_decay(estimates: dict[int, float]) -> dict:
    """Least-squares line through (n, log2 estimate); slope and R^2."""
    ns = sorted(estimates)
    xs = np.array(ns, dtype=float)
    ys = np.array([math.log2(estimates[n]) for n in ns])
    slope, intercept = np.polyfit(xs, ys, 1)
    pred = slope * xs + intercept
    ss_res = float(((ys - pred) ** 2).sum())
    ss_tot = float(((ys - ys.mean()) ** 2).sum())
    r2 = 1.0 if ss_tot == 0 else 1.0 - ss_res / ss_tot
    return {"slope": float(slope), "intercept": float(intercept), "r2": r2}


def verify_matching_decay(
    K: int = 32,
    R: int = 4096,
    lam: int = 1,
    delta: Fraction = Fraction(3, 4),
    ns: Sequence[int] = (8, 16, 24, 32),
    trials: int = 100_000,
    master_seed: int = 0,
) -> OracleReport:
    """Matchability probability is nonincreasing in n with log-linear decay.

    The defaults put the dynamics clearly in the decaying regime: the B-move
    cap sqrt(R) is large enough that a typical symbol consumes more than
    1/delta host symbols.
    """
    est = matchability_estimates(K, R, lam, delta, ns, trials, master_seed)
    zero = [n for n in ns if est[n] == 0]
    if zero:  # log2 of a zero estimate has no value, so the fit cannot take it
        raise ValueError(f"matching-decay: the estimate at n = {zero[0]} is 0 after {trials} trials")
    fit = fit_log_decay(est)
    report = OracleReport(name="matching-decay", mode=f"trials={trials}")
    report.instances = len(ns)
    report.extras.update({"estimates": est, **fit})
    ordered = [est[n] for n in sorted(est)]
    if any(b > a for a, b in zip(ordered, ordered[1:])):
        report.record_violation({"estimates": est, "reason": "not nonincreasing"})
    if fit["slope"] >= 0:
        report.record_violation({"fit": fit, "reason": "slope not negative"})
    if fit["r2"] < 0.9:
        report.record_violation({"fit": fit, "reason": "poor linear fit"})
    return report


# ---------------------------------------------------------------------------
# capped-geometric expectations (exact rationals)


def geom_cap(R: int) -> tuple[int, bool]:
    """(floor(sqrt(R)), exactness flag) for the geometric cap."""
    t = math.isqrt(R)
    return t, t * t == R


@lru_cache(maxsize=4096)
def geom_expectation(j: int, K: int, cap: int) -> Fraction:
    """E[min(Geometric(j/K), cap)] in closed form: (1 - (1-j/K)^cap)/(j/K)."""
    if not 1 <= j <= K:
        raise ValueError(f"j = {j} outside [1,{K}]")
    if cap < 1:
        raise ValueError("cap must be at least 1")
    q = Fraction(j, K)
    r = 1 - q
    return (1 - r**cap) / q


def verify_geom_bounds(
    Ks: Sequence[int] = (16, 32, 64),
    lams: Sequence[int] = (1, 2),
) -> OracleReport:
    """Exact checks of the capped-geometric lower bounds, as integer inequalities.

    Per K (power of two) with R = 4K^4 and cap = sqrt(R), the capped
    expectation is E_j(c) = E[min(Geom(j/K), c)] = (K^c - (K-j)^c) / (j K^(c-1)).

    - For every j: E_j(cap-1) > K/(2j) - 1.  Times 2j K^(cap-2) > 0 this is
      2(K^(cap-1) - (K-j)^(cap-1)) > (K-2j) K^(cap-2).
    - With D = lcm(1..K) K^(cap-1), every D E_j(cap) is an integer; P[l] is
      their sum over j <= l.  For each given lam and every lam' in [lam, K]
      the window average over J ~ U([lam, lam']) is at least log2(K)/4:
      4(P[lam'] - P[lam-1]) >= log2(K) (lam'-lam+1) D.
    - E[D] for J ~ U([K]), with D = 1 on J < lam, is at least log2(K)/4:
      4((lam-1) D + P[K] - P[lam-1]) >= log2(K) K D.

    The prefix sums are cross-checked, term by term, against the Fraction
    closed form ``geom_expectation`` at the cap ``geom_cap`` gives.
    The terms are compared by cross-multiplying: adding Fractions whose
    denominators reach 64^8192 spends its time in ``math.gcd``.  A j-check
    witness carries the exact Fraction value.
    """
    report = OracleReport(name="geometric-bounds", mode=f"K in {tuple(Ks)}")
    for K in Ks:
        if K & (K - 1) != 0 or K <= 8:
            raise ValueError("exact bound checks need power-of-two K > 8")
        R = 4 * K**4
        cap = exact_sqrt(R)
        true_cap, _ = geom_cap(R)  # found without ``exact_sqrt``, so the sweep also catches a wrong cap
        log2K = K.bit_length() - 1
        top = K ** (cap - 1)
        lcm = math.lcm(*range(1, K + 1))
        D = lcm * top
        prefix = [0]
        for j in range(1, K + 1):
            report.instances += 1
            low = (K - j) ** (cap - 1)
            if not 2 * (top - low) > (K - 2 * j) * (top // K):
                report.record_violation({"K": K, "j": j, "value": geom_expectation(j, K, cap - 1)})
            prefix.append(prefix[-1] + (top * K - low * (K - j)) * (lcm // j))
        for lam in lams:
            report.instances += 1
            if not 4 * ((lam - 1) * D + prefix[K] - prefix[lam - 1]) >= log2K * K * D:
                report.record_violation({"K": K, "lam": lam, "which": "uniform-on-[K]"})
            for lam_prime in range(lam, K + 1):
                report.instances += 1
                if not 4 * (prefix[lam_prime] - prefix[lam - 1]) >= log2K * (lam_prime - lam + 1) * D:
                    report.record_violation(
                        {"K": K, "lam": lam, "lam_prime": lam_prime, "which": "uniform-window"}
                    )
            # prefix-sum sweep must agree with the closed form term by term:
            # D E_j(cap) = num/den  <=>  (P[j] - P[j-1]) den = D num, with no Fraction sum
            spot = min(lam + 3, K)
            closed = [geom_expectation(j, K, true_cap) for j in range(lam, spot + 1)]
            if any((prefix[j] - prefix[j - 1]) * e.denominator != D * e.numerator
                   for j, e in zip(range(lam, spot + 1), closed)):
                report.record_violation(
                    {"K": K, "lam": lam, "lam_prime": spot, "which": "prefix-sum-sweep"}
                )
    return report


# ---------------------------------------------------------------------------
# alternating absorption and the random bit-flip code demo


ABSORPTION_CHUNK = 1 << 12  # words alternating_absorption draws and walks at a time


def alternating_absorption(
    n: int,
    trials: int = 10_000,
    master_seed: int = 0,
) -> OracleReport:
    """Estimate Pr[uniform word of length .6n embeds in 0101... of length .91n].

    The words are drawn in order off one generator, ABSORPTION_CHUNK at a time.
    """
    m = int(0.6 * n)
    alen = int(0.91 * n)
    flagged = not (math.isclose(0.6 * n, m) and math.isclose(0.91 * n, alen))
    gen = rngmod.np_rng(master_seed, "alternating-absorption")
    hits = 0
    for lo in range(0, trials, ABSORPTION_CHUNK):
        bits = gen.integers(0, 2, size=(min(ABSORPTION_CHUNK, trials - lo), m))
        # greedy embedding into an alternating word has a closed-form position
        # update: land on the next index of matching parity, then advance
        pos = np.zeros(len(bits), dtype=np.int64)
        for k in range(m):
            pos += (pos % 2) != bits[:, k]
            pos += 1
        hits += int((pos <= alen).sum())
    report = OracleReport(name="alternating-absorption", mode=f"n={n}")
    report.instances = trials
    report.extras.update(
        {"estimate": hits / trials, "word_len": m, "host_len": alen, "rounded": flagged}
    )
    return report


def binary_entropy(p: float) -> float:
    """h(p) = -p log2 p - (1-p) log2 (1-p), with h(0) = h(1) = 0."""
    if not 0 <= p <= 1:
        raise ValueError(f"p = {p} outside [0,1]")
    if p in (0, 1):
        return 0.0
    return -p * math.log2(p) - (1 - p) * math.log2(1 - p)


def oblivious_bitflip_demo(
    n: int = 20,
    rate: float = 0.3,
    p: float = 0.1,
    seeds: int = 100,
    vectors: int = 20,
    master_seed: int = 0,
) -> OracleReport:
    """Random stochastic code versus fixed bit-flip vectors of weight pn.

    Per seed: draw 2^(rate n) random codewords, group them into messages of
    size t = n, and measure, for a grid of fixed weight-pn error vectors e,
    the fraction of each group landing within Hamming distance pn of a wrong
    codeword.  A seed passes when every (message, vector) failure fraction
    stays at or below eps = 1/log2(n).

    A wrong codeword is a value that occurs in another group and nowhere in
    the word's own group, so a repeated value is never a rival of its group.
    Each seed checks all (vector, codeword, rival) triples at once as 64-bit
    popcounts: n is at most 64, and a seed holds ~9 vectors (n groups)^2 bytes.
    """
    if rate >= 1 - binary_entropy(p):
        raise ValueError("rate must stay below 1 - h(p)")
    if n > 64:
        raise ValueError(f"n = {n}: codewords are packed into 64-bit words")
    pn = round(p * n)
    M = 2 ** round(rate * n)
    group_size = n
    n_groups = M // group_size
    if n_groups < 2:
        raise ValueError("code too small to form two message groups")
    eps = 1 / math.log2(n)
    vec_gen = rngmod.py_rng(master_seed, "bitflip-vectors")
    error_vectors = []
    for _ in range(vectors):
        positions = vec_gen.sample(range(n), pn)
        e = 0
        for pos in positions:
            e |= 1 << pos
        error_vectors.append(e)
    errors = np.array(error_vectors, dtype=np.uint64)[:, None, None]
    group_of = np.arange(n_groups * group_size) // group_size
    report = OracleReport(name="bitflip-code", mode=f"n={n},seeds={seeds}")
    passing = 0
    worst = 0.0
    for seed_idx in range(seeds):
        gen = rngmod.py_rng(master_seed, "bitflip-code", seed_idx)
        codewords = [gen.getrandbits(n) for _ in range(M)]
        C = np.array(codewords[: n_groups * group_size], dtype=np.uint64)
        # rival[i, k]: C[k] is a value of another group that i's group lacks
        in_group = (C[:, None] == C[None, :]).reshape(n_groups, group_size, -1).any(axis=1)
        rival = ~in_group[group_of]
        # close[v, i, k]: codeword i sent with error v lands within pn of C[k]
        close = np.bitwise_count(C[:, None] ^ C[None, :] ^ errors) <= pn
        bad = (close & rival).any(axis=2).reshape(vectors, n_groups, group_size).sum(axis=2)
        frac = int(bad.max(initial=0)) / group_size
        worst = max(worst, frac)
        report.instances += 1
        if not frac > eps:
            passing += 1
    report.extras.update(
        {"passing_seeds": passing, "eps": eps, "worst_fraction": worst}
    )
    if passing < math.ceil(0.95 * seeds):
        report.record_violation({"passing": passing, "needed": math.ceil(0.95 * seeds)})
    return report


# ---------------------------------------------------------------------------
# the lemma table ``verify`` runs


def _levenshtein_codes(samples: int, seed: int, exhaustive: bool) -> list[list[Word]]:
    """Every pair of 4-bit words, or samples // 100 codes of 2 to 4 random 6-bit words."""
    if exhaustive:
        return [list(pair) for pair in combinations([Word(format(v, "04b")) for v in range(16)], 2)]
    rng = rngmod.py_rng(seed, "verify-levenshtein")
    return [[Word([rng.randrange(2) for _ in range(6)]) for _ in range(rng.choice((2, 3, 4)))]
            for _ in range(max(1, samples // 100))]


class Lemma(NamedTuple):
    """A row of the lemma table: how ``verify`` runs it, and which of its options that reads."""

    run: Callable[[int, int, bool], OracleReport]  # run(samples, seed, exhaustive)
    sampled: tuple[str, ...]  # the options a run reads, among "samples" and "seed"
    exhaustive: bool = False  # whether --exhaustive runs a fixed check instead, which reads no other option

    def reads(self, exhaustive: bool) -> tuple[str, ...]:
        """The options a run with ``--exhaustive`` set or not reads, among "samples", "seed" and "exhaustive"."""
        return ("exhaustive",) if exhaustive and self.exhaustive else self.sampled


# lemma id -> its row, in the order ``verify all`` runs them
LEMMAS: dict[str, Lemma] = {
    "levenshtein": Lemma(lambda samples, seed, exhaustive: levenshtein_equivalence(
        _levenshtein_codes(samples, seed, exhaustive), t=1), ("samples", "seed"), exhaustive=True),
    "corruption-cost": Lemma(lambda samples, seed, exhaustive: verify_corruption_cost(
        toy_params(3, 2, 2, Fraction(1, 2), 4) if exhaustive else toy_params(2, 16, 2, Fraction(1, 2), 4),
        None if exhaustive else samples, seed), ("samples", "seed"), exhaustive=True),
    "matching-implication": Lemma(lambda samples, seed, exhaustive: verify_matching_implication(
        toy_params(2, 16, 2, Fraction(1, 2), 8), instances=min(samples, 10_000), master_seed=seed),
        ("samples", "seed")),
    "worst-sets-dominance": Lemma(lambda samples, seed, exhaustive: verify_worst_sets_dominance(
        master_seed=seed), ("seed",)),
    "matching-decay": Lemma(lambda samples, seed, exhaustive: verify_matching_decay(
        trials=min(samples, 100_000), master_seed=seed), ("samples", "seed")),
    "geometric-bounds": Lemma(lambda samples, seed, exhaustive: verify_geom_bounds(), ()),
    # reporting only: the asymptotic claim has no finite-n threshold; the acceptance suite holds it
    "alternating-absorption": Lemma(lambda samples, seed, exhaustive: alternating_absorption(
        200, trials=samples, master_seed=seed), ("samples", "seed")),
    "bitflip-code": Lemma(lambda samples, seed, exhaustive: oblivious_bitflip_demo(master_seed=seed), ("seed",)),
}
