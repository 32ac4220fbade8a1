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
from functools import lru_cache
from itertools import combinations
from typing import Iterable, Sequence

import numpy as np

from . import rng as rngmod
from . import words as wordsmod
from .construction import (
    CodeParams,
    InnerCodebook,
    encode_outer,
    pad_corruption_set,
    preserves,
    preserves_runs,
    weight_admissible,
    weight_within_bound,
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
    join_patterns,
    masked_run_count,
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
    """All words obtained from w by exactly k deletions."""
    bits = w.bits
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


def exhaustive_decodable(C: Sequence[Word], t: int) -> bool:
    """True iff no two codewords collide under <= t deletions each."""
    words = [Word(c) for c in C]
    for x, y in combinations(words, 2):
        for k in range(min(t, len(x), len(y)) + 1):
            if deletion_ball(x, k) & deletion_ball(y, k):
                return False
    return True


def _insertion_decodable(C: Sequence[Word], t: int) -> bool:
    for x, y in combinations(C, 2):
        for k in range(t + 1):
            if insertion_ball(x, k) & insertion_ball(y, k):
                return False
    return True


def _indel_decodable(C: Sequence[Word], t: int) -> bool:
    for x, y in combinations(C, 2):
        if indel_reach(x, t) & indel_reach(y, t):
            return False
    return True


def max_pairwise_lcs(C: Sequence[Word]) -> int | None:
    """Max LCS over distinct codeword pairs; None for |C| < 2 (read: -inf).

    The lengths come from ``words.lcs``, which runs the same bit-parallel
    rows as ``words.lcs_length``.  The oracle's independent check is
    exhaustive decodability: ``levenshtein_equivalence`` compares this
    maximum with ``exhaustive_decodable`` and the insertion and mixed-edit
    searches.  (perfbench's verify-all trace expects calls at the
    ``words.lcs`` site.)
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
            verdicts["insertions"] = _insertion_decodable(C, t)
            verdicts["mixed"] = _indel_decodable(C, t)
        if any(v != lcs_ok for v in verdicts.values()):
            report.record_violation(
                {"code": [c.to01() for c in C], "t": t, "lcs_ok": lcs_ok, **verdicts}
            )
    return report


# ---------------------------------------------------------------------------
# corruption cost of inner deletion patterns


def _count_corrupted(book: InnerCodebook, kept: np.ndarray) -> int:
    """How many inner codewords the inner pattern with keep mask ``kept`` fails to preserve."""
    return sum(
        not preserves_runs(masked_run_count(g, kept), i, book.params)
        for i, g in enumerate(book.words, start=1)
    )


def structured_inner_patterns(params: CodeParams) -> list[tuple[str, DeletionPattern]]:
    """Adversarial inner patterns: cumulative delete-all-zeros chains.

    Deleting all zeros of g_{i1}, then the remaining zeros of g_{i2}, and so
    on, is the extremal family behind the corruption-cost bound.
    """
    book = InnerCodebook(params)
    out: list[tuple[str, DeletionPattern]] = []
    for order in ([*range(params.K, 0, -1)], [*range(1, params.K + 1)]):
        dead: set[int] = set()
        chain: list[int] = []
        for i in order:
            g = book[i]
            dead |= {pos for pos in range(1, params.L + 1) if g.bits[pos - 1] == 0}
            chain.append(i)
            out.append(
                (
                    "zeros-of-" + ",".join(map(str, chain)),
                    DeletionPattern(params.L, tuple(sorted(dead))),
                )
            )
    for i in range(1, params.K + 1):
        # delete every other run of g_i (all its zeros), one codeword at a time
        out.append((f"zeros-of-{i}", bit_deletion_pattern(book[i], 0)))
        out.append((f"ones-of-{i}", bit_deletion_pattern(book[i], 1)))
    return out


def verify_corruption_cost(
    params: CodeParams,
    mode: str,
    samples: int = 100_000,
    master_seed: int = 0,
) -> OracleReport:
    """Corrupting c inner codewords needs more than L(1-2^-c-1/sqrt(R)) deletions.

    ``mode`` is "exhaustive" (all 2^L inner patterns, L <= 20) or "sampled"
    (weight-stratified uniform patterns plus the structured adversaries).
    """
    if mode not in ("exhaustive", "sampled"):
        raise ValueError(f"unknown corruption-cost mode {mode!r}")
    params.require_executable()
    L, R, K = params.L, params.R, params.K
    book = InnerCodebook(params)
    report = OracleReport(name="corruption-cost", mode=mode)
    report.extras["params"] = (K, R, L, params.lam)

    def check(kept: np.ndarray, label) -> None:
        report.instances += 1
        weight = L - int(kept.sum())
        corrupted = _count_corrupted(book, kept)
        # corrupting c >= 1 codewords must cost more than L(1 - 2^-c - 1/sqrt(R))
        if corrupted and weight_within_bound(weight, L, corrupted, R):
            report.record_violation(
                {"pattern": label, "weight": weight, "corrupted": corrupted}
            )

    if mode == "exhaustive":
        if L > 20:
            raise ValueError(f"exhaustive mode infeasible at L = {L}")
        for mask in range(2**L):
            kept = np.array(
                [(mask >> i) & 1 == 0 for i in range(L)], dtype=bool
            )
            check(kept, f"mask={mask:#x}")
    else:
        gen = rngmod.np_rng(master_seed, "corruption-cost")
        # stratify weights over the interesting range (beyond the largest
        # bound everything is vacuous)
        max_useful = min(L, math.ceil(L * (1 - 0.5**K)) + 2)
        for trial in range(samples):
            w = int(gen.integers(0, max_useful + 1))
            kept = np.ones(L, dtype=bool)
            if w:
                kept[gen.choice(L, size=w, replace=False)] = False
            check(kept, f"sample-{trial}")
        for label, pat in structured_inner_patterns(params):
            check(pat.keep, label)
    return report


# ---------------------------------------------------------------------------
# matching implication: subsequence containment forces matchability


def admissible_weight_cap(params: CodeParams, ell: int) -> int:
    """Largest weight an ell-admissible inner pattern may have (-1 if none)."""
    if not weight_admissible(0, ell, params):
        return -1
    lo, hi = 0, params.L
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if weight_admissible(mid, ell, params):
            lo = mid
        else:
            hi = mid - 1
    return lo


def _random_admissible_block(
    params: CodeParams, cap: int, gen, shared: Sequence[DeletionPattern]
) -> DeletionPattern:
    """A random (lambda-1)-admissible inner pattern, biased toward hard cases.

    ``shared[0]`` deletes nothing and ``shared[i]`` deletes all zeros of g_i;
    a block that draws one of these fixed patterns returns the shared object.
    """
    L = params.L
    kind = gen.integers(0, 4)
    if kind == 0 or cap <= 0:
        return shared[0]
    if kind == 1:
        w = int(gen.integers(1, cap + 1))
        return _pattern_deleting(L, gen.choice(L, size=w, replace=False))
    if kind == 2:
        # delete all zeros of some inner codeword when that stays admissible
        for i in gen.permutation(params.K) + 1:
            pat = shared[i]
            if pat.weight <= cap:
                return pat
        return shared[0]
    w = cap  # full-weight admissible pattern
    return _pattern_deleting(L, gen.choice(L, size=w, replace=False))


def _pattern_deleting(L: int, positions: np.ndarray) -> DeletionPattern:
    """The pattern on length-L words deleting the 0-based ``positions``."""
    keep = np.ones(L, dtype=bool)
    keep[positions] = False
    return DeletionPattern.from_keep(keep)


def verify_matching_implication(
    params: CodeParams,
    instances: int = 10_000,
    master_seed: int = 0,
) -> OracleReport:
    """Whenever tau(psi(X)) embeds in psi(Y), X must match in Y.

    tau is blockwise (lambda-1)-admissible; corruption sets are read off the
    blocks exactly as signature extraction does.  Y generation is biased so a
    healthy share of instances actually satisfies the containment.

    Where the masks and runs come from: the empty pattern and the K
    delete-all-zeros patterns are built once per call and shared by the
    blocks that draw them, so ``preserves`` counts their runs once per inner
    codeword.  Every other block is built from its keep mask.  ``preserves``
    and the joined tau read the blocks' masks (``join_patterns`` concatenates
    them), and ``apply_pattern`` reads tau's.  psi(X) and psi(Y) take their
    runs from the inner codewords of one ``InnerCodebook`` (``encode_outer``),
    so only tau(psi(X)) has its runs counted from its bits.  No word, run
    tuple or pattern of one instance is kept for the next.
    """
    params.require_executable()
    book = InnerCodebook(params)
    shared = [DeletionPattern(params.L, ())] + [bit_deletion_pattern(g, 0) for g in book.words]
    dn = params.delta_n
    n, K = params.n, params.K
    cap = admissible_weight_cap(params, params.lam - 1)
    report = OracleReport(name="matching-implication", mode=f"instances={instances}")
    positives = 0
    for trial in range(instances):
        gen = rngmod.np_rng(master_seed, "matching-implication", trial)
        X = tuple(gen.integers(1, K + 1, size=dn).tolist())
        style = gen.integers(0, 3)
        if style == 0:
            Y = tuple(gen.integers(1, K + 1, size=n).tolist())
        elif style == 1:
            # embed X's symbols at random positions: psi(X) embeds in psi(Y)
            Y_arr = gen.integers(1, K + 1, size=n)
            pos = np.sort(gen.choice(n, size=dn, replace=False))
            Y_arr[pos] = X
            Y = tuple(Y_arr.tolist())
        else:
            # low symbols in Y make containments frequent
            Y = tuple(gen.integers(1, max(2, K), size=n).tolist())
        blocks = [_random_admissible_block(params, cap, gen, shared) for _ in range(dn)]
        sets = [
            pad_corruption_set(
                {j for j in range(1, K + 1) if not preserves(block, j, params, book)}, params
            )
            for block in blocks
        ]
        tau = join_patterns(blocks)
        corrupted_word = apply_pattern(tau, encode_outer(X, params, book))
        report.instances += 1
        if not is_subsequence(corrupted_word, encode_outer(Y, params, book)):
            continue
        positives += 1
        if not is_matchable(X, Y, MatchConfig.paper(params.lam, params.R, sets)):
            report.record_violation({"X": X, "Y": Y, "blocks": [b.deleted for b in blocks]})
    report.extras["positives"] = positives
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
        wins = batch_matchable(Xs, Ys, MatchConfig.paper(lam, R, worst_sets(dn, lam)))
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
    closed form ``geom_expectation`` at the cap ``geom2_expectation`` uses.
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
        true_cap, _ = geom_cap(R)  # the closed form's own cap, as in ``geom2_expectation``
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


def alternating_word(length: int) -> Word:
    return Word(bytes(i % 2 for i in range(length)))


def alternating_absorption(
    n: int,
    trials: int = 10_000,
    master_seed: int = 0,
) -> OracleReport:
    """Estimate Pr[uniform word of length .6n embeds in 0101... of length .91n]."""
    m = int(0.6 * n)
    alen = int(0.91 * n)
    flagged = not (math.isclose(0.6 * n, m) and math.isclose(0.91 * n, alen))
    gen = rngmod.np_rng(master_seed, "alternating-absorption")
    bits = gen.integers(0, 2, size=(trials, m))
    # greedy embedding into an alternating word has a closed-form position
    # update: land on the next index of matching parity, then advance
    pos = np.zeros(trials, dtype=np.int64)
    for k in range(m):
        pos += (pos % 2) != bits[:, k]
        pos += 1
    hits = int((pos <= alen).sum())
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


def hamming_ball_size(n: int, radius: int) -> int:
    """Exact number of words within Hamming distance radius of a fixed word."""
    return sum(math.comb(n, k) for k in range(min(radius, n) + 1))


def oblivious_bitflip_demo(
    n: int = 20,
    rate: float = 0.3,
    p: float = 0.1,
    seeds: int = 100,
    vectors: int = 20,
    master_seed: int = 0,
    eps: float | None = None,
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
    if eps is None:
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
