"""Online deletion adversaries: causal per-bit channels and wait-push attacks.

The channel sees bits one at a time and may delete the current bit based only
on the prefix received so far.  The wait-push adversary deletes one bit value
while narrowing down the codeword, then steers the suffix onto a common
subsequence shared with a partner codeword, so paired codewords produce
bit-identical outputs.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache
from itertools import combinations, compress
from operator import not_
from typing import Callable, NamedTuple, Sequence

from . import rng as rngmod
from . import words as wordsmod
from .construction import as_fraction
from .oblivious import unique_decode
from .reporting import ExperimentReport
from .words import Word, as_word, first_repeat, lcs, lcs_lengths

Decoder = Callable[[Word], Word | None]


@dataclass(frozen=True)
class OnlineConfig:
    p: Fraction
    p0_adv: Fraction

    def __post_init__(self):
        object.__setattr__(self, "p", as_fraction(self.p))
        object.__setattr__(self, "p0_adv", as_fraction(self.p0_adv))
        if not 0 < self.p < 1:
            raise ValueError("p must lie in (0,1)")
        if not 0 < self.p0_adv < Fraction(1, 2):
            raise ValueError("p0_adv must lie in (0, 1/2)")

    @property
    def regime_bound(self) -> Fraction:
        return 1 / (3 - 2 * self.p0_adv)

    @property
    def in_regime(self) -> bool:
        return self.p > self.regime_bound

    def budget(self, n: int) -> int:
        return self.p.numerator * n // self.p.denominator  # floor(p n), exactly


def _common_prefix_len(a: bytes, b: bytes) -> int:
    for k, (u, v) in enumerate(zip(a, b)):
        if u != v:
            return k
    return min(len(a), len(b))


@dataclass(frozen=True)
class WaitProfile:
    wait_len: int
    n: int
    r0: int  # zeros within the wait prefix
    r1: int
    b: int  # majority bit, ties to 0

    @property
    def q(self) -> Fraction:
        return Fraction(self.wait_len, self.n)

    @property
    def r_majority(self) -> int:
        return self.r0 if self.b == 0 else self.r1


def _profile(bits: bytes, ell: int) -> WaitProfile:
    r1 = sum(bits[:ell])
    r0 = ell - r1
    return WaitProfile(wait_len=ell, n=len(bits), r0=r0, r1=r1, b=0 if r0 >= r1 else 1)


@dataclass(frozen=True)
class ConfusablePair:
    """Two codewords with a shared wait profile and a long common suffix part.

    Both are pushed onto the common channel output b^r ++ s_star; the keep
    sets are absolute 0-based positions realizing s_star inside each suffix.
    """

    x: Word
    y: Word
    profile: WaitProfile
    s_star: Word
    x_keep: frozenset[int]
    y_keep: frozenset[int]

    def keep_for(self, w: Word) -> frozenset[int]:
        if w == self.x:
            return self.x_keep
        if w == self.y:
            return self.y_keep
        raise KeyError("word is not a member of this pair")


@dataclass
class PairingTable:
    pairs: list[ConfusablePair]
    unpaired: list[Word]
    profiles: dict[Word, WaitProfile]
    keys: list[bytes]  # the codebook's bits, sorted
    cfg: OnlineConfig  # the config the pairs were formed under
    _partners: dict[Word, ConfusablePair] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self._partners = {w: pair for pair in self.pairs for w in (pair.x, pair.y)}

    def partner_of(self, w: Word) -> ConfusablePair | None:
        return self._partners.get(w)

    @property
    def paired_fraction(self) -> float:
        total = 2 * len(self.pairs) + len(self.unpaired)
        return 2 * len(self.pairs) / total if total else 0.0


def build_pairs(C: Sequence[Word], cfg: OnlineConfig) -> PairingTable:
    """Greedy disjoint pairing within each (wait length, counts, bit) class.

    Only classes with relative wait length at most 1-p are eligible, and a
    pair forms only when the suffix LCS strictly exceeds
    (1-q)(1-p0_adv)n.  Pairs with the largest suffix LCS are taken first.
    Every eligible pair is scored in one ``lcs_lengths`` call; only the
    pairs taken get the witness alignment of ``lcs``.  The table keeps
    ``cfg``, so an adversary built from it needs nothing else.
    """
    words = [as_word(c) for c in C]
    if (twice := first_repeat(words)) is not None:
        raise ValueError(f"the codebook repeats the codeword {twice.brief()}")
    if len({len(x) for x in words}) > 1:
        raise ValueError("codewords must all have equal length")
    n = len(words[0]) if words else 0
    keys = sorted(x.bits for x in words)
    # a wait length is one more than the longest prefix shared with a sorted
    # neighbour, which is the longest shared with any other codeword; 0 alone
    shared = [-1, *map(_common_prefix_len, keys, keys[1:]), -1]
    wait = {key: 1 + max(shared[k], shared[k + 1]) for k, key in enumerate(keys)}
    profiles = {x: _profile(x.bits, wait[x.bits]) for x in words}
    classes: dict[tuple[int, int, int], list[int]] = {}
    for k, x in enumerate(words):
        prof = profiles[x]
        classes.setdefault((prof.wait_len, prof.b, prof.r_majority), []).append(k)
    rest = 1 - cfg.p
    eligible = {ell for ell, _b, _r in classes if ell * rest.denominator <= rest.numerator * n}  # ell/n <= 1-p
    tails = [x.bits[wait[x.bits]:] for x in words]
    # one lane per same-class pair of an eligible class, class by class;
    # members are in codebook order, so i < j.  The lanes are two lists of
    # ints: a thousand pair tuples would stay in the tuple free list and
    # raise the call's peak memory
    first: list[int] = []
    second: list[int] = []
    spans: list[range] = []  # each class's lanes
    for (ell, _b, _r), members in classes.items():
        start = len(first)
        if ell in eligible:
            for i, j in combinations(members, 2):
                first.append(i)
                second.append(j)
        spans.append(range(start, len(first)))
    lengths = lcs_lengths(tails, first, second)
    num, den = (1 - cfg.p0_adv).as_integer_ratio()
    pairs: list[ConfusablePair] = []
    unpaired: list[Word] = []
    for ((ell, _b, _r), members), span in zip(classes.items(), spans):
        used: set[int] = set()
        # longest first; a stable sort keeps (i, j) order among equal lengths
        for lane in sorted(span, key=lengths.__getitem__, reverse=True):
            if lengths[lane] * den <= num * (n - ell):  # LCS > (1 - q)(1 - p0_adv)n fails from here on
                break
            i, j = first[lane], second[lane]
            if i in used or j in used:
                continue
            used.update((i, j))
            x, y = words[i], words[j]
            res = lcs(tails[i], tails[j])
            pairs.append(
                ConfusablePair(
                    x=x,
                    y=y,
                    profile=profiles[x],
                    s_star=res.witness,
                    x_keep=frozenset(ell + p for p in res.a_positions),
                    y_keep=frozenset(ell + p for p in res.b_positions),
                )
            )
        unpaired.extend(words[k] for k in members if k not in used)
    return PairingTable(pairs=pairs, unpaired=unpaired, profiles=profiles, keys=keys, cfg=cfg)


# ---------------------------------------------------------------------------
# adversaries


class Plan(NamedTuple):
    """An adversary's plan for one word: each bit's decision, in order, and
    the deletion budget and push flag it was made under."""

    decisions: Sequence[bool]
    budget: int | None = None
    paired: bool = False


class OnlineAdversary:
    """Causal channel: ``plan(x, rng)`` gives every bit's decision in order,
    and the decision on bit i may depend on x[0..i] and rng only."""

    def plan(self, x: Word, rng) -> Plan:
        raise NotImplementedError


class IdentityAdversary(OnlineAdversary):
    def plan(self, x, rng):
        return Plan([False] * len(x))


class NonCausalProbeAdversary(OnlineAdversary):
    """Planted causality violation: peeks one bit ahead."""

    def plan(self, x, rng):
        budget, dels, decisions = len(x) // 2, 0, []
        for i in range(len(x)):
            peek = x[i + 1] if i + 1 < len(x) else 0  # reads the future
            delete = dels < budget and peek == 1
            dels += delete
            decisions.append(delete)
        return Plan(decisions, budget)


def draw_coin(rng, force_strategy: int | None = None, force_bit: int | None = None) -> tuple[int, int]:
    """The wait-push coin: (strategy 1 or 2, bit), each drawn from rng unless forced.

    The strategy is drawn first, then the bit.
    """
    strategy = force_strategy or (1 if rng.random() < 0.5 else 2)
    bit = force_bit if force_bit is not None else rng.randrange(2)
    return strategy, bit


class WaitPushAdversary(OnlineAdversary):
    """Delete one bit value while identifying the codeword, then steer the
    suffix onto the partner's common subsequence.

    A coin picks between the wait-push strategy and plain truncation (delete
    the last budget bits); ``force_strategy`` / ``force_bit`` pin the draws
    for certificate-style runs.  All decisions are functions of the received
    prefix, the codebook, and the coin, which ``plan`` draws first.

    The adversary reads all it knows off the ``build_pairs`` table
    ``table``: the codebook sorted by its bytes, the wait profiles, the
    partners, and the config that sets the budget.  ``plan`` settles a
    whole word in one pass.  Let l1 >= l2 be the two longest prefixes the
    word shares with codewords, and t = l2 + 1.  The wait phase, bits
    [0, t), deletes every bit equal to 1 - coin bit.  Bit t - 1 pins down
    the codeword, unless the budget ran out before it.  If then l1 >= t,
    the adversary believes the codeword sharing l1 bits and, when it has a
    partner and the coin bit is its majority bit, deletes every later bit
    outside the partner's keep set.  Only the first budget of these
    deletions are made: this is what deciding bit by bit gives.
    """

    def __init__(
        self,
        table: PairingTable,
        force_strategy: int | None = None,
        force_bit: int | None = None,
    ):
        self.table = table
        self.force_strategy = force_strategy
        self.force_bit = force_bit

    def plan(self, x, rng):
        strategy, coin = draw_coin(rng, self.force_strategy, self.force_bit)
        bits, n = x.bits, len(x)
        budget = self.table.cfg.budget(n)
        if strategy == 2:
            cut = max(n - budget, 0)
            return Plan([False] * cut + [True] * (n - cut), budget)
        if len(self.table.keys) < 2:  # a degenerate code has wait length 0 and nothing to push toward
            return Plan([False] * n, budget)
        keys, other = self.table.keys, 1 - coin
        k = bisect_left(keys, bits)
        if keys[k : k + 1] == [bits]:
            shared, believed = n, x
        else:  # the codeword sharing the longest prefix is a sorted neighbour of the word
            near = [j for j in (k - 1, k) if 0 <= j < len(keys)]
            shared, j = max((_common_prefix_len(bits, keys[j]), j) for j in near)
            believed = Word(keys[j])
        prof = self.table.profiles[believed]
        # t = l2 + 1: any other codeword shares with the word the shorter of
        # l1 = shared and its own prefix with the believed codeword
        t = min(shared + 1, prof.wait_len)
        decisions = [b == other for b in bits[:t]] + [False] * (n - t)
        paired = False
        if t <= n and bits.count(other, 0, t - 1) < budget:  # the budget lasts until bit t - 1
            pair = self.table.partner_of(believed) if shared >= t else None
            if pair is not None and prof.b == coin:
                keep = pair.keep_for(believed)
                paired = True
                decisions[t:] = [i not in keep for i in range(t, n)]
        if decisions.count(True) > budget:
            for i in [i for i, d in enumerate(decisions) if d][budget:]:
                decisions[i] = False
        return Plan(decisions, budget, paired)


@dataclass(frozen=True)
class TransmitResult:
    output: Word
    deletions: int
    decisions: tuple[bool, ...]
    paired: bool = False


def transmit(x: Word, adversary: OnlineAdversary, rng) -> TransmitResult:
    """Run one word through the channel; enforces the plan's deletion budget."""
    x = as_word(x)
    bits = x.bits
    plan = adversary.plan(x, rng)
    decisions = tuple(plan.decisions)
    if len(decisions) != len(bits):
        raise AssertionError(f"adversary decided {len(decisions)} of {len(bits)} bits")
    kept = bytes(compress(bits, map(not_, decisions)))
    dels = len(bits) - len(kept)
    if plan.budget is not None and dels > plan.budget:
        raise AssertionError(f"adversary deleted {dels} > budget {plan.budget}")
    return TransmitResult(output=Word(kept), deletions=dels, decisions=decisions, paired=plan.paired)


# ---------------------------------------------------------------------------
# decoders and simulation


def make_unique_decoder(C: Sequence[Word]) -> Decoder:
    """``unique_decode`` against C, which may not repeat a codeword; each distinct output is decoded once."""
    words = [as_word(c) for c in C]
    if (twice := first_repeat(words)) is not None:
        raise ValueError(f"the codebook repeats the codeword {twice.brief()}")
    return cache(lambda s: unique_decode(s, words))


def make_first_superstring_decoder(C: Sequence[Word]) -> Decoder:
    """Deterministic tie-breaking decoder: first codeword containing s.

    Each distinct output is decoded once.  The subsequence test is looked up
    on ``words`` at call time, so a patched ``words.is_subsequence`` is used.
    """
    words = [as_word(c) for c in C]
    return cache(lambda s: next((c for c in words if wordsmod.is_subsequence(s, c)), None))


def simulate_online(
    C: Sequence[Word],
    cfg: OnlineConfig,
    decoder: Decoder,
    trials: int,
    master_seed: int = 0,
    force_strategy: int | None = None,
    force_bit: int | None = None,
    version: str = "0",
) -> ExperimentReport:
    """Uniform random codeword per trial; reports decode errors and confusion.

    A trial is confused when some other codeword, sent through the channel
    with the same strategy/bit draw, produces a bit-identical output; half
    the confusion mass lower-bounds any decoder's error on these trials.

    Each (strategy, bit) pair drawn gets one wait-push adversary with that
    coin, and every codeword goes through it in one ``transmit`` call; a
    trial reads its codeword's row of that output table.  The adversary
    decides each transmission in one pass over the word, from the pairing
    table this call builds once.
    """
    words = [as_word(c) for c in C]
    table = build_pairs(words, cfg)
    report = ExperimentReport(
        kind="online",
        columns=(
            "trial",
            "codeword_index",
            "strategy",
            "coin_bit",
            "deletions_used",
            "output_len",
            "decoded_ok",
            "confused",
        ),
        config={
            "code_size": len(words),
            "n": len(words[0]) if words else 0,
            "p": str(cfg.p),
            "p0_adv": str(cfg.p0_adv),
            "paired_fraction": table.paired_fraction,
            "trials": trials,
        },
        master_seed=master_seed,
        version=version,
    )
    # (strategy, bit) -> every codeword's channel result, and how many codewords share each output
    tables: dict[tuple[int, int], tuple[list[TransmitResult], Counter]] = {}
    for trial in range(trials):
        idx = rngmod.py_rng(master_seed, "online-trial", trial).randrange(len(words))
        draw_rng = rngmod.py_rng(master_seed, "online-draw", trial)
        strategy, bit = draw_coin(draw_rng, force_strategy, force_bit)
        if (strategy, bit) not in tables:
            adversary = WaitPushAdversary(table, strategy, bit)
            # the coin is forced, so the adversary draws nothing from a channel rng
            results = [transmit(y, adversary, None) for y in words]
            tables[strategy, bit] = results, Counter(r.output.bits for r in results)
        results, outputs = tables[strategy, bit]
        result = results[idx]
        report.add(
            trial,
            idx,
            strategy,
            bit,
            result.deletions,
            len(result.output),
            int(decoder(result.output) == words[idx]),
            int(outputs[result.output.bits] > 1),
        )
    return report


def causality_check(
    make_adversary: Callable[[], OnlineAdversary],
    n: int,
    trials: int = 200,
    master_seed: int = 0,
) -> dict:
    """Behavioral causality test: identical prefixes must force identical
    decisions up to the shared length, under identical channel randomness."""
    violations = 0
    witness = None
    for trial in range(trials):
        word_rng = rngmod.py_rng(master_seed, "causality-words", trial)
        share = word_rng.randrange(1, n)
        prefix = [word_rng.randrange(2) for _ in range(share)]
        w1 = Word(prefix + [word_rng.randrange(2) for _ in range(n - share)])
        w2 = Word(prefix + [1 - b for b in w1.bits[share:]])
        r1 = transmit(w1, make_adversary(), rngmod.py_rng(master_seed, "causality-adv", trial))
        r2 = transmit(w2, make_adversary(), rngmod.py_rng(master_seed, "causality-adv", trial))
        if r1.decisions[:share] != r2.decisions[:share]:
            violations += 1
            if witness is None:
                witness = {
                    "trial": trial,
                    "shared_prefix_len": share,
                    "w1": w1.to01(),
                    "w2": w2.to01(),
                }
    return {"trials": trials, "violations": violations, "passed": violations == 0, "witness": witness}
