from fractions import Fraction
from itertools import combinations
from pathlib import Path

import pytest

from deletion_lab import online
from deletion_lab import rng as rngmod
from deletion_lab import words as wordsmod
from deletion_lab.cli import main
from deletion_lab.online import (
    IdentityAdversary,
    OnlineAdversary,
    NonCausalProbeAdversary,
    OnlineConfig,
    Plan,
    WaitPushAdversary,
    build_pairs,
    causality_check,
    make_first_superstring_decoder,
    make_unique_decoder,
    simulate_online,
    transmit,
)
from deletion_lab.words import Word, read_codebook

from helpers import pushed

GOLDEN = Path(__file__).resolve().parent / "golden"


def paired_toy_code():
    """Four codewords forming two confusable pairs with identical profiles.

    Prefixes 00000100 / 00001000 (and the 01-variants) become unique at bit
    8 with equal zero counts, and pair members share their entire suffix.
    """
    s, sp = "10110010", "01011101"
    return [
        Word("00000100" + s),
        Word("00001000" + s),
        Word("00000101" + sp),
        Word("00001001" + sp),
    ]


CFG = OnlineConfig(p=Fraction(1, 2), p0_adv=Fraction(2, 5))


def test_online_config_regime(tmp_path, capsys):
    assert CFG.regime_bound == Fraction(5, 11)
    assert CFG.in_regime
    assert CFG.budget(16) == 8
    assert not OnlineConfig(p=Fraction(2, 5), p0_adv=Fraction(2, 5)).in_regime
    # out of regime is no error: the CLI notes it once on stderr, and nothing else does
    run = ["experiment", "online", "--code", str(GOLDEN / "code.txt"), "--p0-adv", "2/5",
           "--trials", "3", "--seed", "1"]
    for p, notes in (("2/5", ["note: p = 2/5 is outside the regime p > 1/(3-2*p0_adv) = 5/11; "
                              "deletions stop at floor(p n), so a push may end short"]),
                     ("1/2", [])):
        assert main(run + ["--p", p, "--out", str(tmp_path / "out.csv")]) == 0
        assert capsys.readouterr().err.splitlines() == notes
    with pytest.raises(ValueError):
        OnlineConfig(p=Fraction(3, 2), p0_adv=Fraction(1, 4))


def profiles(C):
    """Each codeword's wait profile, as ``build_pairs`` computes it."""
    return build_pairs(C, CFG).profiles


def test_wait_length_examples():
    C = [Word("000"), Word("011"), Word("101")]
    waits = {x: prof.wait_len for x, prof in profiles(C).items()}
    assert waits == {Word("000"): 2, Word("101"): 1, Word("011"): 2}
    # two codewords differing only in the last bit need the full word
    D = [Word("0000"), Word("0001")]
    assert profiles(D)[Word("0000")].wait_len == 4
    assert profiles([Word("0")])[Word("0")].wait_len == 0
    assert Word("111") not in profiles(C)  # wait lengths are for codewords only


def test_wait_profile_counts_and_tiebreak():
    C = [Word("000"), Word("011"), Word("101")]
    prof = profiles(C)[Word("000")]
    assert (prof.wait_len, prof.r0, prof.r1, prof.b) == (2, 2, 0, 0)
    assert prof.r0 + prof.r1 == prof.wait_len
    # balanced prefix ties to 0
    D = [Word("0110"), Word("0111"), Word("1000")]
    prof = profiles(D)[Word("0110")]
    assert (prof.wait_len, prof.r0, prof.r1, prof.b) == (4, 2, 2, 0)
    E = [Word("0100"), Word("0111")]
    prof = profiles(E)[Word("0100")]
    assert prof.wait_len == 3 and prof.r0 == 2 and prof.r1 == 1 and prof.b == 0


def test_build_pairs_full_pairing():
    code = paired_toy_code()
    table = build_pairs(code, CFG)
    assert table.cfg == CFG
    assert len(table.pairs) == 2 and not table.unpaired
    assert table.paired_fraction == 1.0
    for pair in table.pairs:
        assert pair.s_star == pair.x[8:] == pair.y[8:]
        assert pushed(pair) == Word(bytes([0]) * pair.profile.r_majority) + pair.s_star
        # pushed output is longer than the (1-p)n strategy-2 output
        assert len(pushed(pair)) > 16 - CFG.budget(16)


def test_codewords_of_unequal_length_are_refused():
    # at the parent the 8-bit word got n = 10 and wait length 9, and the
    # simulation reported rows for this code
    code = [Word("0000000000"), Word("0000000001"), Word("11110000"), Word("1111000011")]
    with pytest.raises(ValueError, match="codewords must all have equal length"):
        build_pairs(code, CFG)
    with pytest.raises(ValueError, match="codewords must all have equal length"):
        simulate_online(code, CFG, make_unique_decoder(code), trials=2)


def test_build_pairs_no_pairs_when_wait_too_long():
    # distinct suffixes everywhere: wait length is the full word, classes
    # fail the q <= 1-p requirement
    code = [Word("0000"), Word("0001"), Word("0010"), Word("0011")]
    cfg = OnlineConfig(p=Fraction(1, 2), p0_adv=Fraction(2, 5))
    table = build_pairs(code, cfg)
    assert not table.pairs and len(table.unpaired) == 4


def test_wait_push_pair_outputs_identical():
    code = paired_toy_code()
    table = build_pairs(code, CFG)
    for pair in table.pairs:
        rx = transmit(pair.x, WaitPushAdversary(table, 1, 0), rngmod.py_rng(0, "t"))
        ry = transmit(pair.y, WaitPushAdversary(table, 1, 0), rngmod.py_rng(0, "t"))
        assert rx.output == ry.output == pushed(pair)
        assert rx.paired and ry.paired
        assert rx.deletions <= CFG.budget(16)


def test_wait_push_strategy_two_truncates():
    code = paired_toy_code()
    res = transmit(code[0], WaitPushAdversary(build_pairs(code, CFG), 2), rngmod.py_rng(0, "t"))
    assert res.output == code[0][: 16 - CFG.budget(16)]
    assert res.deletions == CFG.budget(16)


def test_wait_push_gives_up_on_wrong_bit():
    code = paired_toy_code()
    table = build_pairs(code, CFG)
    res = transmit(code[0], WaitPushAdversary(table, 1, 1), rngmod.py_rng(0, "t"))
    assert not res.paired
    # wait phase deleted the zeros it saw, then everything is transmitted
    assert res.deletions <= CFG.budget(16)


def test_wait_push_non_codeword_input_is_handled():
    table = build_pairs(paired_toy_code(), CFG)
    adv = WaitPushAdversary(table, force_strategy=1, force_bit=0)
    res = transmit(Word("1111111111111111"), adv, rngmod.py_rng(0, "t"))
    assert res.deletions <= CFG.budget(16)


def test_budget_respected_over_random_trials():
    code = paired_toy_code()
    table = build_pairs(code, CFG)
    for trial in range(2000):
        rng = rngmod.py_rng(7, "budget", trial)
        x = code[rng.randrange(len(code))]
        res = transmit(x, WaitPushAdversary(table), rng)
        assert res.deletions <= CFG.budget(16)


def test_strategy_one_cost_chain():
    # paired pushes cost at most q n/2 + (1-q) p0 n, which stays under pn
    code = paired_toy_code()
    table = build_pairs(code, CFG)
    n = 16
    for trial in range(500):
        rng = rngmod.py_rng(8, "chain", trial)
        x = code[rng.randrange(len(code))]
        res = transmit(x, WaitPushAdversary(table, 1, 0), rng)
        if not res.paired:
            continue
        q = table.profiles[x].q
        bound = q * n / 2 + (1 - q) * CFG.p0_adv * n
        assert res.deletions <= bound < CFG.p * n


def test_simulate_confusion_mass_and_decoders():
    code = paired_toy_code()
    dec = make_unique_decoder(code)
    rep = simulate_online(
        code, CFG, dec, trials=100, master_seed=3,
        force_strategy=1, force_bit=0,
    )
    summary = rep.summary()
    assert summary["confused_mean"] == 1.0
    assert summary["decoded_ok_mean"] <= 0.5
    ml = make_first_superstring_decoder(code)
    rep2 = simulate_online(
        code, CFG, ml, trials=100, master_seed=3,
        force_strategy=1, force_bit=0,
    )
    assert rep2.summary()["decoded_ok_mean"] <= 0.5
    assert rep.columns == (
        "trial", "codeword_index", "strategy", "coin_bit",
        "deletions_used", "output_len", "decoded_ok", "confused",
    )


def test_causality_checks():
    table = build_pairs(paired_toy_code(), CFG)
    ok = causality_check(lambda: WaitPushAdversary(table), 16, trials=300)
    assert ok["passed"]
    ident = causality_check(lambda: IdentityAdversary(), 16, trials=50)
    assert ident["passed"]
    bad = causality_check(lambda: NonCausalProbeAdversary(), 16, trials=300)
    assert not bad["passed"] and bad["witness"] is not None


@pytest.mark.parametrize("p, p0_adv", [(Fraction(1, 5), Fraction(2, 5)),
                                        (Fraction(9, 10), Fraction(1, 10))])
def test_wait_push_stays_causal_off_the_default_config(p, p0_adv):
    cfg = OnlineConfig(p=p, p0_adv=p0_adv)
    table = build_pairs(paired_toy_code(), cfg)
    # the adversary takes its budget from the table's config, not the default one
    plan = WaitPushAdversary(table).plan(paired_toy_code()[0], rngmod.py_rng(0, "t"))
    assert plan.budget == table.cfg.budget(16)
    for force in [(None, None), (1, 0), (1, 1)]:
        res = causality_check(lambda: WaitPushAdversary(table, *force), 16, trials=300)
        assert res["passed"]


def test_wait_push_stays_causal_on_non_codeword_inputs():
    # 16 heads of 5 bits, each before two tails that part at their first bit:
    # a random input that starts with a head is believed to be the codeword
    # it follows through bit 6, and is pushed as that codeword
    rng = rngmod.py_rng(11, "causal-code")
    tails = ("0110100111", "1011001010")
    code = [Word(format(h, "05b") + t) for h in rng.sample(range(32), 16) for t in tails]
    table = build_pairs(code, CFG)
    probes = [Word(format(rng.getrandbits(16), "016b")) for _ in range(40)]
    pushed = [w for w in probes if transmit(w, WaitPushAdversary(table, 1, 0), rng).paired]
    assert pushed and not set(pushed) & set(code)
    for force in [(None, None), (1, 0), (1, 1)]:
        res = causality_check(lambda: WaitPushAdversary(table, *force), 16, trials=400)
        assert res["passed"]


class OverBudgetAll(OnlineAdversary):
    """Deletes every bit, against a budget of 2."""

    def plan(self, x, rng):
        return Plan([True] * len(x), budget=2)


class OverBudgetPlan(OnlineAdversary):
    """Keeps a budget of 2 and deletes one bit more."""

    def plan(self, x, rng):
        return Plan([i < 3 for i in range(len(x))], budget=2)


class ShortPlan(OnlineAdversary):
    """Decides one bit fewer than the word has."""

    def plan(self, x, rng):
        return Plan([False] * (len(x) - 1))


@pytest.mark.parametrize("adversary", [OverBudgetAll(), OverBudgetPlan()])
def test_transmit_refuses_deletions_over_the_plan_budget(adversary):
    with pytest.raises(AssertionError, match="budget 2"):
        transmit(Word("0110"), adversary, rngmod.py_rng(0, "t"))


def test_transmit_refuses_a_decision_for_each_bit_too_few():
    with pytest.raises(AssertionError, match="decided 3 of 4"):
        transmit(Word("0110"), ShortPlan(), rngmod.py_rng(0, "t"))


def test_pair_keep_for_rejects_stranger():
    code = paired_toy_code()
    table = build_pairs(code, CFG)
    pair = table.pairs[0]
    with pytest.raises(KeyError):
        pair.keep_for(Word("0" * 16))


def with_up_to_two_deletions(code):
    """Every codeword with up to two bits deleted: many outputs recur."""
    return [Word(bytes(b for i, b in enumerate(c.bits) if i not in dead))
            for c in code for k in range(3) for dead in combinations(range(len(c)), k)]


def test_unique_decoder_memo_agrees_with_unique_decode(monkeypatch):
    code = read_codebook(GOLDEN / "code.txt")
    received = with_up_to_two_deletions(code)
    plain = online.unique_decode
    decoded = []
    monkeypatch.setattr(online, "unique_decode",
                        lambda s, C: decoded.append(s.bits) or plain(s, C))
    decoder = make_unique_decoder(code)
    answers = [decoder(s) for s in received + received]
    assert answers == [plain(s, code) for s in received + received]
    assert None in answers and set(code) <= set(answers)  # both failures and hits occur
    assert sorted(decoded) == sorted({s.bits for s in received})


def test_first_superstring_decoder_memo_decodes_each_output_once(monkeypatch):
    code = read_codebook(GOLDEN / "code.txt")
    received = with_up_to_two_deletions(code) + [Word("1" * len(code[0]))]  # the last fits no codeword
    plain = wordsmod.is_subsequence
    probes = []
    monkeypatch.setattr(wordsmod, "is_subsequence",
                        lambda s, c: probes.append((s.bits, c.bits)) or plain(s, c))
    decoder = make_first_superstring_decoder(code)
    answers = [decoder(s) for s in received + received]
    first = lambda s: next((c for c in code if plain(s, c)), None)
    assert answers == [first(s) for s in received + received]
    assert None in answers and set(code) <= set(answers)  # both failures and hits occur
    assert len(probes) == len(set(probes))  # no output is tested against a codeword twice
    assert {s for s, _ in probes} == {s.bits for s in received}


def test_simulate_online_transmits_each_codeword_once_per_draw(monkeypatch):
    code = paired_toy_code()
    sent = []
    plain = online.transmit

    def counting(x, adversary, rng):
        res = plain(x, adversary, rng)
        sent.append((adversary.force_strategy, adversary.force_bit, x.bits))
        return res

    monkeypatch.setattr(online, "transmit", counting)
    rep = simulate_online(code, CFG, make_unique_decoder(code), trials=3, master_seed=17)
    drawn = {(row[2], row[3]) for row in rep.rows}
    assert 1 < len(drawn) < 4  # three trials drew some (strategy, bit) pairs, not all
    assert sorted(sent) == sorted((s, b, x.bits) for s, b in drawn for x in code)
