import math
import random
import tracemalloc
from fractions import Fraction

import pytest

from deletion_lab import oracles
from deletion_lab import rng as rngmod
from deletion_lab.construction import inner_codeword, preserves, toy_params
from deletion_lab.oracles import (
    admissible_weight_cap,
    alternating_absorption,
    binary_entropy,
    deletion_ball,
    exhaustive_decodable,
    geom_cap,
    geom_expectation,
    insertion_ball,
    levenshtein_equivalence,
    max_pairwise_lcs,
    oblivious_bitflip_demo,
    structured_inner_patterns,
    verify_corruption_cost,
    verify_geom_bounds,
    verify_matching_decay,
    verify_matching_implication,
)
from deletion_lab.words import Word, bit_deletion_pattern, is_subsequence

from helpers import geom1_expectation, geom2_expectation, geom_mass_expectation


def test_decodable_examples():
    assert exhaustive_decodable([Word("00"), Word("11")], 1)
    assert not exhaustive_decodable([Word("01"), Word("10")], 1)
    assert exhaustive_decodable([Word("01"), Word("10")], 0)
    assert not exhaustive_decodable([Word("01"), Word("01")], 0)
    assert exhaustive_decodable([Word("0101")], 4)  # singleton


def test_levenshtein_equivalence_examples():
    rep = levenshtein_equivalence([[Word("00"), Word("11")]], 1)
    assert rep.ok and rep.instances == 1
    assert max_pairwise_lcs([Word("00"), Word("11")]) == 0
    assert max_pairwise_lcs([Word("00")]) is None
    rep = levenshtein_equivalence([[Word("0101")]], 3)
    assert rep.ok  # single codeword: vacuously decodable at every t


def test_levenshtein_equivalence_random_sample():
    r = random.Random(5)
    codes = []
    for _ in range(200):
        size = r.choice((2, 3, 4))
        seen = set()
        while len(seen) < size:
            seen.add(tuple(r.randrange(2) for _ in range(6)))
        codes.append([Word(bytes(w)) for w in seen])
    for t in (1, 2):
        assert levenshtein_equivalence(codes, t).ok


def test_balls():
    assert deletion_ball(Word("0110"), 1) == frozenset(
        {b"\x01\x01\x00", b"\x00\x01\x00", b"\x00\x01\x01"}
    )
    assert Word("0110").bits in insertion_ball(Word("010"), 1)
    assert len(insertion_ball(Word(""), 1)) == 2


def test_corruption_cost_exhaustive_small():
    rep = verify_corruption_cost(toy_params(2, 2, 1, Fraction(1, 2), 4))
    assert rep.ok and rep.instances == 2**8
    rep = verify_corruption_cost(toy_params(3, 2, 2, Fraction(1, 2), 4))
    assert rep.ok and rep.instances == 2**16


def test_corruption_cost_sampled():
    params = toy_params(2, 16, 2, Fraction(1, 2), 4)
    rep = verify_corruption_cost(params, samples=5000, master_seed=1)
    assert rep.ok
    assert rep.instances > 5000  # structured adversaries ride along


def test_delete_zeros_is_the_extremal_pattern():
    params = toy_params(2, 16, 2, Fraction(1, 2), 4)
    dz = bit_deletion_pattern(inner_codeword(1, params), 0)
    assert dz.weight == params.L // 2
    assert not preserves(dz, 1, params)
    assert preserves(dz, 2, params)
    names = [name for name, _ in structured_inner_patterns(params)]
    assert any(name.startswith("zeros-of-1") for name in names)


def test_admissible_weight_cap_matches_threshold():
    params = toy_params(2, 4, 2, Fraction(1, 2), 8)  # L=32
    assert admissible_weight_cap(params, 1) == 8
    assert admissible_weight_cap(params, 0) == 0
    small = toy_params(2, 2, 1, Fraction(1, 2), 4)  # 1/sqrt(2) threshold < 0
    assert admissible_weight_cap(small, 0) == -1


def test_matching_implication_oracle():
    params = toy_params(2, 16, 2, Fraction(1, 2), 8)
    rep = verify_matching_implication(params, instances=800, master_seed=0)
    assert rep.ok
    assert rep.extras["positives"] > 200  # the hypothesis side is exercised


def test_matching_implication_memory_grows_with_the_chunk_not_the_instances():
    # L = 128 keeps the chunks small, and the 3^8 hosts Y keep a per-call cache
    # of hosts growing well past 500 instances
    params = toy_params(3, 4, 2, Fraction(1, 2), 8)
    # a first call fills the interpreter's free lists, which would otherwise
    # count against the longer run
    verify_matching_implication(params, instances=4_000, master_seed=1)

    def peak(instances):
        tracemalloc.start()
        try:
            verify_matching_implication(params, instances=instances, master_seed=2)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(4_000) <= 1.5 * peak(500)


def test_matching_decay_defaults():
    rep = verify_matching_decay(trials=20_000, master_seed=11)
    assert rep.ok
    assert rep.extras["slope"] < 0 and rep.extras["r2"] >= 0.9


DECAY_NS = tuple(range(8, 72, 8))
DECAY = {n: 2.0 ** (-n / 4) for n in DECAY_NS}  # log-linear decay, fitted exactly


@pytest.mark.parametrize("planted, reasons", [
    pytest.param(DECAY, [], id="decay"),
    pytest.param({**DECAY, 40: DECAY[32] * 1.01}, ["not nonincreasing"], id="one-rise"),
    pytest.param({n: 2.0 ** (n / 4 - 20) for n in DECAY_NS}, ["not nonincreasing", "slope not negative"],
                 id="growth"),
    pytest.param({**dict.fromkeys(DECAY_NS, 0.5), 64: 2.0**-10}, ["poor linear fit"], id="step"),
])
def test_matching_decay_names_each_violated_property(planted, reasons, monkeypatch):
    monkeypatch.setattr(oracles, "matchability_estimates", lambda *args: planted)
    rep = verify_matching_decay(ns=DECAY_NS, trials=10, master_seed=1)
    assert [w["reason"] for w in rep.witnesses] == reasons
    assert rep.violations == len(reasons)


def test_geom_expectation_closed_form_vs_mass():
    for K in (7, 16):
        for j in range(1, K + 1):
            for cap in (1, 5, 31):
                assert geom_expectation(j, K, cap) == geom_mass_expectation(j, K, cap)


def test_geom_expectation_examples():
    assert geom_expectation(16, 16, 100) == 1  # success probability 1
    cap, exact = geom_cap(4 * 16**4)
    assert exact and cap == 512
    assert geom_cap(2) == (1, False)
    # Monte-Carlo agreement within 3 sigma for a mid-range case
    rng = rngmod.py_rng(0, "geom-mc")
    cap = 64
    draws = []
    for _ in range(200_000):
        g, q = 1, 1 / 16
        while g < cap and rng.random() >= q:
            g += 1
        draws.append(g)
    mean = sum(draws) / len(draws)
    expect = float(geom_expectation(1, 16, cap))
    sigma = (sum((d - mean) ** 2 for d in draws) / len(draws)) ** 0.5
    assert abs(mean - expect) < 3 * sigma / math.sqrt(len(draws))


def test_geom_lemma_bounds_at_16():
    K, R = 16, 4 * 16**4
    assert geom1_expectation(K, R, 1) >= Fraction(1)  # log2(16)/4 = 1
    assert geom2_expectation(K, R, 1, K) >= Fraction(1)
    cap, _ = geom_cap(R)
    for j in range(1, K + 1):
        assert geom_expectation(j, K, cap - 1) > Fraction(K, 2 * j) - 1


def test_alternating_absorption_estimate_matches_exact_binomial():
    # the greedy span into an alternating host is 0.6n plus a Binomial(0.6n,
    # 1/2), so the absorption probability has a closed form to cross-check
    rep = alternating_absorption(200, trials=10_000, master_seed=0)
    m, alen = 120, 182
    exact = Fraction(sum(math.comb(m, k) for k in range(alen - m + 1)), 2**m)
    assert abs(rep.extras["estimate"] - float(exact)) < 0.02
    assert rep.extras["word_len"] == m and rep.extras["host_len"] == alen
    assert not rep.extras["rounded"]
    assert is_subsequence("010101", "010101010")


@pytest.mark.parametrize("seed", [0, 5, 2024])
def test_alternating_absorption_chunks_draw_what_one_array_draws(seed, monkeypatch):
    # 1001 words in chunks of 7 end on a partial chunk; 10**6 holds them all at once
    reports = []
    for chunk in (7, 10**6):
        monkeypatch.setattr(oracles, "ABSORPTION_CHUNK", chunk)
        reports.append(alternating_absorption(200, trials=1001, master_seed=seed).to_json())
    assert reports[0] == reports[1]


def test_alternating_absorption_small_n_reports_only():
    rep = alternating_absorption(10, trials=500, master_seed=0)
    assert 0 <= rep.extras["estimate"] <= 1


def test_binary_entropy():
    assert binary_entropy(0.5) == 1.0
    assert binary_entropy(0.0) == 0.0 and binary_entropy(1.0) == 0.0
    assert abs(binary_entropy(0.11) - 0.4999) < 1e-3
    with pytest.raises(ValueError):
        binary_entropy(1.2)


def test_bitflip_demo_zero_errors_without_noise():
    rep = oblivious_bitflip_demo(n=20, rate=0.3, p=0.0, seeds=20, vectors=5, master_seed=2)
    assert rep.ok and rep.extras["worst_fraction"] == 0.0


def test_bitflip_demo_rejects_overcapacity_rate():
    with pytest.raises(ValueError):
        oblivious_bitflip_demo(n=20, rate=0.9, p=0.1)


def test_four_way_equivalence_on_longer_words():
    # insertion and mixed-edit decodability agree with the LCS criterion on
    # random two-word codes at n = 8 as well
    r = random.Random(8)
    codes = []
    for _ in range(50):
        seen = set()
        while len(seen) < 2:
            seen.add(tuple(r.randrange(2) for _ in range(8)))
        codes.append([Word(bytes(w)) for w in seen])
    assert levenshtein_equivalence(codes, 1).ok


def test_geom_prefix_sweep_disagreement_is_a_violation(monkeypatch):
    from deletion_lab import oracles

    assert verify_geom_bounds(Ks=(16,), lams=(1,)).ok
    # the sweep reads the closed form term by term; a wrong term must be caught
    monkeypatch.setattr(oracles, "geom_expectation", lambda *args: Fraction(-1))
    rep = verify_geom_bounds(Ks=(16,), lams=(1,))
    assert rep.violations == 1
    assert rep.witnesses[0]["which"] == "prefix-sum-sweep"


@pytest.mark.parametrize("bad_j", [1, 2, 4])
def test_geom_prefix_sweep_checks_every_term(monkeypatch, bad_j):
    from deletion_lab import oracles

    true_value = oracles.geom_expectation
    monkeypatch.setattr(oracles, "geom_expectation",
                        lambda j, K, cap: true_value(j, K, cap) + (j == bad_j))
    rep = verify_geom_bounds(Ks=(16,), lams=(1, 2))  # lam 1 sweeps j = 1..4, lam 2 j = 2..5
    assert [w["lam"] for w in rep.witnesses] == [1, 2][: 1 + (bad_j > 1)]
    assert {w["which"] for w in rep.witnesses} == {"prefix-sum-sweep"}
