"""Acceptance suite: one check per criterion, each printing a verdict line.

Every threshold is pinned here; nothing is deferred to later calibration.
Run with `pytest tests/test_acceptance.py -v -s` to see the verdict lines.
"""

import math
import statistics
import time
from fractions import Fraction
from itertools import combinations

from deletion_lab import rng as rngmod
from deletion_lab.construction import encode_outer, toy_params
from deletion_lab.matching import match_count_dominance
from deletion_lab.oblivious import (
    average_case_error,
    make_stochastic,
    oblivious_experiment,
    standard_pattern_family,
)
from deletion_lab.online import (
    IdentityAdversary,
    NonCausalProbeAdversary,
    OnlineConfig,
    WaitPushAdversary,
    build_pairs,
    causality_check,
    make_first_superstring_decoder,
    make_unique_decoder,
    simulate_online,
    transmit,
)
from deletion_lab.oracles import (
    alternating_absorption,
    levenshtein_equivalence,
    oblivious_bitflip_demo,
    verify_corruption_cost,
    verify_geom_bounds,
    verify_matching_decay,
    verify_matching_implication,
)
from deletion_lab.words import Word, apply_pattern, enumerate_patterns, is_subsequence


def report(num: str, desc: str, ok: bool, detail: str = "") -> None:
    verdict = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[acceptance] criterion {num}: {desc}: {verdict}{suffix}")
    assert ok, f"criterion {num} failed{suffix}"


def test_criterion_01_deletion_insertion_lcs_equivalence():
    start = time.time()
    violations = instances = 0
    for n in range(2, 7):
        universe = [Word(format(v, f"0{n}b")) for v in range(2**n)]
        codes = [list(pair) for pair in combinations(universe, 2)]
        for t in (1, 2):
            rep = levenshtein_equivalence(codes, t)
            violations += rep.violations
            instances += rep.instances
    rng = rngmod.py_rng(2024, "acceptance-1")
    random_codes = []
    for _ in range(1000):
        size = rng.choice((2, 3, 4))
        seen = set()
        while len(seen) < size:
            seen.add(tuple(rng.randrange(2) for _ in range(8)))
        random_codes.append([Word(bytes(w)) for w in seen])
    for t in (1, 2):
        rep = levenshtein_equivalence(random_codes, t, check_insertions=False)
        violations += rep.violations
        instances += rep.instances
    elapsed = time.time() - start
    report(
        "01",
        "decodability/LCS equivalence, exhaustive n<=6 and 1000 random n=8",
        violations == 0 and elapsed < 60,
        f"{instances} instances, {violations} violations, {elapsed:.1f}s",
    )


def test_criterion_02_corruption_cost_bound():
    reports = [
        verify_corruption_cost(toy_params(2, 2, 1, "0.5", 4)),
        verify_corruption_cost(toy_params(3, 2, 2, "0.5", 4)),
        verify_corruption_cost(
            toy_params(2, 16, 2, "0.5", 4),
            samples=100_000, master_seed=2024,
        ),
    ]
    total = sum(r.instances for r in reports)
    bad = sum(r.violations for r in reports)
    report(
        "02",
        "corrupting c inner codewords costs > L(1-2^-c-1/sqrt(R))",
        bad == 0,
        f"exhaustive L=8,16 plus 1e5 sampled at L=512: {total} patterns, {bad} violations",
    )


def test_criterion_03_containment_implies_matchable():
    start = time.time()
    rep = verify_matching_implication(
        toy_params(2, 16, 2, "0.5", 8), instances=10_000, master_seed=2024
    )
    elapsed = time.time() - start
    report(
        "03",
        "blockwise-admissible containment implies matchability (1e4 instances)",
        rep.ok and rep.extras["positives"] >= 1000 and elapsed < 300,
        f"{rep.extras['positives']} containments, {rep.violations} violations, {elapsed:.1f}s",
    )


def test_criterion_04_worst_sets_dominate_exact_counts():
    rng = rngmod.py_rng(2024, "acceptance-4")
    checked = 0
    ok = True
    cases = [(3, 5, 10, 4, 2), (3, 4, 8, 2, 2), (2, 5, 8, 2, 2), (3, 3, 6, 4, 2)]
    for _ in range(100):
        K, m, host_len, s, t = cases[checked % len(cases)]
        lam = 2
        Y = [rng.randrange(1, K + 1) for _ in range(host_len)]
        sets = tuple(
            frozenset(rng.sample(range(1, K + 1), lam - 1)) for _ in range(m)
        )
        count_s, count_worst = match_count_dominance(Y, sets, s=s, t=t, K=K, m=m)
        ok = ok and count_s <= count_worst
        checked += 1
    report(
        "04",
        "worst corruption sets maximize exact matchable counts (100 instances)",
        ok and checked == 100,
        f"K<=3, |X|<=5, exact enumeration",
    )


def test_criterion_05_matchability_decay():
    rep = verify_matching_decay(
        K=32, R=4096, lam=1, delta=Fraction(3, 4),
        ns=(8, 16, 24, 32), trials=100_000, master_seed=2024,
    )
    est = rep.extras["estimates"]
    report(
        "05",
        "matchability estimates nonincreasing with log-linear decay (1e5 trials)",
        rep.ok,
        f"estimates {[round(est[n], 4) for n in sorted(est)]}, "
        f"slope {rep.extras['slope']:.3f}, R^2 {rep.extras['r2']:.3f}",
    )


def test_criterion_06_capped_geometric_bounds():
    rep = verify_geom_bounds(Ks=(16, 32, 64), lams=(1, 2))
    report(
        "06",
        "capped-geometric expectation bounds, exact rationals, K in 16/32/64",
        rep.ok,
        f"{rep.instances} bounds checked, {rep.violations} violations",
    )


def _paired_toy_code():
    s, sp = "10110010", "01011101"
    return [
        Word("00000100" + s),
        Word("00001000" + s),
        Word("00000101" + sp),
        Word("00001001" + sp),
    ]


def test_criterion_07a_budget_invariant():
    cfg = OnlineConfig(p=Fraction(1, 2), p0_adv=Fraction(2, 5))
    toy = _paired_toy_code()
    toy_pairs = build_pairs(toy, cfg)
    rng = rngmod.py_rng(2024, "acceptance-7-code")
    rand_words = set()
    while len(rand_words) < 8:
        rand_words.add(tuple(rng.randrange(2) for _ in range(12)))
    rand_code = [Word(bytes(w)) for w in sorted(rand_words)]
    rand_pairs = build_pairs(rand_code, cfg)
    violations = 0
    for trial in range(60_000):
        t_rng = rngmod.py_rng(2024, "acceptance-7a", trial)
        x = toy[t_rng.randrange(len(toy))]
        res = transmit(x, WaitPushAdversary(toy_pairs), t_rng)
        violations += res.deletions > cfg.budget(16)
    for trial in range(40_000):
        t_rng = rngmod.py_rng(2024, "acceptance-7a-rand", trial)
        x = rand_code[t_rng.randrange(len(rand_code))]
        res = transmit(x, WaitPushAdversary(rand_pairs), t_rng)
        violations += res.deletions > cfg.budget(12)
    report(
        "07a",
        "deletions never exceed floor(p n) across 1e5 wait-push trials",
        violations == 0,
        f"{violations} violations",
    )


def test_criterion_07b_causality():
    cfg = OnlineConfig(p=Fraction(1, 2), p0_adv=Fraction(2, 5))
    table = build_pairs(_paired_toy_code(), cfg)
    good = causality_check(lambda: WaitPushAdversary(table), 16, trials=500, master_seed=2024)
    ident = causality_check(lambda: IdentityAdversary(), 16, trials=100, master_seed=2024)
    bad = causality_check(lambda: NonCausalProbeAdversary(), 16, trials=500, master_seed=2024)
    report(
        "07b",
        "causality check passes for wait-push, catches the planted peeker",
        good["passed"] and ident["passed"] and not bad["passed"],
        f"peeker violations {bad['violations']}/500",
    )


def test_criterion_07c_pair_confusion_certificate():
    cfg = OnlineConfig(p=Fraction(1, 2), p0_adv=Fraction(2, 5))
    toy = _paired_toy_code()
    table = build_pairs(toy, cfg)
    pair_ok = all(
        transmit(p.x, WaitPushAdversary(table, 1, 0), rngmod.py_rng(0, "c", i)).output
        == transmit(p.y, WaitPushAdversary(table, 1, 0), rngmod.py_rng(0, "c", i)).output
        for i, p in enumerate(table.pairs)
    )
    trials = 400
    three_sigma = 3 * math.sqrt(0.25 / trials)
    masses, errors = [], []
    for decoder in (make_unique_decoder(toy), make_first_superstring_decoder(toy)):
        rep = simulate_online(
            toy, cfg, decoder, trials=trials, master_seed=2024,
            force_strategy=1, force_bit=0,
        )
        summary = rep.summary()
        masses.append(summary["confused_mean"])
        errors.append(1 - summary["decoded_ok_mean"])
    ok = (
        pair_ok
        and table.paired_fraction == 1.0
        and all(m == 1.0 for m in masses)
        and all(err >= 0.5 - three_sigma for err in errors)
    )
    report(
        "07c",
        "paired outputs bit-identical; confusion mass 1; decoder error >= 1/2 - 3sigma",
        ok,
        f"masses {masses}, decoder errors {[round(e, 3) for e in errors]}",
    )


def test_criterion_08_push_cost_chain():
    cfg = OnlineConfig(p=Fraction(1, 2), p0_adv=Fraction(2, 5))
    assert cfg.in_regime
    codes = [_paired_toy_code()]
    rng = rngmod.py_rng(2024, "acceptance-8-codes")
    # harvest extra paired codes from random draws for broader coverage
    while len(codes) < 4:
        words = set()
        while len(words) < 8:
            words.add(tuple(rng.randrange(2) for _ in range(12)))
        code = [Word(bytes(w)) for w in sorted(words)]
        if build_pairs(code, cfg).pairs:
            codes.append(code)
    checked = violations = 0
    for code in codes:
        table = build_pairs(code, cfg)
        n = len(code[0])
        for trial in range(1500):
            t_rng = rngmod.py_rng(2024, "acceptance-8", trial)
            x = code[t_rng.randrange(len(code))]
            for bit in (0, 1):
                res = transmit(x, WaitPushAdversary(table, 1, bit), t_rng)
                if not res.paired:
                    continue
                checked += 1
                q = table.profiles[x].q
                bound = q * n / 2 + (1 - q) * cfg.p0_adv * n
                if not (res.deletions <= bound < cfg.p * n):
                    violations += 1
    report(
        "08",
        "paired pushes obey deletions <= qn/2 + (1-q) p0 n < pn, exactly",
        checked > 0 and violations == 0,
        f"{checked} paired pushes over {len(codes)} codes, {violations} violations",
    )


def test_criterion_09_stochastic_wrapper_three_eps():
    code = [
        Word("11100101"), Word("11010010"), Word("11101100"), Word("11111000"),
        Word("01100000"), Word("10001011"), Word("01111010"), Word("01111100"),
    ]
    wrapped = make_stochastic(code, 2, rngmod.py_rng(0, "wrap"))
    members = wrapped.codewords
    checked = violations = nonzero = 0
    for tau in enumerate_patterns(8, 2):
        eps = average_case_error(code, tau)
        nonzero += eps > 0
        for group in wrapped.groups:
            bad = sum(
                1
                for c in group
                if any(
                    other != c and is_subsequence(apply_pattern(tau, c), other)
                    for other in members
                )
            )
            checked += 1
            if Fraction(bad, len(group)) > 3 * eps:
                violations += 1
    report(
        "09",
        "per-message failure <= 3x exhaustive average error, all weight-2 patterns",
        violations == 0 and nonzero > 0,
        f"{checked} (message, pattern) cells, {nonzero}/28 patterns with eps>0",
    )


def test_criterion_10a_alternating_absorption():
    rep = alternating_absorption(200, trials=10_000, master_seed=2024)
    estimate = rep.extras["estimate"]
    # exact value of the absorption probability at this scale, for the record
    exact = float(
        Fraction(sum(math.comb(120, k) for k in range(63)), 2**120)
    )
    report(
        "10a",
        "absorption into the alternating host at n=200 reaches 0.99",
        estimate >= 0.99,
        f"estimate {estimate:.4f}, exact value {exact:.4f}",
    )


def test_criterion_10b_bitflip_stochastic_code():
    rep = oblivious_bitflip_demo(
        n=20, rate=0.3, p=0.1, seeds=100, vectors=20, master_seed=2024
    )
    report(
        "10b",
        "random bit-flip code: failure fraction <= 1/log2(n) on >= 95/100 seeds",
        rep.ok,
        f"{rep.extras['passing_seeds']}/100 seeds, worst fraction {rep.extras['worst_fraction']:.3f}",
    )


def test_criterion_11_filter_halves_average_error():
    params = toy_params(4, 4, 1, Fraction(3, 4), 40)
    rng = rngmod.py_rng(0, "pool")
    pool = set()
    while len(pool) < 60:
        pool.add(tuple(rng.choices((3, 4), weights=(1, 3), k=40)))
    pool = sorted(pool)
    absorbers = [tuple([1] * 40), tuple([2] * 40)]
    for k in (0, 13, 27, 39):
        w = [1] * 40
        w[k] = 4
        absorbers.append(tuple(w))
    for _ in range(6):
        absorbers.append(tuple(rng.randrange(1, 5) for _ in range(40)))
    pool = pool + absorbers
    refs = [encode_outer(pool[0], params), encode_outer(absorbers[0], params)]
    patterns = standard_pattern_family(params, params.N // 2, refs, master_seed=5)
    seeds = list(range(30))
    filtered = oblivious_experiment(
        params, pool, patterns, seeds, master_seed=7, target_size=16,
        use_filter=True, f_trials=1200,
    )
    unfiltered = oblivious_experiment(
        params, pool, patterns, seeds, master_seed=7, target_size=16, use_filter=False
    )

    def per_seed_means(rep):
        by_seed = {}
        for seed, _pid, _w, _size, err in rep.rows:
            by_seed.setdefault(seed, []).append(err)
        return [statistics.fmean(v) for _, v in sorted(by_seed.items())]

    med_f = statistics.median(per_seed_means(filtered))
    med_u = statistics.median(per_seed_means(unfiltered))
    report(
        "11",
        "disguise filtering at least halves the median average-case error",
        med_u > 0 and med_u >= 2 * med_f,
        f"median filtered {med_f:.4f} vs unfiltered {med_u:.4f} over 30 seeds",
    )
