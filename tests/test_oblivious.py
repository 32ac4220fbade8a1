import math
import statistics
import tracemalloc
from fractions import Fraction
from itertools import combinations, product

import numpy as np
import pytest

from deletion_lab import oblivious
from deletion_lab import rng as rngmod
from deletion_lab.construction import filter_threshold, toy_params
from deletion_lab.matching import MatchConfig, batch_matchable, count_matchable, worst_sets
from deletion_lab.oblivious import (
    _pad_to_weight,
    average_case_error,
    blockwise_periodic_pattern,
    build_confusability_graph,
    delete_bit_pattern,
    estimate_f,
    filter_candidates,
    make_stochastic,
    oblivious_experiment,
    read_patterns,
    sample_outer_code,
    standard_pattern_family,
    uniform_pattern,
    unique_decode,
)
from deletion_lab.words import (
    DeletionPattern,
    Word,
    apply_pattern,
    enumerate_patterns,
    is_subsequence,
)

from helpers import sampled_positive_indegree, write_patterns


def test_estimate_f_exact_examples():
    # R = 64 so the B-cap is 8: failures genuinely occur for all-max hosts
    params = toy_params(3, 64, 1, Fraction(1, 2), 4)  # Z has delta n = 2 symbols
    ones, maxs = estimate_f([(1,) * 4, (3,) * 4], params)
    assert ones == 1
    assert maxs == Fraction(1, 3)


def test_estimate_f_mc_tracks_exact():
    params = toy_params(3, 64, 1, Fraction(1, 2), 4)
    mc = estimate_f([(3,) * 4], params, trials=4000, master_seed=1)[0]
    assert type(mc) is float
    assert abs(mc - 1 / 3) < 5 * math.sqrt(1 / 3 * 2 / 3 / 4000)  # five binomial standard errors


def test_filter_keeps_all_when_threshold_exceeds_one():
    params = toy_params(2, 4, 1, Fraction(1, 3), 6)
    assert filter_threshold(params) > 1
    pool = [tuple(X) for X in product((1, 2), repeat=6)]
    out = filter_candidates(pool, params)
    assert out.kept == pool and not out.discarded
    assert out.discarded_fraction == 0.0


def test_filter_discards_universal_disguisers():
    # threshold below 1 removes hosts in which every word is matchable
    params = toy_params(4, 4, 1, Fraction(3, 4), 40)
    assert filter_threshold(params) < 1
    rng = rngmod.py_rng(0, "pool")
    pool = [tuple(rng.choices((3, 4), weights=(1, 3), k=40)) for _ in range(12)]
    pool += [tuple([1] * 40)]
    out = filter_candidates(pool, params, trials=800, master_seed=2)
    assert tuple([1] * 40) in out.discarded


def test_sampling_mean_within_three_sigma():
    params = toy_params(2, 4, 1, Fraction(1, 3), 6)
    W = [tuple(X) for X in product((1, 2), repeat=6)]
    sizes = [
        len(sample_outer_code(W, 32, rngmod.py_rng(3, "draw", seed)))
        for seed in range(10_000)
    ]
    sigma = (64 * 0.25) ** 0.5
    assert abs(statistics.fmean(sizes) - 32) < 3 * sigma / 100
    # determinism under a fixed seed
    again = sample_outer_code(W, 32, rngmod.py_rng(3, "draw", 17))
    assert again == sample_outer_code(W, 32, rngmod.py_rng(3, "draw", 17))


def test_graph_outdegree_identity_full_pool():
    # outdegree(Y) = K^((1-delta)n) * #matchable Z, minus the excluded self-loop
    params = toy_params(2, 4, 1, Fraction(1, 3), 6)
    dn = params.delta_n
    pool = [tuple(X) for X in product((1, 2), repeat=6)]
    sigma = DeletionPattern(6, tuple(range(dn + 1, 7)))
    graph = build_confusability_graph(pool, sigma, MatchConfig(2, 2, worst_sets(dn, 1)))
    outs = graph.out_degrees()
    for y_idx, Y in enumerate(pool):
        fc = estimate_f([Y], params)[0]
        expected = 2 ** (6 - dn) * int(fc * 2**dn)
        cfg = MatchConfig(2, 2, worst_sets(dn, 1))
        selfedge = bool(batch_matchable(np.array([Y[:dn]]), [Y], cfg, [0])[0])
        assert outs[y_idx] == expected - (1 if selfedge else 0)


def test_graph_edges_shrink_with_pool():
    pool = [tuple(X) for X in product((1, 2), repeat=6)]
    sigma = DeletionPattern(6, (3, 4, 5, 6))
    full = build_confusability_graph(pool, sigma, MatchConfig(2, 2, worst_sets(2, 1)))
    sub = build_confusability_graph(pool[:30], sigma, MatchConfig(2, 2, worst_sets(2, 1)))
    assert sub.edge_count <= full.edge_count
    assert full.stats()["vertices"] == 64


def test_unique_decode_examples():
    C = [Word("0011"), Word("1100")]
    assert unique_decode(Word("01"), C) == Word("0011")
    assert unique_decode(Word("0"), C) is None  # ambiguous
    assert unique_decode(Word("0110"), C) is None  # no superstring


def test_unique_decode_exhaustive_two_word_codes():
    universe = [Word(format(v, "06b")) for v in range(64)]
    patterns = [p for k in range(4) for p in enumerate_patterns(6, k)]
    for x, y in combinations(universe, 2):
        C = [x, y]
        for tau in patterns:
            s = apply_pattern(tau, x)
            in_x, in_y = is_subsequence(s, x), is_subsequence(s, y)
            expect = x if (in_x and not in_y) else None
            assert unique_decode(s, C) == expect


def test_average_case_error_examples():
    assert average_case_error([Word("0000"), Word("1111")], DeletionPattern(4, (1, 2, 3))) == 0
    for tau in (p for k in range(4) for p in enumerate_patterns(4, k)):
        assert average_case_error([Word("0000"), Word("1111")], tau) == 0
    assert average_case_error([Word("01"), Word("10")], DeletionPattern(2, (1,))) == 1
    assert average_case_error([Word("0000")], DeletionPattern(4, (2,))) == 0


def test_average_case_error_order_invariant():
    C = [Word("010101"), Word("111000"), Word("100110")]
    tau = DeletionPattern(6, (1, 4, 6))
    assert average_case_error(C, tau) == average_case_error(list(reversed(C)), tau)
    with pytest.raises(ValueError):
        average_case_error([Word("01"), Word("01")], DeletionPattern(2, ()))


def test_make_stochastic_shapes():
    C = [Word(format(v, "06b")) for v in range(8)]
    sc = make_stochastic(C, 2, rngmod.py_rng(0, "wrap"))
    assert len(sc.groups) == 2
    assert all(len(g) == 2 for g in sc.groups)
    assert len(set(sc.codewords)) == 4
    with pytest.raises(ValueError):
        make_stochastic(C[:3], 2, rngmod.py_rng(0, "wrap"))


def test_make_stochastic_groups_disjoint_over_seeds():
    C = [Word(format(v, "06b")) for v in range(12)]
    for seed in range(1000):
        sc = make_stochastic(C, 2, rngmod.py_rng(4, "wrap", seed))
        flat = sc.codewords
        assert len(flat) == len(set(flat))


def test_sparse_graph_sampling_keeps_indegrees_empty():
    # induced subgraphs of a sparse confusability graph are mostly isolated
    # vertices: at least (1-eps) of sampled words keep indegree 0 in at
    # least 95% of a thousand samples
    rng = rngmod.py_rng(0, "sparsity-pool")
    pool = [tuple(rng.randrange(1, 33) for _ in range(128)) for _ in range(400)]
    dn = 96
    sigma = DeletionPattern(128, tuple(range(dn + 1, 129)))
    graph = build_confusability_graph(pool, sigma, MatchConfig(2, 64, worst_sets(dn, 1)))
    stats = graph.stats()
    assert stats["max_outdegree"] <= 0.15 * len(pool)  # genuinely sparse
    M, eps = 25, 0.2
    ok = 0
    for seed in range(1000):
        srng = rngmod.py_rng(1, "sparsity-sample", seed)
        size, hit = sampled_positive_indegree(graph, M / len(pool), srng)
        if size == 0 or hit <= eps * size:
            ok += 1
    assert ok >= 950


def test_pattern_families():
    rng = rngmod.py_rng(6, "fam")
    pat = uniform_pattern(20, 7, rng)
    assert pat.weight == 7 and pat.word_length == 20
    ref = Word("01010101")
    dz = delete_bit_pattern(ref, 0, 4, rng)
    assert dz.deleted == (1, 3, 5, 7)
    padded = delete_bit_pattern(ref, 0, 6, rng)
    assert padded.weight == 6 and set((1, 3, 5, 7)) <= set(padded.deleted)
    blk = blockwise_periodic_pattern(16, 4, 4, rng)
    assert blk.weight == 4
    params = toy_params(2, 2, 1, Fraction(1, 2), 4)
    fam = standard_pattern_family(params, params.N // 2, [ref * 4], master_seed=0)
    names = [name for name, _ in fam]
    assert "blockwise" in names and any(n.startswith("zeros-of") for n in names)
    assert all(p.weight == params.N // 2 for _, p in fam)


def test_pattern_file_roundtrip(tmp_path):
    pats = [DeletionPattern(8, (1, 5)), DeletionPattern(8, ())]
    path = tmp_path / "pats.txt"
    write_patterns(path, pats)
    back = read_patterns(path, 8)
    assert [p for _, p in back] == pats


def test_failed_pattern_write_leaves_no_file(tmp_path):
    def patterns():
        yield DeletionPattern(8, (1, 5))
        raise RuntimeError("no more patterns")

    with pytest.raises(RuntimeError):
        write_patterns(tmp_path / "pats.txt", patterns())
    assert list(tmp_path.iterdir()) == []


def test_experiment_report_deterministic():
    params = toy_params(2, 4, 1, Fraction(1, 2), 4)
    pool = [tuple(X) for X in product((1, 2), repeat=4)]
    pats = [("solo", uniform_pattern(params.N, params.N // 2, rngmod.py_rng(0, "p")))]
    runs = [
        oblivious_experiment(
            params, pool, pats, seeds=[0, 1, 2], master_seed=9, target_size=6, use_filter=False
        ).csv_text()
        for _ in range(2)
    ]
    assert runs[0] == runs[1]
    header = runs[0].splitlines()[0]
    assert header == "seed,pattern_id,pattern_weight,code_size,error_fraction"
    assert len(runs[0].splitlines()) == 1 + 3


def test_family_patterns_hold_only_their_masks_through_an_experiment():
    # scoring a pattern reads its mask and weight, never its positions
    params = toy_params(2, 4, 1, Fraction(1, 2), 4)
    pool = [tuple(X) for X in product((1, 2), repeat=4)]
    fam = standard_pattern_family(params, params.N // 2, [Word("0110") * (params.N // 4)], master_seed=3)
    oblivious_experiment(params, pool, fam, seeds=[0, 1], target_size=6, use_filter=False)
    assert [list(vars(pattern)) for _, pattern in fam] == [["keep"]] * len(fam)


def test_trial_count_without_the_filter_is_refused():
    # without the filter no f(Y) is estimated, so a trial count would change nothing
    params = toy_params(2, 4, 1, Fraction(1, 2), 4)
    pats = [("identity", DeletionPattern(params.N, ()))]
    with pytest.raises(ValueError, match="'f_trials' is read only when 'use_filter' is true"):
        oblivious_experiment(params, [(1, 1, 1, 1)], pats, seeds=[0], use_filter=False, f_trials=10)


@pytest.mark.parametrize("Y", [(3, 4) * 20, (4,) * 40])
def test_estimate_f_exact_at_zlen_30_tracks_monte_carlo(Y):
    # criterion-11 scale: 4^30 words, far past what enumeration could list
    params = toy_params(4, 4, 1, Fraction(3, 4), 40)
    exact = estimate_f([Y], params)[0]
    mc = estimate_f([Y], params, trials=4000, master_seed=1)[0]
    assert type(exact) is Fraction and 4**30 % exact.denominator == 0
    assert 0 < exact < 1
    assert abs(exact - mc) < 5 * math.sqrt(exact * (1 - exact) / 4000)  # five binomial standard errors


def test_inclusion_probability_one_keeps_everything():
    params = toy_params(2, 4, 1, Fraction(1, 3), 6)
    W = [tuple(X) for X in product((1, 2), repeat=6)]
    assert sample_outer_code(W, 10_000, rngmod.py_rng(0, "all")) == W


def test_experiment_empty_pattern_has_zero_error():
    params = toy_params(2, 4, 1, Fraction(1, 2), 4)
    pool = [tuple(X) for X in product((1, 2), repeat=4)]
    pats = [("identity", DeletionPattern(params.N, ()))]
    rep = oblivious_experiment(
        params, pool, pats, seeds=[0, 1], master_seed=3, target_size=8, use_filter=False
    )
    assert len(rep.rows) == 2
    assert all(row[-1] == 0.0 for row in rep.rows)


@pytest.mark.parametrize("exact", [True, False])
def test_stacked_estimate_f_equals_per_host_scoring(exact):
    # 25 hosts at 700 trials: six hosts per walk, the last walk holds one
    params = toy_params(3, 64, 1, Fraction(1, 2), 12)
    rng = rngmod.py_rng(4, "hosts")
    pool = [tuple(rng.choices((1, 2, 3), k=12)) for _ in range(23)] + [(3,) * 12, (1,) * 12]
    dn, trials = params.delta_n, 700
    cfg = MatchConfig.paper(params.lam, params.R, worst_sets(dn, params.lam))
    got = estimate_f(pool, params, None if exact else trials, master_seed=5)
    assert len(got) == len(pool)
    for est, Y in zip(got, pool):
        if exact:
            expected = Fraction(count_matchable(Y, cfg, 3), 3**dn)
        else:
            gen = rngmod.np_rng(5, "estimate-f", ",".join(map(str, Y)))
            Zs = gen.integers(1, 4, size=(trials, dn), dtype=np.uint8)
            expected = int(batch_matchable(Zs, [Y], cfg, np.zeros(trials, dtype=int)).sum()) / trials
        assert est == expected and type(est) is (Fraction if exact else float)
    assert estimate_f([], params, None if exact else trials) == []


def test_monte_carlo_f_of_a_host_depends_only_on_its_symbols_and_the_master_seed():
    # 700 trials: six hosts per walk, so the positions below fall in different walks
    params = toy_params(3, 64, 1, Fraction(1, 2), 12)
    rng = rngmod.py_rng(8, "hosts")
    pool = [tuple(rng.choices((1, 2, 3), k=12)) for _ in range(9)]
    others = [tuple(rng.choices((1, 2, 3), k=12)) for _ in range(7)]
    Y = pool[4]

    def f(hosts, seed=5):
        return estimate_f(hosts, params, trials=700, master_seed=seed)

    alone = f([Y])[0]
    assert f([list(Y)]) == [alone]
    assert f(pool)[4] == f([Y] + others)[0] == f(others + [Y])[7] == alone
    assert f(pool, seed=6) != f(pool)


@pytest.mark.parametrize("trials", [0, -5])
def test_monte_carlo_estimate_f_needs_a_positive_trial_count(trials):
    params = toy_params(3, 64, 1, Fraction(1, 2), 12)
    with pytest.raises(ValueError, match="trials"):
        estimate_f([(3,) * 12], params, trials=trials)


def test_graph_edges_equal_one_walk_per_host(monkeypatch):
    pool = [tuple(X) for X in product((1, 2), repeat=6)]
    sigma = DeletionPattern(6, (2, 5))
    cfg = MatchConfig(2, 2, worst_sets(4, 1))
    selected = np.array(pool)[:, [0, 2, 3, 5]]
    expected = [(y, int(x)) for y, Y in enumerate(pool)
                for x in np.flatnonzero(batch_matchable(selected, [Y], cfg, np.zeros(len(pool), dtype=int)))
                if x != y]
    monkeypatch.setattr(oblivious, "WALK_ROWS", 5 * len(pool))  # 13 walks, the last of 4 hosts
    assert build_confusability_graph(pool, sigma, cfg).edges == expected


def test_pad_to_weight_equals_the_padding_it_replaced():
    def reference(positions, N, weight, rng):  # rebuilds set(pos) for every candidate
        pos = sorted(set(positions))
        if len(pos) > weight:
            pos = pos[:weight]
        elif len(pos) < weight:
            rest = [i for i in range(1, N + 1) if i not in set(pos)]
            pos += rng.sample(rest, weight - len(pos))
        return DeletionPattern(N, tuple(sorted(pos)))

    for N in (1, 6, 31):
        for seed in range(8):
            positions = rngmod.py_rng(seed, "positions").sample(range(1, N + 1), seed % (N + 1))
            for weight in range(N + 1):
                keep = DeletionPattern(N, positions).keep
                got = _pad_to_weight(keep, weight, rngmod.py_rng(seed, "pad", weight))
                assert got == reference(positions, N, weight, rngmod.py_rng(seed, "pad", weight))


def criterion11_pool() -> list[tuple[int, ...]]:
    """The 72-word pool of criterion 11: 60 words over {3,4} weighted 1:3, then 12 absorbers."""
    rng = rngmod.py_rng(0, "pool")
    body = set()
    while len(body) < 60:
        body.add(tuple(rng.choices((3, 4), weights=(1, 3), k=40)))
    absorbers = [(1,) * 40, (2,) * 40] + [(1,) * k + (4,) + (1,) * (39 - k) for k in (0, 13, 27, 39)]
    absorbers += [tuple(rng.randrange(1, 5) for _ in range(40)) for _ in range(6)]
    return sorted(body) + absorbers


def test_filter_memory_peak_stays_small():
    # a row cap set too large holds the draws and walk arrays of too many hosts at once
    params = toy_params(4, 4, 1, Fraction(3, 4), 40)
    pool = criterion11_pool()
    assert len(set(pool)) == 72
    filter_candidates(pool, params, trials=600, master_seed=7)  # warm caches
    tracemalloc.start()
    try:
        filter_candidates(pool, params, trials=600, master_seed=7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5e6, f"filter_candidates peaked at {peak / 1e6:.2f} MB"
