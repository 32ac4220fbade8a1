import random
from itertools import product

import numpy as np
import pytest

from deletion_lab.matching import (
    MatchConfig,
    all_outer_words,
    batch_matchable,
    exact_sqrt,
    is_matchable,
    match_count_dominance,
    run_matching,
    worst_sets,
)

from helpers import remap_bijection, worst_case_remap


def cfg_of(s, t, m, lam=1):
    return MatchConfig(s=s, t=t, sets=worst_sets(m, lam))


def test_pair_type_examples():
    # the first move of a walk is the type of the pair (1, 1): A iff X_1 is in S_1 or X_1 >= Y_1
    def first_move(X, Y, S1):
        return run_matching(X, Y, MatchConfig(s=2, t=2, sets=(S1, frozenset()))).moves[0]

    assert first_move((2, 1), (1, 1), frozenset()) == ("A", "A")
    assert first_move((1, 1), (3, 3), frozenset({1})) == ("A", "A")
    assert first_move((1, 1), (3, 3), frozenset()) == ("B", "B")


def test_run_matching_simple_success():
    trace = run_matching((1, 1), (1, 2), cfg_of(2, 2, 2))
    assert trace.states == ((1, 1), (2, 1))
    assert trace.moves == (("A", "A"),)
    assert trace.success


def test_run_matching_degenerate_start():
    trace = run_matching((1,), (1, 2, 3), cfg_of(1, 1, 1))
    assert trace.success and trace.moves == ()
    # success criterion is a = |X| even when both ends coincide
    assert run_matching((2,), (2,), cfg_of(1, 1, 1)).success


def test_run_matching_failure_ends_on_y():
    trace = run_matching((1, 1, 1), (3, 3), cfg_of(1, 1, 3))
    assert not trace.success
    assert trace.states[-1][1] == 2  # b reached |Y|
    assert trace.states[-1][0] < 3


def test_trace_structure_invariants():
    r = random.Random(0)
    for _ in range(300):
        K = r.randrange(2, 5)
        m, n = r.randrange(1, 8), r.randrange(1, 8)
        s, t = r.randrange(1, 4), r.randrange(1, 4)
        lam = r.randrange(1, K + 1)
        X = tuple(r.randrange(1, K + 1) for _ in range(m))
        Y = tuple(r.randrange(1, K + 1) for _ in range(n))
        trace = run_matching(X, Y, cfg_of(s, t, m, lam))
        assert trace.states[0] == (1, 1)
        for (a0, b0), (a1, b1) in zip(trace.states, trace.states[1:]):
            assert (a1 - a0, b1 - b0) in ((1, 0), (0, 1))
        moves = [mv for mv, _ in trace.moves]
        streak = 1
        for prev, cur in zip(moves, moves[1:]):
            streak = streak + 1 if prev == cur else 1
            cap = s if cur == "A" else t
            assert streak <= cap, "consecutive-move cap violated"
        a_end, b_end = trace.states[-1]
        assert trace.success == (a_end == m)
        assert a_end == m or b_end == n


def test_batch_matches_scalar():
    r = random.Random(1)
    for _ in range(400):
        K = r.randrange(2, 6)
        m, n = r.randrange(1, 8), r.randrange(1, 10)
        s, t = r.randrange(1, 5), r.randrange(1, 5)
        lam = r.randrange(1, K + 1)
        X = tuple(r.randrange(1, K + 1) for _ in range(m))
        Y = tuple(r.randrange(1, K + 1) for _ in range(n))
        scalar = is_matchable(X, Y, cfg_of(s, t, m, lam))
        batched = bool(batch_matchable(np.array([X]), [Y], cfg_of(s, t, m, lam), [0])[0])
        assert scalar == batched


def test_batch_per_row_hosts():
    rng = np.random.default_rng(2)
    Xs = rng.integers(1, 4, size=(50, 4))
    Ys = rng.integers(1, 4, size=(50, 7))
    cfg = cfg_of(2, 2, 4, 1)
    joint = batch_matchable(Xs, Ys, cfg, np.arange(50))
    singly = [
        bool(batch_matchable(Xs[i : i + 1], [tuple(Ys[i])], cfg, [0])[0])
        for i in range(50)
    ]
    assert list(joint) == singly


def test_exact_sqrt():
    assert exact_sqrt(16) == 4
    with pytest.raises(ValueError):
        exact_sqrt(2)


def test_remap_bijection_example():
    h = remap_bijection(frozenset({3, 4}), lam=3, K=4)
    assert h == {3: 1, 1: 3, 4: 2, 2: 4}
    assert remap_bijection(frozenset({1, 2}), lam=3, K=4) == {}


def test_worst_case_remap_examples():
    sets = (frozenset({3, 4}),) * 4
    assert worst_case_remap((3, 1, 4, 2), sets, K=4) == (1, 3, 2, 4)
    ident_sets = (frozenset({1, 2}),) * 3
    assert worst_case_remap((1, 2, 3), ident_sets, K=4) == (1, 2, 3)


def test_remap_is_involution_and_respects_sets():
    r = random.Random(3)
    for _ in range(200):
        K = r.randrange(2, 7)
        lam = r.randrange(1, K + 1)
        A = frozenset(r.sample(range(1, K + 1), lam - 1))
        h = remap_bijection(A, lam, K)
        full = {x: h.get(x, x) for x in range(1, K + 1)}
        assert sorted(full.values()) == list(range(1, K + 1))  # bijection
        assert all(full[full[x]] == x for x in full)  # involution
        assert all(full[x] <= lam - 1 for x in A)
        assert all(full[x] >= x for x in range(1, K + 1) if x not in A)


def test_dominance_trivial_cases():
    # lam = 1: both configurations are identical
    cs, cw = match_count_dominance((2, 1, 2), (frozenset(),) * 2, s=2, t=2, K=2, m=2)
    assert cs == cw
    # all-ones host: every X is matchable under any sets
    cs, cw = match_count_dominance((1,) * 6, (frozenset(),) * 3, s=2, t=2, K=3, m=3)
    assert cs == cw == 27


def test_dominance_random_instances():
    r = random.Random(4)
    for _ in range(100):
        K, m = 3, 3
        Y = [r.randrange(1, K + 1) for _ in range(6)]
        sets = tuple(frozenset({r.randrange(1, K + 1)}) for _ in range(m))
        cs, cw = match_count_dominance(Y, sets, s=4, t=2, K=K, m=m)
        assert cs <= cw


def test_remap_preserves_success_exhaustively():
    # success under arbitrary sets never breaks after remapping to the worst
    # sets; exhaustive over K <= 3 with several set choices
    for K, m, n, s, t in ((2, 4, 6, 2, 2), (3, 3, 5, 2, 2), (3, 5, 7, 4, 2)):
        lam = 2
        r = random.Random(K * 100 + m)
        set_choices = [
            tuple(frozenset({r.randrange(1, K + 1)}) for _ in range(m))
            for _ in range(3)
        ]
        # every Y of [K]^n is a host, and each host's stack of rows is all of [K]^m
        Xs, Ys = all_outer_words(K, m), all_outer_words(K, n)
        host = np.repeat(np.arange(len(Ys)), len(Xs))
        for sets in set_choices:
            cfg = MatchConfig(s=s, t=t, sets=sets)
            worst = MatchConfig(s=s, t=t, sets=worst_sets(m, lam))
            remapped = np.array([worst_case_remap(X, sets, K) for X in Xs.tolist()])
            success = batch_matchable(np.tile(Xs, (len(Ys), 1)), Ys, cfg, host=host)
            hx = np.tile(remapped, (len(Ys), 1))[success]
            assert batch_matchable(hx, Ys, worst, host=host[success]).all()


def test_matchable_when_x_large_y_small():
    # a tall X against an all-ones host: every pair is type-A, so b only
    # advances on forced moves and the matching always succeeds
    K, m = 4, 8
    X = (K,) * m
    Y = (1,) * (m + 1)
    cfg = MatchConfig(s=2, t=2, sets=worst_sets(m, 1))
    trace = run_matching(X, Y, cfg)
    assert trace.success
    assert all(reason in ("A", "forced") for _, reason in trace.moves)


def test_batch_in_sets_mode_matches_scalar():
    r = random.Random(7)
    for _ in range(200):
        K = r.randrange(2, 5)
        m, n = r.randrange(1, 7), r.randrange(1, 9)
        s, t = r.randrange(1, 4), r.randrange(1, 4)
        X = tuple(r.randrange(1, K + 1) for _ in range(m))
        Y = tuple(r.randrange(1, K + 1) for _ in range(n))
        sets = tuple(
            frozenset(r.sample(range(1, K + 1), r.randrange(0, K)))
            for _ in range(m)
        )
        cfg = MatchConfig(s=s, t=t, sets=sets)
        scalar = is_matchable(X, Y, cfg)
        batched = bool(batch_matchable(np.array([X]), [Y], cfg, [0])[0])
        assert scalar == batched


def test_outer_count_factorizes_through_selected_symbols():
    # counting X in [K]^n whose selected part matches in Y equals
    # K^(n - m) times the count over selected words of length m alone,
    # for arbitrary corruption sets
    r = random.Random(8)
    K, n, m, s, t = 2, 6, 2, 2, 2
    for _ in range(10):
        Y = tuple(r.randrange(1, K + 1) for _ in range(n))
        sets = tuple(
            frozenset(r.sample(range(1, K + 1), r.randrange(0, 2)))
            for _ in range(m)
        )
        kept = sorted(r.sample(range(n), m))
        full = sum(
            1
            for X in product(range(1, K + 1), repeat=n)
            if is_matchable(
                tuple(X[i] for i in kept), Y, MatchConfig(s=s, t=t, sets=sets)
            )
        )
        part = sum(
            1
            for Z in product(range(1, K + 1), repeat=m)
            if is_matchable(Z, Y, MatchConfig(s=s, t=t, sets=sets))
        )
        assert full == K ** (n - m) * part


def test_dominance_counts_are_returned_not_asserted(monkeypatch):
    # a (broken) kernel that favours the given sets over the worst ones must
    # surface as counts the caller can record, not as an assertion error
    from deletion_lab import matching

    calls = iter([np.ones(8, dtype=bool), np.zeros(8, dtype=bool)])
    monkeypatch.setattr(matching, "batch_matchable", lambda *args: next(calls))
    assert match_count_dominance((1, 2), (frozenset(),) * 3, s=2, t=2, K=2, m=3) == (8, 0)
