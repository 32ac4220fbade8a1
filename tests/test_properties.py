"""Property-based differential tests of the fast kernels against references."""

import random
from itertools import groupby, product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from deletion_lab.matching import ENUM_LIMIT, MatchConfig, all_outer_words, batch_matchable, run_matching
from deletion_lab.words import (
    DeletionPattern,
    Word,
    apply_pattern,
    bit_deletion_pattern,
    is_subsequence,
    join_patterns,
    split_pattern,
)

PROPS = settings(deadline=None, derandomize=True, max_examples=150)


@st.composite
def batch_instances(draw):
    K = draw(st.integers(2, 5))
    m, n, T = draw(st.integers(1, 6)), draw(st.integers(1, 8)), draw(st.integers(1, 6))
    symbol = st.integers(1, K)
    sets = tuple(draw(st.frozensets(symbol)) for _ in range(m))
    cfg = MatchConfig(s=draw(st.integers(1, 4)), t=draw(st.integers(1, 4)), sets=sets)
    Xs = [tuple(draw(st.lists(symbol, min_size=m, max_size=m))) for _ in range(T)]
    Ys = [tuple(draw(st.lists(symbol, min_size=n, max_size=n))) for _ in range(T)]
    return cfg, Xs, Ys


@PROPS
@given(batch_instances())
def test_batch_matchable_agrees_with_run_matching(inst):
    cfg, Xs, Ys = inst
    per_row = batch_matchable(np.array(Xs), np.array(Ys), cfg)
    shared = batch_matchable(np.array(Xs), Ys[0], cfg)
    for i, X in enumerate(Xs):
        assert per_row[i] == run_matching(X, Ys[i], cfg).success
        assert shared[i] == run_matching(X, Ys[0], cfg).success


def test_batch_matchable_needs_one_set_per_position():
    cfg = MatchConfig(s=2, t=2, sets=(frozenset(),) * 2)
    with pytest.raises(ValueError, match="sets"):
        batch_matchable(np.ones((4, 3), dtype=np.int64), (1, 2, 3), cfg)


@PROPS
@given(
    st.one_of(st.integers(0, 40), st.integers(500, 530), st.integers(1000, 1100)),
    st.integers(0, 2**32 - 1),
)
def test_apply_pattern_agrees_with_bytewise_reference(length, seed):
    rng = random.Random(seed)
    bits = bytes(rng.randrange(2) for _ in range(length))
    dead = set(rng.sample(range(1, length + 1), rng.randrange(0, length + 1)))
    tau = DeletionPattern(length, tuple(dead))
    expected = bytes(b for i, b in enumerate(bits, start=1) if i not in dead)
    assert apply_pattern(tau, bits).bits == expected


@PROPS
@given(st.lists(st.integers(0, 1), max_size=64), st.integers(0, 1))
def test_bit_deletion_pattern_leaves_only_the_other_bit(bits, bit):
    w = Word(bits)
    assert apply_pattern(bit_deletion_pattern(w, bit), w).bits == bytes(b for b in bits if b != bit)


@PROPS
@given(st.integers(1, 5), st.integers(1, 6))
def test_all_outer_words_is_itertools_product(K, m):
    words = all_outer_words(K, m)
    assert words.dtype == np.int64
    assert [tuple(X) for X in words.tolist()] == list(product(range(1, K + 1), repeat=m))


def test_all_outer_words_refuses_past_the_limit():
    m = ENUM_LIMIT.bit_length()  # 2^m > ENUM_LIMIT
    with pytest.raises(ValueError, match="enumeration limit"):
        all_outer_words(2, m)


@PROPS
@given(st.integers(1, 6), st.integers(1, 8), st.data())
def test_split_join_round_trip(n, L, data):
    deleted = data.draw(st.frozensets(st.integers(1, n * L)))
    tau = DeletionPattern(n * L, tuple(deleted))
    parts = split_pattern(tau, n, L)
    assert len(parts) == n and all(p.word_length == L for p in parts)
    assert sum(p.weight for p in parts) == tau.weight
    assert join_patterns(parts) == tau


def bytewise_is_subsequence(a, b) -> bool:
    """Reference: the bitwise greedy embedding, one ``bytes.find`` per bit of ``a``."""
    aa, bb = Word(a).bits, Word(b).bits
    j = 0
    for sym in aa:
        j = bb.find(sym, j)
        if j < 0:
            return False
        j += 1
    return True


def from_runs(first: int, lengths) -> bytes:
    """The word whose k-th run holds ``first ^ (k & 1)``; zero lengths merge neighbours."""
    return b"".join(bytes([first ^ (k & 1)]) * n for k, n in enumerate(lengths))


bit_lists = st.lists(st.integers(0, 1), max_size=64)
run_lengths = st.lists(st.integers(1, 300), max_size=24)


@PROPS
@given(bit_lists, bit_lists)
def test_is_subsequence_agrees_with_bytewise_greedy(a, b):
    assert is_subsequence(a, b) == bytewise_is_subsequence(a, b)


@PROPS
@given(st.integers(0, 1), run_lengths, st.integers(0, 1), run_lengths, st.integers(0, 2**32 - 1))
def test_is_subsequence_agrees_on_long_runs(a_first, a_runs, b_first, b_runs, seed):
    rng = random.Random(seed)
    b = from_runs(b_first, b_runs)
    # shrinking b's runs, some to nothing, gives a subsequence whose runs span several b-runs
    shrunk = from_runs(b_first, [rng.randint(0, n) for n in b_runs])
    assert is_subsequence(shrunk, b)
    for a in (from_runs(a_first, a_runs), shrunk, shrunk + bytes([rng.randrange(2)])):
        assert is_subsequence(a, b) == bytewise_is_subsequence(a, b)


@pytest.mark.parametrize(
    "a, b",
    [("", ""), ("", "01"), ("0", ""), ("1", "0000"), ("10", "0110"), ("01", "10"),
     ("0011", "001"), ("000", "010101"), ("0000", "010101"), ("111", "0101011")],
)
def test_is_subsequence_edge_cases(a, b):
    assert is_subsequence(a, b) == bytewise_is_subsequence(a, b)


@PROPS
@given(bit_lists)
def test_word_runs_are_groupby_lengths(bits):
    assert Word(bits).runs == tuple(len(list(g)) for _, g in groupby(bits))


def test_word_runs_are_cached_and_carried_over():
    assert Word().runs == ()
    w = Word("0011101")
    runs = w.runs
    assert runs == (2, 3, 1, 1)
    assert w.runs is runs
    assert Word(w).runs is runs
    a, b = Word("0110"), Word("010110")
    assert is_subsequence(a, b)
    assert a._runs == (1, 2, 1) and b._runs == (1, 1, 1, 2, 1)  # filled on the callers' words
