"""Property-based differential tests of the fast kernels against references."""

import math
import random
from dataclasses import replace
from fractions import Fraction
from itertools import groupby, product
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from deletion_lab import construction, matching, oracles
from deletion_lab.oblivious import (
    blockwise_periodic_pattern,
    delete_bit_pattern,
    oblivious_experiment,
    uniform_pattern,
)
from deletion_lab import rng as rngmod
from deletion_lab.construction import (
    admissible_weight_cap,
    corruption_sets,
    encode_outer,
    extract_signature,
    filter_threshold,
    matchability_exponent,
    outer_code_size,
    pad_corruption_set,
    preserves,
    rate_info,
    toy_params,
)
from deletion_lab.matching import (
    ENUM_LIMIT,
    MatchConfig,
    all_outer_words,
    batch_matchable,
    count_matchable,
    is_matchable,
    run_matching,
)
from deletion_lab.online import (
    OnlineAdversary,
    OnlineConfig,
    Plan,
    WaitPushAdversary,
    build_pairs,
    make_unique_decoder,
    simulate_online,
    transmit,
)
from deletion_lab.words import (
    DeletionPattern,
    Word,
    apply_pattern,
    bit_deletion_pattern,
    concatenate,
    is_subsequence,
    lcs,
    lcs_lengths,
    masked_run_count,
)

from helpers import (
    blockwise_positions,
    delete_bit_positions,
    float_beta,
    float_filter_threshold,
    float_formula_target_size,
    geom2_expectation,
    geom_mass_expectation,
    join_patterns,
    lcs_length,
    split_pattern,
    uniform_positions,
    weight_within_bound,
)

PROPS = settings(deadline=None, derandomize=True, max_examples=150)


@st.composite
def batch_instances(draw):
    """Rows of X, one host per row and one shared host.

    Sets may hold symbols outside [1, K] and outside the range of the rows,
    the B-cap t reaches past n, and there may be no rows at all.
    """
    K = draw(st.integers(2, 5))
    m, n, T = draw(st.integers(1, 6)), draw(st.integers(1, 8)), draw(st.integers(0, 6))
    symbol = st.integers(1, K)
    sets = tuple(draw(st.frozensets(st.integers(0, K + 2))) for _ in range(m))
    cfg = MatchConfig(s=draw(st.integers(1, 4)), t=draw(st.integers(1, 12)), sets=sets)
    Xs = [tuple(draw(st.lists(symbol, min_size=m, max_size=m))) for _ in range(T)]
    Ys = [tuple(draw(st.lists(symbol, min_size=n, max_size=n))) for _ in range(T)]
    Y = tuple(draw(st.lists(symbol, min_size=n, max_size=n)))
    return cfg, Xs, Ys, Y


@PROPS
@given(batch_instances())
@example((MatchConfig(2, 3, (frozenset(),) * 4), [], [], (1, 2, 3)))
@example((MatchConfig(1, 1, (frozenset({9}),)), [(3,), (1,)], [(1,), (4,)], (2,)))
@example((MatchConfig(3, 2, (frozenset({0}),) * 3), [(2, 2, 1), (1, 1, 1)], [(1,), (2,)], (1,)))
@example((MatchConfig(1, 12, (frozenset({1}), frozenset())), [(1, 5), (5, 1), (4, 4)],
          [(5, 5, 5), (5, 5, 5), (2, 5, 1)], (5, 5, 2)))
@example((MatchConfig(4, 255, (frozenset(),) * 3), [(1, 1, 1)], [(5,) * 300 + (1,)],
          (5,) * 300 + (1,)))  # a host run longer than t = 255, the largest uint8 cap
def test_batch_matchable_agrees_with_run_matching(inst):
    cfg, Xs, Ys, Y = inst
    m, n = len(cfg.sets), len(Y)
    rows = np.array(Xs, dtype=np.int64).reshape(len(Xs), m)
    stack = np.array(Ys, dtype=np.int64).reshape(len(Xs), n)
    per_row = batch_matchable(rows, stack, cfg, np.arange(len(Xs)))
    shared = batch_matchable(rows, [Y], cfg, np.zeros(len(Xs), dtype=int))
    assert per_row.shape == shared.shape == (len(Xs),)
    for i, X in enumerate(Xs):
        assert per_row[i] == run_matching(X, Ys[i], cfg).success == is_matchable(X, Ys[i], cfg)
        assert shared[i] == run_matching(X, Y, cfg).success


@st.composite
def count_instances(draw):
    K, m, n = draw(st.integers(1, 4)), draw(st.integers(1, 8)), draw(st.integers(1, 10))
    sets = tuple(draw(st.frozensets(st.integers(0, K + 2))) for _ in range(m))
    cfg = MatchConfig(s=draw(st.integers(1, 5)), t=draw(st.integers(1, 12)), sets=sets)
    Y = tuple(draw(st.lists(st.integers(1, K + 1), min_size=n, max_size=n)))
    return cfg, K, Y


@PROPS
@given(count_instances())
@example((MatchConfig(2, 2, (frozenset(),) * 3), 3, (2,)))  # one host symbol
@example((MatchConfig(2, 2, (frozenset({1}),)), 4, (1, 2)))  # one coordinate
@example((MatchConfig(1, 3, (frozenset({1, 2, 3}),) * 5), 3, (3, 3, 1, 2, 3, 3)))
def test_count_matchable_agrees_with_enumeration(inst):
    cfg, K, Y = inst
    Zs = all_outer_words(K, len(cfg.sets))
    matched = batch_matchable(Zs, [Y], cfg, np.zeros(len(Zs), dtype=int))
    assert count_matchable(Y, cfg, K) == int(matched.sum())


def test_per_row_hosts_agree_across_table_blocks(monkeypatch):
    gen = np.random.default_rng(5)
    Xs, Ys = gen.integers(1, 6, size=(50, 6)), gen.integers(1, 6, size=(50, 9))
    cfg = MatchConfig(s=2, t=3, sets=(frozenset({2}),) * 6)
    expected = [is_matchable(tuple(X), tuple(Y), cfg) for X, Y in zip(Xs.tolist(), Ys.tolist())]
    assert any(expected) and not all(expected)
    assert batch_matchable(Xs, Ys, cfg, np.arange(50)).tolist() == expected
    monkeypatch.setattr(matching, "TABLE_BYTES", 200)  # 3 rows of 60 table bytes per block
    assert batch_matchable(Xs, Ys, cfg, np.arange(50)).tolist() == expected


def test_batch_matchable_needs_one_set_per_position():
    cfg = MatchConfig(s=2, t=2, sets=(frozenset(),) * 2)
    with pytest.raises(ValueError, match="sets"):
        batch_matchable(np.ones((4, 3), dtype=np.int64), [(1, 2, 3)], cfg, [0] * 4)


@st.composite
def stacked_instances(draw):
    """Rows of X, a stack of hosts that may repeat, and each row's host index."""
    K = draw(st.integers(2, 5))
    m, n, H, T = (draw(st.integers(1, 6)), draw(st.integers(1, 8)), draw(st.integers(1, 4)),
                  draw(st.integers(0, 9)))
    symbol = st.integers(1, K)
    sets = tuple(draw(st.frozensets(st.integers(0, K + 2))) for _ in range(m))
    cfg = MatchConfig(s=draw(st.integers(1, 4)), t=draw(st.integers(1, 12)), sets=sets)
    hosts = [tuple(draw(st.lists(symbol, min_size=n, max_size=n))) for _ in range(H)]
    if H > 1 and draw(st.booleans()):
        hosts[-1] = hosts[0]
    Xs = [tuple(draw(st.lists(symbol, min_size=m, max_size=m))) for _ in range(T)]
    host = draw(st.lists(st.integers(0, H - 1), min_size=T, max_size=T))
    return cfg, Xs, hosts, host


@PROPS
@given(stacked_instances())
@example((MatchConfig(2, 3, (frozenset(),) * 4), [], [(1, 2, 3)], []))  # no rows
@example((MatchConfig(1, 1, (frozenset({9}),)), [(3,), (1,)], [(1,), (4,)], [1, 1]))  # m = 1
@example((MatchConfig(2, 2, (frozenset({1}),) * 3), [(2, 2, 1), (1, 3, 1), (3, 3, 3)],
          [(3, 1, 3, 2)], [0, 0, 0]))  # one host
@example((MatchConfig(1, 4, (frozenset(),) * 3), [(2, 1, 2), (2, 1, 2), (1, 2, 2)],
          [(2, 2, 1, 1), (1, 2, 1, 2), (2, 2, 1, 1)], [2, 1, 0]))  # a repeated host
@example((MatchConfig(2, 3, (frozenset({-1}),) * 3), [(-1, 2, 0), (0, -2, 3), (3, 3, -2)],
          [(0, -2, 3, 1), (-3, 3, 3, 0)], [1, 0, 1]))  # symbols below 1
def test_host_indexed_batch_matchable_agrees_with_one_call_per_host(inst):
    cfg, Xs, hosts, host = inst
    m = len(cfg.sets)
    rows = np.array(Xs, dtype=np.int64).reshape(len(Xs), m)
    stacked = batch_matchable(rows.astype(np.int8), np.array(hosts), cfg, host)
    with patch.object(matching, "TABLE_BYTES", 1):  # one host per skip table
        blocked = batch_matchable(rows, hosts, cfg, np.array(host))
    assert stacked.shape == blocked.shape == (len(Xs),)
    assert stacked.tolist() == blocked.tolist()
    assert stacked.tolist() == [run_matching(X, hosts[h], cfg).success for X, h in zip(Xs, host)]
    for h, Y in enumerate(hosts):
        mine = [r for r, g in enumerate(host) if g == h]
        assert stacked[mine].tolist() == batch_matchable(rows[mine], [Y], cfg, [0] * len(mine)).tolist()


@pytest.mark.parametrize("host", [[0, 2], [-1, 0], [0], [[0, 1]], [0, 1, 0]])
def test_host_index_outside_the_stack_is_a_value_error(host):
    cfg = MatchConfig(s=2, t=2, sets=(frozenset(),) * 2)
    with pytest.raises(ValueError, match="host index"):
        batch_matchable(np.ones((2, 2), dtype=np.int64), [(1, 2, 3), (3, 2, 1)], cfg, host)


def test_a_lone_host_is_not_a_stack_of_hosts():
    cfg = MatchConfig(s=2, t=2, sets=(frozenset(),) * 2)
    with pytest.raises(ValueError, match="host index needs a stack of hosts"):
        batch_matchable(np.ones((2, 2), dtype=np.int64), (1, 2, 3), cfg, [0, 0])


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


@st.composite
def family_instances(draw):
    """Block length L, word length N = L * blocks, a weight in [0, N], a seed and a reference word."""
    L, blocks = draw(st.integers(1, 12)), draw(st.integers(0, 6))
    N = L * blocks
    bits = draw(st.lists(st.integers(0, 1), min_size=N, max_size=N))
    return L, N, draw(st.integers(0, N)), draw(st.integers(0, 2**32 - 1)), bits


@PROPS
@given(family_instances())
@example((512, 20480, 10240, 7, [0, 1, 1] * 6826 + [0, 1]))  # the benchmark's scale, half deleted
def test_mask_pattern_builders_agree_with_their_position_references(inst):
    # the same pattern, and the same stream left behind: every draw kept its population length and k
    L, N, weight, seed, bits = inst
    builders = [(uniform_pattern, uniform_positions, (N,)),
                (blockwise_periodic_pattern, blockwise_positions, (N, L))]
    builders += [(delete_bit_pattern, delete_bit_positions, (Word(bits), bit)) for bit in (0, 1)]
    for build, reference, args in builders:
        fast, slow = random.Random(seed), random.Random(seed)
        assert build(*args, weight, fast) == reference(*args, weight, slow), build.__name__
        assert fast.getstate() == slow.getstate(), build.__name__


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
@given(st.integers(0, 40), st.data())
def test_deletion_pattern_sorts_any_order_and_refuses_repeats(length, data):
    positions = data.draw(st.lists(st.integers(1, max(length, 1)), max_size=2 * length))
    if len(set(positions)) < len(positions):
        with pytest.raises(ValueError, match=r"deleted index \d+ is repeated"):
            DeletionPattern(length, positions)
        positions = list(dict.fromkeys(positions))
    tau = DeletionPattern(length, positions)
    assert tau.deleted == tuple(sorted(positions))
    assert tau.weight == len(positions) and tau.word_length == length
    assert DeletionPattern(length, tau.deleted) == tau
    # the pattern of the same keep mask is equal in value and in hash
    from_mask = DeletionPattern.from_keep([pos not in positions for pos in range(1, length + 1)])
    assert tau == from_mask and hash(tau) == hash(from_mask)
    assert from_mask.deleted == tau.deleted and from_mask.weight == tau.weight


def test_deletion_pattern_unsorted_duplicates_and_range():
    assert DeletionPattern(6, (5, 2, 1)).deleted == (1, 2, 5)
    for twice, pos in (((5, 2, 5, 1, 2), 5), ([3, 3], 3)):
        with pytest.raises(ValueError, match=f"deleted index {pos} is repeated"):
            DeletionPattern(6, twice)
    for bad in ((0,), (7,), (3, 7, 7), (2, 0, 2)):
        with pytest.raises(ValueError, match=r"deleted indices must lie in \[1, 6\]"):
            DeletionPattern(6, bad)


@pytest.mark.parametrize("bits", [b"\x02", b"\xff", b"\x00\x01\x02", [0, 1, 2]])
def test_word_rejects_values_other_than_bits(bits):
    with pytest.raises(ValueError, match="0 or 1"):
        Word(bits)


@PROPS
@given(st.lists(st.integers(0, 1), max_size=64), st.data())
def test_masked_run_count_is_run_count_of_applied_pattern(bits, data):
    dead = data.draw(st.frozensets(st.integers(1, len(bits)))) if bits else frozenset()
    tau = DeletionPattern(len(bits), tuple(dead))
    assert masked_run_count(Word(bits), tau.keep) == len(apply_pattern(tau, bits).runs)
    other = data.draw(st.lists(st.integers(0, 1), min_size=len(bits), max_size=len(bits)))
    assert masked_run_count(other, tau.keep) == len(apply_pattern(tau, other).runs)


@PROPS
@given(st.lists(st.integers(0, 1), max_size=40), st.data())
def test_stacked_masked_run_count_rows_are_single_counts(bits, data):
    L = len(bits)
    rows = data.draw(st.lists(st.lists(st.booleans(), min_size=L, max_size=L), max_size=6))
    rows += [[False] * L, [True] * L]  # a row that deletes every bit and one that keeps every bit
    keep = np.array(rows, dtype=bool).reshape(len(rows), L)
    counts = masked_run_count(Word(bits), keep)
    assert counts.shape == (len(rows),)
    for row, count in zip(keep, counts.tolist()):
        kept = [b for b, k in zip(bits, row) if k]
        assert count == masked_run_count(Word(bits), row) == len([key for key, _ in groupby(kept)])
    assert masked_run_count(Word(bits), np.ones((0, L), dtype=bool)).shape == (0,)


def fresh_keep(tau: DeletionPattern) -> np.ndarray:
    """Reference mask: True at the 0-based positions ``tau`` keeps."""
    dead = set(tau.deleted)
    return np.array([pos not in dead for pos in range(1, tau.word_length + 1)], dtype=bool)


@PROPS
@given(st.lists(st.integers(0, 1), max_size=64), st.data())
def test_shared_keep_mask_is_a_read_only_fresh_mask(bits, data):
    dead = data.draw(st.frozensets(st.integers(1, len(bits)))) if bits else frozenset()
    for tau in (DeletionPattern(len(bits), tuple(dead)), bit_deletion_pattern(bits, 0)):
        keep = tau.keep
        assert keep is tau.keep  # built once, then shared
        assert keep.dtype == bool and np.array_equal(keep, fresh_keep(tau))
        assert not keep.flags.writeable
        if keep.size:
            with pytest.raises(ValueError):
                keep[0] = not keep[0]


def test_from_keep_copies_the_callers_mask():
    mine = np.array([True, False, True, False])
    tau = DeletionPattern.from_keep(mine)
    assert tau == DeletionPattern(4, (2, 4))
    mine[0] = False
    assert tau.keep.tolist() == [True, False, True, False]


def test_from_keep_reads_its_positions_off_the_mask_when_asked():
    tau = DeletionPattern.from_keep(np.array([False, True, True, False, True]))
    assert "deleted" not in vars(tau)  # applying the pattern needs only the mask
    assert apply_pattern(tau, "01100") == Word("110")
    assert tau.deleted == (1, 4) and tau.weight == 2
    assert tau == DeletionPattern(5, (1, 4)) and hash(tau) == hash(DeletionPattern(5, (1, 4)))
    assert repr(tau) == repr(DeletionPattern(5, (1, 4)))
    with pytest.raises(AttributeError):
        tau.missing


def test_pad_corruption_set_fills_with_smallest_unused_symbols():
    params = toy_params(4, 2, 3, Fraction(1, 2), 4)  # K = 4, lambda - 1 = 2
    assert pad_corruption_set(set(), params) == {1, 2}
    assert pad_corruption_set({1}, params) == {1, 2}
    assert pad_corruption_set({3}, params) == {1, 3}
    assert pad_corruption_set({2, 3, 4}, params) == {2, 3, 4}  # oversize sets pass through


@PROPS
@given(st.integers(1, 6), st.integers(1, 8), st.data())
def test_split_join_round_trip(n, L, data):
    deleted = data.draw(st.frozensets(st.integers(1, n * L)))
    tau = DeletionPattern(n * L, tuple(deleted))
    parts = split_pattern(tau, n, L)
    assert len(parts) == n and all(p.word_length == L for p in parts)
    # position j of tau is position j - iL of block i = (j-1)//L, counting blocks from 0
    by_block = [[j - (j - 1) // L * L for j in sorted(deleted) if (j - 1) // L == i] for i in range(n)]
    assert [list(p.deleted) for p in parts] == by_block
    assert sum(p.weight for p in parts) == tau.weight
    assert join_patterns(parts) == tau


def per_part_join(parts):
    """Reference ``join_patterns``: offset each part's positions by its block."""
    L = None
    deleted: list[int] = []
    for i, part in enumerate(parts):
        if L is None:
            L = part.word_length
        elif part.word_length != L:
            raise ValueError("all blocks must share one word_length")
        deleted += [d + i * L for d in part.deleted]
    return DeletionPattern((L or 0) * len(parts), tuple(deleted))


@PROPS
@given(st.integers(0, 5), st.integers(0, 8), st.data())
def test_join_patterns_agrees_with_per_part_join(n, L, data):
    parts = [DeletionPattern(L, tuple(data.draw(st.frozensets(st.integers(1, L))) if L else ()))
             for _ in range(n)]
    if parts and data.draw(st.booleans()):  # some parts share their mask
        parts[-1] = parts[0]
    joined = join_patterns(parts)
    assert joined == per_part_join(parts)
    assert np.array_equal(joined.keep, fresh_keep(joined)) and not joined.keep.flags.writeable


def test_join_patterns_refuses_mixed_lengths():
    for parts in ([DeletionPattern(3, (1,)), DeletionPattern(4, ())],
                  [DeletionPattern(0, ()), DeletionPattern(2, (2,))]):
        with pytest.raises(ValueError, match="share one word_length"):
            join_patterns(parts)
        with pytest.raises(ValueError, match="share one word_length"):
            per_part_join(parts)


@PROPS
@given(st.lists(st.lists(st.integers(0, 1), max_size=12), max_size=6))
@example([[0, 1], [1, 1, 0], [], [0], [0, 1]])  # merged boundaries around an empty part
@example([[], []])
def test_concatenate_runs_are_runs_of_the_joined_bits(parts):
    words = [Word(p) for p in parts]
    for w in words[::2]:
        w.runs  # some parts come with their runs already cached
    joined = concatenate(words)
    expected = Word(b"".join(w.bits for w in words))
    assert joined == expected
    assert joined.runs == expected.runs == tuple(len(list(g)) for _, g in groupby(expected.bits))


def reference_inner_words(params) -> list[Word]:
    """Reference g_1..g_K, each built afresh from its block width: R^(i-1) zeros, then
    as many ones, repeated over L bits."""
    widths = [params.R ** (i - 1) for i in range(1, params.K + 1)]
    return [Word((bytes(w) + bytes([1]) * w) * (params.L // (2 * w))) for w in widths]


def reference_corrupted(block: DeletionPattern, params, ref: list[Word]) -> set[int]:
    """The i whose reference codeword ``ref[i - 1]`` ``block`` fails to preserve, runs counted by ``groupby``."""
    dead = set(block.deleted)
    corrupted = set()
    for i, g in enumerate(ref, start=1):
        r = len([key for key, _ in groupby(b for pos, b in enumerate(g.bits, 1) if pos not in dead)])
        if r * r < 4 * params.R ** (2 * params.K + 1 - 2 * i):
            corrupted.add(i)
    return corrupted


@PROPS
@given(st.sampled_from([(2, 4), (3, 2), (2, 2)]), st.data())
def test_encode_outer_runs_are_recomputed_runs(KR, data):
    K, R = KR
    params = toy_params(K, R, 1, Fraction(1, 2), 4)
    ref = reference_inner_words(params)
    X = data.draw(st.lists(st.integers(1, K), max_size=6))
    word = encode_outer(X, params)
    assert word.bits == b"".join(ref[s - 1].bits for s in X)
    assert word.runs == Word(word.bits).runs


@PROPS
@given(st.sampled_from([(2, 16, 2), (3, 2, 2), (4, 4, 3)]), st.integers(0, 2**32 - 1))
def test_cached_inner_words_agree_with_reference_words(KRlam, seed):
    # the blocks mix random patterns of under L/2 deletions with the deletion
    # of every zero or every one of some g_i, so some corrupt a codeword
    K, R, lam = KRlam
    params = toy_params(K, R, lam, Fraction(1, 2), 4)
    ref = reference_inner_words(params)
    assert list(params.inner_words) == ref
    rng = random.Random(seed)
    choices = [bit_deletion_pattern(g, b) for g in ref for b in (0, 1)]
    blocks = [rng.choice(choices) if rng.random() < 0.4 else
              DeletionPattern(params.L, tuple(rng.sample(range(1, params.L + 1), rng.randrange(params.L // 2))))
              for _ in range(params.n)]
    corrupted = [reference_corrupted(block, params, ref) for block in blocks]
    for block, bad in zip(blocks, corrupted):
        assert {i for i in range(1, K + 1) if not preserves(block, i, params)} == bad
    expected = [pad_corruption_set(bad, params) for bad in corrupted]
    assert corruption_sets(params, np.stack([block.keep for block in blocks])) == expected
    tau = join_patterns(blocks)
    cap = admissible_weight_cap(params, lam - 1)
    kept = [idx for idx, block in enumerate(blocks, start=1) if block.weight <= cap][: params.delta_n]
    if len(kept) < params.delta_n:
        return
    sig = extract_signature(tau, params)
    assert list(sig.kept_indices) == kept
    assert list(sig.corruption_sets) == [expected[idx - 1] for idx in kept]


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


@PROPS
@given(st.integers(0, 1), st.integers(0, 1), st.data())
def test_is_subsequence_refuses_a_needle_with_more_runs_than_its_host(a_first, b_first, data):
    # a is shorter than b but has more runs, so no walk can embed it
    b_runs = data.draw(st.lists(st.integers(1, 40), min_size=1, max_size=12))
    a_runs = data.draw(st.lists(st.integers(1, 3), min_size=len(b_runs) + 1, max_size=len(b_runs) + 8))
    assume(sum(a_runs) < sum(b_runs))
    a, b = from_runs(a_first, a_runs), from_runs(b_first, b_runs)
    assert len(Word(a).runs) > len(Word(b).runs)
    assert is_subsequence(a, b) is bytewise_is_subsequence(a, b) is False


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


def table_lcs(a, b):
    """Reference: fill the whole suffix-LCS table, then walk it cell by cell.

    Same tie-break as ``lcs``: the smallest a-positions, then the smallest
    b-positions.
    """
    aa, bb = Word(a).bits, Word(b).bits
    m, n = len(aa), len(bb)
    # suffix[i][j] = LCS length of aa[i:], bb[j:]
    suffix = [[0] * (n + 1) for _ in range(m + 1)]
    for i in range(m - 1, -1, -1):
        row, below = suffix[i], suffix[i + 1]
        for j in range(n - 1, -1, -1):
            if aa[i] == bb[j]:
                row[j] = below[j + 1] + 1
            else:
                row[j] = max(below[j], row[j + 1])
    a_pos, b_pos = [], []
    i = j = 0
    need = suffix[0][0]
    while need > 0:
        for i2 in range(i, m):
            j2 = next((jj for jj in range(j, n)
                       if bb[jj] == aa[i2] and suffix[i2 + 1][jj + 1] >= need - 1), None)
            if j2 is not None:
                break
        a_pos.append(i2)
        b_pos.append(j2)
        i, j = i2 + 1, j2 + 1
        need -= 1
    return len(a_pos), bytes(aa[p] for p in a_pos), tuple(a_pos), tuple(b_pos)


lcs_words = st.lists(st.integers(0, 1), max_size=80)


@PROPS
@given(lcs_words, lcs_words)
@example([], [])
@example([], [1, 0])
@example([0, 1, 1], [])
@example([1, 0, 0, 1, 1, 0], [1, 0, 0, 1, 1, 0])  # a word against itself
@example([0] * 9, [1] * 7)
@example([0, 1, 0, 1], [1, 0, 1, 0])
def test_lcs_agrees_with_table_walk(a, b):
    res = lcs(a, b)
    assert (res.length, res.witness.bits, res.a_positions, res.b_positions) == table_lcs(a, b)


@PROPS
@given(lcs_words, lcs_words)
def test_lcs_length_agrees_with_lcs_table(a, b):
    assert lcs_length(a, b) == table_lcs(a, b)[0]


def lane_lcs_lengths(pairs) -> list[int]:
    """``lcs_lengths`` of the (a, b) pairs in one call: row 2k is a and row 2k + 1 is b of pair k."""
    rows = [row for pair in pairs for row in pair]
    return lcs_lengths(rows, range(0, len(rows), 2), range(1, len(rows), 2))


@PROPS
@given(st.lists(lcs_words, max_size=6), st.data())
def test_lcs_lengths_agrees_with_lcs_table(rows, data):
    # lanes pick their rows at random, so rows repeat and a row may be a or b
    index = st.integers(0, max(len(rows) - 1, 0))
    pairs = data.draw(st.lists(st.tuples(index, index), max_size=8)) if rows else []
    got = lcs_lengths(rows, [i for i, _ in pairs], [j for _, j in pairs])
    assert got == [table_lcs(rows[i], rows[j])[0] for i, j in pairs]


def run_word(rng: random.Random, n: int) -> list[int]:
    """n bits in runs of mostly 63 to 130 bits, so runs cross many byte boundaries of a lane."""
    bits, bit = [], rng.randrange(2)
    while len(bits) < n:
        bits += [bit] * rng.choice([1, 63, 64, 65, rng.randrange(1, 131)])
        bit ^= 1
    return bits[:n]


def test_lcs_lengths_at_lane_boundaries():
    # a lane is as wide as the longest row needs; 1^m against a leading 1
    # carries out of the lane's top a-position, which its spare bit must
    # take before the lane above sees it
    rng = random.Random(199)
    uniform = lambda n: [rng.randrange(2) for _ in range(n)]  # noqa: E731
    pairs = []
    for m in (0, 63, 64, 65, 127, 128, 129, 199):
        group = [([1] * m, [1]), ([1] * m, [1] * m), ([0] * m, [0] * (m // 2) + [1] * (m - m // 2))]
        for _ in range(10):
            group += [(uniform(m), uniform(m)), (run_word(rng, m), run_word(rng, m)),
                      (run_word(rng, m), uniform(rng.randrange(m + 1)))]
        assert lane_lcs_lengths(group) == [lcs_length(a, b) for a, b in group]
        pairs += group
    expected = [lcs_length(a, b) for a, b in pairs]
    assert lane_lcs_lengths(pairs) == expected
    assert [lane_lcs_lengths([pair])[0] for pair in pairs] == expected  # one lane per call
    assert lane_lcs_lengths([]) == []


# ---------------------------------------------------------------------------
# online layer, against references: the O(|C|^2) scans and the per-trial
# re-transmission loop

ONLINE_CFG = OnlineConfig(p=Fraction(1, 2), p0_adv=Fraction(2, 5))
# two pairs of codewords that share their whole suffix after an 8-bit wait
PAIRED_TOY = [Word("00000100" "10110010"), Word("00001000" "10110010"),
              Word("00000101" "01011101"), Word("00001001" "01011101")]


def scan_wait_length(x: Word, C) -> int:
    """Reference: one more than the longest prefix x shares with any other codeword."""
    others = [y for y in C if y != x]
    if not others:
        return 0
    return 1 + max(next((k for k, (u, v) in enumerate(zip(x.bits, y.bits)) if u != v), len(x))
                   for y in others)


def scan_build_pairs(C, cfg):
    """Reference pairing: the full ``lcs`` of every same-class pair, then the greedy pass."""
    n = len(C[0])
    profiles = {}
    for x in C:
        ell = scan_wait_length(x, C)
        r1 = sum(x.bits[:ell])
        profiles[x] = (ell, ell - r1, r1, 0 if ell - r1 >= r1 else 1)
    classes = {}
    for x in C:
        ell, r0, r1, b = profiles[x]
        classes.setdefault((ell, b, r0 if b == 0 else r1), []).append(x)
    pairs, unpaired = [], []
    for (ell, _, _), members in classes.items():
        if Fraction(ell, n) > 1 - cfg.p:
            unpaired.extend(members)
            continue
        threshold = (1 - Fraction(ell, n)) * (1 - cfg.p0_adv) * n
        scored = [(lcs(members[i][ell:], members[j][ell:]), i, j)
                  for i in range(len(members)) for j in range(i + 1, len(members))]
        scored = sorted((s for s in scored if s[0].length > threshold),
                        key=lambda s: (-s[0].length, s[1], s[2]))
        used = set()
        for res, i, j in scored:
            if not used & {i, j}:
                used |= {i, j}
                pairs.append((members[i], members[j], res.witness,
                              frozenset(ell + p for p in res.a_positions),
                              frozenset(ell + p for p in res.b_positions)))
        unpaired.extend(m for i, m in enumerate(members) if i not in used)
    return profiles, pairs, unpaired


class CandidateScanAdversary(OnlineAdversary):
    """Reference wait-push: the wait phase filters the whole candidate list on every bit."""

    def __init__(self, C, cfg, pairs, force_strategy=None, force_bit=None):
        self.C, self.cfg, self.pairs = list(C), cfg, pairs
        self.force_strategy, self.force_bit = force_strategy, force_bit

    def plan(self, x, rng):
        strategy = self.force_strategy or (1 if rng.random() < 0.5 else 2)
        bit = self.force_bit if self.force_bit is not None else rng.randrange(2)
        budget, dels, decisions = self.cfg.budget(len(x)), 0, []
        waiting, candidates, keep, paired = True, list(range(len(self.C))), None, False
        for i in range(len(x)):  # bit i's decision, from x[0..i] and what the earlier bits left
            if dels >= budget:
                delete = False
            elif strategy == 2:
                delete = i >= len(x) - budget
            elif waiting:
                delete = x[i] == 1 - bit
                candidates = [c for c in candidates if self.C[c][i] == x[i]]
                if len(candidates) <= 1:
                    waiting = False
                    if len(candidates) == 1:
                        believed = self.C[candidates[0]]
                        pair = next((p for p in self.pairs.pairs if believed in (p.x, p.y)), None)
                        if pair is not None and self.pairs.profiles[believed].b == bit:
                            keep, paired = pair.keep_for(believed), True
            else:
                delete = keep is not None and i not in keep
            dels += delete
            decisions.append(delete)
        return Plan(decisions, budget, paired)


def per_trial_rows(C, cfg, pairs, trials, master_seed, force_strategy=None, force_bit=None):
    """Reference simulation: each trial sends every other codeword through the channel again."""
    decoder = make_unique_decoder(C)
    rows = []
    for trial in range(trials):
        rng = rngmod.py_rng(master_seed, "online-trial", trial)
        idx = rng.randrange(len(C))
        draw_rng = rngmod.py_rng(master_seed, "online-draw", trial)
        strategy = force_strategy or (1 if draw_rng.random() < 0.5 else 2)
        bit = force_bit if force_bit is not None else draw_rng.randrange(2)
        sent = transmit(C[idx], CandidateScanAdversary(C, cfg, pairs, strategy, bit), rng)
        confused = any(
            transmit(y, CandidateScanAdversary(C, cfg, pairs, strategy, bit),
                     rngmod.py_rng(master_seed, "online-trial", trial)).output == sent.output
            for j, y in enumerate(C) if j != idx
        )
        rows.append((trial, idx, strategy, bit, sent.deletions, len(sent.output),
                     int(decoder(sent.output) == C[idx]), int(confused)))
    return rows


@st.composite
def codebooks(draw):
    """Distinct words of one length; most differ from a few centres only in
    their first bits, so they share suffixes and some of them pair up."""
    n = draw(st.integers(4, 14))
    head = draw(st.integers(2, n // 2))
    centres = draw(st.lists(st.integers(0, 2**n - 1), min_size=1, max_size=3))
    near = st.tuples(st.sampled_from(centres), st.integers(0, 2**head - 1))
    values = draw(st.lists(near.map(lambda cm: cm[0] ^ (cm[1] << (n - head))), max_size=10))
    values += draw(st.lists(st.integers(0, 2**n - 1), max_size=3))
    values = list(dict.fromkeys(values))
    if len(values) < 2:
        values = [0, 2**n - 1]
    return [Word(format(v, f"0{n}b")) for v in values]


@PROPS
@given(codebooks())
def test_wait_profiles_and_pairs_agree_with_scans(C):
    table = build_pairs(C, ONLINE_CFG)
    profiles, pairs, unpaired = scan_build_pairs(C, ONLINE_CFG)
    for x in C:
        prof = table.profiles[x]
        assert prof.wait_len == scan_wait_length(x, C)
        assert (prof.wait_len, prof.r0, prof.r1, prof.b) == profiles[x]
    assert [(p.x, p.y, p.s_star, p.x_keep, p.y_keep) for p in table.pairs] == pairs
    assert table.unpaired == unpaired
    for x in C:
        expected = next((p for p in table.pairs if x in (p.x, p.y)), None)
        assert table.partner_of(x) is expected


@pytest.mark.parametrize("seed, size, n", [
    pytest.param(0, 64, 20, id="0"),
    pytest.param(1, 64, 20, id="1"),
    pytest.param(2, 64, 20, id="2"),
    pytest.param(0, 64, 70, id="n70"),  # lanes wider than 64 bits; pairs with suffixes of 61 to 65 bits
    pytest.param(1, 256, 48, id="256x48"),  # the shape of perfbench's online-waitpush code
])
def test_pairs_agree_with_scan_on_uniform_codes(seed, size, n):
    # uniform words: classes with many competing candidate pairs
    rng = random.Random(seed)
    C = list(dict.fromkeys(Word([rng.randrange(2) for _ in range(n)]) for _ in range(size)))
    table = build_pairs(C, ONLINE_CFG)
    _, pairs, unpaired = scan_build_pairs(C, ONLINE_CFG)
    assert [(p.x, p.y, p.s_star, p.x_keep, p.y_keep) for p in table.pairs] == pairs
    assert table.unpaired == unpaired


# p = 1/5 and 1/3 run out of budget before the last wait bit of many codewords
WAIT_PUSH_CFGS = [ONLINE_CFG, OnlineConfig(p=Fraction(1, 5), p0_adv=Fraction(2, 5)),
                  OnlineConfig(p=Fraction(1, 3), p0_adv=Fraction(1, 4)),
                  OnlineConfig(p=Fraction(9, 10), p0_adv=Fraction(1, 10))]
# two pairs, like PAIRED_TOY, but each wait prefix holds three ones before its
# last bit: at p = 1/5, n = 16 the budget of 3 runs out there when the coin bit is 0
BUDGET_SHORT_TOY = [Word("01010100" "10110010"), Word("01011000" "10110010"),
                    Word("01010101" "01011101"), Word("01011001" "01011101")]


@PROPS
@given(codebooks(), st.sampled_from(WAIT_PUSH_CFGS), st.integers(0, 2**32 - 1))
@example(PAIRED_TOY, ONLINE_CFG, 0)
@example(PAIRED_TOY, WAIT_PUSH_CFGS[1], 0)
@example(BUDGET_SHORT_TOY, WAIT_PUSH_CFGS[1], 0)
def test_wait_push_agrees_with_candidate_scan(C, cfg, seed):
    table = build_pairs(C, cfg)
    rng = random.Random(seed)
    n = len(C[0])
    # random words, and words that follow a codeword past some prefix and then
    # go their own way: the adversary believes that codeword and pushes
    near = [c.bits[:k] + bytes(rng.randrange(2) for _ in range(n - k))
            for c in C for k in [rng.randrange(1, n + 1)]]
    inputs = C + [Word(w) for w in near] + [Word([rng.randrange(2) for _ in range(n)]) for _ in range(3)]
    for x in inputs:
        for force in [(None, None), (1, 0), (1, 1), (2, 0), (2, 1)]:
            new = WaitPushAdversary(table, *force)
            ref = CandidateScanAdversary(C, cfg, table, *force)
            assert (transmit(x, new, rngmod.py_rng(seed, "adv", 0))
                    == transmit(x, ref, rngmod.py_rng(seed, "adv", 0)))
            # the plans agree on the budget and the push flag too, which the
            # per-bit loop leaves behind
            assert new.plan(x, rngmod.py_rng(seed, "adv", 0)) == ref.plan(x, rngmod.py_rng(seed, "adv", 0))


def test_wait_push_gives_up_when_the_budget_ends_before_the_last_wait_bit():
    for C in (PAIRED_TOY, BUDGET_SHORT_TOY):
        for cfg in WAIT_PUSH_CFGS[:2]:
            table = build_pairs(C, cfg)
            assert len(table.pairs) == 2
            results = [transmit(x, WaitPushAdversary(table, 1, 0), rngmod.py_rng(0, "adv", 0))
                       for x in C]
            ref = [transmit(x, CandidateScanAdversary(C, cfg, table, 1, 0), rngmod.py_rng(0, "adv", 0))
                   for x in C]
            assert results == ref
            short = C is BUDGET_SHORT_TOY and cfg.p == Fraction(1, 5)
            assert [r.paired for r in results] == [not short] * 4
    # a word that follows a paired codeword past its wait prefix is pushed as that codeword
    x = Word(PAIRED_TOY[0].bits[:10] + bytes(6))
    res = transmit(x, WaitPushAdversary(build_pairs(PAIRED_TOY, ONLINE_CFG), 1, 0), rngmod.py_rng(0, "adv", 0))
    assert res.paired and res.decisions[:5] == (False,) * 5 and res.decisions[5]


@settings(deadline=None, derandomize=True, max_examples=60)
@given(codebooks(), st.sampled_from([(None, None), (1, None), (None, 0), (1, 0), (2, 1)]),
       st.integers(0, 2**16))
@example(PAIRED_TOY, (None, None), 3)
@example(PAIRED_TOY, (1, 0), 3)
def test_simulate_online_agrees_with_per_trial_loop(C, force, master_seed):
    table = build_pairs(C, ONLINE_CFG)
    rep = simulate_online(C, ONLINE_CFG, make_unique_decoder(C), trials=25,
                          master_seed=master_seed,
                          force_strategy=force[0], force_bit=force[1])
    ref = replace(rep, rows=per_trial_rows(C, ONLINE_CFG, table, 25, master_seed, *force))
    assert rep.csv_text() == ref.csv_text()


# ---------------------------------------------------------------------------
# oracles, against references: the Fraction-valued geometric bounds and the
# per-codeword bit-flip loop


def fraction_geom_bounds(Ks, lams, expect):
    """Reference ``verify_geom_bounds``: every check on ``Fraction`` values from ``expect``."""
    report = oracles.OracleReport(name="geometric-bounds", mode=f"K in {tuple(Ks)}")
    for K in Ks:
        R = 4 * K**4
        cap = oracles.exact_sqrt(R)
        quarter_log = Fraction(K.bit_length() - 1, 4)
        prefix = [Fraction(0)]
        for j in range(1, K + 1):
            prefix.append(prefix[-1] + expect(j, K, cap))
        for j in range(1, K + 1):
            report.instances += 1
            val = expect(j, K, cap - 1)
            if not val > Fraction(K, 2 * j) - 1:
                report.record_violation({"K": K, "j": j, "value": val})
        for lam in lams:
            report.instances += 1
            if not (lam - 1 + prefix[K] - prefix[lam - 1]) / K >= quarter_log:
                report.record_violation({"K": K, "lam": lam, "which": "uniform-on-[K]"})
            for lam_prime in range(lam, K + 1):
                report.instances += 1
                if not (prefix[lam_prime] - prefix[lam - 1]) / (lam_prime - lam + 1) >= quarter_log:
                    report.record_violation(
                        {"K": K, "lam": lam, "lam_prime": lam_prime, "which": "uniform-window"})
            spot = min(lam + 3, K)
            if (prefix[spot] - prefix[lam - 1]) / (spot - lam + 1) != geom2_expectation(K, R, lam, spot):
                report.record_violation(
                    {"K": K, "lam": lam, "lam_prime": spot, "which": "prefix-sum-sweep"})
    return report


# (K, lams, cap or None for sqrt(R), violated checks).  A patched small cap
# breaks the j-check (and the sweep, whose reference keeps the true cap);
# large lam breaks the averaged forms; K = 16, lam = 16 meets both at equality.
GEOM_CASES = [
    (16, (1, 2), None, set()),
    (32, (1, 2), None, set()),
    (16, (16,), None, set()),
    (32, (20,), None, {"uniform-on-[K]"}),
    (32, (22,), None, {"uniform-on-[K]", "uniform-window"}),
    (16, (1, 2), 2, {"j", "prefix-sum-sweep"}),
    (32, (1, 2), 8, {"j", "prefix-sum-sweep"}),
    (32, (2, 26), 20, {"j", "prefix-sum-sweep", "uniform-on-[K]", "uniform-window"}),
]


@pytest.mark.parametrize("K, lams, cap, violated", GEOM_CASES)
def test_integer_geom_bounds_agree_with_fractions(monkeypatch, K, lams, cap, violated):
    monkeypatch.setattr(oracles, "MAX_WITNESSES", 10**6)
    if cap is not None:
        monkeypatch.setattr(oracles, "exact_sqrt", lambda R: cap)
    rep = oracles.verify_geom_bounds(Ks=(K,), lams=lams)
    refs = [fraction_geom_bounds((K,), lams, oracles.geom_expectation)]
    if cap is not None:  # direct mass summation is cheap at a small cap
        refs.append(fraction_geom_bounds((K,), lams, geom_mass_expectation))
    for ref in refs:
        assert (rep.instances, rep.violations, rep.witnesses) == \
            (ref.instances, ref.violations, ref.witnesses)
    assert {w.get("which", "j") for w in rep.witnesses} == violated


def loop_bitflip_demo(n, rate, p, seeds, vectors, master_seed):
    """Reference ``oblivious_bitflip_demo``: one popcount per (vector, codeword, rival)."""
    pn = round(p * n)
    M = 2 ** round(rate * n)
    group_size, n_groups = n, M // n
    eps = 1 / math.log2(n)
    vec_gen = rngmod.py_rng(master_seed, "bitflip-vectors")
    error_vectors = []
    for _ in range(vectors):
        e = 0
        for pos in vec_gen.sample(range(n), pn):
            e |= 1 << pos
        error_vectors.append(e)
    passing, worst = 0, 0.0
    for seed_idx in range(seeds):
        gen = rngmod.py_rng(master_seed, "bitflip-code", seed_idx)
        codewords = [gen.getrandbits(n) for _ in range(M)]
        groups = [codewords[g * group_size:(g + 1) * group_size] for g in range(n_groups)]
        grouped = set().union(*groups)
        seed_ok = True
        for e in error_vectors:
            for g in groups:
                own = set(g)
                others = [c for c in grouped if c not in own]
                bad = sum(any(((c ^ e) ^ c2).bit_count() <= pn for c2 in others) for c in g)
                frac = bad / len(g)
                worst = max(worst, frac)
                if frac > eps:
                    seed_ok = False
        passing += seed_ok
    return passing, worst


@settings(deadline=None, derandomize=True, max_examples=60)
@given(st.integers(6, 16), st.sampled_from([0.25, 0.3, 0.5, 0.75]),
       st.sampled_from([0.0, 0.02, 0.05, 0.1]), st.integers(1, 3), st.integers(0, 4),
       st.integers(0, 2**16))
@example(12, 0.5, 0.1, 4, 5, 0)  # 5 groups of 12 from 2^12 values: duplicates are common
@example(8, 0.75, 0.0, 4, 3, 1)  # 8 groups of 8 from 2^8 values, rivals at distance 0
def test_vectorized_bitflip_demo_agrees_with_loop(n, rate, p, seeds, vectors, master_seed):
    M = 2 ** round(rate * n)
    assume(rate < 1 - oracles.binary_entropy(p) and M // n >= 2 and M <= 256)
    rep = oracles.oblivious_bitflip_demo(n=n, rate=rate, p=p, seeds=seeds, vectors=vectors,
                                         master_seed=master_seed)
    passing, worst = loop_bitflip_demo(n, rate, p, seeds, vectors, master_seed)
    assert (rep.extras["passing_seeds"], rep.extras["worst_fraction"]) == (passing, worst)
    assert rep.instances == seeds


def lowest_keys(keys, w) -> list[int]:
    """The 0-based positions of the w lowest keys, ties to the lower position."""
    return sorted(range(len(keys)), key=lambda pos: (keys[pos], pos))[:w]


class TiedKeys:
    """A generator stand-in whose keys come from {0, 1, 2}, so that most rows tie."""

    def __init__(self, seed):
        self.gen = np.random.default_rng(seed)

    def integers(self, low, high, size):
        return self.gen.integers(0, 3, size=size)


@PROPS
@given(st.integers(1, 70), st.data(), st.integers(0, 2**32 - 1), st.booleans())
def test_uniform_keep_masks_delete_their_lowest_keys(L, data, seed, ties):
    # every row deletes exactly its weight, w = 0 and w = L included, and the
    # rows are those of ranking each row's keys, whatever KEY_BLOCK is
    weights = np.array([0, L] + data.draw(st.lists(st.integers(0, L), max_size=40)))
    gen, keys_gen = (TiedKeys(seed), TiedKeys(seed)) if ties else (
        np.random.default_rng(seed), np.random.default_rng(seed))
    block = data.draw(st.sampled_from([1, 7, 64, rngmod.KEY_BLOCK]))
    with patch.object(rngmod, "KEY_BLOCK", block):
        keep = rngmod.uniform_keep_masks(gen, L, weights)
    keys = keys_gen.integers(0, 1 << 62, size=(len(weights), L)).tolist()
    assert keep.shape == (len(weights), L)
    assert (np.count_nonzero(~keep, axis=1) == weights).all()
    for kept, w, row_keys in zip(keep.tolist(), weights.tolist(), keys):
        dead = set(lowest_keys(row_keys, w))
        assert kept == [pos not in dead for pos in range(L)]


def test_uniform_keep_masks_draw_every_subset_alike():
    # L = 5, w = 2: each of the 10 subsets within 5 standard errors of 2,000 in 20,000 draws
    keep = rngmod.uniform_keep_masks(np.random.default_rng(2027), 5, np.full(20_000, 2))
    subsets, counts = np.unique(~keep, axis=0, return_counts=True)
    assert len(subsets) == 10 and (subsets.sum(axis=1) == 2).all()
    assert (abs(counts - 2000) <= 5 * math.sqrt(20_000 * 0.1 * 0.9)).all()


def loop_matching_implication(params, instances, master_seed):
    """Reference ``verify_matching_implication``: each chunk draws its documented
    arrays in order, ranks keys in pure Python, and each instance builds its
    patterns, words and run counts afresh, from bytes, and embeds bit by bit."""
    ref = reference_inner_words(params)
    dn, n, K, L = params.delta_n, params.n, params.K, params.L
    s, t = 2**params.lam, oracles.exact_sqrt(params.R)
    cap = oracles.admissible_weight_cap(params, params.lam - 1)
    zeros = [tuple(pos for pos, b in enumerate(g.bits, 1) if b == 0) for g in ref]
    admissible = [i for i in range(1, K + 1) if len(zeros[i - 1]) <= cap]

    def preserved(block, i):
        dead = set(block.deleted)
        kept = [b for pos, b in enumerate(ref[i - 1].bits, 1) if pos not in dead]
        r = len([key for key, _ in groupby(kept)])
        return r * r >= 4 * params.R ** (2 * K + 1 - 2 * i)

    report = oracles.OracleReport(name="matching-implication", mode=f"instances={instances}")
    positives = 0
    for chunk, lo in enumerate(range(0, instances, oracles.IMPLICATION_CHUNK)):
        count = min(oracles.IMPLICATION_CHUNK, instances - lo)
        gen = rngmod.np_rng(master_seed, "matching-implication", chunk)
        Xs = gen.integers(1, K + 1, size=(count, dn)).tolist()
        styles = gen.integers(0, 3, size=count).tolist()
        uniform = gen.integers(1, K + 1, size=(count, n)).tolist()
        low = gen.integers(1, max(2, K), size=(count, n)).tolist()
        embeddings = iter(gen.integers(0, 1 << 62, size=(styles.count(1), n)).tolist())
        kinds = [[kind if cap > 0 else 0 for kind in row]
                 for row in gen.integers(0, 4, size=(count, dn)).tolist()]
        flat = [kind for row in kinds for kind in row]
        picks = iter(gen.integers(0, len(admissible), size=flat.count(2)).tolist() if admissible else [])
        weights = iter(gen.integers(1, cap + 1, size=flat.count(1)).tolist())
        keys = iter(gen.integers(0, 1 << 62, size=(flat.count(1) + flat.count(3), L)).tolist())
        for X, style, u, l, row in zip(Xs, styles, uniform, low, kinds):
            Y = list(l if style == 2 else u)
            if style == 1:
                for pos, sym in zip(sorted(lowest_keys(next(embeddings), dn)), X):
                    Y[pos] = sym
            X, Y = tuple(X), tuple(Y)
            blocks = []
            for kind in row:
                if kind == 0 or (kind == 2 and not admissible):
                    blocks.append(DeletionPattern(L, ()))
                elif kind == 2:
                    blocks.append(DeletionPattern(L, zeros[admissible[next(picks)] - 1]))
                else:
                    w = next(weights) if kind == 1 else cap
                    blocks.append(DeletionPattern(L, tuple(pos + 1 for pos in lowest_keys(next(keys), w))))
            sets = [pad_corruption_set({j for j in range(1, K + 1) if not preserved(b, j)}, params)
                    for b in blocks]
            dead = {k * L + d for k, b in enumerate(blocks) for d in b.deleted}
            psi_x = b"".join(ref[sym - 1].bits for sym in X)
            corrupted = bytes(b for pos, b in enumerate(psi_x, 1) if pos not in dead)
            report.instances += 1
            if not bytewise_is_subsequence(corrupted, b"".join(ref[sym - 1].bits for sym in Y)):
                continue
            positives += 1
            if not oracles.is_matchable(X, Y, MatchConfig(s=s, t=t, sets=tuple(sets))):
                report.record_violation({"X": X, "Y": Y, "blocks": [b.deleted for b in blocks]})
    report.extras["positives"] = positives
    return report


# The verify-all parameters (kind-2 blocks delete all zeros of a codeword);
# K = 4, where random blocks corrupt g_1 and the sets come from 4 symbols, and
# no g_i's zeros fit in the cap; and lambda = 1, whose cap 0 admits no deletion.
IMPLICATION_PARAMS = [toy_params(2, 16, 2, Fraction(1, 2), 8), toy_params(4, 4, 3, Fraction(1, 2), 8),
                      toy_params(4, 4, 1, Fraction(1, 2), 8)]
IMPLICATION_IDS = ["K2", "K4", "K4cap0"]


@pytest.mark.parametrize("params", IMPLICATION_PARAMS, ids=IMPLICATION_IDS)
@pytest.mark.parametrize("master_seed", [0, 7, 2026])
def test_matching_implication_agrees_with_per_instance_loop(params, master_seed):
    rep = oracles.verify_matching_implication(params, instances=150, master_seed=master_seed)
    assert rep.to_json() == loop_matching_implication(params, 150, master_seed).to_json()


@pytest.mark.parametrize("params", IMPLICATION_PARAMS, ids=IMPLICATION_IDS)
def test_planted_implication_violations_keep_their_witness_order(monkeypatch, params):
    # a matcher that fails by X and the corruption sets pins which instances,
    # in which order, become witnesses
    monkeypatch.setattr(oracles, "is_matchable",
                        lambda X, Y, cfg: (sum(X) + sum(map(sum, cfg.sets))) % 3 != 0)
    rep = oracles.verify_matching_implication(params, instances=80, master_seed=5)
    assert rep.violations > len(rep.witnesses) == oracles.MAX_WITNESSES
    assert rep.to_json() == loop_matching_implication(params, 80, master_seed=5).to_json()


@PROPS
@given(st.sampled_from([(2, 16), (3, 2)]), st.floats(0, 1), st.integers(0, 2**32 - 1))
def test_corruption_count_is_the_count_of_codewords_not_preserved(KR, density, seed):
    K, R = KR
    params = toy_params(K, R, 2, Fraction(1, 2), 4)
    keep = np.random.default_rng(seed).random(params.L) < density
    sigma = DeletionPattern.from_keep(keep)
    expected = sum(not preserves(sigma, i, params) for i in range(1, K + 1))
    assert np.count_nonzero(construction.corrupted_flags(params, keep)) == expected


@PROPS
@given(st.integers(1, 2**40), st.integers(1, 10**6).map(lambda r: 2 * r), st.integers(0, 12))
@example(16, 2, 0)  # an irrational 1/sqrt(R)
@example(32, 4, 1)  # L = 32: the 1-admissible cap is 8
@example(8, 2, 0)  # no weight is admissible
def test_weight_cap_is_the_largest_weight_within_the_bound(L, R, ell):
    params = replace(toy_params(2, 2, 1, Fraction(1, 2), 4), L=L, R=R)
    cap = admissible_weight_cap(params, ell)
    # the bound only tightens as the weight grows, so one step each side decides the largest
    assert cap == -1 or weight_within_bound(cap, L, ell + 1, R)
    assert not weight_within_bound(cap + 1, L, ell + 1, R)


def loop_corruption_cost(params, mode, samples=0, master_seed=0, preserved=None,
                         within=weight_within_bound):
    """Reference ``verify_corruption_cost``: one mask at a time, kept runs counted with
    ``groupby`` and the bound checked with ``weight_within_bound``."""
    K, R, L = params.K, params.R, params.L
    if preserved is None:
        def preserved(r, i):
            return r * r >= 4 * R ** (2 * K + 1 - 2 * i)
    ref = reference_inner_words(params)
    report = oracles.OracleReport(name="corruption-cost", mode=mode)
    report.extras["params"] = (K, R, L, params.lam)

    def check(kept, label):
        report.instances += 1
        weight = L - sum(kept)
        corrupted = 0
        for i, g in enumerate(ref, start=1):
            runs = len([key for key, _ in groupby(b for b, k in zip(g.bits, kept) if k)])
            corrupted += not preserved(runs, i)
        if corrupted and within(weight, L, corrupted, R):
            report.record_violation({"pattern": label, "weight": weight, "corrupted": corrupted})

    if mode == "exhaustive":
        for mask in range(2**L):
            check([(mask >> i) & 1 == 0 for i in range(L)], f"mask={mask:#x}")
    else:
        # per stack: the weights, then L keys per mask
        gen = rngmod.np_rng(master_seed, "corruption-cost")
        max_useful = min(L, math.ceil(L * (1 - 0.5**K)) + 2)
        stack = max(1, oracles.MASK_CHUNK_BITS // L)
        for lo in range(0, samples, stack):
            weights = gen.integers(0, max_useful + 1, size=min(stack, samples - lo)).tolist()
            keys = gen.integers(0, 1 << 62, size=(len(weights), L)).tolist()
            for row, (w, row_keys) in enumerate(zip(weights, keys)):
                dead = set(lowest_keys(row_keys, w))
                check([pos not in dead for pos in range(L)], f"sample-{lo + row}")
        for label, pat in oracles.structured_inner_patterns(params):
            check(pat.keep.tolist(), label)
    return report


@pytest.mark.parametrize("master_seed", [0, 9, 2024])
@pytest.mark.parametrize("KR", [(2, 16), (3, 2)], ids=["K2R16", "K3R2"])
def test_sampled_corruption_cost_agrees_with_per_mask_loop(KR, master_seed):
    params = toy_params(*KR, 2, Fraction(1, 2), 4)
    rep = oracles.verify_corruption_cost(params, samples=600, master_seed=master_seed)
    assert rep.to_json() == loop_corruption_cost(params, "sampled", 600, master_seed).to_json()


def test_exhaustive_corruption_cost_agrees_with_per_mask_loop():
    params = toy_params(2, 2, 1, Fraction(1, 2), 4)  # L = 8
    rep = oracles.verify_corruption_cost(params)
    assert rep.to_json() == loop_corruption_cost(params, "exhaustive").to_json()


@pytest.mark.parametrize("mode", ["exhaustive", "sampled"])
def test_planted_corruption_violations_keep_their_labels_and_order(monkeypatch, mode):
    # a preservation rule that fails often and stacks of a few masks pin which
    # masks become witnesses across stack boundaries, and how they are named
    def planted(r, i):
        return (r + i) % 3 != 0

    monkeypatch.setattr(construction, "preserves_runs", lambda r, i, params: planted(r, i))
    monkeypatch.setattr(oracles, "MASK_CHUNK_BITS", 100)
    if mode == "exhaustive":
        # at L = 8 the bound admits only the empty pattern, so a looser one is planted too
        monkeypatch.setattr(oracles, "admissible_weight_cap", lambda params, ell: ell + 2)
        params = toy_params(2, 2, 2, Fraction(1, 2), 4)

        def within(weight, L, c, R):
            return weight <= c + 1
    else:
        params, within = toy_params(2, 16, 2, Fraction(1, 2), 4), weight_within_bound
    rep = oracles.verify_corruption_cost(params, None if mode == "exhaustive" else 300, master_seed=3)
    assert rep.violations > len(rep.witnesses) == oracles.MAX_WITNESSES
    reference = loop_corruption_cost(params, mode, 300, 3, preserved=planted, within=within)
    assert rep.to_json() == reference.to_json()


@st.composite
def toy_grid_points(draw):
    """Toy (K, R, n) with K from 2 to 8, R even and L = 2 R^K at most 2^12."""
    K = draw(st.integers(2, 8))
    R = draw(st.sampled_from([R for R in range(2, 46, 2) if 2 * R**K <= 1 << 12]))
    return K, R, 4 * draw(st.integers(1, 10))


@PROPS
@given(toy_grid_points(), st.none() | st.floats(0.5, 1e6))
def test_beta_readers_give_the_float_expressions_bit_for_bit(point, target_size):
    K, R, n = point
    params = toy_params(K, R, 1, Fraction(1, 2), n)
    beta = matchability_exponent(params)
    assert type(beta) is (Fraction if K & (K - 1) == 0 else float)
    assert float(beta) == float_beta(K, R)
    assert filter_threshold(params) == float_filter_threshold(K, R, n)
    assert outer_code_size(params) == float_formula_target_size(K, R, n)
    expected_size = float_formula_target_size(K, R, n) if target_size is None else target_size
    report = oblivious_experiment(params, [(1,) * n], [], [0], target_size=target_size, use_filter=False)
    assert (report.config["plan_beta"], report.config["plan_target_size"]) == (float_beta(K, R), expected_size)
    info = rate_info(params)
    if isinstance(beta, Fraction):
        assert info["beta"] == beta and info["rate"] == beta / 4 / params.L
    else:
        assert 2 ** info["log2_beta"] == pytest.approx(beta, rel=1e-12)
        assert 2 ** info["log2_rate"] == pytest.approx(beta / 4 / params.L, rel=1e-12)
