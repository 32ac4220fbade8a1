import random
from itertools import accumulate

import pytest

from deletion_lab.reporting import read_lines
from deletion_lab.words import (
    DeletionPattern,
    Word,
    apply_pattern,
    enumerate_patterns,
    first_repeat,
    is_subsequence,
    lcs,
    parse_positions,
    read_codebook,
    write_codebook,
)

from helpers import join_patterns, lcs_length, split_pattern


def runs_with_symbols(w: Word) -> list[tuple[int, int, int]]:
    """(symbol, 1-based start, length) of each run of ``w``, read off ``Word.runs``."""
    starts = accumulate(w.runs, initial=1)
    return [(w.bits[0] ^ (k & 1), start, length) for k, (start, length) in enumerate(zip(starts, w.runs))]


def test_run_decompose_examples():
    assert runs_with_symbols(Word("110001")) == [(1, 1, 2), (0, 3, 3), (1, 6, 1)]
    assert Word("").runs == ()
    assert runs_with_symbols(Word("0011")) == [(0, 1, 2), (1, 3, 2)]


def test_run_decompose_partitions_word():
    r = random.Random(0)
    for _ in range(200):
        w = Word([r.randrange(2) for _ in range(r.randrange(0, 12))])
        runs = runs_with_symbols(w)
        rebuilt = Word(b"".join(bytes([sym]) * length for sym, _, length in runs))
        assert rebuilt == w


def test_apply_pattern_examples():
    assert apply_pattern(DeletionPattern(4, (1, 3)), "0110") == Word("10")
    assert apply_pattern(DeletionPattern(4, ()), "1011") == Word("1011")
    assert apply_pattern(DeletionPattern(4, (1, 2, 3, 4)), "0110") == Word("")


def test_apply_pattern_length_law():
    r = random.Random(1)
    for _ in range(200):
        n = r.randrange(1, 14)
        w = Word([r.randrange(2) for _ in range(n)])
        k = r.randrange(0, n + 1)
        tau = DeletionPattern(n, tuple(r.sample(range(1, n + 1), k)))
        assert len(apply_pattern(tau, w)) == n - tau.weight


def test_apply_pattern_rejects_length_mismatch():
    with pytest.raises(ValueError):
        apply_pattern(DeletionPattern(3, (1,)), "0110")


def test_pattern_validation():
    with pytest.raises(ValueError):
        DeletionPattern(3, (0,))
    with pytest.raises(ValueError):
        DeletionPattern(3, (4,))
    assert DeletionPattern(3, (2, 1)).deleted == (1, 2)
    with pytest.raises(ValueError, match="deleted index 2 is repeated"):
        DeletionPattern(3, (2, 1, 2))


def test_is_subsequence_examples():
    assert is_subsequence("", "10")
    assert is_subsequence("01", "0011")
    assert not is_subsequence("01", "1100")


def test_subsequence_matches_exhaustive_enumeration():
    # greedy testing must agree with "exists a deletion pattern" exactly
    r = random.Random(2)
    for _ in range(100):
        nb = r.randrange(0, 9)
        b = Word([r.randrange(2) for _ in range(nb)])
        a = Word([r.randrange(2) for _ in range(r.randrange(0, nb + 1))])
        subseqs = {
            apply_pattern(tau, b).bits
            for k in range(nb + 1)
            for tau in enumerate_patterns(nb, k)
        }
        assert is_subsequence(a, b) == (a.bits in subseqs)


def test_lcs_examples():
    assert lcs("00", "11").length == 0
    r = random.Random(3)
    for _ in range(50):
        w = Word([r.randrange(2) for _ in range(r.randrange(0, 10))])
        assert lcs(w, w).length == len(w)
    res = lcs("0101", "1010")
    assert res.length == 3
    assert res.witness == Word("010")
    assert res.a_positions == (0, 1, 2) and res.b_positions == (1, 2, 3)


def test_lcs_brute_force_cross_check():
    def brute(a: Word, b: Word) -> int:
        best = 0
        for k in range(len(a) + 1):
            for tau in enumerate_patterns(len(a), k):
                if is_subsequence(apply_pattern(tau, a), b):
                    best = max(best, len(a) - k)
                    break
        return best

    r = random.Random(4)
    for _ in range(100):
        a = Word([r.randrange(2) for _ in range(r.randrange(0, 8))])
        b = Word([r.randrange(2) for _ in range(r.randrange(0, 8))])
        res = lcs(a, b)
        assert res.length == brute(a, b)
        assert res.length == lcs(b, a).length
        assert res.length <= min(len(a), len(b))
        # the witness really embeds in both, at the reported positions
        assert bytes(a.bits[i] for i in res.a_positions) == res.witness.bits
        assert bytes(b.bits[j] for j in res.b_positions) == res.witness.bits


def test_subsequence_iff_full_length_lcs():
    r = random.Random(5)
    for _ in range(200):
        a = Word([r.randrange(2) for _ in range(r.randrange(0, 7))])
        b = Word([r.randrange(2) for _ in range(r.randrange(0, 9))])
        assert is_subsequence(a, b) == (lcs_length(a, b) == len(a))


def test_single_run_deletion_drops_at_most_two_runs():
    # exhaustive over all words of length <= 10
    for n in range(1, 11):
        for v in range(2**n):
            w = Word(format(v, f"0{n}b"))
            before = len(w.runs)
            for _, start, length in runs_with_symbols(w):
                tau = DeletionPattern(n, tuple(range(start, start + length)))
                after = len(apply_pattern(tau, w).runs)
                assert before - after <= 2


def test_split_pattern_examples():
    assert [p.deleted for p in split_pattern(DeletionPattern(8, (1, 5)), 2, 4)] == [
        (1,),
        (1,),
    ]
    assert [p.deleted for p in split_pattern(DeletionPattern(6, ()), 3, 2)] == [
        (),
        (),
        (),
    ]
    assert [p.deleted for p in split_pattern(DeletionPattern(4, (2, 3, 4)), 2, 2)] == [
        (2,),
        (1, 2),
    ]
    with pytest.raises(ValueError):
        split_pattern(DeletionPattern(8, ()), 3, 4)


def test_split_join_roundtrip():
    r = random.Random(6)
    for _ in range(100):
        n, L = r.randrange(1, 5), r.randrange(1, 6)
        k = r.randrange(0, n * L + 1)
        tau = DeletionPattern(n * L, tuple(r.sample(range(1, n * L + 1), k)))
        assert join_patterns(split_pattern(tau, n, L)) == tau


def test_enumerate_patterns():
    assert [p.deleted for p in enumerate_patterns(3, 1)] == [(1,), (2,), (3,)]
    assert [p.deleted for p in enumerate_patterns(2, 0)] == [()]
    pats = [p.deleted for p in enumerate_patterns(4, 2)]
    assert len(pats) == 6 and pats[0] == (1, 2) and pats[-1] == (3, 4)
    with pytest.raises(ValueError):
        list(enumerate_patterns(2, 3))


def test_codebook_roundtrip(tmp_path):
    path = tmp_path / "code.txt"
    words = [Word("0101"), Word("1100")]
    write_codebook(path, words)
    assert read_codebook(path) == words
    path.write_text("# two words\n0101\n# and a comment\n1100\n")
    assert read_codebook(path) == words
    path.write_text("# comment\n0101\n110\n")
    with pytest.raises(ValueError):
        read_codebook(path)
    path.write_text("01a1\n")
    with pytest.raises(ValueError):
        read_codebook(path)


def test_word_basics():
    w = Word("0110")
    assert w.to01() == "0110" and len(w) == 4 and w[1] == 1
    assert (w + Word("1")).to01() == "01101"
    assert (Word("01") * 2) == Word("0101")
    with pytest.raises(ValueError):
        Word("012")


def test_read_lines_splits_where_text_mode_does(tmp_path):
    path = tmp_path / "lines.txt"
    path.write_bytes(b"01\r10\r\n# note\n\n 11 \r\x0c0\n")  # a form feed ends no line
    with open(path, encoding="ascii") as fh:
        stripped = [line.strip() for line in fh]
    expected = {k: line for k, line in enumerate(stripped, start=1) if line and not line.startswith("#")}
    assert read_lines(path, str) == expected == {1: "01", 2: "10", 5: "11", 6: "0"}


def test_first_repeat_is_the_first_repeated_item_by_first_appearance():
    assert first_repeat([1, 2, 2, 1]) == 1
    assert first_repeat([3, 1, 2, 1, 3, 3]) == 3
    assert first_repeat("abc") is None and first_repeat([]) is None


def test_brief_cuts_a_word_as_repr_does():
    head = "01" * 18 + "0"  # the first 37 bits of a long word
    for w, text in [(Word("0011"), "0011"), (Word("01" * 20), "01" * 20),
                    (Word("01" * 25), f"{head}..., len=50")]:
        assert w.brief() == text
    assert repr(Word("0011")) == "Word('0011')"
    assert repr(Word("01" * 25)) == f"Word({head!r}..., len=50)"


def test_parse_positions_skips_empty_items_and_refuses_other_text():
    assert parse_positions("") == () and parse_positions("3,,1,") == (3, 1)
    with pytest.raises(ValueError):
        parse_positions("1,a")
