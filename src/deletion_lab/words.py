"""Binary words, runs, deletion patterns, and subsequence/LCS primitives.

Everything here is pure and immutable; positions in deletion patterns are
1-based (set-of-deleted-indices convention), Python-level indexing of word
bits is 0-based.
"""

from __future__ import annotations

import re
from collections import Counter
from functools import cached_property
from itertools import combinations, islice
from operator import length_hint
from typing import Hashable, Iterable, Iterator, NamedTuple, Sequence, Union

import numpy as np

from .reporting import atomic_write_text, read_lines

WordLike = Union["Word", str, bytes, Sequence[int]]

MIN_STRETCH = 96  # fewest width-1 host runs that ``is_subsequence`` crosses in one jump (measured break-even: ~80)

_ASCII01 = bytes.maketrans(b"\x00\x01", b"01")
_FROM_ASCII01 = bytes.maketrans(b"01", b"\x00\x01")
# over one flag byte per run, 1 where the run has width 1: a first or last stretch of any length,
# or one of at least MIN_STRETCH; a match begins where its stretch does, so each is maximal
_WIDTH1_STRETCH = re.compile(rb"\A\x01+|\x01{%d,}|\x01+\Z" % MIN_STRETCH)


def first_repeat(items: Iterable[Hashable]) -> Hashable | None:
    """The first item, in order of first appearance, that ``items`` holds more than once, or None."""
    return next((item for item, count in Counter(items).items() if count > 1), None)


def parse_positions(text: str) -> tuple[int, ...]:
    """The 1-based positions of comma-separated ``text``, in order; empty items are skipped."""
    return tuple(int(tok) for tok in text.split(",") if tok)


class Word:
    """An immutable binary word. Bits are stored one byte per bit (0/1)."""

    __slots__ = ("_bits", "_runs", "_parts", "_width1", "_stretches")

    def __init__(self, bits: WordLike = b""):
        self._runs = self._width1 = self._stretches = None
        self._parts = None  # set by ``concatenate``: the nonempty words whose runs make this one's
        if isinstance(bits, Word):
            self._bits = bits._bits
            self._runs = bits._runs
            self._parts = bits._parts
            self._width1 = bits._width1
            self._stretches = bits._stretches
        elif isinstance(bits, str):
            if bits and set(bits) - {"0", "1"}:
                raise ValueError(f"word text must be over 0/1, got {bits!r}")
            self._bits = bits.encode("ascii").translate(_FROM_ASCII01)
        else:
            vals = bits if isinstance(bits, bytes) else bytes(int(b) for b in bits)
            if vals.translate(None, b"\x00\x01"):  # any byte left is not a bit
                raise ValueError("bit values must be 0 or 1")
            self._bits = vals

    @property
    def bits(self) -> bytes:
        return self._bits

    @property
    def runs(self) -> tuple[int, ...]:
        """Run lengths in order, computed once per word; the first run holds ``bits[0]``."""
        if self._runs is None:
            if self._parts is not None:
                self._runs, self._width1 = _joined_runs(self._parts)
                self._parts = None
            else:
                b = np.frombuffer(self._bits, dtype=np.uint8)
                cut = np.ones(len(b) + 1, dtype=bool)  # run boundaries, both ends included
                np.not_equal(b[1:], b[:-1], out=cut[1:-1])
                self._runs = tuple(np.diff(np.flatnonzero(cut)).tolist())
        return self._runs

    @property
    def stretches(self) -> tuple[tuple[int, int], ...]:
        """The maximal stretches of at least ``MIN_STRETCH`` runs of width 1, as (first, end) run indices.

        Computed once per word, and taken from the parts' when
        ``concatenate`` built it, with no pass over its bits or runs.
        """
        if self._stretches is None:
            self._stretches = tuple((s, e) for s, e in self._width1_stretches if e - s >= MIN_STRETCH)
        return self._stretches

    @property
    def _width1_stretches(self) -> tuple[tuple[int, int], ...]:
        """``stretches``, and also the first and the last maximal stretch of width-1 runs at any length.

        A concatenation carries its parts' first and last stretches on
        across its boundaries, so ``_joined_runs`` fills this from the
        parts' along with the runs.  A word of its own reads it off its runs.
        """
        runs = self.runs
        if self._width1 is None:
            flags = bytes(map((1).__eq__, runs))
            self._width1 = tuple(m.span() for m in _WIDTH1_STRETCH.finditer(flags))
        return self._width1

    def to01(self) -> str:
        return self._bits.translate(_ASCII01).decode("ascii")

    def __len__(self) -> int:
        return len(self._bits)

    def __iter__(self) -> Iterator[int]:
        return iter(self._bits)

    def __getitem__(self, idx):
        if isinstance(idx, slice):
            return Word(self._bits[idx])
        return self._bits[idx]

    def __add__(self, other: "Word") -> "Word":
        return Word(self._bits + Word(other)._bits)

    def __mul__(self, k: int) -> "Word":
        return Word(self._bits * k)

    def __eq__(self, other) -> bool:
        return isinstance(other, Word) and self._bits == other._bits

    def __hash__(self) -> int:
        return hash(self._bits)

    def brief(self) -> str:
        """The 0/1 text, or past 40 bits its first 37 and the length, as ``repr`` shows it."""
        return self.to01() if len(self) <= 40 else f"{self.to01()[:37]}..., len={len(self)}"

    def __repr__(self) -> str:
        bits, cut, size = self.brief().partition("...")
        return f"Word({bits!r}{cut}{size})"


def as_word(w: WordLike) -> Word:
    """``w`` itself when it is already a ``Word``, so its runs are cached on it."""
    return w if isinstance(w, Word) else Word(w)


def concatenate(parts: Iterable[WordLike]) -> Word:
    """The concatenation of ``parts``, whose runs and stretches are taken from the parts' when first read.

    Where a part begins with the bit the previous nonempty part ends with,
    the two runs at that boundary merge into one.  A part's runs and
    stretches are computed once and cached on it, so the inner codewords of
    a concatenated code give every word built from them its runs and
    stretches without a pass over its bits, and a word whose runs are never
    read costs only the join of its bits.
    """
    nonempty = tuple(part for part in map(as_word, parts) if part.bits)
    word = Word(b"".join(part.bits for part in nonempty))
    word._parts = nonempty
    return word


def _joined_runs(parts: Sequence[Word]) -> tuple[tuple[int, ...], tuple[tuple[int, int], ...]]:
    """The runs and the ``_width1_stretches`` of the concatenation of the nonempty ``parts``.

    The two runs at a boundary merge where a part begins with the bit the
    previous one ends with.  The merged run has width at least 2, so it ends
    the stretches on both sides.  At any other boundary a stretch that
    reaches the end of a part runs on into one that starts the next.
    """
    runs: list[int] = []
    width1: list[tuple[int, int]] = []
    last = -1  # the bit the concatenation ends with so far; -1 while it is empty
    for part in parts:
        part_runs = part.runs
        merged = part.bits[0] == last
        offset = len(runs) - merged  # where the part's first run lands
        if merged:
            runs[-1] += part_runs[0]
            runs += part_runs[1:]
            if width1 and width1[-1][1] == offset + 1:  # it ended in the merged run
                first, _ = width1.pop()
                if first < offset:
                    width1.append((first, offset))
        else:
            runs += part_runs
        for first, end in part._width1_stretches:
            first, end = offset + max(first, merged), offset + end
            if width1 and width1[-1][1] == first:  # one stretch across the boundary
                first = width1.pop()[0]
            if first < end:
                width1.append((first, end))
        last = part.bits[-1]
    total = len(runs)
    return tuple(runs), tuple((first, end) for first, end in width1
                              if end - first >= MIN_STRETCH or first == 0 or end == total)


class DeletionPattern:
    """A fixed set of 1-based positions to delete from words of one length, stored as its keep mask."""

    def __init__(self, word_length: int, deleted: Iterable[int] = ()):
        if word_length < 0:
            raise ValueError("word_length must be nonnegative")
        d = tuple(deleted)
        if d and (min(d) < 1 or max(d) > word_length):
            raise ValueError(f"deleted indices must lie in [1, {word_length}]")
        if (twice := first_repeat(d)) is not None:
            raise ValueError(f"deleted index {twice} is repeated")
        keep = np.ones(word_length, dtype=bool)
        keep[np.array(d, dtype=np.intp) - 1] = False
        keep.flags.writeable = False
        self.keep = keep  # False where the pattern deletes; shared, so read-only

    @classmethod
    def from_keep(cls, keep: np.ndarray) -> "DeletionPattern":
        """The pattern deleting where the boolean ``keep`` is False; a read-only copy of ``keep`` is its mask."""
        pattern = cls.__new__(cls)
        pattern.keep = np.array(keep, dtype=bool)  # a copy, so the caller cannot change the mask
        pattern.keep.flags.writeable = False
        return pattern

    @property
    def word_length(self) -> int:
        return self.keep.size

    @property
    def weight(self) -> int:
        return self.keep.size - np.count_nonzero(self.keep)

    @cached_property
    def deleted(self) -> tuple[int, ...]:
        """The deleted positions in increasing order, read off the mask when first asked for."""
        return tuple((np.flatnonzero(~self.keep) + 1).tolist())

    def __eq__(self, other) -> bool:
        if not isinstance(other, DeletionPattern):
            return NotImplemented
        return np.array_equal(self.keep, other.keep)

    def __hash__(self) -> int:
        return hash(self.keep.tobytes())

    def __repr__(self) -> str:
        return f"DeletionPattern(word_length={self.word_length}, deleted={self.deleted!r})"


def apply_pattern(tau: DeletionPattern, w: WordLike) -> Word:
    """Delete the bits of ``w`` at the pattern's positions, keeping order."""
    word = as_word(w)
    if len(word) != tau.word_length:
        raise ValueError(
            f"pattern is for length {tau.word_length}, word has length {len(word)}"
        )
    return Word(np.compress(tau.keep, np.frombuffer(word.bits, dtype=np.uint8)).tobytes())


def masked_run_count(w: WordLike, keep: np.ndarray):
    """The number of runs of the bits of ``w`` where ``keep`` holds, without building that word.

    ``keep`` is one mask over ``w``, giving an int, or a stack of masks
    (rows x len(w)), giving an int array with one count per row.  The kept
    bits of all rows are taken in one pass, row after row.  A kept bit
    starts a run when it is the first of its row or differs from the kept
    bit before it, and a row's count is the number of starts it holds.
    """
    keep = np.asarray(keep, dtype=bool)
    rows = np.atleast_2d(keep)
    bits = np.frombuffer(as_word(w).bits, dtype=np.uint8)
    vals = np.compress(rows.ravel(), np.tile(bits, len(rows)))
    kept = np.count_nonzero(rows, axis=1)
    ends = np.cumsum(kept)
    starts = np.ones(vals.size, dtype=bool)
    np.not_equal(vals[1:], vals[:-1], out=starts[1:])
    firsts = (ends - kept)[kept > 0]  # where each row that keeps a bit begins in ``vals``
    starts[firsts] = True
    counts = np.zeros(len(rows), dtype=np.intp)
    if firsts.size:
        counts[kept > 0] = np.add.reduceat(starts, firsts, dtype=np.intp)
    return int(counts[0]) if keep.ndim == 1 else counts


def bit_deletion_pattern(w: WordLike, bit: int) -> DeletionPattern:
    """The fixed pattern deleting every position of ``w`` that carries ``bit``."""
    return DeletionPattern.from_keep(np.frombuffer(as_word(w).bits, dtype=np.uint8) != bit)


def _runs_that_fit(runs: tuple[int, ...], k: int, room: int) -> tuple[int, int]:
    """The most runs k..fit-1 that fit in ``room`` b-runs of width 1, as (fit, the b-runs they take).

    A run of length v that starts on a fresh b-run of width 1 takes 2v - 1
    of them, so runs k..i-1 take 2 * (their bits) - (i - k).  A binary
    search over i sums the run lengths between its probes, and at most
    ``room`` runs can fit.
    """
    fit, last, used = k, min(len(runs), k + room), 0
    while fit < last:
        mid = (fit + last + 1) // 2
        more = 2 * sum(runs[fit:mid]) - (mid - fit)
        if used + more <= room:
            fit, used = mid, used + more
        else:
            last = mid - 1
    return fit, used


def is_subsequence(a: WordLike, b: WordLike) -> bool:
    """Greedy left-to-right embedding of ``a`` in ``b``; exact for subsequences.

    The walk goes run by run: each run of ``a`` takes its bits from the
    b-runs of its symbol, two b-runs apart, and the next run of ``a`` starts
    on the b-run after the one where it ends.  So every run of ``a`` starts
    on a fresh b-run, and the walk gives the bitwise greedy answer.  The runs
    of ``a`` end in distinct b-runs, so an ``a`` with more runs than ``b`` is
    refused before the walk.

    Inside one of ``b.stretches`` every b-run has width 1, so a run of
    ``a`` of length v that starts there takes exactly 2v - 1 b-runs.  Where
    the walk reaches a stretch, one binary search in ``_runs_that_fit``
    places every run of ``a`` that fits in the rest of it; the step above
    walks the run that crosses the stretch's end, and every run outside
    stretches.  That makes O(runs(a) + b-runs outside stretches +
    stretches * log runs(a)) steps, besides the b-runs walked by a run of
    ``a`` that crosses a stretch's end.  The search sums run lengths in C,
    over no more runs than the stretch can hold, so a walk that fails before
    it reaches a stretch sums none.  A host with no stretch takes the step
    alone.
    """
    a, b = as_word(a), as_word(b)
    ra, rb = a.runs, b.runs
    if not ra:
        return True
    nb = len(rb)
    if len(ra) > nb:  # each run of ``a`` ends in a b-run of its own
        return False
    j = 0 if a.bits[0] == b.bits[0] else 1  # first b-run holding a's first symbol
    stretches = iter(b.stretches if nb >= MIN_STRETCH else ())
    start, end = next(stretches, (nb, nb))  # the next stretch; (nb, nb) stands for b's end
    needle = iter(ra)
    for need in needle:
        while j >= start:  # the walk has reached the next stretch, or b's end
            if j >= nb:
                return False
            if j < end:
                k = len(ra) - length_hint(needle) - 1  # ``need`` is run k of ``a``: a tuple iterator's hint is exact
                fit, used = _runs_that_fit(ra, k, end - j)  # a call keeps this loop short and fast
                j += used
                if fit == len(ra):
                    return True
                if fit > k:  # run fit is the next to place: it crosses the stretch's end
                    need = next(islice(needle, fit - k - 1, None))
            start, end = next(stretches, (nb, nb))
        left = rb[j]
        while need > left:
            need -= left
            j += 2
            if j >= nb:
                return False
            left = rb[j]
        j += 1  # the rest of b-run j has the wrong symbol for a's next run
    return True


class LcsResult(NamedTuple):
    length: int
    witness: Word
    a_positions: tuple[int, ...]  # 0-based, strictly increasing
    b_positions: tuple[int, ...]


def _match_masks(aa: bytes) -> tuple[int, tuple[int, int]]:
    """All-ones mask of len(aa) bits, and the masks of the 0- and 1-positions of ``aa``."""
    full = (1 << len(aa)) - 1
    ones = int(aa[::-1].translate(_ASCII01), 2)  # bit i set iff aa[i] == 1
    return full, (full ^ ones, ones)


def lcs(a: WordLike, b: WordLike) -> LcsResult:
    """Longest common subsequence with one deterministic witness.

    Tie-break: among optimal alignments, the one with lexicographically
    smallest a-positions, then smallest b-positions.

    The bit-parallel update of one ``lcs_lengths`` lane runs over the
    reversed words and keeps every row: LCS(aa[i:], bb[j:]) is (m - i)
    minus the number of ones in the low m - i bits of ``rows[n - j]``.
    Suffix LCS never grows with j, so at each a-position the walk probes
    only the first matching b-position at or after j, O(m + n) probes in
    all.
    """
    aa, bb = as_word(a).bits, as_word(b).bits
    m, n = len(aa), len(bb)
    if not m:
        return LcsResult(0, Word(), (), ())
    full, match = _match_masks(aa[::-1])
    v = full
    rows = [v]
    for sym in reversed(bb):
        u = v & match[sym]
        v = ((v + u) | (v - u)) & full
        rows.append(v)
    a_pos: list[int] = []
    b_pos: list[int] = []
    i = j = 0
    need = m - v.bit_count()
    while need > 0:
        # the smallest a-position with an optimal completion, at its first match in bb
        for i in range(i, m):
            j2 = bb.find(aa[i], j)
            rest = m - i - 1  # LCS(aa[i+1:], bb[j2+1:]) is rest minus the ones below
            if j2 >= 0 and rest - (rows[n - j2 - 1] & ((1 << rest) - 1)).bit_count() >= need - 1:
                break
        else:
            raise AssertionError("lcs walk lost optimality")
        a_pos.append(i)
        b_pos.append(j2)
        i, j = i + 1, j2 + 1
        need -= 1
    witness = Word(bytes(map(aa.__getitem__, a_pos)))
    return LcsResult(len(a_pos), witness, tuple(a_pos), tuple(b_pos))


LANE_BLOCK = 128  # lanes per Python int, so each int stays near 1 KB however many pairs come in


def lcs_lengths(rows: Sequence[WordLike], first: Sequence[int], second: Sequence[int]) -> list[int]:
    """LCS length of ``rows[first[k]]`` and ``rows[second[k]]`` for every k, in one call.

    Each pair is one lane of floor(m / 8) + 1 bytes, m the longest row, so
    a lane holds every row and a spare top bit; ``LANE_BLOCK`` lanes sit side
    by side in one Python int, and bit i of a lane stands for position i of
    its a-row.  The bit-parallel update of Allison and Dix (1986) and Hyyro
    (2004), ``v = ((v + u) | (v & ~M)) & full`` with ``u = v & M`` and M the
    a-positions equal to the b-bit, runs once per b-position across all the
    lanes of an int: one big-int add, whose carries ripple within a lane and
    stop at its spare bit.  M is built per lane from its b-bit at that
    position, and a lane whose b-row has ended gets an all-zero M, which
    leaves it as it is.  A lane's LCS length is the number of zero bits left
    among its a-row's positions.
    """
    bits = [as_word(row).bits for row in rows]
    size = max(map(len, bits), default=0) // 8 + 1  # bytes per lane

    def as_lanes(masks: Iterable[int]) -> list[bytes]:
        return [mask.to_bytes(size, "little") for mask in masks]

    def lanes(masks: list[bytes], rows_of: Sequence[int]) -> int:
        """One lane per row in ``rows_of``, holding that row's mask from ``masks``."""
        return int.from_bytes(b"".join([masks[k] for k in rows_of]), "little")

    # each row's full, ones and zeros masks, as the little-endian bytes of one lane
    row_fulls = [(1 << len(row)) - 1 for row in bits]
    row_ones = [int(b"0" + row[::-1].translate(_ASCII01), 2) for row in bits]  # bit i set iff row[i] == 1
    fulls_of, ones_of = as_lanes(row_fulls), as_lanes(row_ones)
    zeros_of = as_lanes(map(int.__xor__, row_fulls, row_ones))

    spread = (1 << 8 * size) - 1  # times a lane's bit 0: that whole lane
    lengths: list[int] = []
    for at in range(0, len(first), LANE_BLOCK):
        a_rows, b_rows = first[at:at + LANE_BLOCK], second[at:at + LANE_BLOCK]
        full, zeros, ones = lanes(fulls_of, a_rows), lanes(zeros_of, a_rows), lanes(ones_of, a_rows)
        b_zeros, b_ones = lanes(zeros_of, b_rows), lanes(ones_of, b_rows)  # the b-rows' bits, one per position
        low = int.from_bytes((b"\x01" + bytes(size - 1)) * len(a_rows), "little")  # bit 0 of every lane
        v = full
        for t in range(max(len(bits[k]) for k in b_rows)):
            # M: the a-ones where the b-bit t is 1, the a-zeros where it is 0
            mask = ((b_ones >> t) & low) * spread & ones | ((b_zeros >> t) & low) * spread & zeros
            u = v & mask
            v = ((v + u) | (v ^ u)) & full  # v ^ u is v & ~M, as u lies in v
        left = v.to_bytes(len(a_rows) * size, "little")
        lengths += [len(bits[k]) - int.from_bytes(left[i * size:(i + 1) * size], "little").bit_count()
                    for i, k in enumerate(a_rows)]
    return lengths


def enumerate_patterns(n: int, m: int) -> Iterator[DeletionPattern]:
    """All patterns in D(n, m), lazily, in lexicographic order."""
    if m < 0 or m > n:
        raise ValueError(f"need 0 <= m <= n, got m={m}, n={n}")
    for combo in combinations(range(1, n + 1), m):
        yield DeletionPattern(n, combo)


def read_codebook(path) -> list[Word]:
    """One codeword per line over '0'/'1'; '#'-prefixed comment lines ignored."""
    words = list(read_lines(path, Word).values())
    if words and len({len(w) for w in words}) != 1:
        raise ValueError(f"{path}: codewords must all have equal length")
    return words


def write_codebook(path, words: Iterable[WordLike]) -> None:
    atomic_write_text(path, "".join(Word(w).to01() + "\n" for w in words))
