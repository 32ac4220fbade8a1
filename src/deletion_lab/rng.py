"""Seed derivation: one master seed, hashed substreams per component/trial.

Substreams make trial results independent of scheduling order and let any
component be re-run in isolation from (master, label, index) alone.
"""

from __future__ import annotations

import hashlib
import os
import random

import numpy as np


def substream_seed(master: int, label: str, index: int | str = 0) -> int:
    """A 64-bit seed named by (master, label, index); ``index`` may be text, such as a host's symbols."""
    digest = hashlib.sha256(f"{master}:{label}:{index}".encode("ascii")).digest()
    return int.from_bytes(digest[:8], "big")


def py_rng(master: int, label: str, index: int | str = 0) -> random.Random:
    return random.Random(substream_seed(master, label, index))


def np_rng(master: int, label: str, index: int | str = 0) -> np.random.Generator:
    return np.random.default_rng(substream_seed(master, label, index))


# keys ``uniform_keep_masks`` draws and ranks at a time
KEY_BLOCK = 1 << 13


def uniform_keep_masks(gen: np.random.Generator, L: int, weights: np.ndarray) -> np.ndarray:
    """Keep masks of L positions, one per weight: row r deletes a uniform ``weights[r]``-subset.

    Each row draws L i.i.d. 62-bit keys from ``gen`` and deletes the
    positions of its ``weights[r]`` lowest keys, ties going to the lower
    position (a stable argsort's ranks), so every row deletes exactly its
    weight.  The subset is uniform unless two keys of a row tie, with
    probability below L^2 / 2^63 per mask: under 1e-13 up to L = 512, the
    oracles' largest.  A row deletes the keys up to its weight-th lowest
    value, found by one value sort; only a row where that value is tied
    falls back to the stable argsort.  Keys are drawn in whole rows,
    KEY_BLOCK at a time.  A 62-bit key takes one 64-bit word of the stream,
    so the masks do not depend on that size.
    """
    keep = np.empty((len(weights), L), dtype=bool)
    rows = max(1, KEY_BLOCK // L)
    for lo in range(0, len(keep), rows):
        block, w = keep[lo:lo + rows], weights[lo:lo + rows]
        keys = gen.integers(0, 1 << 62, size=block.shape)
        cut = np.sort(keys, axis=1)[np.arange(len(w)), np.maximum(w - 1, 0)]
        cut[w == 0] = -1
        np.greater(keys, cut[:, None], out=block)
        for r in np.flatnonzero(np.count_nonzero(block, axis=1) != L - w).tolist():
            block[r] = True
            block[r, keys[r].argsort(kind="stable")[:w[r]]] = False
    return keep


def fresh_master_seed() -> int:
    """Entropy-drawn 48-bit master seed; callers must echo it for reproducibility.

    Drawn with ``os.urandom``: importing ``secrets`` adds milliseconds to
    every CLI start.
    """
    return int.from_bytes(os.urandom(6), "big")
