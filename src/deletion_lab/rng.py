"""Seed derivation: one master seed, hashed substreams per component/trial.

Substreams make trial results independent of scheduling order and let any
component be re-run in isolation from (master, label, index) alone.
"""

from __future__ import annotations

import hashlib
import os
import random

import numpy as np


def substream_seed(master: int, label: str, index: int = 0) -> int:
    digest = hashlib.sha256(f"{master}:{label}:{index}".encode("ascii")).digest()
    return int.from_bytes(digest[:8], "big")


def py_rng(master: int, label: str, index: int = 0) -> random.Random:
    return random.Random(substream_seed(master, label, index))


def np_rng(master: int, label: str, index: int = 0) -> np.random.Generator:
    return np.random.default_rng(substream_seed(master, label, index))


def fresh_master_seed() -> int:
    """Entropy-drawn 48-bit master seed; callers must echo it for reproducibility.

    Drawn with ``os.urandom``: importing ``secrets`` adds milliseconds to
    every CLI start.
    """
    return int.from_bytes(os.urandom(6), "big")
