"""Writers and samplers that only the tests use; the package reads these files but never writes them."""

from typing import Iterable, Sequence

from deletion_lab.oblivious import ConfusabilityGraph
from deletion_lab.reporting import atomic_write_text
from deletion_lab.words import DeletionPattern


def write_patterns(path, patterns: Iterable[DeletionPattern]) -> None:
    """One pattern per line, as ``oblivious.read_patterns`` reads them."""
    atomic_write_text(path, "".join(",".join(str(i) for i in pat.deleted) + "\n" for pat in patterns))


def write_outer_words(path, words: Iterable[Sequence[int]]) -> None:
    """One outer word per line, as ``construction.read_outer_words`` reads them."""
    atomic_write_text(path, "".join(",".join(str(s) for s in X) + "\n" for X in words))


def sampled_positive_indegree(graph: ConfusabilityGraph, inclusion_prob: float, rng) -> tuple[int, int]:
    """(sample size, #sampled vertices with an in-edge from the sample)."""
    chosen = {i for i in range(len(graph.vertices)) if rng.random() < inclusion_prob}
    hit = {x for y, x in graph.edges if y in chosen and x in chosen}
    return len(chosen), len(hit)
