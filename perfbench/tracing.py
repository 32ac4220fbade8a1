"""Span tracing of deletion-lab's layers from outside the program.

A ``Tracer`` replaces each wrapped public function in every ``deletion_lab``
module namespace that holds it (``from .words import is_subsequence`` makes a
second name for the same function, so each such name is patched, and counted
as its own wrap site).  Spans (name, start, end, parent) are kept in memory
and written out when the traced call ends.  A layer's self time is its
spans' durations minus the time covered by their direct child spans.
"""

from __future__ import annotations

import importlib
import os
import statistics
import sys
import time
from collections import Counter, defaultdict
from typing import Callable

PACKAGE = "deletion_lab"


def _len_arg(i: int, label: str) -> Callable:
    return lambda args, kwargs, result: {label: len(args[i])}


def _subsequence(args, kwargs, result):
    return {"host_bytes": len(args[1]), "hits": int(bool(result))}


def _batch(args, kwargs, result):
    return {"rows": len(result), "matched": int(result.sum())}


def _filter(args, kwargs, result):
    return {"kept": len(result.kept), "scored": len(result.kept) + len(result.discarded)}


def _lcs(args, kwargs, result):
    return {"cells": len(args[0]) * len(args[1])}


def _report_write(args, kwargs, result):
    paths = [p for p in (args[1:] + tuple(kwargs.values())) if p is not None]
    return {"bytes": sum(os.path.getsize(p) for p in paths)}


def _simulate(args, kwargs, result):
    return {"trials": len(result.rows)}


# (module, attribute path, span name, extra counts from (args, kwargs, result))
WRAPPED: tuple[tuple[str, str, str, Callable | None], ...] = (
    ("words", "is_subsequence", "words.is_subsequence", _subsequence),
    ("words", "apply_pattern", "words.apply_pattern", _len_arg(1, "bytes_in")),
    ("words", "lcs", "words.lcs", _lcs),
    ("construction", "encode_outer", "construction.encode_outer",
     lambda args, kwargs, result: {"bytes_out": len(result)}),
    ("construction", "preserves", "construction.preserves", None),
    ("matching", "batch_matchable", "matching.batch_matchable", _batch),
    ("matching", "is_matchable", "matching.is_matchable", None),
    ("oblivious", "estimate_f", "oblivious.estimate_f", None),
    ("oblivious", "filter_candidates", "oblivious.filter_candidates", _filter),
    ("oblivious", "average_case_error", "oblivious.average_case_error",
     _len_arg(0, "codewords")),
    ("oblivious", "unique_decode", "oblivious.unique_decode", None),
    ("online", "build_pairs", "online.build_pairs",
     lambda args, kwargs, result: {"pairs": len(result.pairs)}),
    ("online", "WaitPushAdversary.__init__", "online.WaitPushAdversary.init", None),
    ("online", "transmit", "online.transmit", _len_arg(0, "bits")),
    ("online", "simulate_online", "online.simulate_online", _simulate),
    ("rng", "py_rng", "rng.py_rng", None),
    ("reporting", "ExperimentReport.write", "reporting.write", _report_write),
)

# The eight runners `verify` builds; each is traced as oracles.<id>.
ORACLE_RUNNERS = (
    "levenshtein",
    "corruption-cost",
    "matching-implication",
    "worst-sets-dominance",
    "matching-decay",
    "geometric-bounds",
    "alternating-absorption",
    "bitflip-code",
)

COMMAND = "cli.command"

# Every per-layer metric, in report order: (name, unit, better).
_EXTRA_UNITS = {
    "host_bytes": ("B", "lower"),
    "hit_frac": ("frac", "higher"),
    "bytes_in": ("B", "lower"),
    "cells": ("count", "lower"),
    "bytes_out": ("B", "lower"),
    "rows": ("count", "lower"),
    "match_frac": ("frac", "higher"),
    "kept_frac": ("frac", "higher"),
    "codewords": ("count", "lower"),
    "pairs": ("count", "higher"),
    "bits": ("count", "lower"),
    "instances": ("count", "higher"),
    "bytes": ("B", "lower"),
}
_PUBLISHED_EXTRAS = {
    "words.is_subsequence": ("host_bytes", "hit_frac"),
    "words.apply_pattern": ("bytes_in",),
    "words.lcs": ("cells",),
    "construction.encode_outer": ("bytes_out",),
    "matching.batch_matchable": ("rows", "match_frac"),
    "oblivious.filter_candidates": ("kept_frac",),
    "oblivious.average_case_error": ("codewords",),
    "online.build_pairs": ("pairs",),
    "online.transmit": ("bits",),
    "reporting.write": ("bytes",),
}


def layer_metric_specs() -> list[tuple[str, str, str]]:
    specs: list[tuple[str, str, str]] = []
    names = [name for _, _, name, _ in WRAPPED] + [f"oracles.{rid}" for rid in ORACLE_RUNNERS]
    for name in names:
        specs.append((f"{name}.calls", "count", "lower"))
        specs.append((f"{name}.self_s", "s", "lower"))
        extras = _PUBLISHED_EXTRAS.get(name, ("instances",) if name.startswith("oracles.") else ())
        for extra in extras:
            specs.append((f"{name}.{extra}", *_EXTRA_UNITS[extra]))
    specs.append(("online.transmits_per_trial", "count", "lower"))
    specs.append((f"{COMMAND}.self_s", "s", "lower"))
    specs.append(("trace.overhead_frac", "frac", "lower"))
    return specs


class Tracer:
    """Wraps deletion-lab's layer functions and records one span per call."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counts: Counter = Counter()  # "<span name>.<extra>" -> total
        self.site_calls: Counter = Counter()
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn: Callable, site: str, extra: Callable | None = None) -> Callable:
        spans, stack, counts, site_calls, clock = (
            self.spans, self._stack, self.counts, self.site_calls, self.clock)

        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            site_calls[site] += 1
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
                if extra is not None:
                    for key, value in extra(args, kwargs, result).items():
                        counts[f"{name}.{key}"] += value
                return result
            finally:
                span[2] = clock()
                stack.pop()

        traced.__wrapped__ = fn
        return traced

    def _patch(self, owner, attr: str, new) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self) -> None:
        """Patch every deletion_lab namespace that holds a wrapped function."""
        importlib.import_module(f"{PACKAGE}.cli")  # loads every module of the package
        modules = {name: mod for name, mod in sys.modules.items()
                   if mod is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))}
        for mod_name, path, span_name, extra in WRAPPED:
            home = modules[f"{PACKAGE}.{mod_name}"]
            if "." in path:
                cls_name, attr = path.split(".")
                cls = getattr(home, cls_name)
                original = getattr(cls, attr)
                self._patch(cls, attr, self.wrap(span_name, original, f"{mod_name}.{path}", extra))
                continue
            original = getattr(home, path)
            for holder_name, holder in modules.items():
                short = holder_name.removeprefix(PACKAGE + ".")
                for key, value in list(vars(holder).items()):
                    if value is original:
                        self._patch(holder, key, self.wrap(span_name, original, f"{short}.{key}", extra))
        cli = modules[f"{PACKAGE}.cli"]
        self._patch(cli, "_verify_runners", self._traced_runners(cli._verify_runners))

    def _traced_runners(self, make_runners: Callable) -> Callable:
        def verify_runners(*args, **kwargs):
            runners = make_runners(*args, **kwargs)
            return {rid: self.wrap(f"oracles.{rid}", run, f"cli.{rid}", _instances)
                    for rid, run in runners.items()}

        return verify_runners

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, old = self._undo.pop()
            setattr(owner, attr, old)

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="ascii") as fh:
            fh.write("index\tname\tstart\tend\tparent\n")
            for i, (name, start, end, parent) in enumerate(self.spans):
                fh.write(f"{i}\t{name}\t{start!r}\t{end!r}\t{parent}\n")

    def layer_totals(self) -> dict[str, float]:
        """Calls, self time and extra counts per span name, as flat metrics."""
        calls, self_s = self_times(self.spans)
        out: dict[str, float] = {}
        for name in calls:
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.self_s"] = self_s[name]
        out.update(self.counts)
        return out


def _instances(args, kwargs, result):
    return {"instances": result.instances}


def self_times(spans) -> tuple[Counter, dict[str, float]]:
    """(calls, self seconds) per span name; spans are (name, start, end, parent)."""
    covered = [0.0] * len(spans)
    for _, start, end, parent in spans:
        if parent >= 0:
            covered[parent] += end - start
    calls: Counter = Counter()
    own: dict[str, float] = defaultdict(float)
    for (name, start, end, _), child_time in zip(spans, covered):
        calls[name] += 1
        own[name] += (end - start) - child_time
    return calls, dict(own)


# Published ratios: metric -> (numerator, denominator) among the raw totals.
RATIOS = {
    "words.is_subsequence.hit_frac": ("words.is_subsequence.hits", "words.is_subsequence.calls"),
    "matching.batch_matchable.match_frac": ("matching.batch_matchable.matched",
                                            "matching.batch_matchable.rows"),
    "oblivious.filter_candidates.kept_frac": ("oblivious.filter_candidates.kept",
                                              "oblivious.filter_candidates.scored"),
    "online.transmits_per_trial": ("online.transmit.calls", "online.simulate_online.trials"),
}


def layer_metrics(runs: list[dict[str, float]], untraced_wall: float, traced_walls: list[float]) -> dict[str, float]:
    """Per-layer metrics from one or more traced calls of the same inputs.

    Counts are deterministic and taken from the first call; self times are
    medians over the calls.
    """
    first = runs[0]
    out: dict[str, float] = {}
    for name, _unit, _better in layer_metric_specs():
        if name.endswith(".self_s"):
            out[name] = statistics.median(r.get(name, 0.0) for r in runs)
        elif name in RATIOS:
            num, den = RATIOS[name]
            out[name] = first.get(num, 0) / first[den] if first.get(den) else 0.0
        elif name == "trace.overhead_frac":
            out[name] = statistics.median(traced_walls) / untraced_wall - 1.0
        else:
            out[name] = first.get(name, 0)
    return out
