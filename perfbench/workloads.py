"""The three benchmark workloads: input generators, CLI calls, units and checks.

Every input file is generated here from the workload seed with the standard
library only, so a change to the program never changes what it is fed.  The
program receives only these files and a master seed on its command line.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from tracing import ORACLE_RUNNERS

# Criterion-11 code parameters: L = 2 R^K = 512, N = n L = 20480.
OUTER_N = 40
PARAMS = {"mode": "toy", "K": 4, "R": 4, "lambda": 1, "delta": "3/4", "n": OUTER_N}
POOL_SIZE = 72
PATTERNS = 8  # standard_pattern_family with two reference words
# One experiment seed with a small code (target_size 8) and a cheaper filter
# (f_trials 600), so that a call lasts about a second and a run holds many of
# them; the subsequence tests still take the largest share.  A seed's cost
# grows with the square of its Binomial code size, so the unit is the
# codeword pair.
SEEDS = 1
TARGET_SIZE = 8
FILTER_TRIALS = 600

ONLINE_CODE_SIZE = 256
ONLINE_N = 48
ONLINE_P = (1, 2)
ONLINE_P0_ADV = (2, 5)
ONLINE_TRIALS = 10

VERIFY_SAMPLES = "1e3"


def seeded_rng(workload: str, seed: int) -> random.Random:
    digest = hashlib.sha256(f"perfbench:{workload}:{seed}".encode("ascii")).digest()
    return random.Random(int.from_bytes(digest[:8], "big"))


def criterion11_pool(rng: random.Random) -> list[tuple[int, ...]]:
    """60 words over {3,4} weighted 1:3, then 12 absorbers, all distinct."""
    body: set[tuple[int, ...]] = set()
    while len(body) < 60:
        body.add(tuple(rng.choices((3, 4), weights=(1, 3), k=OUTER_N)))
    pool = sorted(body)
    absorbers = [(1,) * OUTER_N, (2,) * OUTER_N]
    for k in (0, 13, 27, 39):
        w = [1] * OUTER_N
        w[k] = 4
        absorbers.append(tuple(w))
    while len(absorbers) < 12:
        w = tuple(rng.randrange(1, 5) for _ in range(OUTER_N))
        if w not in body and w not in absorbers:
            absorbers.append(w)
    return pool + absorbers


def online_codebook(rng: random.Random) -> list[str]:
    """ONLINE_CODE_SIZE distinct uniform words of length ONLINE_N, sorted."""
    words: set[str] = set()
    while len(words) < ONLINE_CODE_SIZE:
        words.add(format(rng.getrandbits(ONLINE_N), f"0{ONLINE_N}b"))
    return sorted(words)


@dataclass(frozen=True)
class Outcome:
    """What one CLI invocation left behind, read back for checking."""

    returncode: int
    stdout: str
    files: dict[str, bytes]  # output file name -> bytes
    leftovers: list[str]  # names of *.tmp files still present


@dataclass(frozen=True)
class Workload:
    name: str
    unit: str
    why: str
    recipe: str
    prepare: Callable[[Path, int], list[str]]  # (workdir, seed) -> CLI argv
    outputs: tuple[str, ...]  # files the CLI writes, relative to workdir
    # -> (units, errors); raises ValueError, KeyError or TypeError on unreadable output
    check: Callable[[Outcome], tuple[int, list[str]]]
    traced_sites: tuple[str, ...]  # wrap sites a traced call must pass through

    def digest(self, outcome: Outcome) -> str:
        h = hashlib.sha256()
        for name in self.outputs:
            h.update(name.encode("ascii") + b"\0" + outcome.files.get(name, b"") + b"\0")
        h.update(outcome.stdout.encode("utf-8"))
        return h.hexdigest()


def _csv_rows(outcome: Outcome, name: str, columns: tuple[str, ...]) -> list[dict]:
    text = outcome.files[name].decode("ascii")
    reader = csv.DictReader(io.StringIO(text))
    if tuple(reader.fieldnames or ()) != columns:
        raise ValueError(f"{name}: columns {reader.fieldnames} != {list(columns)}")
    return list(reader)


def _common_errors(outcome: Outcome) -> list[str]:
    errors = []
    if outcome.returncode != 0:
        errors.append(f"exit status {outcome.returncode}")
    if outcome.leftovers:
        errors.append(f"leftover temp files {outcome.leftovers}")
    return errors


# ---------------------------------------------------------------------------
# oblivious


FILTER_SITES = (
    "cli.encode_outer", "oblivious.filter_candidates", "oblivious.estimate_f",
    "oblivious.batch_matchable", "rng.py_rng", "reporting.ExperimentReport.write",
)
OBLIVIOUS_COLUMNS = ("seed", "pattern_id", "pattern_weight", "code_size", "error_fraction")


def _prepare_oblivious(workdir: Path, seed: int) -> list[str]:
    rng = seeded_rng("oblivious-errors", seed)
    pool = criterion11_pool(rng)
    (workdir / "pool.txt").write_text(
        "".join(",".join(map(str, w)) + "\n" for w in pool), encoding="ascii"
    )
    config = {
        "params": PARAMS,
        "pool": {"file": "pool.txt", "structured": False},
        "target_size": TARGET_SIZE,
        "use_filter": True,
        "f_exact": False,
        "f_trials": FILTER_TRIALS,
        "seeds": list(range(SEEDS)),
    }
    (workdir / "config.json").write_text(json.dumps(config, indent=2) + "\n")
    master = rng.randrange(1 << 32)
    return ["experiment", "oblivious", "--config", "config.json",
            "--out", "out.csv", "--seed", str(master)]


def _ordered_pairs(rows: list[dict]) -> int:
    """Codeword pairs (x, y != x) whose confusion one row's error covers, summed."""
    return sum(int(r["code_size"]) * (int(r["code_size"]) - 1) for r in rows)


def _check_oblivious(outcome: Outcome) -> tuple[int, list[str]]:
    errors = _common_errors(outcome)
    rows = _csv_rows(outcome, "out.csv", OBLIVIOUS_COLUMNS)
    if len(rows) != SEEDS * PATTERNS:
        errors.append(f"{len(rows)} rows, expected {SEEDS} seeds x {PATTERNS} patterns")
    for row in rows:
        if not 0.0 <= float(row["error_fraction"]) <= 1.0:
            errors.append(f"error_fraction {row['error_fraction']} outside [0,1]")
        if not 0 <= int(row["code_size"]) <= POOL_SIZE:
            errors.append(f"code_size {row['code_size']} exceeds pool size {POOL_SIZE}")
    config = json.loads(outcome.files["out.summary.json"])["config"]
    if config["pool_size"] != POOL_SIZE:
        errors.append(f"summary pool_size is not {POOL_SIZE}")
    if not 0.0 <= config["discarded_fraction"] <= 1.0:
        errors.append(f"discarded_fraction {config['discarded_fraction']} outside [0,1]")
    return _ordered_pairs(rows), errors


# ---------------------------------------------------------------------------
# online


ONLINE_COLUMNS = ("trial", "codeword_index", "strategy", "coin_bit", "deletions_used",
                  "output_len", "decoded_ok", "confused")


def _prepare_online(workdir: Path, seed: int) -> list[str]:
    rng = seeded_rng("online-waitpush", seed)
    (workdir / "code.txt").write_text("\n".join(online_codebook(rng)) + "\n", encoding="ascii")
    master = rng.randrange(1 << 32)
    return ["experiment", "online", "--code", "code.txt",
            "--p", "{}/{}".format(*ONLINE_P), "--p0-adv", "{}/{}".format(*ONLINE_P0_ADV),
            "--trials", str(ONLINE_TRIALS), "--decoder", "unique",
            "--seed", str(master), "--out", "online.csv"]


def _check_online(outcome: Outcome) -> tuple[int, list[str]]:
    errors = _common_errors(outcome)
    rows = _csv_rows(outcome, "online.csv", ONLINE_COLUMNS)
    budget = ONLINE_N * ONLINE_P[0] // ONLINE_P[1]
    if [int(r["trial"]) for r in rows] != list(range(ONLINE_TRIALS)):
        errors.append(f"trials are not 0..{ONLINE_TRIALS - 1} in order")
    for r in rows:
        dels = int(r["deletions_used"])
        if not 0 <= dels <= budget:
            errors.append(f"trial {r['trial']}: {dels} deletions > budget {budget}")
        if int(r["output_len"]) != ONLINE_N - dels:
            errors.append(f"trial {r['trial']}: output_len {r['output_len']} != n - deletions")
        for flag in ("decoded_ok", "confused", "coin_bit"):
            if r[flag] not in ("0", "1"):
                errors.append(f"trial {r['trial']}: {flag} = {r[flag]!r}")
        if not 0 <= int(r["codeword_index"]) < ONLINE_CODE_SIZE:
            errors.append(f"trial {r['trial']}: codeword_index out of range")
    return len(rows), errors


# ---------------------------------------------------------------------------
# verify


def _prepare_verify(workdir: Path, seed: int) -> list[str]:
    master = seeded_rng("verify-all", seed).randrange(1 << 32)
    return ["verify", "all", "--samples", VERIFY_SAMPLES, "--seed", str(master)]


def _check_verify(outcome: Outcome) -> tuple[int, list[str]]:
    errors = _common_errors(outcome)
    reports = json.loads(outcome.stdout)
    if len(reports) != len(ORACLE_RUNNERS):
        errors.append(f"{len(reports)} oracle reports, expected {len(ORACLE_RUNNERS)}")
    for rep in reports:
        if rep["violations"] != 0:
            errors.append(f"{rep['name']}: {rep['violations']} violations")
    return sum(int(rep["instances"]) for rep in reports), errors


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="oblivious-errors",
            unit="codeword pair (x, y != x) tested under one pattern, summed over CSV rows",
            why="fixed-pattern average-case error: all-pairs subsequence tests on 20 kbit "
            "words, then disguise scoring f(Y) by batch matching; unit codeword pair; "
            f"target_size {TARGET_SIZE}, f_trials {FILTER_TRIALS}",
            recipe="experiment oblivious; criterion-11 pool file (60 words over {3,4} "
            "weighted 1:3 + 12 absorbers, structured false); toy K=4 R=4 lambda=1 "
            f"delta=3/4 n=40; target_size {TARGET_SIZE}; Monte-Carlo f, f_trials "
            f"{FILTER_TRIALS}; standard 8-pattern family; seeds 0..{SEEDS - 1}",
            prepare=_prepare_oblivious,
            outputs=("out.csv", "out.summary.json"),
            check=_check_oblivious,
            traced_sites=FILTER_SITES + (
                "oblivious.encode_outer", "oblivious.average_case_error",
                "oblivious.apply_pattern", "oblivious.is_subsequence"),
        ),
        Workload(
            name="online-waitpush",
            unit="trial",
            why="causal wait-push adversary: per-trial re-transmission of every codeword, "
            f"suffix LCS pairing; unit trial; |C|={ONLINE_CODE_SIZE}, n={ONLINE_N}, "
            f"{ONLINE_TRIALS} trials",
            recipe=f"experiment online; {ONLINE_CODE_SIZE} distinct uniform words of length "
            f"{ONLINE_N}; p=1/2, p0_adv=2/5; decoder unique; {ONLINE_TRIALS} trials",
            prepare=_prepare_online,
            outputs=("online.csv", "online.summary.json"),
            check=_check_online,
            traced_sites=("cli.simulate_online", "online.build_pairs", "online.lcs",
                          "online.transmit", "online.WaitPushAdversary.__init__",
                          "online.unique_decode", "oblivious.is_subsequence", "rng.py_rng",
                          "reporting.ExperimentReport.write"),
        ),
        Workload(
            name="verify-all",
            unit="oracle instance",
            why="one-shot oracle work with no reuse: signature extraction, encoding and "
            "fresh 4096-bit subsequence tests; unit oracle instance; verify all, "
            f"{VERIFY_SAMPLES} samples",
            recipe=f"verify all --samples {VERIFY_SAMPLES}; no input files",
            prepare=_prepare_verify,
            outputs=(),
            check=_check_verify,
            traced_sites=("oracles.is_subsequence", "oracles.apply_pattern", "oracles.preserves",
                          "oracles.encode_outer", "oracles.is_matchable", "oracles.batch_matchable",
                          "matching.batch_matchable", "words.lcs", "rng.py_rng",
                          *(f"cli.{rid}" for rid in ORACLE_RUNNERS)),
        ),
    )
}
