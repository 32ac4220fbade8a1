"""Byte-for-byte output of the experiment and verify commands at fixed seeds.

The expected bytes under ``tests/golden/`` are a frozen copy of earlier
output.  A refactor must reproduce them exactly; regenerate them (with
``write_golden``) only for a deliberate change of results.
"""

import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import deletion_lab
from deletion_lab.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"

SMALL = {"mode": "toy", "K": 2, "R": 4, "lambda": 1, "delta": "1/2", "n": 4}
# criterion-11 style: L = 2 R^K = 512, N = 4096, delta n = 6
CRIT11 = {"mode": "toy", "K": 4, "R": 4, "lambda": 1, "delta": "3/4", "n": 8}
# criterion-11 scale: delta n = 30, so exact f counts 4^30 words
CRIT11_N40 = {**CRIT11, "n": 40}
ONLINE = ["--p", "1/2", "--p0-adv", "2/5", "--trials", "60", "--seed", "11"]

# name -> (config or None, argv after the command); "{dir}" is the work dir
CASES = {
    "oblivious_pool": (
        {
            "params": CRIT11,
            "pool": {"file": "{golden}/pool.txt", "structured": False},
            "target_size": 8,
            "f_exact": False,
            "f_trials": 200,
            "seeds": [0, 1, 2],
        },
        ["experiment", "oblivious", "--seed", "7"],
    ),
    "oblivious_all": (
        {"params": SMALL, "pool": {"all": True}, "target_size": 6,
         "pattern_weight": 16, "seeds": [0, 1, 2]},
        ["experiment", "oblivious", "--seed", "4"],
    ),
    "oblivious_pattern_file": (
        {"params": SMALL, "pool": {"random": 9}, "target_size": 5,
         "pattern_file": "{golden}/patterns.txt", "seeds": [3, 5], "use_filter": False},
        ["experiment", "oblivious", "--seed", "9"],
    ),
    "oblivious_exact": (
        {
            "params": CRIT11_N40,
            "pool": {"file": "{golden}/pool40.txt", "structured": False},
            "target_size": 4,
            "f_exact": True,
            "seeds": [0, 1],
        },
        ["experiment", "oblivious", "--seed", "3"],
    ),
    "online_unique": (
        None,
        ["experiment", "online", "--code", "{golden}/code.txt", *ONLINE, "--decoder", "unique"],
    ),
    "online_ml": (
        None,
        ["experiment", "online", "--code", "{golden}/code.txt", *ONLINE, "--decoder", "ml"],
    ),
}
# stdout-only commands
STDOUT_CASES = {
    "graph": ["graph", "--toy", "--K", "2", "--R", "16", "--lambda", "1",
              "--delta", "1/2", "--n", "8"],
    "verify": ["verify", "corruption-cost", "matching-implication", "worst-sets-dominance",
               "matching-decay", "--samples", "300", "--seed", "5"],
    "verify_costly": ["verify", "geometric-bounds", "bitflip-code", "matching-implication",
                      "--samples", "1e3", "--seed", "11"],
    "verify_exhaustive": ["verify", "corruption-cost", "levenshtein", "--exhaustive"],
}
# paper-mode parameters: exact log2 forms only, K, R and L printed as null
PARAMS_PAPER = ["params", "--p", "0.9", "--n", "100"]


def _fill(obj, golden: Path):
    if isinstance(obj, str):
        return obj.replace("{golden}", str(golden))
    if isinstance(obj, dict):
        return {k: _fill(v, golden) for k, v in obj.items()}
    if isinstance(obj, list):
        return [_fill(v, golden) for v in obj]
    return obj


def run_case(name: str, workdir: Path, golden: Path = GOLDEN) -> dict[str, bytes]:
    """Run one file-writing case in workdir; file suffix -> bytes written."""
    config, argv = CASES[name]
    argv = _fill(argv, golden)
    if config is not None:
        cfg = workdir / "config.json"
        cfg.write_text(json.dumps(_fill(config, golden)))
        argv += ["--config", str(cfg)]
    out = workdir / "out.csv"
    assert main(argv + ["--out", str(out)]) == 0
    return {".csv": out.read_bytes(), ".summary.json": (workdir / "out.summary.json").read_bytes()}


def run_stdout_case(argv: list[str]) -> tuple[int, bytes]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    return code, buf.getvalue().encode()


def write_golden(workdir: Path) -> None:
    """Rewrite every expected file from the current program."""
    for name in CASES:
        for suffix, data in run_case(name, workdir).items():
            (GOLDEN / f"{name}{suffix}").write_bytes(data)
    for name in STDOUT_CASES:
        code, data = run_stdout_case(STDOUT_CASES[name])
        (GOLDEN / f"{name}.exit{code}.json").write_bytes(data)
    (GOLDEN / "params_paper.json").write_bytes(run_stdout_case(PARAMS_PAPER)[1])


@pytest.mark.parametrize("name", list(CASES))
def test_experiment_output_matches_golden_bytes(name, tmp_path, capsys):
    for suffix, data in run_case(name, tmp_path).items():
        assert data == (GOLDEN / f"{name}{suffix}").read_bytes(), suffix
    capsys.readouterr()


@pytest.mark.parametrize("name", list(STDOUT_CASES))
def test_stdout_matches_golden_bytes(name):
    code, data = run_stdout_case(STDOUT_CASES[name])
    assert data == (GOLDEN / f"{name}.exit{code}.json").read_bytes()


def test_paper_params_match_golden_bytes():
    assert run_stdout_case(PARAMS_PAPER) == (0, (GOLDEN / "params_paper.json").read_bytes())


def test_golden_bytes_hold_under_python_O_and_another_hash_seed():
    # this module again, on the same package, in a child ``python -O``, which
    # strips every ``assert``, with PYTHONHASHSEED fixed at 777
    src = str(Path(deletion_lab.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONHASHSEED": "777",
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    child = subprocess.run(
        [sys.executable, "-O", "-m", "pytest", "-q", "-p", "no:cacheprovider", __file__,
         "-k", "not test_golden_bytes_hold_under_python_O"],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert child.returncode == 0, child.stdout[-3000:] + child.stderr[-3000:]
    assert " passed" in child.stdout and "deselected" in child.stdout
