import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from run import BASELINE, SRC, child_env, pair_speedups
from workloads import (ONLINE_TRIALS, SEEDS, WORKLOADS, Outcome, criterion11_pool,
                       online_codebook, seeded_rng)

BENCH = Path(__file__).resolve().parents[1]


def test_pool_recipe_is_deterministic_and_distinct():
    pool = criterion11_pool(seeded_rng("oblivious-errors", 3))
    assert pool == criterion11_pool(seeded_rng("oblivious-errors", 3))
    assert pool != criterion11_pool(seeded_rng("oblivious-errors", 4))
    assert len(pool) == len(set(pool)) == 72
    assert all(set(w) <= {3, 4} and len(w) == 40 for w in pool[:60])


def test_codebook_is_deterministic_and_distinct():
    code = online_codebook(seeded_rng("online-waitpush", 3))
    assert code == online_codebook(seeded_rng("online-waitpush", 3))
    assert len(set(code)) == 256 and {len(w) for w in code} == {48}


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_prepare_writes_identical_inputs_for_one_seed(name, tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    a.mkdir()
    b.mkdir()
    assert WORKLOADS[name].prepare(a, 9) == WORKLOADS[name].prepare(b, 9)
    assert sorted(p.name for p in a.iterdir()) == sorted(p.name for p in b.iterdir())
    for p in a.iterdir():
        assert p.read_bytes() == (b / p.name).read_bytes()
    assert WORKLOADS[name].prepare(b, 10) != WORKLOADS[name].prepare(a, 9)


def _oblivious(rows, leftovers=()):
    header = "seed,pattern_id,pattern_weight,code_size,error_fraction\n"
    body = "".join(f"{s},p,10240,{size},{err}\n" for s, size, err in rows)
    files = {"out.csv": (header + body).encode(), "out.summary.json": b'{"config": {"pool_size": 72, "discarded_fraction": 0.1}}'}
    return Outcome(0, "", files, list(leftovers))


def test_oblivious_check_counts_rows_and_rejects_bad_values():
    check = WORKLOADS["oblivious-errors"].check
    good = [(s, 16, 0.125) for s in range(SEEDS) for _ in range(8)]
    assert check(_oblivious(good)) == (SEEDS * 8 * 16 * 15, [])
    assert check(_oblivious(good[:-1]))[1]
    assert check(_oblivious(good[:-1] + [(1, 16, 1.5)]))[1]
    assert check(_oblivious(good[:-1] + [(1, 73, 0.0)]))[1]
    assert check(_oblivious(good, leftovers=["out.csv.tmp"]))[1]


def test_online_check_rejects_budget_and_length_violations():
    header = "trial,codeword_index,strategy,coin_bit,deletions_used,output_len,decoded_ok,confused\n"

    def outcome(rows):
        return Outcome(0, "", {"online.csv": (header + "".join(rows)).encode()}, [])

    check = WORKLOADS["online-waitpush"].check
    good = [f"{t},5,1,0,24,24,0,1\n" for t in range(ONLINE_TRIALS)]
    last = ONLINE_TRIALS - 1
    assert check(outcome(good)) == (ONLINE_TRIALS, [])
    assert check(outcome(good[:-1] + [f"{last},5,1,0,25,23,0,1\n"]))[1]
    assert check(outcome(good[:-1] + [f"{last},5,1,0,20,24,0,1\n"]))[1]
    assert check(outcome(good[:-1] + [f"{last},5,1,0,24,24,2,1\n"]))[1]


def test_verify_check_sums_instances_and_rejects_violations():
    reports = [{"name": f"r{i}", "instances": 10, "violations": 0} for i in range(8)]
    check = WORKLOADS["verify-all"].check
    assert check(Outcome(0, json.dumps(reports), {}, [])) == (80, [])
    reports[3]["violations"] = 1
    assert check(Outcome(1, json.dumps(reports), {}, []))[1]
    with pytest.raises(ValueError):
        check(Outcome(1, "Traceback (most recent call last):", {}, []))


def test_run_without_sources_exits_nonzero_without_result(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "verify-all", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""



class _FakeCall:
    def __init__(self, wall_s, record=True):
        self.wall_s, self.record = wall_s, {"wall_s": wall_s} if record else None


def test_pair_speedups_divide_baseline_by_current_time():
    pairs = [(_FakeCall(2.0), _FakeCall(3.0)), (_FakeCall(1.0), _FakeCall(1.5)),
             (_FakeCall(4.0), _FakeCall(2.0))]
    assert pair_speedups(pairs) == [1.5, 1.5, 0.5]
    pairs.append((_FakeCall(1.0, record=False), _FakeCall(1.0)))  # a failed call has no time
    assert pair_speedups(pairs) == [1.5, 1.5, 0.5]


@pytest.mark.parametrize("source", [SRC, BASELINE])
def test_children_import_only_their_own_copy(source):
    where = subprocess.run(
        [sys.executable, "-c", "import deletion_lab; print(deletion_lab.__file__)"],
        env=child_env(source), capture_output=True, text=True, check=True, timeout=60,
    ).stdout.strip()
    assert Path(where).parent == source / "deletion_lab"
