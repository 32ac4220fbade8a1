"""A traced benchmark call of each workload reaches every wrap site it pins.

perfbench (``perfbench/workloads.py``) lists, per workload, the functions a
traced call must pass through (``traced_sites``), and its traced runs count a
call that leaves one of them without calls as failed.  So moving a pinned
call, such as the CLI's ``encode_outer``, fails the benchmark although every
output stays the same.  Here each workload runs once, at seed 1, through
perfbench's own ``child.py`` with tracing on.  The call runs in a fresh
interpreter, so the tracer's patches never reach this process.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"
if str(PERFBENCH) not in sys.path:  # workloads.py imports its sibling modules by name
    sys.path.insert(0, str(PERFBENCH))

from workloads import WORKLOADS, Outcome  # noqa: E402


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_traced_call_reaches_every_pinned_site(name, tmp_path):
    workload = WORKLOADS[name]
    argv = workload.prepare(tmp_path, 1)
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), "PYTHONHASHSEED": "1"}
    proc = subprocess.run(
        [sys.executable, str(PERFBENCH / "child.py"), "result.json", "--spans", "spans.tsv", "--", *argv],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    record = json.loads((tmp_path / "result.json").read_text())
    assert record["status"] == 0, proc.stderr[-2000:]
    assert [site for site in workload.traced_sites if not record["sites"].get(site)] == []
    outcome = Outcome(
        returncode=record["status"],
        stdout=proc.stdout,
        files={out: (tmp_path / out).read_bytes() for out in workload.outputs if (tmp_path / out).exists()},
        leftovers=sorted(path.name for path in tmp_path.rglob("*.tmp")),
    )
    assert workload.check(outcome)[1] == []
