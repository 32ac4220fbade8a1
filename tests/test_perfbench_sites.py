"""A traced benchmark call of each workload reaches every wrap site it pins.

perfbench (``perfbench/workloads.py``) lists, per workload, the functions a
traced call must pass through (``traced_sites``), and its traced runs count a
call that leaves one of them without calls as failed.  So moving a pinned
call, such as the CLI's ``encode_outer``, fails the benchmark although every
output stays the same.  A traced call whose output digest differs from the
run's untraced call fails it too.  Here each workload runs at seed 1 through
perfbench's own ``child.py``, once with tracing on and once without, each in
its own directory.  The calls run in fresh interpreters, so the tracer's
patches never reach this process.
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


def run_child(workload, workdir: Path, traced: bool) -> tuple[dict, Outcome]:
    """One call of ``workload`` at seed 1 in the fresh directory ``workdir``: its record and outcome."""
    workdir.mkdir()
    argv = workload.prepare(workdir, 1)
    spans = ["--spans", "spans.tsv"] if traced else []
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), "PYTHONHASHSEED": "1"}
    proc = subprocess.run(
        [sys.executable, str(PERFBENCH / "child.py"), "result.json", *spans, "--", *argv],
        cwd=workdir, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    record = json.loads((workdir / "result.json").read_text())
    assert record["status"] == 0, proc.stderr[-2000:]
    return record, Outcome(
        returncode=record["status"],
        stdout=proc.stdout,
        files={out: (workdir / out).read_bytes() for out in workload.outputs if (workdir / out).exists()},
        leftovers=sorted(path.name for path in workdir.rglob("*.tmp")),
    )


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_traced_call_reaches_every_pinned_site(name, tmp_path):
    workload = WORKLOADS[name]
    record, outcome = run_child(workload, tmp_path / "traced", traced=True)
    assert [site for site in workload.traced_sites if not record["sites"].get(site)] == []
    assert workload.check(outcome)[1] == []
    # perfbench fails a traced call whose output bytes differ from its run's untraced call
    _, untraced = run_child(workload, tmp_path / "untraced", traced=False)
    assert workload.digest(outcome) == workload.digest(untraced)
