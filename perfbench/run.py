"""deletion-lab benchmark: the CLI experiments over three seeded workloads.

usage: python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Run from the root of a source checkout (``src/deletion_lab`` must exist; it
is put on PYTHONPATH, nothing is installed).  Each measured call is a fresh
child interpreter running ``deletion_lab.cli.main`` on inputs generated from
``--seed``, one at a time, until ``--seconds`` of calls have run.

With ``--trace 0`` calls of the checkout's program alternate with calls of
``baseline/deletion_lab``, a frozen copy of the program as it was when this
benchmark was written, on the same inputs (pairs ordered current/baseline,
then baseline/current, and so on).  The end-to-end metrics are:

- speedup: median over pairs of baseline wall time / current wall time of
  the ``cli.main`` call.  The host's slow phases last from a second to
  minutes and stretch both calls of a pair alike, so the ratio holds still
  where either time alone swings by up to 1.8x;
- setup_s: median over current calls of the time from spawning the child
  until it has imported deletion_lab and built the CLI parser;
- peak_rss_mb: peak RSS of the current child process (median).

With ``--trace 1`` one untraced call of the current program is followed by
traced calls whose output bytes must equal the untraced call's, and the
per-layer metrics from ``tracing.layer_metric_specs`` are reported.

Every call's outputs are checked (``workloads.py``); a call fails on a
nonzero exit, a failed check, a leftover ``.tmp`` file or output bytes that
differ from the run's first call of the same program.  fail_frac = failed /
attempted.  The last stdout line is one JSON object: correct, attempted,
failed, metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing
from workloads import WORKLOADS, Outcome, Workload

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
BASELINE = HERE / "baseline"
WORK = ROOT / ".perfbench-work"

CALL_TIMEOUT_S = 150
CALIBRATION_LOOPS = 400_000
MIN_PAIRS = 3
SETUP_CODE = "import deletion_lab; from deletion_lab.cli import build_parser; build_parser()"

END_TO_END = (("speedup", "x"), ("setup_s", "s"), ("peak_rss_mb", "MB"))


def child_env(source: Path, seed: int = 0) -> dict[str, str]:
    """The environment of a child that imports deletion_lab from ``source`` only.

    The hash seed is fixed per run, so that both calls of a pair iterate any
    set of strings or bytes in the same order.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = str(source)
    env["PYTHONHASHSEED"] = str(seed & 0xFFFFFFFF)
    return env


def calibration_rate() -> float:
    """Iterations per second of a fixed pure-Python loop (machine-speed probe)."""
    start = time.perf_counter()
    acc = 0
    for i in range(CALIBRATION_LOOPS):
        acc = (acc * 31 + i) & 0xFFFF
    return CALIBRATION_LOOPS / (time.perf_counter() - start)


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(env: dict[str, str]) -> dict:
    numpy_version = subprocess.run(
        [sys.executable, "-c", "import numpy; print(numpy.__version__)"],
        env=env, capture_output=True, text=True, timeout=60,
    ).stdout.strip()
    return {
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
    }


def warm_up(env: dict[str, str]) -> None:
    """One untimed import: it writes bytecode caches and fails fast on a hang."""
    subprocess.run([sys.executable, "-c", SETUP_CODE], env=env, check=True, timeout=60)


class Call:
    """One child-interpreter run of the CLI and everything it left behind."""

    def __init__(self, workload: Workload, inputs: Path, calldir: Path, argv: list[str],
                 env: dict[str, str], spans: Path | None):
        shutil.copytree(inputs, calldir)
        result_path = calldir / "result.json"
        cmd = [sys.executable, str(HERE / "child.py"), str(result_path)]
        if spans is not None:
            cmd += ["--spans", str(spans)]
        cmd += ["--", *argv]
        with open(calldir / "stdout.txt", "wb") as out, open(calldir / "stderr.txt", "wb") as err:
            spawned = time.monotonic()
            proc = subprocess.Popen(cmd, cwd=calldir, env=env, stdout=out, stderr=err)
            try:
                proc.wait(timeout=CALL_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                pass  # killed below; the missing result marks the call failed
            finally:
                if proc.poll() is None:
                    proc.kill()
                    proc.wait()
            self.elapsed_s = time.monotonic() - spawned
        self.record = json.loads(result_path.read_text()) if result_path.exists() else None
        status = self.record["status"] if self.record else proc.returncode or 1
        self.outcome = Outcome(
            returncode=status,
            stdout=(calldir / "stdout.txt").read_text(encoding="utf-8", errors="replace"),
            files={name: (calldir / name).read_bytes()
                   for name in workload.outputs if (calldir / name).exists()},
            leftovers=sorted(p.name for p in calldir.rglob("*.tmp")),
        )
        try:
            self.units, self.errors = workload.check(self.outcome)
        except (ValueError, KeyError, TypeError) as exc:
            self.units, self.errors = 0, [f"unreadable output: {exc!r}"]
        if self.record is None:
            tail = (calldir / "stderr.txt").read_text(errors="replace")[-400:]
            self.errors.append(f"child exited {proc.returncode} without a result: {tail}")
        else:
            self.setup_s = self.record["ready"] - spawned
        self.digest = workload.digest(self.outcome)
        shutil.rmtree(calldir)

    @property
    def ok(self) -> bool:
        return not self.errors

    @property
    def wall_s(self) -> float:
        return self.record["wall_s"]


def pair_speedups(pairs: list[tuple[Call, Call]]) -> list[float]:
    """Baseline wall time / current wall time of each (current, baseline) pair
    in which both calls produced a result."""
    return [base.wall_s / cur.wall_s for cur, base in pairs if cur.record and base.record]


def run_workload(workload: Workload, seed: int, seconds: float, trace: bool) -> dict:
    print(f"# workload {workload.name}: {workload.recipe}")
    print(f"# unit: {workload.unit}")
    rundir = WORK / f"{workload.name}-{seed}-{os.getpid()}"
    shutil.rmtree(rundir, ignore_errors=True)
    inputs = rundir / "inputs"
    inputs.mkdir(parents=True)
    record = {"load_before": os.getloadavg(), "calibration_before": calibration_rate()}
    argv = workload.prepare(inputs, seed)
    print(f"# argv: deletion-lab {' '.join(argv)}")
    programs = {"current": child_env(SRC, seed)} if trace else {
        "current": child_env(SRC, seed), "baseline": child_env(BASELINE, seed)}
    for env in programs.values():
        warm_up(env)
    spans = WORK / f"spans-{workload.name}.tsv"
    calls: list[Call] = []
    first: dict[str, Call] = {}

    def call(program: str, traced: bool = False) -> Call:
        c = Call(workload, inputs, rundir / f"call-{len(calls)}", argv, programs[program],
                 spans if traced else None)
        if program in first and c.digest != first[program].digest:
            c.errors.append(f"output bytes differ from the run's first {program} call")
        first.setdefault(program, c)
        if traced and c.record:
            missing = [site for site in workload.traced_sites if not c.record["sites"].get(site)]
            if missing:
                c.errors.append(f"wrap sites without calls: {missing}")
        calls.append(c)
        status = "ok" if c.ok else "FAILED: " + "; ".join(c.errors)[:600]
        wall = f"{c.wall_s:.3f} s" if c.record else "-"
        print(f"# call {len(calls)} {program}{' traced' if traced else ''}: {wall}, "
              f"{c.units} units, digest {c.digest[:16]}, {status}", flush=True)
        return c

    start = time.monotonic()
    if trace:
        untraced = call("current")
        while True:
            last = call("current", traced=True)
            if not last.record or time.monotonic() - start + last.elapsed_s > seconds:
                break
    else:
        pairs: list[tuple[Call, Call]] = []
        while True:
            order = ("current", "baseline") if len(pairs) % 2 == 0 else ("baseline", "current")
            done = {program: call(program) for program in order}
            pairs.append((done["current"], done["baseline"]))
            pair_s = sum(c.elapsed_s for c in done.values())
            if not all(c.record for c in done.values()):
                break
            if len(pairs) >= MIN_PAIRS and time.monotonic() - start + pair_s > seconds:
                break
    shutil.rmtree(rundir)
    record.update(load_after=os.getloadavg(), calibration_after=calibration_rate())
    record["digests"] = {program: c.digest for program, c in first.items()}
    print("# record " + json.dumps(record))

    if trace:
        units = {name: unit for name, unit, _ in tracing.layer_metric_specs()}
        metrics = dict.fromkeys(units, 0.0)
        done_traced = [c for c in calls if c.record and c is not untraced]
        if done_traced and untraced.record:
            metrics = tracing.layer_metrics([c.record["layers"] for c in done_traced],
                                            untraced.wall_s, [c.wall_s for c in done_traced])
    else:
        units = dict(END_TO_END)
        current = [cur for cur, _ in pairs if cur.record]
        metrics = {
            "speedup": _median(pair_speedups(pairs)),
            "setup_s": _median([c.setup_s for c in current]),
            "peak_rss_mb": _median([c.record["maxrss_kb"] / 1024 for c in current]),
        }
        rate = _median([c.units / c.wall_s for c in current])
        print(f"# current units_per_s (median; machine-dependent, not a metric): {rate:.6g}")
    failed = sum(not c.ok for c in calls)
    for name, value in metrics.items():
        print(f"{name:48s} {value:14.6g} {units[name]}")
    print(f"{'fail_frac':48s} {failed / len(calls):14.6g} frac ({failed}/{len(calls)})")
    return {
        "correct": failed == 0,
        "attempted": len(calls),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "deletion_lab" / "cli.py").is_file():
        print(f"perfbench: no deletion-lab sources at {SRC}", file=sys.stderr)
        return 2
    print("# environment " + json.dumps(environment(child_env(SRC))))
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {name: run_workload(WORKLOADS[name], args.seed, args.seconds, bool(args.trace))
               for name in names}
    if len(results) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{name}.{metric}": value for name, r in results.items()
                        for metric, value in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
