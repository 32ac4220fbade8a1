"""Run one deletion-lab CLI call in this fresh interpreter and record it.

usage: python3 child.py RESULT_JSON [--spans SPANS_TSV] -- CLI_ARG...

The result file holds the exit status, the ``CLOCK_MONOTONIC`` time at which
the interpreter had imported ``deletion_lab`` and built the CLI parser (the
parent subtracts its own spawn time to get the set-up time), the wall time of
the ``cli.main`` call, the process's peak RSS and, with ``--spans``, the
per-layer totals of a traced call.  ``deletion_lab`` must be importable
(the parent sets PYTHONPATH); importing it is not part of the timed call.
"""

from __future__ import annotations

import json
import resource
import sys
import time


def main(argv: list[str]) -> int:
    split = argv.index("--")
    opts, cli_args = argv[:split], argv[split + 1:]
    result_path, spans_path = opts[0], None
    if opts[1:2] == ["--spans"]:
        spans_path = opts[2]

    from deletion_lab import cli

    cli.build_parser()
    ready = time.monotonic()
    call = cli.main
    tracer = None
    if spans_path is not None:
        from tracing import COMMAND, Tracer

        tracer = Tracer()
        tracer.install()
        call = tracer.wrap(COMMAND, cli.main, "child")
    start = time.perf_counter()
    try:
        status = call(cli_args)
    except SystemExit as exc:
        status = exc.code if isinstance(exc.code, int) else 2
    wall = time.perf_counter() - start
    sys.stdout.flush()
    record = {
        "status": status,
        "ready": ready,
        "wall_s": wall,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer is not None:
        tracer.uninstall()
        tracer.write_spans(spans_path)
        record["layers"] = tracer.layer_totals()
        record["sites"] = dict(tracer.site_calls)
    with open(result_path, "w", encoding="ascii") as fh:
        json.dump(record, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
