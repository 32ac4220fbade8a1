"""Experiment reports: deterministic CSV rows plus a JSON config echo.

Re-running with the same config and master seed must reproduce the CSV
byte-for-byte, so rows are emitted in trial order and all values are
rendered with repr-stable formatting.
"""

from __future__ import annotations

import csv
import io
import json
import os
import statistics
from dataclasses import dataclass, field


@dataclass
class ExperimentReport:
    kind: str
    columns: tuple[str, ...]
    config: dict
    master_seed: int
    version: str
    rows: list[tuple] = field(default_factory=list)

    def add(self, *row) -> None:
        if len(row) != len(self.columns):
            raise ValueError(f"row arity {len(row)} != {len(self.columns)}")
        self.rows.append(tuple(row))

    def csv_text(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(self.columns)
        for row in self.rows:
            writer.writerow(row)
        return buf.getvalue()

    def summary(self) -> dict:
        out = {
            "kind": self.kind,
            "config": self.config,
            "master_seed": self.master_seed,
            "version": self.version,
            "rows": len(self.rows),
        }
        for col in ("error_fraction", "decoded_ok", "confused"):
            if col in self.columns:
                i = self.columns.index(col)
                vals = [float(r[i]) for r in self.rows]
                if vals:
                    out[f"{col}_mean"] = statistics.fmean(vals)
                    out[f"{col}_stdev"] = statistics.pstdev(vals)
        return out

    def summary_text(self) -> str:
        """``summary()`` as indented JSON with sorted keys and a final newline."""
        return json.dumps(self.summary(), indent=2, sort_keys=True) + "\n"

    def write(self, csv_path, summary_path) -> None:
        atomic_write_text(csv_path, self.csv_text())
        atomic_write_text(summary_path, self.summary_text())


def read_lines(path, parse, keep_blank: bool = False) -> dict:
    """``{line number: parse(line)}`` over the stripped lines of an ASCII text file.

    Lines end at universal newlines, and those starting with ``#`` are
    comments.  Blank lines are skipped, or parsed too when ``keep_blank``.
    A ``ValueError`` from decoding a line or from ``parse`` is raised again
    with ``path:line`` in front of its message.
    """
    out = {}
    with open(path, "rb") as fh:
        lines = fh.read().splitlines()  # bytes split at \n, \r and \r\n, as text mode does
    for lineno, raw in enumerate(lines, start=1):
        try:
            line = raw.decode("ascii").strip()
            if line.startswith("#") or not (line or keep_blank):
                continue
            out[lineno] = parse(line)
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: {exc}") from exc
    return out


def atomic_write_text(path, text: str) -> None:
    """Write via a temp file and rename: errors never leave partial output.

    The temp file gets a fresh name beside ``path``, so runs writing the same
    output never share one, and it is removed when the write fails.
    """
    path = os.fspath(path)
    tmp = f"{path}.{os.urandom(8).hex()}.tmp"
    fh = open(tmp, "x", encoding="ascii")
    try:
        with fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise

