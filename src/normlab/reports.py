"""Experiment tables and deterministic CSV/JSON emission.

The CSV schema is frozen so downstream plotting stays stable; floats are
written with ``repr`` so emitted bytes are identical for identical inputs and
JSON round-trips exactly.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

__all__ = ["COLUMNS", "RatioTable", "emit_report"]

COLUMNS = (
    "experiment",
    "function",
    "space",
    "domain",
    "n",
    "p",
    "gamma_or_s",
    "value",
    "reference",
    "ratio",
    "flags",
    "grid",
    "seed",
)


def _fmt(v) -> str:
    if isinstance(v, (float, np.floating)):
        return repr(float(v))  # a numpy scalar's repr would name its type
    return str(v)


@dataclass
class RatioTable:
    """Rows keyed by (function, space, ...) with full provenance."""

    provenance: dict = field(default_factory=dict)
    rows: list[dict] = field(default_factory=list)

    def add_row(self, **kw):
        unknown = set(kw) - set(COLUMNS)
        if unknown:
            raise ValueError(f"unknown columns {sorted(unknown)}")
        row = {c: kw.get(c, "") for c in COLUMNS}
        ref = row["reference"]
        val = row["value"]
        if isinstance(ref, float) and isinstance(val, float):
            if ref != 0.0:
                row["ratio"] = val / ref
            else:
                row["ratio"] = float("nan")
                flags = str(row["flags"])
                tokens = [t for t in flags.split(";") if t]
                if "degenerate" not in tokens:
                    tokens.append("degenerate")
                row["flags"] = ";".join(tokens)
        self.rows.append(row)

    def to_csv_text(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(COLUMNS)
        for row in self.rows:
            writer.writerow(_fmt(row[c]) for c in COLUMNS)
        return buf.getvalue()

    def to_json_text(self) -> str:
        payload = {"provenance": self.provenance, "columns": list(COLUMNS), "rows": self.rows}
        return json.dumps(payload, sort_keys=True, indent=1) + "\n"

    @classmethod
    def from_json_text(cls, text: str) -> "RatioTable":
        payload = json.loads(text)
        return cls(provenance=payload["provenance"], rows=payload["rows"])


def emit_report(table: RatioTable, outdir, basename: str, formats=("csv", "json")) -> list[Path]:
    """Write the table; returns the created paths.  Raises on empty tables."""
    if not table.rows:
        raise ValueError("refusing to emit an empty table")
    out = Path(outdir)
    out.mkdir(parents=True, exist_ok=True)
    written = []
    if "csv" in formats:
        p = out / f"{basename}.csv"
        p.write_text(table.to_csv_text())
        written.append(p)
    if "json" in formats:
        p = out / f"{basename}.json"
        p.write_text(table.to_json_text())
        written.append(p)
    return written
