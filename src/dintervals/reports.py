"""Reports: JSON with exact rationals as strings, CSV as flat rows.

Timing lives in its own section so reproducibility checks can compare
everything else byte for byte.  Wherever a mapping holds a non-integer
rational, an advisory ``<key>_decimal`` sibling carries the float
rendering; the exact string stays authoritative.  A value of a type
no report holds, such as a set, renders as its ``str``.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any

from .geometry import LexValue, Point
from .rationals import decimal_repr, format_rational


def jsonify(value: Any) -> Any:
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, Fraction):
        return int(value) if value.denominator == 1 else format_rational(value)
    if isinstance(value, Point):
        return [format_rational(value.coord), value.level]
    if isinstance(value, LexValue):
        return [
            "-inf" if c is None else format_rational(c) for c in value.components
        ]
    if isinstance(value, dict):
        out = {}
        for k, v in value.items():
            key = str(k)
            out[key] = jsonify(v)
            if isinstance(v, Fraction) and v.denominator != 1:
                out[key + "_decimal"] = decimal_repr(v)
        return out
    if isinstance(value, (list, tuple)):
        return [jsonify(v) for v in value]
    return str(value)


@dataclass
class Report:
    command: str
    parameters: dict = field(default_factory=dict)
    verdicts: dict = field(default_factory=dict)
    witnesses: dict = field(default_factory=dict)
    statistics: dict = field(default_factory=dict)
    seed: int | None = None
    timing: dict = field(default_factory=dict)
    rows: list[dict] | None = None  # per-instance lines for CSV

    @property
    def passed(self) -> bool:
        return all(bool(v) for v in self.verdicts.values())

    def to_dict(self, include_timing: bool = True) -> dict:
        doc = {
            "command": self.command,
            "parameters": jsonify(self.parameters),
            "verdicts": jsonify(self.verdicts),
            "witnesses": jsonify(self.witnesses),
            "statistics": jsonify(self.statistics),
            "seed": self.seed,
        }
        if self.rows is not None:
            doc["instances"] = jsonify(self.rows)
        if include_timing:
            doc["timing"] = jsonify(self.timing)
        return doc

    def json_text(self, include_timing: bool = True) -> str:
        return (
            json.dumps(self.to_dict(include_timing), indent=2, sort_keys=True) + "\n"
        )

    def csv_text(self) -> str:
        rows = self.rows
        if rows is None:
            flat = {**self.parameters, **self.verdicts, **self.statistics}
            rows = [flat]
        rendered = [jsonify(row) for row in rows]
        fields: list[str] = []
        for row in rendered:
            for key in row:
                if key not in fields:
                    fields.append(key)
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=fields, restval="")
        writer.writeheader()
        for row in rendered:
            writer.writerow(
                {
                    k: json.dumps(v, sort_keys=True) if isinstance(v, (list, dict)) else v
                    for k, v in row.items()
                }
            )
        return buf.getvalue()


def emit_report(report: Report, format: str = "json", path: str | None = None) -> str:
    if format == "json":
        text = report.json_text()
    elif format == "csv":
        text = report.csv_text()
    else:
        raise ValueError(f"unknown report format {format!r}")
    if path is not None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    return text
