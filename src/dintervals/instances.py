"""The JSON instance format.

A document carries the dimension, the ground points, the sets (per-level
closed pieces), and optionally index groups ("families") for colorful
inputs.  Coordinates travel as strings (or bare ints) so nothing is ever
rounded; parsing is strict by default and dies with a path-precise
message, a lenient flag downgrades unknown fields to warnings.
Canonical serialization shrinks every set to the minimal enclosing
pieces of its trace, so parse→serialize is idempotent.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from typing import Any

from .errors import SchemaError
from .geometry import (
    DInterval,
    LevelInterval,
    Point,
    PointSet,
    TraceSet,
    minimal_dinterval,
    trace_of,
)
from .rationals import format_rational, parse_rational

_TOP_FIELDS = {"d", "points", "sets", "families"}
_SET_FIELDS = {"name", "levels"}
_LEVEL_FIELDS = {"level", "lo", "hi"}


@dataclass
class Instance:
    ground: PointSet
    sets: list[TraceSet]
    names: list[str]
    families: list[list[int]] | None = None

    def family_traces(self) -> list[list[TraceSet]]:
        if self.families is None:
            return [list(self.sets)]
        return [[self.sets[j] for j in group] for group in self.families]


def _need(mapping: dict, key: str, path: str):
    if key not in mapping:
        raise SchemaError(path, f"missing required field {key!r}")
    return mapping[key]


def _as_int(value, path: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise SchemaError(path, f"expected an integer, got {value!r}")
    return value


def _as_coord(value, path: str) -> Fraction:
    try:
        return parse_rational(value)
    except (TypeError, ValueError) as exc:
        raise SchemaError(path, str(exc)) from None


def _check_fields(mapping: dict, allowed: set, path: str, strict: bool, warnings: list):
    for key in mapping:
        if key not in allowed:
            if strict:
                raise SchemaError(path, f"unknown field {key!r}")
            warnings.append(f"{path}: ignoring unknown field {key!r}")


def parse_instance(
    document: dict | str, strict: bool = True
) -> tuple[Instance, list[str]]:
    if isinstance(document, str):
        try:
            document = json.loads(document)
        except json.JSONDecodeError as exc:
            raise SchemaError("$", f"not valid JSON: {exc}") from None
        except RecursionError:
            raise SchemaError("$", "JSON nested too deeply") from None
    if not isinstance(document, dict):
        raise SchemaError("$", "top level must be an object")
    warnings: list[str] = []
    _check_fields(document, _TOP_FIELDS, "$", strict, warnings)

    d = _as_int(_need(document, "d", "$"), "$.d")
    if d < 1:
        raise SchemaError("$.d", "d must be ≥ 1")

    raw_points = _need(document, "points", "$")
    if not isinstance(raw_points, list):
        raise SchemaError("$.points", "expected an array")
    points = []
    for idx, entry in enumerate(raw_points):
        path = f"$.points[{idx}]"
        if not isinstance(entry, list) or len(entry) != 2:
            raise SchemaError(path, "expected a [coord, level] pair")
        coord = _as_coord(entry[0], path + "[0]")
        level = _as_int(entry[1], path + "[1]")
        if not 1 <= level <= d:
            raise SchemaError(path + "[1]", f"level {level} outside [1, {d}]")
        points.append(Point(coord, level))
    if len(set(points)) != len(points):
        raise SchemaError("$.points", "duplicate points")
    ground = PointSet.from_points(d, points)

    raw_sets = _need(document, "sets", "$")
    if not isinstance(raw_sets, list):
        raise SchemaError("$.sets", "expected an array")
    traces, names = [], []
    for s_idx, raw in enumerate(raw_sets):
        path = f"$.sets[{s_idx}]"
        if not isinstance(raw, dict):
            raise SchemaError(path, "expected an object")
        _check_fields(raw, _SET_FIELDS, path, strict, warnings)
        name = _need(raw, "name", path)
        if not isinstance(name, str):
            raise SchemaError(path + ".name", "expected a string")
        raw_levels = _need(raw, "levels", path)
        if not isinstance(raw_levels, list):
            raise SchemaError(path + ".levels", "expected an array")
        pieces: dict[int, tuple[Fraction, Fraction]] = {}
        for l_idx, piece in enumerate(raw_levels):
            lpath = f"{path}.levels[{l_idx}]"
            if not isinstance(piece, dict):
                raise SchemaError(lpath, "expected an object")
            _check_fields(piece, _LEVEL_FIELDS, lpath, strict, warnings)
            level = _as_int(_need(piece, "level", lpath), lpath + ".level")
            if not 1 <= level <= d:
                raise SchemaError(lpath + ".level", f"level {level} outside [1, {d}]")
            if level in pieces:
                raise SchemaError(lpath + ".level", f"duplicate level {level}")
            lo = _as_coord(_need(piece, "lo", lpath), lpath + ".lo")
            hi = _as_coord(_need(piece, "hi", lpath), lpath + ".hi")
            if lo > hi:
                raise SchemaError(
                    lpath, f"set {name!r} level {level}: lo {lo} > hi {hi}"
                )
            pieces[level] = (lo, hi)
        interval = DInterval(
            tuple(
                LevelInterval(*pieces[lvl]) if lvl in pieces else LevelInterval.empty()
                for lvl in range(1, d + 1)
            )
        )
        traces.append(trace_of(interval, ground))
        names.append(name)

    families = None
    if "families" in document:
        raw_fams = document["families"]
        if not isinstance(raw_fams, list):
            raise SchemaError("$.families", "expected an array")
        families = []
        for f_idx, group in enumerate(raw_fams):
            path = f"$.families[{f_idx}]"
            if not isinstance(group, list):
                raise SchemaError(path, "expected an array of set indices")
            cleaned = []
            for g_idx, member in enumerate(group):
                member = _as_int(member, f"{path}[{g_idx}]")
                if not 0 <= member < len(traces):
                    raise SchemaError(
                        f"{path}[{g_idx}]",
                        f"set index {member} outside [0, {len(traces) - 1}]",
                    )
                cleaned.append(member)
            families.append(cleaned)

    return Instance(ground, traces, names, families), warnings


def serialize_trace(trace: TraceSet, name: str | None = None) -> dict:
    interval = minimal_dinterval(trace)
    levels = []
    for lvl in range(1, trace.ground.d + 1):
        piece = interval.levels[lvl - 1]
        if not piece.is_empty:
            levels.append(
                {
                    "level": lvl,
                    "lo": format_rational(piece.lo),
                    "hi": format_rational(piece.hi),
                }
            )
    if name is None:
        return {"levels": levels}
    return {"name": name, "levels": levels}


def serialize_instance(instance: Instance) -> dict:
    pts = sorted(instance.ground.points(), key=lambda p: (p.level, p.coord))
    doc: dict[str, Any] = {
        "d": instance.ground.d,
        "points": [[format_rational(p.coord), p.level] for p in pts],
        "sets": [
            serialize_trace(t, name)
            for t, name in zip(instance.sets, instance.names)
        ],
    }
    if instance.families is not None:
        doc["families"] = [list(group) for group in instance.families]
    return doc


def dump_instance(instance: Instance) -> str:
    return json.dumps(serialize_instance(instance), indent=2, sort_keys=True) + "\n"
