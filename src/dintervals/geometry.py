"""Separated d-intervals over a finite ground set of labeled points.

A *separated d-interval* is a disjoint union of d convex pieces, one per
level i in [1, d]; the point (x, i) lives on level i.  Fix a finite point
set P.  The convexity structure studied here takes as convex sets the
*traces* I ∩ P of separated d-intervals I: per level, a trace is a
contiguous run of P's sorted coordinates (or empty).  Everything else in
the workbench — nerves, sweep collapses, Helly numbers, piercing LPs —
is computed on these traces with exact rational arithmetic.

The sweep order compares traces through ``f_value``: the vector of
per-level maxima (−∞ on empty levels), ordered lexicographically with
−∞ below every finite value.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import total_ordering
from typing import Iterable, Iterator, NamedTuple, Sequence

from .errors import DimensionMismatchError, GroundSetMismatchError
from .rationals import format_rational, parse_rational


class Point(NamedTuple):
    """A coordinate on a labeled level; levels are 1-based."""

    coord: Fraction
    level: int


@dataclass(frozen=True)
class PointSet:
    """Finite ground set: strictly increasing coordinates per level.

    ``levels[i]`` holds the sorted coordinates of level i+1; a level may
    be empty.  Duplicate points are rejected on construction.
    """

    d: int
    levels: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self):
        if self.d < 1:
            raise ValueError("d must be at least 1")
        if len(self.levels) != self.d:
            raise DimensionMismatchError(
                f"expected {self.d} coordinate levels, got {len(self.levels)}"
            )
        for coords in self.levels:
            if any(b <= a for a, b in zip(coords, coords[1:])):
                raise ValueError("level coordinates must be strictly increasing")

    @classmethod
    def from_points(cls, d: int, points: Iterable[Point]) -> "PointSet":
        buckets: list[list[Fraction]] = [[] for _ in range(d)]
        for p in points:
            coord = parse_rational(p.coord)
            if not 1 <= p.level <= d:
                raise ValueError(f"point level {p.level} outside [1, {d}]")
            buckets[p.level - 1].append(coord)
        levels = []
        for coords in buckets:
            coords.sort()
            for a, b in zip(coords, coords[1:]):
                if a == b:
                    raise ValueError(f"duplicate point at coordinate {a}")
            levels.append(tuple(coords))
        return cls(d, tuple(levels))

    def level_coords(self, level: int) -> tuple[Fraction, ...]:
        return self.levels[level - 1]

    def points(self) -> Iterator[Point]:
        for i, coords in enumerate(self.levels, start=1):
            for c in coords:
                yield Point(c, i)

    def __len__(self) -> int:
        return sum(len(c) for c in self.levels)

    def __contains__(self, p: Point) -> bool:
        if not 1 <= p.level <= self.d:
            return False
        coords = self.levels[p.level - 1]
        i = bisect_left(coords, p.coord)
        return i < len(coords) and coords[i] == p.coord

    def index_of(self, p: Point) -> int:
        """Index of a point within its level's sorted coordinates."""
        coords = self.levels[p.level - 1]
        i = bisect_left(coords, p.coord)
        if i >= len(coords) or coords[i] != p.coord:
            raise ValueError(f"point {p} not in ground set")
        return i


@dataclass(frozen=True)
class LevelInterval:
    """One closed convex piece on a level: [lo, hi], or empty (both None)."""

    lo: Fraction | None
    hi: Fraction | None

    def __post_init__(self):
        if (self.lo is None) != (self.hi is None):
            raise ValueError("lo and hi must be both set or both None")
        if self.lo is not None and self.lo > self.hi:
            raise ValueError(f"empty-by-order interval [{self.lo}, {self.hi}]")

    @classmethod
    def empty(cls) -> "LevelInterval":
        return cls(None, None)

    @classmethod
    def make(cls, lo, hi) -> "LevelInterval":
        return cls(parse_rational(lo), parse_rational(hi))

    @property
    def is_empty(self) -> bool:
        return self.lo is None


@dataclass(frozen=True)
class DInterval:
    """A separated d-interval: one (possibly empty) piece per level."""

    levels: tuple[LevelInterval, ...]

    @property
    def d(self) -> int:
        return len(self.levels)

    @classmethod
    def from_pairs(cls, d: int, pairs: dict[int, tuple] ) -> "DInterval":
        """Build from {level: (lo, hi)}; unmentioned levels are empty."""
        pieces = []
        for lvl in range(1, d + 1):
            if lvl in pairs:
                lo, hi = pairs[lvl]
                pieces.append(LevelInterval.make(lo, hi))
            else:
                pieces.append(LevelInterval.empty())
        return cls(tuple(pieces))


@dataclass(frozen=True)
class TraceSet:
    """Trace of a separated d-interval on a ground set.

    ``runs[i]`` is either None (level i+1 empty) or an inclusive index
    pair (first, last) into the ground set's sorted level coordinates.
    Contiguity of each run is exactly what makes the set a trace.
    """

    ground: PointSet
    runs: tuple[tuple[int, int] | None, ...]

    def __post_init__(self):
        if len(self.runs) != self.ground.d:
            raise DimensionMismatchError("one run per level required")
        for lvl, run in enumerate(self.runs, start=1):
            if run is None:
                continue
            first, last = run
            if not (0 <= first <= last < len(self.ground.level_coords(lvl))):
                raise ValueError(f"run {run} out of range on level {lvl}")

    @classmethod
    def empty(cls, ground: PointSet) -> "TraceSet":
        return cls(ground, (None,) * ground.d)

    @classmethod
    def from_points(cls, ground: PointSet, points: Iterable[Point]) -> "TraceSet":
        """Build from explicit points; raises if any level is not contiguous."""
        indices: dict[int, list[int]] = {}
        for p in points:
            indices.setdefault(p.level, []).append(ground.index_of(p))
        runs: list[tuple[int, int] | None] = []
        for lvl in range(1, ground.d + 1):
            idx = sorted(indices.get(lvl, []))
            if not idx:
                runs.append(None)
                continue
            if idx[-1] - idx[0] + 1 != len(set(idx)):
                raise ValueError(f"points on level {lvl} are not a contiguous run")
            runs.append((idx[0], idx[-1]))
        return cls(ground, tuple(runs))

    @property
    def is_empty(self) -> bool:
        return all(r is None for r in self.runs)

    @property
    def level_count(self) -> int:
        """Number of levels on which the trace is nonempty."""
        return sum(1 for r in self.runs if r is not None)

    def level_run(self, level: int) -> tuple[int, int] | None:
        return self.runs[level - 1]

    def level_points(self, level: int) -> tuple[Point, ...]:
        run = self.runs[level - 1]
        if run is None:
            return ()
        coords = self.ground.level_coords(level)
        return tuple(Point(coords[i], level) for i in range(run[0], run[1] + 1))

    def points(self) -> tuple[Point, ...]:
        out: list[Point] = []
        for lvl in range(1, self.ground.d + 1):
            out.extend(self.level_points(lvl))
        return tuple(out)

    def __len__(self) -> int:
        return sum(last - first + 1 for r in self.runs if r is not None for first, last in [r])

    def __contains__(self, p: Point) -> bool:
        if not 1 <= p.level <= self.ground.d:
            return False
        run = self.runs[p.level - 1]
        if run is None:
            return False
        coords = self.ground.level_coords(p.level)
        i = bisect_left(coords, p.coord)
        if i >= len(coords) or coords[i] != p.coord:
            return False
        return run[0] <= i <= run[1]

    def level_max(self, level: int) -> Fraction | None:
        run = self.runs[level - 1]
        if run is None:
            return None
        return self.ground.level_coords(level)[run[1]]

    def level_min(self, level: int) -> Fraction | None:
        run = self.runs[level - 1]
        if run is None:
            return None
        return self.ground.level_coords(level)[run[0]]


@total_ordering
@dataclass(frozen=True)
class LexValue:
    """Per-level maxima vector; None encodes −∞.

    Total lexicographic order with −∞ strictly below every finite value.
    """

    components: tuple[Fraction | None, ...]

    def _key(self):
        return tuple((0,) if c is None else (1, c) for c in self.components)

    def __lt__(self, other: "LexValue") -> bool:
        if len(self.components) != len(other.components):
            raise DimensionMismatchError("comparing values of different lengths")
        return self._key() < other._key()

    def first_finite(self) -> tuple[int, Fraction]:
        """(level, value) of the first finite component; raises if all −∞."""
        for i, c in enumerate(self.components, start=1):
            if c is not None:
                return i, c
        raise ValueError("all components are -inf")

    def finite_items(self) -> tuple[tuple[int, Fraction], ...]:
        return tuple(
            (i, c) for i, c in enumerate(self.components, start=1) if c is not None
        )

    def __str__(self) -> str:
        parts = ["-inf" if c is None else format_rational(c) for c in self.components]
        return "(" + ", ".join(parts) + ")"


# ---------------------------------------------------------------------------
# operations


def trace_of(interval: DInterval, ground: PointSet) -> TraceSet:
    """Trace of a separated d-interval on a ground set."""
    if interval.d != ground.d:
        raise DimensionMismatchError(
            f"interval has {interval.d} levels, ground set has {ground.d}"
        )
    runs: list[tuple[int, int] | None] = []
    for lvl in range(1, ground.d + 1):
        piece = interval.levels[lvl - 1]
        if piece.is_empty:
            runs.append(None)
            continue
        coords = ground.level_coords(lvl)
        first = bisect_left(coords, piece.lo)
        last = bisect_right(coords, piece.hi) - 1
        runs.append((first, last) if first <= last else None)
    return TraceSet(ground, tuple(runs))


def hull(ground: PointSet, subset: Iterable[Point]) -> TraceSet:
    """Smallest trace containing the given points of the ground set.

    Per level this is the run between the subset's extreme coordinates;
    points outside the ground set are an error.
    """
    spans: dict[int, tuple[int, int]] = {}
    for p in subset:
        if p not in ground:
            raise ValueError(f"point {p} not in ground set")
        i = ground.index_of(p)
        if p.level in spans:
            lo, hi = spans[p.level]
            spans[p.level] = (min(lo, i), max(hi, i))
        else:
            spans[p.level] = (i, i)
    runs = tuple(spans.get(lvl) for lvl in range(1, ground.d + 1))
    return TraceSet(ground, runs)


def intersect_all(traces: Sequence[TraceSet]) -> tuple[TraceSet, int]:
    """Intersection of one or more traces plus its count of nonempty levels.

    The empty-family intersection is undefined here by design; callers
    that need the ambient set pass it explicitly.
    """
    if not traces:
        raise ValueError("intersect_all requires at least one trace")
    ground = traces[0].ground
    for t in traces[1:]:
        if t.ground != ground:
            raise GroundSetMismatchError("traces lie over different ground sets")
    runs: list[tuple[int, int] | None] = []
    for lvl in range(ground.d):
        first, last = 0, len(ground.levels[lvl]) - 1
        alive = last >= 0
        for t in traces:
            run = t.runs[lvl]
            if run is None:
                alive = False
                break
            first = max(first, run[0])
            last = min(last, run[1])
        runs.append((first, last) if alive and first <= last else None)
    trace = TraceSet(ground, tuple(runs))
    return trace, trace.level_count


def k_intersects(traces: Sequence[TraceSet], k: int) -> bool:
    """True when the common intersection meets at least k distinct levels."""
    return intersect_all(traces)[1] >= k


def colorful_tuples(
    families: Sequence[Sequence[TraceSet]], k: int
) -> Iterator[tuple[tuple[int, ...], TraceSet]]:
    """Colorful tuples (one member from each family, by index) with their
    intersections, depth first in index order.

    Yields ``(indices, intersection)`` for every full tuple and, once,
    for each prefix whose intersection meets fewer than k levels; such a
    prefix is not extended, because intersections only shrink.  Callers
    tell the two apart by ``intersection.level_count < k``.  With k ≤ 0
    no prefix is cut and the yields are exactly the full tuples.
    """
    if not families:
        return
    last = len(families) - 1
    # picks[i] is the member taken from family i on the current prefix,
    # joints[i] the intersection of the prefix through family i
    picks: list[int] = []
    joints: list[TraceSet] = []
    j = 0
    while True:
        i = len(picks)
        if j < len(families[i]):
            t = families[i][j]
            if i:
                joint, levels = intersect_all([joints[-1], t])
            else:
                joint, levels = t, t.level_count
            if levels < k or i == last:
                yield (*picks, j), joint
                j += 1
            else:
                picks.append(j)
                joints.append(joint)
                j = 0
        elif picks:
            j = picks.pop() + 1
            joints.pop()
        else:
            return


def minimal_dinterval(trace: TraceSet) -> DInterval:
    """Smallest separated d-interval whose trace is the given one."""
    pieces = []
    for lvl in range(1, trace.ground.d + 1):
        run = trace.level_run(lvl)
        if run is None:
            pieces.append(LevelInterval.empty())
        else:
            coords = trace.ground.level_coords(lvl)
            pieces.append(LevelInterval(coords[run[0]], coords[run[1]]))
    return DInterval(tuple(pieces))


def f_value(trace: TraceSet) -> LexValue:
    """Sweep value: per-level maxima with −∞ on empty levels."""
    return LexValue(tuple(trace.level_max(lvl) for lvl in range(1, trace.ground.d + 1)))
