"""Separated d-intervals over a finite ground set of labeled points.

A *separated d-interval* is a disjoint union of d convex pieces, one per
level i in [1, d]; the point (x, i) lives on level i.  Fix a finite point
set P.  The convexity structure studied here takes as convex sets the
*traces* I ∩ P of separated d-intervals I: per level, a trace is a
contiguous run of P's sorted coordinates (or empty).  Everything else in
the workbench — nerves, sweep collapses, Helly numbers, piercing LPs —
is computed on these traces with exact rational arithmetic.

Queries check a family's ground once, with ``_runs`` (its run tuples),
then work on runs through package-private primitives: ``_meet`` and
``_joint`` (two, or one or more, run tuples intersected; None if empty),
``_levels`` (a joint's nonempty levels), ``_incidence`` (covered cells
(level − 1, index) in coordinate order, with the sets through each),
``_point`` (a cell's ``Point``) and ``_sweep_key`` (per-level last
indices, −1 on empty levels).  Over one ground the key orders traces
exactly as ``f_value``, its rendering: the per-level maxima,
lexicographic with −∞ below every finite value.  ``colorful_tuples`` is
the one prefix walk over members, for colorful tuples and for subsets;
it meets each member into the prefix's joint inline, as ``_meet`` does,
and counts the nonempty levels in the same loop.
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
    def _trusted(cls, d: int, levels: tuple) -> "PointSet":
        """Unchecked, for d levels sorted and distinct by construction."""
        ground = object.__new__(cls)
        object.__setattr__(ground, "d", d)
        object.__setattr__(ground, "levels", levels)
        return ground

    def level_coords(self, level: int) -> tuple[Fraction, ...]:
        return self.levels[level - 1]

    def points(self) -> Iterator[Point]:
        for i, coords in enumerate(self.levels, start=1):
            for c in coords:
                yield Point(c, i)

    def __len__(self) -> int:
        return sum(len(c) for c in self.levels)

    def index_of(self, p: Point) -> int:
        """Index of a point within its level's sorted coordinates."""
        coords = self.levels[p.level - 1] if 1 <= p.level <= self.d else ()
        i = bisect_left(coords, p.coord)
        if i == len(coords) or coords[i] != p.coord:
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
    def _trusted(cls, ground: PointSet, runs: tuple) -> "TraceSet":
        """Unchecked, for runs in range by construction.  Setting the fields
        one by one keeps the instance dict key-shared, a third the size."""
        trace = object.__new__(cls)
        object.__setattr__(trace, "ground", ground)
        object.__setattr__(trace, "runs", runs)
        return trace

    @classmethod
    def empty(cls, ground: PointSet) -> "TraceSet":
        return cls(ground, (None,) * ground.d)

    @property
    def is_empty(self) -> bool:
        return all(r is None for r in self.runs)

    def level_run(self, level: int) -> tuple[int, int] | None:
        return self.runs[level - 1]

    def points(self) -> tuple[Point, ...]:
        return tuple(
            Point(coords[i], lvl)
            for lvl, (run, coords) in enumerate(zip(self.runs, self.ground.levels), start=1)
            if run is not None
            for i in range(run[0], run[1] + 1)
        )

    def __len__(self) -> int:
        return sum(last - first + 1 for r in self.runs if r is not None for first, last in [r])

    def __contains__(self, p: Point) -> bool:
        try:
            i = self.ground.index_of(p)
        except ValueError:  # off the ground or off its levels
            return False
        run = self.runs[p.level - 1]
        return run is not None and run[0] <= i <= run[1]


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
        i = ground.index_of(p)
        if p.level in spans:
            lo, hi = spans[p.level]
            spans[p.level] = (min(lo, i), max(hi, i))
        else:
            spans[p.level] = (i, i)
    runs = tuple(spans.get(lvl) for lvl in range(1, ground.d + 1))
    return TraceSet(ground, runs)


def _point(ground: PointSet, cell: tuple[int, int]) -> Point:
    return Point(ground.levels[cell[0]][cell[1]], cell[0] + 1)


def _runs(family: Sequence[TraceSet]) -> list[tuple]:
    """The members' run tuples; every member must lie over the first
    one's ground set."""
    ground = family[0].ground if family else None
    for t in family:
        if t.ground is not ground and t.ground != ground:
            raise GroundSetMismatchError("traces lie over different ground sets")
    return [t.runs for t in family]


def _meet(a: tuple, b: tuple) -> tuple | None:
    """Per-level intersection of two run tuples; None when it is empty."""
    runs = []
    alive = False
    for ra, rb in zip(a, b):
        if ra is not None and rb is not None:
            first = ra[0] if ra[0] > rb[0] else rb[0]
            last = ra[1] if ra[1] < rb[1] else rb[1]
            if first <= last:
                runs.append((first, last))
                alive = True
                continue
        runs.append(None)
    return tuple(runs) if alive else None


def _joint(runs: Iterable[tuple]) -> tuple | None:
    """Intersection of one or more run tuples; None when it is empty."""
    first, *rest = runs
    joint = first if any(first) else None
    for r in rest:
        joint = joint and _meet(joint, r)
    return joint


def _levels(joint: tuple | None) -> int:
    """Number of nonempty levels of a joint (0 for None)."""
    return 0 if joint is None else len(joint) - joint.count(None)


def intersect_all(traces: Sequence[TraceSet]) -> tuple[TraceSet, int]:
    """Intersection of one or more traces plus its count of nonempty levels.

    The empty-family intersection is undefined here by design; callers
    that need the ambient set pass it explicitly.
    """
    if not traces:
        raise ValueError("intersect_all requires at least one trace")
    ground = traces[0].ground
    joint = _joint(_runs(traces))
    return TraceSet._trusted(ground, joint or (None,) * ground.d), _levels(joint)


def _incidence(family: Sequence[TraceSet]) -> dict[tuple[int, int], list[int]]:
    """The cells (level − 1, index) that some set covers, in coordinate
    order, each with the indices of the sets through it, ascending."""
    through: dict[tuple[int, int], list[int]] = {}
    for j, runs in enumerate(_runs(family)):
        for lvl, run in enumerate(runs):
            if run is not None:
                for k in range(run[0], run[1] + 1):
                    through.setdefault((lvl, k), []).append(j)
    return {cell: through[cell] for cell in sorted(through)}


def k_intersects(traces: Sequence[TraceSet], k: int) -> bool:
    """True when the common intersection meets at least k distinct levels."""
    return intersect_all(traces)[1] >= k


def colorful_tuples(
    families: Sequence[Sequence[TraceSet]], k: int, subsets: bool = False
) -> Iterator[tuple[tuple[int, ...], tuple | None, int]]:
    """Colorful tuples (one member from each family, by index) with their
    intersections, depth first in index order.

    Yields ``(indices, runs, levels)`` for every full tuple and, once,
    for each prefix whose intersection meets fewer than k levels; such a
    prefix is not extended, because intersections only shrink.  ``runs``
    is the intersection's run tuple, None when it is empty, and
    ``levels`` its count of nonempty levels; callers tell the two kinds
    of yield apart by ``levels < k``.  With k ≤ 0 no prefix is cut and
    the yields are exactly the full tuples.  With ``subsets`` each pick
    comes after the one before it and leaves room for the picks still to
    come, so ``[family] * r`` walks the r-subsets of one family in lex
    order.  Every member visited must lie over the first one's ground set.
    """
    if not families or not families[0]:
        return
    last = len(families) - 1
    ends = [len(fam) - (last - i if subsets else 0) for i, fam in enumerate(families)]
    ground = families[0][0].ground
    # picks[i] is the member taken from family i on the current prefix,
    # joints[i] the runs of the prefix's intersection through family i
    picks: list[int] = []
    joints: list[tuple | None] = []
    j = 0
    while True:
        i = len(picks)
        if j < ends[i]:
            t = families[i][j]
            if t.ground is not ground and t.ground != ground:
                raise GroundSetMismatchError("traces lie over different ground sets")
            if i:
                # _meet of the prefix's joint with the member, counting
                # the nonempty levels as it goes
                joint, runs, levels = joints[-1], None, 0
                if joint is not None:
                    meet = []
                    for ra, rb in zip(joint, t.runs):
                        if ra is not None and rb is not None:
                            lo = ra[0] if ra[0] > rb[0] else rb[0]
                            hi = ra[1] if ra[1] < rb[1] else rb[1]
                            if lo <= hi:
                                meet.append((lo, hi))
                                levels += 1
                                continue
                        meet.append(None)
                    if levels:
                        runs = tuple(meet)
            else:
                # an empty first member is an empty joint too
                levels = len(t.runs) - t.runs.count(None)
                runs = t.runs if levels else None
            if levels < k or i == last:
                yield (*picks, j), runs, levels
                j += 1
            else:
                picks.append(j)
                joints.append(runs)
                j = j + 1 if subsets else 0
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


def _sweep_key(runs: tuple) -> tuple[int, ...]:
    """The last index on each level, −1 where the level is empty."""
    return tuple(-1 if run is None else run[1] for run in runs)


def _key_value(ground: PointSet, key: tuple[int, ...]) -> LexValue:
    """A sweep key as its per-level maxima."""
    levels = ground.levels
    return LexValue(tuple(None if i < 0 else levels[lvl][i] for lvl, i in enumerate(key)))


def f_value(trace: TraceSet) -> LexValue:
    """Sweep value: per-level maxima with −∞ on empty levels."""
    return _key_value(trace.ground, _sweep_key(trace.runs))
