"""Seeded, deterministic instance generation.

Randomness is drawn from named streams: each stream seeds its own
``random.Random`` with a string key derived from the spec seed, so
corpus members can be produced independently and reproducibly.  All
generation arithmetic is on integers; rationals only appear downstream.
Each set is built in index space: its per-level window is bisected
against the level's int coordinates, which gives the trace of that
window without building the interval.  Since every set reads only its
own stream, conditioned sampling builds a draw's sets on first use.
"""

from __future__ import annotations

import itertools
import random
from bisect import bisect_left, bisect_right
from collections.abc import Callable, Sequence
from dataclasses import dataclass
from fractions import Fraction

from .config import guard_limit
from .errors import TheoremViolationError
from .geometry import Point, PointSet, TraceSet, colorful_tuples, intersect_all
from .helly import frac_helly_stats, radon_partition
from .piercing import pq_check
from .rationals import parse_rational


@dataclass(frozen=True)
class GenSpec:
    d: int
    points_per_level: tuple[int, ...]
    coord_range: tuple[int, int]
    n_sets: int
    presence: Fraction
    max_width: int
    seed: int
    n_families: int = 1
    tag: str = ""

    def __post_init__(self):
        if self.d < 1:
            raise ValueError("d must be ≥ 1")
        counts = self.points_per_level
        if isinstance(counts, int):
            counts = (counts,) * self.d
            object.__setattr__(self, "points_per_level", counts)
        if len(counts) != self.d:
            raise ValueError("one point count per level required")
        if any(c < 0 for c in counts):
            raise ValueError("point counts must be ≥ 0")
        lo, hi = self.coord_range
        if hi < lo:
            raise ValueError("empty coordinate range")
        if max(counts) > hi - lo + 1:
            raise ValueError("more points than distinct coordinates")
        presence = parse_rational(self.presence)
        if not 0 <= presence <= 1:
            raise ValueError("presence must be a probability")
        object.__setattr__(self, "presence", presence)
        if self.max_width < 0 or self.max_width > hi - lo:
            raise ValueError("width must fit inside the coordinate range")
        if self.n_sets < 0 or self.n_families < 1:
            raise ValueError("n_sets ≥ 0 and n_families ≥ 1 required")


def _stream(seed: int, name: str) -> random.Random:
    return random.Random(f"{seed}:{name}")


def _sample_distinct(rng: random.Random, lo: int, hi: int, count: int) -> list[int]:
    # partial Fisher–Yates: random.sample switches algorithms by input
    # size, this stays byte-stable
    pool = list(range(lo, hi + 1))
    for i in range(count):
        j = i + rng.randrange(len(pool) - i)
        pool[i], pool[j] = pool[j], pool[i]
    return sorted(pool[:count])


def _bernoulli(rng: random.Random, probability: Fraction) -> bool:
    return rng.randrange(probability.denominator) < probability.numerator


def _draw(spec: GenSpec, seed: int) -> tuple[PointSet, Callable[[int, int], TraceSet]]:
    """The ground set of the draw with this seed, and the builder of its
    set j in family fam.  Each level's run is the ground points inside
    the set's int window [start, start + width], found by bisection."""
    rng = _stream(seed, "points")
    lo, hi = spec.coord_range
    coords = [_sample_distinct(rng, lo, hi, count) for count in spec.points_per_level]
    ground = PointSet(spec.d, tuple(tuple(map(Fraction, level)) for level in coords))

    def build(fam: int, j: int) -> TraceSet:
        rng = _stream(seed, f"set:{fam}:{j}")
        runs = []
        for level in coords:
            if not _bernoulli(rng, spec.presence):
                runs.append(None)
                continue
            width = rng.randrange(spec.max_width + 1)
            start = rng.randrange(lo, hi - width + 1)
            first = bisect_left(level, start)
            last = bisect_right(level, start + width) - 1
            runs.append((first, last) if first <= last else None)
        return TraceSet(ground, tuple(runs))

    return ground, build


def gen_ground(spec: GenSpec) -> PointSet:
    return _draw(spec, spec.seed)[0]


def gen_instance(spec: GenSpec) -> tuple[PointSet, list[list[TraceSet]]]:
    """Ground set plus n_families families of n_sets traces each."""
    ground, build = _draw(spec, spec.seed)
    families = [
        [build(fam, j) for j in range(spec.n_sets)] for fam in range(spec.n_families)
    ]
    return ground, families


def gen_family(spec: GenSpec) -> tuple[PointSet, list[TraceSet]]:
    if spec.n_families != 1:
        raise ValueError("gen_family needs n_families == 1")
    ground, families = gen_instance(spec)
    return ground, families[0]


# ---------------------------------------------------------------------------
# extremal families


def _designated(ground: PointSet, designated) -> list[tuple[Fraction, Fraction]]:
    if designated is not None:
        out = [(parse_rational(a), parse_rational(b)) for a, b in designated]
        if len(out) != ground.d:
            raise ValueError("one designated pair per level required")
        for lvl, (a, b) in enumerate(out, start=1):
            if a == b:
                raise ValueError(f"designated pair on level {lvl} must be distinct")
            for c in (a, b):
                if Point(c, lvl) not in ground:
                    raise ValueError(f"designated coord {c} not on level {lvl}")
        return out
    out = []
    for lvl in range(1, ground.d + 1):
        coords = ground.level_coords(lvl)
        if len(coords) < 2:
            raise ValueError(f"level {lvl} needs at least 2 points")
        out.append((coords[0], coords[-1]))
    return out


def gen_helly_lower_bound(
    ground: PointSet, designated: Sequence[tuple] | None = None
) -> list[TraceSet]:
    """The 2d sets whose every (2d−1)-subfamily meets while the whole
    family does not: set k keeps a single designated point on level
    ⌈k/2⌉ (the first of the pair for odd k, the second for even) and the
    designated pair's full hull everywhere else."""
    d = ground.d
    pairs = _designated(ground, designated)
    family = []
    for k in range(1, 2 * d + 1):
        own_level = (k + 1) // 2
        runs = []
        for lvl in range(1, d + 1):
            a, b = pairs[lvl - 1]
            ia = ground.index_of(Point(a, lvl))
            ib = ground.index_of(Point(b, lvl))
            if lvl == own_level:
                keep = ia if k % 2 == 1 else ib
                runs.append((keep, keep))
            else:
                runs.append((min(ia, ib), max(ia, ib)))
        family.append(TraceSet(ground, tuple(runs)))

    if not intersect_all(family)[0].is_empty:
        raise TheoremViolationError(
            "lower-bound family unexpectedly has a common point"
        )
    for idx in itertools.combinations(range(2 * d), 2 * d - 1):
        if intersect_all([family[j] for j in idx])[0].is_empty:
            raise TheoremViolationError(
                "a (2d−1)-subfamily of the lower-bound family fails to meet",
                diagnostics={"subfamily": idx},
            )
    return family


def gen_radon_lower_bound(
    ground: PointSet, designated: Sequence[tuple] | None = None
) -> tuple[Point, ...]:
    """2d points (a designated pair per level) with no Radon partition."""
    pairs = _designated(ground, designated)
    points = tuple(
        Point(c, lvl)
        for lvl, (a, b) in enumerate(pairs, start=1)
        for c in (a, b)
    )
    if radon_partition(ground, points) is not None:
        raise TheoremViolationError(
            "lower-bound point set unexpectedly has a Radon partition"
        )
    return points


# ---------------------------------------------------------------------------
# conditioned sampling


@dataclass(frozen=True)
class ColorfulHellyProperty:
    k: int

    name = "colorful-helly-property"

    def families_needed(self, d: int) -> int:
        return 2 * d - self.k + 1

    def check(self, ground: PointSet, families) -> bool:
        if any(not fam for fam in families):
            return False
        # rejection sampling leans hard on the walk's cut of thin prefixes
        return all(
            joint.level_count >= self.k
            for _, joint in colorful_tuples(families, self.k)
        )


@dataclass(frozen=True)
class PqProperty:
    p: int
    q: int
    kind: str = "plain"

    @property
    def name(self) -> str:
        return f"pq-property({self.p},{self.q},{self.kind})"

    def families_needed(self, d: int) -> int:
        if self.kind == "plain":
            return 1
        return self.q if self.kind == "colorful-first" else self.p

    def check(self, ground: PointSet, families) -> bool:
        try:
            ok, _ = pq_check(families, self.p, self.q, self.kind)
        except ValueError:
            return False
        return ok


@dataclass(frozen=True)
class KIntersectRich:
    """At least alpha_min of the (2d−k+1)-subsets k-intersect."""

    k: int
    alpha_min: Fraction

    name = "k-intersect-rich"

    def families_needed(self, d: int) -> int:
        return 1

    def check(self, ground: PointSet, families) -> bool:
        alpha = frac_helly_stats(families[0], self.k).statistics.get("alpha")
        return alpha is not None and alpha >= self.alpha_min


class _LazyFamily(Sequence):
    """One family of a draw; set j is built on its first access (by an
    int index) and kept."""

    def __init__(self, build: Callable[[int, int], TraceSet], fam: int, n_sets: int):
        self._build, self._fam = build, fam
        self._sets: list[TraceSet | None] = [None] * n_sets

    def __len__(self) -> int:
        return len(self._sets)

    def __getitem__(self, j: int) -> TraceSet:
        t = self._sets[j]
        if t is None:
            j %= len(self._sets)
            t = self._sets[j] = self._build(self._fam, j)
        return t


@dataclass(frozen=True)
class ConditionedOutcome:
    found: bool
    ground: PointSet | None
    families: list[list[TraceSet]] | None
    draws: int
    predicate: str


def gen_conditioned(
    spec: GenSpec,
    predicate,
    cap_draws: int | None = None,
) -> ConditionedOutcome:
    """Rejection-sample instances until the predicate holds.

    The outcome reports how many draws it took; exhausting the cap is a
    structured failure, never an exception.  Draw t uses a seed derived
    from the spec's seed and t, so outcomes are reproducible and
    individual draws are independent.  The predicate sees families whose
    sets are built on first access, so a draw rejected early builds few;
    the accepted draw's families come back as plain lists, the same
    instance ``gen_instance`` gives for that draw's seed.
    """
    cap = guard_limit("DRAWS", cap_draws)
    needed = predicate.families_needed(spec.d)
    if spec.n_families != needed:
        raise ValueError(
            f"predicate {predicate.name} needs {needed} families, spec has {spec.n_families}"
        )
    for t in range(cap):
        ground, build = _draw(spec, spec.seed * 1_000_003 + t)
        families = [_LazyFamily(build, fam, spec.n_sets) for fam in range(spec.n_families)]
        if predicate.check(ground, families):
            families = [list(fam) for fam in families]
            return ConditionedOutcome(True, ground, families, t + 1, predicate.name)
    return ConditionedOutcome(False, None, None, cap, predicate.name)
