"""Seeded, deterministic instance generation.

Randomness is drawn from named streams: each stream seeds its own
``random.Random`` with a string key derived from the spec seed, so
corpus members can be produced independently and reproducibly.  All
generation arithmetic is on integers; rationals only appear downstream.
Each set is built in index space: its per-level window is bisected
against the level's int coordinates, which gives the trace of that
window without building the interval.  Since every set reads only its
own stream, conditioned sampling builds a draw's sets on first use.
A draw's ground converts each coordinate through a memo of Fractions,
which conditioned sampling shares across its draws, so each distinct
coordinate becomes a Fraction once per call.  Every bounded draw is
an inline loop of ``getrandbits`` until below n, as CPython's
``randrange`` draws, so the streams match it byte for byte.
"""

from __future__ import annotations

import random
from bisect import bisect_left, bisect_right
from collections.abc import Callable, Sequence
from dataclasses import dataclass
from fractions import Fraction

from .errors import TheoremViolationError
from .geometry import Point, PointSet, TraceSet, _joint, colorful_tuples
from .helly import _check_k, _colorful_work, _thin_colorful_tuple, frac_helly_stats, radon_partition
from .piercing import _check_pq_parameters, pq_check
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
    # partial Fisher–Yates, byte-stable (random.sample switches algorithms
    # by input size): step i picks slot j and moves slot i, which no later
    # step reads, into it; slot x not in pool holds lo + x, so memory is O(count)
    getrandbits = rng.getrandbits
    pool: dict[int, int] = {}
    picked = []
    for i in range(count):
        # rng.randrange(n), drawn as CPython's _randbelow_with_getrandbits
        n = hi - lo + 1 - i
        k = n.bit_length()
        r = getrandbits(k)
        while r >= n:
            r = getrandbits(k)
        j = i + r
        picked.append(pool.get(j, lo + j))
        pool[j] = pool.get(i, lo + i)
    return sorted(picked)


def _draw(
    spec: GenSpec, seed: int, fractions: dict[int, Fraction]
) -> tuple[PointSet, Callable[[int, int], TraceSet]]:
    """The ground set of the draw with this seed, and the builder of its
    set j in family fam.  Each level's run is the ground points inside
    the set's int window [start, start + width], found by bisection.
    Sorted distinct coordinates and bisected runs skip the public checks.
    ``fractions`` maps coordinates already converted to their Fractions;
    draws that share it convert each distinct coordinate once."""
    rng = _stream(seed, "points")
    lo, hi = spec.coord_range
    coords = [_sample_distinct(rng, lo, hi, count) for count in spec.points_per_level]
    levels = []
    for level in coords:
        row = []
        for c in level:
            f = fractions.get(c)
            if f is None:
                f = fractions[c] = Fraction(c)
            row.append(f)
        levels.append(tuple(row))
    ground = PointSet._trusted(spec.d, tuple(levels))
    # each bounded draw below is rng.randrange(n), drawn as CPython's
    # _randbelow_with_getrandbits: k = n.bit_length() bits until one is < n
    yes, chances = spec.presence.numerator, spec.presence.denominator
    chance_bits = chances.bit_length()
    widths = spec.max_width + 1
    width_bits = widths.bit_length()
    starts = hi + 1 - lo  # start = lo + randrange(starts - width)

    def build(fam: int, j: int) -> TraceSet:
        getrandbits = _stream(seed, f"set:{fam}:{j}").getrandbits
        runs = []
        for level in coords:
            r = getrandbits(chance_bits)
            while r >= chances:
                r = getrandbits(chance_bits)
            if r >= yes:
                runs.append(None)
                continue
            width = getrandbits(width_bits)
            while width >= widths:
                width = getrandbits(width_bits)
            n = starts - width
            k = n.bit_length()
            r = getrandbits(k)
            while r >= n:
                r = getrandbits(k)
            start = lo + r
            first = bisect_left(level, start)
            last = bisect_right(level, start + width) - 1
            runs.append((first, last) if first <= last else None)
        return TraceSet._trusted(ground, tuple(runs))

    return ground, build


def gen_ground(spec: GenSpec) -> PointSet:
    return _draw(spec, spec.seed, {})[0]


def gen_instance(spec: GenSpec) -> tuple[PointSet, list[list[TraceSet]]]:
    """Ground set plus n_families families of n_sets traces each."""
    ground, build = _draw(spec, spec.seed, {})
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


def _check_two_per_level(ground: PointSet) -> None:
    for lvl, coords in enumerate(ground.levels, start=1):
        if len(coords) < 2:
            raise ValueError(f"level {lvl} needs at least 2 points")


def gen_helly_lower_bound(ground: PointSet) -> list[TraceSet]:
    """The 2d sets whose every (2d−1)-subfamily meets while the whole
    family does not: set k keeps a single point on level ⌈k/2⌉ (the
    level's first point for odd k, its last for even) and the whole of
    every other level."""
    d = ground.d
    _check_two_per_level(ground)
    last = [len(coords) - 1 for coords in ground.levels]
    family = []
    for k in range(1, 2 * d + 1):
        own_level = (k + 1) // 2
        keep = 0 if k % 2 == 1 else last[own_level - 1]
        runs = [(0, n) for n in last]
        runs[own_level - 1] = (keep, keep)
        family.append(TraceSet(ground, tuple(runs)))

    if _joint(t.runs for t in family) is not None:
        raise TheoremViolationError("lower-bound family unexpectedly has a common point")
    for idx, joint, _ in colorful_tuples([family] * (2 * d - 1), 1, subsets=True):
        if joint is None:
            raise TheoremViolationError(
                "a subfamily of at most 2d−1 sets of the lower-bound family fails to meet",
                diagnostics={"subfamily": idx},
            )
    return family


def gen_radon_lower_bound(ground: PointSet) -> tuple[Point, ...]:
    """2d points, each level's first and last, with no Radon partition."""
    _check_two_per_level(ground)
    points = tuple(
        Point(c, lvl)
        for lvl, coords in enumerate(ground.levels, start=1)
        for c in (coords[0], coords[-1])
    )
    if radon_partition(ground, points) is not None:
        raise TheoremViolationError(
            "lower-bound point set unexpectedly has a Radon partition"
        )
    return points


# ---------------------------------------------------------------------------
# conditioned sampling


def _check_k_predicate(predicate, d: int, n_sets: int, least: int) -> None:
    """Refuse k outside [1, d] and families under ``least`` sets: no draw fits."""
    _check_k(predicate.k, d)
    if n_sets < least:
        raise ValueError(
            f"predicate {predicate.name} needs at least {least} sets per family, spec has {n_sets}"
        )


@dataclass(frozen=True)
class ColorfulHellyProperty:
    k: int

    name = "colorful-helly-property"

    def families_needed(self, d: int, n_sets: int) -> int:
        _check_k_predicate(self, d, n_sets, 1)
        arity = 2 * d - self.k + 1
        # a draw's colorful walk: n_sets^arity tuples of arity sets each
        _colorful_work([range(n_sets)] * arity)
        return arity

    def check(self, ground: PointSet, families) -> bool:
        return all(families) and _thin_colorful_tuple(families, self.k) is None


@dataclass(frozen=True)
class PqProperty:
    p: int
    q: int
    kind: str = "plain"

    def __post_init__(self):
        _check_pq_parameters(self.p, self.q, self.kind)

    @property
    def name(self) -> str:
        return f"pq-property({self.p},{self.q},{self.kind})"

    def families_needed(self, d: int, n_sets: int) -> int:
        if self.kind == "plain":
            return 1
        return self.q if self.kind == "colorful-first" else self.p

    def check(self, ground: PointSet, families) -> bool:
        ok, _ = pq_check(families, self.p, self.q, self.kind)
        return ok


@dataclass(frozen=True)
class KIntersectRich:
    """At least alpha_min of the (2d−k+1)-subsets k-intersect."""

    k: int
    alpha_min: Fraction

    name = "k-intersect-rich"

    def families_needed(self, d: int, n_sets: int) -> int:
        _check_k_predicate(self, d, n_sets, 2 * d - self.k + 1)
        if self.alpha_min > 1:  # α is a share of the subsets
            raise ValueError(f"predicate {self.name} needs alpha ≤ 1, spec has {self.alpha_min}")
        if self.alpha_min < 0:
            raise ValueError(f"predicate {self.name} needs alpha ≥ 0, spec has {self.alpha_min}")
        return 1

    def check(self, ground: PointSet, families) -> bool:
        alpha = frac_helly_stats(families[0], self.k).statistics.get("alpha")
        return alpha is not None and alpha >= self.alpha_min


class _LazyFamily(Sequence):
    """One family of a draw; set j is built on its first access, by an
    int index or inside a slice, and kept."""

    def __init__(self, build: Callable[[int, int], TraceSet], fam: int, n_sets: int):
        self._build, self._fam = build, fam
        self._sets: list[TraceSet | None] = [None] * n_sets

    def __len__(self) -> int:
        return len(self._sets)

    def __getitem__(self, j):
        t = self._sets[j]
        # None is a set not built yet and a list a slice of placeholders;
        # a built set passes with the one type test
        if type(t) is not TraceSet:
            if t is not None:
                return list(map(self.__getitem__, range(len(self._sets))[j]))
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


DRAW_CAP = 10 ** 5  # gen_conditioned's default draw cap, and gen --cap's


def gen_conditioned(
    spec: GenSpec,
    predicate,
    cap_draws: int = DRAW_CAP,
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
    if cap_draws < 1:
        raise ValueError("draw cap must be ≥ 1")
    needed = predicate.families_needed(spec.d, spec.n_sets)
    if spec.n_families != needed:
        raise ValueError(
            f"predicate {predicate.name} needs {needed} families, spec has {spec.n_families}"
        )
    fractions: dict[int, Fraction] = {}
    for t in range(cap_draws):
        ground, build = _draw(spec, spec.seed * 1_000_003 + t, fractions)
        families = [_LazyFamily(build, fam, spec.n_sets) for fam in range(spec.n_families)]
        if predicate.check(ground, families):
            families = [list(fam) for fam in families]
            return ConditionedOutcome(True, ground, families, t + 1, predicate.name)
    return ConditionedOutcome(False, None, None, cap_draws, predicate.name)
