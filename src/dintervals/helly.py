"""Radon, Helly, colorful Helly and fractional Helly procedures.

Everything here is constructive and exhaustively re-verified: Radon
partitions by one rule, the middle of three cells on one level alone
against the rest, checked by meeting the sides' index spans
(``RadonPartition.verify`` intersects their hulls again), witness
subfamilies by recomputing sweep values, colorful selections by direct
membership of the returned points.  Brute-force counterparts (used by
tests as oracles) live beside the constructions.

The Radon rule runs on cells (level − 1, index); points appear only in
the partitions it returns.  Outside ``RadonPartition.verify`` and those
checks, queries read the runs: point counts via ``geometry._incidence``,
subsets and colorful tuples via the one walk ``geometry.colorful_tuples``
(its colorful precondition walk, ``_thin_colorful_tuple``, is the
sampler's too), sweep comparisons via ``geometry._sweep_key``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from math import comb, prod
from typing import Iterable, Sequence

from .config import check_guard, guard_limit
from .errors import (
    GuardExceededError,
    PreconditionError,
    TheoremViolationError,
)
from .geometry import (
    LexValue, Point, PointSet, TraceSet, _incidence, _joint, _key_value, _levels, _meet,
    _point, _runs, _sweep_key, colorful_tuples, hull, intersect_all,
)
from .piercing import max_point_cover


@dataclass(frozen=True)
class RadonPartition:
    side_a: tuple[Point, ...]
    side_b: tuple[Point, ...]
    witness: Point

    def verify(self, ground: PointSet) -> bool:
        if set(self.side_a) & set(self.side_b):
            return False
        ha = hull(ground, self.side_a)
        hb = hull(ground, self.side_b)
        joint, _ = intersect_all([ha, hb])
        return self.witness in joint


@dataclass
class HellyReport:
    parameters: dict
    verdict: bool
    witnesses: dict = field(default_factory=dict)
    statistics: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# Radon


def _least_meet(side_a, side_b, d: int) -> tuple[int, int] | None:
    """Least cell in both sides' hulls, or None when the hulls miss.  A
    side lists cells in (level, index) order, so its hull on a level
    runs from its first to its last cell there."""
    spans = [[None] * d, [None] * d]
    for runs, side in zip(spans, (side_a, side_b)):
        for lvl, i in side:
            runs[lvl] = (i, i) if runs[lvl] is None else (runs[lvl][0], i)
    meet = _meet(*spans) or ()
    return next(((lvl, run[0]) for lvl, run in enumerate(meet) if run is not None), None)


def _radon_cells(ground: PointSet, cells: Sequence[tuple[int, int]]):
    """``radon_partition`` on distinct cells (level − 1, index) in
    order: ``(side_a, side_b, witness)`` as cells, or None.

    A middle is a cell with a neighbour on both sides within its level;
    side b is one middle, side a everything else, and the middle is the
    witness.  From 2d+1 cells it is the first middle, below that the
    last, which is the first split of the walk over all splits."""
    d = ground.d
    middles = [cells[j + 1] for j in range(len(cells) - 2) if cells[j][0] == cells[j + 2][0]]
    if not middles:
        return None
    middle = middles[0] if len(cells) >= 2 * d + 1 else middles[-1]
    side_a = [c for c in cells if c != middle]
    if _least_meet(side_a, [middle], d) != middle:
        raise TheoremViolationError(
            "constructed partition failed verification",
            diagnostics={"subset": tuple(_point(ground, c) for c in cells)},
        )
    return side_a, [middle], middle


def radon_partition(ground: PointSet, subset: Iterable[Point]) -> RadonPartition | None:
    """Split the points into two parts with intersecting hulls.

    A split exists exactly when some level holds three of the points: the
    middle one of three alone against everything else works, with itself
    as witness, and with two or fewer on every level the sides' index
    spans meet on no level.  With 2d+1 or more points (three then share a level)
    side b is the second point on the first level that holds three; below
    that it is the second-to-last point on the last such level, the first
    split in product order over all 2^(n−1) splits (the first point fixed
    on side a, the next one the most significant bit).  None is
    definitive.
    """
    cells = sorted({(p.level - 1, ground.index_of(p)) for p in subset})
    if len(cells) < 2 * ground.d + 1:
        check_guard("RADON_POINTS", "radon subset size", len(cells))
    found = _radon_cells(ground, cells)
    if found is None:
        return None
    side_a, side_b, witness = found
    return RadonPartition(
        tuple(_point(ground, c) for c in side_a),
        tuple(_point(ground, c) for c in side_b),
        _point(ground, witness),
    )


def radon_number_bruteforce(ground: PointSet, cap: int) -> int | None:
    """Smallest n ≤ cap such that every n-subset splits; None past cap.

    When no n-subset exists (n > |P|) the condition holds vacuously.
    """
    if cap < 1:
        raise ValueError("radon cap must be ≥ 1")
    check_guard("RADON_POINTS", "ground set size", len(ground))
    cells = [(lvl, i) for lvl, coords in enumerate(ground.levels) for i in range(len(coords))]
    for n in range(1, cap + 1):
        if all(
            _radon_cells(ground, subset) is not None
            for subset in itertools.combinations(cells, n)
        ):
            return n
    return None


# ---------------------------------------------------------------------------
# Helly


def _check_k(k: int, d: int) -> None:
    if not 1 <= k <= d:
        raise ValueError(f"k must lie in [1, {d}]")


def helly_check(family: Sequence[TraceSet], m: int, k: int = 1) -> HellyReport:
    """Does "every ≤ m sets k-intersect" force the whole family to?

    The verdict is the implication itself; a violation ships the whole
    family's deficient intersection as witness.  The subset walk goes
    size by size, so its first thin yield is a full subset of the least
    size; each yield counts its size against the (p,q) work guard.
    """
    if m < 1:
        raise ValueError("m must be ≥ 1")
    report = HellyReport({"m": m, "k": k, "family_size": len(family)}, True)
    if not family:
        return report
    ground = family[0].ground
    _check_k(k, ground.d)
    joint = _joint(_runs(family))

    limit = guard_limit("PQ_WORK")
    work = 0
    hypothesis = True
    for size in range(1, min(m, len(family)) + 1):
        for idx, _, levels in colorful_tuples([family] * size, k, subsets=True):
            work += size
            if work > limit:
                raise GuardExceededError("helly subset enumeration", work, limit)
            if levels < k:
                hypothesis = False
                report.statistics["failing_hypothesis_subfamily"] = idx
                break
        if not hypothesis:
            break
    levels = _levels(joint)
    report.statistics["intersection_levels"] = levels
    report.verdict = (not hypothesis) or levels >= k
    if not report.verdict:
        report.witnesses["violating_family"] = tuple(range(len(family)))
        report.witnesses["intersection_points"] = (
            () if joint is None else TraceSet._trusted(ground, joint).points()
        )
    return report


def maxima_witness_subfamily(family: Sequence[TraceSet], k: int) -> tuple[int, ...]:
    """Indices of ≤ 2d−k sets whose intersection has the same sweep value
    as the whole family's.

    Per empty level: one set that misses the level outright, otherwise a
    pair whose minimal enclosing level intervals are disjoint (the
    extreme candidates; if even those met, the level could not be
    empty).  Per finite level: the set with the least level maximum.
    """
    if not family:
        raise PreconditionError("family is empty")
    d = family[0].ground.d
    _check_k(k, d)
    runs = _runs(family)
    joint = _joint(runs)
    if (levels := _levels(joint)) < k:
        raise PreconditionError(
            f"family meets only {levels} levels, needs {k}",
            witness=tuple(range(len(family))),
        )
    target = _sweep_key(joint)
    members = range(len(family))
    chosen: list[int] = []
    for lvl in range(d):
        if target[lvl] >= 0:
            chosen.append(min(members, key=lambda j: (runs[j][lvl][1], j)))
            continue
        empties = [j for j in members if runs[j][lvl] is None]
        if empties:
            chosen.append(empties[0])
            continue
        j_lo = max(members, key=lambda j: (runs[j][lvl][0], -j))
        j_hi = min(members, key=lambda j: (runs[j][lvl][1], j))
        if runs[j_lo][lvl][0] <= runs[j_hi][lvl][1]:
            raise TheoremViolationError(
                "extreme enclosing intervals meet on an empty level",
                diagnostics={"level": lvl + 1},
            )
        chosen.extend([j_lo, j_hi])
    indices = tuple(sorted(set(chosen)))
    if len(indices) > 2 * d - k:
        raise TheoremViolationError(
            f"witness has {len(indices)} sets, exceeding {2 * d - k}",
            diagnostics={"indices": indices},
        )
    sub_joint = _joint(runs[j] for j in indices)
    if sub_joint is None or _sweep_key(sub_joint) != target:
        raise TheoremViolationError(
            "witness subfamily changes the sweep value",
            diagnostics={"indices": indices},
        )
    return indices


# ---------------------------------------------------------------------------
# colorful Helly


def _colorful_work(families: Sequence[Sequence[TraceSet]]) -> int:
    """Number of colorful tuples; raises when that times the family count
    exceeds the work guard."""
    work = prod(len(fam) for fam in families)
    check_guard("PQ_WORK", "colorful tuple enumeration", work * len(families))
    return work


def _thin_colorful_tuple(families: Sequence[Sequence[TraceSet]], k: int) -> tuple[int, ...] | None:
    """A colorful tuple below k levels, or None: the walk's first thin
    prefix padded with zeros, since any completion of it serves.
    Rejection sampling leans hard on that cut of thin prefixes."""
    for combo, _, levels in colorful_tuples(families, k):
        if levels < k:
            return combo + (0,) * (len(families) - len(combo))
    return None


@dataclass(frozen=True)
class ColorfulSelection:
    points: tuple[Point, ...]
    designated: int
    minimizing_tuple: tuple[int, ...]
    minimum: LexValue


def colorful_helly_points(
    families: Sequence[Sequence[TraceSet]],
    k: int,
    designated: int | None = None,
) -> ColorfulSelection:
    """Pick k points shared by every member of one family.

    Requires 2d−k+1 nonempty families such that every colorful tuple
    (one member from each) k-intersects; ``_thin_colorful_tuple``, the
    one precondition walk, which the sampler shares, checks that and
    gives the witness.  The sweep value is minimized over all colorful
    (2d−k)-tuples, i.e. one member from each family except one; the
    points are the first k finite components of the minimum, and the
    family the minimizer omits is the one whose every member must
    contain them.  Passing ``designated`` instead restricts the
    minimization to the other families and asserts the claim for that
    fixed family — a strictly stronger statement that can fail; the
    failure is reported as a violation with full diagnostics.
    """
    if not families or not all(families):
        raise ValueError("families must be nonempty")
    ground = families[0][0].ground
    d = ground.d
    _check_k(k, d)
    arity = 2 * d - k + 1
    if len(families) != arity:
        raise ValueError(f"expected {arity} families, got {len(families)}")
    if designated is not None and not 0 <= designated < arity:
        raise ValueError("designated index out of range")

    _colorful_work(families)
    if (thin := _thin_colorful_tuple(families, k)) is not None:
        raise PreconditionError("a colorful tuple fails to k-intersect", witness=thin)

    omit_candidates = range(arity) if designated is None else (designated,)
    empty = (-1,) * d
    key, claim_family, combo = min(
        (empty if runs is None else _sweep_key(runs), omit, combo)
        for omit in omit_candidates
        for combo, runs, _ in colorful_tuples(
            [fam for i, fam in enumerate(families) if i != omit], 0
        )
    )
    minimum = _key_value(ground, key)
    finite = [(lvl, a) for lvl, a in enumerate(minimum.components, start=1) if a is not None]
    if len(finite) < k:
        raise TheoremViolationError(
            "minimizing tuple meets fewer levels than k",
            diagnostics={"tuple": combo, "value": str(minimum)},
        )
    points = tuple(Point(a, lvl) for lvl, a in finite[:k])
    for j, member in enumerate(families[claim_family]):
        for p in points:
            if p not in member:
                raise TheoremViolationError(
                    "a member of the claim family misses a selected point",
                    diagnostics={
                        "family": claim_family,
                        "member": j,
                        "point": p,
                        "tuple": combo,
                    },
                )
    return ColorfulSelection(points, claim_family, combo, minimum)


# ---------------------------------------------------------------------------
# fractional Helly


def max_k_intersecting_subfamily(family: Sequence[TraceSet], k: int) -> tuple[int, ...]:
    """True maximum via candidate points: a subfamily k-intersects iff
    k common ground points sit on k distinct levels.  The walk takes one
    covered cell on each of k levels; its length (Σ over level choices
    of ∏ cell counts) times k counts against the (p,q) work guard."""
    if not family:
        return ()
    per_level: list[list[frozenset]] = [[] for _ in range(family[0].ground.d)]
    for (lvl, _), through in _incidence(family).items():
        per_level[lvl].append(frozenset(through))
    level_combos = list(itertools.combinations(range(len(per_level)), k))
    work = sum(prod(len(per_level[l]) for l in combo) for combo in level_combos) * k
    check_guard("PQ_WORK", "k-intersecting subfamily search", work)
    everyone = frozenset(range(len(family)))
    best: tuple[int, ...] = ()
    for combo in level_combos:
        for cells in itertools.product(*(per_level[l] for l in combo)):
            members = everyone.intersection(*cells)
            if len(members) > len(best):
                best = tuple(sorted(members))
    return best


def frac_helly_stats(family: Sequence[TraceSet], k: int) -> HellyReport:
    """Fraction of k-intersecting (2d−k+1)-subsets versus the largest
    k-intersecting subfamily; checks β̂ ≥ α/(2d−k+1) exactly."""
    if not family:
        raise ValueError("family must be nonempty")
    d = family[0].ground.d
    _check_k(k, d)
    _runs(family)  # one ground for every member, walked or not
    r = 2 * d - k + 1
    n = len(family)
    report = HellyReport({"k": k, "r": r, "family_size": n}, True)
    if n < r:
        report.statistics["alpha"] = None
        report.statistics["note"] = f"needs at least {r} sets"
        return report

    total = comb(n, r)
    check_guard("PQ_WORK", "tuple enumeration", total * r)

    hitting = 0
    # k-intersecting r-subsets grouped by the sweep key of their joint
    classes: dict[tuple[int, ...], set[int]] = {}
    for idx, joint, levels in colorful_tuples([family] * r, k, subsets=True):
        if levels >= k:
            hitting += 1
            classes.setdefault(_sweep_key(joint), set()).update(idx)
    alpha = Fraction(hitting, total)
    grouped_best = max((len(s) for s in classes.values()), default=0)
    direct_best = max_k_intersecting_subfamily(family, k)
    best = max(grouped_best, len(direct_best))
    beta = Fraction(best, n)
    report.statistics.update(
        alpha=alpha,
        beta_hat=beta,
        bound=alpha / r,
        grouped_size=grouped_best,
        direct_size=len(direct_best),
    )
    report.witnesses["largest_subfamily"] = direct_best
    report.verdict = beta >= alpha / r
    return report


def cfh_stats(families: Sequence[Sequence[TraceSet]]) -> HellyReport:
    """Colorful fractional check over 2d families: if an α-fraction of
    colorful tuples intersect, some family has an intersecting subfamily
    of β̂|C_i| members with (1−β̂_i)^{2d} ≤ 1−α.  Root-free comparison:
    both sides stay rational after raising to the 2d-th power."""
    if not families or any(not f for f in families):
        raise ValueError("families must be nonempty")
    d = families[0][0].ground.d
    if len(families) != 2 * d:
        raise ValueError(f"expected {2 * d} families, got {len(families)}")

    work = _colorful_work(families)
    hitting = sum(1 for _, runs, _ in colorful_tuples(families, 1) if runs is not None)
    alpha = Fraction(hitting, work)

    # β̂_i: the most members of family i through one point
    betas = [Fraction(max_point_cover(fam)[0], len(fam)) for fam in families]
    ok = any((1 - b) ** (2 * d) <= 1 - alpha for b in betas)
    return HellyReport(
        {"d": d, "family_sizes": tuple(len(f) for f in families)},
        ok,
        statistics={"alpha": alpha, "beta_hats": tuple(betas)},
    )
