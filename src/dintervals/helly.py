"""Radon, Helly, colorful Helly and fractional Helly procedures.

Everything here is constructive and exhaustively re-verified: Radon
partitions are checked by intersecting hulls, witness subfamilies by
recomputing sweep values, colorful selections by direct membership of
the returned points.  Brute-force counterparts (used by tests as
oracles) live beside the constructions.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from math import comb, prod
from typing import Iterable, Sequence

from .config import guard_limit
from .errors import (
    GuardExceededError,
    PreconditionError,
    TheoremViolationError,
)
from .geometry import (
    LexValue,
    Point,
    PointSet,
    TraceSet,
    colorful_tuples,
    f_value,
    hull,
    intersect_all,
    k_intersects,
)


def _point_sort_key(p: Point):
    return (p.level, p.coord)


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
    mode: str
    parameters: dict
    verdict: bool
    witnesses: dict = field(default_factory=dict)
    statistics: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# Radon


def radon_partition(ground: PointSet, subset: Iterable[Point]) -> RadonPartition | None:
    """Split the points into two parts with intersecting hulls.

    With 2d+1 or more points, three of them share a level; putting the
    middle one alone against the outer two (everything else joins the
    outer side) always works, and the middle point is the witness.
    Below that threshold all splits are tried; None is definitive.
    """
    pts = sorted(set(subset), key=_point_sort_key)
    for p in pts:
        if p not in ground:
            raise ValueError(f"point {p} not in ground set")
    d = ground.d

    if len(pts) >= 2 * d + 1:
        by_level: dict[int, list[Point]] = {}
        for p in pts:
            by_level.setdefault(p.level, []).append(p)
        lvl = min(l for l, ps in by_level.items() if len(ps) >= 3)
        x1, x2, x3 = by_level[lvl][:3]
        side_b = (x2,)
        side_a = tuple(p for p in pts if p != x2)
        part = RadonPartition(side_a, side_b, x2)
        if not part.verify(ground):
            raise TheoremViolationError(
                "constructed partition failed verification",
                diagnostics={"subset": tuple(pts)},
            )
        return part

    limit = guard_limit("RADON_POINTS")
    if len(pts) > limit:
        raise GuardExceededError("radon subset size", len(pts), limit)
    if len(pts) < 2:
        return None
    head, rest = pts[0], pts[1:]
    for picks in itertools.product((0, 1), repeat=len(rest)):
        side_a = [head] + [p for p, s in zip(rest, picks) if s == 0]
        side_b = [p for p, s in zip(rest, picks) if s == 1]
        if not side_b:
            continue
        joint, _ = intersect_all([hull(ground, side_a), hull(ground, side_b)])
        if not joint.is_empty:
            witness = min(joint.points(), key=_point_sort_key)
            return RadonPartition(tuple(side_a), tuple(side_b), witness)
    return None


def radon_number_bruteforce(ground: PointSet, cap: int) -> int | None:
    """Smallest n ≤ cap such that every n-subset splits; None past cap.

    When no n-subset exists (n > |P|) the condition holds vacuously.
    """
    if cap < 1:
        raise ValueError("radon cap must be ≥ 1")
    limit = guard_limit("RADON_POINTS")
    if len(ground) > limit:
        raise GuardExceededError("ground set size", len(ground), limit)
    pts = sorted(ground.points(), key=_point_sort_key)
    for n in range(1, cap + 1):
        if all(
            radon_partition(ground, subset) is not None
            for subset in itertools.combinations(pts, n)
        ):
            return n
    return None


# ---------------------------------------------------------------------------
# Helly


def helly_check(family: Sequence[TraceSet], m: int, k: int = 1) -> HellyReport:
    """Does "every ≤ m sets k-intersect" force the whole family to?

    The verdict is the implication itself; a violation ships the whole
    family's deficient intersection as witness.  Member evaluations of
    the subset walk count against the (p,q) work guard as they happen.
    """
    if m < 1:
        raise ValueError("m must be ≥ 1")
    report = HellyReport(
        "k-intersect" if k > 1 else "plain",
        {"m": m, "k": k, "family_size": len(family)},
        True,
    )
    if not family:
        return report
    d = family[0].ground.d
    if not 1 <= k <= d:
        raise ValueError(f"k must lie in [1, {d}]")

    limit = guard_limit("PQ_WORK")
    work = 0
    hypothesis = True
    for size in range(1, min(m, len(family)) + 1):
        for idx in itertools.combinations(range(len(family)), size):
            work += size
            if work > limit:
                raise GuardExceededError("helly subset enumeration", work, limit)
            if not k_intersects([family[j] for j in idx], k):
                hypothesis = False
                report.statistics["failing_hypothesis_subfamily"] = idx
                break
        if not hypothesis:
            break
    joint, levels = intersect_all(list(family))
    conclusion = levels >= k
    report.statistics["intersection_levels"] = levels
    report.verdict = (not hypothesis) or conclusion
    if not report.verdict:
        report.witnesses["violating_family"] = tuple(range(len(family)))
        report.witnesses["intersection_points"] = tuple(joint.points())
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
    if not 1 <= k <= d:
        raise ValueError(f"k must lie in [1, {d}]")
    joint, levels = intersect_all(list(family))
    if levels < k:
        raise PreconditionError(
            f"family meets only {levels} levels, needs {k}",
            witness=tuple(range(len(family))),
        )
    target = f_value(joint)
    chosen: list[int] = []
    for lvl in range(1, d + 1):
        if target.components[lvl - 1] is not None:
            chosen.append(
                min(
                    range(len(family)),
                    key=lambda j: (family[j].level_max(lvl), j),
                )
            )
            continue
        empties = [j for j in range(len(family)) if family[j].level_run(lvl) is None]
        if empties:
            chosen.append(empties[0])
            continue
        j_lo = max(range(len(family)), key=lambda j: (family[j].level_min(lvl), -j))
        j_hi = min(range(len(family)), key=lambda j: (family[j].level_max(lvl), j))
        if family[j_lo].level_min(lvl) <= family[j_hi].level_max(lvl):
            raise TheoremViolationError(
                "extreme enclosing intervals meet on an empty level",
                diagnostics={"level": lvl},
            )
        chosen.extend([j_lo, j_hi])
    indices = tuple(sorted(set(chosen)))
    if len(indices) > 2 * d - k:
        raise TheoremViolationError(
            f"witness has {len(indices)} sets, exceeding {2 * d - k}",
            diagnostics={"indices": indices},
        )
    sub_joint, _ = intersect_all([family[j] for j in indices])
    if f_value(sub_joint) != target:
        raise TheoremViolationError(
            "witness subfamily changes the sweep value",
            diagnostics={"indices": indices},
        )
    return indices


# ---------------------------------------------------------------------------
# colorful Helly


def _colorful_work(families: Sequence[Sequence[TraceSet]], work_guard: int | None) -> int:
    """Number of colorful tuples; raises when that times the family count
    exceeds the work guard."""
    work = prod(len(fam) for fam in families)
    limit = guard_limit("PQ_WORK", work_guard)
    if work * len(families) > limit:
        raise GuardExceededError("colorful tuple enumeration", work * len(families), limit)
    return work


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
    work_guard: int | None = None,
) -> ColorfulSelection:
    """Pick k points shared by every member of one family.

    Requires 2d−k+1 nonempty families such that every colorful tuple
    (one member from each) k-intersects.  The sweep value is minimized
    over all colorful (2d−k)-tuples, i.e. one member from each family
    except one; the points are the first k finite components of the
    minimum, and the family the minimizer omits is the one whose every
    member must contain them.  Passing ``designated`` instead restricts
    the minimization to the other families and asserts the claim for
    that fixed family — a strictly stronger statement that can fail;
    the failure is reported as a violation with full diagnostics.

    Both the precondition check and the minimization walk the tuples
    with ``geometry.colorful_tuples``; the check stops at the first
    prefix below k levels and reports it, padded with zeros, as witness.
    """
    if not families or not families[0]:
        raise ValueError("families must be nonempty")
    d = families[0][0].ground.d
    if not 1 <= k <= d:
        raise ValueError(f"k must lie in [1, {d}]")
    arity = 2 * d - k + 1
    if len(families) != arity:
        raise ValueError(f"expected {arity} families, got {len(families)}")
    if any(not fam for fam in families):
        raise ValueError("families must be nonempty")
    if designated is not None and not 0 <= designated < arity:
        raise ValueError("designated index out of range")

    _colorful_work(families, work_guard)
    # any completion of a thin prefix serves as the violating witness
    for combo, joint in colorful_tuples(families, k):
        if joint.level_count < k:
            raise PreconditionError(
                "a colorful tuple fails to k-intersect",
                witness=combo + (0,) * (arity - len(combo)),
            )

    omit_candidates = range(arity) if designated is None else (designated,)
    minimum, claim_family, combo = min(
        (f_value(joint), omit, combo)
        for omit in omit_candidates
        for combo, joint in colorful_tuples(
            [fam for i, fam in enumerate(families) if i != omit], 0
        )
    )
    finite = minimum.finite_items()
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


def max_k_intersecting_subfamily(
    family: Sequence[TraceSet], k: int
) -> tuple[int, ...]:
    """True maximum via candidate points: a subfamily k-intersects iff
    k common ground points sit on k distinct levels."""
    if not family:
        return ()
    ground = family[0].ground
    best: tuple[int, ...] = ()
    per_level = [
        [Point(c, lvl) for c in ground.level_coords(lvl)]
        for lvl in range(1, ground.d + 1)
    ]
    for level_combo in itertools.combinations(range(ground.d), k):
        for pts in itertools.product(*(per_level[l] for l in level_combo)):
            members = tuple(
                j
                for j, t in enumerate(family)
                if all(p in t for p in pts)
            )
            if len(members) > len(best):
                best = members
    return best


def frac_helly_stats(
    family: Sequence[TraceSet], k: int, work_guard: int | None = None
) -> HellyReport:
    """Fraction of k-intersecting (2d−k+1)-subsets versus the largest
    k-intersecting subfamily; checks β̂ ≥ α/(2d−k+1) exactly."""
    if not family:
        raise ValueError("family must be nonempty")
    d = family[0].ground.d
    if not 1 <= k <= d:
        raise ValueError(f"k must lie in [1, {d}]")
    r = 2 * d - k + 1
    n = len(family)
    report = HellyReport("fractional", {"k": k, "r": r, "family_size": n}, True)
    if n < r:
        report.statistics["alpha"] = None
        report.statistics["note"] = f"needs at least {r} sets"
        return report

    total = comb(n, r)
    limit = guard_limit("PQ_WORK", work_guard)
    if total * r > limit:
        raise GuardExceededError("tuple enumeration", total * r, limit)

    hitting = 0
    classes: dict[LexValue, set[int]] = {}
    for idx in itertools.combinations(range(n), r):
        members = [family[j] for j in idx]
        joint, levels = intersect_all(members)
        if levels >= k:
            hitting += 1
            classes.setdefault(f_value(joint), set()).update(idx)
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


def cfh_stats(
    families: Sequence[Sequence[TraceSet]], work_guard: int | None = None
) -> HellyReport:
    """Colorful fractional check over 2d families: if an α-fraction of
    colorful tuples intersect, some family has an intersecting subfamily
    of β̂|C_i| members with (1−β̂_i)^{2d} ≤ 1−α.  Root-free comparison:
    both sides stay rational after raising to the 2d-th power."""
    if not families or any(not f for f in families):
        raise ValueError("families must be nonempty")
    d = families[0][0].ground.d
    if len(families) != 2 * d:
        raise ValueError(f"expected {2 * d} families, got {len(families)}")
    ground = families[0][0].ground

    work = _colorful_work(families, work_guard)
    hitting = sum(1 for _, joint in colorful_tuples(families, 1) if not joint.is_empty)
    alpha = Fraction(hitting, work)

    betas = []
    for fam in families:
        best = 0
        for p in ground.points():
            best = max(best, sum(1 for t in fam if p in t))
        betas.append(Fraction(best, len(fam)))
    ok = any((1 - b) ** (2 * d) <= 1 - alpha for b in betas)
    return HellyReport(
        "colorful-fractional",
        {"d": d, "family_sizes": tuple(len(f) for f in families)},
        ok,
        statistics={"alpha": alpha, "beta_hats": tuple(betas)},
    )


def partial_colorful_size(d: int, m: int) -> int:
    """Least family size N ≥ m with d(N−m)² ≥ (d−1)N²; this is
    ⌈m / (1 − ((d−1)/d)^{1/2})⌉ computed without irrational arithmetic."""
    if d < 1:
        raise ValueError("d must be ≥ 1")
    if m < 0:
        raise ValueError("m must be ≥ 0")
    if m == 0:
        return 0
    n = m
    while d * (n - m) ** 2 < (d - 1) * n * n:
        n += 1
    return n
