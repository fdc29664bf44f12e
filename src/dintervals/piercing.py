"""Transversal and matching numbers, exact and fractional, plus the
(p,q) property checkers and blow-ups.

Candidate piercing points are the ground points covered by at least one
set: sound because every set is a subset of the ground set.  They are
read off the runs as cells (level − 1, index) with ``geometry._incidence``,
and ``Point``s are built only for returned points and diagnostics.  Families
handed to ``pierce_all`` must have no empty member (an empty set cannot
be pierced, so τ would be undefined).

``pierce_all`` is the one entry to τ, ν and the LP.  It builds the
incidence once, as the family is checked: the sets through each cell,
each set's cells, and the intersection graph.  Its private steps read
that one graph: ``_lp`` solves and certifies τ* = ν*, ``_tau`` takes
⌈τ*⌉ as its root bound, and ``_nu`` stops at ⌊τ*⌋ sets, since
ν ≤ ν* = τ*.  Two sets over one ground meet exactly when they share a
cell, so τ's packing bound and ν's search take neighbours from the
graph, and only ν's witness recheck meets run tuples itself.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import ceil, comb, floor, lcm, prod
from typing import Sequence

from .config import check_guard
from .errors import PreconditionError, TheoremViolationError
from .geometry import Point, TraceSet, _incidence, _meet, _point
from .lp import SimplexOutcome, simplex_maximize


@dataclass(frozen=True)
class LPSolution:
    value: Fraction
    matching_weights: tuple[Fraction, ...]  # one per set
    transversal_weights: tuple[Fraction, ...]  # one per candidate point
    candidate_points: tuple[Point, ...]
    certified: bool


@dataclass(frozen=True)
class PiercingResult:
    tau: int
    piercing_points: tuple[Point, ...]
    nu: int
    disjoint_subfamily: tuple[int, ...]
    tau_star: Fraction
    nu_star: Fraction
    lp: LPSolution


def _incidence_graph(family: Sequence[TraceSet]) -> tuple[list, list, list, list]:
    """The family's incidence, once it is checked fit to pierce: the
    covered cells in coordinate order, the sets through each cell, each
    set's cells (ascending indices into the first) and each set's
    neighbours in the intersection graph, the other sets sharing a cell."""
    if not family:
        raise PreconditionError("family is empty")
    check_guard("PIERCE_SETS", "family size", len(family))
    for j, t in enumerate(family):
        if t.is_empty:
            raise PreconditionError(
                f"set {j} has empty trace; piercing undefined", witness=j
            )
    cover = _incidence(family)
    covers = [frozenset(through) for through in cover.values()]
    cells_of: list[list[int]] = [[] for _ in family]
    meets: list[set[int]] = [set() for _ in family]
    for i, through in enumerate(covers):
        for j in through:
            cells_of[j].append(i)
            meets[j] |= through
    for j, neighbours in enumerate(meets):
        neighbours.discard(j)
    return list(cover), covers, cells_of, meets


def max_point_cover(family: Sequence[TraceSet]) -> tuple[int, Point | None]:
    """Largest subfamily sharing one point: the first covered cell with
    the most sets through it."""
    best, best_cell = 0, None
    for cell, through in _incidence(family).items():
        if len(through) > best:
            best, best_cell = len(through), cell
    return best, None if best_cell is None else _point(family[0].ground, best_cell)


# ---------------------------------------------------------------------------
# exact numbers


def _tau(family: Sequence[TraceSet], graph: tuple, tau_star: Fraction):
    """Minimum piercing set via branch and bound.

    Lower bounds: the LP optimum at the root, a greedy disjoint packing
    per node.  Branching splits on the cheapest unpierced set's points.
    """
    cells, covers, cells_of, meets = graph

    def greedy_cover() -> list[int]:
        uncovered = set(range(len(family)))
        picked = []
        while uncovered:
            i = max(range(len(covers)), key=lambda c: (len(covers[c] & uncovered), -c))
            picked.append(i)
            uncovered -= covers[i]
        return picked

    def disjoint_lower_bound(uncovered: frozenset) -> int:
        taken = 0
        blocked: set[int] = set()
        for j in sorted(uncovered, key=lambda j: len(cells_of[j])):
            if j not in blocked:
                taken += 1
                blocked |= meets[j]
        return taken

    root_lb = ceil(tau_star)
    best = greedy_cover()
    best_size = len(best)

    def branch(uncovered: frozenset, chosen: list[int]):
        nonlocal best, best_size
        if not uncovered:
            if len(chosen) < best_size:
                best, best_size = list(chosen), len(chosen)
            return
        if len(chosen) + disjoint_lower_bound(uncovered) >= best_size:
            return
        target = min(uncovered, key=lambda j: (len(cells_of[j]), j))
        for i in cells_of[target]:
            branch(uncovered - covers[i], chosen + [i])

    if best_size > root_lb:
        branch(frozenset(range(len(family))), [])
    picked = sorted(best)
    for j, s in enumerate(cells_of):
        if set(s).isdisjoint(picked):
            raise TheoremViolationError(
                "piercing witness misses a set", diagnostics={"set": j}
            )
    ground = family[0].ground
    return len(picked), tuple(_point(ground, cells[i]) for i in picked)


def _nu(
    family: Sequence[TraceSet], adj: list[set[int]], tau_star: Fraction
) -> tuple[int, tuple[int, ...]]:
    """Maximum pairwise-disjoint subfamily: independent set in the
    intersection graph, by include/exclude with a size cutoff.  The
    search stops once it holds ⌊τ*⌋ sets, since ν ≤ ν* = τ*; the
    incumbent is replaced only on a strict gain, so the witness is the
    one the full search finds."""
    most = floor(tau_star)
    best: list[int] = []

    def extend(chosen: list[int], allowed: list[int]):
        nonlocal best
        if len(best) >= most or len(chosen) + len(allowed) <= len(best):
            return
        if not allowed:
            if len(chosen) > len(best):
                best = list(chosen)
            return
        v, rest = allowed[0], allowed[1:]
        extend(chosen + [v], [u for u in rest if u not in adj[v]])
        extend(chosen, rest)

    extend([], sorted(range(len(family)), key=lambda v: (len(adj[v]), v)))
    witness = tuple(sorted(best))
    for i, j in itertools.combinations(witness, 2):
        if _meet(family[i].runs, family[j].runs) is not None:
            raise TheoremViolationError(
                "disjointness witness overlaps", diagnostics={"pair": (i, j)}
            )
    return len(witness), witness


# ---------------------------------------------------------------------------
# LP relaxation


def _lp(family: Sequence[TraceSet], graph: tuple) -> LPSolution:
    """Fractional matching (primal) and transversal (dual), certified.

    max Σ y_C  s.t.  Σ_{C ∋ p} y_C ≤ 1 per candidate point, y ≥ 0;
    the dual weights come from the slack columns and are rechecked
    against every constraint, in ints over the weights' common
    denominator, before the certificate is granted.  The
    candidates are the family's covered cells, in (level, coordinate)
    order, and row i of the constraints holds the sets through cell i.
    """
    cells, covers, cells_of, _ = graph
    n = len(family)
    A = [[int(j in through) for j in range(n)] for through in covers]
    out: SimplexOutcome = simplex_maximize([1] * n, A, [1] * len(cells))

    ground = family[0].ground
    candidates = tuple(_point(ground, cell) for cell in cells)
    y, x = out.primal, out.dual
    # every check runs on ints over the weights' common denominator q
    q = lcm(*(w.denominator for w in itertools.chain(y, x)))
    Y = [w.numerator * (q // w.denominator) for w in y]
    X = [w.numerator * (q // w.denominator) for w in x]
    if any(v < 0 for v in Y) or any(v < 0 for v in X):
        raise TheoremViolationError("LP produced negative weights")
    for i, through in enumerate(covers):
        if sum(Y[j] for j in through) > q:
            raise TheoremViolationError(
                "matching weights overload a point", diagnostics={"point": candidates[i]}
            )
    for j, inside in enumerate(cells_of):
        if sum(X[i] for i in inside) < q:
            raise TheoremViolationError(
                "transversal weights miss a set", diagnostics={"set": j}
            )
    dual_value = sum(X)
    if dual_value * out.value.denominator != out.value.numerator * q:
        raise TheoremViolationError(
            "duality gap",
            diagnostics={"primal": out.value, "dual": Fraction(dual_value, q)},
        )
    return LPSolution(out.value, y, x, candidates, True)


def pierce_all(family: Sequence[TraceSet]) -> PiercingResult:
    """τ, ν and their common fractional value off one incidence, sandwich-checked."""
    graph = _incidence_graph(family)
    lp = _lp(family, graph)
    tau, pts = _tau(family, graph, lp.value)
    nu, sub = _nu(family, graph[3], lp.value)
    if not (nu <= lp.value <= tau):
        raise TheoremViolationError(
            "sandwich ν ≤ ν* = τ* ≤ τ violated",
            diagnostics={"nu": nu, "lp": lp.value, "tau": tau},
        )
    return PiercingResult(tau, pts, nu, sub, lp.value, lp.value, lp)


# ---------------------------------------------------------------------------
# (p,q) properties


PQ_KINDS = ("plain", "colorful-first", "colorful-second")


def _check_pq_parameters(p: int, q: int, kind: str) -> None:
    if p < 1 or q < 1 or q > p:
        raise ValueError("need p ≥ q ≥ 1")
    if kind not in PQ_KINDS:
        raise ValueError(f"unknown kind {kind!r}")


def pq_check(
    families: Sequence[Sequence[TraceSet]],
    p: int,
    q: int,
    kind: str = "plain",
) -> tuple[bool, tuple | None]:
    """Exhaustive (p,q) verification.

    plain: one family; among any p members, some q share a point.
    colorful-first: q families; for any choice of p members from each,
    some colorful q-tuple (the j_i-th pick from family i) has a common
    point.
    colorful-second: p families; every colorful p-tuple has q members
    sharing a point.

    One incidence of the families concatenated gives, per covered cell,
    the mask of the members through it (family i's from its offset on).
    A plain subset or colorful-second tuple holds where a cell covers q
    of its picks; a colorful-first choice where a cell meets every
    family's picks, just where some colorful q-tuple has a common point.
    """
    _check_pq_parameters(p, q, kind)
    sizes = [len(f) for f in families]
    if kind == "plain":
        if len(families) != 1:
            raise ValueError("plain kind takes exactly one family")
        if sizes[0] < p:
            raise ValueError(f"family has {sizes[0]} < p = {p} members")
        work = comb(sizes[0], p) * p
        picks = itertools.combinations(range(sizes[0]), p)
    elif kind == "colorful-first":
        if len(families) != q:
            raise ValueError(f"colorful-first takes q = {q} families")
        if any(n < p for n in sizes):
            raise ValueError("every family needs at least p members")
        work = prod(comb(n, p) for n in sizes) * p**q * q
        picks = itertools.product(*(itertools.combinations(range(n), p) for n in sizes))
    else:
        if len(families) != p:
            raise ValueError(f"colorful-second takes p = {p} families")
        if not all(sizes):
            raise ValueError("families must be nonempty")
        work = prod(sizes) * p
        picks = itertools.product(*(range(n) for n in sizes))
    check_guard("PQ_WORK", "(p,q) enumeration", work)
    flat = [t for f in families for t in f]
    cells = [sum(1 << j for j in through) for through in _incidence(flat).values()]
    offsets = list(itertools.accumulate(sizes[:-1], initial=0))
    for pick in picks:
        if kind == "colorful-first":
            masks = [sum(1 << (o + j) for j in js) for o, js in zip(offsets, pick)]
            holds = any(all(cell & m for m in masks) for cell in cells)
        else:
            if kind == "plain":
                picked = sum(1 << j for j in pick)
            else:
                picked = sum(1 << (o + j) for o, j in zip(offsets, pick))
            holds = any((cell & picked).bit_count() >= q for cell in cells)
        if not holds:
            return False, pick
    return True, None


# ---------------------------------------------------------------------------
# blow-ups and the piercing bound


def blow_up(family: Sequence[TraceSet], multiplicities: Sequence[int]) -> tuple[TraceSet, ...]:
    """The family with set j repeated ``multiplicities[j]`` times, in order."""
    if len(multiplicities) != len(family):
        raise ValueError("one multiplicity per set required")
    if any(m < 0 for m in multiplicities):
        raise ValueError("multiplicities must be nonnegative")
    return tuple(t for t, m in zip(family, multiplicities) for _ in range(m))


def piercing_bound_check(family: Sequence[TraceSet]) -> tuple[bool, int, int]:
    """τ ≤ (d²−d)·ν for d ≥ 2; for d = 1 the interval identity τ = ν
    stands in, since the coefficient degenerates to zero."""
    res = pierce_all(family)
    d = family[0].ground.d
    if d == 1:
        return res.tau == res.nu, res.tau, res.nu
    return res.tau <= (d * d - d) * res.nu, res.tau, res.nu
