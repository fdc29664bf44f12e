"""Transversal/matching numbers, the exact LP, (p,q) checks, blow-ups."""

import itertools
import random
import re
import sys
from collections import Counter
from fractions import Fraction
from types import SimpleNamespace

import pytest

from dintervals import (
    DInterval,
    GroundSetMismatchError,
    GuardExceededError,
    Point,
    PointSet,
    PreconditionError,
    TheoremViolationError,
    TraceSet,
    blow_up,
    gen_helly_lower_bound,
    intersect_all,
    max_point_cover,
    pierce_all,
    piercing_bound_check,
    pq_check,
    trace_of,
)
from dintervals import geometry, piercing
from dintervals.lp import SimplexOutcome, simplex_maximize
from helpers import (
    LP_KINDS,
    frames_of,
    incidence_lp,
    p6,
    random_ground,
    random_lp,
    random_trace,
    tall_lp,
)


def line(*coords) -> PointSet:
    return PointSet(1, (tuple(Fraction(c) for c in coords),))


def window(ground: PointSet, pairs: dict[int, tuple]) -> TraceSet:
    return trace_of(DInterval.from_pairs(ground.d, pairs), ground)


def triangle_triple():
    """Three pairwise-intersecting two-level sets with empty joint
    intersection: tau 2, nu 1, fractional value 3/2."""
    P = PointSet(
        2,
        (
            tuple(Fraction(c) for c in (0, 1, 2, 4, 5)),
            tuple(Fraction(c) for c in (0, 1, 2, 3)),
        ),
    )
    a = window(P, {1: (0, 1), 2: (0, 1)})
    b = window(P, {1: (1, 2), 2: (2, 3)})
    c = window(P, {1: (4, 5), 2: (1, 2)})
    return P, [a, b, c]


def tau_oracle(family) -> int:
    pts = sorted({p for t in family for p in t.points()}, key=lambda p: (p.level, p.coord))
    for r in range(1, len(pts) + 1):
        for S in itertools.combinations(pts, r):
            if all(any(p in t for p in S) for t in family):
                return r
    raise AssertionError("unpierceable family")


def nu_oracle(family) -> int:
    best = 0
    for r in range(1, len(family) + 1):
        for idx in itertools.combinations(range(len(family)), r):
            if all(
                intersect_all([family[i], family[j]])[0].is_empty
                for i, j in itertools.combinations(idx, 2)
            ):
                best = r
    return best


# ----------------------------------------------------------------- simplex


def test_simplex_on_a_textbook_problem():
    # max 3x + 5y s.t. x <= 4, 2y <= 12, 3x + 2y <= 18
    c = [Fraction(3), Fraction(5)]
    A = [
        [Fraction(1), Fraction(0)],
        [Fraction(0), Fraction(2)],
        [Fraction(3), Fraction(2)],
    ]
    b = [Fraction(4), Fraction(12), Fraction(18)]
    got = simplex_maximize(c, A, b)
    assert got.value == 36
    assert got.primal == (Fraction(2), Fraction(6))
    assert sum(x * y for x, y in zip(got.dual, b)) == 36


def test_simplex_fractional_vertex():
    # pairwise constraints force the half-weight vertex
    one = Fraction(1)
    c = [one, one, one]
    A = [[one, one, Fraction(0)], [one, Fraction(0), one], [Fraction(0), one, one]]
    b = [one, one, one]
    got = simplex_maximize(c, A, b)
    assert got.value == Fraction(3, 2)
    assert got.primal == (Fraction(1, 2),) * 3


def test_simplex_rejects_bad_shapes():
    with pytest.raises(ValueError):
        simplex_maximize([Fraction(1)], [[Fraction(1), Fraction(1)]], [Fraction(1)])
    with pytest.raises(ValueError):
        simplex_maximize([Fraction(1)], [[Fraction(1)]], [Fraction(-1)])


def test_simplex_detects_unbounded_problems():
    with pytest.raises(ValueError):
        simplex_maximize([Fraction(1)], [[Fraction(-1)]], [Fraction(1)])


def reference_simplex(c, A, b, pivots: list | None = None) -> SimplexOutcome:
    """Dense Fraction tableau with Bland's rule: the solver as it stood
    before it went fraction-free, kept here as the differential oracle.
    Each pivot's (entering, leaving) variables go to ``pivots`` if given;
    slack i is variable n + i."""
    m, n = len(A), len(c)
    if any(len(row) != n for row in A) or len(b) != m:
        raise ValueError("inconsistent LP dimensions")
    if any(v < 0 for v in b):
        raise ValueError("this solver needs b ≥ 0")
    zero, one = Fraction(0), Fraction(1)
    rows = [
        [Fraction(x) for x in A[i]]
        + [one if j == i else zero for j in range(m)]
        + [Fraction(b[i])]
        for i in range(m)
    ]
    obj = [-Fraction(x) for x in c] + [zero] * m + [zero]
    basis = list(range(n, n + m))
    while True:
        entering = next((j for j in range(n + m) if obj[j] < 0), None)
        if entering is None:
            break
        pivot_row = best_ratio = None
        for i in range(m):
            coeff = rows[i][entering]
            if coeff > 0:
                ratio = rows[i][-1] / coeff
                if (
                    best_ratio is None
                    or ratio < best_ratio
                    or (ratio == best_ratio and basis[i] < basis[pivot_row])
                ):
                    best_ratio, pivot_row = ratio, i
        if pivot_row is None:
            raise ValueError("LP is unbounded")
        pivot = rows[pivot_row][entering]
        rows[pivot_row] = [x / pivot for x in rows[pivot_row]]
        for i in range(m):
            if i != pivot_row and rows[i][entering] != 0:
                factor = rows[i][entering]
                rows[i] = [x - factor * y for x, y in zip(rows[i], rows[pivot_row])]
        if obj[entering] != 0:
            factor = obj[entering]
            obj = [x - factor * y for x, y in zip(obj, rows[pivot_row])]
        if pivots is not None:
            pivots.append((entering, basis[pivot_row]))
        basis[pivot_row] = entering
    primal = [zero] * n
    for i, var in enumerate(basis):
        if var < n:
            primal[var] = rows[i][-1]
    value = sum((ci * yi for ci, yi in zip(c, primal)), zero)
    return SimplexOutcome(value, tuple(primal), tuple(obj[n + i] for i in range(m)))


def _solve(solver, c, A, b):
    try:
        return solver(c, A, b)
    except ValueError as exc:
        return f"ValueError: {exc}"


def test_simplex_matches_the_fraction_reference():
    rng = random.Random(404)
    outcomes = Counter()
    for i in range(3000):
        c, A, b = random_lp(rng, LP_KINDS[i % len(LP_KINDS)])
        got, want = _solve(simplex_maximize, c, A, b), _solve(reference_simplex, c, A, b)
        assert got == want, (i, c, A, b)
        if isinstance(got, str):
            outcomes[got] += 1
            continue
        outcomes["optimal"] += 1
        numbers = (got.value, *got.primal, *got.dual)
        assert all(type(x) is Fraction for x in numbers), (i, got)
    # every way out is reached, the unbounded one often
    assert outcomes["optimal"] > 1500
    assert outcomes["ValueError: LP is unbounded"] > 500
    assert outcomes["ValueError: this solver needs b ≥ 0"] > 0
    assert outcomes["ValueError: inconsistent LP dimensions"] > 0


def test_simplex_matches_the_reference_on_tall_and_incidence_lps():
    # tall LPs with repeated rows tie in the ratio test; on these and on
    # families' matching LPs, slacks leave the basis and enter it again
    rng = random.Random(405)
    cases = [tall_lp(rng) for _ in range(8)] + [incidence_lp(rng) for _ in range(200)]
    reentered = 0
    for i, (c, A, b) in enumerate(cases):
        pivots = []
        got = _solve(simplex_maximize, c, A, b)
        want = _solve(lambda *lp: reference_simplex(*lp, pivots), c, A, b)
        assert got == want, (i, c, A, b)
        left = set()
        for entering, leaving in pivots:
            if entering in left:
                reentered += 1
                break
            if leaving >= len(c):
                left.add(leaving)
    assert reentered >= 20


# ------------------------------------------------------------- exact numbers


def test_tau_of_the_triangle_triple_is_two():
    P, fam = triangle_triple()
    got = pierce_all(fam)
    tau, pts = got.tau, got.piercing_points
    assert tau == 2
    for t in fam:
        assert any(p in t for p in pts)


def test_tau_one_with_a_common_point():
    P = line(0, 1, 2)
    fam = [window(P, {1: (0, 2)}), window(P, {1: (1, 2)})]
    assert pierce_all(fam).tau == 1


def test_tau_counts_pairwise_disjoint_sets():
    P = line(0, 1, 2, 3, 4, 5)
    fam = [window(P, {1: (2 * i, 2 * i)}) for i in range(3)]
    assert pierce_all(fam).tau == 3


def test_tau_guard_and_empty_preconditions():
    P = line(0, 1)
    t = window(P, {1: (0, 1)})
    with pytest.raises(GuardExceededError):
        pierce_all([t] * 31)
    with pytest.raises(PreconditionError):
        pierce_all([t, TraceSet.empty(P)])
    with pytest.raises(PreconditionError):
        pierce_all([])


def _frame_depth() -> int:
    frame, depth = sys._getframe(), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    return depth


def _singletons_and_triples(singletons: int, triples: int):
    """Two-level family: disjoint singletons, then disjoint triangle
    triples (τ = 2, τ* = 3/2 each), all apart from each other."""
    lo = [0, 1, 2, 4, 5]
    level1 = [10 * k + x for k in range(triples) for x in lo]
    level1 += [100 + k for k in range(singletons)]
    level2 = [10 * k + x for k in range(triples) for x in range(4)]
    P = PointSet(2, (tuple(map(Fraction, level1)), tuple(map(Fraction, level2))))
    fam = [TraceSet(P, ((5 * triples + k,) * 2, None)) for k in range(singletons)]
    for k in range(triples):
        a, b = 5 * k, 4 * k
        for r1, r2 in (((0, 1), (0, 1)), ((1, 2), (2, 3)), ((3, 4), (1, 2))):
            fam.append(TraceSet(P, ((a + r1[0], a + r1[1]), (b + r2[0], b + r2[1]))))
    return fam


def test_tau_and_nu_recursion_stays_within_the_family_size():
    # PIERCE_SETS = 30 bounds the family, so recursion depth stays below
    # the caller's depth plus two frames a set and some slack
    disjoint = _singletons_and_triples(30, 0)
    gapped = _singletons_and_triples(24, 2)
    assert len(disjoint) == len(gapped) == 30
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(_frame_depth() + 2 * 30 + 20)
    try:
        got, _, extend_depth = frames_of("extend", lambda: pierce_all(disjoint))
        assert (got.tau, got.nu, got.tau_star) == (30, 30, 30)
        got, _, branch_depth = frames_of("branch", lambda: pierce_all(gapped))
        # τ* = 27 < τ = 28, so branch and bound runs past the root
        assert (got.tau, got.nu, got.tau_star) == (28, 26, 27)
    finally:
        sys.setrecursionlimit(limit)
    assert extend_depth >= 30 and branch_depth >= 25
    with pytest.raises(GuardExceededError):
        pierce_all(_singletons_and_triples(31, 0))
    with pytest.raises(GuardExceededError):
        pierce_all(_singletons_and_triples(25, 2))


def test_nu_stops_once_it_holds_floor_tau_star_sets():
    # 15 disjoint overlapping pairs on a line: ν = τ* = 15, so the search
    # ends on its first leaf, where the full include/exclude walk made
    # 941,663 calls of extend
    n = 30
    P = line(*range(3 * n // 2))
    fam = [window(P, {1: (3 * k + s, 3 * k + s + 1)}) for k in range(n // 2) for s in (0, 1)]
    got, calls, _ = frames_of("extend", lambda: pierce_all(fam))
    assert (got.tau, got.nu, got.tau_star) == (15, 15, 15)
    assert got.disjoint_subfamily == tuple(range(0, n, 2))
    assert calls <= 4 * n


def test_nu_refuses_a_witness_whose_sets_overlap():
    # two overlapping sets left out of each other's neighbours: the search
    # takes both, and the recheck on the runs must catch them
    P = line(0, 1, 2)
    fam = [window(P, {1: (0, 1)}), window(P, {1: (1, 2)})]
    with pytest.raises(TheoremViolationError) as info:
        piercing._nu(fam, [set(), set()], Fraction(2))
    assert str(info.value) == "disjointness witness overlaps"
    assert info.value.diagnostics == {"pair": (0, 1)}


def test_tau_refuses_a_piercing_witness_that_misses_a_set():
    # cell 0's entry in covers claims set 1 too, which cells_of denies: the
    # greedy cover takes cell 0 alone, and the witness check must catch it
    P = line(0, 1)
    fam = [window(P, {1: (0, 0)}), window(P, {1: (1, 1)})]
    cells, covers, cells_of, meets = piercing._incidence_graph(fam)
    lying = (cells, [covers[0] | {1}, covers[1]], cells_of, meets)
    with pytest.raises(TheoremViolationError) as info:
        piercing._tau(fam, lying, Fraction(2))
    assert str(info.value) == "piercing witness misses a set"
    assert info.value.diagnostics == {"set": 1}


def test_nu_of_the_triangle_triple_is_one():
    _, fam = triangle_triple()
    assert pierce_all(fam).nu == 1


def test_nu_of_disjoint_sets_is_their_count():
    P = line(0, 1, 2, 3, 4, 5)
    fam = [window(P, {1: (2 * i, 2 * i)}) for i in range(3)]
    got = pierce_all(fam)
    assert got.nu == 3 and got.disjoint_subfamily == (0, 1, 2)


def test_nu_with_a_bridging_interval():
    P = line(0, 1, 2, 3)
    fam = [window(P, {1: (0, 1)}), window(P, {1: (2, 3)}), window(P, {1: (1, 2)})]
    got = pierce_all(fam)
    assert got.nu == 2 and got.disjoint_subfamily == (0, 1)


# -------------------------------------------------------------- LP sandwich


def test_lp_value_of_the_triangle_triple():
    _, fam = triangle_triple()
    got = pierce_all(fam).lp
    assert got.value == Fraction(3, 2)
    assert got.matching_weights == (Fraction(1, 2),) * 3
    assert got.certified


def test_lp_value_one_with_a_common_point():
    P = line(0, 1, 2)
    fam = [window(P, {1: (0, 2)}), window(P, {1: (0, 1)})]
    assert pierce_all(fam).tau_star == 1


def test_lp_value_counts_disjoint_sets():
    P = line(0, 1, 2, 3)
    fam = [window(P, {1: (0, 1)}), window(P, {1: (2, 3)})]
    assert pierce_all(fam).tau_star == 2


def _edit(weights, i, value):
    return tuple(value if k == i else w for k, w in enumerate(weights))


# each corruption of the triple's optimum (y = 1/2 per set, x = 1/2 on the
# points (1, 1), (1, 2), (2, 2)) and the certificate check it must trip
CORRUPTIONS = {
    "negative-primal": (
        lambda out: SimplexOutcome(out.value, _edit(out.primal, 2, Fraction(-1, 2)), out.dual),
        "LP produced negative weights", {},
    ),
    "negative-dual": (
        lambda out: SimplexOutcome(out.value, out.primal, _edit(out.dual, 0, Fraction(-1))),
        "LP produced negative weights", {},
    ),
    "overloaded-point": (
        lambda out: SimplexOutcome(out.value, _edit(out.primal, 0, Fraction(1)), out.dual),
        "matching weights overload a point", {"point": Point(Fraction(1), 1)},
    ),
    "missed-set": (
        lambda out: SimplexOutcome(out.value, out.primal, _edit(out.dual, 1, Fraction(0))),
        "transversal weights miss a set", {"set": 0},
    ),
    "duality-gap": (
        lambda out: SimplexOutcome(out.value, out.primal, _edit(out.dual, 0, Fraction(1))),
        "duality gap", {"primal": Fraction(3, 2), "dual": Fraction(5, 2)},
    ),
    # off by 1/210: over one weight's own denominator the sums still look
    # tight, so the checks must run over the weights' lcm (210)
    "overloaded-by-1/210": (
        lambda out: SimplexOutcome(
            out.value, _edit(out.primal, 0, out.primal[0] + Fraction(1, 210)), out.dual
        ),
        "matching weights overload a point", {"point": Point(Fraction(1), 1)},
    ),
    "missed-by-1/210": (
        lambda out: SimplexOutcome(
            out.value, out.primal, _edit(out.dual, 1, out.dual[1] - Fraction(1, 210))
        ),
        "transversal weights miss a set", {"set": 0},
    ),
}


@pytest.mark.parametrize("corruption", sorted(CORRUPTIONS))
def test_a_corrupted_lp_optimum_is_refused(monkeypatch, corruption):
    import dintervals.piercing as piercing

    corrupt, message, diagnostics = CORRUPTIONS[corruption]
    solve = piercing.simplex_maximize
    monkeypatch.setattr(piercing, "simplex_maximize", lambda c, A, b: corrupt(solve(c, A, b)))
    _, fam = triangle_triple()
    with pytest.raises(TheoremViolationError) as info:
        piercing._lp(fam, piercing._incidence_graph(fam))
    assert str(info.value) == message
    assert info.value.diagnostics == diagnostics


def test_a_900_point_lp_keeps_its_optimum():
    # 30 sets on three levels of 300 points; set j starts at block
    # perm_l(j) of 10 on level l, so every point is a candidate.  The
    # Fraction tableau took minutes on it; the values are the ones it found.
    rng = random.Random(900)
    P = PointSet(3, tuple(tuple(map(Fraction, range(300))) for _ in range(3)))
    perms = [rng.sample(range(30), 30) for _ in range(3)]
    fam = []
    for j in range(30):
        runs = [(10 * perm[j], min(299, 10 * perm[j] + rng.randrange(9, 60))) for perm in perms]
        fam.append(TraceSet(P, tuple(runs)))
    got = pierce_all(fam)
    assert len(got.lp.candidate_points) == 900
    assert (got.tau_star, got.tau, got.nu) == (Fraction(106, 15), 8, 6)


def test_pierce_all_reproduces_the_triple_exactly():
    _, fam = triangle_triple()
    got = pierce_all(fam)
    assert got.tau == 2
    assert got.nu == 1
    assert got.tau_star == got.nu_star == Fraction(3, 2)
    assert got.lp.certified


def test_pierce_all_solves_the_lp_once(monkeypatch):
    import dintervals.piercing as piercing

    solves = []
    solve = piercing.simplex_maximize
    monkeypatch.setattr(
        piercing, "simplex_maximize", lambda *lp: solves.append(1) or solve(*lp)
    )
    _, fam = triangle_triple()
    assert pierce_all(fam).tau == 2
    assert len(solves) == 1


def test_pierce_all_builds_one_incidence(monkeypatch):
    import dintervals.piercing as piercing

    builds = []
    build = piercing._incidence_graph
    monkeypatch.setattr(piercing, "_incidence_graph", lambda fam: builds.append(1) or build(fam))
    _, fam = triangle_triple()
    assert pierce_all(fam).nu == 1
    assert len(builds) == 1


def test_pierce_all_refuses_a_broken_sandwich(monkeypatch):
    # a planted fault: ν comes back one past the fractional optimum 3/2
    nu = piercing._nu
    monkeypatch.setattr(piercing, "_nu", lambda *args: (2, nu(*args)[1]))
    _, fam = triangle_triple()
    with pytest.raises(TheoremViolationError) as info:
        pierce_all(fam)
    assert str(info.value) == "sandwich ν ≤ ν* = τ* ≤ τ violated"
    assert info.value.diagnostics == {"nu": 2, "lp": Fraction(3, 2), "tau": 2}


def test_sandwich_and_oracles_on_random_families():
    rng = random.Random(401)
    solved = 0
    while solved < 60:
        d = rng.randrange(1, 3)
        ground = random_ground(rng, d, max_per_level=4)
        fam = [random_trace(rng, ground, empty_bias=0.0) for _ in range(rng.randrange(2, 6))]
        fam = [t for t in fam if not t.is_empty]
        if len(fam) < 2:
            continue
        got = pierce_all(fam)
        assert got.nu <= got.nu_star == got.tau_star <= got.tau
        assert got.tau == tau_oracle(fam)
        assert got.nu == nu_oracle(fam)
        solved += 1


# ------------------------------------------------------------------- (p, q)


def test_pairwise_intersecting_family_has_p2_property():
    _, fam = triangle_triple()
    assert pq_check([fam], p=2, q=2) == (True, None)
    assert pq_check([fam], p=3, q=2) == (True, None)


def test_lower_bound_family_has_the_4_3_property():
    fam = gen_helly_lower_bound(p6())
    ok, _ = pq_check([fam], p=4, q=3)
    assert ok
    ok, counterexample = pq_check([fam], p=4, q=4)
    assert not ok and counterexample == (0, 1, 2, 3)


def test_colorful_second_with_p_equal_q_is_the_colorful_property():
    P = line(0, 1, 2, 3)
    f1 = [window(P, {1: (0, 2)})]
    f2 = [window(P, {1: (1, 3)})]
    assert pq_check([f1, f2], p=2, q=2, kind="colorful-second") == (True, None)
    f3 = [window(P, {1: (0, 0)})]
    f4 = [window(P, {1: (3, 3)})]
    ok, combo = pq_check([f3, f4], p=2, q=2, kind="colorful-second")
    assert not ok and combo == (0, 0)


def test_colorful_first_checks_cross_family_picks():
    P = line(0, 1, 2)
    shared = [window(P, {1: (0, 2)}), window(P, {1: (1, 2)})]
    assert pq_check([shared, shared], p=2, q=2, kind="colorful-first") == (True, None)
    Q = line(0, 1, 3, 4)
    low = [window(Q, {1: (0, 0)}), window(Q, {1: (1, 1)})]
    high = [window(Q, {1: (3, 3)}), window(Q, {1: (4, 4)})]
    ok, choices = pq_check([low, high], p=2, q=2, kind="colorful-first")
    assert not ok and choices == ((0, 1), (0, 1))


def test_plain_pq_reads_one_incidence_per_call(monkeypatch):
    # every p-subset is read off the whole family's incidence, built once
    calls = []
    incidence = piercing._incidence
    monkeypatch.setattr(
        piercing, "_incidence", lambda family: calls.append(len(family)) or incidence(family)
    )
    rng = random.Random(27)
    ground = random_ground(rng, 2, max_per_level=5)
    fam = [random_trace(rng, ground) for _ in range(12)]
    # both verdicts, and counterexamples past the first subset, occur
    for p, q in ((5, 2), (3, 1), (4, 2), (6, 3), (12, 12)):
        calls.clear()
        ok, counterexample = pq_check([fam], p, q)
        assert calls == [12]
        subsets = itertools.combinations(range(12), p)
        first = next((idx for idx in subsets if max_point_cover([fam[j] for j in idx])[0] < q), None)
        assert (ok, counterexample) == (first is None, first)


def test_plain_pq_refuses_mixed_grounds_before_any_subset():
    P, Q = line(0, 1), line(0, 2)
    fam = [window(P, {1: (0, 0)}), window(P, {1: (1, 1)}), window(Q, {1: (0, 1)})]
    # the first pair already fails, but the whole family is checked first
    with pytest.raises(GroundSetMismatchError):
        pq_check([fam], p=2, q=2)


def test_colorful_second_pq_reads_one_incidence_per_call(monkeypatch):
    # every colorful tuple is read off one incidence of the concatenated
    # families, built once
    calls = []
    incidence = piercing._incidence
    monkeypatch.setattr(
        piercing, "_incidence", lambda family: calls.append(len(family)) or incidence(family)
    )
    rng = random.Random(25)
    ground = random_ground(rng, 2, max_per_level=5)
    families = [[random_trace(rng, ground) for _ in range(n)] for n in (7, 8, 7)]
    # both verdicts, and counterexamples past the first tuple, occur
    for q in (1, 2, 3):
        calls.clear()
        ok, counterexample = pq_check(families, 3, q, "colorful-second")
        assert calls == [22]
        tuples = itertools.product(*(range(len(f)) for f in families))
        members = lambda c: [families[i][j] for i, j in enumerate(c)]
        first = next((c for c in tuples if max_point_cover(members(c))[0] < q), None)
        assert (ok, counterexample) == (first is None, first)


def test_colorful_second_pq_refuses_mixed_grounds_before_any_tuple():
    P, Q = line(0, 1), line(0, 2)
    families = [[window(P, {1: (0, 0)})], [window(P, {1: (1, 1)}), window(Q, {1: (0, 1)})]]
    # the first tuple already fails, but every family is checked first
    with pytest.raises(GroundSetMismatchError):
        pq_check(families, p=2, q=2, kind="colorful-second")


def test_colorful_first_pq_reads_one_incidence_per_call(monkeypatch):
    # every choice is read off one incidence of the concatenated
    # families, built once, and no colorful tuple is walked
    calls = []
    incidence = piercing._incidence
    monkeypatch.setattr(
        piercing, "_incidence", lambda family: calls.append(len(family)) or incidence(family)
    )

    def no_walk(*args):
        raise AssertionError("a colorful tuple walk was made")

    monkeypatch.setattr(geometry, "colorful_tuples", no_walk)
    assert not hasattr(piercing, "colorful_tuples")
    rng = random.Random(29)
    ground = random_ground(rng, 2, max_per_level=5)
    families = [[random_trace(rng, ground) for _ in range(n)] for n in (6, 5, 6)]
    outcomes = []
    for p, q in ((3, 1), (2, 2), (3, 2), (4, 2), (3, 3), (4, 3)):
        calls.clear()
        got = pq_check(families[:q], p, q, "colorful-first")
        assert calls == [sum(len(f) for f in families[:q])]
        choices = itertools.product(
            *(itertools.combinations(range(len(f)), p) for f in families[:q])
        )
        picks = lambda c: [[f[j] for j in js] for f, js in zip(families, c)]
        meets = lambda c: any(intersect_all(t)[1] for t in itertools.product(*picks(c)))
        first = next((c for c in choices if not meets(c)), None)
        assert got == (first is None, first)
        outcomes.append(first if first is None else first != (tuple(range(p)),) * q)
    # both verdicts, and counterexamples past the first choice, occur
    assert None in outcomes and True in outcomes


def test_colorful_first_pq_refuses_mixed_grounds_before_any_choice():
    P, Q = line(0, 1), line(0, 2)
    low, high = window(P, {1: (0, 0)}), window(P, {1: (1, 1)})
    families = [[low, low], [high, high, window(Q, {1: (0, 1)})]]
    # the first choice already fails without the foreign member, but
    # every family is checked first
    with pytest.raises(GroundSetMismatchError):
        pq_check(families, p=2, q=2, kind="colorful-first")


def test_pq_check_arity_errors():
    P = line(0, 1)
    f = [window(P, {1: (0, 1)})]
    cases = [
        ([f], 1, 2, "plain", "need p ≥ q ≥ 1"),
        ([f], 0, 0, "plain", "need p ≥ q ≥ 1"),
        ([f], 1, 1, "no-such-kind", "unknown kind 'no-such-kind'"),
        ([f, f], 1, 1, "plain", "plain kind takes exactly one family"),
        ([f], 2, 1, "plain", "family has 1 < p = 2 members"),
        ([f], 1, 2, "colorful-first", "need p ≥ q ≥ 1"),
        ([f], 2, 2, "colorful-first", "colorful-first takes q = 2 families"),
        ([f, f + f], 2, 2, "colorful-first", "every family needs at least p members"),
        ([f], 2, 1, "colorful-second", "colorful-second takes p = 2 families"),
        ([f, []], 2, 1, "colorful-second", "families must be nonempty"),
    ]
    for families, p, q, kind, message in cases:
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            pq_check(families, p, q, kind)


# ----------------------------------------------------------------- blow-ups


def test_blow_up_repeats_each_set_in_order():
    P = line(0, 1, 2, 3)
    a = window(P, {1: (0, 1)})
    b = window(P, {1: (2, 3)})
    assert blow_up([a, b], [2, 1]) == (a, a, b)


def test_blow_up_multiplicity_zero_drops_a_set():
    P = line(0, 1)
    a = window(P, {1: (0, 0)})
    b = window(P, {1: (1, 1)})
    assert blow_up([a, b], [0, 2]) == (b, b)


def test_blow_up_with_ones_keeps_the_lp_value():
    _, fam = triangle_triple()
    assert pierce_all(blow_up(fam, [1, 1, 1])).tau_star == pierce_all(fam).tau_star


def test_blow_up_rejects_bad_multiplicities():
    P = line(0, 1)
    a = window(P, {1: (0, 1)})
    with pytest.raises(ValueError):
        blow_up([a], [1, 2])
    with pytest.raises(ValueError):
        blow_up([a], [-1])


def test_blow_up_cover_beats_the_fractional_ratio():
    # an intersecting subfamily of the blow-up of size >= total / nu*
    rng = random.Random(402)
    done = 0
    while done < 40:
        d = rng.randrange(1, 3)
        ground = random_ground(rng, d, max_per_level=4)
        fam = [random_trace(rng, ground, empty_bias=0.0) for _ in range(rng.randrange(2, 5))]
        fam = [t for t in fam if not t.is_empty]
        if len(fam) < 2:
            continue
        mult = [rng.randrange(0, 4) for _ in fam]
        total = sum(mult)
        if total == 0:
            continue
        cover, _ = max_point_cover(blow_up(fam, mult))
        nu_star = pierce_all(fam).nu_star
        assert cover * nu_star >= total
        done += 1


# ------------------------------------------------------------ piercing bound


def test_bound_is_tight_on_the_triangle_triple():
    _, fam = triangle_triple()
    ok, tau, nu = piercing_bound_check(fam)
    assert ok and tau == 2 and nu == 1
    assert tau == (2 * 2 - 2) * nu


def test_bound_with_a_common_point_two_levels():
    P = PointSet(2, ((Fraction(0), Fraction(1)), (Fraction(0), Fraction(1))))
    fam = [window(P, {1: (0, 1)}), window(P, {1: (0, 0)})]
    ok, tau, nu = piercing_bound_check(fam)
    assert ok and tau == 1 and nu == 1


def test_bound_on_a_line_is_the_interval_identity():
    P = line(0, 1, 2, 3)
    fam = [window(P, {1: (0, 1)}), window(P, {1: (2, 3)})]
    ok, tau, nu = piercing_bound_check(fam)
    assert ok and tau == nu == 2


@pytest.mark.parametrize(
    "d, tau, nu, ok",
    [(2, 2, 1, True), (2, 3, 1, False), (3, 12, 2, True), (3, 13, 2, False),
     (1, 2, 2, True), (1, 3, 2, False), (1, 1, 2, False)],
)
def test_bound_holds_at_equality_and_fails_one_past_it(monkeypatch, d, tau, nu, ok):
    # τ ≤ (d²−d)·ν at d ≥ 2 and τ = ν at d = 1, with τ and ν planted
    P = PointSet(d, ((Fraction(0),),) * d)
    fam = [window(P, {1: (0, 0)})]
    monkeypatch.setattr(piercing, "pierce_all", lambda family: SimpleNamespace(tau=tau, nu=nu))
    assert piercing_bound_check(fam) == (ok, tau, nu)


def test_bound_never_fails_on_random_two_level_families():
    rng = random.Random(403)
    done = 0
    while done < 50:
        ground = random_ground(rng, 2, max_per_level=4)
        fam = [random_trace(rng, ground, empty_bias=0.0) for _ in range(rng.randrange(2, 6))]
        fam = [t for t in fam if not t.is_empty]
        if len(fam) < 2:
            continue
        ok, _, _ = piercing_bound_check(fam)
        assert ok
        done += 1
