"""Exact-rational geometry of traces: pinned values plus randomized laws."""

import itertools
import random
from fractions import Fraction

import pytest

from dintervals import (
    DimensionMismatchError,
    DInterval,
    GroundSetMismatchError,
    LevelInterval,
    LexValue,
    Point,
    PointSet,
    RadonPartition,
    SimplicialComplex,
    TraceSet,
    f_value,
    frac_helly_stats,
    helly_check,
    hull,
    intersect_all,
    jsonify,
    k_intersects,
    max_k_intersecting_subfamily,
    max_point_cover,
    maxima_witness_subfamily,
    minimal_dinterval,
    nerve,
    pierce_all,
    pq_check,
    trace_of,
)
from dintervals.geometry import colorful_tuples
from helpers import p6, random_ground, random_subset, random_trace


def pts(trace: TraceSet) -> set[Point]:
    return set(trace.points())


# ------------------------------------------------------------ construction


@pytest.mark.parametrize("d, levels, error, message", [
    (0, (), ValueError, "d must be at least 1"),
    (2, ((Fraction(0),),), DimensionMismatchError, "expected 2 coordinate levels, got 1"),
    (1, ((Fraction(1), Fraction(1)),), ValueError, "strictly increasing"),
    (2, ((), (Fraction(0), Fraction(2), Fraction(1))), ValueError, "strictly increasing"),
])
def test_point_set_refuses_bad_levels(d, levels, error, message):
    with pytest.raises(error, match=message):
        PointSet(d, levels)


@pytest.mark.parametrize("lo, hi, message", [
    (Fraction(0), None, "both set or both None"),
    (None, Fraction(0), "both set or both None"),
    (Fraction(2), Fraction(1), r"empty-by-order interval \[2, 1\]"),
])
def test_level_interval_refuses_a_half_or_reversed_piece(lo, hi, message):
    with pytest.raises(ValueError, match=message):
        LevelInterval(lo, hi)


def test_trace_set_refuses_a_run_count_off_the_levels():
    with pytest.raises(DimensionMismatchError, match="one run per level required"):
        TraceSet(p6(), ((0, 0),))


@pytest.mark.parametrize("run", [(-1, 0), (2, 1), (0, 3)])
def test_trace_set_refuses_a_run_out_of_range(run):
    # p6 has indices 0..2 on each level
    with pytest.raises(ValueError, match=r"out of range on level 2"):
        TraceSet(p6(), ((0, 2), run))


# ---------------------------------------------------------------- trace_of


def test_trace_of_single_level_window():
    P = p6()
    I = DInterval.from_pairs(2, {1: (0, 1)})
    assert pts(trace_of(I, P)) == {Point(Fraction(0), 1), Point(Fraction(1), 1)}


def test_trace_of_window_between_points_is_empty():
    P = p6()
    I = DInterval.from_pairs(2, {1: (Fraction(1, 2), Fraction(3, 4))})
    assert trace_of(I, P).is_empty


def test_trace_of_full_cover_is_all_of_p():
    P = p6()
    I = DInterval.from_pairs(2, {1: (0, 2), 2: (0, 2)})
    assert pts(trace_of(I, P)) == set(P.points())


def test_trace_of_rejects_dimension_mismatch():
    P = p6()
    with pytest.raises(DimensionMismatchError):
        trace_of(DInterval.from_pairs(1, {1: (0, 1)}), P)


# -------------------------------------------------------------------- hull


def test_hull_fills_the_gap_on_a_level():
    P = p6()
    got = hull(P, [Point(Fraction(0), 1), Point(Fraction(2), 1)])
    assert pts(got) == {Point(Fraction(0), 1), Point(Fraction(1), 1), Point(Fraction(2), 1)}


def test_hull_of_empty_set_is_empty_trace():
    assert hull(p6(), []).is_empty


def test_hull_of_one_point_per_level_is_identity():
    P = p6()
    Y = {Point(Fraction(1), 1), Point(Fraction(0), 2)}
    assert pts(hull(P, Y)) == Y


def test_hull_rejects_foreign_points():
    with pytest.raises(ValueError):
        hull(p6(), [Point(Fraction(7), 1)])


@pytest.mark.parametrize("level", [0, 3])
def test_points_off_the_levels_are_not_in_the_ground(level):
    # level 0 must not wrap round to the last level
    P, p = p6(), Point(Fraction(2), level)
    for build in (P.index_of, lambda p: hull(P, [p])):
        with pytest.raises(ValueError, match="not in ground set"):
            build(p)


def test_membership_agrees_with_the_listed_points():
    # every ground point; coordinates off every ground (random_ground
    # draws from [-8, 8] over denominators 1, 2, 3); and the coordinates
    # of level 1 on levels 0 and d + 1
    rng = random.Random(211)
    for _ in range(150):
        d = rng.randint(1, 3)
        ground = random_ground(rng, d, max_per_level=5)
        t = random_trace(rng, ground)
        listed = set(t.points())
        for p in ground.points():
            assert (p in t) == (p in listed), (ground, t, p)
        for lvl in range(1, d + 1):
            for c in (Fraction(-9), Fraction(1, 7), Fraction(9)):
                assert Point(c, lvl) not in t
        for c in ground.level_coords(1):
            assert Point(c, 0) not in t and Point(c, d + 1) not in t


# ---------------------------------------------------------- intersect_all


def test_intersection_of_overlapping_runs():
    P = p6()
    a = hull(P, [Point(Fraction(0), 1), Point(Fraction(1), 1)])
    b = hull(
        P, [Point(Fraction(1), 1), Point(Fraction(2), 1), Point(Fraction(0), 2)]
    )
    got, levels = intersect_all([a, b])
    assert pts(got) == {Point(Fraction(1), 1)}
    assert levels == 1


def test_intersection_of_disjoint_traces_is_empty():
    P = p6()
    a = hull(P, [Point(Fraction(0), 1)])
    b = hull(P, [Point(Fraction(2), 1)])
    got, levels = intersect_all([a, b])
    assert got.is_empty and levels == 0


def test_intersection_of_full_trace_with_itself():
    P = p6()
    full = hull(P, P.points())
    got, levels = intersect_all([full, full])
    assert pts(got) == set(P.points())
    assert levels == 2


def test_intersect_all_requires_at_least_one_trace():
    with pytest.raises(ValueError):
        intersect_all([])


def test_intersect_all_rejects_mixed_ground_sets():
    P = p6()
    Q = PointSet(2, ((Fraction(0),), (Fraction(0),)))
    with pytest.raises(GroundSetMismatchError):
        intersect_all([TraceSet.empty(P), TraceSet.empty(Q)])


MIXED_GROUND_QUERIES = {
    "max_point_cover": lambda a, b: max_point_cover([a, b]),
    "max_k_intersecting_subfamily": lambda a, b: max_k_intersecting_subfamily([a, b], 1),
    "pq_check-plain": lambda a, b: pq_check([[a, b]], 2, 2),
    "pq_check-colorful-second": lambda a, b: pq_check([[a], [b]], 2, 2, "colorful-second"),
    "frac_helly_stats": lambda a, b: frac_helly_stats([a, b], 1),
    "pierce_all": lambda a, b: pierce_all([a, b]),
    "helly_check": lambda a, b: helly_check([a, b], 1),
    "maxima_witness_subfamily": lambda a, b: maxima_witness_subfamily([a, b], 1),
    "nerve": lambda a, b: nerve([a, b]),
}


@pytest.mark.parametrize("query", MIXED_GROUND_QUERIES.values(), ids=MIXED_GROUND_QUERIES)
def test_every_family_query_refuses_mixed_ground_sets(query):
    # the runs overlap at index 1, but the sets share no point
    a = TraceSet(PointSet(1, (tuple(map(Fraction, (0, 1, 2))),)), ((0, 1),))
    b = TraceSet(PointSet(1, (tuple(map(Fraction, (10, 11, 12))),)), ((1, 2),))
    with pytest.raises(GroundSetMismatchError):
        query(a, b)


# --------------------------------------------------------- colorful_tuples


def test_colorful_tuples_match_a_product_brute_force():
    rng = random.Random(31)
    for _ in range(300):
        d = rng.randrange(1, 4)
        k = rng.randrange(1, d + 1)
        ground = random_ground(rng, d, max_per_level=4)
        families = [
            [random_trace(rng, ground, 0.2) for _ in range(rng.randrange(1, 4))]
            for _ in range(rng.randrange(1, 5))
        ]
        # the subset rule walks the r-subsets of all the members pooled
        pool = [t for f in families for t in f]
        r = len(families)
        for walked, combos, subsets in (
            (families, list(itertools.product(*(range(len(f)) for f in families))), False),
            ([pool] * r, list(itertools.combinations(range(len(pool)), r)), True),
        ):
            # with no cut the walk is the product (or the combinations) itself
            uncut = colorful_tuples(walked, 0, subsets)
            assert [combo for combo, _, _ in uncut] == combos
            expected = []
            for combo in combos:
                levels = [
                    intersect_all([walked[i][j] for i, j in enumerate(combo[:n])])[1]
                    for n in range(1, len(combo) + 1)
                ]
                thin = next((n for n, c in enumerate(levels, 1) if c < k), None)
                prefix = combo if thin is None else combo[:thin]
                if not expected or expected[-1] != prefix:
                    expected.append(prefix)
            got = list(colorful_tuples(walked, k, subsets))
            assert [combo for combo, _, _ in got] == expected
            for combo, runs, levels in got:
                members = [walked[i][j] for i, j in enumerate(combo)]
                joint = intersect_all(members)[0]
                assert runs == (None if joint.is_empty else joint.runs)
                assert levels == sum(run is not None for run in joint.runs)
                if len(combo) < r:
                    assert levels < k


def test_colorful_tuples_cut_an_empty_first_member():
    P = p6()
    empty, full = TraceSet.empty(P), TraceSet(P, ((0, 2), (0, 2)))
    got = list(colorful_tuples([[empty, full], [full]], 1))
    assert got == [((0,), None, 0), ((1, 0), ((0, 2), (0, 2)), 2)]
    # uncut, the empty member's tuples run on with an empty joint
    assert list(colorful_tuples([[empty], [full]], 0)) == [((0, 0), None, 0)]


def test_colorful_tuples_reject_mixed_ground_sets():
    P = p6()
    Q = PointSet(2, ((Fraction(0),), (Fraction(1),)))
    with pytest.raises(GroundSetMismatchError):
        list(colorful_tuples([[TraceSet.empty(P)], [TraceSet.empty(Q)]], 0))
    # an equal ground built apart is the same ground
    twin = PointSet(2, P.levels)
    assert len(list(colorful_tuples([[TraceSet.empty(P)], [TraceSet.empty(twin)]], 0))) == 1


@pytest.mark.parametrize("k", [0, -1])
def test_colorful_tuples_with_k_at_most_zero_yield_the_product(k):
    P = p6()
    a, b = TraceSet(P, ((0, 0), None)), TraceSet(P, ((2, 2), None))
    families = [[a, b], [b, TraceSet.empty(P)], [a]]
    got = list(colorful_tuples(families, k))
    assert [combo for combo, _, _ in got] == list(itertools.product(range(2), range(2), range(1)))
    assert all(runs is None and levels == 0 for _, runs, levels in got)


# ------------------------------------------------------- minimal_dinterval


def test_minimal_dinterval_per_level_min_max():
    # ground set where {0, 2} is contiguous on level 1
    P = PointSet(2, ((Fraction(0), Fraction(2)), (Fraction(1),)))
    C = hull(
        P, [Point(Fraction(0), 1), Point(Fraction(2), 1), Point(Fraction(1), 2)]
    )
    got = minimal_dinterval(C)
    assert got.levels[0].lo == 0 and got.levels[0].hi == 2
    assert got.levels[1].lo == 1 and got.levels[1].hi == 1


def test_minimal_dinterval_of_empty_trace():
    got = minimal_dinterval(TraceSet.empty(p6()))
    assert all(piece.is_empty for piece in got.levels)


def test_minimal_dinterval_of_single_point_on_level_two():
    P = PointSet(2, ((), (Fraction(5),)))
    C = hull(P, [Point(Fraction(5), 2)])
    got = minimal_dinterval(C)
    assert got.levels[0].is_empty
    assert got.levels[1].lo == 5 and got.levels[1].hi == 5


# ----------------------------------------------------------------- f_value


def test_f_value_takes_per_level_maxima():
    P = p6()
    C = hull(
        P, [Point(Fraction(0), 1), Point(Fraction(1), 1), Point(Fraction(2), 2)]
    )
    assert f_value(C).components == (Fraction(1), Fraction(2))


def test_f_value_of_empty_trace_is_all_neg_inf():
    assert f_value(TraceSet.empty(p6())).components == (None, None)


def test_lex_order_puts_neg_inf_below_every_finite():
    lo = LexValue((None, Fraction(5)))
    hi = LexValue((Fraction(0), None))
    assert lo < hi and not hi < lo


def test_lex_order_rejects_mismatched_lengths():
    with pytest.raises(DimensionMismatchError):
        LexValue((None,)) < LexValue((None, None))


# -------------------------------------------------------------- properties


def test_retracing_minimal_dinterval_is_identity():
    """Round-tripping a trace through its minimal enclosing d-interval."""
    rng = random.Random(101)
    for _ in range(300):
        ground = random_ground(rng, rng.randrange(1, 4))
        t = random_trace(rng, ground)
        assert trace_of(minimal_dinterval(t), ground) == t


def test_hull_is_a_closure_operator():
    rng = random.Random(102)
    for _ in range(300):
        ground = random_ground(rng, rng.randrange(1, 4))
        Y = random_subset(rng, ground)
        Z = Y + random_subset(rng, ground)  # Y subseteq Z
        hY, hZ = hull(ground, Y), hull(ground, Z)
        assert all(p in hY for p in Y)
        assert hull(ground, hY.points()) == hY
        assert all(p in hZ for p in hY.points())


def test_intersection_is_again_a_trace():
    # contiguity per level: re-trace of the minimal interval must agree
    rng = random.Random(103)
    for _ in range(300):
        ground = random_ground(rng, rng.randrange(1, 4))
        traces = [random_trace(rng, ground) for _ in range(rng.randrange(1, 5))]
        got, levels = intersect_all(traces)
        assert trace_of(minimal_dinterval(got), ground) == got
        assert levels == sum(r is not None for r in got.runs)
        assert k_intersects(traces, levels)
        assert not k_intersects(traces, levels + 1)


def test_f_is_componentwise_antitone_under_intersection():
    rng = random.Random(104)
    for _ in range(300):
        ground = random_ground(rng, rng.randrange(1, 4))
        family = [random_trace(rng, ground) for _ in range(rng.randrange(2, 6))]
        sub = rng.sample(family, rng.randrange(1, len(family)))
        whole = f_value(intersect_all(family)[0])
        part = f_value(intersect_all(sub)[0])
        # per level: the whole family's maximum is −∞ (None) or at most the part's
        assert len(whole.components) == len(part.components)
        for w, p in zip(whole.components, part.components):
            assert w is None or (p is not None and w <= p)
        assert not part < whole  # lexicographic consequence


def test_arithmetic_stays_exact_through_the_pipeline():
    # thirds and sevenths survive hull -> intersect -> minimal interval
    P = PointSet(
        1, ((Fraction(1, 3), Fraction(2, 3), Fraction(5, 7), Fraction(6, 7)),)
    )
    t = hull(P, [Point(Fraction(1, 3), 1), Point(Fraction(6, 7), 1)])
    got, _ = intersect_all([t, t])
    box = minimal_dinterval(got)
    assert box.levels[0].lo == Fraction(1, 3)
    assert box.levels[0].hi == Fraction(6, 7)
    assert f_value(got).components == (Fraction(6, 7),)


_P6_FULL = TraceSet(p6(), ((0, 2), (0, 2)))
_ORIGIN = Point(Fraction(0), 1)


@pytest.mark.parametrize(
    "query, expected",
    [
        pytest.param(lambda: helly_check([], 2).verdict, True, id="helly-of-no-sets"),
        pytest.param(lambda: max_k_intersecting_subfamily([], 1), (), id="max-k-of-no-sets"),
        pytest.param(lambda: list(colorful_tuples([], 1)), [], id="colorful-of-no-families"),
        pytest.param(lambda: SimplicialComplex(frozenset()).dim, None, id="void-dim"),
        pytest.param(
            lambda: ([1] in nerve([_P6_FULL]), [2] in nerve([_P6_FULL])),
            (True, False),
            id="complex-contains",
        ),
        pytest.param(
            lambda: (len(TraceSet.empty(p6())), bool(TraceSet.empty(p6()))),
            (0, False),
            id="empty-trace-len-bool",
        ),
        pytest.param(
            lambda: (Point(Fraction(0), 3) in _P6_FULL, Point(Fraction(1, 2), 1) in _P6_FULL),
            (False, False),
            id="trace-contains-off-ground",
        ),
        pytest.param(
            lambda: RadonPartition((_ORIGIN,), (_ORIGIN,), _ORIGIN).verify(p6()),
            False,
            id="radon-overlapping-sides",
        ),
        pytest.param(lambda: jsonify(frozenset({1})), "frozenset({1})", id="jsonify-fallback"),
    ],
)
def test_edge_cases_keep_their_answers(query, expected):
    assert query() == expected
