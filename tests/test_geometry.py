"""Exact-rational geometry of traces: pinned values plus randomized laws."""

import itertools
import random
from fractions import Fraction

import pytest

from dintervals import (
    DimensionMismatchError,
    DInterval,
    GroundSetMismatchError,
    LexValue,
    Point,
    PointSet,
    TraceSet,
    f_value,
    hull,
    intersect_all,
    k_intersects,
    minimal_dinterval,
    trace_of,
)
from dintervals.geometry import colorful_tuples
from helpers import p6, random_ground, random_subset, random_trace


def pts(trace: TraceSet) -> set[Point]:
    return set(trace.points())


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


# ---------------------------------------------------------- intersect_all


def test_intersection_of_overlapping_runs():
    P = p6()
    a = TraceSet.from_points(P, [Point(Fraction(0), 1), Point(Fraction(1), 1)])
    b = TraceSet.from_points(
        P, [Point(Fraction(1), 1), Point(Fraction(2), 1), Point(Fraction(0), 2)]
    )
    got, levels = intersect_all([a, b])
    assert pts(got) == {Point(Fraction(1), 1)}
    assert levels == 1


def test_intersection_of_disjoint_traces_is_empty():
    P = p6()
    a = TraceSet.from_points(P, [Point(Fraction(0), 1)])
    b = TraceSet.from_points(P, [Point(Fraction(2), 1)])
    got, levels = intersect_all([a, b])
    assert got.is_empty and levels == 0


def test_intersection_of_full_trace_with_itself():
    P = p6()
    full = TraceSet.from_points(P, P.points())
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
        combos = list(itertools.product(*(range(len(f)) for f in families)))
        # with no cut the walk is the product itself
        assert [combo for combo, _ in colorful_tuples(families, 0)] == combos
        expected = []
        for combo in combos:
            levels = [
                intersect_all([families[i][j] for i, j in enumerate(combo[:n])])[1]
                for n in range(1, len(combo) + 1)
            ]
            thin = next((n for n, c in enumerate(levels, 1) if c < k), None)
            prefix = combo if thin is None else combo[:thin]
            if not expected or expected[-1] != prefix:
                expected.append(prefix)
        got = list(colorful_tuples(families, k))
        assert [combo for combo, _ in got] == expected
        for combo, joint in got:
            members = [families[i][j] for i, j in enumerate(combo)]
            assert joint == intersect_all(members)[0]
            if len(combo) < len(families):
                assert joint.level_count < k


# ------------------------------------------------------- minimal_dinterval


def test_minimal_dinterval_per_level_min_max():
    # ground set where {0, 2} is contiguous on level 1
    P = PointSet(2, ((Fraction(0), Fraction(2)), (Fraction(1),)))
    C = TraceSet.from_points(
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
    C = TraceSet.from_points(P, [Point(Fraction(5), 2)])
    got = minimal_dinterval(C)
    assert got.levels[0].is_empty
    assert got.levels[1].lo == 5 and got.levels[1].hi == 5


# ----------------------------------------------------------------- f_value


def test_f_value_takes_per_level_maxima():
    P = p6()
    C = TraceSet.from_points(
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
        assert levels == got.level_count
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
