"""Radon, Helly, colorful and fractional Helly: pinned cases plus oracles."""

import itertools
import random
import time
from fractions import Fraction

import pytest

from dintervals import (
    ColorfulHellyProperty,
    DInterval,
    DIntervalError,
    GuardExceededError,
    Point,
    PointSet,
    PreconditionError,
    TheoremViolationError,
    TraceSet,
    cfh_stats,
    colorful_helly_points,
    f_value,
    frac_helly_stats,
    gen_helly_lower_bound,
    gen_radon_lower_bound,
    helly_check,
    intersect_all,
    k_intersects,
    max_k_intersecting_subfamily,
    maxima_witness_subfamily,
    radon_number_bruteforce,
    radon_partition,
    trace_of,
)
from helpers import (
    nu_and_subfamily,
    p6,
    random_ground,
    random_trace,
    reference_radon_split,
)


def line(*coords) -> PointSet:
    return PointSet(1, (tuple(Fraction(c) for c in coords),))


def window(ground: PointSet, pairs: dict[int, tuple]) -> TraceSet:
    return trace_of(DInterval.from_pairs(ground.d, pairs), ground)


# ------------------------------------------------------------------- Radon


def test_radon_three_collinear_points_split_middle_against_outer():
    P = line(0, 1, 2)
    part = radon_partition(P, P.points())
    assert part is not None and part.verify(P)
    assert part.witness == Point(Fraction(1), 1)
    sides = {frozenset(part.side_a), frozenset(part.side_b)}
    assert frozenset({Point(Fraction(1), 1)}) in sides


def test_radon_two_points_per_level_has_no_partition():
    P = p6()
    A = [
        Point(Fraction(0), 1),
        Point(Fraction(2), 1),
        Point(Fraction(0), 2),
        Point(Fraction(2), 2),
    ]
    assert radon_partition(P, A) is None


def test_radon_two_points_on_a_line_has_no_partition():
    P = line(0, 1)
    assert radon_partition(P, P.points()) is None


def test_radon_rejects_foreign_points():
    with pytest.raises(ValueError):
        radon_partition(line(0, 1), [Point(Fraction(9), 1)])


def test_radon_number_is_five_for_two_levels():
    P = PointSet(2, ((Fraction(0), Fraction(1), Fraction(2)),) * 2)
    assert radon_number_bruteforce(P, cap=6) == 5


def test_radon_number_is_three_on_a_line():
    assert radon_number_bruteforce(line(0, 1, 2), cap=4) == 3


def test_radon_number_exceeds_cap_on_two_points():
    assert radon_number_bruteforce(line(0, 1), cap=2) is None


def test_a_failed_witness_check_on_the_constructed_partition_raises(monkeypatch):
    # report every meet of index spans as empty: the middle point then
    # seems to lie outside the outer side's hull, which must not pass
    import dintervals.helly as helly

    monkeypatch.setattr(helly, "_meet", lambda a, b: None)
    P = line(0, 1, 2)
    with pytest.raises(TheoremViolationError, match="constructed partition failed") as info:
        radon_partition(P, P.points())
    assert info.value.diagnostics == {"subset": tuple(P.points())}
    with pytest.raises(TheoremViolationError, match="constructed partition failed"):
        radon_number_bruteforce(P, cap=3)


def test_the_radon_search_builds_no_traces(monkeypatch):
    import dintervals.helly as helly

    for name in ("hull", "intersect_all", "TraceSet"):
        monkeypatch.setattr(helly, name, None)
    P = p6()
    assert radon_number_bruteforce(P, cap=6) == 5
    assert radon_partition(P, [p for p in P.points() if p.coord != 1]) is None
    assert radon_partition(P, P.points()).witness == Point(Fraction(1), 1)


def test_the_level_search_returns_the_first_split_of_the_walk_over_all_splits():
    # the same sides and witness as trying every split in product order,
    # on every subset below 2d+1 cells of seeded grounds
    import dintervals.helly as helly

    rng = random.Random(311)
    grounds = [random_ground(rng, d, max_per_level=4) for d in (1, 2, 3) for _ in range(12)]
    grounds.append(PointSet(3, (tuple(map(Fraction, range(4))),) * 3))
    checked = found = twice = 0
    for ground in grounds:
        d = ground.d
        cells = [(lvl, i) for lvl, coords in enumerate(ground.levels) for i in range(len(coords))]
        for n in range(1, min(2 * d, len(cells)) + 1):
            for subset in itertools.combinations(cells, n):
                got = helly._radon_cells(ground, list(subset))
                assert got == reference_radon_split(d, list(subset)), (ground, subset)
                checked += 1
                found += got is not None
                levels = [lvl for lvl, _ in subset]
                twice += sum(levels.count(lvl) >= 3 for lvl in set(levels)) == 2
    # empty levels, subsets with no split, and subsets that split on two
    # levels, where the order of the levels decides, all occur
    assert any(not coords for g in grounds for coords in g.levels)
    assert checked > 5000 and 1000 < found < checked and twice > 50


def test_the_radon_number_of_a_three_by_three_ground_takes_few_meets(monkeypatch):
    # a split is decided on one level before its witness is looked up, so
    # only subsets that split pay a meet; a meet per split tried takes 545
    import dintervals.helly as helly

    calls = []
    least_meet = helly._least_meet

    def counted(*args):
        calls.append(args)
        return least_meet(*args)

    monkeypatch.setattr(helly, "_least_meet", counted)
    P = PointSet(3, ((Fraction(0), Fraction(1), Fraction(2)),) * 3)
    assert radon_number_bruteforce(P, 7) == 7
    assert len(calls) <= 100


def test_a_split_that_meets_on_a_level_without_a_common_cell_raises(monkeypatch):
    # below 2d+1 points the middle of three cells on one level splits the
    # subset; an empty meet of its index spans must not pass for a witness
    import dintervals.helly as helly

    monkeypatch.setattr(helly, "_meet", lambda a, b: None)
    P = PointSet(2, ((Fraction(0), Fraction(1), Fraction(2)), (Fraction(0),)))
    A = [p for p in P.points() if p.level == 1]
    with pytest.raises(TheoremViolationError, match="constructed partition failed") as info:
        radon_partition(P, A)
    assert info.value.diagnostics == {"subset": tuple(A)}
    with pytest.raises(TheoremViolationError, match="constructed partition failed"):
        radon_number_bruteforce(P, 3)


def test_the_radon_guard_is_read_once_per_call(monkeypatch):
    # the number checks the ground, a partition below 2d+1 points its
    # subset; the constructed partition of 2d+1 or more checks nothing
    import dintervals.helly as helly

    seen = []
    monkeypatch.setattr(helly, "check_guard", lambda *args: seen.append(args))
    P = p6()
    assert radon_number_bruteforce(P, cap=6) == 5
    assert seen == [("RADON_POINTS", "ground set size", 6)]
    seen.clear()
    radon_partition(P, list(P.points())[:4])
    assert seen == [("RADON_POINTS", "radon subset size", 4)]
    seen.clear()
    radon_partition(P, list(P.points())[:5])
    assert seen == []
    monkeypatch.undo()
    monkeypatch.setenv("DINTERVALS_GUARD_RADON_POINTS", "3")
    with pytest.raises(GuardExceededError, match="radon subset size: size 4 exceeds guard limit 3"):
        radon_partition(P, list(P.points())[:4])


def _answer(call, *args):
    try:
        return call(*args)
    except (DIntervalError, ValueError) as exc:
        return type(exc).__name__, str(exc)


def _loop_answers(d, fam, helly_cases):
    """The answers of the queries that loop over subfamilies; a failing
    Helly check is left out, because its witness is a trace."""
    ks = range(1, d + 1)
    return [
        [_answer(frac_helly_stats, fam, k) for k in ks],
        [_answer(maxima_witness_subfamily, fam, k) for k in ks],
        _answer(nu_and_subfamily, [t for t in fam if not t.is_empty]),
        [helly_check(fam, m, k) for m, k in helly_cases],
    ]


def test_the_query_loops_build_no_traces(monkeypatch):
    rng = random.Random(307)
    cases = []
    for _ in range(60):
        d = rng.randrange(1, 4)
        ground = random_ground(rng, d, max_per_level=4)
        fam = [random_trace(rng, ground) for _ in range(rng.randrange(1, 7))]
        passing = [
            (m, k) for m in range(1, 2 * d + 1) for k in range(1, d + 1)
            if helly_check(fam, m, k).verdict
        ]
        cases.append((d, fam, passing, _loop_answers(d, fam, passing)))
    # witnesses and refusals both occur, ν above 1, and passing checks
    answers = [ans for *_, ans in cases]
    assert {type(a[0]) for ans in answers for a in ans[1]} == {int, str}
    assert {ans[2][0] for ans in answers} >= {"PreconditionError", 2}
    assert sum(len(passing) for _, _, passing, _ in cases) > 100

    def built(*args, **kwargs):
        raise AssertionError("a trace was built")

    monkeypatch.setattr(TraceSet, "__post_init__", built)
    monkeypatch.setattr(TraceSet, "_trusted", built)
    for d, fam, passing, expected in cases:
        assert _loop_answers(d, fam, passing) == expected


def test_every_large_subset_has_a_verified_partition():
    rng = random.Random(301)
    for _ in range(60):
        d = rng.randrange(1, 4)
        ground = random_ground(rng, d, max_per_level=3)
        pts = list(ground.points())
        if len(pts) < 2 * d + 1:
            continue
        subset = rng.sample(pts, 2 * d + 1)
        part = radon_partition(ground, subset)
        assert part is not None and part.verify(ground)


# ------------------------------------------------------------- helly_check


def test_lower_bound_family_violates_helly_below_2d():
    P = p6()
    fam = gen_helly_lower_bound(P)
    assert len(fam) == 4
    got = helly_check(fam, m=3)
    assert not got.verdict
    assert got.witnesses["violating_family"] == (0, 1, 2, 3)
    assert got.witnesses["intersection_points"] == ()


def test_lower_bound_family_is_vacuously_fine_at_2d():
    got = helly_check(gen_helly_lower_bound(p6()), m=4)
    assert got.verdict
    assert "failing_hypothesis_subfamily" in got.statistics


def test_family_with_common_point_passes_any_m():
    P = line(0, 1, 2)
    fam = [window(P, {1: (0, 2)}), window(P, {1: (1, 2)}), window(P, {1: (0, 1)})]
    for m in (1, 2, 3, 7):
        assert helly_check(fam, m=m).verdict


def test_helly_check_rejects_bad_m():
    with pytest.raises(ValueError):
        helly_check([], m=0)


def test_helly_check_counts_member_evaluations_against_the_work_guard(monkeypatch):
    P = line(0, 1, 2)
    fam = [window(P, {1: (0, 2)})] * 4
    # every subset meets, so the walk runs out: 4·1 + 6·2 + 4·3 = 28
    monkeypatch.setenv("DINTERVALS_GUARD_PQ_WORK", "28")
    assert helly_check(fam, m=3).verdict
    monkeypatch.setenv("DINTERVALS_GUARD_PQ_WORK", "27")
    with pytest.raises(GuardExceededError, match="helly subset enumeration"):
        helly_check(fam, m=3)
    # a disjoint pair ends the walk after 12 + 2 evaluations, far short of
    # the 12·2^11 − 12 a full walk of 12 sets at m = 11 would need
    fam = [window(P, {1: (0, 0)}), window(P, {1: (2, 2)})] + fam * 2 + fam[:2]
    monkeypatch.setenv("DINTERVALS_GUARD_PQ_WORK", "14")
    got = helly_check(fam, m=11)
    assert got.verdict and got.statistics["failing_hypothesis_subfamily"] == (0, 1)


def test_random_families_never_violate_helly_at_2d():
    rng = random.Random(302)
    for _ in range(150):
        d = rng.randrange(1, 4)
        ground = random_ground(rng, d, max_per_level=4)
        fam = [random_trace(rng, ground) for _ in range(rng.randrange(1, 7))]
        assert helly_check(fam, m=2 * d).verdict


# ------------------------------------------------- maxima_witness_subfamily


def test_witness_on_a_line_is_the_set_with_least_maximum():
    P = line(0, 1, 2, 3, 4, 5)
    fam = [window(P, {1: (0, 2)}), window(P, {1: (1, 3)}), window(P, {1: (0, 5)})]
    assert maxima_witness_subfamily(fam, 1) == (0,)


def test_witness_pairs_disjoint_enclosures_on_the_empty_level():
    P = PointSet(2, (tuple(Fraction(c) for c in range(6)),) * 2)
    c1 = window(P, {1: (0, 1), 2: (0, 3)})
    c2 = window(P, {1: (3, 4), 2: (0, 2)})
    c3 = window(P, {1: (0, 4), 2: (1, 5)})
    fam = [c1, c2, c3]
    assert f_value(intersect_all(fam)[0]).components == (None, Fraction(2))
    got = maxima_witness_subfamily(fam, 1)
    assert got == (0, 1)
    assert f_value(intersect_all([c1, c2])[0]) == f_value(intersect_all(fam)[0])


def test_witness_of_a_singleton_family_is_itself():
    P = line(0, 1)
    fam = [window(P, {1: (0, 1)})]
    assert maxima_witness_subfamily(fam, 1) == (0,)


def test_witness_requires_k_intersecting_input():
    P = line(0, 1, 2)
    fam = [window(P, {1: (0, 0)}), window(P, {1: (2, 2)})]
    with pytest.raises(PreconditionError):
        maxima_witness_subfamily(fam, 1)


def test_witness_size_check_fires_one_set_past_the_bound(monkeypatch):
    # C sets level 1's least maximum and A, B are disjoint on level 2, so
    # the witness takes all three: 2d − k at k = 1, and one set past it
    # once _levels is made to claim both levels met, so that k = 2 passes
    P = PointSet(2, (tuple(map(Fraction, range(3))), tuple(map(Fraction, range(2)))))
    a = window(P, {1: (0, 2), 2: (0, 0)})
    b = window(P, {1: (0, 2), 2: (1, 1)})
    c = window(P, {1: (0, 1), 2: (0, 1)})
    assert maxima_witness_subfamily([a, b, c], 1) == (0, 1, 2)
    monkeypatch.setattr("dintervals.helly._levels", lambda joint: 2)
    with pytest.raises(TheoremViolationError) as info:
        maxima_witness_subfamily([a, b, c], 2)
    assert str(info.value) == "witness has 3 sets, exceeding 2"
    assert info.value.diagnostics == {"indices": (0, 1, 2)}


def test_witness_refuses_an_empty_family_and_k_off_its_range():
    P = line(0, 1)
    fam = [window(P, {1: (0, 1)})]
    with pytest.raises(PreconditionError, match="family is empty"):
        maxima_witness_subfamily([], 1)
    for k in (0, 2):
        with pytest.raises(ValueError, match=r"k must lie in \[1, 1\]"):
            maxima_witness_subfamily(fam, k)


def test_witness_refuses_extremes_that_meet_on_an_empty_level(monkeypatch):
    # a planted fault: the sweep key claims level 1 empty, though both
    # sets hold index 1 there, so the extreme enclosures meet
    P = line(0, 1, 2)
    fam = [window(P, {1: (0, 1)}), window(P, {1: (1, 2)})]
    monkeypatch.setattr("dintervals.helly._sweep_key", lambda joint: (-1,))
    with pytest.raises(TheoremViolationError) as info:
        maxima_witness_subfamily(fam, 1)
    assert str(info.value) == "extreme enclosing intervals meet on an empty level"
    assert info.value.diagnostics == {"level": 1}


def test_witness_refuses_a_subfamily_that_changes_the_sweep_value(monkeypatch):
    # a planted fault: the witness subfamily's joint loses its last level,
    # so its sweep key no longer matches the family's
    import dintervals.helly as helly

    P = PointSet(2, (tuple(map(Fraction, range(3))),) * 2)
    fam = [window(P, {1: (0, 1), 2: (0, 2)}), window(P, {1: (0, 2), 2: (1, 1)})]
    assert maxima_witness_subfamily(fam, 2) == (0, 1)
    joint_of, joints = helly._joint, []

    def planted(runs):
        joint = joint_of(runs)
        joints.append(joint)
        return joint if len(joints) == 1 else joint[:-1] + (None,)

    monkeypatch.setattr(helly, "_joint", planted)
    with pytest.raises(TheoremViolationError) as info:
        maxima_witness_subfamily(fam, 2)
    assert str(info.value) == "witness subfamily changes the sweep value"
    assert info.value.diagnostics == {"indices": (0, 1)}


def test_witness_contract_against_bruteforce_enumeration():
    rng = random.Random(303)
    checked = 0
    while checked < 120:
        d = rng.randrange(1, 4)
        k = rng.randrange(1, d + 1)
        ground = random_ground(rng, d, max_per_level=4)
        fam = [random_trace(rng, ground, empty_bias=0.15) for _ in range(rng.randrange(1, 6))]
        if not k_intersects(fam, k):
            continue
        target = f_value(intersect_all(fam)[0])
        got = maxima_witness_subfamily(fam, k)
        assert len(got) <= 2 * d - k
        assert f_value(intersect_all([fam[j] for j in got])[0]) == target
        # some subfamily of the promised size must reproduce f; find one
        found = any(
            f_value(intersect_all([fam[j] for j in idx])[0]) == target
            for r in range(1, 2 * d - k + 1)
            for idx in itertools.combinations(range(len(fam)), min(r, len(fam)))
        )
        assert found
        checked += 1


# ----------------------------------------------------- colorful_helly_points


def test_colorful_selection_on_a_line_picks_point_two():
    P = line(0, 1, 2, 3, 4, 5)
    f1 = [window(P, {1: (0, 2)})]
    f2 = [window(P, {1: (1, 3)}), window(P, {1: (2, 5)})]
    got = colorful_helly_points([f1, f2], k=1)
    assert got.points == (Point(Fraction(2), 1),)
    assert all(got.points[0] in t for t in f2)
    assert got.designated == 1


def test_colorful_selection_with_a_common_point():
    P = line(0, 1, 2, 3, 4)
    f1 = [window(P, {1: (0, 2)}), window(P, {1: (1, 2)})]
    f2 = [window(P, {1: (2, 4)})]
    got = colorful_helly_points([f1, f2], k=1)
    for t in [f1, f2][got.designated]:
        assert all(p in t for p in got.points)


def test_colorful_selection_nested_families_two_levels():
    P = PointSet(2, (tuple(Fraction(c) for c in range(6)),) * 2)
    t1 = window(P, {1: (2, 3), 2: (2, 3)})
    t2 = window(P, {1: (1, 4), 2: (1, 4)})
    t3 = window(P, {1: (0, 5), 2: (0, 5)})
    got = colorful_helly_points([[t1], [t2], [t3]], k=2)
    assert len(got.points) == 2
    assert sorted(p.level for p in got.points) == [1, 2]
    for t in [[t1], [t2], [t3]][got.designated]:
        assert all(p in t for p in got.points)


def test_restricting_the_claim_family_can_break_the_claim():
    # free minimization succeeds; pinning the claim to family 2 cannot,
    # because family 1's only member stops short of family 1's minimum
    P = line(0, 1, 2)
    f1 = [window(P, {1: (0, 2)})]
    f2 = [window(P, {1: (0, 1)})]
    got = colorful_helly_points([f1, f2], k=1)
    assert got.points == (Point(Fraction(1), 1),)
    assert got.designated == 0
    with pytest.raises(TheoremViolationError) as err:
        colorful_helly_points([f1, f2], k=1, designated=1)
    assert err.value.diagnostics["point"] == Point(Fraction(2), 1)


def test_colorful_precondition_failure_reports_the_tuple():
    P = line(0, 1, 2, 3)
    f1 = [window(P, {1: (0, 0)})]
    f2 = [window(P, {1: (3, 3)})]
    with pytest.raises(PreconditionError) as err:
        colorful_helly_points([f1, f2], k=1)
    assert len(err.value.witness) == 2


def test_colorful_arity_is_checked():
    P = line(0, 1)
    f1 = [window(P, {1: (0, 1)})]
    with pytest.raises(ValueError):
        colorful_helly_points([f1], k=1)


def test_colorful_designated_index_must_name_a_family():
    P = line(0, 1)
    fam = [window(P, {1: (0, 1)})]
    for designated in (-1, 2):
        with pytest.raises(ValueError, match="designated index out of range"):
            colorful_helly_points([fam, fam], k=1, designated=designated)


def test_colorful_minimum_below_k_levels_is_refused(monkeypatch):
    # a planted fault: every sweep key reads as all levels empty, so the
    # minimum has no finite component for the k = 1 points
    P = line(0, 1, 2)
    f1 = [window(P, {1: (0, 2)})]
    f2 = [window(P, {1: (1, 2)})]
    monkeypatch.setattr("dintervals.helly._sweep_key", lambda runs: (-1,))
    with pytest.raises(TheoremViolationError) as info:
        colorful_helly_points([f1, f2], k=1)
    assert str(info.value) == "minimizing tuple meets fewer levels than k"
    assert info.value.diagnostics == {"tuple": (0,), "value": "(-inf)"}


def _passes_the_precondition(families, k) -> bool:
    """Does the selection get past its precondition?  A refused empty
    family and a thin colorful tuple count as not."""
    try:
        colorful_helly_points(families, k)
    except PreconditionError:
        return False
    except ValueError as err:
        assert str(err) == "families must be nonempty"
        return False
    return True


def test_the_colorful_property_is_the_selection_precondition():
    # seeded families with 2d − k + 1 families of 0–3 traces each, on
    # narrow grounds so that both verdicts occur
    rng = random.Random(909)
    verdicts = []
    for i in range(240):
        d = 1 + i % 3
        k = 1 + rng.randrange(d)
        ground = random_ground(rng, d, max_per_level=3)
        bias = rng.choice((0.0, 0.1, 0.3))
        sizes = [rng.choice((1, 2, 3)) for _ in range(2 * d - k + 1)]
        if i % 8 == 0:
            sizes[rng.randrange(len(sizes))] = 0
        families = [[random_trace(rng, ground, bias) for _ in range(n)] for n in sizes]
        held = ColorfulHellyProperty(k).check(ground, families)
        assert held == _passes_the_precondition(families, k), (i, d, k)
        verdicts.append((held, 0 in sizes))
    assert {(True, False), (False, False), (False, True)} <= set(verdicts)


# ----------------------------------------------------------------- fractional


def test_frac_stats_all_sets_through_one_region():
    P = line(0, 1, 2)
    fam = [window(P, {1: (0, 2)}) for _ in range(4)]
    got = frac_helly_stats(fam, k=1)
    assert got.statistics["alpha"] == 1
    assert got.statistics["beta_hat"] == 1
    assert got.verdict


def test_frac_stats_three_near_one_far():
    P = line(0, 1, 2, 8, 9)
    fam = [
        window(P, {1: (0, 1)}),
        window(P, {1: (1, 2)}),
        window(P, {1: (0, 2)}),
        window(P, {1: (8, 9)}),
    ]
    got = frac_helly_stats(fam, k=1)
    assert got.statistics["alpha"] == Fraction(1, 2)
    assert got.statistics["beta_hat"] == Fraction(3, 4)
    assert got.statistics["bound"] == Fraction(1, 4)
    assert got.verdict
    assert set(got.witnesses["largest_subfamily"]) == {0, 1, 2}


def test_frac_stats_alpha_zero_is_vacuous():
    P = line(0, 5)
    fam = [window(P, {1: (0, 0)}), window(P, {1: (5, 5)})]
    got = frac_helly_stats(fam, k=1)
    assert got.statistics["alpha"] == 0
    assert got.verdict


def test_frac_stats_small_family_reports_undefined_alpha():
    P = line(0, 1)
    got = frac_helly_stats([window(P, {1: (0, 1)})], k=1)
    assert got.statistics["alpha"] is None
    assert got.verdict


def test_frac_verdict_fires_one_set_short_of_the_bound(monkeypatch):
    # a planted fault: each r-subset lands in a sweep class of its own and
    # the direct search finds one set, so β̂ = r/n against α/r = 1/r when
    # every pair meets; r = 2 holds with equality at n = 4, fails at n = 5
    keys = itertools.count()
    monkeypatch.setattr("dintervals.helly._sweep_key", lambda joint: next(keys))
    monkeypatch.setattr("dintervals.helly.max_k_intersecting_subfamily", lambda fam, k: (0,))
    full = window(line(0, 1), {1: (0, 1)})
    at = frac_helly_stats([full] * 4, k=1)
    assert at.statistics["beta_hat"] == at.statistics["bound"] == Fraction(1, 2)
    assert at.verdict
    short = frac_helly_stats([full] * 5, k=1)
    assert short.statistics["beta_hat"] == Fraction(2, 5) < short.statistics["bound"]
    assert not short.verdict


def test_frac_stats_refuse_an_empty_family():
    with pytest.raises(ValueError, match="family must be nonempty"):
        frac_helly_stats([], 1)


def test_cfh_alpha_one_forces_a_fully_intersecting_family():
    P = line(0, 1, 2, 3)
    f1 = [window(P, {1: (0, 1)}), window(P, {1: (2, 3)})]
    f2 = [window(P, {1: (0, 3)})]
    got = cfh_stats([f1, f2])
    assert got.statistics["alpha"] == 1
    assert got.statistics["beta_hats"][1] == 1
    assert got.verdict


def test_cfh_alpha_zero_is_vacuous():
    P = line(0, 3)
    got = cfh_stats([[window(P, {1: (0, 0)})], [window(P, {1: (3, 3)})]])
    assert got.statistics["alpha"] == 0
    assert got.verdict


def test_cfh_verdict_holds_at_the_bound_and_fails_just_past_it(monkeypatch):
    # 150 of the 200 colorful pairs meet, so 1 − α = 1/4; with β̂ = 1/2 in
    # both families (1 − β̂)^2 = 1/4 meets it, and β̂ = 2/5 gives 9/25 > 1/4
    P = line(0, 1)
    zero, one = window(P, {1: (0, 0)}), window(P, {1: (1, 1)})
    families = [[zero] * 10, [zero] * 15 + [one] * 5]
    for share, verdict in ((Fraction(1, 2), True), (Fraction(2, 5), False)):
        monkeypatch.setattr(
            "dintervals.helly.max_point_cover", lambda fam: (int(len(fam) * share), None)
        )
        got = cfh_stats(families)
        assert got.statistics == {"alpha": Fraction(3, 4), "beta_hats": (share, share)}
        assert got.verdict is verdict


def test_cfh_rejects_wrong_family_count():
    P = line(0, 1)
    with pytest.raises(ValueError):
        cfh_stats([[window(P, {1: (0, 1)})]])


def test_fractional_bounds_hold_on_random_families():
    rng = random.Random(304)
    for _ in range(80):
        d = rng.randrange(1, 3)
        ground = random_ground(rng, d, max_per_level=4)
        n = rng.randrange(2 * d + 1, 2 * d + 4)
        fam = [random_trace(rng, ground, empty_bias=0.15) for _ in range(n)]
        for k in range(1, d + 1):
            got = frac_helly_stats(fam, k)
            assert got.verdict
        families = [
            [random_trace(rng, ground, empty_bias=0.15) for _ in range(rng.randrange(1, 3))]
            for _ in range(2 * d)
        ]
        assert cfh_stats(families).verdict


def test_max_k_intersecting_subfamily_is_a_true_maximum():
    rng = random.Random(305)
    for _ in range(60):
        d = rng.randrange(1, 3)
        ground = random_ground(rng, d, max_per_level=4)
        fam = [random_trace(rng, ground) for _ in range(rng.randrange(1, 6))]
        for k in range(1, d + 1):
            got = max_k_intersecting_subfamily(fam, k)
            if got:
                assert k_intersects([fam[j] for j in got], k)
            best = 0
            for r in range(1, len(fam) + 1):
                for idx in itertools.combinations(range(len(fam)), r):
                    if k_intersects([fam[j] for j in idx], k):
                        best = max(best, r)
            assert len(got) == best


def _full_sets(points_per_level: int) -> list[TraceSet]:
    """Four sets, each the whole of a three-level ground."""
    coords = tuple(Fraction(c) for c in range(points_per_level))
    ground = PointSet(3, (coords,) * 3)
    return [TraceSet(ground, ((0, points_per_level - 1),) * 3)] * 4


def test_max_k_subfamily_counts_its_walk_against_the_work_guard(monkeypatch):
    # 100 covered cells a level, k = 3: 100^3 · 3 cell tuples > 10^6
    fam = _full_sets(100)
    start = time.perf_counter()
    with pytest.raises(GuardExceededError) as exc:
        max_k_intersecting_subfamily(fam, 3)
    assert time.perf_counter() - start < 0.5
    assert exc.value.size == 3 * 10**6
    with pytest.raises(GuardExceededError):
        frac_helly_stats(fam, 3)
    # the bound is inclusive
    monkeypatch.setenv("DINTERVALS_GUARD_PQ_WORK", "81")
    assert max_k_intersecting_subfamily(_full_sets(3), 3) == (0, 1, 2, 3)
    monkeypatch.setenv("DINTERVALS_GUARD_PQ_WORK", "80")
    with pytest.raises(GuardExceededError, match="k-intersecting subfamily search"):
        frac_helly_stats(_full_sets(3), 3)
