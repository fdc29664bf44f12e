"""Radon, Helly, colorful and fractional Helly: pinned cases plus oracles."""

import itertools
import random
from fractions import Fraction

import pytest

from dintervals import (
    DInterval,
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
    partial_colorful_size,
    radon_number_bruteforce,
    radon_partition,
    trace_of,
)
from helpers import p6, random_ground, random_trace


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


# ---------------------------------------------------- partial_colorful_size


def test_partial_colorful_sizes():
    assert partial_colorful_size(1, 3) == 3
    assert partial_colorful_size(2, 4) == 14
    assert partial_colorful_size(2, 0) == 0


def test_partial_colorful_size_is_minimal():
    # N=14 satisfies d(N-m)^2 >= (d-1)N^2 at d=2, m=4; N=13 does not
    assert 2 * (14 - 4) ** 2 >= 14**2
    assert 2 * (13 - 4) ** 2 < 13**2


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
