"""Seeded generation: determinism, extremal families, conditioned draws."""

import itertools
import random
from dataclasses import replace
from fractions import Fraction

import pytest

from dintervals import (
    ColorfulHellyProperty,
    DInterval,
    GenSpec,
    KIntersectRich,
    Point,
    PointSet,
    TraceSet,
    gen_conditioned,
    gen_family,
    gen_ground,
    gen_helly_lower_bound,
    gen_instance,
    gen_radon_lower_bound,
    intersect_all,
    k_intersects,
    pq_check,
    radon_partition,
    trace_of,
)
from dintervals import generators
from helpers import p6


def spec_of(**overrides) -> GenSpec:
    base = dict(
        d=2,
        points_per_level=(4, 4),
        coord_range=(0, 9),
        n_sets=5,
        presence=Fraction(3, 4),
        max_width=4,
        seed=11,
    )
    base.update(overrides)
    return GenSpec(**base)


# ------------------------------------------------------------- determinism


def test_identical_specs_give_identical_instances():
    a = gen_instance(spec_of())
    b = gen_instance(spec_of())
    assert a == b


def test_different_seeds_give_different_instances():
    _, fam_a = gen_instance(spec_of(seed=1))
    _, fam_b = gen_instance(spec_of(seed=2))
    assert fam_a != fam_b


def test_full_presence_covers_every_level():
    # every coordinate is a ground point, so any window traces nonempty
    spec = spec_of(
        points_per_level=(4, 4), coord_range=(0, 3), presence=1, max_width=3
    )
    _, fam = gen_family(spec)
    assert len(fam) == 5
    assert all(t.level_count == 2 for t in fam)


def test_zero_sets_still_yields_the_ground_set():
    ground, fam = gen_family(spec_of(n_sets=0))
    assert fam == []
    assert len(ground) == 8


def test_spec_validation():
    with pytest.raises(ValueError):
        spec_of(points_per_level=(20, 4))  # more points than coords
    with pytest.raises(ValueError):
        spec_of(presence=Fraction(3, 2))
    with pytest.raises(ValueError):
        spec_of(max_width=100)
    with pytest.raises(ValueError):
        spec_of(coord_range=(5, 1))


def test_int_point_count_broadcasts_over_levels():
    spec = spec_of(points_per_level=3)
    assert spec.points_per_level == (3, 3)
    assert all(len(gen_ground(spec).level_coords(l)) == 3 for l in (1, 2))


def test_index_space_runs_equal_the_traces_of_the_drawn_intervals():
    # reads each set's stream as the generator does, then traces the
    # drawn d-interval on the Fraction ground set
    rng = random.Random(20250110)
    sets = 0
    for _ in range(1000):
        d = rng.randrange(1, 4)
        hi = rng.randrange(0, 9)
        spec = spec_of(
            d=d,
            points_per_level=tuple(rng.randrange(0, hi + 2) for _ in range(d)),
            coord_range=(-2, hi),
            n_sets=rng.randrange(0, 4),
            presence=Fraction(rng.randrange(0, 5), 4),
            max_width=rng.randrange(0, hi + 3),
            seed=rng.randrange(2**31),
            n_families=rng.randrange(1, 3),
        )
        ground, families = gen_instance(spec)
        for fam, sets_ in enumerate(families):
            for j, got in enumerate(sets_):
                stream = random.Random(f"{spec.seed}:set:{fam}:{j}")
                pieces = {}
                for lvl in range(1, d + 1):
                    if stream.randrange(spec.presence.denominator) >= spec.presence.numerator:
                        continue
                    width = stream.randrange(spec.max_width + 1)
                    start = stream.randrange(-2, hi - width + 1)
                    pieces[lvl] = (start, start + width)
                assert got == trace_of(DInterval.from_pairs(d, pieces), ground)
                sets += 1
    assert sets > 1000


# -------------------------------------------------------- extremal families


def test_lower_bound_family_on_a_line_is_two_singletons():
    P = PointSet(1, ((Fraction(0), Fraction(1)),))
    fam = gen_helly_lower_bound(P)
    assert [set(t.points()) for t in fam] == [
        {Point(Fraction(0), 1)},
        {Point(Fraction(1), 1)},
    ]
    assert intersect_all(fam)[0].is_empty


def test_lower_bound_family_contract_two_levels():
    fam = gen_helly_lower_bound(p6())
    assert len(fam) == 4
    for idx in itertools.combinations(range(4), 3):
        assert k_intersects([fam[j] for j in idx], 1)
    joint, levels = intersect_all(fam)
    assert joint.is_empty and levels == 0


def test_lower_bound_family_respects_designated_pairs():
    fam = gen_helly_lower_bound(p6(), designated=[(0, 1), (0, 1)])
    # odd sets pin the first designated coord on their own level
    assert Point(Fraction(0), 1) in fam[0]
    assert Point(Fraction(1), 1) in fam[1]
    assert Point(Fraction(2), 1) not in fam[0]


def test_lower_bound_family_needs_two_points_per_level():
    P = PointSet(2, ((Fraction(0), Fraction(1)), (Fraction(5),)))
    with pytest.raises(ValueError):
        gen_helly_lower_bound(P)


def test_radon_lower_bound_points_have_no_partition():
    P1 = PointSet(1, ((Fraction(0), Fraction(1)),))
    A1 = gen_radon_lower_bound(P1)
    assert len(A1) == 2
    assert radon_partition(P1, A1) is None

    A2 = gen_radon_lower_bound(p6())
    assert len(A2) == 4
    assert radon_partition(p6(), A2) is None


def test_extending_the_radon_lower_bound_forces_a_partition():
    P = p6()
    A = set(gen_radon_lower_bound(P))
    for extra in set(P.points()) - A:
        part = radon_partition(P, tuple(A) + (extra,))
        assert part is not None and part.verify(P)


# -------------------------------------------------------- conditioned draws


def test_conditioned_colorful_instance_passes_the_colorful_pq_check():
    spec = spec_of(
        d=1,
        points_per_level=(4,),
        coord_range=(0, 5),
        n_sets=2,
        presence=1,
        max_width=4,
        n_families=2,
    )
    got = gen_conditioned(spec, ColorfulHellyProperty(k=1), cap_draws=500)
    assert got.found
    ok, _ = pq_check(got.families, p=2, q=2, kind="colorful-second")
    assert ok


def test_conditioned_draws_are_reproducible():
    spec = spec_of(d=1, points_per_level=(4,), coord_range=(0, 5), n_sets=3)
    a = gen_conditioned(spec, KIntersectRich(1, Fraction(1, 3)), cap_draws=200)
    b = gen_conditioned(spec, KIntersectRich(1, Fraction(1, 3)), cap_draws=200)
    assert a == b
    assert a.found and a.draws >= 1


def test_conditioned_impossible_predicate_reports_not_found():
    spec = spec_of(d=1, points_per_level=(4,), coord_range=(0, 5), n_sets=3, presence=0)
    got = gen_conditioned(spec, KIntersectRich(1, Fraction(1)), cap_draws=50)
    assert not got.found
    assert got.draws == 50
    assert got.families is None


def test_conditioned_family_count_must_match_the_predicate():
    spec = spec_of(d=2, n_families=1)
    with pytest.raises(ValueError):
        gen_conditioned(spec, ColorfulHellyProperty(k=1), cap_draws=10)


def test_a_rejected_colorful_draw_builds_only_the_sets_it_reads(monkeypatch):
    # narrow windows and half presence: the first draw fails on an early
    # thin prefix
    spec = spec_of(
        d=2, points_per_level=(3, 3), coord_range=(0, 5), n_sets=4,
        presence=Fraction(1, 2), max_width=0, n_families=4,
    )
    built = []
    stream = generators._stream

    def counting(seed, name):
        if name.startswith("set:"):
            built.append(name)
        return stream(seed, name)

    monkeypatch.setattr(generators, "_stream", counting)
    got = gen_conditioned(spec, ColorfulHellyProperty(k=1), cap_draws=1)
    assert not got.found
    assert 0 < len(built) < spec.n_families * spec.n_sets
    assert len(set(built)) == len(built)  # a set is never built twice


def test_an_accepted_outcome_holds_plain_lists_of_the_drawn_instance():
    spec = spec_of(
        d=2, points_per_level=(3, 3), coord_range=(0, 4), n_sets=2,
        presence=1, max_width=3, n_families=3, seed=8,
    )
    got = gen_conditioned(spec, ColorfulHellyProperty(k=2), cap_draws=200)
    assert got.found and got.draws > 1
    assert type(got.families) is list
    assert all(type(fam) is list for fam in got.families)
    assert all(type(t) is TraceSet for fam in got.families for t in fam)
    drawn = replace(spec, seed=spec.seed * 1_000_003 + got.draws - 1)
    assert (got.ground, got.families) == gen_instance(drawn)
