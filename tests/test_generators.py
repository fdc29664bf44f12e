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
    TheoremViolationError,
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
from helpers import p6, sample_distinct_reference, set_runs_reference


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


# ------------------------------------------------------- trusted sampling


def _builder_specs():
    """Seeded specs over every presence and width corner, on ranges up to
    10^12 wide."""
    rng = random.Random(31)
    presences = [Fraction(0), Fraction(1, 3), Fraction(1)]
    for case in range(600):
        d = rng.randrange(1, 4)
        lo = rng.randrange(-50, 50)
        span = rng.choice([0, 1, 7, 12, 1000, 10**12, rng.randrange(10**12)])
        corner = case % 3  # width 0, the full range, or any width
        presence = presences[case % 4] if case % 4 < 3 else Fraction(rng.randrange(8), 8)
        yield GenSpec(
            d=d,
            points_per_level=tuple(rng.randrange(0, min(span + 1, 6) + 1) for _ in range(d)),
            coord_range=(lo, lo + span),
            n_sets=rng.randrange(0, 4),
            presence=presence,
            max_width=(0, span, rng.randrange(span + 1))[corner],
            seed=rng.randrange(2**31),
            n_families=rng.randrange(1, 3),
        )


def test_set_builder_draws_exactly_as_randrange(monkeypatch):
    # the generator's streams rest on its inline copy of CPython's
    # randrange; a Python whose randrange draws otherwise fails here
    streams = {}
    stream = generators._stream

    def kept(seed, name):
        streams[name] = stream(seed, name)
        return streams[name]

    monkeypatch.setattr(generators, "_stream", kept)
    specs = list(_builder_specs())
    assert {s.presence for s in specs} >= {0, Fraction(1, 3), 1}
    assert any(s.max_width == 0 < s.coord_range[1] - s.coord_range[0] for s in specs)
    assert any(s.max_width == s.coord_range[1] - s.coord_range[0] == 10**12 for s in specs)
    sets = 0
    for spec in specs:
        ground, build = generators._draw(spec, spec.seed, {})
        coords = [list(map(int, level)) for level in ground.levels]
        for fam in range(spec.n_families):
            for j in range(spec.n_sets):
                runs, theirs = set_runs_reference(spec, spec.seed, fam, j, coords)
                assert build(fam, j).runs == runs
                assert streams[f"set:{fam}:{j}"].getstate() == theirs.getstate()
                sets += 1
    assert len(specs) >= 500 and sets > 1000


def test_a_rejecting_run_converts_each_coordinate_once(monkeypatch):
    # every set is empty, so all 200 draws fail; their grounds share one
    # Fraction per distinct coordinate
    made = []

    def counting(c):
        made.append(c)
        return Fraction(c)

    monkeypatch.setattr(generators, "Fraction", counting)
    spec = spec_of(
        d=2, points_per_level=(3, 3), coord_range=(0, 9), n_sets=2, presence=0,
        n_families=4,
    )
    got = gen_conditioned(spec, ColorfulHellyProperty(k=1), cap_draws=200)
    assert not got.found and got.draws == 200
    assert 0 < len(made) == len(set(made)) <= 10


def test_sampling_draws_as_the_whole_list_shuffle():
    # the sampler keeps only the slots a swap displaced
    pick = random.Random(11)
    for case in range(3000):
        lo = pick.randrange(-20, 20)
        hi = lo + pick.randrange(0, 60)
        count = pick.randrange(0, hi - lo + 2)
        ours, theirs = random.Random(f"sample:{case}"), random.Random(f"sample:{case}")
        got = generators._sample_distinct(ours, lo, hi, count)
        assert got == sample_distinct_reference(theirs, lo, hi, count)
        assert ours.getstate() == theirs.getstate()


def test_sampling_a_wide_range_costs_the_points_drawn_not_the_range():
    # a list of the range would need terabytes
    points = generators._sample_distinct(random.Random(3), 0, 10**12, 3)
    assert len(set(points)) == 3
    assert all(0 <= p <= 10**12 for p in points)


def _revalidates(ground, families) -> bool:
    """Every set and the ground pass the public constructors' checks."""
    assert PointSet(ground.d, ground.levels) == ground
    for fam in families:
        for t in fam:
            assert TraceSet(t.ground, t.runs) == t
    return True


def test_unchecked_draws_pass_the_public_checks():
    rng = random.Random(23)
    specs = [
        spec_of(presence=Fraction(1, 3), max_width=0),
        spec_of(points_per_level=(0, 4), max_width=0),
        spec_of(d=3, points_per_level=(0, 0, 0), coord_range=(0, 0), max_width=0),
    ]
    for seed in range(80):
        d = rng.randrange(1, 4)
        hi = rng.randrange(0, 8)
        specs.append(GenSpec(
            d=d,
            points_per_level=tuple(rng.randrange(0, min(hi + 1, 5) + 1) for _ in range(d)),
            coord_range=(0, hi),
            n_sets=rng.randrange(0, 5),
            presence=Fraction(rng.randrange(0, 5), 4),
            max_width=rng.randrange(0, hi + 1),
            seed=seed,
            n_families=rng.randrange(1, 3),
        ))
    assert any(0 in s.points_per_level for s in specs)
    for spec in specs:
        assert _revalidates(*gen_instance(spec))
    accepted = 0
    for seed in range(30):
        d = 1 + seed % 3
        k = 1 + (seed // 3) % d
        spec = spec_of(
            d=d, points_per_level=(3,) * d, coord_range=(0, 3), n_sets=1 + seed % 2,
            presence=Fraction(7, 8) if seed % 4 == 0 else 1, max_width=2 + seed % 2,
            n_families=2 * d - k + 1, seed=seed,
        )
        got = gen_conditioned(spec, ColorfulHellyProperty(k), cap_draws=200)
        if got.found:
            accepted += _revalidates(got.ground, got.families)
    assert accepted >= 20


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
    assert all(None not in t.runs for t in fam)


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
    with pytest.raises(ValueError, match="one point count per level required"):
        spec_of(d=2, points_per_level=(3,))


def test_gen_family_refuses_a_spec_of_several_families():
    with pytest.raises(ValueError, match="needs n_families == 1"):
        gen_family(spec_of(n_families=2))


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


def test_lower_bound_family_names_a_subfamily_that_fails_to_meet(monkeypatch):
    # a planted fault: the subset walk reports one cut prefix with an
    # empty joint, and the check names it
    monkeypatch.setattr(
        generators, "colorful_tuples", lambda families, k, subsets: iter([((0, 2), None, 0)])
    )
    with pytest.raises(TheoremViolationError, match="at most 2d−1 sets") as exc:
        gen_helly_lower_bound(p6())
    assert exc.value.diagnostics == {"subfamily": (0, 2)}


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


def test_the_draw_cap_argument_wins_over_the_draws_guard(monkeypatch):
    # DINTERVALS_GUARD_DRAWS caps a call only when it passes no cap_draws
    spec = spec_of(d=1, points_per_level=(4,), coord_range=(0, 5), n_sets=3, presence=0)
    never = KIntersectRich(1, Fraction(1))
    monkeypatch.setenv("DINTERVALS_GUARD_DRAWS", "3")
    assert gen_conditioned(spec, never, cap_draws=7).draws == 7
    assert gen_conditioned(spec, never).draws == 3


def test_conditioned_family_count_must_match_the_predicate():
    spec = spec_of(d=2, n_families=1)
    with pytest.raises(ValueError):
        gen_conditioned(spec, ColorfulHellyProperty(k=1), cap_draws=10)


def test_conditioned_sets_too_few_for_the_predicate_are_refused_before_drawing(monkeypatch):
    def no_draw(*args):
        raise AssertionError("a draw was made")

    monkeypatch.setattr(generators, "_draw", no_draw)
    cases = [
        (spec_of(d=1, points_per_level=(4,), n_sets=0, n_families=2), ColorfulHellyProperty(1)),
        (spec_of(d=2, n_sets=3), KIntersectRich(1, Fraction(1, 2))),
    ]
    for spec, predicate in cases:
        with pytest.raises(ValueError, match=f"predicate {predicate.name} needs at least"):
            gen_conditioned(spec, predicate, cap_draws=10)


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


def test_a_slice_of_a_lazy_family_builds_its_sets():
    # a slice once gave the placeholders of the sets not yet built
    spec = spec_of(n_sets=4)
    _, build = generators._draw(spec, spec.seed, {})
    whole = [build(0, j) for j in range(spec.n_sets)]
    for key in (slice(0, 2), slice(None, None, -1), slice(1, None, 2), slice(-2, None), slice(5, 9)):
        assert generators._LazyFamily(build, 0, spec.n_sets)[key] == whole[key]
    fam = generators._LazyFamily(build, 0, spec.n_sets)
    part = fam[1:3]
    assert part[0] is fam[1] and part[1] is fam[-2]  # built once and kept
    assert list(fam) == whole


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
