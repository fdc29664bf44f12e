"""Differential property tests: the nerve, the sweep and the collapse
oracle, and the index-space queries of ``piercing`` and ``helly``
against the brute-force oracles of ``bench/oracles.py``, α = 1 in
``frac_helly_stats`` against ``helly_check`` finding no failing
subfamily, the plain (p, 2) check against ν < p, colorful-second at
p = q = 2d against the colorful Helly property, the Radon search
against its closed form, the instance format's parse → serialize →
parse round trip, and the parser against a reference that goes through
the public geometry (``tests/helpers.py``), on documents valid and
broken.

The oracles expand every trace into its explicit ``(level, coord)``
points and share no code with the program.  Inputs are small hypothesis
grounds (d = 1..3, up to four points a level, some levels empty) and
families over them, empty sets included; the profile loaded in
``conftest.py`` derandomizes the search, so every run tests the same
examples.
"""

import itertools
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from dintervals import (
    ColorfulHellyProperty,
    PointSet,
    PreconditionError,
    SchemaError,
    SimplicialComplex,
    TraceSet,
    cfh_stats,
    colorful_helly_points,
    complexes,
    dump_instance,
    frac_helly_stats,
    helly_check,
    is_d_collapsible,
    max_k_intersecting_subfamily,
    max_point_cover,
    maxima_witness_subfamily,
    nerve,
    parse_instance,
    pierce_all,
    pq_check,
    radon_number_bruteforce,
    radon_partition,
    sweep_collapse,
)

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
import oracles as O  # noqa: E402
from helpers import (  # noqa: E402
    closed_complex,
    maximal_faces_containing,
    reference_parse_instance,
)


@st.composite
def grounds(draw, max_d: int = 3) -> PointSet:
    d = draw(st.integers(1, max_d))
    denom = draw(st.integers(1, 3))
    # a level is empty only on a draw of 3, so the least ground has a
    # point on every level
    levels = []
    for _ in range(d):
        coords = []
        if draw(st.integers(0, 3)) != 3:
            coords = draw(st.lists(st.integers(-6, 6), min_size=1, max_size=4, unique=True))
        levels.append(tuple(sorted(Fraction(c, denom) for c in coords)))
    return PointSet(d, tuple(levels))


@st.composite
def traces(draw, ground: PointSet) -> TraceSet:
    # a set misses a level only on a draw of 3, so the least sets all hold
    # every level's first point and meet
    runs = []
    for coords in ground.levels:
        if not coords or draw(st.integers(0, 3)) == 3:
            runs.append(None)
            continue
        first = draw(st.integers(0, len(coords) - 1))
        runs.append((first, draw(st.integers(first, len(coords) - 1))))
    return TraceSet(ground, tuple(runs))


@st.composite
def families(draw, max_size: int = 6):
    ground = draw(grounds())
    return ground, draw(st.lists(traces(ground), min_size=1, max_size=max_size))


def _points(points) -> frozenset:
    return frozenset(O.point_key(p) for p in points)


@given(families())
def test_the_nerve_and_the_sweeps_initial_complex_pass_the_public_check(case):
    # both are built unchecked from the face walk, which closes them
    _, fam = case
    for K in (nerve(fam), sweep_collapse(fam).sequence.initial):
        assert SimplicialComplex(K.faces) == K


@given(families())
def test_the_nerve_and_helly_checks_match_the_oracles(case):
    # both read which subfamilies meet, and on how many levels
    ground, fam = case
    sets = [O.expand(t) for t in fam]
    assert nerve(fam).faces == O.brute_nerve(sets, len(ground) > 0)
    for m in range(1, 2 * ground.d + 1):
        for k in range(1, ground.d + 1):
            rep = helly_check(fam, m, k)
            levels = rep.statistics["intersection_levels"]
            assert O.check_helly(sets, m, k, rep.verdict, levels) == []
            if "failing_hypothesis_subfamily" in rep.statistics:
                idx = rep.statistics["failing_hypothesis_subfamily"]
                assert len(idx) <= m and O.levels_met(O.common(sets[j] for j in idx)) < k
            if not rep.verdict:
                assert _points(rep.witnesses["intersection_points"]) == O.common(sets)


@given(families())
def test_the_sweep_and_the_oracle_collapse_the_brute_nerve_within_2d_minus_1(case):
    # the sweep starts from the nerve and the oracle finds a witness on
    # it; both replay to nothing with free faces of size ≤ 2d−1
    ground, fam = case
    faces = O.brute_nerve([O.expand(t) for t in fam], len(ground) > 0)
    bound = 2 * ground.d - 1
    res = sweep_collapse(fam)
    assert res.sequence.initial.faces == faces
    assert O.replay_collapses(faces, [s.free_face for s in res.sequence.steps], bound) == []
    ok, witness = is_d_collapsible(nerve(fam), bound)
    assert ok
    assert O.replay_collapses(faces, [s.free_face for s in witness.steps], bound) == []


@given(st.lists(st.frozensets(st.integers(0, 7), min_size=1, max_size=4), min_size=1, max_size=4))
def test_freeness_by_union_matches_the_maximal_faces(tops):
    # σ is free exactly when the union of the faces containing it is one
    # of them; otherwise the block lists every maximal face containing σ
    K = closed_complex(tops)
    for sigma in K.faces:
        removed, maximal = complexes._coface_block(K.faces, sigma)
        assert removed == {f for f in K.faces if sigma <= f}
        assert maximal == maximal_faces_containing(K, sigma)


@given(families())
def test_nu_matches_the_oracle_and_the_piercing_chain(case):
    ground, fam = case
    fam = [t for t in fam if not t.is_empty]
    if not fam:
        return
    got = pierce_all(fam)
    assert O.check_nu([O.expand(t) for t in fam], got.nu, got.disjoint_subfamily) == []
    assert got.nu <= got.tau_star <= got.tau
    assert O.check_tau_bound(ground.d, got.tau, got.nu) == []


@given(families())
def test_max_point_cover_is_the_largest_share_of_one_point(case):
    _, fam = case
    sets = [O.expand(t) for t in fam]
    count, point = max_point_cover(fam)
    counts = {p: sum(p in s for s in sets) for p in frozenset().union(*sets)}
    assert count == max(counts.values(), default=0)
    if point is None:
        assert count == 0
    else:
        assert counts[O.point_key(point)] == count
        # the first such point in (level, coord) order
        assert O.point_key(point) == min(p for p, c in counts.items() if c == count)


@given(families())
def test_max_k_subfamily_matches_the_oracle(case):
    ground, fam = case
    sets = [O.expand(t) for t in fam]
    for k in range(1, ground.d + 1):
        got = max_k_intersecting_subfamily(fam, k)
        assert len(got) == O.max_k_subfamily(sets, k)
        if got:
            assert O.levels_met(O.common(sets[j] for j in got)) >= k


@given(families())
def test_tau_and_its_points_match_the_oracle(case):
    _, fam = case
    if any(t.is_empty for t in fam):
        with pytest.raises(PreconditionError):
            pierce_all(fam)
        fam = [t for t in fam if not t.is_empty]
        if not fam:
            return
    got = pierce_all(fam)
    points = got.piercing_points
    assert list(points) == sorted(points, key=lambda p: (p.level, p.coord))
    assert O.check_tau([O.expand(t) for t in fam], got.tau, _points(points)) == []


@given(families(max_size=7))
def test_fractional_helly_statistics_match_the_oracle(case):
    ground, fam = case
    sets = [O.expand(t) for t in fam]
    for k in range(1, ground.d + 1):
        rep = frac_helly_stats(fam, k)
        assert O.check_frac(sets, k, ground.d, rep.statistics, rep.verdict) == []


@given(st.lists(st.integers(1, 4), min_size=1, max_size=3), st.data())
def test_alpha_is_one_exactly_when_helly_finds_no_failing_subfamily(sizes, data):
    # with n ≥ r = 2d−k+1, every r-subset k-intersects iff no subset of at
    # most r sets fails to, since a failing subset grows into an r-subset.
    # No ground level is empty, and a set misses a level on one draw in
    # four, so α = 1 comes up often
    ground = PointSet(len(sizes), tuple(tuple(map(Fraction, range(s))) for s in sizes))
    fam = []
    for _ in range(data.draw(st.integers(1, 7))):
        runs = []
        for s in sizes:
            if data.draw(st.integers(0, 3)) == 3:
                runs.append(None)
                continue
            first = data.draw(st.integers(0, s - 1))
            runs.append((first, data.draw(st.integers(first, s - 1))))
        fam.append(TraceSet(ground, tuple(runs)))
    for k in range(1, ground.d + 1):
        r = 2 * ground.d - k + 1
        if len(fam) >= r:
            alpha = frac_helly_stats(fam, k).statistics["alpha"]
            failing = "failing_hypothesis_subfamily" in helly_check(fam, r, k).statistics
            assert (alpha == 1) == (not failing)


@given(st.data())
def test_colorful_fractional_statistics_match_the_oracle(data):
    ground = data.draw(grounds(max_d=2))
    fams = [
        data.draw(st.lists(traces(ground), min_size=1, max_size=2))
        for _ in range(2 * ground.d)
    ]
    rep = cfh_stats(fams)
    sets = [[O.expand(t) for t in fam] for fam in fams]
    points = O.ground_points(ground)
    assert O.check_cfh(sets, points, ground.d, rep.statistics, rep.verdict) == []


@given(families())
def test_maxima_witness_matches_the_oracle(case):
    ground, fam = case
    sets = [O.expand(t) for t in fam]
    for k in range(1, ground.d + 1):
        if O.levels_met(O.common(sets)) < k:
            with pytest.raises(PreconditionError):
                maxima_witness_subfamily(fam, k)
            continue
        got = maxima_witness_subfamily(fam, k)
        assert O.check_maxima_witness(sets, k, ground.d, got) == []


@given(st.data())
def test_colorful_selection_matches_the_oracle(data):
    ground = data.draw(grounds(max_d=2))
    k = data.draw(st.integers(1, ground.d))
    fams = [
        data.draw(st.lists(traces(ground), min_size=1, max_size=2))
        for _ in range(2 * ground.d - k + 1)
    ]
    sets = [[O.expand(t) for t in fam] for fam in fams]
    if any(O.levels_met(O.common(c)) < k for c in itertools.product(*sets)):
        with pytest.raises(PreconditionError):
            colorful_helly_points(fams, k)
        return
    sel = colorful_helly_points(fams, k)
    assert O.check_colorful(sets, k, _points(sel.points), sel.designated) == []


@given(families(max_size=5), st.data())
def test_plain_pq_matches_the_oracle(case, data):
    _, fam = case
    p = data.draw(st.integers(1, len(fam)))
    q = data.draw(st.integers(1, p))
    ok, counterexample = pq_check([fam], p, q)
    sets = [O.expand(t) for t in fam]
    assert ok == O.pq_holds(sets, p, q)
    assert O.check_pq(sets, p, q, ok, counterexample) == []


def _first_failure(choices, holds):
    """``(True, None)`` when every choice holds, else ``(False, first)``."""
    failing = [c for c in choices if not holds(c)]
    return (False, failing[0]) if failing else (True, None)


@given(st.data())
def test_colorful_first_pq_matches_a_brute_force(data):
    # q families; among any p members picked from each, some colorful
    # q-tuple of the picks has a common point
    ground = data.draw(grounds(max_d=2))
    p = data.draw(st.integers(1, 3))
    q = data.draw(st.integers(1, min(p, 2)))
    fams = [
        data.draw(st.lists(traces(ground), min_size=p, max_size=p + 1)) for _ in range(q)
    ]
    sets = [[O.expand(t) for t in fam] for fam in fams]
    expected = _first_failure(
        itertools.product(*(itertools.combinations(range(len(f)), p) for f in sets)),
        lambda picks: any(
            O.common(tup)
            for tup in itertools.product(
                *([fam[j] for j in pick] for fam, pick in zip(sets, picks))
            )
        ),
    )
    assert pq_check(fams, p, q, "colorful-first") == expected


@given(st.data())
def test_colorful_second_pq_matches_a_brute_force(data):
    # p families; every colorful p-tuple has q members sharing a point
    ground = data.draw(grounds(max_d=2))
    p = data.draw(st.integers(1, 3))
    q = data.draw(st.integers(1, p))
    fams = [data.draw(st.lists(traces(ground), min_size=1, max_size=3)) for _ in range(p)]
    sets = [[O.expand(t) for t in fam] for fam in fams]
    expected = _first_failure(
        itertools.product(*(range(len(f)) for f in sets)),
        lambda combo: any(
            O.common(sub)
            for sub in itertools.combinations(
                [sets[i][j] for i, j in enumerate(combo)], q
            )
        ),
    )
    assert pq_check(fams, p, q, "colorful-second") == expected


@given(families())
def test_plain_pq_with_q_two_holds_exactly_when_nu_is_below_p(case):
    # among any p members two meet iff no p members are pairwise disjoint
    _, fam = case
    fam = [t for t in fam if not t.is_empty]
    if len(fam) < 2:
        return
    nu = pierce_all(fam).nu
    for p in range(2, len(fam) + 1):
        assert pq_check([fam], p, 2)[0] == (nu < p)


@given(st.data())
def test_colorful_second_with_p_and_q_at_2d_is_the_colorful_helly_property(data):
    # every colorful 2d-tuple has 2d members sharing a point iff every
    # colorful 2d-tuple meets on at least one level
    ground = data.draw(grounds(max_d=2))
    fams = [
        data.draw(st.lists(traces(ground), min_size=1, max_size=2))
        for _ in range(2 * ground.d)
    ]
    p = 2 * ground.d
    assert pq_check(fams, p, p, "colorful-second")[0] == ColorfulHellyProperty(1).check(ground, fams)


def _per_level(points) -> list[int]:
    """How many distinct points sit on each level."""
    counts: dict[int, int] = {}
    for p in set(points):
        counts[p.level] = counts.get(p.level, 0) + 1
    return list(counts.values())


@given(grounds(), st.data())
def test_radon_partition_exists_exactly_when_a_level_holds_three(ground, data):
    # two hulls meet iff on some level the sides interleave, which takes
    # three points there; repeated points count once
    pts = list(ground.points())
    subset = data.draw(st.lists(st.sampled_from(pts), max_size=len(pts) + 2)) if pts else []
    part = radon_partition(ground, subset)
    assert (part is None) == all(n < 3 for n in _per_level(subset))
    if part is not None:
        assert not set(part.side_a) & set(part.side_b)
        assert set(part.side_a) | set(part.side_b) == set(subset)
        assert part.verify(ground)


@given(grounds(), st.integers(1, 8))
def test_radon_number_is_the_closed_form(ground, cap):
    # the least n forcing three points onto one level of every n-subset
    number = sum(min(n, 2) for n in _per_level(ground.points())) + 1
    assert radon_number_bruteforce(ground, cap) == (number if number <= cap else None)


def _spelling(draw, x: Fraction):
    """One of the literal forms the format accepts for ``x``."""
    m = draw(st.integers(1, 3))
    forms = [f" {x.numerator * m}/{x.denominator * m}", f"{x.numerator}/{x.denominator}"]
    if x.denominator == 1:
        forms.append(x.numerator)
    return draw(st.sampled_from(forms))


@st.composite
def documents(draw) -> dict:
    """Instance documents as a user might write them: points in any order,
    coordinates in any accepted spelling, set pieces wider than the ground
    they cover, and optional family groups."""
    d = draw(st.integers(1, 3))
    denom = draw(st.integers(1, 3))
    points = [
        [_spelling(draw, Fraction(c, denom)), lvl]
        for lvl in range(1, d + 1)
        for c in draw(st.lists(st.integers(-6, 6), max_size=4, unique=True))
    ]
    sets = []
    for i in range(draw(st.integers(1, 4))):
        levels = []
        for lvl in range(1, d + 1):
            if draw(st.integers(0, 3)) == 0:
                continue
            lo, hi = sorted(Fraction(draw(st.integers(-14, 14)), 2) for _ in range(2))
            levels.append(
                {"level": lvl, "lo": _spelling(draw, lo), "hi": _spelling(draw, hi)}
            )
        sets.append({"name": f"S{i}", "levels": draw(st.permutations(levels))})
    doc = {"d": d, "points": draw(st.permutations(points)), "sets": sets}
    if draw(st.booleans()):
        members = st.lists(st.integers(0, len(sets) - 1), min_size=1, max_size=3)
        doc["families"] = draw(st.lists(members, min_size=1, max_size=3))
    return doc


@given(documents())
def test_parse_serialize_parse_is_idempotent(doc):
    first, _ = parse_instance(doc)
    text = dump_instance(first)
    second, _ = parse_instance(text)
    assert (second.ground, second.sets, second.names, second.families) == (
        first.ground, first.sets, first.names, first.families,
    )
    assert dump_instance(second) == text


def _literal(x: Fraction, form: int):
    """The coordinate written canonically, padded, as a scaled fraction,
    or for integers also as a bare int or a decimal."""
    canonical = str(x)
    forms = [canonical, f" {canonical}", f"{x.numerator * 2}/{x.denominator * 2}"]
    if x.denominator == 1:
        forms += [x.numerator, f"{x.numerator}.0"]
    return forms[form % len(forms)]


# one draw a point, n = 15 (c + 6) + 5 (level − 1) + form, and one a
# piece, n = 348 (b + 14) + 12 (a + 14) + 3 set + level − 1, for
# numerators c in [-6, 6] and a, b in [-14, 14], and sets 0..3
_POINTS = st.lists(st.integers(0, 13 * 15 - 1), max_size=7, unique_by=lambda n: n // 5)
_PIECES = st.lists(st.integers(0, 29 * 348 - 1), max_size=6, unique_by=lambda n: n % 12)
_BREAKS = st.sampled_from(
    ("none", "duplicate point", "swap", "bad coord", "bad level", "duplicate level", "unknown")
)


@st.composite
def parse_cases(draw) -> tuple[dict, bool]:
    """A document whose ground points have denominator ``denom`` and whose
    endpoints are multiples of 1/(2 denom), on the ground or between its
    points, written in any accepted form; broken in at most one way the
    parser refuses, at the place ``pick`` selects; with a strict flag."""
    d, denom, n_sets, how, strict, pick = draw(
        st.tuples(
            st.integers(1, 3), st.integers(1, 3), st.integers(0, 4), _BREAKS, st.booleans(),
            st.integers(0, 2**16),
        )
    )
    points = [
        [_literal(Fraction(n // 15 - 6, denom), n), n // 5 % 3 + 1]
        for n in draw(_POINTS)
        if n // 5 % 3 < d
    ]
    sets = [{"name": f"S{i}", "levels": []} for i in range(n_sets)]
    for n in draw(_PIECES):
        level, i, a, b = n % 3 + 1, n // 3 % 4, n // 12 % 29 - 14, n // 348 - 14
        if level <= d and i < n_sets:
            lo, hi = sorted((Fraction(a, 2 * denom), Fraction(b, 2 * denom)))
            sets[i]["levels"].append({"level": level, "lo": _literal(lo, a), "hi": _literal(hi, b)})
    doc = {"d": d, "points": points, "sets": sets}
    pieces = [(s, piece) for s in sets for piece in s["levels"]]
    owner, piece = pieces[pick % len(pieces)] if pieces else (None, None)
    if how == "duplicate point" and points:
        c, level = points[pick % len(points)]
        points.append([_literal(Fraction(c), pick), level])
    elif how == "swap" and piece:
        piece["lo"], piece["hi"] = piece["hi"], piece["lo"]
    elif how == "bad coord" and (points or piece):
        value = (True, 2.5, "1/0")[pick % 3]
        if points and (pick % 2 or not piece):
            points[pick % len(points)][0] = value
        else:
            piece[("lo", "hi")[pick // 3 % 2]] = value
    elif how == "bad level" and piece:
        piece["level"] = (0, d + 1)[pick % 2]
    elif how == "duplicate level" and piece:
        owner["levels"].append(dict(piece))
    elif how == "unknown":
        [doc, *sets, *(p for _, p in pieces)][pick % (1 + n_sets + len(pieces))]["note"] = 1
    if sets and pick % 3 == 0:
        doc["families"] = [list(range(min(n_sets, 2))), [pick % (n_sets + 1)]]
    return doc, strict


@given(parse_cases())
def test_the_parse_matches_the_public_geometry_reference(case):
    # equal instances and warnings, or the same error at the same path
    doc, strict = case
    try:
        expected = reference_parse_instance(doc, strict)
    except SchemaError as exc:
        with pytest.raises(SchemaError) as got:
            parse_instance(doc, strict)
        assert (got.value.path, str(got.value)) == (exc.path, str(exc))
    else:
        assert parse_instance(doc, strict) == expected
