"""Nerves, elementary collapses, the sweep, and the backtracking oracle."""

import itertools
import math
import random
import time
from collections import Counter
from fractions import Fraction

import pytest

from dintervals import (
    CollapseSequence,
    CollapseStep,
    DInterval,
    GuardExceededError,
    NotAFaceError,
    NotFreeError,
    Point,
    PointSet,
    SimplicialComplex,
    SweepInvariantError,
    TraceSet,
    f_value,
    hull,
    intersect_all,
    is_d_collapsible,
    nerve,
    sweep_collapse,
    trace_of,
)
from dintervals import complexes
from dintervals.geometry import _joint, _sweep_key
from helpers import (
    cliff_complex,
    closed_complex,
    cut_runs,
    dense_families,
    elementary_collapse,
    face,
    first_finite,
    p6,
    random_ground,
    random_trace,
    random_tree,
    reference_collapse_search,
    truncate_family,
)
from test_golden import _families as golden_families


def three_set_family():
    P = p6()
    c1 = hull(P, [Point(Fraction(0), 1), Point(Fraction(1), 1)])
    c2 = hull(P, [Point(Fraction(0), 2), Point(Fraction(1), 2)])
    c3 = hull(P, [Point(Fraction(1), 1), Point(Fraction(0), 2)])
    return P, [c1, c2, c3]


def nerve_bruteforce(family) -> frozenset:
    """Oracle: test every subfamily's intersection directly."""
    faces = set()
    if family and len(family[0].ground) > 0:
        faces.add(frozenset())
    for r in range(1, len(family) + 1):
        for combo in itertools.combinations(range(len(family)), r):
            joint, _ = intersect_all([family[i] for i in combo])
            if not joint.is_empty:
                faces.add(frozenset(i + 1 for i in combo))
    return frozenset(faces)


# ------------------------------------------------------------------- nerve


def test_nerve_three_set_example():
    _, fam = three_set_family()
    got = nerve(fam)
    assert got.faces == frozenset(
        {face(), face(1), face(2), face(3), face(1, 3), face(2, 3)}
    )


def test_nerve_of_one_nonempty_trace():
    P = p6()
    t = hull(P, [Point(Fraction(0), 1)])
    assert nerve([t]).faces == frozenset({face(), face(1)})


def test_nerve_of_two_disjoint_traces_has_no_edge():
    P = p6()
    a = hull(P, [Point(Fraction(0), 1)])
    b = hull(P, [Point(Fraction(2), 1)])
    assert nerve([a, b]).faces == frozenset({face(), face(1), face(2)})


def test_nerve_guard_rejects_large_families(monkeypatch):
    _, fam = three_set_family()
    monkeypatch.setenv("DINTERVALS_GUARD_NERVE", "2")
    with pytest.raises(GuardExceededError, match="nerve family size"):
        nerve(fam)


def test_nerve_face_budget_stops_sixteen_identical_sets():
    # 16 identical sets span 2^16 faces; the face walk stops past 2^14
    P = PointSet(2, ((Fraction(0),), (Fraction(0),)))
    fam = [TraceSet(P, ((0, 0), (0, 0)))] * 16
    for run in (nerve, sweep_collapse):
        start = time.perf_counter()
        with pytest.raises(GuardExceededError) as err:
            run(fam)
        assert time.perf_counter() - start < 1.0
        assert err.value.what == "nerve face count"
        assert err.value.limit == 2 ** 14
    # exactly 2^14 faces, the empty one included, still fit
    assert len(nerve(fam[:14])) == 2 ** 14


def test_nerve_matches_bruteforce_enumeration():
    rng = random.Random(201)
    for _ in range(150):
        ground = random_ground(rng, rng.randrange(1, 4), max_per_level=4)
        fam = [random_trace(rng, ground) for _ in range(rng.randrange(0, 6))]
        assert nerve(fam).faces == nerve_bruteforce(fam)


def codec_families():
    """Seeded families for the cell-mask codec: dense sweep families, then
    random ones at d = 1, 2 and 3, each d over a full ground and over
    grounds with one level emptied."""
    for _, family in dense_families(4):
        yield family
    rng = random.Random(2027)
    for d in (1, 2, 3):
        for emptied in (None, *range(d)):
            levels = [sorted(rng.sample(range(-8, 9), rng.randrange(3, 7))) for _ in range(d)]
            if emptied is not None:
                levels[emptied] = []
            ground = PointSet(d, tuple(tuple(map(Fraction, level)) for level in levels))
            for _ in range(6):
                yield [random_trace(rng, ground) for _ in range(rng.randrange(1, 9))]


def encoded(runs: tuple, ground: PointSet) -> int:
    """The cells of a run tuple as a mask, encoded cell by cell."""
    offsets = list(itertools.accumulate(map(len, ground.levels), initial=0))
    return sum(
        1 << (offsets[lvl] + i)
        for lvl, run in enumerate(runs)
        if run is not None
        for i in range(run[0], run[1] + 1)
    )


def test_face_walk_masks_and_keys_match_the_run_meets():
    # every face the walk returns has the cell mask of its members'
    # run-tuple joint, encoded here cell by cell, and the sweep key
    # geometry reads off that joint
    faces = 0
    for family in codec_families():
        ground = family[0].ground
        layout, cells = complexes._cells(family)
        assert cells == {lab: encoded(t.runs, ground) for lab, t in enumerate(family, 1)}
        rows = complexes._face_joints(cells)
        masks = [row[0] for row in rows.values()]
        for g, mask, key in zip(rows, masks, complexes._sweep_keys(masks, layout)):
            joint = _joint(family[lab - 1].runs for lab in sorted(g))
            assert joint is not None, g
            assert mask == encoded(joint, ground), (g, joint)
            assert key == _sweep_key(joint), (g, joint)
            faces += 1
    assert faces > 2000


def test_the_mask_cut_is_the_run_cut_and_never_grows_a_set():
    # every set, level and index: the sweep's cut of the set's mask is
    # the reference run cut, encoded, and lies inside the mask
    cases = 0
    for family in codec_families():
        ground = family[0].ground
        layout, cells = complexes._cells(family)
        for lab, t in enumerate(family, 1):
            for level, coords in enumerate(ground.levels, 1):
                for m in range(len(coords)):
                    got = complexes._cut(cells[lab], layout, level, m)
                    assert got == encoded(cut_runs(t.runs, level, m), ground), (t, level, m)
                    assert got & ~cells[lab] == 0
                    cases += 1
    assert cases > 2000


def test_public_complexes_still_refuse_face_sets_that_are_not_closed():
    edge, vertex = frozenset({1, 2}), frozenset({1})
    with pytest.raises(ValueError, match="downward closed"):
        SimplicialComplex(frozenset({frozenset(), vertex, edge}))
    with pytest.raises(ValueError, match="empty face"):
        SimplicialComplex(frozenset({vertex}))


# ------------------------------------------------------- elementary_collapse


def test_collapse_at_a_free_vertex():
    _, fam = three_set_family()
    K = nerve(fam)
    got, step = elementary_collapse(K, face(1))
    assert got.faces == frozenset({face(), face(2), face(3), face(2, 3)})
    assert step.unique_maximal == face(1, 3)
    assert step.removed_faces == frozenset({face(1), face(1, 3)})


def test_collapse_rejects_face_under_two_maximal_faces():
    _, fam = three_set_family()
    K = nerve(fam)
    with pytest.raises(NotFreeError):
        elementary_collapse(K, face(3))


def test_collapse_chain_ends_at_the_void_complex():
    K = closed_complex([[1]])
    K1, _ = elementary_collapse(K, face(1))
    assert K1.faces == frozenset({face()})
    K2, _ = elementary_collapse(K1, face())
    assert K2.faces == frozenset()
    assert K2.is_terminal


def test_collapse_rejects_non_face():
    K = closed_complex([[1]])
    with pytest.raises(NotAFaceError):
        elementary_collapse(K, face(9))


# ------------------------------------------------------------------- sweep


def test_sweep_two_overlapping_intervals_on_a_line():
    P = PointSet(1, (tuple(Fraction(c) for c in (0, 1, 2, 3)),))
    c1 = trace_of(DInterval.from_pairs(1, {1: (0, 2)}), P)
    c2 = trace_of(DInterval.from_pairs(1, {1: (1, 3)}), P)
    res = sweep_collapse([c1, c2])
    assert [sorted(it.pivot_face) for it in res.iterations] == [[1], [2]]
    assert [it.mode for it in res.iterations] == ["delete", "delete"]
    assert all(len(s.free_face) <= 1 for s in res.sequence.steps)
    assert res.sequence.replays_to_empty()


def test_sweep_of_empty_family_is_empty():
    res = sweep_collapse([])
    assert res.step_count == 0
    assert res.iterations == ()


def test_sweep_three_set_example_runs_four_steps():
    _, fam = three_set_family()
    res = sweep_collapse(fam)
    assert res.step_count == 4
    first = res.iterations[0]
    assert sorted(first.pivot_face) == [2, 3]
    assert first.pivot_value.components == (None, Fraction(0))
    assert first.mode == "truncate"
    assert all(len(s.free_face) <= 3 for s in res.sequence.steps)
    assert res.sequence.replays_to_empty()
    # independent route to the same conclusion
    ok, witness = is_d_collapsible(nerve(fam), 3)
    assert ok and witness.replays_to_empty()


def test_sweep_strict_mode_raises_where_truncation_breaks():
    # truncating at the pivot kills set 1 entirely, yet vertex 1 survives
    # the collapse; the default mode recovers via the star fallback
    P = PointSet(2, (tuple(Fraction(c) for c in (0, 1, 2, 3)), (Fraction(5),)))
    c1 = trace_of(DInterval.from_pairs(2, {1: (2, 2), 2: (5, 5)}), P)
    c2 = trace_of(DInterval.from_pairs(2, {1: (0, 3)}), P)
    with pytest.raises(SweepInvariantError) as err:
        sweep_collapse([c1, c2], strict=True)
    assert "truncated" in str(err.value)
    assert err.value.diagnostics["pivot"] == (1, 2)

    res = sweep_collapse([c1, c2])
    assert [it.mode for it in res.iterations] == ["star", "delete"]
    assert res.sequence.replays_to_empty()


def test_sweep_star_fallback_removes_its_block_in_many_steps():
    # every set holds the lone level-2 point, so the nerve is a full
    # 5-simplex; truncating the pivot {1, 5} past that point also splits
    # sets 1 and 6, so the fallback must remove every face whose level-1
    # parts miss each other, one searched collapse at a time
    P = PointSet(2, (tuple(Fraction(c) for c in (0, 1, 2, 3)), (Fraction(9),)))
    level_1 = [(0, 1), (0, 0), (0, 0), (1, 1), (3, 3), (2, 3)]
    fam = [trace_of(DInterval.from_pairs(2, {1: run, 2: (9, 9)}), P) for run in level_1]
    res = sweep_collapse(fam)
    star = res.iterations[0]
    assert star.mode == "star" and sorted(star.pivot_face) == [1, 5]
    assert len(star.steps) == 10
    flat = [trace_of(DInterval.from_pairs(2, {1: run}), P) for run in level_1]
    block = nerve(fam).faces - nerve(flat).faces
    assert frozenset().union(*(s.removed_faces for s in star.steps)) == block
    assert [it.mode for it in res.iterations[1:]] == ["delete"] * 6
    assert all(len(s.free_face) <= 3 for s in res.sequence.steps)
    assert res.sequence.replays_to_empty()


def test_sweep_replays_to_empty_within_the_dimension_bound():
    rng = random.Random(202)
    for _ in range(120):
        d = rng.randrange(1, 4)
        ground = random_ground(rng, d, max_per_level=4)
        fam = [random_trace(rng, ground) for _ in range(rng.randrange(1, 6))]
        res = sweep_collapse(fam)
        assert res.sequence.replays_to_empty()
        assert all(len(s.free_face) <= 2 * d - 1 for s in res.sequence.steps)
        assert sum(len(it.steps) for it in res.iterations) == res.step_count


def labelled_nerve(working) -> SimplicialComplex:
    """The nerve of a label → trace map, on its labels: ``nerve`` labels
    the i-th set i, so its faces are mapped back through the sorted
    labels."""
    labs = sorted(working)
    K = nerve([working[lab] for lab in labs])
    return SimplicialComplex(frozenset(frozenset(labs[i - 1] for i in f) for f in K.faces))


def reference_sweep(family):
    """The sweep from scratch, on traces and Fractions: every iteration
    intersects every face anew and checks a full nerve of the rebuilt
    family.  The star fallback's block goes through the same collapse
    search the sweep uses."""
    labels = list(range(1, len(family) + 1))
    working = dict(zip(labels, family))
    bound = 2 * family[0].ground.d - 1
    K = nerve(family)
    out = []
    while not K.is_terminal:
        labs = sorted(working)
        fam = [working[lab] for lab in labs]
        joints = {f: intersect_all([working[lab] for lab in f])[0] for f in K.faces if f}
        values = {f: f_value(joint) for f, joint in joints.items()}
        pivot = min(values, key=lambda f: (values[f], len(f), sorted(f)))
        value = values[pivot]
        K_coll, step = elementary_collapse(K, pivot)
        if len(pivot) == 1:
            (gone,) = pivot
            del working[gone]
            mode, steps, K = "delete", (step,), K_coll
        else:
            i, a_i = first_finite(value)
            cut = dict(zip(labs, truncate_family(fam, pivot, i, a_i, labels=labs)))
            if labelled_nerve(cut).faces == K_coll.faces:
                working, mode, steps, K = cut, "truncate", (step,), K_coll
            else:
                star = {lab for lab in labs if Point(a_i, i) in working[lab]}
                block = frozenset(
                    f
                    for f, joint in joints.items()
                    if truncate_family([joint], {1}, i, a_i)[0].is_empty
                )
                found = complexes._collapse_search(block, bound, complexes._smallest_first)
                steps = tuple(found)
                working = dict(zip(labs, truncate_family(fam, star, i, a_i, labels=labs)))
                mode, K = "star", SimplicialComplex(K.faces - block)
        if working:
            assert labelled_nerve(working) == K
        else:
            # deleting the last set leaves exactly the empty face
            assert K.faces == {frozenset()}
        out.append((pivot, value, mode, steps))
    return out


def test_sweep_matches_a_from_scratch_reference():
    rng = random.Random(205)
    modes = []
    families = 0
    for n in range(320):
        d = 1 + n % 3
        ground = random_ground(rng, d, max_per_level=5)
        fam = [random_trace(rng, ground) for _ in range(rng.randrange(1, 9))]
        if len(ground) == 0:
            continue
        families += 1
        got = [
            (it.pivot_face, it.pivot_value, it.mode, it.steps)
            for it in sweep_collapse(fam).iterations
        ]
        assert got == reference_sweep(fam), n
        modes += [mode for _, _, mode, _ in got]
    assert families == 300
    assert len(modes) > 1000 and modes.count("star") >= 20
    assert set(modes) == {"delete", "truncate", "star"}


def star_family():
    """Truncating the pivot {1, 2} kills set 1 while vertex 1 survives,
    so the sweep falls back to cutting the star {1, 2, 3}; set 3 lies
    outside the pivot, and vertex 3 dies with the cut."""
    P = PointSet(2, (tuple(Fraction(c) for c in (0, 1, 2, 3)), (Fraction(5),)))
    pairs = [{1: (2, 2), 2: (5, 5)}, {1: (0, 3)}, {1: (1, 2), 2: (5, 5)}]
    return [trace_of(DInterval.from_pairs(2, p), P) for p in pairs]


def test_sweep_raises_when_a_star_member_is_left_uncut(monkeypatch):
    fam = star_family()
    res = sweep_collapse(fam)
    assert [it.mode for it in res.iterations] == ["star", "delete"]
    cut = complexes._cut
    third = complexes._cells(fam)[1][3]
    monkeypatch.setattr(
        complexes,
        "_cut",
        lambda cell, layout, level, m: cell if cell == third else cut(cell, layout, level, m),
    )
    with pytest.raises(SweepInvariantError) as err:
        sweep_collapse(fam)
    assert "does not match" in str(err.value)
    diagnostics = err.value.diagnostics
    assert diagnostics["expected_faces"] == ((), (2,))
    assert diagnostics["actual_faces"] == ((), (2,), (3,))


def test_sweep_raises_when_the_pivot_support_passes_2d_minus_1(monkeypatch):
    # a planted fault: keys that rank a face by its joint's cell count make
    # the two sets' face least on a line, where the bound is 2d − 1 = 1
    monkeypatch.setattr(
        complexes,
        "_sweep_keys",
        lambda masks, layout: [(bin(m).count("1"),) * len(layout) for m in masks],
    )
    P = PointSet(1, (tuple(map(Fraction, range(3))),))
    fam = [trace_of(DInterval.from_pairs(1, {1: run}), P) for run in ((0, 1), (1, 2))]
    with pytest.raises(SweepInvariantError, match="pivot support has 2 sets, exceeding 1") as err:
        sweep_collapse(fam)
    assert err.value.diagnostics["pivot"] == (1, 2)


def test_sweep_raises_when_the_pivot_is_not_free(monkeypatch):
    # a planted fault: the pivot's coface block reports its maximal face twice
    coface_block = complexes._coface_block

    def doubled(pool, sigma):
        removed, maximal = coface_block(pool, sigma)
        return removed, maximal * 2

    monkeypatch.setattr(complexes, "_coface_block", doubled)
    with pytest.raises(SweepInvariantError, match="pivot face is not free") as err:
        sweep_collapse(star_family())
    assert err.value.diagnostics["maximal_faces"] == ((1, 2, 3), (1, 2, 3))


def test_sweep_raises_when_the_fallback_block_misses_the_pivot(monkeypatch):
    # a planted fault: the cut that marks the block keeps every cell, so no
    # face dies with the pivot point
    cut = complexes._cut
    monkeypatch.setattr(
        complexes,
        "_cut",
        lambda cell, layout, level, m: -1 if cell == -1 else cut(cell, layout, level, m),
    )
    with pytest.raises(SweepInvariantError, match="fallback block is inconsistent") as err:
        sweep_collapse(star_family())
    assert err.value.diagnostics["star"] == (1, 2, 3)


def test_sweep_raises_when_no_collapse_order_removes_the_fallback_block(monkeypatch):
    monkeypatch.setattr(complexes, "_collapse_search", lambda *args: None)
    with pytest.raises(SweepInvariantError, match="no collapse order removes") as err:
        sweep_collapse(star_family())
    assert err.value.diagnostics["pivot"] == (1, 2)
    assert (1, 2) in err.value.diagnostics["block"]


# -------------------------------------------------------------- truncation


def test_truncate_cuts_a_level_and_clears_higher_ones():
    P = p6()
    C = trace_of(DInterval.from_pairs(2, {1: (0, 3), 2: (0, 3)}), P)
    (got,) = truncate_family([C], {1}, 1, 1)
    assert set(got.points()) == {Point(Fraction(2), 1)}


def test_truncate_at_top_level_clears_nothing_above():
    P = p6()
    C = trace_of(DInterval.from_pairs(2, {1: (0, 2), 2: (0, 2)}), P)
    (got,) = truncate_family([C], {1}, 2, -1)
    assert got == C


def test_truncate_below_all_coords_keeps_the_level():
    P = p6()
    C = trace_of(DInterval.from_pairs(2, {1: (0, 2), 2: (0, 2)}), P)
    (got,) = truncate_family([C], {1}, 1, -5)
    assert got.level_run(1) == C.level_run(1)
    assert got.level_run(2) is None


def test_truncate_leaves_non_support_sets_alone():
    P = p6()
    C = trace_of(DInterval.from_pairs(2, {1: (0, 2), 2: (0, 2)}), P)
    kept, cut = truncate_family([C, C], {2}, 1, 0)
    assert kept == C and cut != C


def test_truncate_rejects_unknown_support_labels():
    P = p6()
    C = TraceSet.empty(P)
    with pytest.raises(ValueError):
        truncate_family([C], {7}, 1, 0)


# ----------------------------------------------------- collapsibility oracle


def hollow_triangle() -> SimplicialComplex:
    return closed_complex([[1, 2], [2, 3], [1, 3]])


def test_hollow_triangle_is_not_1_collapsible():
    ok, seq = is_d_collapsible(hollow_triangle(), 1)
    assert not ok and seq is None


def test_hollow_triangle_is_2_collapsible():
    ok, seq = is_d_collapsible(hollow_triangle(), 2)
    assert ok
    assert seq.replays_to_empty()
    assert all(len(s.free_face) <= 2 for s in seq.steps)


def test_full_simplex_collapses_through_vertices_alone():
    K = closed_complex([[1, 2, 3]])
    ok, seq = is_d_collapsible(K, 1)
    assert ok and seq.replays_to_empty()


def test_collapsibility_guard_is_enforced(monkeypatch):
    monkeypatch.setenv("DINTERVALS_GUARD_COLLAPSE_FACES", "3")
    with pytest.raises(GuardExceededError):
        is_d_collapsible(hollow_triangle(), 2)


def test_oracle_collapses_a_path_longer_than_the_recursion_limit():
    # 1,100 edges need 1,101 collapses, past the default recursion limit
    K = closed_complex([[i, i + 1] for i in range(1100)])
    ok, seq = is_d_collapsible(K, 1)
    assert ok
    assert len(seq.steps) == 1101
    assert seq.replays_to_empty()


def test_oracle_confirms_the_sweep_bound_on_random_nerves():
    rng = random.Random(203)
    for _ in range(40):
        d = rng.randrange(1, 3)
        ground = random_ground(rng, d, max_per_level=3)
        fam = [random_trace(rng, ground) for _ in range(rng.randrange(1, 5))]
        ok, seq = is_d_collapsible(nerve(fam), 2 * d - 1)
        assert ok
        assert seq.replays_to_empty()



def fallback_blocks(families):
    """The (block, bound) pairs the sweep hands its collapse search while
    it runs on ``families``."""
    blocks = []
    search = complexes._collapse_search

    def spy(todo, bound, order):
        blocks.append((todo, bound))
        return search(todo, bound, order)

    complexes._collapse_search = spy
    try:
        for _, fam in families:
            sweep_collapse(fam)
    finally:
        complexes._collapse_search = search
    return blocks


def relabelled(todo: frozenset, rng) -> frozenset:
    """``todo`` with its vertices renamed to distinct negative,
    scattered or huge labels (at least 2^40)."""
    verts = sorted(frozenset().union(*todo))
    pool = list(range(-60, 0)) + list(range(0, 600, 37)) + [2**40 + k for k in range(0, 90, 3)]
    new = dict(zip(verts, rng.sample(pool, len(verts))))
    return frozenset(frozenset(new[v] for v in f) for f in todo)


def search_cases():
    """(faces to remove, bound) for the collapse search: seeded nerves at
    every bound 1..2d−1, and the union of a few faces' stars in each
    (closed upward, as the sweep's fallback blocks are); trees and paths
    at bound 1; the hollow triangle beside n disjoint paths at bounds 1
    and 2, which makes the search backtrack.  Then the blocks the sweep's
    star fallback hands the search on the dense and the golden families;
    nerves, stars and cliffs relabelled with negative, scattered or huge
    vertex labels; and a tree of 75 edges, whose vertex masks pass 64
    bits."""
    rng = random.Random(211)
    for n in range(60):
        d = 1 + n % 3
        ground = random_ground(rng, d, max_per_level=4)
        fam = [random_trace(rng, ground) for _ in range(rng.randrange(1, 8))]
        faces = sorted((f for f in nerve(fam).faces if f), key=sorted)
        centres = rng.sample(faces, min(len(faces), rng.randrange(1, 4)))
        stars = frozenset(f for f in faces if any(c <= f for c in centres))
        for bound in range(1, 2 * d):
            yield frozenset(faces), bound
            yield stars, bound
    for i in range(12):
        tree = random_tree(rng, rng.randrange(5, 30), path=i % 2 == 1)
        yield frozenset(f for f in tree if f), 1
    for n in range(1, 4):
        for bound in (1, 2):
            yield frozenset(f for f in cliff_complex(n).faces if f), bound
    yield from fallback_blocks(dense_families(20))
    yield from fallback_blocks(golden_families())
    rng = random.Random(212)
    for n in range(30):
        d = 1 + n % 3
        ground = random_ground(rng, d, max_per_level=4)
        fam = [random_trace(rng, ground) for _ in range(rng.randrange(2, 8))]
        faces = frozenset(f for f in nerve(fam).faces if f)
        if faces:
            centre = rng.choice(sorted(faces, key=sorted))
            stars = frozenset(f for f in faces if centre <= f)
            yield relabelled(faces, rng), 2 * d - 1
            yield relabelled(stars, rng), rng.randrange(1, 2 * d)
    for n in (2, 3):
        yield relabelled(frozenset(f for f in cliff_complex(n).faces if f), rng), 1
    yield relabelled(frozenset(f for f in random_tree(rng, 75) if f), rng), 1


@pytest.mark.parametrize(
    "order", [complexes._most_removed_first, complexes._smallest_first]
)
def test_collapse_search_matches_a_per_state_reference(order):
    # the counts kept across steps and restored on backtrack must give
    # the same steps, and offer the same free faces in every state the
    # search visits, as recomputing them per state: ``order`` is asked
    # about each free face of each state once
    outcomes = []
    for todo, bound in search_cases():
        offered = {"got": Counter(), "want": Counter()}

        def asked(name):
            def key(sigma, top):
                offered[name][sigma, top] += 1
                return order(sigma, top)

            return key

        got = complexes._collapse_search(todo, bound, asked("got"))
        assert got == reference_collapse_search(todo, bound, asked("want")), (todo, bound)
        assert offered["got"] == offered["want"], (todo, bound)
        outcomes.append(got is not None)
    assert outcomes.count(False) >= 40 and outcomes.count(True) >= 300

# ------------------------------------------------------------------ replay


def replay_by_elementary_collapses(seq: CollapseSequence) -> SimplicialComplex:
    """Reference replay: one ``elementary_collapse`` per step."""
    K = seq.initial
    for step in seq.steps:
        if len(step.free_face) > seq.bound:
            raise ValueError(f"free face {sorted(step.free_face)} exceeds size bound")
        K, executed = elementary_collapse(K, step.free_face)
        if executed.unique_maximal != step.unique_maximal:
            raise ValueError("recorded maximal face does not match replay")
        if executed.removed_faces != step.removed_faces:
            raise ValueError("recorded removed faces do not match replay")
    return K


def replay_outcome(replay, seq):
    try:
        return "ok", replay(seq).faces
    except (ValueError, NotAFaceError, NotFreeError) as exc:
        return type(exc).__name__, getattr(exc, "maximal_faces", None)


def test_a_collapse_step_refuses_a_free_face_outside_its_maximal_face():
    with pytest.raises(ValueError, match="free face must lie inside its maximal face"):
        CollapseStep(face(1, 4), face(1, 2, 3), frozenset({face(1, 2, 3)}))
    CollapseStep(face(1, 2), face(1, 2, 3), frozenset({face(1, 2), face(1, 2, 3)}))


def test_replay_rejects_corrupted_witnesses():
    K = closed_complex([[1, 2, 3], [3, 4]])
    ok, seq = is_d_collapsible(K, 2)
    assert ok and seq.replay().is_terminal
    first = seq.steps[0]

    def with_first(step, bound=seq.bound):
        return CollapseSequence(seq.initial, (step,) + seq.steps[1:], bound)

    wrong_maximal = with_first(
        CollapseStep(first.free_face, first.unique_maximal | {9}, first.removed_faces)
    )
    wrong_removal = with_first(
        CollapseStep(
            first.free_face, first.unique_maximal, first.removed_faces - {first.unique_maximal}
        )
    )
    over_bound = with_first(first, bound=len(first.free_face) - 1)
    non_face = with_first(CollapseStep(face(9), face(9), frozenset({face(9)})))
    not_free = with_first(
        CollapseStep(face(3), face(1, 2, 3), frozenset({face(3), face(1, 3)}))
    )
    for bad, error, words in (
        (wrong_maximal, ValueError, "maximal face"),
        (wrong_removal, ValueError, "removed faces"),
        (over_bound, ValueError, "size bound"),
        (non_face, NotAFaceError, "not a face"),
        (not_free, NotFreeError, "2 maximal faces"),
    ):
        with pytest.raises(error, match=words):
            bad.replay()
        assert not bad.replays_to_empty()


def test_replay_agrees_with_stepwise_elementary_collapses():
    # sweeps and oracle witnesses, intact and with seeded corruptions:
    # a step dropped, repeated or swapped, removal sets traded, the bound
    # lowered
    rng = random.Random(2025)
    outcomes = set()
    for _ in range(60):
        d = rng.randrange(1, 4)
        ground = random_ground(rng, d, max_per_level=4)
        fam = [random_trace(rng, ground) for _ in range(rng.randrange(1, 7))]
        seqs = [sweep_collapse(fam).sequence]
        ok, witness = is_d_collapsible(nerve(fam), 2 * d - 1)
        seqs += [witness] if ok else []
        for seq in seqs:
            steps = list(seq.steps)
            variants = [seq, CollapseSequence(seq.initial, seq.steps, max(seq.bound - 1, 0))]
            if len(steps) >= 2:
                i, j = sorted(rng.sample(range(len(steps)), 2))
                swapped = steps[:i] + [steps[j]] + steps[i + 1 : j] + [steps[i]] + steps[j + 1 :]
                traded = CollapseStep(
                    steps[i].free_face, steps[i].unique_maximal, steps[j].removed_faces
                )
                variants += [
                    CollapseSequence(seq.initial, tuple(steps[:i] + steps[i + 1 :]), seq.bound),
                    CollapseSequence(seq.initial, tuple(steps[: i + 1] + steps[i:]), seq.bound),
                    CollapseSequence(seq.initial, tuple(swapped), seq.bound),
                    CollapseSequence(
                        seq.initial, tuple(steps[:i] + [traded] + steps[i + 1 :]), seq.bound
                    ),
                ]
            for variant in variants:
                got = replay_outcome(CollapseSequence.replay, variant)
                assert got == replay_outcome(replay_by_elementary_collapses, variant)
                outcomes.add(got[0])
    assert outcomes == {"ok", "ValueError", "NotAFaceError", "NotFreeError"}


# ---------------------------------------------------------- colorful faces


def test_colorful_density_forces_an_induced_dimension():
    # nerves here are 1-collapsible, so two classes with colorful density
    # alpha must leave some class with induced dim >= (1-sqrt(1-alpha))n - 1
    rng = random.Random(204)
    checked = 0
    for _ in range(200):
        ground = random_ground(rng, 1, max_per_level=5)
        fam = [random_trace(rng, ground, empty_bias=0.1) for _ in range(rng.randrange(2, 7))]
        K = nerve(fam)
        verts = list(K.vertices)
        if len(verts) < 2:
            continue
        rng.shuffle(verts)
        cut = rng.randrange(1, len(verts))
        classes = [sorted(verts[:cut]), sorted(verts[cut:])]
        count = sum(
            1
            for f in K.faces
            if len(f) == 2 and all(len(f.intersection(c)) == 1 for c in classes)
        )
        # dimension of each class's induced subcomplex
        dims = [max(len(f) for f in K.faces if f <= set(c)) - 1 for c in classes]
        if count == 0:
            continue
        alpha = count / (len(classes[0]) * len(classes[1]))
        beta = 1 - math.sqrt(1 - alpha)
        assert any(
            dims[i] >= beta * len(classes[i]) - 1 - 1e-9 for i in range(2)
        )
        checked += 1
    assert checked >= 50
