"""Nerves, elementary collapses, the sweep, and the backtracking oracle."""

import itertools
import math
import random
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
    colorful_face_stats,
    elementary_collapse,
    face,
    intersect_all,
    is_d_collapsible,
    nerve,
    sweep_collapse,
    trace_of,
    truncate_family,
)
from helpers import p6, random_ground, random_trace


def three_set_family():
    P = p6()
    c1 = TraceSet.from_points(P, [Point(Fraction(0), 1), Point(Fraction(1), 1)])
    c2 = TraceSet.from_points(P, [Point(Fraction(0), 2), Point(Fraction(1), 2)])
    c3 = TraceSet.from_points(P, [Point(Fraction(1), 1), Point(Fraction(0), 2)])
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
    t = TraceSet.from_points(P, [Point(Fraction(0), 1)])
    assert nerve([t]).faces == frozenset({face(), face(1)})


def test_nerve_of_two_disjoint_traces_has_no_edge():
    P = p6()
    a = TraceSet.from_points(P, [Point(Fraction(0), 1)])
    b = TraceSet.from_points(P, [Point(Fraction(2), 1)])
    assert nerve([a, b]).faces == frozenset({face(), face(1), face(2)})


def test_nerve_guard_rejects_large_families():
    _, fam = three_set_family()
    with pytest.raises(GuardExceededError):
        nerve(fam, enumeration_guard=2)


def test_nerve_rejects_duplicate_labels():
    _, fam = three_set_family()
    with pytest.raises(ValueError):
        nerve(fam, labels=[1, 1, 2])


def test_nerve_matches_bruteforce_enumeration():
    rng = random.Random(201)
    for _ in range(150):
        ground = random_ground(rng, rng.randrange(1, 4), max_per_level=4)
        fam = [random_trace(rng, ground) for _ in range(rng.randrange(0, 6))]
        assert nerve(fam).faces == nerve_bruteforce(fam)


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
    K = SimplicialComplex.from_faces([[1]])
    K1, _ = elementary_collapse(K, face(1))
    assert K1.faces == frozenset({face()})
    K2, _ = elementary_collapse(K1, face())
    assert K2.faces == frozenset()
    assert K2.is_terminal


def test_collapse_rejects_non_face():
    K = SimplicialComplex.from_faces([[1]])
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
    return SimplicialComplex.from_faces([[1, 2], [2, 3], [1, 3]])


def test_hollow_triangle_is_not_1_collapsible():
    ok, seq = is_d_collapsible(hollow_triangle(), 1)
    assert not ok and seq is None


def test_hollow_triangle_is_2_collapsible():
    ok, seq = is_d_collapsible(hollow_triangle(), 2)
    assert ok
    assert seq.replays_to_empty()
    assert all(len(s.free_face) <= 2 for s in seq.steps)


def test_full_simplex_collapses_through_vertices_alone():
    K = SimplicialComplex.from_faces([[1, 2, 3]])
    ok, seq = is_d_collapsible(K, 1)
    assert ok and seq.replays_to_empty()


def test_collapsibility_guard_is_enforced():
    with pytest.raises(GuardExceededError):
        is_d_collapsible(hollow_triangle(), 2, face_guard=3)


def test_oracle_collapses_a_path_longer_than_the_recursion_limit():
    # 1,100 edges need 1,101 collapses, past the default recursion limit
    K = SimplicialComplex.from_faces([[i, i + 1] for i in range(1100)])
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


def test_replay_rejects_corrupted_witnesses():
    K = SimplicialComplex.from_faces([[1, 2, 3], [3, 4]])
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


def test_colorful_stats_single_edge():
    K = SimplicialComplex.from_faces([[1, 2]])
    assert colorful_face_stats(K, [[1], [2]]) == (1, (0, 0))


def test_colorful_stats_two_isolated_vertices():
    K = SimplicialComplex.from_faces([[1], [2]])
    count, _ = colorful_face_stats(K, [[1], [2]])
    assert count == 0


def test_colorful_stats_on_the_nerve_example():
    _, fam = three_set_family()
    count, dims = colorful_face_stats(nerve(fam), [[1, 2], [3]])
    assert count == 2
    assert dims == (0, 0)


def test_colorful_stats_rejects_bad_partitions():
    K = SimplicialComplex.from_faces([[1, 2]])
    with pytest.raises(ValueError):
        colorful_face_stats(K, [[1], [1, 2]])
    with pytest.raises(ValueError):
        colorful_face_stats(K, [[1]])


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
        count, dims = colorful_face_stats(K, classes)
        if count == 0:
            continue
        alpha = count / (len(classes[0]) * len(classes[1]))
        beta = 1 - math.sqrt(1 - alpha)
        assert any(
            dims[i] >= beta * len(classes[i]) - 1 - 1e-9 for i in range(2)
        )
        checked += 1
    assert checked >= 50
