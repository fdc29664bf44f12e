"""Simplicial complexes, nerves, elementary collapses, and the sweep.

Faces are frozensets of integer vertex labels; the empty face is a
first-class face, present in every nonempty complex.  A face is *free*
when it lies in exactly one inclusion-maximal face; an elementary
collapse at a free face removes every face containing it.  A complex is
b-collapsible when collapses at free faces of size ≤ b (dimension
≤ b−1) reduce it to the empty complex; the trailing collapse at the
empty face is implicit and never recorded.

One collapse search serves both the ``is_d_collapsible`` oracle and the
sweep's star fallback.  It is iterative (an explicit stack of states)
and runs on vertex bitmasks: a state is one int with a bit per face
still to remove, failed states are memoized as those ints, a face's
boundary is its mask with one low bit peeled, and a facet's small faces
and a free face's removal set are submasks.  The counts that find free
faces are kept across steps (updated on a collapse, restored on
backtrack), and ``CollapseStep``s are built only for the returned path.
The oracle tries the free faces that remove the most faces first, the
fallback the smallest, each breaking ties by the sorted face.  σ is free
exactly when the union of the faces containing it is one of them; the
sweep's pivot check and ``CollapseSequence.replay`` decide freeness so.

``sweep_collapse`` drives a nerve of trace sets down to nothing while
maintaining, at every iteration, a family whose nerve equals the
current complex exactly.  Each iteration picks the face whose
intersection has the lexicographically least sweep value and collapses
at it.  The single-set case deletes that set.  For larger supports the
family is truncated past the sweep value; when the truncated family's
nerve fails to match the collapse (which happens — a truncated set can
die while its vertex survives), the iteration falls back to cutting
every set that contains the pivot point and removing the corresponding
face block by a short searched collapse sequence.  Both routes are
re-verified against the nerve of the rebuilt family; a mismatch is never
papered over, it raises with full diagnostics.  ``strict=True`` insists
on the single-collapse truncation route and raises on its mismatch.

The sweep works in index space.  Runs are read once, when a family comes
in; from then on a set is its cell mask: cell (level l, index i) is one
bit, each level's cells above the lower levels'.  A face's intersection,
its *joint*, is the AND of its members' masks, 0 when empty, and a sweep
value is the joint's last index on each level read off the mask, the
same tuple as ``geometry._sweep_key`` of its runs, which orders faces
exactly as ``f_value`` does.  A cut is one AND, the star test one bit,
the star block the faces whose joint ANDs to 0 against the cut, and the
diagnostics read each set's points off its mask.  One face walk builds
the nerve and every face's joint, parent and sorted labels.  The sweep
keeps both across iterations and re-intersects only the faces through a
changed set: none on a delete, the pivot support on a truncation, the
star on a fallback; a key is recomputed only when its joint changed, and
a truncation's refresh stops at the first face whose fate disagrees with
the collapse.  A cut only clears bits, so no set grows, the rebuilt
family's nerve lies inside the current complex, and it equals the
collapsed complex exactly when the faces that died are the faces
collapsed.  Fractions, points and ``LexValue``s are built only for the
pivot values returned and for error diagnostics.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Mapping, Sequence

from .config import check_guard, guard_limit
from .errors import (
    GuardExceededError,
    NotAFaceError,
    NotFreeError,
    SweepInvariantError,
)
from .geometry import LexValue, Point, PointSet, TraceSet, _key_value, _runs


def _face_sort_key(f: frozenset):
    return (len(f), tuple(sorted(f)))


@dataclass(frozen=True)
class SimplicialComplex:
    """Explicit face set, downward closed; ∅ present iff any face is."""

    faces: frozenset

    def __post_init__(self):
        if self.faces and frozenset() not in self.faces:
            raise ValueError("nonempty complex must contain the empty face")
        for f in self.faces:
            for v in f:
                if f - {v} not in self.faces:
                    raise ValueError(f"not downward closed at face {sorted(f)}")

    @classmethod
    def _trusted(cls, faces: frozenset) -> "SimplicialComplex":
        """Unchecked, for face sets closed by construction (the face walk's)."""
        K = object.__new__(cls)
        object.__setattr__(K, "faces", faces)
        return K

    @property
    def vertices(self) -> tuple[int, ...]:
        return tuple(sorted(v for f in self.faces if len(f) == 1 for v in f))

    @property
    def dim(self) -> int | None:
        """Max face size − 1; None for the complex with no faces at all."""
        if not self.faces:
            return None
        return max(len(f) for f in self.faces) - 1

    @property
    def is_terminal(self) -> bool:
        """No nonempty faces remain (either {} or {∅})."""
        return all(not f for f in self.faces)

    def __contains__(self, f) -> bool:
        return frozenset(f) in self.faces

    def __len__(self) -> int:
        return len(self.faces)

    def sorted_faces(self) -> list[frozenset]:
        return sorted(self.faces, key=_face_sort_key)


@dataclass(frozen=True)
class CollapseStep:
    free_face: frozenset
    unique_maximal: frozenset
    removed_faces: frozenset

    def __post_init__(self):
        if not self.free_face <= self.unique_maximal:
            raise ValueError("free face must lie inside its maximal face")


def _coface_block(pool, sigma: frozenset) -> tuple[set, list[frozenset]]:
    """The faces of ``pool`` containing σ, and the maximal ones among
    them, sorted.  ``pool`` must hold every face of the complex that
    contains σ.  σ is free exactly when the union of those faces is one
    of them; otherwise the maximal ones are those no g − {v} equals."""
    removed = {f for f in pool if sigma <= f}
    union = sigma.union(*removed)
    if union in removed:
        return removed, [union]
    covered = {g - {v} for g in removed for v in g - sigma}
    return removed, sorted(removed - covered, key=_face_sort_key)


@dataclass(frozen=True)
class CollapseSequence:
    """Recorded collapse run; ``bound`` caps the size of every free face.

    The final collapse at the empty face is implicit: replay succeeds
    when no nonempty face remains.
    """

    initial: SimplicialComplex
    steps: tuple[CollapseStep, ...]
    bound: int

    def replay(self) -> SimplicialComplex:
        """Re-execute every step, verifying freeness, removal sets, and
        the size bound; returns the final complex.

        The steps run on one face set, raising ``NotAFaceError`` where σ
        is not a face and ``NotFreeError`` where it is not free.  The
        faces containing σ are found among those through one of its
        vertices.
        """
        faces = set(self.initial.faces)
        cofaces: dict = {}  # vertex -> the faces left that contain it
        for f in faces:
            for v in f:
                cofaces.setdefault(v, set()).add(f)
        for step in self.steps:
            sigma = frozenset(step.free_face)
            if len(sigma) > self.bound:
                raise ValueError(
                    f"free face {sorted(sigma)} exceeds size bound {self.bound}"
                )
            if sigma not in faces:
                raise NotAFaceError(f"{sorted(sigma)} is not a face")
            pool = min((cofaces[v] for v in sigma), key=len) if sigma else faces
            removed, maximal = _coface_block(pool, sigma)
            if len(maximal) != 1:
                raise NotFreeError(sigma, tuple(maximal))
            if maximal[0] != step.unique_maximal:
                raise ValueError("recorded maximal face does not match replay")
            if removed != step.removed_faces:
                raise ValueError("recorded removed faces do not match replay")
            faces -= removed
            for f in removed:
                for v in f:
                    cofaces[v].discard(f)
        return SimplicialComplex(frozenset(faces))

    def replays_to_empty(self) -> bool:
        try:
            return self.replay().is_terminal
        except (ValueError, NotAFaceError, NotFreeError):
            return False


# ---------------------------------------------------------------------------
# nerve


def _cells(family: Sequence[TraceSet]) -> tuple[list[tuple[int, int]], dict[int, int]]:
    """Check a family against the ``NERVE`` guard and one ground; return
    its layout and label → cell mask, the i-th set labelled i (from 1).

    The layout holds, per level, the bit of its first cell and the mask
    of its cells shifted down: cell (level l, index i) is bit
    ``layout[l − 1][0] + i``.  An empty set's mask is 0.  This is the one
    place the module reads runs."""
    check_guard("NERVE", "nerve family size", len(family))
    runs = _runs(family)
    sizes = [len(coords) for coords in family[0].ground.levels] if family else []
    layout = list(zip(itertools.accumulate(sizes, initial=0), ((1 << n) - 1 for n in sizes)))
    cells = {}
    for lab, r in enumerate(runs, 1):
        mask = 0
        for run, (offset, _) in zip(r, layout):
            if run is not None:
                mask |= ((2 << (run[1] - run[0])) - 1) << (offset + run[0])
        cells[lab] = mask
    return layout, cells


def _sweep_keys(masks: Sequence[int], layout: Sequence[tuple[int, int]]):
    """Each mask's sweep key, as ``geometry._sweep_key`` reads it off
    runs: the last index on each level, −1 where the level is empty.
    One pass per level over all the masks."""
    return zip(
        *[[((m >> lo) & full).bit_length() - 1 for m in masks] for lo, full in layout]
    )


def _face_joints(cells: Mapping[int, int]) -> dict[frozenset, tuple]:
    """Every nonempty face g of the nerve of ``cells`` (label → cell
    mask), with its row: its joint (the AND of its members' masks), its
    parent g − {max g}, max g, and its labels in order.

    Faces grow in label order: the extensions of f ∪ {a} are the later
    extensions b of f for which f ∪ {b}'s joint still meets f ∪ {a}'s,
    so each candidate costs one AND, and f and a are the parent and the
    top label of f ∪ {a}.  The faces, the empty one included, are counted
    against the ``COLLAPSE_FACES`` guard as they are added.
    """
    limit = guard_limit("COLLAPSE_FACES")
    rows: dict[frozenset, tuple] = {}
    # (face, its labels, its extensions in label order, each with its joint)
    stack = [(frozenset(), (), [(lab, c) for lab, c in sorted(cells.items()) if c])]
    while stack:
        f, labels, extensions = stack.pop()
        for k, (lab, joint) in enumerate(extensions):
            g = f | {lab}
            grown_labels = labels + (lab,)
            rows[g] = (joint, f, lab, grown_labels)
            if len(rows) >= limit:
                raise GuardExceededError("nerve face count", len(rows) + 1, limit)
            grown = []
            for b, other in extensions[k + 1 :]:
                m = joint & other
                if m:
                    grown.append((b, m))
            if grown:
                stack.append((g, grown_labels, grown))
    return rows


def _nerve_faces(ground: PointSet, joints: Mapping[frozenset, int]) -> set:
    faces = set(joints)
    if len(ground) > 0:
        faces.add(frozenset())
    return faces


def nerve(family: Sequence[TraceSet]) -> SimplicialComplex:
    """Nerve: faces are the label sets whose members' intersection is
    nonempty, the i-th set labelled i (from 1); the empty face is present
    iff the ground set is nonempty.

    Empty traces are permitted; they simply contribute no vertex.  An
    empty family (no ground set in sight) yields the void complex.  More
    sets than the ``NERVE`` guard, or more faces than ``COLLAPSE_FACES``,
    raise ``GuardExceededError``.
    """
    cells = _cells(family)[1]
    if not family:
        return SimplicialComplex(frozenset())
    faces = _nerve_faces(family[0].ground, _face_joints(cells))
    return SimplicialComplex._trusted(frozenset(faces))


# ---------------------------------------------------------------------------
# collapses


def _collapse_search(todo: frozenset, bound: int, order) -> list[CollapseStep] | None:
    """Collapses at free faces of size ≤ ``bound`` that remove exactly
    the faces in ``todo``, tried in ``order(sigma, facet)``; None when no
    order does.

    ``todo`` holds nonempty faces of a complex and is closed upward in it
    (every face containing a ``todo`` face is in ``todo``).  Collapses
    keep it so and never touch the faces outside it, so facets, free
    faces and removal sets are all read off the faces still to remove.
    A face is a facet when no face g − {v} (one bit cleared from its
    mask) equals it; a face is free when exactly one facet contains it;
    the faces removed at σ are those between σ and its facet.  Each
    face's count of cofaces still to remove and each small face's facet
    count are kept across steps: a collapse updates them, backtracking
    restores them, and a state known to fail is skipped before any count
    moves.
    """
    if not todo:
        return []
    bit = {v: 1 << i for i, v in enumerate(frozenset().union(*todo))}
    faces = list(todo)
    masks = [sum(map(bit.__getitem__, f)) for f in faces]
    index = {m: i for i, m in enumerate(masks)}
    # per face: its faces g − {v} inside ``todo``, each its mask with one
    # low bit peeled off, and its count of cofaces still to remove
    boundary = [[] for _ in masks]
    cofaces = [0] * len(faces)
    for below, m in zip(boundary, masks):
        rest = m
        while rest:
            low = rest & -rest
            rest ^= low
            if (h := index.get(m ^ low)) is not None:
                below.append(h)
                cofaces[h] += 1
    # per facet, filled the first time it is one: its submasks of size
    # ≤ bound inside ``todo``.  Per face of size ≤ bound: how many facets
    # contain it, and the xor of their indices, which is the facet itself
    # when there is one.  A removed face keeps none, so the free faces
    # are those with exactly one
    facet_subsets: dict = {}
    facet_count = [0] * len(faces)
    facet_xor = [0] * len(faces)
    free: set = set()
    made: dict = {}  # (σ, its facet) → the faces removed, as a set and as a state

    def own(top: int, add: bool) -> None:
        # ``top`` becomes a facet, or stops being one
        found = facet_subsets.get(top)
        if found is None:
            found = facet_subsets[top] = []
            full = sub = masks[top]
            while sub:
                if sub.bit_count() <= bound and sub in index:
                    found.append(index[sub])
                sub = (sub - 1) & full
        change = 1 if add else -1
        for sigma in found:
            facet_xor[sigma] ^= top
            facet_count[sigma] += change
            if facet_count[sigma] == 1:
                free.add(sigma)
            else:
                free.discard(sigma)

    def move(option: tuple, undo: bool) -> None:
        # the counts across a step, or back: its facet goes, and a face
        # whose coface count reaches 0 becomes a facet (leaves 0: stops
        # being one).  The removed faces' counts wait for their return
        gone = made[option][0]
        own(option[1], undo)
        for h in gone:
            for g in boundary[h]:
                if g not in gone:
                    cofaces[g] += 1 if undo else -1
                    if cofaces[g] == int(undo):
                        own(g, not undo)

    def options():
        candidates = [(sigma, facet_xor[sigma]) for sigma in free]
        candidates.sort(key=lambda c: order(faces[c[0]], faces[c[1]]))
        return iter(candidates)

    for top, count in enumerate(cofaces):
        if not count:
            own(top, True)
    dead: set = set()
    path: list = []  # the options taken to reach the current state
    # one frame per state on the current path: (state, untried candidates)
    frames = [((1 << len(faces)) - 1, options())]
    while frames:
        state, untried = frames[-1]
        option = next(untried, None)
        if option is None:
            dead.add(state)
            frames.pop()
            if path:
                move(path.pop(), undo=True)
            continue
        cut = made.get(option)
        if cut is None:
            base = masks[option[0]]
            extra = masks[option[1]] ^ base
            removed, sub = [index[base | extra]], extra
            while sub:
                sub = (sub - 1) & extra
                removed.append(index[base | sub])
            cut = made[option] = (frozenset(removed), sum(1 << i for i in removed))
        child = state & ~cut[1]
        if child in dead:
            continue
        path.append(option)
        if not child:
            return [
                CollapseStep(faces[s], faces[t], frozenset(faces[i] for i in made[s, t][0]))
                for s, t in path
            ]
        move(option, undo=False)
        frames.append((child, options()))
    return None


def _most_removed_first(sigma: frozenset, top: frozenset):
    # 2^|top − σ| faces go with σ
    return (-(1 << (len(top) - len(sigma))), len(sigma), tuple(sorted(sigma)))


def _smallest_first(sigma: frozenset, top: frozenset):
    return (len(sigma), tuple(sorted(sigma)))


def is_d_collapsible(K: SimplicialComplex, b: int) -> tuple[bool, CollapseSequence | None]:
    """Exhaustive backtracking over collapse orders with free faces of
    size ≤ b.  Collapsibility is order-sensitive, so greedy choices are
    not enough.  The search is iterative, so its depth is not bounded by
    the interpreter's recursion limit; it keeps the facets and free
    faces across steps, tries the free faces that remove the most faces
    first (then smaller, then lexicographically least), and failed
    states are memoized.  Returns a replay-verifiable witness on
    success, a definitive negative otherwise.
    """
    check_guard("COLLAPSE_FACES", "complex face count", len(K.faces))
    if b < 1:
        raise ValueError("collapse bound must be ≥ 1")

    steps = _collapse_search(frozenset(f for f in K.faces if f), b, _most_removed_first)
    if steps is None:
        return False, None
    return True, CollapseSequence(K, tuple(steps), b)


# ---------------------------------------------------------------------------
# family truncation


def _cut(cell: int, layout: Sequence[tuple[int, int]], level: int, m: int) -> int:
    """Keep the cells below ``level``, the cells past index ``m`` on
    ``level`` itself, and nothing above it.  One AND, so a cut never
    grows a set, which is what lets the sweep recheck only the faces
    through the sets it cut."""
    offset, full = layout[level - 1]
    return cell & ((1 << offset) - 1 | full >> (m + 1) << (offset + m + 1))


# ---------------------------------------------------------------------------
# the sweep


@dataclass(frozen=True)
class SweepIteration:
    pivot_face: frozenset
    pivot_value: LexValue
    mode: str  # "delete" | "truncate" | "star"
    steps: tuple[CollapseStep, ...]


@dataclass(frozen=True)
class SweepResult:
    sequence: CollapseSequence
    iterations: tuple[SweepIteration, ...]

    @property
    def step_count(self) -> int:
        return len(self.sequence.steps)


def _family_snapshot(ground: PointSet, layout, cells: Mapping[int, int]) -> dict:
    """Each set's points, read off its mask in level and index order."""
    return {
        lab: tuple(
            Point(coords[i], lvl)
            for lvl, (coords, (offset, _)) in enumerate(zip(ground.levels, layout), start=1)
            for i in range(len(coords))
            if cell >> (offset + i) & 1
        )
        for lab, cell in sorted(cells.items())
    }


def _face_list(faces) -> tuple[tuple[int, ...], ...]:
    return tuple(tuple(sorted(f)) for f in sorted(faces, key=_face_sort_key))


def _refresh(
    joints: Mapping[frozenset, int],
    parents: Mapping[frozenset, tuple[frozenset, int]],
    cells: Mapping[int, int],
    changed,
    dying=None,
) -> dict[frozenset, int] | None:
    """Joints under ``cells`` (label → cell mask) of the faces in
    ``joints`` that contain a label in ``changed``: 0 where the members
    no longer meet or one of them is gone.  Every other face keeps its
    joint.  ``joints`` lists each face after its parent f − {max f}, as
    the face walk adds them.

    Given the set of faces expected to die (each must contain a changed
    label), the refresh stops early and returns None at the first face
    whose fate disagrees: a face of ``dying`` that keeps a joint, or a
    face outside it that loses its joint."""
    fresh: dict[frozenset, int] = {}
    for f in joints:
        if f.isdisjoint(changed):
            continue
        rest, top = parents[f]
        joint = cells.get(top, 0)
        if rest:
            joint &= fresh[rest] if rest in fresh else joints[rest]
        if dying is not None and (not joint) != (f in dying):
            return None
        fresh[f] = joint
    return fresh


def sweep_collapse(family: Sequence[TraceSet], strict: bool = False) -> SweepResult:
    """Collapse the family's nerve (the i-th set labelled i, from 1) by the
    lexicographic sweep.

    Per iteration: take the nonempty face whose intersection has the
    least sweep value (ties: smaller support, then lexicographically
    least label set); check the support size against 2d−1 and freeness;
    collapse; rebuild the family so its nerve equals the new complex,
    verified by recomputing the joints of the faces whose sets changed.
    The returned sequence replays to the empty complex with every free
    face of size ≤ 2d−1.
    """
    layout, cells = _cells(family)
    if not family:
        void = SimplicialComplex(frozenset())
        return SweepResult(CollapseSequence(void, (), 1), ())

    ground = family[0].ground
    bound = 2 * ground.d - 1
    # the nonempty faces of the current complex K, each with its joint
    # under ``cells``, its parent f − {max f} with max f, and its sweep
    # key: the value, the support size and the sorted labels.  K is these
    # faces and the empty face (the ground is nonempty while any remain)
    rows = _face_joints(cells)
    joints = {f: row[0] for f, row in rows.items()}
    parents = {f: row[1:3] for f, row in rows.items()}
    keys = {
        f: (key, len(f), row[3])
        for (f, row), key in zip(rows.items(), _sweep_keys(list(joints.values()), layout))
    }
    initial = SimplicialComplex._trusted(frozenset(_nerve_faces(ground, joints)))
    all_steps: list[CollapseStep] = []
    iterations: list[SweepIteration] = []

    def faces_without(gone) -> tuple:
        return _face_list(_nerve_faces(ground, joints) - gone)

    def fail(message: str, **extra) -> SweepInvariantError:
        """The sweep's error, with the family and the pivot at the raise."""
        family = _family_snapshot(ground, layout, cells)
        return SweepInvariantError(message, {"family": family, "pivot": support, **extra})

    while joints:
        value, n, support = min(keys.values())
        pivot = frozenset(support)
        pivot_value = _key_value(ground, value)
        if n > bound:
            raise fail(f"pivot support has {n} sets, exceeding {bound}")
        removed, maximal = _coface_block(joints, pivot)
        if len(maximal) != 1:
            raise fail("pivot face is not free", maximal_faces=_face_list(maximal))
        step = CollapseStep(pivot, maximal[0], frozenset(removed))
        gone, steps = removed, (step,)

        if n == 1:
            cells = {lab: c for lab, c in cells.items() if lab not in pivot}
            fresh = _refresh(joints, parents, cells, pivot)
            mode = "delete"
        else:
            i = next(lvl for lvl, m in enumerate(value, start=1) if m >= 0)
            m = value[i - 1]
            candidate = dict(cells)
            for lab in pivot:
                candidate[lab] = _cut(cells[lab], layout, i, m)
            # the truncated family's nerve is the collapse exactly when
            # the faces through the pivot, and only they, die
            fresh = _refresh(joints, parents, candidate, pivot, removed)
            if fresh is not None:
                cells = candidate
                mode = "truncate"
            elif strict:
                fresh = _refresh(joints, parents, candidate, pivot)
                raise fail(
                    "nerve of the truncated family differs from the collapse",
                    collapsed_faces=faces_without(removed),
                    truncated_nerve_faces=faces_without(
                        {f for f, joint in fresh.items() if not joint}
                    ),
                )
            else:
                # fall back: cut every set containing the pivot point and
                # remove the whole block of faces that die with it, those
                # whose joint the cut empties.  No face's value is below
                # the pivot's, so they are the faces whose value agrees
                # with the pivot's through level i
                point = 1 << (layout[i - 1][0] + m)
                star = frozenset(lab for lab, cell in cells.items() if cell & point)
                keep = _cut(-1, layout, i, m)
                block = frozenset(f for f, joint in joints.items() if not joint & keep)
                if pivot not in block or not all(f <= star for f in block):
                    raise fail(
                        "fallback block is inconsistent with the pivot star",
                        star=tuple(sorted(star)),
                    )
                # a face's joint shrinks as the face grows, so the
                # block is closed upward, as the search requires
                found = _collapse_search(block, bound, _smallest_first)
                if found is None:
                    raise fail(
                        "no collapse order removes the fallback block",
                        block=_face_list(block),
                    )
                steps = tuple(found)
                for lab in star:
                    candidate[lab] = _cut(cells[lab], layout, i, m)
                cells = candidate
                fresh = _refresh(joints, parents, cells, star)
                gone = block
                mode = "star"

        # the nerve of the rebuilt family: a cut only clears bits, so it
        # lies inside K, and only the faces through a changed set can have
        # died.  The dead faces and the collapsed ones both lie inside K,
        # so K less the one equals K less the other exactly when they are
        # equal
        dead = {f for f, joint in fresh.items() if not joint}
        if dead != gone:
            raise fail(
                "rebuilt family's nerve does not match the collapsed complex",
                expected_faces=faces_without(gone),
                actual_faces=faces_without(dead),
            )
        for f in gone:
            del joints[f], parents[f], keys[f]
        # a face's key moves only with its joint
        moved = [(f, joint) for f, joint in fresh.items() if joint and joint != joints[f]]
        for (f, joint), key in zip(moved, _sweep_keys([joint for _, joint in moved], layout)):
            joints[f] = joint
            keys[f] = (key, *keys[f][1:])
        all_steps.extend(steps)
        iterations.append(SweepIteration(pivot, pivot_value, mode, steps))

    return SweepResult(
        CollapseSequence(initial, tuple(all_steps), bound), tuple(iterations)
    )
