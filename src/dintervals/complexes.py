"""Simplicial complexes, nerves, elementary collapses, and the sweep.

Faces are frozensets of integer vertex labels; the empty face is a
first-class face, present in every nonempty complex.  A face is *free*
when it lies in exactly one inclusion-maximal face; an elementary
collapse at a free face removes every face containing it.  A complex is
b-collapsible when collapses at free faces of size ≤ b (dimension
≤ b−1) reduce it to the empty complex; the trailing collapse at the
empty face is implicit and never recorded.

One collapse search serves both the ``is_d_collapsible`` oracle and the
sweep's star fallback.  It is iterative (an explicit stack, one face set
edited in place and restored on backtrack), computes the facets once per
search state, reads each free face's removal set off the faces between
it and its facet, and memoizes failed states.  The oracle tries the free
faces that remove the most faces first, the fallback the smallest; both
then break ties by the sorted face.

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
re-verified against a freshly computed nerve; a mismatch is never
papered over, it raises with full diagnostics.  ``strict=True`` insists
on the single-collapse truncation route and raises on its mismatch.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from .config import guard_limit
from .errors import (
    GroundSetMismatchError,
    GuardExceededError,
    NotAFaceError,
    NotFreeError,
    SweepInvariantError,
)
from .geometry import LexValue, Point, TraceSet, f_value, intersect_all

Face = frozenset


def face(*vertices: int) -> frozenset:
    return frozenset(vertices)


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
    def from_faces(cls, faces: Iterable[Iterable[int]]) -> "SimplicialComplex":
        """Build from any face iterable, closing downward."""
        closed = set()
        stack = [frozenset(f) for f in faces]
        while stack:
            f = stack.pop()
            if f in closed:
                continue
            closed.add(f)
            stack.extend(f - {v} for v in f)
        if closed:
            closed.add(frozenset())
        return cls(frozenset(closed))

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

    def _is_maximal(self, f: frozenset, verts: tuple[int, ...]) -> bool:
        # downward closure makes the one-vertex-extension test sufficient
        return all(v in f or f | {v} not in self.faces for v in verts)

    def maximal_faces(self) -> list[frozenset]:
        verts = self.vertices
        out = [f for f in self.faces if self._is_maximal(f, verts)]
        return sorted(out, key=_face_sort_key)

    def maximal_faces_containing(self, sigma: frozenset) -> list[frozenset]:
        verts = self.vertices
        out = [
            f
            for f in self.faces
            if sigma <= f and self._is_maximal(f, verts)
        ]
        return sorted(out, key=_face_sort_key)

    def induced(self, vertex_subset: Iterable[int]) -> "SimplicialComplex":
        keep = frozenset(vertex_subset)
        return SimplicialComplex(frozenset(f for f in self.faces if f <= keep))


@dataclass(frozen=True)
class CollapseStep:
    free_face: frozenset
    unique_maximal: frozenset
    removed_faces: frozenset

    def __post_init__(self):
        if not self.free_face <= self.unique_maximal:
            raise ValueError("free face must lie inside its maximal face")


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

        The steps run on one face set, with the same checks and errors as
        ``elementary_collapse``.  The faces containing σ are found among
        the faces through one of its vertices; the maximal ones are those
        that no g − {v} with g containing σ equals.
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
            removed = {f for f in pool if sigma <= f}
            covered = {g - {v} for g in removed for v in g - sigma}
            maximal = sorted(removed - covered, key=_face_sort_key)
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


def nerve(
    family: Sequence[TraceSet],
    labels: Sequence[int] | None = None,
    enumeration_guard: int | None = None,
) -> SimplicialComplex:
    """Nerve: faces are the label sets whose members' intersection is
    nonempty; the empty face is present iff the ground set is nonempty.

    Empty traces are permitted; they simply contribute no vertex.  An
    empty family (no ground set in sight) yields the void complex.
    """
    limit = guard_limit("NERVE", enumeration_guard)
    if len(family) > limit:
        raise GuardExceededError("nerve family size", len(family), limit)
    if labels is None:
        labels = list(range(1, len(family) + 1))
    if len(labels) != len(family) or len(set(labels)) != len(family):
        raise ValueError("labels must be distinct and match the family length")
    if not family:
        return SimplicialComplex(frozenset())

    ground = family[0].ground
    for t in family[1:]:
        if t.ground != ground:
            raise GroundSetMismatchError("family spans several ground sets")
    faces: set = set()
    if len(ground) > 0:
        faces.add(frozenset())

    by_label = dict(zip(labels, family))
    # frontier grows one vertex at a time; a candidate is tested only when
    # all its facets are already faces
    frontier: list[tuple[frozenset, TraceSet]] = []
    order = sorted(labels)
    for lab in order:
        t = by_label[lab]
        if not t.is_empty:
            f = frozenset([lab])
            faces.add(f)
            frontier.append((f, t))
    while frontier:
        next_frontier = []
        for f, inter in frontier:
            top = max(f)
            for lab in order:
                if lab <= top:
                    continue
                candidate = f | {lab}
                if any(candidate - {v} not in faces for v in candidate):
                    continue
                joint, _ = intersect_all([inter, by_label[lab]])
                if not joint.is_empty:
                    faces.add(candidate)
                    next_frontier.append((candidate, joint))
        frontier = next_frontier
    return SimplicialComplex(frozenset(faces))


# ---------------------------------------------------------------------------
# collapses


def elementary_collapse(
    K: SimplicialComplex, sigma
) -> tuple[SimplicialComplex, CollapseStep]:
    """Collapse at a free face: remove every face containing it."""
    sigma = frozenset(sigma)
    if sigma not in K.faces:
        raise NotAFaceError(f"{sorted(sigma)} is not a face")
    maximal = K.maximal_faces_containing(sigma)
    if len(maximal) != 1:
        raise NotFreeError(sigma, tuple(maximal))
    removed = frozenset(f for f in K.faces if sigma <= f)
    step = CollapseStep(sigma, maximal[0], removed)
    return SimplicialComplex(K.faces - removed), step


def _collapse_search(todo: frozenset, bound: int, order) -> list[CollapseStep] | None:
    """Collapses at free faces of size ≤ ``bound`` that remove exactly
    the faces in ``todo``, tried in ``order(sigma, facet)``; None when no
    order does.

    ``todo`` holds nonempty faces of a complex and is closed upward in it
    (every face containing a ``todo`` face is in ``todo``).  Collapses
    keep it so and never touch the faces outside it, so facets, free
    faces and removal sets are all read off the faces still to remove.
    A face is a facet unless it equals g − {v} for a face g; a face is
    free when exactly one facet contains it; the faces removed at σ are
    those between σ and its facet.
    """
    canon = {f: f for f in todo}
    # per face: its faces g − {v} inside ``todo``; per facet, filled the
    # first time it is one: its subsets of size ≤ bound inside ``todo``
    boundary = {
        g: tuple(canon[h] for h in (g - {v} for v in g) if h in canon) for g in todo
    }
    facet_subsets: dict = {}
    remaining = set(todo)

    def free_faces():
        covered = set()
        for g in remaining:
            covered.update(boundary[g])
        owner: dict = {}
        for top in remaining:
            if top in covered:
                continue
            subsets = facet_subsets.get(top)
            if subsets is None:
                subsets = facet_subsets[top] = tuple(
                    canon[s]
                    for k in range(1, min(bound, len(top)) + 1)
                    for s in map(frozenset, itertools.combinations(top, k))
                    if s in canon
                )
            for sigma in subsets:
                if sigma in remaining:
                    owner[sigma] = None if sigma in owner else top
        free = [(sigma, top) for sigma, top in owner.items() if top is not None]
        return iter(sorted(free, key=lambda c: order(*c)))

    if not remaining:
        return []
    dead: set = set()
    steps: list[CollapseStep] = []
    # one frame per state on the current path: (state, untried candidates)
    frames = [(todo, free_faces())]
    while frames:
        state, options = frames[-1]
        option = next(options, None)
        if option is None:
            dead.add(state)
            frames.pop()
            if steps:
                remaining.update(steps.pop().removed_faces)
            continue
        sigma, top = option
        extra = tuple(top - sigma)
        removed = frozenset(
            canon[sigma.union(combo)]
            for k in range(len(extra) + 1)
            for combo in itertools.combinations(extra, k)
        )
        remaining.difference_update(removed)
        step = CollapseStep(sigma, top, removed)
        if not remaining:
            steps.append(step)
            return steps
        child = frozenset(remaining)
        if child in dead:
            remaining.update(removed)
            continue
        steps.append(step)
        frames.append((child, free_faces()))
    return None


def _most_removed_first(sigma: frozenset, top: frozenset):
    # 2^|top − σ| faces go with σ
    return (-(1 << (len(top) - len(sigma))), len(sigma), tuple(sorted(sigma)))


def _smallest_first(sigma: frozenset, top: frozenset):
    return (len(sigma), tuple(sorted(sigma)))


def is_d_collapsible(
    K: SimplicialComplex, b: int, face_guard: int | None = None
) -> tuple[bool, CollapseSequence | None]:
    """Exhaustive backtracking over collapse orders with free faces of
    size ≤ b.  Collapsibility is order-sensitive, so greedy choices are
    not enough.  The search is iterative, so its depth is not bounded by
    the interpreter's recursion limit; each state computes the facets
    once, tries the free faces that remove the most faces first (then
    smaller, then lexicographically least), and failed states are
    memoized.  Returns a replay-verifiable witness on success, a
    definitive negative otherwise.
    """
    limit = guard_limit("COLLAPSE_FACES", face_guard)
    if len(K.faces) > limit:
        raise GuardExceededError("complex face count", len(K.faces), limit)
    if b < 1:
        raise ValueError("collapse bound must be ≥ 1")

    steps = _collapse_search(frozenset(f for f in K.faces if f), b, _most_removed_first)
    if steps is None:
        return False, None
    return True, CollapseSequence(K, tuple(steps), b)


# ---------------------------------------------------------------------------
# family truncation


def _cut_past(trace: TraceSet, level: int, threshold: Fraction) -> TraceSet:
    """Keep levels below ``level`` intact, keep only coords > threshold on
    ``level`` itself, and clear every level above it."""
    runs = []
    for lvl in range(1, trace.ground.d + 1):
        run = trace.level_run(lvl)
        if lvl < level:
            runs.append(run)
        elif lvl > level or run is None:
            runs.append(None)
        else:
            coords = trace.ground.level_coords(lvl)
            first, last = run
            while first <= last and coords[first] <= threshold:
                first += 1
            runs.append((first, last) if first <= last else None)
    return TraceSet(trace.ground, tuple(runs))


def truncate_family(
    family: Sequence[TraceSet],
    support: Iterable[int],
    i: int,
    a_i,
    labels: Sequence[int] | None = None,
) -> list[TraceSet]:
    """Truncate the supported sets: at level i drop coords ≤ a_i, and drop
    all levels above i; other sets pass through unchanged."""
    if labels is None:
        labels = list(range(1, len(family) + 1))
    chosen = set(support)
    unknown = chosen - set(labels)
    if unknown:
        raise ValueError(f"support labels {sorted(unknown)} not in family")
    threshold = a_i if isinstance(a_i, Fraction) else Fraction(a_i)
    out = []
    for lab, t in zip(labels, family):
        if not 1 <= i <= t.ground.d:
            raise ValueError(f"level {i} outside [1, {t.ground.d}]")
        out.append(_cut_past(t, i, threshold) if lab in chosen else t)
    return out


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
    labels: tuple[int, ...]

    @property
    def step_count(self) -> int:
        return len(self.sequence.steps)


def _sweep_diag(message: str, **extra) -> SweepInvariantError:
    return SweepInvariantError(message, diagnostics=extra)


def _family_snapshot(family: Mapping[int, TraceSet]) -> dict:
    return {
        lab: tuple(t.points()) for lab, t in sorted(family.items())
    }


def sweep_collapse(
    family: Sequence[TraceSet],
    labels: Sequence[int] | None = None,
    strict: bool = False,
    enumeration_guard: int | None = None,
) -> SweepResult:
    """Collapse the family's nerve by the lexicographic sweep.

    Per iteration: enumerate nonempty faces with the sweep value of
    their intersection; pick the minimizer (ties: smaller support, then
    lexicographically least label set); check the support size against
    2d−1 and freeness; collapse; rebuild the family so its nerve equals
    the new complex, verified by recomputation.  The returned sequence
    replays to the empty complex with every free face of size ≤ 2d−1.
    """
    if labels is None:
        labels = list(range(1, len(family) + 1))
    K = nerve(family, labels=labels, enumeration_guard=enumeration_guard)
    if not family:
        return SweepResult(CollapseSequence(K, (), 1), (), ())

    d = family[0].ground.d
    bound = 2 * d - 1
    working: dict[int, TraceSet] = dict(zip(labels, family))
    all_steps: list[CollapseStep] = []
    iterations: list[SweepIteration] = []
    initial = K

    while not K.is_terminal:
        labs = sorted(working)
        fam = [working[l] for l in labs]
        # intersections built incrementally, smaller faces first
        joints: dict[frozenset, TraceSet] = {}
        values: dict[frozenset, LexValue] = {}
        for f in sorted(K.faces, key=len):
            if not f:
                continue
            top = max(f)
            rest = f - {top}
            if rest:
                joint, _ = intersect_all([joints[rest], working[top]])
            else:
                joint = working[top]
            joints[f] = joint
            values[f] = f_value(joint)
        pivot = min(
            values,
            key=lambda f: (values[f], len(f), tuple(sorted(f))),
        )
        pivot_value = values[pivot]
        n = len(pivot)
        if n > bound:
            raise _sweep_diag(
                f"pivot support has {n} sets, exceeding {bound}",
                family=_family_snapshot(working),
                pivot=tuple(sorted(pivot)),
            )
        maximal = K.maximal_faces_containing(pivot)
        if len(maximal) != 1:
            raise _sweep_diag(
                "pivot face is not free",
                family=_family_snapshot(working),
                pivot=tuple(sorted(pivot)),
                maximal_faces=tuple(tuple(sorted(m)) for m in maximal),
            )

        if n == 1:
            K_next, step = elementary_collapse(K, pivot)
            (deleted,) = pivot
            del working[deleted]
            steps = (step,)
            mode = "delete"
        else:
            i, a_i = pivot_value.first_finite()
            K_coll, step = elementary_collapse(K, pivot)
            trunc = truncate_family(fam, pivot, i, a_i, labels=labs)
            candidate = dict(zip(labs, trunc))
            K_trunc = nerve(
                [candidate[l] for l in labs],
                labels=labs,
                enumeration_guard=enumeration_guard,
            )
            if K_trunc.faces == K_coll.faces:
                working = candidate
                K_next = K_coll
                steps = (step,)
                mode = "truncate"
            elif strict:
                raise _sweep_diag(
                    "nerve of the truncated family differs from the collapse",
                    family=_family_snapshot(working),
                    pivot=tuple(sorted(pivot)),
                    collapsed_faces=tuple(map(tuple, map(sorted, K_coll.faces))),
                    truncated_nerve_faces=tuple(map(tuple, map(sorted, K_trunc.faces))),
                )
            else:
                # fall back: cut every set containing the pivot point and
                # remove the whole block of faces that die with it
                pivot_point = Point(a_i, i)
                star = frozenset(
                    l for l in labs if pivot_point in working[l]
                )
                block = frozenset(
                    f
                    for f in K.faces
                    if f and _cut_past(joints[f], i, a_i).is_empty
                )
                if pivot not in block or not all(f <= star for f in block):
                    raise _sweep_diag(
                        "fallback block is inconsistent with the pivot star",
                        family=_family_snapshot(working),
                        pivot=tuple(sorted(pivot)),
                        star=tuple(sorted(star)),
                    )
                # a face's joint shrinks as the face grows, so the
                # block is closed upward, as the search requires
                found = _collapse_search(block, bound, _smallest_first)
                if found is None:
                    raise _sweep_diag(
                        "no collapse order removes the fallback block",
                        family=_family_snapshot(working),
                        pivot=tuple(sorted(pivot)),
                        block=tuple(map(tuple, map(sorted, block))),
                    )
                steps = tuple(found)
                K_next = SimplicialComplex(K.faces - block)
                working = dict(
                    zip(labs, truncate_family(fam, star, i, a_i, labels=labs))
                )
                mode = "star"

        if mode == "truncate":
            check_faces = K_trunc.faces
        elif working:
            check_faces = nerve(
                [working[l] for l in sorted(working)],
                labels=sorted(working),
                enumeration_guard=enumeration_guard,
            ).faces
        else:
            # deleting the last set leaves exactly the empty face
            check_faces = frozenset({frozenset()})
        if check_faces != K_next.faces:
            raise _sweep_diag(
                "rebuilt family's nerve does not match the collapsed complex",
                family=_family_snapshot(working),
                pivot=tuple(sorted(pivot)),
                expected_faces=tuple(map(tuple, map(sorted, K_next.faces))),
                actual_faces=tuple(map(tuple, map(sorted, check_faces))),
            )
        all_steps.extend(steps)
        iterations.append(SweepIteration(pivot, pivot_value, mode, steps))
        K = K_next

    result = SweepResult(
        CollapseSequence(initial, tuple(all_steps), bound),
        tuple(iterations),
        tuple(labels),
    )
    return result


# ---------------------------------------------------------------------------
# colorful faces


def colorful_face_stats(
    K: SimplicialComplex, classes: Sequence[Iterable[int]]
) -> tuple[int, tuple[int, ...]]:
    """Count faces with exactly one vertex per class and report the
    dimension of each class's induced subcomplex."""
    parts = [frozenset(c) for c in classes]
    verts = frozenset(K.vertices)
    seen: set = set()
    for p in parts:
        if p & seen:
            raise ValueError("classes overlap")
        seen |= p
    if seen != verts:
        raise ValueError("classes must cover exactly the vertex set")
    count = sum(
        1
        for f in K.faces
        if len(f) == len(parts) and all(len(f & p) == 1 for p in parts)
    )
    dims = []
    for p in parts:
        induced = K.induced(p)
        dims.append(-1 if induced.dim is None else induced.dim)
    return count, tuple(dims)
