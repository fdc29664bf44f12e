"""Small shared builders for the test suite.

Random instances here are deliberately hand-rolled rather than routed
through the package's own generators, so the property tests exercise the
library against independently constructed inputs.
"""

import itertools
import random
import sys
from bisect import bisect_left, bisect_right
from fractions import Fraction

from dintervals import (
    CollapseStep,
    DInterval,
    Instance,
    LevelInterval,
    LexValue,
    NotAFaceError,
    NotFreeError,
    Point,
    PointSet,
    SchemaError,
    SimplicialComplex,
    TraceSet,
    complexes,
    pierce_all,
    trace_of,
)
from dintervals.instances import (
    _LEVEL_FIELDS,
    _SET_FIELDS,
    _TOP_FIELDS,
    _as_coord,
    _as_int,
    _check_fields,
    _need,
)


def p6() -> PointSet:
    """Two levels, coords 0/1/2 on each: the running example ground set."""
    coords = (Fraction(0), Fraction(1), Fraction(2))
    return PointSet(2, (coords, coords))


def random_ground(rng: random.Random, d: int, max_per_level: int = 6) -> PointSet:
    levels = []
    for _ in range(d):
        n = rng.randrange(0, max_per_level + 1)
        denom = rng.choice([1, 1, 2, 3])
        coords = rng.sample(range(-8, 9), n)
        levels.append(tuple(sorted(Fraction(c, denom) for c in coords)))
    return PointSet(d, tuple(levels))


def random_trace(rng: random.Random, ground: PointSet, empty_bias: float = 0.3) -> TraceSet:
    runs = []
    for lvl in range(1, ground.d + 1):
        n = len(ground.level_coords(lvl))
        if n == 0 or rng.random() < empty_bias:
            runs.append(None)
            continue
        first = rng.randrange(n)
        runs.append((first, rng.randrange(first, n)))
    return TraceSet(ground, tuple(runs))


def tau_and_points(family) -> tuple:
    got = pierce_all(family)
    return got.tau, got.piercing_points


def nu_and_subfamily(family) -> tuple:
    got = pierce_all(family)
    return got.nu, got.disjoint_subfamily


def first_finite(value: LexValue) -> tuple[int, Fraction]:
    """(level, value) of a sweep value's first finite component; raises
    if every component is −∞."""
    for i, c in enumerate(value.components, start=1):
        if c is not None:
            return i, c
    raise ValueError("all components are -inf")


def cut_runs(runs: tuple, i: int, m: int) -> tuple:
    """Keep the runs below level i, the indices past m on level i, and
    nothing above it."""
    run = runs[i - 1]
    if run is not None:
        run = (max(run[0], m + 1), run[1]) if m < run[1] else None
    return runs[: i - 1] + (run,) + (None,) * (len(runs) - i)


def truncate_family(family, support, i, a_i, labels=None) -> list[TraceSet]:
    """Truncate the supported sets: at level i drop coords ≤ a_i, and drop
    all levels above i; other sets pass through unchanged.  The cut works
    on runs (``cut_runs``), apart from the sweep's cut of cell masks."""
    if labels is None:
        labels = list(range(1, len(family) + 1))
    chosen = set(support)
    unknown = chosen - set(labels)
    if unknown:
        raise ValueError(f"support labels {sorted(unknown)} not in family")
    out = []
    for lab, t in zip(labels, family):
        if not 1 <= i <= t.ground.d:
            raise ValueError(f"level {i} outside [1, {t.ground.d}]")
        if lab in chosen:
            m = bisect_right(t.ground.level_coords(i), Fraction(a_i)) - 1
            t = TraceSet(t.ground, cut_runs(t.runs, i, m))
        out.append(t)
    return out


def sample_distinct_reference(rng: random.Random, lo: int, hi: int, count: int) -> list[int]:
    """The generators' partial Fisher–Yates over the whole list of
    coordinates, drawn with ``randrange``: the sparse sampler must draw
    the same points and leave the stream in the same state."""
    pool = list(range(lo, hi + 1))
    for i in range(count):
        j = i + rng.randrange(len(pool) - i)
        pool[i], pool[j] = pool[j], pool[i]
    return sorted(pool[:count])


def set_runs_reference(spec, seed: int, fam: int, j: int, coords) -> tuple:
    """Set j of family fam of the draw with this seed over the int ground
    ``coords``, drawn with ``randrange`` from the set's own stream and
    traced by a scan of each level: the generators' builder must give the
    same runs and leave its stream in the same state.  Returns the runs
    and the stream."""
    stream = random.Random(f"{seed}:set:{fam}:{j}")
    lo, hi = spec.coord_range
    runs = []
    for level in coords:
        if stream.randrange(spec.presence.denominator) >= spec.presence.numerator:
            runs.append(None)
            continue
        width = stream.randrange(spec.max_width + 1)
        start = stream.randrange(lo, hi - width + 1)
        inside = [i for i, c in enumerate(level) if start <= c <= start + width]
        runs.append((inside[0], inside[-1]) if inside else None)
    return tuple(runs), stream


def random_subset(rng: random.Random, ground: PointSet) -> list[Point]:
    pts = list(ground.points())
    return rng.sample(pts, rng.randrange(0, len(pts) + 1)) if pts else []


LP_KINDS = ("0/1", "int", "frac")


def random_lp(rng: random.Random, kind: str) -> tuple[list, list, list]:
    """One seeded LP (c, A, b) for max c·y s.t. Ay ≤ b, y ≥ 0.

    "0/1": incidence-like A, c and b mostly all ones; "int": small signed
    integers, so many are unbounded; "frac": denominators up to 7.  About
    one in twenty gets a negative rhs or a ragged row, which the solver
    must refuse.
    """
    m, n = rng.randrange(1, 7), rng.randrange(1, 7)
    if kind == "0/1":
        entry = lambda: Fraction(rng.randrange(2))
        cost = (lambda: Fraction(1)) if rng.random() < 0.7 else entry
        rhs = (lambda: Fraction(1)) if rng.random() < 0.7 else lambda: Fraction(rng.randrange(4))
    elif kind == "int":
        entry = lambda: Fraction(rng.randrange(-3, 4))
        cost = lambda: Fraction(rng.randrange(-2, 4))
        rhs = lambda: Fraction(rng.randrange(6))
    else:
        entry = lambda: Fraction(rng.randrange(-6, 7), rng.randrange(1, 8))
        cost = lambda: Fraction(rng.randrange(-3, 7), rng.randrange(1, 8))
        rhs = lambda: Fraction(rng.randrange(8), rng.randrange(1, 8))
    c = [cost() for _ in range(n)]
    A = [[entry() for _ in range(n)] for _ in range(m)]
    b = [rhs() for _ in range(m)]
    fault = rng.random()
    if fault < 0.03:
        b[rng.randrange(m)] = Fraction(-1, rng.randrange(1, 4))
    elif fault < 0.05:
        A[rng.randrange(m)].append(Fraction(1))
    return c, A, b


def tall_lp(rng: random.Random) -> tuple[list, list, list]:
    """One seeded tall LP (c, A, b) for max c·y s.t. Ay ≤ b, y ≥ 0: 20-60
    rows over 2-8 columns, each row drawn from a pool of a few 0/1 rows,
    so that rows repeat and the ratio test meets ties; small positive c
    and b.  A column that is zero in the whole pool makes it unbounded."""
    m, n = rng.randrange(20, 61), rng.randrange(2, 9)
    pool = [[Fraction(int(rng.random() < 0.6)) for _ in range(n)] for _ in range(rng.randrange(2, 9))]
    A = [list(rng.choice(pool)) for _ in range(m)]
    c = [Fraction(rng.randrange(1, 6)) for _ in range(n)]
    b = [Fraction(rng.randrange(1, 6)) for _ in range(m)]
    return c, A, b


def incidence_lp(rng: random.Random) -> tuple[list, list, list]:
    """The fractional matching LP of the nonempty sets among 4-11 seeded
    traces (d = 1, 2, 3): one 0/1 row per covered point, in level and
    coordinate order, read off each set's runs; one column per set; c
    and b all ones."""
    ground = random_ground(rng, rng.randrange(1, 4), 8)
    family = [random_trace(rng, ground, 0.2) for _ in range(rng.randrange(4, 12))]
    family = [t for t in family if not t.is_empty]
    A = []
    for level, coords in enumerate(ground.levels):
        runs = [t.runs[level] for t in family]
        for i in range(len(coords)):
            row = [int(r is not None and r[0] <= i <= r[1]) for r in runs]
            if any(row):
                A.append(list(map(Fraction, row)))
    return [Fraction(1)] * len(family), A, [Fraction(1)] * len(A)


def random_tree(rng: random.Random, edges: int, path: bool = False) -> frozenset:
    """Faces of a tree (a path when ``path``) on ``edges`` edges, its
    vertices labelled by a shuffle of 0..edges; the empty face included."""
    labels = list(range(edges + 1))
    rng.shuffle(labels)
    faces = {frozenset()}
    for v in range(1, edges + 1):
        u = v - 1 if path else rng.randrange(v)
        faces |= {frozenset([labels[u], labels[v]]), frozenset([labels[u]]), frozenset([labels[v]])}
    return frozenset(faces)


def dense_families(count: int):
    """``count`` seeded (d, family) pairs of 10-11 sets at d = 2 and 3
    whose nerves hold 350-600 faces (the empty face included): wide runs
    over 5-9 of 21 integer coordinates per level, so the sweep often
    falls back to cutting a star and removes blocks of a hundred faces
    or more by the collapse search."""
    rng = random.Random(20251019)
    made = 0
    while made < count:
        d, n = 2 + made % 2, 10 + made // 2 % 2
        coords = [sorted(rng.sample(range(21), rng.randrange(5, 10))) for _ in range(d)]
        ground = PointSet(d, tuple(tuple(map(Fraction, level)) for level in coords))
        family = []
        for _ in range(n):
            runs = []
            for level in coords:
                width = rng.randrange(3, 15)
                start = rng.randrange(0, 21 - width)
                first = bisect_left(level, start)
                last = bisect_right(level, start + width) - 1
                runs.append((first, last) if first <= last else None)
            family.append(TraceSet(ground, tuple(runs)))
        if 350 <= len(complexes.nerve(family)) <= 600:
            made += 1
            yield d, family


def face(*vertices: int) -> frozenset:
    return frozenset(vertices)


def closed_complex(faces) -> SimplicialComplex:
    """The complex of the given faces, closed downward; ∅ is a face when
    any face is given."""
    closed = set()
    stack = [frozenset(f) for f in faces]
    while stack:
        f = stack.pop()
        if f not in closed:
            closed.add(f)
            stack.extend(f - {v} for v in f)
    if closed:
        closed.add(frozenset())
    return SimplicialComplex(frozenset(closed))


def cliff_complex(n: int) -> complexes.SimplicialComplex:
    """A hollow triangle on 1, 2, 3 plus n disjoint 3-edge paths (the
    j-th on 4j .. 4j+3): not 1-collapsible, and the collapse search must
    try every order of the paths' collapses before it can say so."""
    edges = [[1, 2], [2, 3], [1, 3]]
    for j in range(1, n + 1):
        edges += [[4 * j + i, 4 * j + i + 1] for i in range(3)]
    return closed_complex(edges)


def maximal_faces_containing(K: SimplicialComplex, sigma: frozenset) -> list[frozenset]:
    """The maximal faces of K containing σ, sorted by size, then labels."""
    verts = K.vertices
    # downward closure makes the one-vertex-extension test sufficient
    out = [
        f
        for f in K.faces
        if sigma <= f and all(v in f or f | {v} not in K.faces for v in verts)
    ]
    return sorted(out, key=complexes._face_sort_key)


def elementary_collapse(K: SimplicialComplex, sigma) -> tuple[SimplicialComplex, CollapseStep]:
    """Collapse at a free face: remove every face containing it.  A
    reference for ``CollapseSequence.replay``, one complex per step."""
    sigma = frozenset(sigma)
    if sigma not in K.faces:
        raise NotAFaceError(f"{sorted(sigma)} is not a face")
    maximal = maximal_faces_containing(K, sigma)
    if len(maximal) != 1:
        raise NotFreeError(sigma, tuple(maximal))
    removed = frozenset(f for f in K.faces if sigma <= f)
    step = CollapseStep(sigma, maximal[0], removed)
    return SimplicialComplex(K.faces - removed), step


def reference_collapse_search(todo: frozenset, bound: int, order):
    """A per-state reference for ``complexes._collapse_search``: every
    search state recomputes the facets (faces no g − {v} equals) and the
    free faces from the faces still to remove, then tries the free faces
    in ``order``.  Returns the steps, or None."""
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


def reference_radon_split(d: int, cells):
    """The Radon search on fewer than 2d+1 cells as a walk over every
    split: the head on side a, the other cells' sides in
    ``itertools.product`` order (the first the most significant bit).
    Returns the first ``(side_a, side_b, witness)`` whose per-level index
    spans meet, the witness the least common cell, or None."""
    head, rest = cells[0], cells[1:]
    for picks in itertools.product((0, 1), repeat=len(rest)):
        side_a = [head] + [c for c, s in zip(rest, picks) if s == 0]
        side_b = [c for c, s in zip(rest, picks) if s == 1]
        if not side_b:
            continue
        for lvl in range(d):
            a = [i for l, i in side_a if l == lvl]
            b = [i for l, i in side_b if l == lvl]
            if a and b and max(a[0], b[0]) <= min(a[-1], b[-1]):
                return side_a, side_b, (lvl, max(a[0], b[0]))
    return None


def reference_parse_instance(document: dict, strict: bool = True):
    """A reference for ``instances.parse_instance`` on decoded documents,
    through the public geometry: every coordinate parsed where it occurs,
    the ground built by the checked ``PointSet`` constructor, each set as a
    ``DInterval`` cut down by ``trace_of``.  Same checks, same errors."""
    if not isinstance(document, dict):
        raise SchemaError("$", "top level must be an object")
    warnings: list[str] = []
    _check_fields(document, _TOP_FIELDS, "$", strict, warnings)
    d = _as_int(_need(document, "d", "$"), "$.d")
    if d < 1:
        raise SchemaError("$.d", "d must be ≥ 1")

    raw_points = _need(document, "points", "$")
    if not isinstance(raw_points, list):
        raise SchemaError("$.points", "expected an array")
    points = []
    for idx, entry in enumerate(raw_points):
        path = f"$.points[{idx}]"
        if not isinstance(entry, list) or len(entry) != 2:
            raise SchemaError(path, "expected a [coord, level] pair")
        coord = _as_coord(entry[0], path + "[0]")
        level = _as_int(entry[1], path + "[1]")
        if not 1 <= level <= d:
            raise SchemaError(path + "[1]", f"level {level} outside [1, {d}]")
        points.append(Point(coord, level))
    if len(set(points)) != len(points):
        raise SchemaError("$.points", "duplicate points")
    ground = PointSet(
        d, tuple(tuple(sorted(p.coord for p in points if p.level == lvl)) for lvl in range(1, d + 1))
    )

    raw_sets = _need(document, "sets", "$")
    if not isinstance(raw_sets, list):
        raise SchemaError("$.sets", "expected an array")
    traces, names = [], []
    for s_idx, raw in enumerate(raw_sets):
        path = f"$.sets[{s_idx}]"
        if not isinstance(raw, dict):
            raise SchemaError(path, "expected an object")
        _check_fields(raw, _SET_FIELDS, path, strict, warnings)
        name = _need(raw, "name", path)
        if not isinstance(name, str):
            raise SchemaError(path + ".name", "expected a string")
        raw_levels = _need(raw, "levels", path)
        if not isinstance(raw_levels, list):
            raise SchemaError(path + ".levels", "expected an array")
        pieces: dict[int, tuple[Fraction, Fraction]] = {}
        for l_idx, piece in enumerate(raw_levels):
            lpath = f"{path}.levels[{l_idx}]"
            if not isinstance(piece, dict):
                raise SchemaError(lpath, "expected an object")
            _check_fields(piece, _LEVEL_FIELDS, lpath, strict, warnings)
            level = _as_int(_need(piece, "level", lpath), lpath + ".level")
            if not 1 <= level <= d:
                raise SchemaError(lpath + ".level", f"level {level} outside [1, {d}]")
            if level in pieces:
                raise SchemaError(lpath + ".level", f"duplicate level {level}")
            lo = _as_coord(_need(piece, "lo", lpath), lpath + ".lo")
            hi = _as_coord(_need(piece, "hi", lpath), lpath + ".hi")
            if lo > hi:
                raise SchemaError(lpath, f"set {name!r} level {level}: lo {lo} > hi {hi}")
            pieces[level] = (lo, hi)
        interval = DInterval(
            tuple(
                LevelInterval(*pieces[lvl]) if lvl in pieces else LevelInterval.empty()
                for lvl in range(1, d + 1)
            )
        )
        traces.append(trace_of(interval, ground))
        names.append(name)

    families = None
    if "families" in document:
        raw_fams = document["families"]
        if not isinstance(raw_fams, list):
            raise SchemaError("$.families", "expected an array")
        families = []
        for f_idx, group in enumerate(raw_fams):
            path = f"$.families[{f_idx}]"
            if not isinstance(group, list):
                raise SchemaError(path, "expected an array of set indices")
            cleaned = []
            for g_idx, member in enumerate(group):
                member = _as_int(member, f"{path}[{g_idx}]")
                if not 0 <= member < len(traces):
                    raise SchemaError(
                        f"{path}[{g_idx}]",
                        f"set index {member} outside [0, {len(traces) - 1}]",
                    )
                cleaned.append(member)
            families.append(cleaned)

    return Instance(ground, traces, names, families), warnings


def frames_of(name: str, call):
    """Run ``call`` and return its result with the number of calls of
    the function ``name`` made meanwhile and the deepest nesting of its
    frames."""
    calls = deepest = 0

    def profile(frame, event, arg):
        nonlocal calls, deepest
        if event == "call" and frame.f_code.co_name == name:
            calls += 1
            depth = 0
            while frame is not None:
                depth += frame.f_code.co_name == name
                frame = frame.f_back
            deepest = max(deepest, depth)

    sys.setprofile(profile)
    try:
        result = call()
    finally:
        sys.setprofile(None)
    return result, calls, deepest
