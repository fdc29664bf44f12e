"""The four benchmark workloads.

A workload hands out rounds of items.  ``make_round(r)`` builds round r's
inputs from the workload seed with the benchmark's own ``random.Random``
streams (outside the timed region); ``run`` is the timed call into the
program; ``check`` compares its output with the oracles in ``oracles``;
``deferred`` returns the line to spool for the checks that need
``networkx`` or ``scipy``, which run after the memory reading.  Program modules are reached through
the namespace ``D`` at call time, so the tracer's rebinding applies.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import os
import random
import re
from bisect import bisect_left, bisect_right
from fractions import Fraction

import oracles as O


def _rng(seed, *key) -> random.Random:
    return random.Random(":".join(map(str, ("bench", seed) + key)))


def _ground(D, levels):
    return D.geometry.PointSet(len(levels), tuple(tuple(map(Fraction, c)) for c in levels))


def _is_nonempty(ground) -> bool:
    return any(ground.levels)


class Workload:
    name = ""
    pass_rounds = 1  # rounds in one pass of the measured run
    trace_rounds = 1  # rounds of the fixed-work traced run
    # the tail percentile: the highest with ten items beyond it among one
    # pass's items, fixed so that a faster program is read at the same
    # percentile
    tail_pct = 99.0

    def __init__(self, seed: int, D, root: str):
        self.seed, self.D, self.root = seed, D, root
        self.stats: dict = {}

    def tally(self, key, n=1):
        self.stats[key] = self.stats.get(key, 0) + n

    def deferred(self, kind, payload, out):
        return None

    def fingerprint(self, kind, out) -> str:
        """Text that repeats exactly when the same item gives the same
        output again."""
        return repr(out)


# ---------------------------------------------------------------------------
# corpus-sampling


class CorpusSampling(Workload):
    """One accepting colorful-Helly rejection sample per (d, k) cell and
    round, then the point selection on it; shaped like the
    ``colorful-helly`` suite (narrow grounds, wide windows, singleton
    families in the hardest cell, 500 draws per conditioned call)."""

    name = "corpus-sampling"
    CELLS = ((1, 1), (2, 1), (2, 2), (3, 1), (3, 2), (3, 3))
    CAP = 500
    pass_rounds = 800
    trace_rounds = 40

    def __init__(self, seed, D, root):
        super().__init__(seed, D, root)
        self.shapes = {cell: self._shapes(*cell) for cell in self.CELLS}

    def make_round(self, r):
        return [("colorful", (d, k, r)) for d, k in self.CELLS]

    def _shapes(self, d, k):
        """The suite's spec shapes for a cell: (coordinate top, points per
        level, sets per family).  Unlike the suite, both k ≥ 2 cells of
        d = 3 draw singleton families: with two sets per family the (3, 2)
        cell needs 50-260 draws per sample and a few such samples would
        carry most of a run, so its cost would follow the seed."""
        hard = d == 3 and k == 3
        tops = range(2, 5) if hard else range(3, 7)
        n_hi = 3 if d == 1 else (1 if d == 3 and k >= 2 else 2)
        return [
            (hi, pts, n)
            for hi in tops
            for pts in itertools.product((2, 3), repeat=d)
            for n in range(1, n_hi + 1)
        ]

    def _spec(self, d, k, r, attempt):
        # shapes are taken in a fixed cycle, the same in every run, so
        # every pass holds the suite's mix of shapes in equal measure; the
        # seed draws the instances within each shape
        shapes = self.shapes[(d, k)]
        hi, pts, n = shapes[(r + 7 * attempt) % len(shapes)]
        rng = _rng(self.seed, "sampling", d, k, r, attempt)
        return self.D.generators.GenSpec(
            d=d,
            points_per_level=pts,
            coord_range=(0, hi),
            n_sets=n,
            presence=Fraction(1),
            max_width=hi,
            seed=rng.randrange(2**31),
            n_families=2 * d - k + 1,
        )

    def run(self, kind, payload):
        d, k, r = payload
        gen = self.D.generators
        for attempt in itertools.count():
            outcome = gen.gen_conditioned(
                self._spec(d, k, r, attempt), gen.ColorfulHellyProperty(k), cap_draws=self.CAP
            )
            if outcome.found:
                sel = self.D.helly.colorful_helly_points(outcome.families, k)
                return outcome, sel

    def check(self, kind, payload, out):
        d, k, _ = payload
        outcome, sel = out
        self.tally("draws", outcome.draws)
        fams = [[O.expand(t) for t in fam] for fam in outcome.families]
        pts = [O.point_key(p) for p in sel.points]
        return O.check_colorful(fams, k, pts, sel.designated)


# ---------------------------------------------------------------------------
# corpus-checks


def _random_spec(D, rng, seed, d, n_lo, n_hi, pts_lo, pts_hi, n_families=1, full=False):
    """A spec shaped like the corpus suites' per-trial draw: ``rng`` draws
    the sizes, ``seed`` is the generator's seed."""
    hi = rng.randrange(8, 16)
    pts = tuple(rng.randrange(pts_lo, pts_hi + 1) for _ in range(d))
    presences = (Fraction(1, 2), Fraction(3, 4), Fraction(1))
    presence = Fraction(1) if full else presences[rng.randrange(3)]
    return D.generators.GenSpec(
        d=d,
        points_per_level=pts,
        coord_range=(0, hi),
        n_sets=rng.randrange(n_lo, n_hi + 1),
        presence=presence,
        max_width=rng.randrange(hi + 1),
        seed=seed,
        n_families=n_families,
    )


class CorpusChecks(Workload):
    """Small seeded families, one draw and one checker per item, one item
    per checker in every round, the way the other nine suites run."""

    name = "corpus-checks"
    CHECKERS = ("sweep", "dcollapse", "radon", "helly", "frac", "cfh", "pierce", "pq", "maxima")
    pass_rounds = 300
    trace_rounds = 60

    def make_round(self, r):
        items = []
        for i, name in enumerate(self.CHECKERS):
            # sizes come from a stream that is the same in every run, so
            # every pass holds the same mix of sizes; the seed draws the
            # instances within them
            rng = _rng("sizes", "checks", name, r)
            seed = _rng(self.seed, "checks", name, r).randrange(2**31)
            d = (1, 2)[r % 2] if name == "dcollapse" else (1, 2, 3)[(r + i) % 3]

            def spec(*sizes, **kw):
                return _random_spec(self.D, rng, seed, d, *sizes, **kw)

            if name == "sweep":
                item = spec(2, 8, 0, 6)
            elif name == "dcollapse":
                item = spec(2, 5, 1, 5)
            elif name == "radon":
                # at most 9 points: the brute force doubles per point
                item = spec(0, 0, 2, min(4, 9 // d))
            elif name == "helly":
                item = spec(2, 10, 2, 6)
            elif name == "frac":
                item = spec(2 * d, 9, 2, 5)
            elif name == "cfh":
                item = spec(1, 3, 2, 5, n_families=2 * d)
            elif name == "pierce":
                item = spec(2, 8, 2, 6, full=True)
            elif name == "pq":
                p = rng.randrange(3, 6)
                item = (spec(p, 8, 2, 6, full=True), p)
            else:
                k = rng.randrange(1, d + 1)
                item = (spec(2, 7, 2, 6, full=True), k)
            items.append((name, item))
        return items

    def run(self, kind, spec):
        D = self.D
        g, h, c, p = D.generators, D.helly, D.complexes, D.piercing
        if kind == "sweep":
            ground, fam = g.gen_family(spec)
            return ground, fam, c.sweep_collapse(fam)
        if kind == "dcollapse":
            ground, fam = g.gen_family(spec)
            K = c.nerve(fam)
            return ground, fam, K, c.is_d_collapsible(K, 2 * spec.d - 1)
        if kind == "radon":
            ground = g.gen_ground(spec)
            return ground, h.radon_number_bruteforce(ground, 2 * spec.d + 1)
        if kind == "helly":
            ground, fam = g.gen_family(spec)
            lb = g.gen_helly_lower_bound(ground)
            return fam, h.helly_check(fam, 2 * spec.d, 1), lb, h.helly_check(lb, 2 * spec.d - 1, 1)
        if kind == "frac":
            ground, fam = g.gen_family(spec)
            return fam, [h.frac_helly_stats(fam, k) for k in range(1, spec.d + 1)]
        if kind == "cfh":
            ground, fams = g.gen_instance(spec)
            return ground, fams, h.cfh_stats(fams)
        if kind == "pierce":
            ground, raw = g.gen_family(spec)
            fam = [t for t in raw if not t.is_empty]
            return fam, (p.pierce_all(fam) if fam else None)
        if kind == "pq":
            spec, q_p = spec
            ground, raw = g.gen_family(spec)
            fam = [t for t in raw if not t.is_empty]
            return fam, (p.pq_check([fam], q_p, 2, "plain") if len(fam) >= q_p else None)
        spec, k = spec
        ground, fam = g.gen_family(spec)
        meets = D.geometry.k_intersects(fam, k)
        return fam, meets, (h.maxima_witness_subfamily(fam, k) if meets else None)

    def check(self, kind, spec, out):
        self.tally(kind)
        if kind == "sweep":
            ground, fam, res = out
            d = spec.d
            faces = O.brute_nerve([O.expand(t) for t in fam], _is_nonempty(ground))
            if res.sequence.initial.faces != faces:
                return ["sweep nerve differs from the brute-force nerve"]
            for it in res.iterations:
                self.tally("mode:" + it.mode)
            return O.replay_collapses(faces, [s.free_face for s in res.sequence.steps], 2 * d - 1)
        if kind == "dcollapse":
            ground, fam, K, (ok, seq) = out
            faces = O.brute_nerve([O.expand(t) for t in fam], _is_nonempty(ground))
            if K.faces != faces:
                return ["nerve differs from the brute-force nerve"]
            if not ok:
                return ["nerve reported not (2d-1)-collapsible"]
            return O.replay_collapses(faces, [s.free_face for s in seq.steps], 2 * spec.d - 1)
        if kind == "radon":
            ground, number = out
            return [] if number == 2 * spec.d + 1 else [f"radon number {number}"]
        if kind == "helly":
            fam, rep, lb, lb_rep = out
            sets, lbs = [O.expand(t) for t in fam], [O.expand(t) for t in lb]
            return (
                O.check_helly(sets, 2 * spec.d, 1, rep.verdict, rep.statistics.get("intersection_levels"))
                + O.check_helly(lbs, 2 * spec.d - 1, 1, lb_rep.verdict, None)
                + O.check_lower_bound(lbs, spec.d)
                + ([] if lb_rep.verdict is False else ["lower bound not violated at 2d-1"])
                + ([] if rep.verdict else ["Helly at 2d violated"])
            )
        if kind == "frac":
            fam, reps = out
            sets = [O.expand(t) for t in fam]
            problems = []
            for k, rep in enumerate(reps, start=1):
                problems += O.check_frac(sets, k, spec.d, rep.statistics, rep.verdict)
            return problems
        if kind == "cfh":
            ground, fams, rep = out
            sets = [[O.expand(t) for t in fam] for fam in fams]
            return O.check_cfh(sets, O.ground_points(ground), spec.d, rep.statistics, rep.verdict)
        if kind == "pierce":
            fam, res = out
            if res is None:
                return []
            sets = [O.expand(t) for t in fam]
            pts = [O.point_key(q) for q in res.piercing_points]
            return O.check_tau(sets, res.tau, pts) + O.check_tau_bound(spec.d, res.tau, res.nu)
        if kind == "pq":
            (spec, p), (fam, ans) = spec, out
            if ans is None:
                return []
            return O.check_pq([O.expand(t) for t in fam], p, 2, ans[0], ans[1])
        (spec, k), (fam, meets, idx) = spec, out
        sets = [O.expand(t) for t in fam]
        if meets != (O.levels_met(O.common(sets)) >= k):
            return ["k_intersects disagrees"]
        return [] if idx is None else O.check_maxima_witness(sets, k, spec.d, idx)

    def deferred(self, kind, spec, out):
        if kind != "pierce" or out[1] is None:
            return None
        fam, res = out
        sets = [O.expand(t) for t in fam]
        return O.piercing_record(sets, res.nu, res.disjoint_subfamily, res.tau_star, res.nu_star)


# ---------------------------------------------------------------------------
# large-instances


def _run_of(coords, lo, hi):
    first, last = bisect_left(coords, lo), bisect_right(coords, hi) - 1
    return (first, last) if first <= last else None


def _face_count(runs, n) -> int:
    """Nerve faces (the empty face included) of index-space traces."""
    count = 1

    def grow(start, inter):
        nonlocal count
        for j in range(start, n):
            nxt = tuple(
                None if a is None or b is None or max(a[0], b[0]) > min(a[1], b[1])
                else (max(a[0], b[0]), min(a[1], b[1]))
                for a, b in zip(inter, runs[j])
            )
            if any(x is not None for x in nxt):
                count += 1
                grow(j + 1, nxt)

    for j in range(n):
        if any(x is not None for x in runs[j]):
            count += 1
            grow(j + 1, runs[j])
    return count


class LargeInstances(Workload):
    """Mid-size items of similar cost: sweep collapses of dense 9-11 set
    families whose nerves hold a few hundred to about a thousand faces,
    the collapse oracle on trees and paths of 40-100 edges, and
    ``pierce_all`` on 16-25 set families."""

    name = "large-instances"
    tail_pct = 90.0
    # per round: kind and d of each item
    SLOTS = (("sweep", 2), ("sweep", 3), ("sweep", 2), ("sweep", 3),
             ("tree", 1), ("path", 1), ("pierce", 2), ("pierce", 3))
    FACE_BAND = {2: (400, 600), 3: (350, 500)}  # nerve faces, the empty face included
    EDGES = (40, 55, 70, 85, 100)
    pass_rounds = 20  # every size cycle whole, twice
    trace_rounds = 2

    def make_round(self, r):
        items = []
        for slot, (kind, d) in enumerate(self.SLOTS):
            rng = _rng(self.seed, "large", r, slot)
            # sizes run through fixed cycles, so every run holds the same
            # mix of sizes; the seed draws the instances
            if kind == "sweep":
                items.append((kind, self._dense_family(rng, d, 10 + (r + slot) % 2)))
            elif kind == "pierce":
                items.append((kind, self._pierce_family(rng, d, 16 + (3 * r + slot) % 10)))
            else:
                edges = self.EDGES[(r + slot) % len(self.EDGES)]
                items.append((kind, self._tree(rng, edges, kind == "path")))
        return items

    def _traces(self, levels, pieces):
        geo = self.D.geometry
        ground = _ground(self.D, levels)
        fam = [geo.trace_of(geo.DInterval.from_pairs(len(levels), p), ground) for p in pieces]
        return ground, fam

    def _dense_family(self, rng, d, n):
        lo, hi = self.FACE_BAND[d]
        for _ in range(10_000):
            levels = [sorted(rng.sample(range(21), rng.randrange(5, 10))) for _ in range(d)]
            pieces, runs = [], []
            for _ in range(n):
                p = {}
                for lvl in range(1, d + 1):
                    w = rng.randrange(3, 15)
                    s = rng.randrange(0, 21 - w)
                    p[lvl] = (s, s + w)
                pieces.append(p)
                runs.append(tuple(_run_of(levels[l - 1], *p[l]) for l in range(1, d + 1)))
            if lo <= _face_count(runs, n) <= hi:
                ground, fam = self._traces(levels, pieces)
                return d, ground, fam, runs
        raise RuntimeError(f"no {n}-set family with {lo}-{hi} nerve faces")

    def _pierce_family(self, rng, d, n):
        levels = [sorted(rng.sample(range(31), 8)) for _ in range(d)]
        pieces = []
        for _ in range(n):
            p = {}
            for lvl in range(1, d + 1):
                first = rng.randrange(8)
                last = min(7, first + rng.randrange(4))
                p[lvl] = (levels[lvl - 1][first], levels[lvl - 1][last])
            pieces.append(p)
        ground, fam = self._traces(levels, pieces)
        return d, ground, fam, None

    def _tree(self, rng, edges, path):
        labels = list(range(edges + 1))
        rng.shuffle(labels)
        faces = set()
        for v in range(1, edges + 1):
            u = v - 1 if path else rng.randrange(v)
            faces |= {frozenset([labels[u], labels[v]]), frozenset([labels[v]]), frozenset([labels[u]])}
        faces.add(frozenset())
        return frozenset(faces)

    def run(self, kind, payload):
        c = self.D.complexes
        if kind == "sweep":
            return c.sweep_collapse(payload[2])
        if kind == "pierce":
            return self.D.piercing.pierce_all(payload[2])
        return c.is_d_collapsible(c.SimplicialComplex(payload), 1)

    def check(self, kind, payload, out):
        self.tally(kind)
        if kind in ("tree", "path"):
            ok, seq = out
            if not ok:
                return [f"{kind} reported not 1-collapsible"]
            return O.replay_collapses(payload, [s.free_face for s in seq.steps], 1)
        d, ground, fam, runs = payload
        if runs is not None and [t.runs for t in fam] != runs:
            return ["trace_of runs differ from the direct computation"]
        sets = [O.expand(t) for t in fam]
        if kind == "pierce":
            pts = [O.point_key(q) for q in out.piercing_points]
            return O.check_tau(sets, out.tau, pts) + O.check_tau_bound(d, out.tau, out.nu)
        faces = O.brute_nerve(sets, _is_nonempty(ground))
        self.tally("faces", len(faces))
        for it in out.iterations:
            self.tally("mode:" + it.mode)
        if out.sequence.initial.faces != faces:
            return ["sweep nerve differs from the brute-force nerve"]
        return O.replay_collapses(faces, [s.free_face for s in out.sequence.steps], 2 * d - 1)

    def deferred(self, kind, payload, out):
        if kind != "pierce":
            return None
        sets = [O.expand(t) for t in payload[2]]
        return O.piercing_record(sets, out.nu, out.disjoint_subfamily, out.tau_star, out.nu_star)


# ---------------------------------------------------------------------------
# cli-files


_SECONDS = re.compile(r'\\?"seconds\\?": [0-9.e-]+')


def _load_explicit(path):
    """The benchmark's own reading of an instance file: d, the explicit
    ground points, the explicit sets, and the family groups."""
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    d = doc["d"]
    points = frozenset((lvl, Fraction(c)) for c, lvl in doc["points"])
    sets = []
    for s in doc["sets"]:
        pieces = {p["level"]: (Fraction(p["lo"]), Fraction(p["hi"])) for p in s["levels"]}
        sets.append(frozenset(
            (lvl, c) for lvl, c in points
            if lvl in pieces and pieces[lvl][0] <= c <= pieces[lvl][1]
        ))
    groups = doc.get("families")
    return d, points, sets, groups


class CliFiles(Workload):
    """In-process ``cli.run_command`` over the pinned instance files, one
    call per subcommand in every round; ``gen`` writes an instance file
    and ``experiment`` runs a suite at a small trial count."""

    name = "cli-files"
    PLAIN = ("plain-d2-a.json", "plain-d2-b.json", "plain-d3.json")
    SUITES = ("collapse", "helly", "pierce", "piercing-bound", "maxima-witness", "oracle-agreement")
    TRIALS = 4
    pass_rounds = 96  # every plain file and suite equally often
    trace_rounds = 12

    def __init__(self, seed, D, root):
        super().__init__(seed, D, root)
        self.dir = os.path.join(root, "bench", "instances")
        self.out_dir = os.path.join(root, "bench", "out", "cli")
        os.makedirs(self.out_dir, exist_ok=True)
        names = self.PLAIN + ("colorful-d2-k1.json", "cfh-d2.json")
        self.files = {n: _load_explicit(os.path.join(self.dir, n)) for n in names}
        self.expected: dict = {}
        self.deferred_seen: set = set()

    def make_round(self, r):
        rng = _rng(self.seed, "cli", r)
        sizes = _rng("sizes", "cli", r)  # gen's sizes: the same in every run
        plain = os.path.join(self.dir, self.PLAIN[(r + self.seed) % len(self.PLAIN)])
        d = self.files[os.path.basename(plain)][0]
        gen_seed = rng.randrange(2**31)
        gen_out = os.path.join(self.out_dir, "gen.json")
        calls = [
            ["nerve", plain],
            ["collapse", plain],
            ["dcollapse-oracle", plain, "--bound", str(2 * d - 1)],
            ["radon", plain],
            ["helly", plain, "--m", str(2 * d)],
            ["frac-helly", plain, "--k", "1"],
            ["pierce", plain, "--out", os.path.join(self.out_dir, "pierce.json")],
            ["pq-check", plain, "--p", "3", "--q", "2"],
            ["colorful-helly", os.path.join(self.dir, "colorful-d2-k1.json"), "--k", "1"],
            ["cfh", os.path.join(self.dir, "cfh-d2.json")],
            ["gen", "--d", str(sizes.randrange(1, 4)), "--points", str(sizes.randrange(2, 5)),
             "--range", "0:12", "--sets", str(sizes.randrange(3, 9)), "--seed", str(gen_seed),
             "--out", gen_out],
            ["experiment", "--suite", self.SUITES[(r + self.seed) % len(self.SUITES)],
             "--trials", str(self.TRIALS), "--seed", str(rng.randrange(2**31))],
        ]
        return [(argv[0], argv) for argv in calls]

    def run(self, kind, argv):
        buf, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(err):
            code = self.D.cli.run_command(list(argv))
        text = buf.getvalue()
        out_path = argv[argv.index("--out") + 1] if "--out" in argv else None
        if out_path is not None:
            with open(out_path, encoding="utf-8") as fh:
                text = fh.read()
        return code, text, err.getvalue()

    def fingerprint(self, kind, out):
        # reports carry their own wall time
        return _SECONDS.sub("", repr(out))

    def check(self, kind, argv, out):
        code, text, err = out
        self.tally(kind)
        if kind == "gen":
            return self._check_gen(argv, code, text)
        if kind == "experiment":
            rep = json.loads(text)
            ok = code == 0 and rep["verdicts"] and all(rep["verdicts"].values())
            ok = ok and rep["parameters"]["trials"] == self.TRIALS
            return [] if ok else [f"experiment {argv[2]} failed: exit {code}"]
        key = tuple(a for a in argv if not a.startswith(self.out_dir))
        if key not in self.expected:
            self.expected[key] = self._oracle(kind, argv)
        want_code, verify = self.expected[key]
        if code != want_code:
            return [f"{' '.join(argv[:1])}: exit {code}, expected {want_code}: {err.strip()}"]
        return verify(json.loads(text))

    def _check_gen(self, argv, code, text):
        if code != 0:
            return [f"gen exit {code}"]
        inst = self.D.instances
        parsed, _ = inst.parse_instance(text)
        if inst.dump_instance(parsed) != text:
            return ["gen output does not re-serialize byte-identically"]
        d = int(argv[argv.index("--d") + 1])
        doc = json.loads(text)
        if doc["d"] != d or len(doc["sets"]) != int(argv[argv.index("--sets") + 1]):
            return ["gen output has the wrong shape"]
        return []

    def _oracle(self, kind, argv):
        """(expected exit code, function checking the parsed report)."""
        d, points, sets, groups = self.files[os.path.basename(argv[1])]
        F = Fraction

        def stat(rep, key):
            return rep["statistics"][key]

        if kind == "nerve":
            faces = O.brute_nerve(sets, bool(points))
            return 0, lambda rep: [] if {frozenset(f) for f in rep["witnesses"]["faces"]} == faces else ["nerve faces"]
        if kind == "collapse":
            return 0, lambda rep: [] if rep["verdicts"]["collapsed"] and stat(rep, "max_free_face") <= 2 * d - 1 else ["collapse report"]
        if kind == "dcollapse-oracle":
            faces = O.brute_nerve(sets, bool(points))

            def verify(rep):
                if not stat(rep, "collapsible"):
                    return ["dcollapse-oracle says not collapsible"]
                return O.replay_collapses(faces, [s["free"] for s in rep["witnesses"]["sequence"]], 2 * d - 1)
            return 0, verify
        if kind == "radon":
            return 0, lambda rep: [] if stat(rep, "radon_number") == 2 * d + 1 else ["radon number"]
        if kind == "helly":
            hyp, concl = O.helly_oracle(sets, 2 * d, 1)
            holds = (not hyp) or concl
            return (0 if holds else 1), lambda rep: O.check_helly(
                sets, 2 * d, 1, rep["verdicts"]["holds"], stat(rep, "intersection_levels"))
        if kind == "frac-helly":
            return 0, lambda rep: O.check_frac(sets, 1, d, rep["statistics"], rep["verdicts"]["bound_holds"])
        if kind == "pierce":
            def verify(rep):
                pts = [(lvl, F(c)) for c, lvl in rep["witnesses"]["piercing_points"]]
                tau, nu = stat(rep, "tau"), stat(rep, "nu")
                return O.check_tau(sets, tau, pts) + O.check_tau_bound(d, tau, nu)
            return 0, verify
        if kind == "pq-check":
            return (0 if O.pq_holds(sets, 3, 2) else 1), lambda rep: O.check_pq(
                sets, 3, 2, rep["verdicts"]["has_property"], rep["witnesses"].get("counterexample"))
        fams = [[sets[j] for j in g] for g in groups]
        if kind == "colorful-helly":
            return 0, lambda rep: O.check_colorful(
                fams, 1, [(lvl, F(c)) for c, lvl in rep["witnesses"]["points"]], rep["witnesses"]["designated"])
        return 0, lambda rep: O.check_cfh(fams, points, d, rep["statistics"], rep["verdicts"]["bound_holds"])

    def deferred(self, kind, argv, out):
        """ν and τ* oracles, once per distinct pierce answer."""
        if kind != "pierce" or out[0] != 0:
            return None
        rep = json.loads(out[1])
        sets = self.files[os.path.basename(argv[1])][2]
        stats = rep["statistics"]
        answer = (argv[1], stats["nu"], str(stats["tau_star"]), str(stats["nu_star"]),
                  tuple(rep["witnesses"]["disjoint_subfamily"]))
        if answer in self.deferred_seen:
            return None
        self.deferred_seen.add(answer)
        return O.piercing_record(sets, answer[1], answer[4], answer[2], answer[3])


WORKLOADS = {w.name: w for w in (CorpusSampling, CorpusChecks, LargeInstances, CliFiles)}
