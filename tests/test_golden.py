"""Golden digests of collapse, colorful-tuple, generation and corpus-suite
output.

Each digest is the sha256 of a canonical JSON rendering: step order is
kept, every face is a sorted label list and every removal set a sorted
list of faces; coordinates are rendered as exact strings.  Suite reports
are digested as their JSON (without timing) and CSV text, on the default
corpora and on corpora whose checkers fail on a fixed pattern.  A
refactor of the collapse search, the sweep, the piercing pipeline, the
colorful tuple enumeration or the suite driver must leave every digest
unchanged; a digest that moves means an answer, a witness or a report
changed.  The collapse oracle is also digested on seeded trees and
paths of 40-100 edges and on a hollow triangle beside disjoint paths,
which forces the search to backtrack.  Sweeps of seeded dense families
(10-11 sets, 350-600 nerve faces), where the star fallback removes large
blocks, have a digest of their own.  The sweep's pivot values and
the diagnostics its strict mode raises are digested on their own, the
face lists of the diagnostics in sorted order.  Generator output (plain instances, conditioned outcomes
and the files ``dintervals gen`` writes) is digested too: the seeded
streams define every corpus, so a faster generator must reproduce them
exactly.  The piercing LP is digested at three depths: raw simplex
outcomes (value, primal, dual or the refusal) on seeded LPs, the whole
``pierce_all`` result on seeded families, and the ``dintervals pierce``
report without its timing.  The point and sweep-order queries of
``piercing`` and ``helly`` (largest point cover, largest k-intersecting
subfamily, maxima witness, τ with its points, fractional Helly
statistics, plain and colorful-second (p,q)) are digested on seeded
families, empty sets included; so are every ``helly_check`` report and
ν on the same families.  Radon partitions (both sides and the
witness) are digested on seeded subsets below and at or above 2d+1
points, beside the brute-force Radon number at several caps.  Instance
parsing is digested on ``dump_instance`` documents of seeded draws and
on variants of them: respelled literals, endpoints off the ground,
pieces that cover no point, and documents broken in every way the
parser refuses (the error's path and message are digested).
"""

import hashlib
import itertools
import json
import random
from fractions import Fraction

import pytest

from dintervals import (
    ColorfulHellyProperty,
    DIntervalError,
    GenSpec,
    GuardExceededError,
    Instance,
    KIntersectRich,
    PointSet,
    Point,
    PqProperty,
    SchemaError,
    SimplicialComplex,
    SweepInvariantError,
    TheoremViolationError,
    TraceSet,
    cfh_stats,
    colorful_helly_points,
    dump_instance,
    frac_helly_stats,
    gen_conditioned,
    gen_instance,
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
from dintervals import complexes, experiments
from dintervals.cli import run_command
from dintervals.experiments import run_suite
from dintervals.lp import simplex_maximize
from helpers import (
    LP_KINDS,
    cliff_complex,
    dense_families,
    nu_and_subfamily,
    random_ground,
    random_lp,
    random_trace,
    random_tree,
    tau_and_points,
)

FAMILIES = 102
DENSE_FAMILIES = 20
LARGE_TREES = 40
COLORFUL_INSTANCES = 1500
LPS = 2400
PIERCE_FAMILIES = 320
QUERY_FAMILIES = 600
RADON_GROUNDS = 240
PARSE_DRAWS = 48

GOLDEN = {
    "sweep": (
        "44d9c0a1b3a679da0deb5c9d2350f05a"
        "ea302ec85a509f26f81dc6019b39fd39"
    ),
    "sweep-values": (
        "ae2c032f651b17bfcd87f6dccd274378"
        "590053926fa48972d020e41c8f01eee0"
    ),
    "sweep-strict-diagnostics": (
        "96b9c14b4abf11e724e3d5cc35cd32c1"
        "786817168b7726c6dca79ef4e562e15a"
    ),
    "oracle-bound-1": (
        "b5d371a88af1198320265dcc38c68386"
        "d83814ed3b42b59b9cb578210a5186f3"
    ),
    "oracle-bound-2d-1": (
        "fc64fc6cb1e7c54135eb13ef22675669"
        "ad985d0de5ebf9ca9c1a778aefa45287"
    ),
    "sweep-dense": (
        "44145a94fccd49517fee59606cd73c32"
        "9643b5771764faab4f95f78c65bc0024"
    ),
    "collapse-large": (
        "c535e2fd24c81fdf43f592f2915c89fb"
        "c4b05b583ca789f6d4de0b714781bb95"
    ),
    "suite-collapse": (
        "411a3e8a3e7682dfaa19c0137bf50f97"
        "af2105d4530496f1cea8a0044f39ca79"
    ),
    "suite-oracle-agreement": (
        "bc94c1b0a6ba429915b21d92ab237f56"
        "9c33efc4cca04d1852966d5706dc0601"
    ),
    "suite-pierce": (
        "3ae32aa83bec46b6f1da32b2117d3e66"
        "fbf1cf9bfb4036857d67d2f2dd6ecd31"
    ),
    "colorful-check": (
        "a059cb0db0ddbdcfc532faa62575220c"
        "28b19faa8738e4ddd75bdafbee3cdc9c"
    ),
    "colorful-points": (
        "299bad055ed84576e94e755f104eb4b8"
        "69c6c925f89af86c5f28893aee0fc5fb"
    ),
    "colorful-cfh": (
        "889179438b0f5b4a64199af06fc4e503"
        "51390bda4e98446edca52d563751196f"
    ),
    "colorful-pq-first": (
        "81326898700bb14414101429e6d19cb1"
        "f30a3b546522799d479fbf7d7ac78c95"
    ),
    "suite-colorful": (
        "15f19c01ead8d5fa716cd75c7e11eee4"
        "088313d851dc520a5c77cb9763f6eee1"
    ),
    "suite-collapse-csv": (
        "610010b02da021004866b38c78df92fc"
        "91fe62cd04b8a8f077ca099abba52f94"
    ),
    "suite-oracle-agreement-csv": (
        "6e2d0a7fd597be8160df841d13849eef"
        "844fad59cb8c361229e89158d26ef9d9"
    ),
    "suite-pierce-csv": (
        "c4eb37025a4818ee0efc53d8803b4cc9"
        "05a738e114ae930730ad0258ad55c848"
    ),
    "suite-radon": (
        "12cbe358c3ecb3042cbb836c919b2a48"
        "fc3f82d6040bfda4c89d7053af565e28"
    ),
    "suite-helly": (
        "67abb879dd78da7de1e1d2fbeb7ea964"
        "69a69fa7b9d4ca0477677de44929cc8a"
    ),
    "suite-piercing-bound": (
        "52b51f74553bc4ab7409a6c12193a2ef"
        "bb597ffd9d0d503c1351266a6c1f3ad4"
    ),
    "suite-pq": (
        "a2b5fda8e36f2df5a19f732949c0f514"
        "4b79187bae7d6e3b3b77841e956247f9"
    ),
    "suite-maxima-witness": (
        "8116b3dc0d1d01e2660094d5d1f2a95e"
        "87b8549bd568cf38e21c29f94d0e841c"
    ),
    "fault-collapse": (
        "ab69fd5271b0257f29d75e369efcab97"
        "b0e48dec8f00e039d86acba7ef2d5ad4"
    ),
    "fault-radon": (
        "1eec740ce269c3ff0013760d0508b739"
        "e08e086867a8988d8684f0ebcce218a9"
    ),
    "fault-helly": (
        "83d1dadcb4d1011a35887f4136132e65"
        "35b14c9566bba2bf894c5bf4a945df39"
    ),
    "fault-colorful-helly": (
        "e7d488aacdc388dc53001a5dbf1de874"
        "8139b78a55cd35063f8fa544b6290e60"
    ),
    "fault-frac-helly": (
        "4bbf5d087df51465aadbf76e93352f6f"
        "7c8bb0c38841514805c13ee5fcaffbb4"
    ),
    "fault-pierce": (
        "786ea493e8ab5f42aff56464b4dfe505"
        "acb86c216af6c25f1e973f9e052d6224"
    ),
    "fault-piercing-bound": (
        "849a7b4bb2f8f49c5f30004b86303fac"
        "ba06c282ff0e693591b5a71c34e58a79"
    ),
    "fault-maxima-witness": (
        "977e46c84640f5b2e9a67ec98757f84f"
        "4f1aab58de2a5d896108499be02104ed"
    ),
    "fault-oracle-agreement": (
        "b3337b5e0ee78ddb2f2e1530186eef32"
        "f4f065ba18cd46e6a24898c62cbf97e2"
    ),
    "gen-instance": (
        "4708482afaf3b145d47efcb74cd9c5c8"
        "0d0c4c29d66edfee41e9ec7b2c34b8e9"
    ),
    "gen-conditioned": (
        "6ba90f1e4d9e7f71e3d7f76504ee920f"
        "d135d8f340ac6e8a8342caff83d99d1f"
    ),
    "gen-files": (
        "4a6bb5de73ff9d7c8507fd6168e48a6e"
        "714d4b58d429cba44fc90b37e2c65924"
    ),
    "lp-simplex": (
        "0fd9d0a494e787746344599d56a21ab9"
        "d6ef66e4cb15b35921005b0e0d366dd9"
    ),
    "pierce-lp": (
        "841ca489b44d7504acba56a904ef80d4"
        "6cc74328278161277b80b1c28b540d7b"
    ),
    "cli-pierce": (
        "fd3db62ae6323cba3f1a1522e62cfb5e"
        "82dd641790d4e4ee182e286240cb3fbf"
    ),
    "index-queries": (
        "d9a94a849ab499c4a2470d3c0e47c44f"
        "c52b34356def49bdcfe61c9244285476"
    ),
    "helly-nu": (
        "7062d5bc913a82db11940aef442f7318"
        "e401504401fbb6929dc206f6ce029c6e"
    ),
    "radon": (
        "2c86a8b7be2fccc6e5c61d303e9a5c38"
        "cb06ee1cb1b82b6c03349193cdc9ae93"
    ),
    "instance-parse": (
        "3a47eeb648c562b7827b89a84f22354b"
        "0d3141eba97d4f64011b477affc13d32"
    ),
}


def _digest(value) -> str:
    # default=str renders Fractions exactly ("3/2")
    text = json.dumps(value, sort_keys=True, separators=(",", ":"), default=str)
    return hashlib.sha256(text.encode()).hexdigest()


def _steps(steps):
    return [
        [
            sorted(s.free_face),
            sorted(s.unique_maximal),
            sorted(sorted(f) for f in s.removed_faces),
        ]
        for s in steps
    ]


def _families():
    rng = random.Random(20250107)
    for i in range(FAMILIES):
        d = 1 + i % 3
        ground = random_ground(rng, d, max_per_level=5)
        yield d, [random_trace(rng, ground) for _ in range(rng.randrange(1, 9))]


def _sweep_rows(res):
    return [
        [
            sorted(it.pivot_face),
            [None if c is None else str(c) for c in it.pivot_value.components],
            it.mode,
            _steps(it.steps),
        ]
        for it in res.iterations
    ]


def _canonical_outputs():
    sweeps, bound_1, bound_top = [], [], []
    modes = set()
    for d, fam in _families():
        res = sweep_collapse(fam)
        sweeps.append(_sweep_rows(res))
        modes.update(it.mode for it in res.iterations)
        K = nerve(fam)
        for bound, out in ((1, bound_1), (2 * d - 1, bound_top)):
            ok, witness = is_d_collapsible(K, bound)
            out.append([ok, None if witness is None else _steps(witness.steps)])
    return sweeps, bound_1, bound_top, modes


def test_collapse_witnesses_match_the_golden_digests():
    sweeps, bound_1, bound_top, modes = _canonical_outputs()
    # the corpus must reach every sweep mode, the star fallback included
    assert modes == {"delete", "truncate", "star"}
    assert any(ok for ok, _ in bound_1) and not all(ok for ok, _ in bound_1)
    assert _digest(sweeps) == GOLDEN["sweep"]
    assert _digest(bound_1) == GOLDEN["oracle-bound-1"]
    assert _digest(bound_top) == GOLDEN["oracle-bound-2d-1"]


def test_dense_sweeps_match_the_golden_digest(monkeypatch):
    # dense families make the sweep cut stars often, and its fallback
    # search remove blocks of a hundred faces or more
    blocks = []
    search = complexes._collapse_search

    def spy(todo, bound, order):
        blocks.append(len(todo))
        return search(todo, bound, order)

    monkeypatch.setattr(complexes, "_collapse_search", spy)
    sweeps = [_sweep_rows(sweep_collapse(fam)) for _, fam in dense_families(DENSE_FAMILIES)]
    assert sum(row[2] == "star" for rows in sweeps for row in rows) >= 40
    assert sum(size >= 100 for size in blocks) >= 3
    assert _digest(sweeps) == GOLDEN["sweep-dense"]


def _large_complexes():
    """Seeded trees and paths of 40-100 edges at bound 1, then the hollow
    triangle with n = 1..3 disjoint paths at bounds 1 and 2."""
    rng = random.Random(20250119)
    for i in range(LARGE_TREES):
        faces = random_tree(rng, rng.randrange(40, 101), path=i % 2 == 1)
        yield SimplicialComplex(faces), 1
    for n in range(1, 4):
        for bound in (1, 2):
            yield cliff_complex(n), bound


def test_large_collapse_verdicts_match_the_golden_digest():
    rows = []
    for K, bound in _large_complexes():
        ok, witness = is_d_collapsible(K, bound)
        rows.append([bound, ok, None if witness is None else _steps(witness.steps)])
    # trees and paths collapse; the triangle needs bound 2
    assert [ok for _, ok, _ in rows[LARGE_TREES:]] == [False, True] * 3
    assert all(ok for _, ok, _ in rows[:LARGE_TREES])
    assert _digest(rows) == GOLDEN["collapse-large"]


def test_sweep_values_match_the_golden_digest():
    values = [
        [
            [None if c is None else str(c) for c in it.pivot_value.components]
            for it in sweep_collapse(fam).iterations
        ]
        for _, fam in _families()
    ]
    assert _digest(values) == GOLDEN["sweep-values"]


def _canonical_diagnostics(diagnostics: dict) -> dict:
    # every entry but the family snapshot and the label tuples is a face
    # list, whose order carries no meaning
    return {
        key: value
        if key in ("family", "pivot", "star")
        else sorted(value, key=lambda f: (len(f), f))
        for key, value in diagnostics.items()
    }


def test_strict_sweep_diagnostics_match_the_golden_digest():
    # strict mode refuses the star fallback, so every family that needs
    # it raises at its first such iteration
    failures = []
    for n, (_, fam) in enumerate(_families()):
        try:
            sweep_collapse(fam, strict=True)
        except SweepInvariantError as err:
            failures.append([n, str(err), _canonical_diagnostics(err.diagnostics)])
    assert len(failures) == 18
    assert _digest(failures) == GOLDEN["sweep-strict-diagnostics"]


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _report_text(report) -> str:
    return report.json_text(include_timing=False) + report.csv_text()


def test_suite_reports_match_the_golden_digests():
    for suite in ("collapse", "oracle-agreement", "pierce"):
        report = run_suite(suite)
        assert _sha(report.json_text(include_timing=False)) == GOLDEN[f"suite-{suite}"], suite
        assert _sha(report.csv_text()) == GOLDEN[f"suite-{suite}-csv"], suite
    for suite in ("radon", "helly", "piercing-bound", "pq", "maxima-witness"):
        assert _sha(_report_text(run_suite(suite))) == GOLDEN[f"suite-{suite}"], suite


# checker name in dintervals.experiments -> what goes wrong on every
# third call: it raises, or its verdict comes back negated
FAULTS = {
    "sweep_collapse": "raise",
    "radon_number_bruteforce": "raise",
    "pierce_all": "raise",
    "maxima_witness_subfamily": "raise",
    "colorful_helly_points": "raise",
    "helly_check": "flip",
    "piercing_bound_check": "flip",
    "frac_helly_stats": "flip",
    "cfh_stats": "flip",
}

# suite -> trials; the default corpora never fail, these do
FAULT_TRIALS = {
    "collapse": 40,
    "radon": 20,
    "helly": 40,
    "colorful-helly": 4,
    "frac-helly": 15,
    "pierce": 40,
    "piercing-bound": 40,
    "maxima-witness": 40,
    "oracle-agreement": 40,
}


def _faulty(fn, how):
    calls = itertools.count()

    def checker(*args, **kwargs):
        n = next(calls)
        if how == "raise" and n % 3 == 1:
            raise TheoremViolationError(f"injected fault at call {n}")
        result = fn(*args, **kwargs)
        if how == "flip" and n % 3 == 1:
            if isinstance(result, tuple):
                return (not result[0], *result[1:])
            result.verdict = not result.verdict
        return result

    return checker


def test_failing_suite_reports_match_the_golden_digests(monkeypatch):
    for suite, trials in FAULT_TRIALS.items():
        with monkeypatch.context() as mp:
            for name, how in FAULTS.items():
                mp.setattr(experiments, name, _faulty(getattr(experiments, name), how))
            report = run_suite(suite, trials=trials)
        assert not report.passed, suite
        assert _sha(_report_text(report)) == GOLDEN[f"fault-{suite}"], suite


def test_a_guard_overrun_in_a_suite_propagates(monkeypatch, capsys):
    # the collapse suite records only sweep and theorem failures
    def overrun(family):
        raise GuardExceededError("nerve family size", 99, 20)

    monkeypatch.setattr(experiments, "sweep_collapse", overrun)
    with pytest.raises(GuardExceededError):
        run_suite("collapse", trials=2)
    assert run_command(["experiment", "--suite", "collapse", "--trials", "2"]) == 2
    assert "error: nerve family size" in capsys.readouterr().err


def _colorful_instances():
    """Seeded (d, k, families) with 2d−k+1 families of 0–3 traces each:
    narrow grounds and low empty bias so a sizable share of instances
    has every colorful tuple k-intersecting."""
    rng = random.Random(20250108)
    for i in range(COLORFUL_INSTANCES):
        d = 1 + i % 3
        k = 1 + rng.randrange(d)
        ground = random_ground(rng, d, max_per_level=4)
        bias = rng.choice((0.0, 0.1, 0.3))
        families = [
            [random_trace(rng, ground, bias) for _ in range(rng.choice((0,) + (1, 2, 3) * 12))]
            for _ in range(2 * d - k + 1)
        ]
        q = 1 + rng.randrange(max(1, min(len(families), *map(len, families))))
        p = rng.randrange(q, max(q, min(map(len, families[:q]))) + 1)
        yield ground, k, families, p, q


def _outcome(call):
    """The call's result, or its error with every field it carries."""
    try:
        return ["ok", call()]
    except (DIntervalError, ValueError) as exc:
        return [
            type(exc).__name__,
            str(exc),
            getattr(exc, "witness", None),
            getattr(exc, "diagnostics", None),
        ]


def _selection(families, k, designated):
    sel = colorful_helly_points(families, k, designated=designated)
    return [sel.points, sel.designated, sel.minimizing_tuple, str(sel.minimum)]


def _cfh(families):
    rep = cfh_stats(families)
    return [rep.verdict, rep.parameters, rep.statistics]


def _colorful_outputs():
    checks, points, cfh, pq = [], [], [], []
    for ground, k, families, p, q in _colorful_instances():
        checks.append(ColorfulHellyProperty(k).check(ground, families))
        points.append(
            [
                _outcome(lambda: _selection(families, k, designated))
                for designated in (None, *range(len(families)))
            ]
        )
        if k == 1:
            cfh.append(_outcome(lambda: _cfh(families)))
        pq.append([p, q, _outcome(lambda: pq_check(families[:q], p, q, "colorful-first"))])
    return checks, points, cfh, pq


def test_colorful_tuple_outputs_match_the_golden_digests():
    checks, points, cfh, pq = _colorful_outputs()
    # both verdicts of the property occur, and so do both kinds of outcome
    assert any(checks) and not all(checks)
    kinds = {outcome[0] for row in points for outcome in row}
    assert {"ok", "PreconditionError", "TheoremViolationError"} <= kinds
    assert any(r[2][0] == "ok" and r[2][1][0] for r in pq)
    assert any(r[2][0] == "ok" and not r[2][1][0] for r in pq)
    assert _digest(checks) == GOLDEN["colorful-check"]
    assert _digest(points) == GOLDEN["colorful-points"]
    assert _digest(cfh) == GOLDEN["colorful-cfh"]
    assert _digest(pq) == GOLDEN["colorful-pq-first"]


def test_colorful_suite_reports_match_the_golden_digests():
    text = ""
    for suite, trials in (("colorful-helly", 15), ("frac-helly", 40)):
        report = run_suite(suite, trials=trials)
        text += report.json_text(include_timing=False) + report.csv_text()
    assert hashlib.sha256(text.encode()).hexdigest() == GOLDEN["suite-colorful"]


# ---------------------------------------------------------------- generation


def _gen_specs():
    """Seeded specs over d = 1..3, presence 1/2, 3/4 and 1, 1–3 families
    and max_width 0, half and full; point counts include empty levels."""
    rng = random.Random(20250109)
    grid = itertools.product(
        (1, 2, 3), (Fraction(1, 2), Fraction(3, 4), Fraction(1)), (1, 2, 3)
    )
    for d, presence, n_families in grid:
        hi = rng.randrange(2, 10)
        for width in (0, hi // 2, hi):
            yield GenSpec(
                d=d,
                points_per_level=tuple(rng.randrange(0, hi + 2) for _ in range(d)),
                coord_range=(0, hi),
                n_sets=rng.randrange(0, 6),
                presence=presence,
                max_width=width,
                seed=rng.randrange(2**31),
                n_families=n_families,
            )


def _instance(ground, families):
    return [ground.levels, [[t.runs for t in fam] for fam in families]]


def _conditioned_cases():
    """(spec, predicate, cap): every colorful cell k = 1..d, the three
    (p,q) kinds, the k-intersect-rich property and one exhausted cap."""
    for d in (1, 2, 3):
        for k in range(1, d + 1):
            for seed in (3, 4, 6):
                # the hardest cell needs a narrow ground and one set a family
                hard = k == 3
                hi = 2 if hard else 2 + seed % 3
                yield GenSpec(
                    d=d, points_per_level=2 + seed % 2, coord_range=(0, hi),
                    n_sets=1 if hard else 1 + (seed + k) % 2, presence=1, max_width=hi,
                    seed=seed, n_families=2 * d - k + 1,
                ), ColorfulHellyProperty(k), 500
    for seed in (3, 4):
        yield GenSpec(
            d=2, points_per_level=3, coord_range=(0, 5), n_sets=4,
            presence=Fraction(3, 4), max_width=3, seed=seed,
        ), PqProperty(3, 2), 200
        yield GenSpec(
            d=1, points_per_level=4, coord_range=(0, 6), n_sets=2,
            presence=1, max_width=4, seed=seed, n_families=2,
        ), PqProperty(2, 2, "colorful-first"), 200
        yield GenSpec(
            d=2, points_per_level=3, coord_range=(0, 4), n_sets=2,
            presence=1, max_width=3, seed=seed, n_families=3,
        ), PqProperty(3, 2, "colorful-second"), 200
        yield GenSpec(
            d=2, points_per_level=3, coord_range=(0, 5), n_sets=4,
            presence=Fraction(3, 4), max_width=3, seed=seed,
        ), KIntersectRich(1, Fraction(1, 2)), 200
    yield GenSpec(
        d=2, points_per_level=3, coord_range=(0, 5), n_sets=3,
        presence=Fraction(1, 2), max_width=0, seed=9, n_families=4,
    ), ColorfulHellyProperty(1), 40


GEN_ARGS = (
    ["--d", "2", "--points", "4,3", "--range", "0:9", "--sets", "5",
     "--presence", "3/4", "--max-width", "4", "--seed", "11"],
    ["--d", "3", "--points", "3", "--range", "0:6", "--sets", "3",
     "--seed", "2", "--families", "2"],
    ["--d", "2", "--points", "3", "--range", "0:4", "--sets", "2",
     "--seed", "8", "--predicate", "colorful-helly:2"],
    ["--d", "3", "--points", "2", "--range", "0:3", "--sets", "1",
     "--seed", "8", "--predicate", "colorful-helly:2"],
    ["--d", "2", "--points", "3", "--range", "0:5", "--sets", "4",
     "--presence", "3/4", "--seed", "6", "--predicate", "pq:3:2"],
    ["--d", "1", "--points", "4", "--range", "0:6", "--sets", "3",
     "--presence", "3/4", "--seed", "6", "--predicate", "pq:3:2:colorful-second"],
    ["--d", "2", "--points", "3", "--range", "0:5", "--sets", "4",
     "--presence", "3/4", "--seed", "6", "--predicate", "k-rich:1:1/2"],
)


def test_generated_instances_match_the_golden_digest():
    specs = list(_gen_specs())
    outputs = [_instance(*gen_instance(spec)) for spec in specs]
    # the grid reaches empty levels, empty families and missed windows
    assert any(0 in spec.points_per_level for spec in specs)
    assert any(spec.n_sets == 0 for spec in specs)
    runs = [run for _, fams in outputs for fam in fams for t in fam for run in t]
    assert None in runs and any(r is not None and r[0] < r[1] for r in runs)
    assert _digest(outputs) == GOLDEN["gen-instance"]


def test_conditioned_outcomes_match_the_golden_digest():
    outcomes = []
    for spec, predicate, cap in _conditioned_cases():
        got = gen_conditioned(spec, predicate, cap_draws=cap)
        row = [got.found, got.draws, got.predicate]
        if got.found:
            row += _instance(got.ground, got.families)
        outcomes.append(row)
    # every case but the exhausted cap finds an instance, some after
    # rejecting draws
    assert [row[0] for row in outcomes].count(False) == 1
    assert any(row[1] > 1 for row in outcomes)
    assert _digest(outcomes) == GOLDEN["gen-conditioned"]


def test_gen_files_match_the_golden_digest(tmp_path):
    text = ""
    for i, args in enumerate(GEN_ARGS):
        out = tmp_path / f"gen-{i}.json"
        assert run_command(["gen", *args, "--out", str(out)]) == 0, args
        text += out.read_text(encoding="utf-8")
    assert _sha(text) == GOLDEN["gen-files"]


# ---------------------------------------------------------------- piercing LP


def _simplex_outcomes():
    rng = random.Random(20250111)
    for i in range(LPS):
        c, A, b = random_lp(rng, LP_KINDS[i % len(LP_KINDS)])
        try:
            out = simplex_maximize(c, A, b)
        except ValueError as exc:
            yield ["ValueError", str(exc)]
        else:
            yield [out.value, list(out.primal), list(out.dual)]


def test_simplex_outcomes_match_the_golden_digest():
    outcomes = list(_simplex_outcomes())
    # optimal, unbounded, negative-rhs and ragged inputs all occur
    errors = {row[1] for row in outcomes if row[0] == "ValueError"}
    assert errors == {
        "LP is unbounded", "this solver needs b ≥ 0", "inconsistent LP dimensions"
    }
    assert sum(row[0] != "ValueError" for row in outcomes) > LPS // 2
    assert _digest(outcomes) == GOLDEN["lp-simplex"]


def _pierce_families(count: int, max_sets: int = 8):
    """Seeded families of nonempty traces, d = 1..3."""
    rng = random.Random(20250112)
    made = 0
    while made < count:
        d = 1 + made % 3
        ground = random_ground(rng, d, max_per_level=5)
        fam = [random_trace(rng, ground) for _ in range(rng.randrange(1, max_sets + 1))]
        fam = [t for t in fam if not t.is_empty]
        if fam:
            made += 1
            yield ground, fam


def _points(points):
    return [[p.coord, p.level] for p in points]


def test_pierce_results_match_the_golden_digest():
    results = []
    for _, fam in _pierce_families(PIERCE_FAMILIES):
        res = pierce_all(fam)
        results.append([
            res.tau, _points(res.piercing_points), res.nu, list(res.disjoint_subfamily),
            res.lp.value, list(res.lp.matching_weights),
            list(res.lp.transversal_weights), _points(res.lp.candidate_points),
        ])
    # fractional optima occur, not only integral ones
    assert any(row[4].denominator > 1 for row in results)
    assert _digest(results) == GOLDEN["pierce-lp"]


def _triangle_triple():
    """Three pairwise-meeting two-level sets with no common point: τ* = 3/2."""
    ground = PointSet(2, (tuple(map(Fraction, (0, 1, 2, 4, 5))), tuple(map(Fraction, range(4)))))
    runs = (((0, 1), (0, 1)), ((1, 2), (2, 3)), ((3, 4), (1, 2)))
    return ground, [TraceSet(ground, r) for r in runs]


def test_pierce_reports_match_the_golden_digest(tmp_path, capsys):
    reports = []
    cases = [*_pierce_families(12, max_sets=14), _triangle_triple()]
    for i, (ground, fam) in enumerate(cases):
        path = tmp_path / f"pierce-{i}.json"
        names = [f"S{j + 1}" for j in range(len(fam))]
        path.write_text(dump_instance(Instance(ground, fam, names)), encoding="utf-8")
        assert run_command(["pierce", str(path)]) == 0
        report = json.loads(capsys.readouterr().out)
        del report["timing"]
        report["parameters"]["file"] = path.name
        reports.append(report)
    assert reports[-1]["statistics"]["tau_star"] == "3/2"
    assert _digest(reports) == GOLDEN["cli-pierce"]


# ---------------------------------------------------------------- point queries


def _query_families():
    """Seeded families of 1–8 traces, d = 1..3, empty sets included."""
    rng = random.Random(20250113)
    for i in range(QUERY_FAMILIES):
        d = 1 + i % 3
        ground = random_ground(rng, d, max_per_level=5)
        yield d, [random_trace(rng, ground) for _ in range(rng.randrange(1, 9))]


def _frac(family, k):
    rep = frac_helly_stats(family, k)
    return [rep.verdict, rep.parameters, rep.statistics, rep.witnesses]


def _query_outputs(d, fam):
    n = len(fam)
    nonempty = [t for t in fam if not t.is_empty]
    ks = range(1, d + 1)
    row = [
        max_point_cover(fam),
        [max_k_intersecting_subfamily(fam, k) for k in ks],
        [_outcome(lambda: maxima_witness_subfamily(fam, k)) for k in ks],
        _outcome(lambda: tau_and_points(fam)),
        _outcome(lambda: tau_and_points(nonempty)),
        [_outcome(lambda: _frac(fam, k)) for k in ks],
        [
            [p, q, pq_check([fam], p, q)]
            for p in range(1, min(n, 4) + 1)
            for q in range(1, p + 1)
        ],
    ]
    for p in (2, 3):
        families = [fam[i::p] for i in range(p)]
        if all(families):
            row.append([[p, q, pq_check(families, p, q, "colorful-second")] for q in range(1, p + 1)])
    return row


def test_point_queries_match_the_golden_digest():
    rows = [_query_outputs(d, fam) for d, fam in _query_families()]
    # covers of every size, both witness outcomes, refused and solved τ,
    # and both (p,q) verdicts occur
    assert {row[0][0] for row in rows} >= {0, 1, 2, 3}
    assert {o[0] for row in rows for o in row[2]} >= {"ok", "PreconditionError"}
    assert {row[3][0] for row in rows} == {"ok", "PreconditionError"}
    verdicts = {r[2][0] for row in rows for r in row[6]}
    assert verdicts == {True, False}
    assert any(len(row) > 7 for row in rows)
    assert _digest(rows) == GOLDEN["index-queries"]


def _helly_nu_outputs(d, fam):
    reports = []
    for m in range(1, 2 * d + 1):
        for k in range(1, d + 1):
            rep = helly_check(fam, m, k)
            reports.append([m, k, rep.verdict, rep.statistics, rep.witnesses])
    nonempty = [t for t in fam if not t.is_empty]
    return [reports, _outcome(lambda: nu_and_subfamily(nonempty))]


def test_helly_checks_and_nu_match_the_golden_digest():
    rows = [_helly_nu_outputs(d, fam) for d, fam in _query_families()]
    # both verdicts, failed hypotheses, violations, refused and solved ν,
    # and ν above 1 occur
    reports = [r for row in rows for r in row[0]]
    assert {r[2] for r in reports} == {True, False}
    assert any("failing_hypothesis_subfamily" in r[3] for r in reports)
    assert any(r[4] for r in reports)
    assert {row[1][0] for row in rows} == {"ok", "PreconditionError"}
    assert any(row[1][0] == "ok" and row[1][1][0] > 1 for row in rows)
    assert _digest(rows) == GOLDEN["helly-nu"]


# ------------------------------------------------------------------- Radon


def _radon_grounds():
    """Seeded grounds of up to four points a level, d = 1..3, empty
    levels included."""
    rng = random.Random(20250115)
    for i in range(RADON_GROUNDS):
        d = 1 + i % 3
        yield rng, d, random_ground(rng, d, max_per_level=4)


def _partition(ground, subset):
    part = radon_partition(ground, subset)
    if part is None:
        return None
    return [_points(part.side_a), _points(part.side_b), _points([part.witness])]


def _radon_outputs(rng, d, ground):
    pts = list(ground.points())
    subsets = [rng.sample(pts, rng.randrange(len(pts) + 1)) for _ in range(8)]
    if pts:
        # repeated points count once; a foreign point is refused
        subsets.append(pts + pts[:2])
        subsets.append(pts[:2] + [Point(Fraction(99), 1 + rng.randrange(d))])
    caps = (0, 1, d + 1, 2 * d, 2 * d + 1, 2 * d + 2)
    return [
        d,
        [_outcome(lambda: _partition(ground, s)) for s in subsets],
        [_outcome(lambda: radon_number_bruteforce(ground, cap)) for cap in caps],
    ]


def test_radon_partitions_and_numbers_match_the_golden_digest():
    rows = [_radon_outputs(*case) for case in _radon_grounds()]
    parts = [(d, o) for d, row, _ in rows for o in row]
    numbers = [o for _, _, row in rows for o in row]
    # refusals, no partition, and partitions of fewer and of at least
    # 2d+1 points occur; so do numbers within and past the cap
    assert {o[0] for _, o in parts} == {"ok", "ValueError"}
    assert any(o == ["ok", None] for _, o in parts)
    found = [(d, len(o[1][0]) + len(o[1][1])) for d, o in parts if o[0] == "ok" and o[1]]
    assert any(n < 2 * d + 1 for d, n in found) and any(n >= 2 * d + 1 for d, n in found)
    assert {o[0] for o in numbers} == {"ok", "ValueError"}
    assert any(o == ["ok", None] for o in numbers)
    assert any(o[0] == "ok" and o[1] is not None for o in numbers)
    assert _digest(rows) == GOLDEN["radon"]


# ---------------------------------------------------------- instance parsing


def _parse_bases():
    """Seeded ``dump_instance`` documents of ``gen_instance`` draws, d = 1..3,
    one or two families, empty levels and negative coordinates included."""
    rng = random.Random(20250117)
    for i in range(PARSE_DRAWS):
        d = 1 + i % 3
        lo = rng.randrange(-4, 3)
        hi = lo + rng.randrange(2, 10)
        n_sets = rng.randrange(1, 5)
        n_families = 1 + rng.randrange(2)
        spec = GenSpec(
            d=d,
            points_per_level=tuple(rng.randrange(min(6, hi - lo + 2)) for _ in range(d)),
            coord_range=(lo, hi),
            n_sets=n_sets,
            presence=Fraction(3, 4),
            max_width=rng.randrange(hi - lo + 1),
            seed=rng.randrange(2**31),
            n_families=n_families,
        )
        ground, families = gen_instance(spec)
        flat = [t for fam in families for t in fam]
        names = [f"S{j + 1}" for j in range(len(flat))]
        groups = None
        if n_families > 1:
            groups = [list(range(f * n_sets, (f + 1) * n_sets)) for f in range(n_families)]
        yield rng, json.loads(dump_instance(Instance(ground, flat, names, groups)))


def _spell(rng, literal):
    """The coordinate as written, padded with whitespace, as a scaled
    fraction, and for integers and quarters as a bare int or a decimal."""
    x = Fraction(literal)
    forms = [literal, f" {literal}", f"{literal} ", f"{x.numerator * 3}/{x.denominator * 3}"]
    if x.denominator == 1:
        forms += [x.numerator, f"{x.numerator}.0"]
    if x.denominator in (1, 2, 4):
        forms.append(f"{float(x):.2f}")
    return rng.choice(forms)


def _pieces(doc):
    return [(s, piece) for s in doc["sets"] for piece in s["levels"]]


def _respelled(rng, doc):
    for entry in doc["points"]:
        entry[0] = _spell(rng, entry[0])
    for _, piece in _pieces(doc):
        piece["lo"], piece["hi"] = _spell(rng, piece["lo"]), _spell(rng, piece["hi"])
    return doc


def _off_ground(rng, doc):
    # widen pieces past the ground, by halves ("7/2") or whole steps
    for _, piece in _pieces(doc):
        piece["lo"] = str(Fraction(piece["lo"]) - rng.choice((0, Fraction(1, 2), 3)))
        piece["hi"] = str(Fraction(piece["hi"]) + rng.choice((0, Fraction(1, 2), Fraction(5, 2))))
    return doc


def _missing(rng, doc):
    # one piece a set whose window holds no ground point: between two
    # ground points, past either end, or on a level without points
    for s in doc["sets"]:
        level = 1 + rng.randrange(doc["d"])
        coords = sorted(Fraction(c) for c, lvl in doc["points"] if lvl == level)
        gaps = [(a, b) for a, b in zip(coords, coords[1:]) if b - a > Fraction(1, 2)]
        if coords:
            gaps += [(coords[0] - 2, coords[0]), (coords[-1], coords[-1] + 2)]
        a, b = rng.choice(gaps) if gaps else (Fraction(0), Fraction(1))
        lo = a + (b - a) / 4
        hi = rng.choice((lo, a + (b - a) * 3 / 4))
        s["levels"] = [p for p in s["levels"] if p["level"] != level]
        s["levels"].append({"level": level, "lo": str(lo), "hi": str(hi)})
    return doc


def _broken(rng, doc):
    """(document, strict) for each way the base document can be made
    invalid, and lenient twins of the unknown-field cases."""
    d = doc["d"]
    edits = []
    unknown = [
        lambda x: x.__setitem__("extra", 1),
        lambda x: x["sets"][0].__setitem__("color", "red"),
    ]
    if doc["points"]:
        at = rng.randrange(len(doc["points"]))
        c, lvl = doc["points"][at]
        twin, slot = [_spell(rng, c), lvl], rng.randrange(len(doc["points"]) + 1)

        def point(slot, value):
            return lambda x: x["points"][at].__setitem__(slot, value)

        edits += [
            lambda x: x["points"].insert(slot, twin),
            point(0, rng.choice((True, False))),
            point(0, 2.5),
            point(0, rng.choice(("abc", "1/0", ""))),
            point(1, rng.choice((0, d + 1))),
            point(1, str(lvl)),
            lambda x: x["points"].__setitem__(at, [c]),
        ]
    pieces = _pieces(doc)
    if pieces:
        k = rng.randrange(len(pieces))
        lo, hi = Fraction(pieces[k][1]["lo"]), Fraction(pieces[k][1]["hi"])
        half = Fraction(1, 2)
        end = rng.choice(("lo", "hi"))

        def piece(j=k, **fields):
            return lambda x: _pieces(x)[j][1].update(fields)

        wide = [j for j, (_, p) in enumerate(pieces) if Fraction(p["lo"]) < Fraction(p["hi"])]
        if wide:
            # lo > hi with both endpoints on the ground
            j = rng.choice(wide)
            edits.append(piece(j, lo=pieces[j][1]["hi"], hi=pieces[j][1]["lo"]))
        edits += [
            # lo > hi with one or both endpoints off the ground
            piece(lo=str(hi + half)),
            piece(hi=str(lo - half)),
            piece(lo=str(hi + 1), hi=str(hi + half)),
            piece(**{end: rng.choice((True, False))}),
            piece(**{end: 0.5}),
            piece(**{end: "x/2"}),
            piece(level=rng.choice((0, d + 1))),
            lambda x: _pieces(x)[k][0]["levels"].append(dict(pieces[k][1])),
            lambda x: _pieces(x)[k][1].pop(end),
        ]
        unknown.append(piece(note="wide"))
    for edit in edits:
        yield _edited(doc, edit), True
    for edit in unknown:
        for strict in (True, False):
            yield _edited(doc, edit), strict


def _edited(doc, edit):
    copy = json.loads(json.dumps(doc))
    edit(copy)
    return copy


def _parse_documents():
    for rng, base in _parse_bases():
        yield base, True
        for build in (_respelled, _off_ground, _missing):
            yield build(rng, json.loads(json.dumps(base))), True
        yield _respelled(rng, _missing(rng, _off_ground(rng, json.loads(json.dumps(base))))), True
        yield from _broken(rng, base)


def _parse_outcome(doc, strict):
    try:
        inst, warnings = parse_instance(doc, strict)
    except SchemaError as exc:
        return ["SchemaError", exc.path, str(exc)]
    return [
        [[str(c) for c in level] for level in inst.ground.levels],
        [t.runs for t in inst.sets],
        inst.names,
        inst.families,
        warnings,
    ]


def test_instance_parses_match_the_golden_digest():
    outcomes = [_parse_outcome(doc, strict) for doc, strict in _parse_documents()]
    parsed = [o for o in outcomes if o[0] != "SchemaError"]
    messages = " ".join(o[2] for o in outcomes if o[0] == "SchemaError")
    # every refusal occurs, and so do warnings, empty runs and families
    for text in (
        "duplicate points", "> hi", "boolean", "floating-point", "not a rational",
        "outside [1,", "duplicate level", "unknown field", "expected an integer",
        "missing required field", "pair",
    ):
        assert text in messages, text
    assert any(o[4] for o in parsed) and any(o[3] for o in parsed)
    assert any(run is None for o in parsed for runs in o[1] for run in runs)
    assert _digest(outcomes) == GOLDEN["instance-parse"]
