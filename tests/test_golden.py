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
changed.  Generator output (plain instances, conditioned outcomes and the
files ``dintervals gen`` writes) is digested too: the seeded streams define
every corpus, so a faster generator must reproduce them exactly.
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
    KIntersectRich,
    PqProperty,
    TheoremViolationError,
    cfh_stats,
    colorful_helly_points,
    gen_conditioned,
    gen_instance,
    is_d_collapsible,
    nerve,
    pq_check,
    sweep_collapse,
)
from dintervals import experiments
from dintervals.cli import run_command
from dintervals.experiments import run_suite
from helpers import random_ground, random_trace

FAMILIES = 102
COLORFUL_INSTANCES = 1500

GOLDEN = {
    "sweep": (
        "44d9c0a1b3a679da0deb5c9d2350f05a"
        "ea302ec85a509f26f81dc6019b39fd39"
    ),
    "oracle-bound-1": (
        "b5d371a88af1198320265dcc38c68386"
        "d83814ed3b42b59b9cb578210a5186f3"
    ),
    "oracle-bound-2d-1": (
        "fc64fc6cb1e7c54135eb13ef22675669"
        "ad985d0de5ebf9ca9c1a778aefa45287"
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


def _canonical_outputs():
    sweeps, bound_1, bound_top = [], [], []
    modes = set()
    for d, fam in _families():
        res = sweep_collapse(fam)
        sweeps.append(
            [
                [
                    sorted(it.pivot_face),
                    [None if c is None else str(c) for c in it.pivot_value.components],
                    it.mode,
                    _steps(it.steps),
                ]
                for it in res.iterations
            ]
        )
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
