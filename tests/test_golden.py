"""Golden digests of collapse and colorful-tuple output.

Each digest is the sha256 of a canonical JSON rendering: step order is
kept, every face is a sorted label list and every removal set a sorted
list of faces; coordinates are rendered as exact strings.  A refactor of
the collapse search, the sweep, the piercing pipeline or the colorful
tuple enumeration must leave every digest unchanged; a digest that moves
means an answer, a witness or a report changed.
"""

import hashlib
import json
import random

from dintervals import (
    ColorfulHellyProperty,
    DIntervalError,
    cfh_stats,
    colorful_helly_points,
    is_d_collapsible,
    nerve,
    pq_check,
    sweep_collapse,
)
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


def test_suite_reports_match_the_golden_digests():
    for suite in ("collapse", "oracle-agreement", "pierce"):
        text = run_suite(suite).json_text(include_timing=False)
        assert hashlib.sha256(text.encode()).hexdigest() == GOLDEN[f"suite-{suite}"], suite


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
