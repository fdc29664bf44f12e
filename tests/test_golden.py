"""Golden digests of collapse output.

Each digest is the sha256 of a canonical JSON rendering: step order is
kept, every face is a sorted label list and every removal set a sorted
list of faces.  A refactor of the collapse search, the sweep or the
piercing pipeline must leave every digest unchanged; a digest that moves
means an answer, a witness or a report changed.
"""

import hashlib
import json
import random

from dintervals import is_d_collapsible, nerve, sweep_collapse
from dintervals.experiments import run_suite
from helpers import random_ground, random_trace

FAMILIES = 102

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
}


def _digest(value) -> str:
    text = json.dumps(value, sort_keys=True, separators=(",", ":"))
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
