"""Acceptance gate: ten criteria, one printed verdict line each.

Each test runs the corresponding seeded corpus suite (plus any pinned
exact instances) and prints a [PASS]/[FAIL] line before asserting, so
the gate is readable straight off the pytest output.
"""

import time
from fractions import Fraction

import conftest

from dintervals import (
    DInterval,
    PointSet,
    is_d_collapsible,
    pierce_all,
    piercing_bound_check,
    trace_of,
)
from dintervals.experiments import run_suite
from helpers import closed_complex


def gate(num: int, ok: bool, text: str) -> None:
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {text}"
    print(line, flush=True)
    conftest.GATE_LINES.append(line)
    assert ok, line


def triangle_triple():
    P = PointSet(
        2,
        (
            tuple(Fraction(c) for c in (0, 1, 2, 4, 5)),
            tuple(Fraction(c) for c in (0, 1, 2, 3)),
        ),
    )
    mk = lambda pairs: trace_of(DInterval.from_pairs(2, pairs), P)
    a = mk({1: (0, 1), 2: (0, 1)})
    b = mk({1: (1, 2), 2: (2, 3)})
    c = mk({1: (4, 5), 2: (1, 2)})
    return [a, b, c]


def test_criterion_01_sweep_collapse_corpus():
    t0 = time.perf_counter()
    report = run_suite("collapse", trials=1000, seed=7)
    elapsed = time.perf_counter() - t0
    ok = report.passed and report.statistics["failures"] == 0 and elapsed < 60.0
    gate(
        1,
        ok,
        f"1000 sweeps, {report.statistics['failures']} failures, "
        f"modes {report.statistics['modes']}, {elapsed:.1f}s",
    )


def test_criterion_02_radon_partitions_and_number():
    report = run_suite("radon", trials=40, seed=7)
    numbers = sorted({row.get("radon_number") for row in report.rows if row["ok"]})
    ok = report.passed and all(
        row["radon_number"] == 2 * row["d"] + 1 for row in report.rows if row["ok"]
    )
    gate(2, ok, f"40 grounds, every (2d+1)-subset split, numbers {numbers}")


def test_criterion_03_helly_number_both_directions():
    report = run_suite("helly", trials=300, seed=7)
    ok = (
        report.verdicts["helly_at_2d"]
        and report.verdicts["lower_bound_at_2d_minus_1"]
    )
    gate(3, ok, "300 trials: holds at 2d, generator family violates at 2d-1")


def test_criterion_04_colorful_point_selection():
    report = run_suite("colorful-helly", trials=200, seed=7)
    cells = {(r["d"], r["k"]): r for r in report.rows}
    ok = (
        report.passed
        and len(cells) == 6
        and all(r["found"] >= 200 and r["violations"] == 0 for r in cells.values())
    )
    found = {f"d{d}k{k}": r["found"] for (d, k), r in sorted(cells.items())}
    gate(4, ok, f"per-cell counts {found}, zero violations")


def test_criterion_05_fractional_bounds_exact():
    report = run_suite("frac-helly", trials=500, seed=7)
    ok = (
        report.verdicts["fractional_bound"]
        and report.verdicts["colorful_fractional_bound"]
    )
    gate(5, ok, "500 trials per d: plain and colorful fractional bounds exact")


def test_criterion_06_maxima_witness_contracts():
    report = run_suite("maxima-witness", trials=300, seed=7)
    ok = report.passed and report.statistics["found"] >= 300
    gate(
        6,
        ok,
        f"{report.statistics['found']} k-intersecting families, "
        "witness matches brute force",
    )


def test_criterion_07_lp_duality_and_the_triple():
    report = run_suite("pierce", trials=250, seed=7)
    res = pierce_all(triangle_triple())
    triple_ok = (
        res.tau == 2
        and res.nu == 1
        and res.tau_star == Fraction(3, 2)
        and res.nu_star == Fraction(3, 2)
    )
    ok = report.passed and report.statistics["solved"] >= 200 and triple_ok
    gate(
        7,
        ok,
        f"{report.statistics['solved']} instances certified, "
        "triple gives tau=2 nu=1 tau*=nu*=3/2",
    )


def test_criterion_08_piercing_bound_with_tight_triple():
    report = run_suite("piercing-bound", trials=200, seed=7, d_choices=(2, 3))
    tight_ok, tau, nu = piercing_bound_check(triangle_triple())
    ok = report.passed and tight_ok and (tau, nu) == (2, 1) and tau == 2 * nu
    gate(8, ok, f"zero violations for d in (2,3); triple tight at {tau} = 2*{nu}")


def test_criterion_09_collapsibility_oracle():
    hollow = closed_complex([[1, 2], [2, 3], [1, 3]])
    no_1, wit_1 = is_d_collapsible(hollow, 1)
    yes_2, wit_2 = is_d_collapsible(hollow, 2)
    triangle_ok = (
        not no_1
        and wit_1 is None
        and yes_2
        and wit_2 is not None
        and wit_2.replays_to_empty()
    )
    report = run_suite("oracle-agreement", trials=100, seed=7)
    ok = triangle_ok and report.passed
    gate(9, ok, "hollow triangle split 1/2; oracle agrees with sweep on 100 nerves")


def test_criterion_10_reproducible_reports():
    first = run_suite("helly", trials=40, seed=13)
    second = run_suite("helly", trials=40, seed=13)
    ok = (
        first.json_text(include_timing=False) == second.json_text(include_timing=False)
        and first.csv_text() == second.csv_text()
    )
    gate(10, ok, "same seed twice: reports byte-identical outside timing")
