"""Seeded corpus experiments: one function per suite.

Every suite draws its own per-trial parameters from a named stream, so
a (suite, seed, trials) triple pins the corpus exactly.  Suites return
a Report whose verdicts say whether the property under test survived
the whole corpus; witnesses carry the first failure in full.  Every
suite builds its header and draws its trials through shared helpers,
and every failure goes through one that counts it in the report's
statistics and keeps the first witness; collapse, radon, pierce and
maxima-witness reach it through a block that marks each row ok or not.
A guard overrun is never a failed trial: it propagates from every suite.
"""

from __future__ import annotations

import itertools
import random
from contextlib import contextmanager
from fractions import Fraction

from .complexes import is_d_collapsible, nerve, sweep_collapse
from .errors import (
    DIntervalError,
    GuardExceededError,
    PreconditionError,
    SweepInvariantError,
    TheoremViolationError,
)
from .generators import (
    ColorfulHellyProperty,
    GenSpec,
    gen_conditioned,
    gen_family,
    gen_ground,
    gen_helly_lower_bound,
    gen_instance,
    gen_radon_lower_bound,
)
from .geometry import _joint, _levels, _runs, _sweep_key
from .helly import (
    cfh_stats,
    colorful_helly_points,
    frac_helly_stats,
    helly_check,
    maxima_witness_subfamily,
    radon_number_bruteforce,
    radon_partition,
)
from .piercing import (
    blow_up,
    max_point_cover,
    pierce_all,
    piercing_bound_check,
    pq_check,
)
from .reports import Report

PRESENCES = (Fraction(1, 2), Fraction(3, 4), Fraction(1))


def _spec_seed(seed: int, t: int) -> int:
    return seed * 1_000_003 + t


def _random_spec(
    rng: random.Random,
    seed: int,
    t: int,
    d: int,
    n_lo: int = 2,
    n_hi: int = 8,
    pts_lo: int = 0,
    pts_hi: int = 6,
    n_families: int = 1,
    full_presence: bool = False,
) -> GenSpec:
    hi = rng.randrange(8, 16)
    pts = tuple(rng.randrange(pts_lo, pts_hi + 1) for _ in range(d))
    presence = Fraction(1) if full_presence else PRESENCES[rng.randrange(len(PRESENCES))]
    return GenSpec(
        d=d,
        points_per_level=pts,
        coord_range=(0, hi),
        n_sets=rng.randrange(n_lo, n_hi + 1),
        presence=presence,
        max_width=rng.randrange(hi + 1),
        seed=_spec_seed(seed, t),
        n_families=n_families,
    )


# ---------------------------------------------------------------------------
# the shared driver


def _new_report(suite: str, trials: int, seed: int, d_choices, *counts: str) -> Report:
    return Report(
        "experiment",
        {"suite": suite, "trials": trials, "d": list(d_choices)},
        statistics=dict.fromkeys(counts, 0),
        seed=seed,
        rows=[],
    )


def _fail(report: Report, count: str, witness: str, value) -> None:
    """Counts one failure and keeps the first one's witness."""
    report.statistics[count] += 1
    report.witnesses.setdefault(witness, value)


def _trials(seed: int, stream: str, count: int, d_choices=None):
    """(t, rng, d) per trial: the trial's own RNG on the suite's stream
    and the d it draws first; d is None where the suite fixes d itself."""
    for t in range(count):
        rng = random.Random(f"{seed}:{stream}:{t}")
        d = None if d_choices is None else d_choices[rng.randrange(len(d_choices))]
        yield t, rng, d


@contextmanager
def _row(report: Report, row: dict, errors: tuple[type[Exception], ...], key: str = "trial"):
    """Marks the row ok, or not ok with the error when the block raises
    one of ``errors`` but not a guard overrun, counting it as a failure
    keyed by ``row[key]``; then appends the row."""
    row["ok"] = True
    try:
        yield
    except GuardExceededError:
        raise
    except errors as exc:
        row["ok"] = False
        row["error"] = str(exc)
        _fail(report, "failures", "first_failure", {key: row[key], "error": row["error"]})
    report.rows.append(row)


# ---------------------------------------------------------------------------
# suites


def collapse_suite(trials: int = 1000, seed: int = 7, d_choices=(1, 2, 3)) -> Report:
    report = _new_report("collapse", trials, seed, d_choices, "failures")
    mode_totals = {"delete": 0, "truncate": 0, "star": 0}
    errors = (SweepInvariantError, TheoremViolationError, ValueError)
    for t, rng, d in _trials(seed, "collapse", trials, d_choices):
        _, family = gen_family(_random_spec(rng, seed, t, d))
        row = {"trial": t, "d": d, "n": len(family)}
        with _row(report, row, errors):
            result = sweep_collapse(family)
            final = result.sequence.replay()
            if not final.is_terminal:
                raise TheoremViolationError("replay did not reach the empty complex")
            for it in result.iterations:
                mode_totals[it.mode] += 1
            row["steps"] = result.step_count
            row["iterations"] = len(result.iterations)
    report.statistics["modes"] = mode_totals
    report.verdicts["all_sweeps_succeed"] = not report.statistics["failures"]
    return report


def radon_suite(trials: int = 40, seed: int = 7, d_choices=(1, 2, 3)) -> Report:
    # grounds take min(4, 12 // d) ≥ 2 points per level
    if any(not 1 <= d <= 6 for d in d_choices):
        raise ValueError("the radon suite supports d from 1 to 6")
    report = _new_report("radon", trials, seed, d_choices, "failures")
    for t, rng, d in _trials(seed, "radon", trials, d_choices):
        per_level = min(4, 12 // d)
        spec = _random_spec(
            rng, seed, t, d, n_lo=0, n_hi=0, pts_lo=2, pts_hi=per_level
        )
        ground = gen_ground(spec)
        row = {"trial": t, "d": d, "points": len(ground)}
        with _row(report, row, (DIntervalError, ValueError)):
            for subset in itertools.combinations(ground.points(), 2 * d + 1):
                part = radon_partition(ground, subset)
                if part is None or not part.verify(ground):
                    raise TheoremViolationError(
                        "a (2d+1)-subset lacks a verified partition",
                        diagnostics={"subset": subset},
                    )
            gen_radon_lower_bound(ground)
            number = radon_number_bruteforce(ground, 2 * d + 1)
            if number != 2 * d + 1:
                raise TheoremViolationError(
                    f"brute-force number {number} != {2 * d + 1}"
                )
            row["radon_number"] = number
    report.verdicts["radon_number_everywhere"] = not report.statistics["failures"]
    return report


def helly_suite(trials: int = 300, seed: int = 7, d_choices=(1, 2, 3)) -> Report:
    report = _new_report("helly", trials, seed, d_choices, "violations", "lower_bound_misses")
    for t, rng, d in _trials(seed, "helly", trials, d_choices):
        spec = _random_spec(rng, seed, t, d, n_lo=2, n_hi=10, pts_lo=2, pts_hi=6)
        ground, family = gen_family(spec)
        row = {"trial": t, "d": d, "n": len(family)}
        check = helly_check(family, 2 * d, 1)
        row["helly_2d_ok"] = check.verdict
        if not check.verdict:
            first = {"trial": t, "witnesses": check.witnesses}
            _fail(report, "violations", "first_violation", first)
        lb = gen_helly_lower_bound(ground)
        lb_check = helly_check(lb, 2 * d - 1, 1)
        row["lower_bound_violates"] = not lb_check.verdict
        if lb_check.verdict:
            report.statistics["lower_bound_misses"] += 1
        report.rows.append(row)
    report.verdicts["helly_at_2d"] = not report.statistics["violations"]
    report.verdicts["lower_bound_at_2d_minus_1"] = not report.statistics["lower_bound_misses"]
    return report


def colorful_suite(trials: int = 200, seed: int = 7, d_choices=(1, 2, 3)) -> Report:
    """Per (d, k ≤ d): rejection-sample instances with the colorful
    property, at most 500 draws each, then run the point selection on
    each."""
    # at d = 6 the (6, 6) cell finds too few samples in its attempts
    if any(not 1 <= d <= 5 for d in d_choices):
        raise ValueError("the colorful-helly suite supports d from 1 to 5")
    report = _new_report("colorful-helly", trials, seed, d_choices)
    all_ok = True
    for d in d_choices:
        for k in range(1, d + 1):
            found = 0
            violations = 0
            attempts = 0
            for attempt, rng, _ in _trials(seed, f"colorful:{d}:{k}", trials * 200):
                attempts += 1
                # narrow ground and wide windows keep the acceptance rate
                # workable; the hardest cell gets singleton families
                hard = d == 3 and k == 3
                hi = rng.randrange(2, 5) if hard else rng.randrange(3, 7)
                n_hi = 3 if d == 1 else (1 if hard else 2)
                spec = GenSpec(
                    d=d,
                    points_per_level=tuple(
                        rng.randrange(2, 4) for _ in range(d)
                    ),
                    coord_range=(0, hi),
                    n_sets=rng.randrange(1, n_hi + 1),
                    presence=Fraction(1),
                    max_width=hi,
                    seed=_spec_seed(seed, attempt),
                    n_families=2 * d - k + 1,
                )
                outcome = gen_conditioned(spec, ColorfulHellyProperty(k), cap_draws=500)
                if not outcome.found:
                    continue
                found += 1
                try:
                    colorful_helly_points(outcome.families, k)
                except (TheoremViolationError, PreconditionError) as exc:
                    violations += 1
                    report.witnesses.setdefault(
                        "first_violation",
                        {"d": d, "k": k, "attempt": attempt, "error": str(exc)},
                    )
                if found == trials:
                    break
            ok = violations == 0 and found >= trials
            all_ok = all_ok and ok
            report.rows.append(
                {
                    "d": d,
                    "k": k,
                    "found": found,
                    "attempts": attempts,
                    "violations": violations,
                    "ok": ok,
                }
            )
    report.verdicts["colorful_points_everywhere"] = all_ok
    return report


def frac_suite(trials: int = 500, seed: int = 7, d_choices=(1, 2, 3)) -> Report:
    # trials draw 2d to 9 sets
    if any(not 1 <= d <= 4 for d in d_choices):
        raise ValueError("the frac-helly suite supports d from 1 to 4")
    report = _new_report("frac-helly", trials, seed, d_choices, "frac_violations", "cfh_violations")
    for d in d_choices:
        for t, rng, _ in _trials(seed, f"frac:{d}", trials):
            spec = _random_spec(rng, seed, t, d, n_lo=2 * d, n_hi=9, pts_lo=2, pts_hi=5)
            ground, family = gen_family(spec)
            row = {"d": d, "trial": t, "n": len(family), "ok": True}
            for k in range(1, d + 1):
                stats = frac_helly_stats(family, k)
                if not stats.verdict:
                    row["ok"] = False
                    first = {"d": d, "k": k, "trial": t, "stats": stats.statistics}
                    _fail(report, "frac_violations", "first_frac_violation", first)
            cspec = _random_spec(
                rng, seed, t, d, n_lo=1, n_hi=3, pts_lo=2, pts_hi=5,
                n_families=2 * d,
            )
            _, families = gen_instance(cspec)
            cstats = cfh_stats(families)
            if not cstats.verdict:
                row["ok"] = False
                first = {"d": d, "trial": t, "stats": cstats.statistics}
                _fail(report, "cfh_violations", "first_cfh_violation", first)
            report.rows.append(row)
    report.verdicts["fractional_bound"] = not report.statistics["frac_violations"]
    report.verdicts["colorful_fractional_bound"] = not report.statistics["cfh_violations"]
    return report


def _pierce_family(rng: random.Random, seed: int, t: int, d: int, n_lo: int = 2) -> list:
    """A full-presence draw of n_lo to 8 sets, its empty members dropped."""
    spec = _random_spec(
        rng, seed, t, d, n_lo=n_lo, n_hi=8, pts_lo=2, pts_hi=6, full_presence=True
    )
    return [s for s in gen_family(spec)[1] if not s.is_empty]


def pierce_suite(trials: int = 220, seed: int = 7, d_choices=(1, 2, 3)) -> Report:
    report = _new_report("pierce", trials, seed, d_choices, "failures")
    for t, rng, d in _trials(seed, "pierce", trials, d_choices):
        family = _pierce_family(rng, seed, t, d)
        if len(family) < 2:
            report.rows.append({"trial": t, "d": d, "skipped": True})
            continue
        row = {"trial": t, "d": d, "n": len(family)}
        with _row(report, row, (DIntervalError, ValueError)):
            res = pierce_all(family)
            row.update(tau=res.tau, nu=res.nu, tau_star=res.tau_star)
            mult = [rng.randrange(0, 4) for _ in family]
            total = sum(mult)
            if total >= 1:
                cover, _ = max_point_cover(blow_up(family, mult))
                # cover ≥ total/ν*  ⇔  cover·ν* ≥ total, exactly
                if cover * res.nu_star < total:
                    raise TheoremViolationError(
                        "blow-up cover below the fractional pigeonhole",
                        diagnostics={"cover": cover, "total": total},
                    )
    report.statistics.update(
        blowup_failures=0, solved=sum("tau" in row for row in report.rows)
    )
    report.verdicts["duality_and_sandwich"] = not report.statistics["failures"]
    return report


def bound_suite(trials: int = 200, seed: int = 7, d_choices=(2, 3)) -> Report:
    report = _new_report("piercing-bound", trials, seed, d_choices, "violations")
    for t, rng, d in _trials(seed, "bound", trials, d_choices):
        family = _pierce_family(rng, seed, t, d)
        if len(family) < 2:
            report.rows.append({"trial": t, "d": d, "skipped": True})
            continue
        ok, tau, nu = piercing_bound_check(family)
        if not ok:
            first = {"trial": t, "d": d, "tau": tau, "nu": nu}
            _fail(report, "violations", "first_violation", first)
        report.rows.append({"trial": t, "d": d, "tau": tau, "nu": nu, "ok": ok})
    report.verdicts["piercing_bound"] = not report.statistics["violations"]
    return report


def pq_suite(trials: int = 100, seed: int = 7, d_choices=(1, 2, 3)) -> Report:
    """Families with the (p,2) property: the observed τ per (d,p) is
    reported; no closed-form ceiling is asserted."""
    report = _new_report("pq", trials, seed, d_choices)
    max_tau: dict[str, int] = {}
    for t, rng, d in _trials(seed, "pq", trials, d_choices):
        p = rng.randrange(3, 6)
        family = _pierce_family(rng, seed, t, d, n_lo=p)
        if len(family) < p:
            continue
        ok, _ = pq_check([family], p, 2, "plain")
        if not ok:
            continue
        tau = pierce_all(family).tau
        key = f"d={d},p={p}"
        max_tau[key] = max(max_tau.get(key, 0), tau)
        report.rows.append({"trial": t, "d": d, "p": p, "tau": tau})
    report.statistics.update(examined=len(report.rows), max_tau=max_tau)
    report.verdicts["measured"] = True
    return report


def witness_suite(trials: int = 300, seed: int = 7, d_choices=(1, 2, 3)) -> Report:
    report = _new_report("maxima-witness", trials, seed, d_choices, "failures")
    attempts = 0
    for attempt, rng, d in _trials(seed, "witness", trials * 60, d_choices):
        attempts += 1
        k = rng.randrange(1, d + 1)
        spec = _random_spec(
            rng, seed, attempt, d, n_lo=2, n_hi=7, pts_lo=2, pts_hi=6,
            full_presence=True,
        )
        _, family = gen_family(spec)
        runs = _runs(family)
        joint = _joint(runs) if runs else None
        if _levels(joint) < k:
            continue
        row = {"attempt": attempt, "d": d, "k": k, "n": len(family)}
        with _row(report, row, (DIntervalError, ValueError), key="attempt"):
            indices = maxima_witness_subfamily(family, k)
            target = _sweep_key(joint)
            bound = 2 * d - k
            if len(indices) > bound:
                raise TheoremViolationError("witness too large")
            # oracle: some subfamily within the size bound has the same
            # sweep key, which over one ground is the same sweep value
            empty = (None,) * d
            if not any(
                _sweep_key(_joint(runs[j] for j in idx) or empty) == target
                for size in range(1, min(bound, len(family)) + 1)
                for idx in itertools.combinations(range(len(family)), size)
            ):
                raise TheoremViolationError("brute force finds no witness at all")
            row["size"] = len(indices)
        if len(report.rows) == trials:
            break
    found = len(report.rows)
    report.statistics.update(found=found, attempts=attempts)
    report.verdicts["witness_contracts"] = not report.statistics["failures"] and found >= trials
    return report


def oracle_suite(trials: int = 100, seed: int = 7, d_choices=(1, 2)) -> Report:
    report = _new_report("oracle-agreement", trials, seed, d_choices, "disagreements")
    for t, rng, d in _trials(seed, "oracle", trials, d_choices):
        spec = _random_spec(rng, seed, t, d, n_lo=2, n_hi=5, pts_lo=1, pts_hi=5)
        _, family = gen_family(spec)
        row = {"trial": t, "d": d, "n": len(family)}
        K = nerve(family)
        sweep_ok = True
        try:
            result = sweep_collapse(family)
            sweep_ok = result.sequence.replay().is_terminal
        except DIntervalError:
            sweep_ok = False
        collapsible, witness = is_d_collapsible(K, 2 * d - 1)
        if witness is not None and not witness.replays_to_empty():
            collapsible = False
        row.update(sweep_ok=sweep_ok, oracle=collapsible)
        if sweep_ok != collapsible:
            _fail(report, "disagreements", "first_disagreement", row)
        report.rows.append(row)
    report.verdicts["oracle_agrees_with_sweep"] = not report.statistics["disagreements"]
    return report


SUITES = {
    "collapse": collapse_suite,
    "radon": radon_suite,
    "helly": helly_suite,
    "colorful-helly": colorful_suite,
    "frac-helly": frac_suite,
    "pierce": pierce_suite,
    "piercing-bound": bound_suite,
    "pq": pq_suite,
    "maxima-witness": witness_suite,
    "oracle-agreement": oracle_suite,
}


def run_suite(name: str, trials: int | None = None, seed: int = 7, d_choices=None) -> Report:
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {sorted(SUITES)}")
    fn = SUITES[name]
    kwargs = {"seed": seed}
    if trials is not None:
        if trials < 1:
            raise ValueError("trials must be ≥ 1")
        kwargs["trials"] = trials
    if d_choices is not None:
        if any(d < 1 for d in d_choices):
            raise ValueError("d must be ≥ 1")
        kwargs["d_choices"] = tuple(d_choices)
    return fn(**kwargs)
