"""Command-line front end.

Exit codes: 0 when the command ran and every asserted property held,
1 when a checked property failed or a certified invariant broke (the
report carries a witness), 2 for usage errors, schema errors, guard
overruns, and unmet preconditions.  0 or 1 is read off the report's
verdicts: the query ``dcollapse-oracle`` has none, so it exits 0.
"""

from __future__ import annotations

import argparse
import functools
import sys
import time
from fractions import Fraction

from .complexes import is_d_collapsible, nerve, sweep_collapse
from .errors import (
    GuardExceededError,
    PreconditionError,
    SchemaError,
    TheoremViolationError,
)
from .experiments import SUITES, run_suite
from .generators import (
    DRAW_CAP,
    ColorfulHellyProperty,
    GenSpec,
    KIntersectRich,
    PqProperty,
    gen_conditioned,
    gen_instance,
)
from .helly import (
    cfh_stats,
    colorful_helly_points,
    frac_helly_stats,
    helly_check,
    radon_number_bruteforce,
)
from .instances import Instance, dump_instance, parse_instance
from .piercing import PQ_KINDS, pierce_all, pq_check
from .rationals import parse_rational
from .reports import Report, emit_report


def _read_document(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _load_instance(args) -> Instance:
    text = _read_document(args.file)
    instance, warnings = parse_instance(text, strict=not args.lenient)
    for w in warnings:
        print(f"warning: {w}", file=sys.stderr)
    return instance


def _finish(report: Report, args) -> int:
    report.timing["seconds"] = round(time.perf_counter() - args._t0, 6)
    text = emit_report(report, args.format, args.out)
    if args.out:
        print(f"wrote {args.out}")
    else:
        sys.stdout.write(text)
    return 0 if report.passed else 1


def _report(args, parameters: dict, **sections) -> int:
    """Report on the input file, if any, named after the command, file first."""
    report = Report(args.command, {"file": getattr(args, "file", None), **parameters}, **sections)
    return _finish(report, args)


# ---------------------------------------------------------------------------
# handlers


def cmd_nerve(args) -> int:
    inst = _load_instance(args)
    K = nerve(inst.sets)
    return _report(
        args, {"sets": len(inst.sets), "d": inst.ground.d},
        statistics={
            "faces": len(K.faces),
            "dim": K.dim,
            "vertices": sorted(K.vertices),
        },
        witnesses={
            "faces": [sorted(f) for f in K.sorted_faces()],
            "names": {i + 1: name for i, name in enumerate(inst.names)},
        },
    )


def cmd_collapse(args) -> int:
    inst = _load_instance(args)
    result = sweep_collapse(inst.sets, strict=args.strict)
    final = result.sequence.replay()
    rows = [
        {
            "iteration": i,
            "pivot": sorted(it.pivot_face),
            "value": str(it.pivot_value),
            "mode": it.mode,
            "steps": len(it.steps),
        }
        for i, it in enumerate(result.iterations)
    ]
    return _report(
        args, {"strict": args.strict, "d": inst.ground.d},
        verdicts={"collapsed": final.is_terminal},
        statistics={
            "iterations": len(result.iterations),
            "steps": result.step_count,
            "max_free_face": max(
                (len(s.free_face) for s in result.sequence.steps), default=0
            ),
        },
        rows=rows,
    )


def cmd_dcollapse_oracle(args) -> int:
    inst = _load_instance(args)
    K = nerve(inst.sets)
    ok, witness = is_d_collapsible(K, args.bound)
    steps = None
    if witness is not None:
        steps = [
            {"free": sorted(s.free_face), "maximal": sorted(s.unique_maximal)}
            for s in witness.steps
        ]
    # query semantics: no verdict, so a negative answer still exits 0
    return _report(
        args, {"bound": args.bound},
        statistics={"collapsible": ok, "faces": len(K.faces)},
        witnesses={} if steps is None else {"sequence": steps},
    )


def cmd_radon(args) -> int:
    inst = _load_instance(args)
    cap = args.cap if args.cap is not None else 2 * inst.ground.d + 1
    number = radon_number_bruteforce(inst.ground, cap)
    return _report(
        args, {"cap": cap, "points": len(inst.ground)},
        statistics={"radon_number": number},
    )


def cmd_helly(args) -> int:
    inst = _load_instance(args)
    rep = helly_check(inst.sets, args.m, args.k)
    return _report(
        args, {"m": args.m, "k": args.k}, verdicts={"holds": rep.verdict},
        witnesses=rep.witnesses, statistics=rep.statistics,
    )


def cmd_colorful_helly(args) -> int:
    inst = _load_instance(args)
    families = inst.family_traces()
    designated = None
    if args.rotate is not None and families:
        designated = args.rotate % len(families)
    sel = colorful_helly_points(families, args.k, designated=designated)
    return _report(
        args, {"k": args.k, "families": len(families)},
        verdicts={"selected": True},
        witnesses={
            "points": sel.points,
            "designated": sel.designated,
            "minimizing_tuple": sel.minimizing_tuple,
            "minimum": sel.minimum,
        },
    )


def cmd_frac_helly(args) -> int:
    inst = _load_instance(args)
    rep = frac_helly_stats(inst.sets, args.k)
    return _report(
        args, {"k": args.k, "n": len(inst.sets)}, verdicts={"bound_holds": rep.verdict},
        witnesses=rep.witnesses, statistics=rep.statistics,
    )


def cmd_cfh(args) -> int:
    inst = _load_instance(args)
    rep = cfh_stats(inst.family_traces())
    return _report(
        args, {}, verdicts={"bound_holds": rep.verdict},
        witnesses=rep.witnesses, statistics=rep.statistics,
    )


def cmd_pierce(args) -> int:
    inst = _load_instance(args)
    res = pierce_all(inst.sets)
    return _report(
        args, {"n": len(inst.sets), "d": inst.ground.d},
        verdicts={"sandwich": True, "lp_certified": res.lp.certified},
        statistics={
            "tau": res.tau,
            "nu": res.nu,
            "tau_star": res.tau_star,
            "nu_star": res.nu_star,
        },
        witnesses={
            "piercing_points": res.piercing_points,
            "disjoint_subfamily": res.disjoint_subfamily,
            "matching_weights": res.lp.matching_weights,
            "transversal_weights": res.lp.transversal_weights,
        },
    )


def cmd_pq_check(args) -> int:
    inst = _load_instance(args)
    if args.kind == "plain":
        families = [inst.sets]
    else:
        families = inst.family_traces()
    ok, counterexample = pq_check(families, args.p, args.q, args.kind)
    return _report(
        args, {"p": args.p, "q": args.q, "kind": args.kind}, verdicts={"has_property": ok},
        witnesses={} if ok else {"counterexample": counterexample},
    )


def _ints(parts: list[str], message: str, count: int | None = None) -> list[int]:
    """The parts as ints, ``count`` of them if given; else a usage error."""
    try:
        values = [int(x) for x in parts]
    except ValueError:
        raise ValueError(message) from None
    if count is not None and len(values) != count:
        raise ValueError(message)
    return values


def _rational(text: str, message: str) -> Fraction:
    """The text as an exact rational; else a usage error."""
    try:
        return parse_rational(text)
    except ValueError:
        raise ValueError(message) from None


def _parse_predicate(text: str):
    head, *rest = text.split(":")
    if head == "colorful-helly":
        (k,) = _ints(rest, "--predicate expects colorful-helly:K with an integer K", 1)
        return ColorfulHellyProperty(k)
    if head == "pq":
        kind = rest.pop() if len(rest) == 3 else "plain"
        p, q = _ints(rest, "--predicate expects pq:P:Q[:KIND] with integers P and Q", 2)
        return PqProperty(p, q, kind)
    if head == "k-rich":
        message = "--predicate expects k-rich:K:ALPHA with an integer K"
        if len(rest) != 2:
            raise ValueError(message)
        (k,) = _ints(rest[:1], message)
        alpha = _rational(rest[1], "--predicate expects k-rich:K:ALPHA with a rational ALPHA")
        return KIntersectRich(k, alpha)
    raise ValueError(f"unknown predicate {head!r}")


def _parse_points(text: str, d: int):
    parts = _ints(text.split(","), "--points expects a count or a comma list of integer counts")
    if len(parts) == 1:
        return parts[0]
    if len(parts) != d:
        raise ValueError(f"points spec needs 1 or {d} counts")
    return tuple(parts)


def cmd_gen(args) -> int:
    coord_lo, coord_hi = _ints(
        args.range.split(":"), "--range expects LO:HI with integer bounds", 2
    )
    predicate = _parse_predicate(args.predicate) if args.predicate else None
    n_families = args.families
    if n_families is None:
        n_families = predicate.families_needed(args.d, args.sets) if predicate else 1
    spec = GenSpec(
        d=args.d,
        points_per_level=_parse_points(args.points, args.d),
        coord_range=(coord_lo, coord_hi),
        n_sets=args.sets,
        presence=_rational(args.presence, "--presence expects a rational probability, e.g. 1/2"),
        max_width=args.max_width if args.max_width is not None else coord_hi - coord_lo,
        seed=args.seed,
        n_families=n_families,
    )
    if predicate is None:
        ground, families = gen_instance(spec)
        draws = 1
    else:
        outcome = gen_conditioned(spec, predicate, cap_draws=args.cap)
        if not outcome.found:
            print(
                f"no instance with {predicate.name} in {outcome.draws} draws",
                file=sys.stderr,
            )
            return 1
        ground, families, draws = outcome.ground, outcome.families, outcome.draws
    flat = [t for fam in families for t in fam]
    names = [f"S{i + 1}" for i in range(len(flat))]
    groups = None
    if len(families) > 1:
        n = spec.n_sets
        groups = [list(range(i * n, (i + 1) * n)) for i in range(len(families))]
    inst = Instance(ground, flat, names, groups)
    text = dump_instance(inst)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
        print(f"wrote {args.out} after {draws} draw(s)")
    else:
        sys.stdout.write(text)
    return 0


def cmd_experiment(args) -> int:
    d_choices = None
    if args.d:
        d_choices = tuple(
            _ints(args.d.split(","), "--d expects a comma list of integer levels, e.g. 1,2,3")
        )
    report = run_suite(args.suite, trials=args.trials, seed=args.seed, d_choices=d_choices)
    return _finish(report, args)


# ---------------------------------------------------------------------------
# parser


def _add_io(sub, with_file: bool = True):
    if with_file:
        sub.add_argument("file", help="instance file path, or - for stdin")
        sub.add_argument(
            "--lenient",
            action="store_true",
            help="warn on unknown fields instead of rejecting them",
        )
    sub.add_argument("--out", help="write the report here instead of stdout")
    sub.add_argument(
        "--format", choices=("json", "csv"), default="json", help="report format"
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dintervals",
        description="check intersection properties of separated multi-level intervals",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    s = subs.add_parser("nerve", help="intersection complex of the sets")
    _add_io(s)

    s = subs.add_parser("collapse", help="run the sweep collapse")
    _add_io(s)
    s.add_argument(
        "--strict",
        action="store_true",
        help="abort when literal truncation disagrees with the collapse",
    )

    s = subs.add_parser(
        "dcollapse-oracle", help="backtracking collapsibility decision"
    )
    _add_io(s)
    s.add_argument("--bound", type=int, required=True, help="max free-face size")

    s = subs.add_parser("radon", help="brute-force partition threshold of the points")
    _add_io(s)
    s.add_argument("--cap", type=int, default=None, help="largest size to test")

    s = subs.add_parser("helly", help="m-wise implies all-wise intersection check")
    _add_io(s)
    s.add_argument("--m", type=int, required=True)
    s.add_argument("--k", type=int, default=1, help="levels the intersections must meet")

    s = subs.add_parser("colorful-helly", help="point selection across families")
    _add_io(s)
    s.add_argument("--k", type=int, default=1)
    s.add_argument(
        "--rotate",
        type=int,
        default=None,
        help=(
            "designated family index (mod family count); by default every "
            "family is tried and the one the minimizing tuple omits is reported"
        ),
    )

    s = subs.add_parser("frac-helly", help="fractional intersection statistics")
    _add_io(s)
    s.add_argument("--k", type=int, default=1)

    s = subs.add_parser("cfh", help="colorful fractional statistics over 2d families")
    _add_io(s)

    s = subs.add_parser("pierce", help="exact and fractional piercing numbers")
    _add_io(s)

    s = subs.add_parser("pq-check", help="exhaustive (p,q) property test")
    _add_io(s)
    s.add_argument("--p", type=int, required=True)
    s.add_argument("--q", type=int, required=True)
    s.add_argument("--kind", choices=PQ_KINDS, default="plain")

    s = subs.add_parser("gen", help="emit a seeded random instance file")
    s.add_argument("--d", type=int, required=True)
    s.add_argument("--points", default="4", help="count, or comma list per level")
    s.add_argument("--range", default="0:10", help="coordinate range LO:HI")
    s.add_argument("--sets", type=int, default=4, help="sets per family")
    s.add_argument("--presence", default="1", help="per-level presence probability")
    s.add_argument("--max-width", type=int, default=None, dest="max_width")
    s.add_argument("--seed", type=int, default=7)
    s.add_argument("--families", type=int, default=None)
    s.add_argument(
        "--predicate",
        default=None,
        help="colorful-helly:K | pq:P:Q[:KIND] | k-rich:K:ALPHA",
    )
    s.add_argument("--cap", type=int, default=DRAW_CAP, help="rejection-sampling draw cap")
    s.add_argument("--out", help="instance file to write; stdout otherwise")

    s = subs.add_parser("experiment", help="run a seeded corpus suite")
    s.add_argument("--suite", choices=sorted(SUITES), required=True)
    s.add_argument("--trials", type=int, default=None)
    s.add_argument("--seed", type=int, default=7)
    s.add_argument("--d", default=None, help="comma list of levels, e.g. 1,2,3")
    _add_io(s, with_file=False)

    return parser


# the cached parser only names the command: handlers are looked up here
# on every call, so a handler rewrapped in this table (bench/tracer.py
# does so) takes effect
_HANDLERS = {
    "nerve": cmd_nerve,
    "collapse": cmd_collapse,
    "dcollapse-oracle": cmd_dcollapse_oracle,
    "radon": cmd_radon,
    "helly": cmd_helly,
    "colorful-helly": cmd_colorful_helly,
    "frac-helly": cmd_frac_helly,
    "cfh": cmd_cfh,
    "pierce": cmd_pierce,
    "pq-check": cmd_pq_check,
    "gen": cmd_gen,
    "experiment": cmd_experiment,
}


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built on first use and reused by every later call."""
    return build_parser()


def run_command(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    args._t0 = time.perf_counter()
    try:
        try:
            return _HANDLERS[args.command](args)
        except TheoremViolationError as exc:
            print(f"violation: {exc}", file=sys.stderr)
            witnesses = {"violation": str(exc), "diagnostics": exc.diagnostics}
            return _report(args, {}, verdicts={"no_violation": False}, witnesses=witnesses)
    except (SchemaError, GuardExceededError, PreconditionError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()
