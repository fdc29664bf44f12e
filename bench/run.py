"""Benchmark entry point.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  The program is imported from ``src/``.
With ``--trace 0`` the workload builds one pass of items from the seed
and runs whole passes over them in a closed loop (each item starts when
the previous one has ended) until the items have taken ``--seconds``;
times are scaled to reference speed (``calibration``), each item's time
is its median over the passes, and the end-to-end metrics are printed.
With ``--trace 1`` a fixed number of rounds runs once untraced and once
under the tracer, and the per-layer metrics are printed.  The last line
of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import array
import contextlib
import gc
import hashlib
import importlib
import json
import math
import os
import resource
import statistics
import sys
import time
import traceback

import calibration

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

SETUP_REPEATS = (5, 6)  # set-ups before and after the measured passes
TAIL_LADDER = (99.0, 95.0, 90.0, 75.0)


class Layers:
    """The program's modules, reached by layer name."""

    def __init__(self, modules):
        self.modules = modules
        for name, module in modules.items():
            setattr(self, name.rpartition(".")[2], module)


def fresh_import() -> Layers:
    """Import ``dintervals`` from scratch, dropping any earlier copy, so
    that every set-up repetition pays for the import."""
    for name in [n for n in sys.modules if n == "dintervals" or n.startswith("dintervals.")]:
        del sys.modules[name]
    import tracer

    for layer in tracer.LAYERS:
        importlib.import_module(f"dintervals.{layer}")
    package = sys.modules["dintervals"]
    if not os.path.abspath(package.__file__).startswith(SRC + os.sep):
        raise ImportError(f"dintervals imported from {package.__file__}, not {SRC}")
    return Layers({n: m for n, m in sys.modules.items() if n.startswith("dintervals")})


def setup(workload_cls, seed, repeats):
    """Set-up times, at reference speed, of ``repeats`` set-ups; returns
    the last workload."""
    scaler, scaled = calibration.Scaler(), {}
    for n in range(repeats):
        t0 = time.perf_counter()
        workload = workload_cls(seed, fresh_import(), ROOT)
        scaler.add(n, time.perf_counter() - t0, scaled)
    scaler.flush(scaled)
    return workload, [t for n in range(repeats) for t in scaled[n]]


class Tally:
    def __init__(self, spool_path):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []   # wrong outputs
        self.errors: list[str] = []     # operations that raised
        # deferred checks go to a file, so their inputs do not grow the
        # process with the number of items done
        self.spool_path = spool_path
        self.spool = open(spool_path, "w", encoding="utf-8")


def run_rounds(workload, tally, rounds, on_check=contextlib.nullcontext):
    """Run ``rounds`` rounds, checking each output; returns item times."""
    times = array.array("d")
    for r in range(rounds):
        for kind, payload in workload.make_round(r):
            tally.attempted += 1
            t0 = time.perf_counter()
            try:
                out = workload.run(kind, payload)
            except Exception:  # a failed operation is counted, not fatal
                tally.failed += 1
                tally.errors.append(f"{kind} raised:\n{traceback.format_exc()}")
                continue
            times.append(time.perf_counter() - t0)
            with on_check():
                tally.problems.extend(f"{kind}: {p}" for p in workload.check(kind, payload, out))
                record = workload.deferred(kind, payload, out)
                if record is not None:
                    tally.spool.write(record + "\n")
    return times


def run_passes(workload, tally, seconds):
    """Whole passes over one fixed set of items, as many as bring item
    time nearest to ``seconds``.  The first pass's outputs are checked
    against the oracles; every later pass must give the same outputs.
    Returns each item's median time over the passes at reference speed
    (None for an item that raised), each pass's raw item time, and the
    speed factors applied."""
    items = [item for r in range(workload.pass_rounds) for item in workload.make_round(r)]
    prints: list = [None] * len(items)
    pass_times: list = []
    scaler, scaled = calibration.Scaler(), {}
    while not pass_times or sum(pass_times) * (1 + 0.5 / len(pass_times)) < seconds:
        passes = len(pass_times)
        pass_times.append(0.0)
        for i, (kind, payload) in enumerate(items):
            tally.attempted += 1
            t0 = time.perf_counter()
            try:
                out = workload.run(kind, payload)
            except Exception:  # a failed operation is counted, not fatal
                tally.failed += 1
                if passes == 0:
                    tally.errors.append(f"{kind} raised:\n{traceback.format_exc()}")
                continue
            dt = time.perf_counter() - t0
            pass_times[-1] += dt
            scaler.add(i, dt, scaled)
            digest = hashlib.blake2b(workload.fingerprint(kind, out).encode()).digest()
            if passes == 0:
                prints[i] = digest
                tally.problems.extend(f"{kind}: {p}" for p in workload.check(kind, payload, out))
                record = workload.deferred(kind, payload, out)
                if record is not None:
                    tally.spool.write(record + "\n")
            elif digest != prints[i]:
                tally.problems.append(f"{kind}: item {i} gave another output in pass {passes}")
    scaler.flush(scaled)
    medians = [statistics.median(scaled[i]) if i in scaled else None for i in range(len(items))]
    return medians, pass_times, scaler.factors


def run_deferred(tally):
    import oracles

    tally.spool.close()
    with open(tally.spool_path, encoding="utf-8") as fh:
        for line in fh:
            tally.problems.extend(oracles.check_piercing_record(line))
    os.remove(tally.spool_path)


def tail(times_ms, top_pct):
    """(percentile, value): ``top_pct`` by nearest rank, or the next lower
    ladder percentile until at least ten items lie beyond it; the median
    below 40 items."""
    ordered = sorted(times_ms)
    n = len(ordered)
    for pct in TAIL_LADDER:
        idx = math.ceil(n * pct / 100.0) - 1
        if pct <= top_pct and n - 1 - idx >= 10:
            return pct, ordered[idx]
    return 50.0, statistics.median(ordered)


def metric(value, unit):
    return {"value": value, "unit": unit}


def measure(workload, seconds, setup_times, tally):
    gc.collect()
    t0 = time.perf_counter()
    medians, pass_times, factors = run_passes(workload, tally, seconds)
    wall = time.perf_counter() - t0
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    # more set-ups after the passes, so that set-up time is not read from
    # a single moment of the run
    setup_times += setup(type(workload), workload.seed, SETUP_REPEATS[1])[1]
    run_deferred(tally)
    ms = [t * 1000.0 for t in medians if t is not None]
    pct, tail_ms = tail(ms, workload.tail_pct)
    q = statistics.quantiles(factors, n=4) if len(factors) > 1 else factors * 3
    print(f"items {len(medians)} x {len(pass_times)} passes; raw pass item times "
          f"{' '.join(f'{t:.3f}' for t in pass_times)} s; speed factor quartiles "
          f"{q[0]:.3f} {q[1]:.3f} {q[2]:.3f} over {len(factors)} chunks; scaled item time "
          f"{sum(ms) / 1000.0:.3f} s; loop wall {wall:.3f} s; tail percentile p{pct:g}")
    return {
        "setup_s": metric(statistics.median(setup_times), "s"),
        "items_per_s": metric(len(ms) * 1000.0 / sum(ms), "1/s"),
        "item_p50_ms": metric(statistics.median(ms), "ms"),
        "item_tail_ms": metric(tail_ms, "ms"),
        "peak_rss_mib": metric(peak, "MiB"),
    }


def measure_traced(workload, tally, spans_path):
    import tracer

    rounds = workload.trace_rounds
    plain = sum(run_rounds(workload, tally, rounds=rounds))
    trc = tracer.Tracer()
    trc.install(workload.D.modules)

    @contextlib.contextmanager
    def paused():
        """Checks between items call the program too; keep them out."""
        trc.paused = True
        try:
            yield
        finally:
            trc.paused = False

    traced = sum(run_rounds(workload, tally, rounds=rounds, on_check=paused))
    run_deferred(tally)
    trc.write(spans_path)
    calls, self_s = trc.calls, trc.self_s
    m = {}
    for layer, (n, own) in trc.layer_totals().items():
        m[f"{layer}.calls"] = metric(n, "count")
        m[f"{layer}.self_ms"] = metric(own * 1000.0, "ms")
    for name in ("geometry.trace_of", "geometry.intersect_all",
                 "complexes.sweep_collapse", "complexes.is_d_collapsible",
                 "piercing.tau_exact", "piercing.nu_exact", "lp.simplex_maximize",
                 "instances.parse_instance", "instances.dump_instance",
                 "reports.emit_report", "cli.run_command"):
        m[f"{name}.self_ms"] = metric(self_s.get(name, 0.0) * 1000.0, "ms")
    for name in ("geometry.intersect_all", "complexes.nerve",
                 "complexes.maximal_faces_containing", "piercing.fractional_lp",
                 "piercing.pierce_all", "lp.simplex_maximize"):
        m[f"{name}.calls"] = metric(calls.get(name, 0), "count")
    m["generators.draws"] = metric(calls.get("generators.gen_instance", 0), "count")
    m["complexes.nerve.faces"] = metric(trc.counters.get("complexes.nerve.faces", 0), "count")
    m["trace.overhead_s"] = metric(traced - plain, "s")
    print(f"traced {rounds} rounds: untraced item time {plain:.3f} s, traced {traced:.3f} s, "
          f"{len(trc.spans)} spans, {len(trc.leaves)} leaf aggregates")
    return m


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "dintervals", "__init__.py")):
        print(f"error: no program source at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    workload, setup_times = setup(WORKLOADS[args.workload], args.seed, SETUP_REPEATS[0])
    os.makedirs(OUT, exist_ok=True)
    stem = os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    tally = Tally(stem + ".deferred.jsonl")
    if args.trace:
        metrics = measure_traced(workload, tally, stem + ".spans.jsonl")
    else:
        metrics = measure(workload, args.seconds, setup_times, tally)
    for key in sorted(workload.stats):
        print(f"  {key}: {workload.stats[key]}")
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    for p in tally.errors[:5] + tally.problems[:20]:
        print(f"PROBLEM {p}", file=sys.stderr)
    result = {
        "correct": not tally.problems,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }
    with open(stem + ".result.json", "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=2)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
