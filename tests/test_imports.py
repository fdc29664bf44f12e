"""Source scans of the package: every module-level import is used by its
module, guard limits are read in one place, every exponential walk reads
a guard or names what bounds it, ground sets are compared only
by the family checks of ``geometry``, queries outside ``geometry`` do
not build traces through ``intersect_all``, only the Helly checks walk
colorful tuples, neither their subset walks nor the collapse search
build combinations, the Radon rule walks no splits, the piercing
solvers read one incidence and one intersection graph, each outcome
leaves by one path (the CLI builds every report in one helper, the
sweep every error in one, the suites every failure in one, and reports
know nothing of instances), no dropped option comes back, and the
import block of ``__init__`` is the public surface."""

import ast
import types
from pathlib import Path

import dintervals

PACKAGE = Path(dintervals.__file__).parent


def _unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [name for name in imported if name not in used]


def test_the_scan_flags_what_is_never_used():
    source = (
        "from __future__ import annotations\nimport os\nimport os.path as osp\n"
        "from typing import Any, Sequence\n"
        "def f(a: Sequence[int]) -> Any:\n    return os.sep\n"
    )
    assert _unused_imports(source) == ["osp"]


def test_no_module_imports_a_name_it_never_uses():
    # __init__.py imports to re-export
    unused = {
        path.name: names
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "__init__.py"
        and (names := _unused_imports(path.read_text(encoding="utf-8")))
    }
    assert unused == {}


def _functions_with(source: str, found) -> list[str]:
    """Names of the functions holding a node for which ``found`` is true
    in their own body, outside the functions nested in it."""
    names = []
    for func in ast.walk(ast.parse(source)):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        todo = list(ast.iter_child_nodes(func))
        while todo:
            node = todo.pop()
            if found(node):
                names.append(func.name)
                break
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                todo.extend(ast.iter_child_nodes(node))
    return names


def _calls(*names):
    return lambda n: (
        isinstance(n, ast.Call) and isinstance(n.func, ast.Name) and n.func.id in names
    )


def _calls_itertools(*names):
    return lambda n: (
        isinstance(n, ast.Call)
        and isinstance(n.func, ast.Attribute)
        and isinstance(n.func.value, ast.Name)
        and n.func.value.id == "itertools"
        and (not names or n.func.attr in names)
    )


def _compares_a_ground(n) -> bool:
    return isinstance(n, ast.Compare) and any(
        isinstance(x, ast.Attribute) and x.attr == "ground" for x in (n.left, *n.comparators)
    )


def _reads_runs(n) -> bool:
    return _calls("_runs")(n) or isinstance(n, ast.Attribute) and n.attr == "runs"


def _touches_report_witnesses(n) -> bool:
    return (
        isinstance(n, ast.Attribute)
        and n.attr == "witnesses"
        and isinstance(n.value, ast.Name)
        and n.value.id == "report"
    )


def _package_functions_with(found) -> list[tuple[str, str]]:
    return sorted(
        (path.name, name)
        for path in PACKAGE.glob("*.py")
        for name in _functions_with(path.read_text(encoding="utf-8"), found)
    )


def test_the_function_scans_flag_what_they_look_for():
    source = (
        "def f(a, b):\n    return a.ground == b.ground\n"
        "def g(a):\n    return intersect_all([a])\n"
        "def h(a, b):\n    return a.ground, b.runs == a.runs\n"
        "def outer():\n    def inner():\n        return Report()\n    return inner\n"
        "def k(a):\n    return sorted(a, key=lambda t: t.runs)\n"
        "def m(a):\n    return list(itertools.combinations(a, 2))\n"
        "def p(a):\n    return list(itertools.product(a, a))\n"
        "def w(report, rep):\n    report.witnesses['x'] = rep.witnesses\n"
    )
    assert _functions_with(source, _compares_a_ground) == ["f"]
    assert _functions_with(source, _calls("intersect_all")) == ["g"]
    assert _functions_with(source, _reads_runs) == ["h", "k"]
    assert _functions_with(source, _calls("Report")) == ["inner"]
    assert _functions_with(source, _calls_itertools("combinations")) == ["m"]
    assert _functions_with(source, _calls_itertools()) == ["m", "p"]
    assert _functions_with(source, _touches_report_witnesses) == ["w"]


def test_the_guard_rule_lives_in_config():
    # only the walks that count as they go read a limit themselves; every
    # other guard goes through config.check_guard
    callers = [
        name for module, name in _package_functions_with(_calls("guard_limit"))
        if module != "config.py"
    ]
    assert sorted(callers) == ["_face_joints", "helly_check"]


# the walks that read no guard themselves, each with what bounds it
UNGUARDED_WALKS = {
    ("helly.py", "cfh_stats"): "_colorful_work",
    ("helly.py", "colorful_helly_points"): "_colorful_work",
    ("helly.py", "_thin_colorful_tuple"):
        "_colorful_work in the selection, families_needed in the sampler",
    ("piercing.py", "_nu"): "pairs of at most PIERCE_SETS sets",
    ("generators.py", "gen_helly_lower_bound"): "2d sets",
    ("experiments.py", "radon_suite"): "at most 12 points",
    ("experiments.py", "witness_suite"): "at most 7 sets",
    ("complexes.py", "sweep_collapse"): "NERVE and COLLAPSE_FACES",
}


def test_every_exponential_walk_reads_a_guard_or_names_its_bound():
    # combinations, products, colorful tuples and the collapse search
    walks = _package_functions_with(
        lambda n: _calls_itertools("combinations", "product")(n)
        or _calls("colorful_tuples", "_collapse_search")(n)
    )
    guarded = set(_package_functions_with(_calls("check_guard", "guard_limit")))
    assert {w for w in walks if w not in guarded} == set(UNGUARDED_WALKS)


def test_only_the_family_checks_compare_ground_sets():
    # geometry._runs checks a family's ground once for every query;
    # colorful_tuples checks each member it visits, so the sampler never
    # builds a lazy family whole
    assert _package_functions_with(_compares_a_ground) == [
        ("geometry.py", "_runs"),
        ("geometry.py", "colorful_tuples"),
    ]


def test_queries_outside_geometry_walk_on_runs():
    # the trace-building references stay public, and RadonPartition.verify
    # keeps its hull meet, independent of the Radon search
    callers = _package_functions_with(_calls("intersect_all", "k_intersects", "f_value"))
    assert [c for c in callers if c[0] != "geometry.py"] == [("helly.py", "verify")]


def test_only_the_helly_checks_walk_colorful_tuples():
    # every (p,q) kind reads one incidence instead; the colorful
    # precondition walks once, in _thin_colorful_tuple, for the selection
    # and for ColorfulHellyProperty.  The Helly subset walks and the
    # maxima-witness oracle take the same walk with its subset rule, so
    # they build no combinations
    assert _package_functions_with(_calls("colorful_tuples")) == [
        ("experiments.py", "witness_suite"),
        ("generators.py", "gen_helly_lower_bound"),
        ("helly.py", "_thin_colorful_tuple"),
        ("helly.py", "cfh_stats"),
        ("helly.py", "colorful_helly_points"),
        ("helly.py", "frac_helly_stats"),
        ("helly.py", "helly_check"),
    ]
    combinations = {name for _, name in _package_functions_with(_calls_itertools("combinations"))}
    assert combinations
    assert not combinations & {
        "helly_check", "frac_helly_stats", "gen_helly_lower_bound", "witness_suite"
    }


def test_no_function_in_complexes_meets_run_tuples():
    # a set in complexes is its cell mask: the face walk and the sweep's
    # refresh AND masks and read the sweep keys off them, the cuts AND
    # them too, and only the encoder reads runs
    callers = _package_functions_with(_calls("_meet", "_sweep_key"))
    assert callers and [c for c in callers if c[0] == "complexes.py"] == []
    readers = _package_functions_with(_reads_runs)
    assert [c for c in readers if c[0] == "complexes.py"] == [("complexes.py", "_cells")]


def test_the_collapse_search_builds_no_combinations():
    # a face's boundary is its mask with one low bit peeled at a time, and
    # a facet's small faces are its submasks
    callers = _package_functions_with(_calls_itertools("combinations"))
    assert callers and [c for c in callers if c[0] == "complexes.py"] == []


def test_the_radon_rule_walks_no_splits():
    # below 2d+1 cells the partition is the last middle of three on one
    # level, as from 2d+1 it is the first: no split is enumerated
    callers = _package_functions_with(_calls_itertools())
    assert ("helly.py", "radon_number_bruteforce") in callers
    assert ("helly.py", "_radon_cells") not in callers


def test_the_piercing_solvers_read_one_incidence():
    # _incidence_graph builds the incidence and the intersection graph as
    # it checks the family; pierce_all is its one caller and hands it to
    # τ, ν and the LP, and only ν's witness recheck meets two sets' runs
    # directly
    def in_piercing(found):
        return [name for module, name in _package_functions_with(found) if module == "piercing.py"]

    assert _package_functions_with(_calls("_incidence_graph")) == [("piercing.py", "pierce_all")]
    assert in_piercing(_calls("_incidence")) == ["_incidence_graph", "max_point_cover", "pq_check"]
    assert in_piercing(_calls("_meet")) == ["_nu"]
    imported = {
        a.name
        for node in ast.parse(_source("piercing.py")).body
        if isinstance(node, ast.ImportFrom)
        for a in node.names
    }
    assert "_incidence" in imported and "_runs" not in imported


def _source(module: str) -> str:
    return (PACKAGE / module).read_text(encoding="utf-8")


def test_the_suites_record_failures_in_one_place():
    # _fail counts each failure and keeps the first witness; colorful-helly
    # counts its violations per cell, in its rows, and keeps only the witness
    found = _functions_with(_source("experiments.py"), _touches_report_witnesses)
    assert sorted(found) == ["_fail", "colorful_suite"]


def test_the_cli_builds_every_report_in_one_place():
    # _report names the report after the command and puts the file first;
    # _finish reads the exit code off the verdicts
    assert _functions_with(_source("cli.py"), _calls("Report")) == ["_report"]


def test_the_sweep_builds_every_error_in_one_place():
    # fail adds the working family and the pivot as they stand at the raise
    found = _functions_with(_source("complexes.py"), _calls("SweepInvariantError"))
    assert found == ["fail"]


def test_reports_import_nothing_from_instances():
    imported = [
        node.module
        for node in ast.walk(ast.parse(_source("reports.py")))
        if isinstance(node, ast.ImportFrom) and node.level == 1
    ]
    assert "geometry" in imported and "instances" not in imported


def test_no_function_takes_a_per_call_guard_override():
    # the dropped guard overrides and every other dropped option, each
    # with the functions it may not come back to (None: any function);
    # the draw cap is gen_conditioned's own argument, and
    # colorful_helly_points keeps its designated family
    dropped = {
        "work_guard": None,
        "face_guard": None,
        "cap_name": None,
        "enumeration_guard": None,
        "labels": None,
        "cap_per_instance": None,
        "override": None,
        "designated": {"gen_helly_lower_bound", "gen_radon_lower_bound"},
        "code": {"_finish"},
        "lp_value": None,
    }
    found = [
        f"{path.name}:{node.name}({a.arg})"
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        for a in node.args.args + node.args.kwonlyargs + node.args.posonlyargs
        if a.arg in dropped and (dropped[a.arg] is None or node.name in dropped[a.arg])
    ]
    assert found == []


# the names of the package's export list before it was folded into the
# import block, less ``face`` and ``BlowUpFamily``, which only tests read
PUBLIC_NAMES = {
    "CollapseSequence", "CollapseStep", "ColorfulHellyProperty",
    "ColorfulSelection", "ConditionedOutcome", "DInterval", "DIntervalError",
    "DimensionMismatchError", "GenSpec", "GroundSetMismatchError",
    "GuardExceededError", "HellyReport", "Instance", "KIntersectRich",
    "LPSolution", "LevelInterval", "LexValue", "NotAFaceError", "NotFreeError",
    "PiercingResult", "Point", "PointSet", "PqProperty", "PreconditionError",
    "RadonPartition", "Report", "SchemaError", "SimplicialComplex",
    "SweepInvariantError", "SweepIteration", "SweepResult",
    "TheoremViolationError", "TraceSet", "blow_up", "cfh_stats",
    "colorful_helly_points", "dump_instance", "emit_report", "f_value",
    "frac_helly_stats", "gen_conditioned", "gen_family",
    "gen_ground", "gen_helly_lower_bound", "gen_instance",
    "gen_radon_lower_bound", "helly_check", "hull", "intersect_all",
    "is_d_collapsible", "jsonify", "k_intersects",
    "max_k_intersecting_subfamily", "max_point_cover",
    "maxima_witness_subfamily", "minimal_dinterval", "nerve",
    "parse_instance", "pierce_all", "piercing_bound_check", "pq_check",
    "radon_number_bruteforce", "radon_partition", "serialize_instance",
    "sweep_collapse", "trace_of",
}


def test_the_import_block_is_the_public_surface():
    public = {
        name
        for name, value in vars(dintervals).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert len(PUBLIC_NAMES) == 66
    assert public == PUBLIC_NAMES
