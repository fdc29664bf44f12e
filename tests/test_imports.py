"""Source scans of the package: every module-level import is used by its
module, guard limits are read in one place, ground sets are compared only
by the family checks of ``geometry``, and queries outside ``geometry``
do not build traces through ``intersect_all``."""

import ast
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
    """Names of the functions holding a node for which ``found`` is true."""
    return [
        node.name
        for node in ast.walk(ast.parse(source))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and any(found(n) for n in ast.walk(node))
    ]


def _calls(*names):
    return lambda n: (
        isinstance(n, ast.Call) and isinstance(n.func, ast.Name) and n.func.id in names
    )


def _compares_a_ground(n) -> bool:
    return isinstance(n, ast.Compare) and any(
        isinstance(x, ast.Attribute) and x.attr == "ground" for x in (n.left, *n.comparators)
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
    )
    assert _functions_with(source, _compares_a_ground) == ["f"]
    assert _functions_with(source, _calls("intersect_all")) == ["g"]


def test_the_guard_rule_lives_in_config():
    # only the walks that count as they go and the draw cap read a limit
    # themselves; every other guard goes through config.check_guard
    callers = [
        name for module, name in _package_functions_with(_calls("guard_limit"))
        if module != "config.py"
    ]
    assert sorted(callers) == ["_face_joints", "gen_conditioned", "helly_check"]


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


def test_no_function_takes_a_per_call_guard_override():
    dropped = {"work_guard", "face_guard", "cap_name"}
    found = [
        f"{path.name}:{node.name}({a.arg})"
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        for a in node.args.args + node.args.kwonlyargs + node.args.posonlyargs
        if a.arg in dropped
    ]
    assert found == []
