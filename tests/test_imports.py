"""Source scans of the package: every module-level import is used by its
module, and guard limits are read in one place."""

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


def _guard_limit_callers(source: str) -> list[str]:
    """Names of the functions that call ``guard_limit``."""
    callers = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            calls = (
                n for n in ast.walk(node)
                if isinstance(n, ast.Call)
                and isinstance(n.func, ast.Name)
                and n.func.id == "guard_limit"
            )
            if any(calls):
                callers.append(node.name)
    return callers


def test_the_guard_rule_lives_in_config():
    # only the walks that count as they go and the draw cap read a limit
    # themselves; every other guard goes through config.check_guard
    callers = sorted(
        name
        for path in PACKAGE.glob("*.py")
        if path.name != "config.py"
        for name in _guard_limit_callers(path.read_text(encoding="utf-8"))
    )
    assert callers == ["_face_joints", "gen_conditioned", "helly_check"]


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
