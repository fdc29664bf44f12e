"""Every module-level import in the package is used by its module."""

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
