"""The lines of ``src/dintervals`` that the tier-1 suite never runs.

Runs the tier-1 suite in this process under ``sys.settrace`` and lists
every executable line of the package (a line some compiled code object
maps an instruction to) that no traced frame reached, as
``module:line  source``.  Lines of the functions in ``ALLOWED`` and of
``if __name__ == "__main__":`` blocks are left out of the list.  Only
this process is traced: code that the suite runs in a subprocess counts
as not run.

Run from the repository root (pytest does not collect this file); extra
arguments go to pytest:

    python tests/trace_lines.py
    python tests/trace_lines.py tests/test_geometry.py

Prints the lines and their count, and exits 1 when any is listed.
"""

from __future__ import annotations

import ast
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "dintervals"

# (module, function): entered only from the console script
ALLOWED = {("cli.py", "main")}


def _code_objects(code):
    yield code
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            yield from _code_objects(const)


def _script_block(tree: ast.Module) -> set[int]:
    """The lines of a module's ``if __name__ == "__main__":`` block."""
    lines = set()
    for node in tree.body:
        if isinstance(node, ast.If) and ast.unparse(node.test) == "__name__ == '__main__'":
            lines |= set(range(node.lineno, node.end_lineno + 1))
    return lines


def executable_lines(path: Path) -> set[int]:
    """Lines of the file that compiled code maps an instruction to, less
    the lines of allowed functions and of the script block."""
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    module = compile(tree, str(path), "exec")
    lines, allowed = set(), _script_block(tree)
    for code in _code_objects(module):
        got = {line for _, _, line in code.co_lines() if line is not None}
        if (path.name, code.co_name) in ALLOWED:
            allowed |= got
        else:
            lines |= got
    return lines - allowed


def main(argv: list[str]) -> int:
    import pytest

    prefix = str(PACKAGE) + "/"
    ran: set[tuple[str, int]] = set()

    def local(frame, event, arg):
        if event == "line":
            ran.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def global_(frame, event, arg):
        filename = frame.f_code.co_filename
        if not filename.startswith(prefix):
            return None
        ran.add((filename, frame.f_lineno))
        return local

    sys.path.insert(0, str(ROOT / "src"))
    threading.settrace(global_)
    sys.settrace(global_)
    try:
        status = pytest.main(["-q", "-p", "no:cacheprovider", *argv])
    finally:
        sys.settrace(None)
        threading.settrace(None)

    missed = []
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text(encoding="utf-8").splitlines()
        for line in sorted(executable_lines(path)):
            if (str(path), line) not in ran:
                missed.append(f"{path.name}:{line}  {source[line - 1].strip()}")
    print("\n".join(missed))
    print(f"{len(missed)} lines of src/dintervals never ran (pytest exit {int(status)})")
    return 1 if missed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
