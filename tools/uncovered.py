"""List the library statements that the tier-1 test suite never runs.

    python3 tools/uncovered.py

Runs ``python -m pytest -q --continue-on-collection-errors`` from the repo
root in this process, with ``src`` first on the import path, under a line
tracer (``sys.settrace`` and ``threading.settrace``), then prints every
statement of ``src/timebins/*.py`` that never ran, as ``path:line: source``.
Docstrings, ``def``, ``class`` and imports are left out; a compound
statement counts as run when a line of its header ran.  Runs in child
processes are not seen.  Exits 1 if a listed statement is not in ALLOWED,
else 0, whatever the tests themselves gave.  Standard library only.
"""

from __future__ import annotations

import ast
import os
import runpy
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "timebins"
TIER1 = ["pytest", "-q", "--continue-on-collection-errors"]
# statements no in-process run can reach: (file name, first source line)
ALLOWED = {
    ("__main__.py", 'if __name__ == "__main__":'),
    ("__main__.py", "raise SystemExit(main())"),
}


def _is_docstring(node: ast.stmt, parent: ast.AST) -> bool:
    return (
        isinstance(parent, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
        and parent.body[0] is node
        and isinstance(node, ast.Expr)
        and isinstance(node.value, ast.Constant)
        and isinstance(node.value.value, str)
    )


def statements(source: str) -> list[tuple[int, range]]:
    """(first line, lines whose run counts) of each statement of ``source``
    that the listing considers, in source order."""
    skip = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Import, ast.ImportFrom)
    found = []
    for parent in ast.walk(ast.parse(source)):
        for node in ast.iter_child_nodes(parent):
            if not isinstance(node, ast.stmt) or _is_docstring(node, parent):
                continue
            if isinstance(node, skip):
                continue
            body = getattr(node, "body", None)
            # a compound statement's own lines end where its body starts
            end = body[0].lineno - 1 if body else node.end_lineno
            found.append((node.lineno, range(node.lineno, max(end, node.lineno) + 1)))
    return sorted(found)


def unrun(source: str, ran: set[int]) -> list[int]:
    """First lines of the statements of ``source`` none of whose lines ran."""
    return [first for first, lines in statements(source) if ran.isdisjoint(lines)]


def run_traced() -> dict[str, set[int]]:
    """Run the tier-1 command here under the tracer; the lines run per file."""
    files = {str(path): set() for path in sorted(PACKAGE.glob("*.py"))}

    def tracer(frame, event, arg):
        ran = files.get(frame.f_code.co_filename)
        if ran is None:
            return None

        def local(frame, event, arg):
            if event == "line":
                ran.add(frame.f_lineno)
            return local

        return local

    sys.path.insert(0, str(PACKAGE.parent))
    os.chdir(ROOT)
    argv = sys.argv
    sys.argv = TIER1
    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        runpy.run_module("pytest", run_name="__main__", alter_sys=True)
    except SystemExit:
        pass
    finally:
        sys.settrace(None)
        threading.settrace(None)
        sys.argv = argv
    return files


def main() -> int:
    outside = 0
    for path, ran in run_traced().items():
        lines = Path(path).read_text(encoding="utf-8").splitlines()
        for first in unrun("\n".join(lines), ran):
            text = lines[first - 1].strip()
            allowed = (Path(path).name, text) in ALLOWED
            outside += not allowed
            tag = "  (allowed)" if allowed else ""
            print(f"{Path(path).relative_to(ROOT)}:{first}: {text}{tag}")
    print(f"{outside} unrun statement(s) outside the allowlist")
    return 1 if outside else 0


if __name__ == "__main__":
    sys.exit(main())
