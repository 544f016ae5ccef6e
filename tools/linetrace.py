"""Statement lines of ``src/berkline`` that a pytest run never reaches.

    python3 tools/linetrace.py [pytest arguments]

Runs pytest in this process (by default ``-q -p no:cacheprovider tests``),
with ``sys.settrace`` and ``threading.settrace`` recording the lines run in
frames whose file lies under ``src/berkline``, then prints every statement
of each module there that never ran, as ``path:line  source``.  Docstrings,
``def`` and ``class`` headers, and imports are left out.  A statement
counts as run when any of its own lines ran: a simple statement owns all its
lines, a compound one (``if``, ``for``, ``try``, ...) the lines of its
header.  Code that runs only in a child process, such as the CLI tests that
start ``python -m berkline.cli``, is not seen.

Test failures are reported as pytest reports them, and the exit code is
pytest's.  Tracing slows the run several times over, so the tests with a
wall-time budget may fail under it.  Uses the standard library and pytest
only; it is not part of the test suite.
"""

import ast
import sys
import threading
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "berkline"
DEFAULT_ARGS = ["-q", "-p", "no:cacheprovider", "tests"]

# statements that compile to no line of their own, or that the report leaves
# out: headers run at import, not when the code they define is used
_SKIPPED = (ast.Import, ast.ImportFrom, ast.FunctionDef, ast.AsyncFunctionDef,
            ast.ClassDef, ast.Global, ast.Nonlocal)


def trace_lines(run):
    """Call ``run()`` under the tracer; return (its result, {file: lines})."""
    prefix = str(PACKAGE) + "/"
    hits = {}

    def on_call(frame, event, arg):
        name = frame.f_code.co_filename
        lines = hits.get(name)
        if lines is None:
            if not name.startswith(prefix):
                return None
            lines = hits[name] = set()
        add = lines.add

        def on_line(frame, event, arg):
            if event == "line":
                add(frame.f_lineno)
            return on_line

        return on_line

    threading.settrace(on_call)
    sys.settrace(on_call)
    try:
        result = run()
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return result, hits


def _body_start(node):
    """The first line of the statements nested in ``node``, or None."""
    starts = [child.lineno for field in ("body", "orelse", "finalbody",
                                         "handlers")
              for child in getattr(node, field, ()) or ()]
    return min(starts, default=None)


def statements(tree):
    """(first line, own lines) of every reportable statement in ``tree``."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.stmt) or isinstance(node, _SKIPPED):
            continue
        if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant):
            continue  # a docstring, or a constant compiled away
        start = _body_start(node)
        end = node.end_lineno if start is None else max(node.lineno, start - 1)
        yield node.lineno, range(node.lineno, end + 1)


def unreached(hits):
    """[(path, line, source)] of every statement in the package never run."""
    out = []
    for path in sorted(PACKAGE.rglob("*.py")):
        source = path.read_text()
        lines = source.splitlines()
        ran = hits.get(str(path), set())
        for first, own in sorted(statements(ast.parse(source))):
            if ran.isdisjoint(own):
                out.append((path.relative_to(ROOT), first,
                            lines[first - 1].strip()))
    return out


def main(argv=None):
    args = sys.argv[1:] if argv is None else argv
    code, hits = trace_lines(lambda: pytest.main(args or DEFAULT_ARGS))
    missed = unreached(hits)
    print(f"\n{len(missed)} statement(s) under {PACKAGE.relative_to(ROOT)} "
          f"never ran (pytest exit code {int(code)}):")
    for path, line, text in missed:
        print(f"{path}:{line}  {text}")
    return int(code)


if __name__ == "__main__":
    sys.exit(main())
