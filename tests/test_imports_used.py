"""Every module-level import of a ``berkline`` module is read there.

An import that nothing reads is a leftover of code that went away: a reader
takes it for a dependency that is not there, and it keeps a module loaded
that no command needs.  Each ``src/berkline/*.py`` is parsed with ``ast``;
a name bound by a module-level import counts as read when it is loaded
anywhere in the module (an annotation included) or listed in ``__all__``.
``from __future__`` imports bind no name.  ``REEXPORTS`` lists the imports
that exist to be read from outside the module.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "berkline"

# (module file, name): imported to be read as an attribute of that module
REEXPORTS = {("kernel.py", "poly_mul_modp")}


def module_imports(tree):
    """(line, bound name) for each import at module level, in the module
    body or in an ``if`` or ``try`` block there."""
    out = []
    stack = list(tree.body)
    while stack:
        node = stack.pop()
        if isinstance(node, ast.Import):
            out += [(node.lineno, a.asname or a.name.split(".")[0])
                    for a in node.names]
        elif isinstance(node, ast.ImportFrom):
            if node.module != "__future__":
                out += [(node.lineno, a.asname or a.name) for a in node.names]
        elif isinstance(node, (ast.If, ast.Try)):
            for block in ("body", "orelse", "finalbody", "handlers"):
                stack += getattr(node, block, [])
        elif isinstance(node, ast.ExceptHandler):
            stack += node.body
    return sorted(out)


def read_names(tree):
    """Every name the module loads, and the strings of its ``__all__``."""
    names = {node.id for node in ast.walk(tree)
             if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets) and isinstance(node.value,
                                                      (ast.List, ast.Tuple)):
            names |= {elt.value for elt in node.value.elts
                      if isinstance(elt, ast.Constant)}
    return names


def unread_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    names = read_names(tree)
    return [(line, name) for line, name in module_imports(tree)
            if name != "*" and name not in names
            and (path.name, name) not in REEXPORTS]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_every_import_is_read(path):
    assert unread_imports(path) == []


def test_the_check_sees_an_unread_import(tmp_path):
    """The check finds an unread import at module level, in an ``if``
    block and under an alias, and no import that is read or re-exported."""
    path = tmp_path / "kernel.py"
    path.write_text(
        "from __future__ import annotations\n"
        "import math\n"
        "from fractions import Fraction\n"
        "from .field import PadicElem, _vp as vp\n"
        "from ._purekernel import poly_mul_modp\n"
        "if True:\n"
        "    import os.path\n"
        "__all__ = ['Fraction']\n"
        "def f(x) -> PadicElem:\n"
        "    return math.gcd(x, 2)\n")
    assert unread_imports(path) == [(4, "vp"), (7, "os")]
