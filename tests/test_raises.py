"""Every ``raise`` in qcorr raises a ``QcorrError`` subclass.

``cli.main`` maps ParseError, InvariantError and UsageError to exit codes 2,
3 and 64; any other exception escapes as exit 1 with a traceback.  No linter
ships with the test dependencies, so the check reads each module's syntax
tree with the standard library, as ``test_imports.py`` does.
"""

import ast
from pathlib import Path

import pytest

from qcorr import errors

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "qcorr"
MODULES = sorted(p.name for p in PACKAGE.glob("*.py"))

QCORR_ERRORS = {
    name
    for name, obj in vars(errors).items()
    if isinstance(obj, type) and issubclass(obj, errors.QcorrError)
}

# (module, function, raised name) allowed to raise something else: ``_integer``
# raises the error class its caller passes.
ALLOWED = {("states.py", "_integer", "error")}


def foreign_raises(source, module):
    """(module, function, name) of each ``raise`` in ``source`` of a non-QcorrError name.

    The name of ``raise X(...)``, ``raise X`` and ``raise m.X`` is X.  A bare
    re-raise is allowed; the function is None at module level.
    """
    found = []

    def visit(node, func):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if isinstance(child, ast.Raise) and child.exc is not None:
                exc = child.exc.func if isinstance(child.exc, ast.Call) else child.exc
                name = exc.attr if isinstance(exc, ast.Attribute) else getattr(exc, "id", None)
                if name not in QCORR_ERRORS:
                    found.append((module, func, name))
            visit(child, func)

    visit(ast.parse(source), None)
    return found


def test_checker_flags_foreign_raises():
    source = (
        "def f(x):\n"
        "    if x:\n        raise ValueError(x)\n"
        "    try:\n        g()\n    except KeyError:\n        raise\n"
        "    raise InvariantError('x') from None\n"
        "raise errors.UsageError\n"
        "class K:\n    def m(self):\n        raise RuntimeError\n"
        "raise exc\n"
    )
    assert foreign_raises(source, "m.py") == [
        ("m.py", "f", "ValueError"), ("m.py", "m", "RuntimeError"), ("m.py", None, "exc"),
    ]


@pytest.mark.parametrize("module", MODULES)
def test_every_raise_is_a_qcorr_error(module):
    found = foreign_raises((PACKAGE / module).read_text(), module)
    assert [r for r in found if r not in ALLOWED] == []


def test_every_allowed_raise_exists():
    found = {r for m in MODULES for r in foreign_raises((PACKAGE / m).read_text(), m)}
    assert ALLOWED <= found
