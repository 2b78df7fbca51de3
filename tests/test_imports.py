"""Every name a qcorr module imports, or binds privately, is read in that module.

No linter ships with the test dependencies, so the check reads each module's
syntax tree with the standard library.  ``__init__.py`` is exempt from the
import check: its imports are the package's public surface.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "qcorr"
MODULES = sorted(p.name for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source):
    """Names bound by an import in ``source`` that no expression reads."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported += [alias.asname or alias.name.split(".")[0] for alias in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in used]


def test_checker_flags_unused_names():
    source = "import os, sys\nfrom a.b import c as d, e\nimport x.y\nsys.exit(e)\n"
    assert unused_imports(source) == ["os", "d", "x"]


@pytest.mark.parametrize("module", MODULES)
def test_no_unused_imports(module):
    assert unused_imports((PACKAGE / module).read_text()) == []


def unread_private_names(source):
    """Module-level private names in ``source`` that no expression reads.

    A private name is one a top-level def, class or assignment binds that
    starts with an underscore; dunder names such as ``__all__`` are not.
    """
    tree = ast.parse(source)
    bound = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            bound.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                bound += [n.id for n in ast.walk(target) if isinstance(n, ast.Name)]
    read = {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    private = [name for name in bound if name.startswith("_") and not name.endswith("__")]
    return [name for name in private if name not in read]


def test_checker_flags_unread_private_names():
    source = (
        "__all__ = ['f']\n_A, B = 1, 2\n_C: int = 3\n_D = 4\n"
        "def _f():\n    return _D\n@_f\nclass _K:\n    _x = 1\n"
    )
    assert unread_private_names(source) == ["_A", "_C", "_K"]


@pytest.mark.parametrize("module", sorted(p.name for p in PACKAGE.glob("*.py")))
def test_no_unread_private_names(module):
    assert unread_private_names((PACKAGE / module).read_text()) == []
