"""Every name a qcorr module imports is used in that module.

No linter ships with the test dependencies, so the check reads each module's
syntax tree with the standard library.  ``__init__.py`` is exempt: its
imports are the package's public surface.
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
