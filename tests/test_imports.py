"""Every name a qcorr module imports, or binds privately, and every private
method and cached property of its top-level classes, is read in that module,
and every public function or class without a decorator is read by the package;
the benchmark oracles the tests check against import nothing but numpy, and the
acceptance gate takes no linear algebra from ``qcorr.linalg``.

No linter ships with the test dependencies, so the check reads each module's
syntax tree with the standard library.  ``__init__.py`` is exempt from the
import check: its imports are the package's public surface.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "qcorr"
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


def unread_private_attributes(source):
    """Private methods and cached properties of the top-level classes of
    ``source`` that no expression of ``source`` reads as an attribute.

    A method is private when its name starts with an underscore and is not
    a dunder; a cached property is one decorated ``cached_property``,
    whatever its name.
    """
    tree = ast.parse(source)
    read = {
        node.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }
    found = []
    for cls in (node for node in tree.body if isinstance(node, ast.ClassDef)):
        for node in cls.body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            decorators = {getattr(d, "id", getattr(d, "attr", None)) for d in node.decorator_list}
            private = node.name.startswith("_") and not node.name.endswith("__")
            if (private or "cached_property" in decorators) and node.name not in read:
                found.append(f"{cls.name}.{node.name}")
    return found


def test_checker_flags_unread_private_attributes():
    source = (
        "from functools import cached_property\n"
        "import functools\n"
        "class K:\n"
        "    def __init__(self):\n        self._x = self._setup()\n"
        "    def _setup(self):\n        return 1\n"
        "    def _dead(self):\n        return self._x\n"
        "    @cached_property\n    def _table(self):\n        return 2\n"
        "    @functools.cached_property\n    def spare(self):\n        return 3\n"
        "    @cached_property\n    def size(self):\n        return 4\n"
        "    @property\n    def _kind(self):\n        return 5\n"
        "    def public(self):\n        return self._kind\n"
        "def f(k):\n    return k.size\n"
        "def g():\n    class Inner:\n        def _h(self):\n            pass\n"
    )
    assert unread_private_attributes(source) == ["K._dead", "K._table", "K.spare"]


@pytest.mark.parametrize("module", MODULES)
def test_no_unread_private_attributes(module):
    assert unread_private_attributes((PACKAGE / module).read_text()) == []


def unread_public_names(sources):
    """Public undecorated top-level defs and classes of ``sources`` that none reads.

    A name counts as read where any of ``sources`` loads it, reads it as an
    attribute, imports it with ``from``, or lists it in ``__all__``.
    """
    trees = [ast.parse(source) for source in sources]
    read = set()
    for node in (n for tree in trees for n in ast.walk(tree)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            read.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            read.update(c.value for c in ast.walk(node.value) if isinstance(c, ast.Constant))
    return [
        node.name
        for tree in trees
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and not node.name.startswith("_")
        and not node.decorator_list
        and node.name not in read
    ]


def test_checker_flags_unread_public_names():
    sources = [
        "__all__ = ['f']\ndef f():\n    pass\ndef g():\n    pass\ndef h():\n    return k\n"
        "@command\ndef cli():\n    pass\nclass K:\n    pass\n",
        "from m import a\nimport m\nm.b\n"
        "def k():\n    pass\ndef a():\n    pass\ndef b():\n    pass\n",
    ]
    assert unread_public_names(sources) == ["g", "h", "K"]


def test_every_public_name_has_a_library_reader():
    sources = [path.read_text() for path in sorted(PACKAGE.glob("*.py"))]
    assert unread_public_names(sources) == []


def test_shared_oracles_import_only_numpy():
    # the tests check qcorr against bench/oracles.py, an independent check
    # only while that file shares no code with the library
    tree = ast.parse((ROOT / "bench" / "oracles.py").read_text())
    imports = [n for n in ast.walk(tree) if isinstance(n, (ast.Import, ast.ImportFrom))]
    assert all(isinstance(n, ast.Import) for n in imports)
    assert {alias.name for n in imports for alias in n.names} == {"numpy"}


def linalg_imports(source):
    """Names that ``source`` imports from ``qcorr.linalg``, or ``linalg`` itself."""
    tree = ast.parse(source)
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found += [a.name for a in node.names if a.name.startswith("qcorr.linalg")]
        elif isinstance(node, ast.ImportFrom) and node.module == "qcorr.linalg":
            found += [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module == "qcorr":
            found += [a.name for a in node.names if a.name == "linalg"]
    return found


def test_checker_flags_linalg_imports():
    source = (
        "import qcorr.linalg\nfrom qcorr import linalg, states\n"
        "from qcorr.linalg import purity\nfrom qcorr.states import make_rng\nimport numpy\n"
    )
    assert linalg_imports(source) == ["qcorr.linalg", "linalg", "purity"]


def test_acceptance_gate_borrows_no_library_linear_algebra():
    # the acceptance criteria check the library against bench/oracles.py and
    # tests/dense_oracles.py, not against the library's own linear algebra
    assert linalg_imports((ROOT / "tests" / "test_acceptance.py").read_text()) == []
