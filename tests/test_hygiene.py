"""Source hygiene: every module of the package, and every test module, uses
every name it imports, and every private module-level name of the package
is referenced by some module of the package."""

import ast
from pathlib import Path

import pytest

import dropstereo

_SRC = Path(dropstereo.__file__).parent
_MODULES = sorted(p for p in _SRC.glob("*.py") if p.name != "__init__.py")
# test_acceptance.py is held byte-identical to the acceptance contract, which
# keeps its unused ``import pytest``
_TESTS = sorted(p for p in Path(__file__).parent.glob("*.py") if p.name != "test_acceptance.py")


def _unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {a.asname or a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {a.asname or a.name for a in node.names}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


@pytest.mark.parametrize("path", _MODULES + _TESTS, ids=lambda p: p.name)
def test_module_uses_every_name_it_imports(path):
    assert _unused_imports(path.read_text()) == []


def test_unused_import_is_caught():
    source = ("from __future__ import annotations\n"
              "import os.path\nimport numpy as np\nfrom .stereo import Correspondence, depth\n"
              "x: np.ndarray = depth(os.sep)\n")
    assert _unused_imports(source) == ["Correspondence"]


def _dead_private_names(sources: dict[str, str]) -> list[str]:
    """``module.name`` of each private module-level name (one leading
    underscore) that no module of ``sources`` reads, by name or as an
    attribute."""
    defined, read = [], set()
    for module, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                targets = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = [n.id for t in (node.targets if isinstance(node, ast.Assign)
                                          else [node.target])
                           for n in ast.walk(t) if isinstance(n, ast.Name)]
            else:
                continue
            defined += [(module, name) for name in targets
                        if name.startswith("_") and not name.startswith("__")]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    return sorted(f"{module}.{name}" for module, name in defined if name not in read)


def test_every_private_name_of_the_package_is_read():
    sources = {p.stem: p.read_text() for p in _SRC.glob("*.py")}
    assert _dead_private_names(sources) == []


def test_dead_private_helper_is_caught():
    sources = {"a": "_LIMIT = 3\n_X, _Y = 1, 2\ndef _used(v):\n    return v + _Y\n"
                    "def _dead():\n    return _used(_LIMIT)\n",
               "b": "from .a import _used\n\nclass _Gone:\n    pass\n\nprint(_used(1))\n"}
    assert _dead_private_names(sources) == ["a._X", "a._dead", "b._Gone"]
