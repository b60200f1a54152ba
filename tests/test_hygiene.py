"""Source hygiene: every module of the package, and every test module, uses
every name it imports."""

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
