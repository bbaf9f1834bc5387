"""Every name a module of the package imports, and every private name it defines, is used there.

__init__ is left out: it imports names to re-export them.
"""

import ast
from pathlib import Path

import pytest

import disimpact

MODULES = sorted(
    path for path in Path(disimpact.__file__).parent.glob("*.py") if path.name != "__init__.py"
)


def unused_imports(source: str) -> list[str]:
    """The names the source's imports bind and nothing in it reads, __future__ aside."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            # "import json.encoder" binds json.
            imported.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


@pytest.mark.parametrize("path", MODULES, ids=[path.name for path in MODULES])
def test_every_imported_name_is_used(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_an_unused_import_is_found():
    source = "import os\nimport json.encoder\nfrom re import compile as c, sub\nsub('', '', '')\n"
    assert unused_imports(source) == ["c", "json", "os"]


def unread_private_names(source: str) -> list[str]:
    """The module-level _names the source defines (assigns, def or class) and never reads."""
    tree = ast.parse(source)
    defined = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defined.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                defined.update(n.id for n in ast.walk(target) if isinstance(n, ast.Name))
    read = {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    return sorted(name for name in defined - read if name.startswith("_"))


@pytest.mark.parametrize("path", MODULES, ids=[path.name for path in MODULES])
def test_every_private_name_is_read(path):
    assert unread_private_names(path.read_text(encoding="utf-8")) == []


def test_an_unread_private_name_is_found():
    source = (
        "_A, _B = 1, 2\n_C: int = 3\n_D = 4\nPUBLIC = 5\n"
        "def _f(): return _A\nclass _K: pass\n_D = _C\n"
    )
    assert unread_private_names(source) == ["_B", "_D", "_K", "_f"]
