"""Every name a module of the package imports is used in that module.

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
