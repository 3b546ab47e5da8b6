"""Every name a package module imports is used in that module."""

import ast
from pathlib import Path

import pytest

import sketch_anomaly

PACKAGE = Path(sketch_anomaly.__file__).resolve().parent

# Imported but not called: perfbench/tracing.py counts and times calls
# through these modules' names for them (``# noqa: F401`` at the import).
PATCHED_BY_PERFBENCH = {
    ("scores", "as_row"),
    ("scores", "sym_eig"),
}


def unused_imports(source: str) -> set[str]:
    """Names bound by the imports of ``source`` that it never reads."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return imported - used


def test_unused_imports_finds_plain_and_from_imports():
    source = (
        "import os\nimport numpy as np\nimport a.b\n"
        "from x import y, z as w\nfrom __future__ import annotations\n"
        "def f(v: w) -> None:\n    return np.zeros(a.b.c)\n"
    )
    assert unused_imports(source) == {"os", "y"}


# ``__init__.py`` imports names to re-export them.
@pytest.mark.parametrize(
    "path",
    sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"),
    ids=lambda p: p.stem,
)
def test_package_module_uses_every_import(path):
    unused = {(path.stem, name) for name in unused_imports(path.read_text())}
    assert unused - PATCHED_BY_PERFBENCH == set()
