"""Every name a ``relend`` module imports is used in that module.

The package's ``__init__`` re-exports names, so it is skipped; a line that
imports a name for re-export elsewhere says so with ``# noqa: F401``.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "relend"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def _imported(tree: ast.Module, lines: list[str]) -> dict[str, int]:
    """The names bound by the module's imports, with their line numbers,
    less those on lines marked ``# noqa: F401``."""
    return {
        alias.asname or alias.name.split(".")[0]: alias.lineno
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        and not (isinstance(node, ast.ImportFrom) and node.module == "__future__")
        for alias in node.names
        if "# noqa: F401" not in lines[alias.lineno - 1]
    }


def _used(tree: ast.Module) -> set[str]:
    """The names the module reads."""
    return {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_every_imported_name_is_used(path):
    source = path.read_text()
    tree = ast.parse(source)
    used = _used(tree)
    unused = {
        name: line
        for name, line in _imported(tree, source.splitlines()).items()
        if name not in used
    }
    assert not unused, f"{path.name} imports names it never uses: {unused}"


def test_the_guard_sees_an_unused_import():
    tree = ast.parse("import os\nfrom sys import argv, path  # noqa: F401\n")
    lines = ["import os", "from sys import argv, path  # noqa: F401"]
    assert _imported(tree, lines) == {"os": 1}
    assert "os" in _used(ast.parse("import os\nos.sep"))
