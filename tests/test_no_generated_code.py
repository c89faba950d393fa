"""No ``relend`` module generates code, at import or later.

``dataclasses`` compiles and runs generated methods for every class it
decorates, each time a fresh process imports the module; ``exec`` and
``eval`` would do the same by hand.  Every CLI run is a fresh process, so
relend's classes write their methods in source: immutable records are
``typing.NamedTuple`` and the rest are plain classes.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "relend"
MODULES = sorted(PACKAGE.glob("*.py"))
BANNED_MODULES = {"dataclasses"}
BANNED_CALLS = {"exec", "eval"}


def _generated_code(tree: ast.Module) -> list[tuple[int, str]]:
    """(line, what) for each import of a banned module and each call of a
    banned builtin."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            out += [
                (node.lineno, f"import {alias.name}")
                for alias in node.names
                if alias.name.split(".")[0] in BANNED_MODULES
            ]
        elif isinstance(node, ast.ImportFrom):
            if node.level == 0 and node.module.split(".")[0] in BANNED_MODULES:
                out.append((node.lineno, f"from {node.module} import ..."))
        elif isinstance(node, ast.Call):
            if isinstance(node.func, ast.Name) and node.func.id in BANNED_CALLS:
                out.append((node.lineno, f"{node.func.id}(...)"))
    return out


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_no_module_generates_code(path):
    found = _generated_code(ast.parse(path.read_text()))
    assert not found, f"{path.name} generates code: {found}"


def test_the_guard_sees_each_kind_of_generated_code():
    source = (
        "import dataclasses\n"
        "from dataclasses import dataclass\n"
        "from .dataclasses import x\n"
        "exec('y = 1')\n"
        "eval('1')\n"
        "obj.eval()\n"
    )
    assert _generated_code(ast.parse(source)) == [
        (1, "import dataclasses"),
        (2, "from dataclasses import ..."),
        (4, "exec(...)"),
        (5, "eval(...)"),
    ]
