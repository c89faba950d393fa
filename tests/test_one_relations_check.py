"""One function decides how a cocycle's relations are checked.

``verify`` and ``trivialize`` print the same ``relations`` line for a file
because both call ``trivialize.check_relations``, which proves the relations
of an explicit zmod or zd table and samples them otherwise.  A second caller
of ``prove_relations`` or ``verify_relations`` inside the package could
decide differently, as ``Trivializer.run`` once did by sampling every file;
so no other function calls them, and ``cli`` does not import them.
Definitions and the package's re-exports are not calls and do not count.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "relend"
CHECKS = {"prove_relations", "verify_relations"}
THE_CALLER = ("trivialize", "check_relations")


def _calls(tree: ast.Module, names=CHECKS) -> list[tuple[str, int]]:
    """(enclosing top-level function or class, line) for each call of a
    function in ``names``, a relations check by default, by name or as an
    attribute."""
    out = []
    for top in tree.body:
        owner = getattr(top, "name", "<module>")
        for node in ast.walk(top):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", "")
                if name in names:
                    out.append((owner, node.lineno))
    return out


def _imports(tree: ast.Module) -> list[str]:
    names = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names += [alias.name.split(".")[-1] for alias in node.names]
    return [name for name in names if name in CHECKS]


def test_only_check_relations_calls_a_relations_check():
    callers = {
        (path.stem, owner)
        for path in sorted(PACKAGE.glob("*.py"))
        for owner, _ in _calls(ast.parse(path.read_text()))
    }
    assert callers == {THE_CALLER}


def test_cli_imports_no_relations_check():
    assert _imports(ast.parse((PACKAGE / "cli.py").read_text())) == []


def test_the_guard_sees_each_kind_of_call_and_import():
    source = (
        "from .cocycles import prove_relations, plant_cocycle\n"
        "import relend.cocycles.verify_relations\n"
        "def prove_relations():\n"
        "    pass\n"
        "def f(c):\n"
        "    return prove_relations(c)\n"
        "class T:\n"
        "    def run(self):\n"
        "        cocycles.verify_relations(self.c)\n"
        "x = [verify_relations]\n"
    )
    tree = ast.parse(source)
    assert _calls(tree) == [("f", 6), ("T", 9)]
    assert _imports(tree) == ["prove_relations", "verify_relations"]
