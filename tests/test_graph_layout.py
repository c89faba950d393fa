"""No ``relend`` module but ``coset_graph`` reads the layout of a ball.

A ``CosetGraph`` keeps its edges as id rows, a last-sphere table and one
step-letter tuple; ``coset_graph`` alone builds and reads them, so a change
of layout touches one module.  Every other module reads a ball through its
public lists and methods and the functions of ``coset_graph``.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "relend"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "coset_graph.py")
LAYOUT = {
    "_rows",
    "_last_ids",
    "_last_steps",
    "_step_last",
    "_neighbour_ids",
    "_step_letters",
}


def _layout_reads(source: str) -> list[tuple[str, int]]:
    """The layout attributes the source reads, with their line numbers."""
    return sorted(
        (node.attr, node.lineno)
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Attribute) and node.attr in LAYOUT
    )


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_only_coset_graph_reads_the_ball_layout(path):
    reads = _layout_reads(path.read_text())
    assert not reads, f"{path.name} reads CosetGraph layout attributes: {reads}"


def test_the_guard_sees_a_layout_read():
    # a shell pass that reads the rows and the last-sphere table itself
    source = "rows, last = graph._rows, len(graph._rows)\nmore = graph._last_ids\n"
    assert _layout_reads(source) == [("_last_ids", 2), ("_rows", 1), ("_rows", 1)]
