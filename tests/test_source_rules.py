"""Rules every module of the package keeps, checked on its syntax tree."""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "mfboundary"
MODULES = sorted(SRC.glob("*.py"))

# the graph's private indexes; graph_core.py alone reads them, so every
# change to a graph goes through PlumbingGraph.edit
GRAPH_PRIVATE = {"_index", "_adj", "_store", "_build"}


def test_the_package_is_found():
    assert {"graph_core.py", "homology.py", "calculus.py"} <= {p.name for p in MODULES}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_assert_statements(path):
    # python -O strips them; an invariant check must raise explicitly
    tree = ast.parse(path.read_text(), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert lines == []


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "graph_core.py"],
                         ids=lambda p: p.name)
def test_only_graph_core_reads_the_graph_indexes(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    reads = [(node.lineno, node.attr) for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and node.attr in GRAPH_PRIVATE]
    assert reads == []
