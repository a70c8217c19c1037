"""Rules every module of the package keeps, checked on its syntax tree."""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "mfboundary"
MODULES = sorted(SRC.glob("*.py"))

# the graph's private indexes; graph_core.py alone reads them, so every
# change to a graph goes through PlumbingGraph.edit
GRAPH_PRIVATE = {"_index", "_adj", "_store", "_build"}

# the paper's curve-configuration labels; the pipeline works the numbers out
# from the graph's structure, and only graph_core.py (checks, JSON, dot)
# reads them
LABELS = {"dec", "edge_type"}

OUTSIDE_GRAPH_CORE = [p for p in MODULES if p.name != "graph_core.py"]


def attribute_reads(path, names):
    """(line, name) of every attribute access to one of names in the file."""
    tree = ast.parse(path.read_text(), filename=str(path))
    return [(node.lineno, node.attr) for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and node.attr in names]


def test_the_package_is_found():
    assert {"graph_core.py", "homology.py", "calculus.py"} <= {p.name for p in MODULES}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_assert_statements(path):
    # python -O strips them; an invariant check must raise explicitly
    tree = ast.parse(path.read_text(), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert lines == []


@pytest.mark.parametrize("path", OUTSIDE_GRAPH_CORE, ids=lambda p: p.name)
def test_only_graph_core_reads_the_graph_indexes(path):
    assert attribute_reads(path, GRAPH_PRIVATE) == []


@pytest.mark.parametrize("path", OUTSIDE_GRAPH_CORE, ids=lambda p: p.name)
def test_only_graph_core_reads_the_labels(path):
    assert attribute_reads(path, LABELS) == []
