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

# the one import inside a function: reduction imports calculus, which
# imports homology, which imports pipeline
LATE_IMPORTS = {("pipeline.py", "boundary_graph", ".reduction")}

# a package's __init__ imports its public names for its users
NOT_INIT = [p for p in MODULES if p.name != "__init__.py"]


def imports(path):
    """(line, module, bound name, imported name) of every name the file
    imports; module is None for a plain ``import``."""
    tree = ast.parse(path.read_text(), filename=str(path))
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            out += [(node.lineno, None, (a.asname or a.name).split(".")[0], a.name)
                    for a in node.names]
        elif isinstance(node, ast.ImportFrom):
            module = "." * node.level + (node.module or "")
            out += [(node.lineno, module, a.asname or a.name, a.name) for a in node.names]
    return out


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


@pytest.mark.parametrize("path", NOT_INIT, ids=lambda p: p.name)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = [(line, name) for line, module, name, _ in imports(path)
              if module != "__future__" and name not in used]
    assert unused == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_private_names_imported_across_modules(path):
    # a module's _private names are free to change without its callers
    private = [(line, module, name) for line, module, _, name in imports(path)
               if module is not None and module.startswith((".", "mfboundary"))
               and name.startswith("_") and not name.startswith("__")]
    assert private == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_imports_are_at_module_level(path):
    # an import inside a function hides a dependency and runs on every call
    tree = ast.parse(path.read_text(), filename=str(path))
    late = set()
    for func in ast.walk(tree):
        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for node in ast.walk(func):
                if isinstance(node, ast.Import):
                    late |= {(path.name, func.name, a.name) for a in node.names}
                elif isinstance(node, ast.ImportFrom):
                    late.add((path.name, func.name, "." * node.level + (node.module or "")))
    assert late <= LATE_IMPORTS
