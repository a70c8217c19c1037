"""Rules every module of the package keeps, checked on its syntax tree."""

import ast
import os
import pathlib
import subprocess
import sys
import tokenize

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "mfboundary"
MODULES = sorted(SRC.glob("*.py"))

# the graph's private indexes; graph_core.py alone reads them, so every
# change to a graph goes through PlumbingGraph.edit
GRAPH_PRIVATE = {"_index", "_adj", "_edge_keys", "_store", "_build"}

# the paper's curve-configuration labels; the pipeline works the numbers out
# from the graph's structure, and only graph_core.py (checks, JSON, dot)
# reads them
LABELS = {"dec", "edge_type"}

# the math functions that take and give integers; the rest work in floats
INTEGER_MATH = {"gcd", "lcm", "prod", "isqrt", "comb"}

OUTSIDE_GRAPH_CORE = [p for p in MODULES if p.name != "graph_core.py"]

# what the package never imports: a CLI start pays for every module it
# loads, and these load inspect, ast, dis, tokenize and decimal with them
SLOW_IMPORTS = ("dataclasses", "fractions")

# a package's __init__ imports its public names for its users
NOT_INIT = [p for p in MODULES if p.name != "__init__.py"]

# the shortest run of code lines that counts as written twice
DUPLICATE_RUN = 5

# the prefixes of the structured vertex ids: line "v3", point "w5",
# arrowhead "a2" and string vertex "s1_4#0"
ID_PREFIXES = {"v", "w", "a", "s"}


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


def float_arithmetic(path):
    """(line, what) of every float operation in the file: a true division,
    a float or complex literal, a call of float, complex or round, or a
    math function other than the integer ones."""
    tree = ast.parse(path.read_text(), filename=str(path))
    found = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div):
            found.append((node.lineno, "/"))
        elif isinstance(node, ast.Constant) and type(node.value) in (float, complex):
            found.append((node.lineno, repr(node.value)))
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id in ("float", "complex", "round")):
            found.append((node.lineno, node.func.id))
        elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
              and node.value.id == "math" and node.attr not in INTEGER_MATH):
            found.append((node.lineno, "math." + node.attr))
        elif isinstance(node, ast.ImportFrom) and node.module == "math":
            found += [(node.lineno, "math." + a.name) for a in node.names
                      if a.name not in INTEGER_MATH]
    return sorted(found)


def import_time_work(path):
    """(line, what) of every loop, comprehension and call the module body
    runs when it is imported, a call of ``re.compile`` excepted.  The body is
    the module's top-level statements outside function and class
    definitions, which only define names, and outside the
    ``if __name__ == "__main__"`` block, which a script run alone reaches."""
    tree = ast.parse(path.read_text(), filename=str(path))
    found = []
    for stmt in tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue
        if isinstance(stmt, ast.If) and ast.unparse(stmt.test) == "__name__ == '__main__'":
            continue
        for node in ast.walk(stmt):
            if isinstance(node, (ast.For, ast.AsyncFor, ast.While, ast.ListComp, ast.SetComp,
                                 ast.DictComp, ast.GeneratorExp)):
                found.append((node.lineno, type(node).__name__))
            elif isinstance(node, ast.Call) and ast.unparse(node.func) != "re.compile":
                found.append((node.lineno, ast.unparse(node.func)))
    return found


def test_the_package_is_found():
    assert {"graph_core.py", "homology.py", "calculus.py"} <= {p.name for p in MODULES}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_assert_statements(path):
    # python -O strips them; an invariant check must raise explicitly
    tree = ast.parse(path.read_text(), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert lines == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_float_arithmetic(path):
    # every answer is exact: integers throughout, and a division that must
    # come out even is written //
    found = float_arithmetic(path)
    assert not found, "; ".join(f"{path.name}:{line}: {what}" for line, what in found)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_bodies_do_no_work_at_import(path):
    # every CLI start and every caller's import runs the module bodies, and
    # with no bytecode cache nothing of that is kept between runs: a table
    # built at import is paid by every start, used or not
    found = import_time_work(path)
    assert not found, "; ".join(f"{path.name}:{line}: {what}" for line, what in found)


def test_import_time_work_sees_loops_comprehensions_and_calls(tmp_path):
    path = tmp_path / "body.py"
    path.write_text("import re\n"
                    "PATTERN = re.compile('x')\n"
                    "PRIMES = [p for p in range(2, 9)]\n"
                    "for k in ():\n"
                    "    pass\n"
                    "TABLE = dict(a=1)\n"
                    "def f():\n"
                    "    return [k for k in range(3)]\n"
                    "if __name__ == '__main__':\n"
                    "    f()\n")
    assert import_time_work(path) == [(3, "ListComp"), (3, "range"), (4, "For"), (6, "dict")]


def structured_ids(path):
    """(line, text) of every f-string in the file that formats a structured
    vertex id: its literal head is one of the id prefixes, and a formatted
    value follows it, as in f"w{j}" or f"s{i}_{j}#{pos}"."""
    tree = ast.parse(path.read_text(), filename=str(path))
    return sorted((node.lineno, ast.unparse(node)) for node in ast.walk(tree)
                  if isinstance(node, ast.JoinedStr) and len(node.values) > 1
                  and isinstance(node.values[0], ast.Constant)
                  and node.values[0].value in ID_PREFIXES
                  and isinstance(node.values[1], ast.FormattedValue))


@pytest.mark.parametrize("path", OUTSIDE_GRAPH_CORE, ids=lambda p: p.name)
def test_only_graph_core_writes_the_vertex_ids(path):
    # graph_core's id helpers write each prefix once, beside the parser of
    # the canonical order; an id formatted elsewhere could drift from both.
    # calculus.split's "z{k}" ids are not of the scheme and sort last.
    found = structured_ids(path)
    assert not found, "; ".join(f"{path.name}:{line}: {text}" for line, text in found)


def test_structured_ids_sees_the_id_scheme_only(tmp_path):
    path = tmp_path / "ids.py"
    path.write_text('def f(i, j, k):\n'
                    '    a = [f"w{j}", f"s{i}_{j}#{k}", f"a{i!r}"]\n'
                    '    b = f"v{i}" if k else "v0"\n'
                    '    return f"z{k}", f"vertex {i}", f"{i}v", f"ab{i}", f"s", a, b\n')
    assert structured_ids(path) == [(2, "f'a{i!r}'"), (2, "f's{i}_{j}#{k}'"), (2, "f'w{j}'"),
                                    (3, "f'v{i}'")]


def direct_writes(func):
    """(line, what) of every write the function's body makes by itself, not
    through a call it hands its data to: an assignment to a subscript, a
    ``del``, a ``nonlocal`` and a call of a method ``add`` or ``discard``."""
    found = []
    for node in ast.walk(func):
        if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign, ast.For)):
            targets = list(node.targets) if isinstance(node, ast.Assign) else [node.target]
            while targets:
                t = targets.pop()
                if isinstance(t, (ast.Tuple, ast.List)):
                    targets += t.elts
                elif isinstance(t, ast.Starred):
                    targets.append(t.value)
                elif isinstance(t, ast.Subscript):
                    found.append((t.lineno, "subscript"))
        elif isinstance(node, ast.Delete):
            found.append((node.lineno, "del"))
        elif isinstance(node, ast.Nonlocal):
            found.append((node.lineno, "nonlocal"))
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
              and node.func.attr in ("add", "discard")):
            found.append((node.lineno, "." + node.func.attr))
    return sorted(found)


def nested_function(path, outer, inner):
    """The definition of function ``inner`` nested in function ``outer``."""
    tree = ast.parse(path.read_text(), filename=str(path))
    return next(node for top in tree.body
                if isinstance(top, ast.FunctionDef) and top.name == outer
                for node in ast.walk(top)
                if isinstance(node, ast.FunctionDef) and node.name == inner)


def test_the_bezout_step_changes_rows_only_through_row_op():
    # the engine keeps its column index, its nonzero count and its unit
    # heap in step in row_op; a step that wrote rows itself would have to
    # keep all three by hand
    bezout = nested_function(SRC / "homology.py", "_invariant_factors", "bezout")
    assert direct_writes(bezout) == []


def test_direct_writes_sees_subscripts_del_nonlocal_and_set_calls(tmp_path):
    path = tmp_path / "writes.py"
    path.write_text("def outer(rows, cols):\n"
                    "    n = 0\n"
                    "    def inner(r, c):\n"
                    "        nonlocal n\n"
                    "        rows[r] = {}\n"
                    "        rows[r][c] += 1\n"
                    "        a, rows[c] = 1, {}\n"
                    "        del rows[r]\n"
                    "        cols[c].add(r)\n"
                    "        cols[c].discard(r)\n"
                    "        i, r = r, i\n"
                    "        return rows.get(r)\n")
    assert direct_writes(nested_function(path, "outer", "inner")) == [
        (4, "nonlocal"), (5, "subscript"), (6, "subscript"), (7, "subscript"), (8, "del"),
        (9, ".add"), (10, ".discard")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_only_arrangement_imports_fractions(path):
    # no module imports fractions or dataclasses, the parser's included
    # (the name is older than the rule): the parser reads a "p/q" string as
    # two ints, every later stage works in plain integers, and the value
    # types are records (record.py)
    found = [(line, module or name) for line, module, _, name in imports(path)
             if {module, name.split(".")[0]} & set(SLOW_IMPORTS)]
    assert found == []


def test_the_cli_imports_no_slow_module():
    # the modules the CLI's own imports load, beyond what the interpreter
    # and site had loaded before
    code = ("import sys; before = set(sys.modules); import mfboundary.cli; "
            "print(' '.join(sorted(set(sys.modules) - before)))")
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout.split()
    assert "mfboundary.cli" in out
    assert set(out) & {"dataclasses", "inspect", "fractions", "decimal"} == set()


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
    assert late == set()


def import_cycle():
    """The first cycle among the package's modules, linked by every relative
    import at any nesting level, as [m1, m2, ..., m1]; None if there is none.
    ``from . import name`` links to the module ``name`` if there is one and
    to ``__init__`` otherwise."""
    names = {p.stem for p in MODULES}
    links = {
        p.stem: sorted({module.lstrip(".") or (name if name in names else "__init__")
                        for _, module, _, name in imports(p)
                        if module is not None and module.startswith(".")})
        for p in MODULES
    }
    done, path = set(), []

    def visit(m):
        if m in path:
            return path[path.index(m):] + [m]
        if m in done:
            return None
        path.append(m)
        cycle = next(filter(None, map(visit, links[m])), None)
        path.pop()
        done.add(m)
        return cycle

    return next(filter(None, map(visit, sorted(links))), None)


def test_module_imports_form_no_cycle():
    # a cycle forces an import into a function, or makes import order matter
    cycle = import_cycle()
    assert cycle is None, "import cycle: " + " -> ".join(cycle)


def code_lines(path):
    """(line, text) of every line of the file that holds code, its tokens
    joined by single spaces: comments (found by tokenize, since a string
    may hold a #), docstrings, blank lines and import statements left out."""
    tree = ast.parse(path.read_text(), filename=str(path))
    skip = set()
    for node in ast.walk(tree):
        body = getattr(node, "body", None)
        first = body[0] if isinstance(body, list) and body else None
        if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)):
            skip.update(range(first.lineno, first.end_lineno + 1))
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            skip.update(range(node.lineno, node.end_lineno + 1))
    text = {}
    with path.open("rb") as fh:
        for tok in tokenize.tokenize(fh.readline):
            if tok.type in (tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
                            tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER):
                continue
            if tok.start[0] not in skip:
                text.setdefault(tok.start[0], []).append(tok.string)
    return [(line, " ".join(parts)) for line, parts in sorted(text.items())]


def duplicated_runs(paths, size=DUPLICATE_RUN):
    """The places where a run of ``size`` consecutive code lines appears
    more than once in the files, one tuple of "file:line" per run: a run
    one code line on, at places that each continue a run, is the same run
    extended."""
    where = {}
    for path in paths:
        lines = code_lines(path)
        for k in range(len(lines) - size + 1):
            key = tuple(text for _, text in lines[k:k + size])
            where.setdefault(key, []).append((path.name, k, lines[k][0]))
    runs = [places for places in where.values() if len(places) > 1]
    starts = {(name, k) for places in runs for name, k, _ in places}
    return [tuple(f"{name}:{line}" for name, _, line in places) for places in runs
            if not all((name, k - 1) in starts for name, k, _ in places)]


def test_no_code_is_written_twice():
    # a fact written twice can be changed in one place and not the other
    assert duplicated_runs(MODULES) == []


def test_duplicated_runs_sees_code_but_no_comment_docstring_or_import(tmp_path):
    one, two = tmp_path / "one.py", tmp_path / "two.py"
    one.write_text('import os\n'
                   'def f(rows):\n'
                   '    """Five lines, twice."""\n'
                   '    ids = ["s1_4#0"]  # a comment\n'
                   '    for r in rows:\n'
                   '        ids.append(r)\n'
                   '\n'
                   '    ids.sort()\n'
                   '    return ids\n')
    two.write_text('import sys\n'
                   'def f(rows):\n'
                   '    """A docstring of its own."""\n'
                   '    ids = [ "s1_4#0" ]\n'
                   '    # no comment counts\n'
                   '    for r in rows:\n'
                   '        ids.append(r)\n'
                   '    ids.sort()\n'
                   '    return ids\n'
                   'def g(rows):\n'
                   '    for r in rows:\n'
                   '        ids.append(r)\n'
                   '    ids.sort()\n'
                   '    return rows\n')
    assert code_lines(one) == [(2, "def f ( rows ) :"), (4, 'ids = [ "s1_4#0" ]'),
                               (5, "for r in rows :"), (6, "ids . append ( r )"),
                               (8, "ids . sort ( )"), (9, "return ids")]
    assert duplicated_runs([one, two]) == [("one.py:2", "two.py:2")]
    assert duplicated_runs([one, two], size=3) == [("one.py:2", "two.py:2"),
                                                    ("one.py:5", "two.py:6", "two.py:11")]
