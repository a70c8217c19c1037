"""Every name the benchmark harness imports from the program exists.

perfbench/run.py loads the program through the names in its PROGRAM_NAMES
table, so a name deleted or renamed in src/ would otherwise show only when
the benchmark runs.  The table is read from the file's syntax tree; the
harness itself is not imported."""

import ast
import importlib
from pathlib import Path

RUN = Path(__file__).resolve().parent.parent / "perfbench" / "run.py"


def program_names() -> dict:
    for node in ast.parse(RUN.read_text()).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "PROGRAM_NAMES" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError(f"{RUN} assigns no PROGRAM_NAMES")


def test_every_name_the_benchmark_imports_exists():
    names = program_names()
    assert names and all(names.values())
    missing = [
        f"{module}.{name}"
        for module, listed in names.items()
        for name in listed
        if not hasattr(importlib.import_module(module), name)
    ]
    assert missing == []
