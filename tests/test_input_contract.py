"""Input that breaks the documented contract fails fast with one JSON error
line: rationals outside ints and "p" / "p/q" strings, and JSON files that
the parser itself cannot read."""

import json
import os
import subprocess
import sys
from fractions import Fraction

import pytest

from mfboundary.arrangement import _parse_rational
from mfboundary.cli import main
from mfboundary.errors import InvalidInput

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


@pytest.mark.parametrize("text, value", [
    ("+7", Fraction(7)), ("-0/5", Fraction(0)), ("10/4", Fraction(5, 2)),
])
def test_rational_strings_in_the_contract_parse(text, value):
    assert Fraction(*_parse_rational(text)) == value


@pytest.mark.parametrize("text", [
    "1e20000", "1E3", "1.5", ".5", "1/2/3", "", "+", "/2", "1/", " 1", "1 ", "1_000",
    "0x10", "inf", "nan", "1/0", "١", "1" * 5000,
])
def test_rational_strings_outside_the_contract_are_rejected(text):
    with pytest.raises(InvalidInput):
        _parse_rational(text)


def test_an_exponent_coefficient_fails_fast_through_the_cli(tmp_path):
    # "1e600000" used to be expanded into a 600001-digit integer and the
    # arrangement accepted
    path = tmp_path / "in.json"
    path.write_text(json.dumps({"lines": [["1e600000", 0, 1], [0, 1, 0], [1, 1, 1]]}))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([SRC] + [p for p in [env.get("PYTHONPATH")] if p])
    out = subprocess.run(
        [sys.executable, "-m", "mfboundary.cli", "homology", str(path)],
        env=env, capture_output=True, text=True, timeout=10,
    )
    assert out.returncode == 1
    assert out.stdout == ""
    assert len(out.stderr.splitlines()) == 1
    assert json.loads(out.stderr)["error"] == "InvalidInput"


def one_json_error(capsys, path):
    code = main(["homology", str(path)])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1
    return json.loads(lines[0])["error"]


def test_a_huge_integer_in_an_arrangement_file_is_one_json_error(tmp_path, capsys):
    # json.load raises a plain ValueError past 4300 digits
    path = tmp_path / "arr.json"
    path.write_text('{"lines": [[' + "1" * 5000 + ", 0, 1], [0, 1, 0], [1, 1, 1]]}")
    assert one_json_error(capsys, path) == "InvalidInput"


def test_a_huge_integer_in_a_graph_file_is_one_json_error(tmp_path, capsys):
    path = tmp_path / "graph.json"
    path.write_text('{"vertices": [{"id": "x", "euler": ' + "1" * 5000 + '}], "edges": []}')
    assert one_json_error(capsys, path) == "InvalidInput"


def test_a_huge_integer_in_a_move_script_is_one_json_error(tmp_path, capsys):
    graph = tmp_path / "graph.json"
    graph.write_text('{"vertices": [{"id": "x", "euler": -1}], "edges": []}')
    script = tmp_path / "script.json"
    script.write_text("[" + "1" * 5000 + "]")
    code = main(["calculus", str(graph), "--script", str(script)])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert json.loads(captured.err)["error"] == "InvalidInput"


def test_json_nested_past_the_parser_limit_is_one_json_error(tmp_path, capsys):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100000)
    assert one_json_error(capsys, path) == "InvalidInput"


def test_a_file_that_is_not_utf8_is_one_json_error(tmp_path, capsys):
    path = tmp_path / "bin.json"
    path.write_bytes(b"\xff\xfe{}")
    assert one_json_error(capsys, path) == "InvalidInput"


@pytest.mark.parametrize("field", [
    {"kind": []}, {"kind": {}}, {"kind": ["line"]}, {"id": []}, {"id": {}},
    {"genus": []}, {"euler": {}}, {"mult": []}, {"dec": {}},
])
def test_an_unhashable_vertex_field_is_one_json_error(tmp_path, capsys, field):
    # the constructor must not look an unhashable value up in a set
    path = tmp_path / "graph.json"
    path.write_text(json.dumps({"vertices": [{"id": "x", "euler": -1, **field}], "edges": []}))
    assert one_json_error(capsys, path) == "InvalidInput"
