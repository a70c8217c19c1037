"""End-to-end command line tests, run in-process through main(argv)."""

import json
import os
import random
import subprocess
import sys

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from mfboundary.arrangement import generate_family, incidence_from_lines, random_rational_lines
from mfboundary import cli, generic_algebra, homology
from mfboundary.cli import main
from mfboundary.graph_core import PlumbingGraph, graph_from_json
from mfboundary.pipeline import boundary_graph
from oracles import component_count_betti


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_version(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert out.startswith("mfboundary ")


def test_generate_then_homology(tmp_path, capsys):
    arr = tmp_path / "arr.json"
    code, out, err = run_cli(capsys, "generate", "generic", "4", "-o", str(arr))
    assert code == 0
    data = json.loads(arr.read_text())
    assert data["n"] == 4
    assert len(data["points"]) == 6

    code, out, err = run_cli(capsys, "homology", str(arr), "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["h1"] == "Z^6 (+) Z_4"
    assert payload["rank"] == 6
    assert payload["factors"] == [4]
    assert payload["betti_formula"] == 6
    assert payload["graph_stats"]["vertices"] > 0


def test_homology_plain_text(tmp_path, capsys):
    arr = tmp_path / "arr.json"
    run_cli(capsys, "generate", "pencil", "4", "-o", str(arr))
    code, out, err = run_cli(capsys, "homology", str(arr))
    assert code == 0
    assert out == "H1 = Z^9\n"


def test_homology_reduce_agrees(tmp_path, capsys):
    arr = tmp_path / "arr.json"
    run_cli(capsys, "generate", "generic", "5", "-o", str(arr))
    code, full, _ = run_cli(capsys, "homology", str(arr), "--json")
    code2, red, _ = run_cli(capsys, "homology", str(arr), "--reduce", "--json")
    assert code == code2 == 0
    a, b = json.loads(full), json.loads(red)
    assert (a["h1"], a["rank"], a["factors"]) == (b["h1"], b["rank"], b["factors"])
    assert b["graph_stats"]["vertices"] < a["graph_stats"]["vertices"]


def test_homology_of_graph_file(tmp_path, capsys):
    gfile = tmp_path / "g.json"
    gfile.write_text(json.dumps({
        "vertices": [{"id": "v", "euler": -5, "genus": 0}],
        "edges": [],
    }))
    code, out, err = run_cli(capsys, "homology", str(gfile), "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["h1"] == "Z_5"
    assert payload["betti_formula"] is None


def expected_stats(g):
    return {"vertices": len(g.vertices), "edges": len(g.edges),
            "genus_total": sum(v.genus for v in g.vertices),
            "first_betti": component_count_betti(g)}


STATS_INPUTS = (
    [("generic", n, None) for n in range(2, 9)]
    + [("pencil", n, None) for n in range(2, 9)]
    + [("near_pencil", n, None) for n in range(3, 9)]
    + [("random", n, seed) for n in range(5, 8) for seed in range(3)]
)


@pytest.mark.parametrize("reduce", [False, True], ids=["raw", "reduce"])
@pytest.mark.parametrize("kind, n, seed", STATS_INPUTS,
                         ids=[f"{k}-{n}" + (f"-{s}" if s is not None else "")
                              for k, n, s in STATS_INPUTS])
def test_homology_json_graph_stats_count_the_graph(tmp_path, capsys, kind, n, seed, reduce):
    arr = tmp_path / "arr.json"
    if kind == "random":
        run_cli(capsys, "generate", "random", str(n), "--seed", str(seed), "-o", str(arr))
        inc = incidence_from_lines(random_rational_lines(n, random.Random(seed)))
    else:
        run_cli(capsys, "generate", kind, str(n), "-o", str(arr))
        inc = generate_family(kind, n)
    code, out, err = run_cli(capsys, "homology", str(arr), "--json", *["--reduce"] * reduce)
    assert code == 0 and err == ""
    assert json.loads(out)["graph_stats"] == expected_stats(boundary_graph(inc, reduce=reduce))


def test_homology_json_graph_stats_of_a_graph_file(tmp_path, capsys):
    # two components, one with a cycle, and genus on two vertices
    graph = {
        "vertices": [{"id": "a", "euler": -3, "genus": 1}, {"id": "b", "euler": -2},
                     {"id": "c", "euler": -2}, {"id": "d", "euler": 1, "genus": 2},
                     {"id": "e", "euler": -1}],
        "edges": [{"a": "a", "b": "b"}, {"a": "b", "b": "c", "sign": -1},
                  {"a": "c", "b": "a"}, {"a": "d", "b": "e"}],
    }
    gfile = tmp_path / "g.json"
    gfile.write_text(json.dumps(graph))
    code, out, err = run_cli(capsys, "homology", str(gfile), "--json")
    assert code == 0
    stats = json.loads(out)["graph_stats"]
    assert stats == expected_stats(graph_from_json(graph))
    assert stats == {"vertices": 5, "edges": 4, "genus_total": 3, "first_betti": 1}


@pytest.mark.parametrize("reduce", [[], ["--reduce"]], ids=["raw", "reduce"])
def test_homology_json_reads_the_edges_once(tmp_path, capsys, monkeypatch, reduce):
    # H1 and graph_stats come from one read of the graph
    arr = tmp_path / "arr.json"
    run_cli(capsys, "generate", "near_pencil", "5", "-o", str(arr))
    reads = 0
    edges = PlumbingGraph.edges

    def counted(g):
        nonlocal reads
        reads += 1
        return edges.fget(g)

    monkeypatch.setattr(PlumbingGraph, "edges", property(counted))
    code, out, err = run_cli(capsys, "homology", str(arr), "--json", *reduce)
    assert code == 0 and json.loads(out)["graph_stats"]["edges"] > 0
    assert reads == 1


@pytest.mark.parametrize("command", [["homology", "--json"], ["export-dot"]])
def test_reduce_on_a_graph_file_is_one_json_error(tmp_path, capsys, command):
    # the calculus recipes behind --reduce read the arrangement, which a
    # graph file does not carry
    gfile = tmp_path / "g.json"
    gfile.write_text(json.dumps({"vertices": [{"id": "v", "euler": -5}], "edges": []}))
    code, out, err = run_cli(capsys, command[0], str(gfile), *command[1:], "--reduce")
    payload = assert_one_json_error(code, out, err)
    assert payload["error"] == "InvalidInput"
    assert "--reduce" in payload["message"]


def test_betti_command(tmp_path, capsys):
    arr = tmp_path / "arr.json"
    run_cli(capsys, "generate", "near_pencil", "6", "-o", str(arr))
    code, out, err = run_cli(capsys, "betti", str(arr))
    assert code == 0
    assert out.strip() == "9"


@pytest.mark.parametrize("command", ["betti", "homology", "plumbing", "gamma-c",
                                     "probe-conjecture"])
@pytest.mark.parametrize("arrangement", [{"lines": [[1, 0, 0]]}, {"n": 1, "points": []}],
                         ids=["lines", "points"])
def test_one_line_is_the_same_size_error_for_every_command(tmp_path, capsys, command,
                                                           arrangement):
    path = tmp_path / "one.json"
    path.write_text(json.dumps(arrangement))
    payload = assert_one_json_error(*run_cli(capsys, command, str(path)))
    assert payload == {"error": "InvalidSize", "message": "need at least two lines, got n=1"}


def test_string_json_and_text(capsys):
    code, out, err = run_cli(capsys, "string", "1", "2", "7", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["cf"] == [2, 2, 3]
    assert payload["lambda"] == 5
    assert payload["end_mults"] == [1, 2]
    assert payload["double_arrow"] is False

    code, out, err = run_cli(capsys, "string", "1", "4", "4")
    assert code == 0
    assert "double arrow" in out


def test_gamma_c_json_and_dot(tmp_path, capsys):
    arr = tmp_path / "arr.json"
    run_cli(capsys, "generate", "generic", "3", "-o", str(arr))
    code, out, err = run_cli(capsys, "gamma-c", str(arr))
    assert code == 0
    gc = json.loads(out)
    ids = {v["id"] for v in gc["vertices"]}
    assert {"v0", "v1", "v2", "w0", "w1", "w2"} <= ids
    code, dot, err = run_cli(capsys, "gamma-c", str(arr), "--dot")
    assert code == 0
    assert dot.startswith("digraph")


def test_plumbing_roundtrips_into_calculus(tmp_path, capsys):
    arr = tmp_path / "arr.json"
    gfile = tmp_path / "graph.json"
    script = tmp_path / "script.json"
    run_cli(capsys, "generate", "generic", "2", "-o", str(arr))
    code, out, err = run_cli(capsys, "plumbing", str(arr), "-o", str(gfile))
    assert code == 0
    g = json.loads(gfile.read_text())
    # two lines, one double point chain vertex between them
    assert len(g["vertices"]) == 3
    eulers = sorted(v["euler"] for v in g["vertices"])
    assert eulers == [0, 0, 2]
    middle = next(v["id"] for v in g["vertices"] if v["euler"] == 2)
    script.write_text(json.dumps([
        {"kind": "two_alteration", "target": middle},
    ]))
    code, out, err = run_cli(
        capsys, "calculus", str(gfile), "--script", str(script), "--check-h1"
    )
    assert code == 0
    out_g = json.loads(out)
    assert len(out_g["vertices"]) == 3
    assert sorted(v["euler"] for v in out_g["vertices"]) == [-2, -1, -1]


def test_export_dot_from_arrangement(tmp_path, capsys):
    arr = tmp_path / "arr.json"
    run_cli(capsys, "generate", "generic", "3", "-o", str(arr))
    code, out, err = run_cli(capsys, "export-dot", str(arr))
    assert code == 0
    assert out.startswith("digraph")
    assert "label=" in out


def test_generate_random_is_seeded(tmp_path, capsys):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    run_cli(capsys, "generate", "random", "5", "--seed", "11", "-o", str(a))
    run_cli(capsys, "generate", "random", "5", "--seed", "11", "-o", str(b))
    assert a.read_text() == b.read_text()
    c = tmp_path / "c.json"
    run_cli(capsys, "generate", "random", "5", "--seed", "12", "-o", str(c))
    assert json.loads(c.read_text())["n"] == 5


def test_generic_check_output(capsys):
    code, out, err = run_cli(capsys, "generic-check", "--max-n", "4")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 3
    assert all(line.startswith("PASS n=") for line in lines)
    assert lines[0] == "PASS n=2: H1 = Z"
    assert lines[2] == "PASS n=4: H1 = Z^6 (+) Z_4"


def test_generic_check_hands_the_engine_A_n_rows(monkeypatch, capsys):
    def refuse(*args):
        raise AssertionError("generic-check made a dense round trip")

    monkeypatch.setattr(generic_algebra, "_dense", refuse)
    monkeypatch.setattr(homology, "_sparse_rows", refuse)
    code, out, err = run_cli(capsys, "generic-check", "--max-n", "12")
    assert code == 0 and err == ""
    assert [line.split(":")[0] for line in out.splitlines()] == [
        f"PASS n={n}" for n in range(2, 13)]


# name in cli, its wrong answer at n given the right one, and the FAIL note at n=4
GENERIC_CHECK_FAULTS = [
    ("expected_An_factors", lambda right, n: (right(n)[0], right(n)[1] + 1),
     "SNF([1, 1, 1, 1, 1, 1, 4], corank 3) unexpected"),
    ("check_lemma_identities", lambda right, n: {**right(n), "annihilation": False},
     "lemma identities failed: {'gram_blocks': True, 'normal_equations': True, "
     "'complement_blocks': True, 'annihilation': False}"),
    ("generic_h1_closed_form", lambda right, n: right(n + 1),
     "H1 mismatch: rank 6, torsion (4,) vs Z^10 (+) Z_5 (+) Z_5 (+) Z_5"),
]


@pytest.mark.parametrize("name,wrong,note", GENERIC_CHECK_FAULTS,
                         ids=[name for name, _, _ in GENERIC_CHECK_FAULTS])
def test_generic_check_reports_a_wrong_answer(monkeypatch, capsys, name, wrong, note):
    right = getattr(cli, name)
    monkeypatch.setattr(cli, name, lambda n: wrong(right, n) if n == 4 else right(n))
    code, out, err = run_cli(capsys, "generic-check", "--max-n", "5")
    assert code == 1 and err == ""
    lines = out.strip().splitlines()
    assert lines.pop(2) == f"FAIL n=4: {note}"
    assert [line.split(":")[0] for line in lines] == ["PASS n=2", "PASS n=3", "PASS n=5"]


def test_probe_conjecture_exit_code(tmp_path, capsys):
    arr = tmp_path / "arr.json"
    run_cli(capsys, "generate", "generic", "4", "-o", str(arr))
    code, out, err = run_cli(capsys, "probe-conjecture", str(arr))
    assert code == 0
    payload = json.loads(out)
    assert payload["all_hold"] is True
    assert payload["h1"] == "Z^6 (+) Z_4"


def test_missing_file_is_json_error(capsys):
    code, out, err = run_cli(capsys, "homology", "/nonexistent/file.json")
    assert code == 1
    payload = json.loads(err)
    assert payload["error"] == "FileNotFound"


def test_directory_input_is_json_error(tmp_path, capsys):
    code, out, err = run_cli(capsys, "homology", str(tmp_path))
    assert code == 1
    assert out == ""
    assert len(err.splitlines()) == 1
    assert json.loads(err)["error"] == "FileError"


def cli_subprocess(*argv, timeout):
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([src] + [p for p in [env.get("PYTHONPATH")] if p])
    return subprocess.run(
        [sys.executable, "-m", "mfboundary.cli", *argv],
        env=env, capture_output=True, text=True, timeout=timeout,
    )


def test_generate_random_beyond_the_box_fails_fast():
    # the coefficient box holds 49 distinct lines; asking for more used to
    # loop forever
    out = cli_subprocess("generate", "random", "50", timeout=60)
    assert out.returncode == 1
    assert out.stdout == ""
    assert len(out.stderr.splitlines()) == 1
    assert json.loads(out.stderr)["error"] == "InvalidSize"


@pytest.mark.parametrize("argv", [
    ("generate", "generic", "20000"),
    ("generic-check", "--max-n", "200"),
])
def test_oversized_runs_fail_fast(argv):
    # both ran for minutes before their size guards
    out = cli_subprocess(*argv, timeout=60)
    assert out.returncode == 1
    assert out.stdout == ""
    assert len(out.stderr.splitlines()) == 1
    assert json.loads(out.stderr)["error"] == "InvalidSize"


def test_bad_json_is_reported(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, out, err = run_cli(capsys, "homology", str(bad))
    assert code == 1
    payload = json.loads(err)
    assert payload["error"] == "InvalidInput"


def homology_of_payload(capsys, path, payload):
    path.write_text(json.dumps(payload))
    return run_cli(capsys, "homology", str(path))


def assert_one_json_error(code, out, err):
    assert code == 1
    assert out == ""
    lines = err.splitlines()
    assert len(lines) == 1
    return json.loads(lines[0])


@pytest.mark.parametrize("payload", [
    {"vertices": [{"euler": -1}], "edges": []},                      # vertex without "id"
    {"vertices": [{"id": "x", "euler": -1}], "edges": [{"a": "x"}]},  # edge without "b"
    {"vertices": [1], "edges": []},                                   # vertex row not an object
    {"vertices": [{"id": "x", "euler": -1}], "edges": ["x"]},         # edge row not an object
    {"vertices": {"id": "x"}, "edges": []},                           # rows not a list
    {"vertices": [{"id": "x", "euler": -1}], "edges": [{"a": ["x"], "b": "x"}]},
    {"vertices": [{"id": "x", "euler": -1, "dec": 5}], "edges": []},
    {"vertices": [{"id": "x", "euler": True, "genus": True}], "edges": []},  # true is not 1
    {"vertices": [{"id": "x", "euler": -1}, {"id": "y", "euler": -1}],
     "edges": [{"a": "x", "b": "y", "sign": True}]},
    {"n": 3, "points": [["a", 1]]},                                   # line label not an int
    {"n": 3, "points": [[0, 1], 2]},                                  # point row not a list
    {"n": 3, "points": [[0, [1]]]},
    {"n": True, "points": []},
    {"lines": [[1, 0, 0], 5]},                                        # line row not a list
])
def test_malformed_json_is_one_json_error(tmp_path, capsys, payload):
    result = homology_of_payload(capsys, tmp_path / "in.json", payload)
    assert assert_one_json_error(*result)["error"] == "InvalidInput"


def triangle(sign_key):
    """Three Euler -2 vertices in a cycle, "-" on the edge c-a under
    ``sign_key``: Z (+) Z_4, or Z^2 (+) Z_3 with a + there."""
    return {"vertices": [{"id": x, "euler": -2} for x in "abc"],
            "edges": [{"a": "a", "b": "b"}, {"a": "b", "b": "c"},
                      {"a": "c", "b": "a", sign_key: "-"}]}


# a payload with a key outside the shapes graph_to_json and incidence_to_json
# write, the message naming it, and the same payload as it was meant, with
# its group: read past the key, each would give another group
MISREAD = {
    "vertex key": ({"vertices": [{"id": "a", "euler": -2, "genuss": 1}], "edges": []},
                   "unknown vertex keys ['genuss']",
                   {"vertices": [{"id": "a", "euler": -2, "genus": 1}], "edges": []},
                   "Z^2 (+) Z_2"),
    "edge key": (triangle("sing"), "unknown edge keys ['sing']", triangle("sign"), "Z (+) Z_4"),
    "graph key": ({"vertices": [{"id": "a", "euler": -2}], "edges": [], "genus": 1},
                  "unknown graph JSON keys ['genus']",
                  {"vertices": [{"id": "a", "euler": -2, "genus": 1}], "edges": []},
                  "Z^2 (+) Z_2"),
    "arrangement key": ({"n": 4, "point": [[0, 1, 2, 3]], "points": []},
                        "unknown arrangement keys ['point']",
                        {"n": 4, "points": [[0, 1, 2, 3]]},
                        "Z^9"),
    "both forms": ({"lines": [[1, 0, 0], [0, 1, 0], [0, 0, 1]], "n": 4,
                    "points": [[0, 1, 2, 3]]},
                   'gives "lines" and "n"/"points"',
                   {"n": 4, "points": [[0, 1, 2, 3]]},
                   "Z^9"),
}


@pytest.mark.parametrize("case", MISREAD)
def test_a_key_outside_the_written_shapes_is_one_json_error(tmp_path, capsys, case):
    payload, message, meant, h1 = MISREAD[case]
    path = tmp_path / "in.json"
    path.write_text(json.dumps(payload))
    error = assert_one_json_error(*run_cli(capsys, "homology", str(path), "--json"))
    assert error["error"] == "InvalidInput" and message in error["message"], error
    path.write_text(json.dumps(meant))
    code, out, err = run_cli(capsys, "homology", str(path), "--json")
    assert code == 0 and json.loads(out)["h1"] == h1


_json_leaf = (st.none() | st.booleans() | st.integers(-3, 40) | st.floats()
              | st.text("xyvwa0+-/", max_size=3))
_json = st.recursive(
    _json_leaf,
    lambda inner: (st.lists(inner, max_size=4)
                   | st.dictionaries(st.text("abn", max_size=2), inner, max_size=3)),
    max_leaves=10,
)
_small = st.integers(-1, 5) | _json


def _rows(keys, values):
    rows = st.dictionaries(st.sampled_from(keys), values, max_size=len(keys))
    return st.lists(rows | _json, max_size=3)


# arbitrary JSON rarely has the keys the loaders look for, so most
# payloads are the three documented shapes filled with arbitrary values
_payloads = st.one_of(
    _json,
    st.fixed_dictionaries({"lines": st.lists(st.lists(_small, max_size=4) | _json, max_size=4)}),
    st.fixed_dictionaries({
        "n": _small,
        "points": st.lists(st.lists(_small, max_size=4) | _json, max_size=5),
    }),
    st.fixed_dictionaries({
        "vertices": _rows(["id", "genus", "euler", "mult", "kind", "dec"],
                          st.sampled_from(["x", "y", "arrowhead", "plain"]) | _small),
        "edges": _rows(["a", "b", "sign", "type", "arrow"],
                       st.sampled_from(["x", "y", "+", "-"]) | _small),
    }),
)


@settings(max_examples=250, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(payload=_payloads)
def test_homology_of_any_json_is_an_answer_or_one_json_error(tmp_path, capsys, payload):
    code, out, err = homology_of_payload(capsys, tmp_path / "in.json", payload)
    if code == 0:
        assert out.startswith("H1 = ") and err == ""
    else:
        assert "error" in assert_one_json_error(code, out, err)


def near_pencil_graph(capsys, tmp_path):
    """The plumbing graph file of the near-pencil arrangement of 4 lines."""
    arr, graph = tmp_path / "arr.json", tmp_path / "graph.json"
    if not graph.exists():
        run_cli(capsys, "generate", "near_pencil", "4", "-o", str(arr))
        run_cli(capsys, "plumbing", str(arr), "-o", str(graph))
    return graph


def calculus_of_script(capsys, tmp_path, script, *flags):
    path = tmp_path / "script.json"
    path.write_text(json.dumps(script))
    graph = near_pencil_graph(capsys, tmp_path)
    return run_cli(capsys, "calculus", str(graph), "--script", str(path), *flags)


@pytest.mark.parametrize("move", [
    {"kind": ["x"], "target": "v0"},
    {"kind": {"a": 1}, "target": "v0"},
    {"kind": 3, "target": "v0"},
    {"kind": None, "target": "v0"},
    {"kind": "blow_down_a", "target": ["x"]},
    {"kind": "blow_down_a", "target": {"a": 1}},
    {"kind": "blow_down_a", "target": 0},
    {"kind": "zero_chain_absorb", "target": "s0_0#0", "keep": ["v0"]},
    {"kind": "two_alteration", "target": "s0_0#0", "flip": {"a": 1}},
    {"kind": "split", "target": "v0", "companion": 1},
    {"kind": "two_alteration", "target": "s0_0#0", "flipp": "v1"},
    {"kind": "blow_down_a", "target": "v0", "unknown": None},
    {"kind": "blow_down_a", "target": "v0", "flip": "x"},
    {"kind": "sign_reversal", "target": "v0", "keep": "v1"},
    {"kind": "zero_chain_absorb", "target": "s0_0#0", "flip": "v0"},
    {"kind": "split", "target": "v0", "keep": "v1"},
    {"kind": "two_alteration", "target": "s0_0#0", "companion": "v0"},
])
def test_malformed_move_is_one_json_error(tmp_path, capsys, move):
    result = calculus_of_script(capsys, tmp_path, [move])
    assert assert_one_json_error(*result)["error"] == "InvalidInput"


_ids = st.sampled_from(["v0", "v3", "w0", "w3", "s0_0#0", "s3_3#0", "zz"])
_moves = st.fixed_dictionaries(
    {"kind": st.sampled_from(["blow_down_a", "blow_down_b", "sign_reversal",
                              "zero_chain_absorb", "handle_absorb", "split",
                              "two_alteration", "x"]) | _small,
     "target": _ids | _small},
    optional={"keep": _ids | _small, "flip": _ids | _small, "companion": _ids | _small},
)
_scripts = _json | st.lists(_moves | _json, max_size=4)


@settings(max_examples=250, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(script=_scripts, check_h1=st.booleans())
def test_calculus_of_any_script_is_a_graph_or_one_json_error(tmp_path, capsys, script, check_h1):
    flags = ["--check-h1"] if check_h1 else []
    code, out, err = calculus_of_script(capsys, tmp_path, script, *flags)
    if code == 0:
        assert "vertices" in json.loads(out) and err == ""
    else:
        assert "error" in assert_one_json_error(code, out, err)


def test_wrong_input_kind_is_reported(tmp_path, capsys):
    arr = tmp_path / "arr.json"
    run_cli(capsys, "generate", "generic", "3", "-o", str(arr))
    script = tmp_path / "s.json"
    script.write_text("[]")
    code, out, err = run_cli(capsys, "calculus", str(arr), "--script", str(script))
    assert code == 1
    assert json.loads(err)["error"] == "InvalidInput"


@pytest.mark.parametrize("command", ["gamma-c", "plumbing", "betti", "probe-conjecture"])
def test_arrangement_commands_refuse_a_graph_file(tmp_path, capsys, command):
    gfile = tmp_path / "g.json"
    gfile.write_text(json.dumps({"vertices": [{"id": "v", "euler": -5}], "edges": []}))
    payload = assert_one_json_error(*run_cli(capsys, command, str(gfile)))
    assert payload == {"error": "InvalidInput",
                       "message": f"{command} expects an arrangement, not a graph"}


def test_string_error_path(capsys):
    code, out, err = run_cli(capsys, "string", "1", "2", "0")
    assert code == 1
    payload = json.loads(err)
    assert payload["error"] == "InvalidInput"


def test_string_too_long_to_print_fails_fast():
    # Str(3, 5; 10^20) has about 6.7e18 interior vertices
    out = cli_subprocess("string", "3", "5", str(10**20), timeout=10)
    assert out.returncode == 1
    assert out.stdout == ""
    assert len(out.stderr.splitlines()) == 1
    assert json.loads(out.stderr)["error"] == "InvalidSize"


def test_export_dot_rejects_an_arrow_field_that_is_not_a_boolean(tmp_path, capsys):
    path = tmp_path / "g.json"
    path.write_text(json.dumps({
        "vertices": [{"id": "x", "euler": -1}, {"id": "h", "kind": "arrowhead"}],
        "edges": [{"a": "x", "b": "h", "arrow": "no"}],
    }))
    result = run_cli(capsys, "export-dot", str(path))
    assert assert_one_json_error(*result)["error"] == "InvalidInput"


def test_identical_lines_are_one_json_error(tmp_path, capsys):
    result = homology_of_payload(capsys, tmp_path / "in.json",
                                 {"lines": [[1, 0, 0], [0, 1, 0], [2, 0, 0]]})
    payload = assert_one_json_error(*result)
    assert payload == {"error": "IdenticalLines", "message": "lines 0 and 2 coincide"}


def test_string_b_multiple_of_c_is_double_arrow(capsys):
    code, out, err = run_cli(capsys, "string", "1", "9", "3")
    assert code == 0
    assert "double arrow" in out


def test_string_text_shows_all_three_parameters(capsys):
    code, out, err = run_cli(capsys, "string", "2", "3", "5")
    assert code == 0
    assert out.startswith("Str(2,3;5):")


@pytest.mark.parametrize("argv,names", [
    (["generate", "generic", "x"], "invalid int value"),
    ([], "required: command"),
    (["bogus"], "invalid choice"),
    (["calculus", "g.json"], "required: --script"),
    (["generic-check", "--max-n", "1"], "--max-n must be at least 2"),
], ids=["bad integer", "no subcommand", "unknown subcommand", "calculus without --script",
        "generic-check below 2"])
def test_usage_errors_are_one_json_error(capsys, argv, names):
    payload = assert_one_json_error(*run_cli(capsys, *argv))
    assert payload["error"] == "InvalidInput"
    assert names in payload["message"]


@pytest.mark.parametrize("argv", [["--help"], ["generate", "--help"]])
def test_help_still_exits_zero(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: mfboundary")
