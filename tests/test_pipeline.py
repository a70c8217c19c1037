"""String insertion, Euler solving and the assembled boundary graphs."""

import json
import random
import tracemalloc

import pytest

from mfboundary import cli, pipeline
from mfboundary.arrangement import (
    IncidenceData,
    generate_family,
    incidence_from_lines,
    incidence_to_json,
    random_rational_lines,
)
from mfboundary.arrangement import ProjLine
from mfboundary.errors import (
    InvalidInput,
    InvalidSize,
    MFBoundaryError,
    NonIntegralEuler,
    UnsupportedLoop,
)
from mfboundary.graph_core import Edge, PlumbingGraph, Vertex
from mfboundary.homology import homology_of_graph
from mfboundary.pipeline import (
    boundary_graph,
    build_gamma_c,
    decorate_and_insert,
    point_genus,
    probe_conjecture,
    solve_euler,
    strip_arrowheads,
)
from mfboundary.reduction import reduce_double_chains


@pytest.mark.parametrize("m,n,g", [
    (2, 2, 0), (2, 9, 0), (3, 3, 1), (3, 4, 0), (3, 6, 1),
    (4, 4, 3), (4, 6, 1), (5, 5, 6), (5, 10, 6), (6, 9, 4),
])
def test_point_genus_values(m, n, g):
    assert point_genus(m, n) == g


def check_multiplicity_equation(g: PlumbingGraph):
    """e_v m_v + sum of sign * m_other = 0 at every non-arrowhead vertex;
    arrowhead ends count with multiplicity 1."""
    for v in g.vertices:
        if v.kind == "arrowhead":
            continue
        acc = v.euler * v.mult
        for e in g.edges_at(v.id):
            other = g.vertex(e.other(v.id))
            acc += e.sign * (1 if other.kind == "arrowhead" else other.mult)
        assert acc == 0, (v.id, acc)


@pytest.mark.parametrize("fam,n", [
    ("generic", 2), ("generic", 3), ("generic", 4), ("generic", 5),
    ("generic", 6), ("pencil", 3), ("pencil", 7), ("near_pencil", 4),
    ("near_pencil", 7),
])
def test_solved_graphs_satisfy_multiplicity_equation(fam, n):
    inserted = decorate_and_insert(build_gamma_c(generate_family(fam, n)))
    solved = solve_euler(inserted)
    check_multiplicity_equation(solved)
    closed = strip_arrowheads(solved)
    assert closed.is_closed()
    assert all(v.kind != "arrowhead" for v in closed.vertices)


def test_raw_generic_2():
    g = boundary_graph(generate_family("generic", 2))
    assert {v.id: (v.euler, v.mult) for v in g.vertices} == {
        "v0": (0, 1), "v1": (0, 1), "w0": (2, 1),
    }
    assert sorted((e.a, e.b, e.sign) for e in g.edges) == [
        ("v0", "w0", -1), ("v1", "w0", -1),
    ]


def test_raw_generic_3():
    g = boundary_graph(generate_family("generic", 3))
    by_id = {v.id: v for v in g.vertices}
    assert all(by_id[f"v{i}"].euler == 1 for i in range(3))
    # double points of an odd-n arrangement keep multiplicity 2 and get
    # one +3 chain vertex toward each line
    ws = [v for v in g.vertices if v.id.startswith("w")]
    assert all(v.euler == 1 and v.mult == 2 for v in ws)
    ss = [v for v in g.vertices if v.id.startswith("s")]
    assert len(ss) == 6 and all(v.euler == 3 and v.mult == 1 for v in ss)
    assert len(g.vertices) == 12


def test_raw_generic_4():
    g = boundary_graph(generate_family("generic", 4))
    by_kind = {}
    for v in g.vertices:
        by_kind.setdefault(v.id[0], []).append(v)
    # even n: the double point vertex drops to multiplicity 1, euler 2,
    # with a single +2 chain vertex toward each line
    assert all(v.euler == 2 and v.mult == 1 for v in by_kind["v"])
    assert all(v.euler == 2 and v.mult == 1 for v in by_kind["w"])
    assert all(v.euler == 2 and v.mult == 1 for v in by_kind["s"])
    assert (len(by_kind["v"]), len(by_kind["w"]), len(by_kind["s"])) == (4, 6, 12)


def test_raw_pencil_star():
    g = boundary_graph(generate_family("pencil", 4))
    w = g.vertex("w0")
    assert (w.euler, w.genus, w.mult) == (4, 3, 1)
    for i in range(4):
        assert g.vertex(f"v{i}").euler == 0
    assert sorted((e.a, e.b, e.sign) for e in g.edges) == [
        (f"v{i}", "w0", -1) for i in range(4)
    ]


def test_raw_near_pencil_4():
    g = boundary_graph(generate_family("near_pencil", 4))
    data = {v.id: (v.euler, v.genus, v.mult) for v in g.vertices}
    assert data["w0"] == (1, 0, 3)          # the big point
    assert data["v3"] == (2, 0, 1)          # the generic line
    for i in range(3):
        assert data[f"v{i}"] == (1, 0, 1)   # pencil lines
        assert data[f"s{i}_0#0"] == (4, 0, 1)  # big-point chains
    assert data["w1"] == (2, 0, 1)


def test_string_vertices_sit_between_line_and_point():
    g = boundary_graph(generate_family("generic", 5))
    # every chain runs v_i - s_{i}_{j}#0 - s_{i}_{j}#1 - w_j with all minus
    assert all(e.sign == -1 for e in g.edges)
    for e in g.edges:
        if e.a.startswith("s") and e.b.startswith("w"):
            assert e.a.endswith("#1")
    neigh = g.neighbors("s0_0#0")
    assert neigh == ["v0", "s0_0#1"] or sorted(neigh) == ["s0_0#1", "v0"]


def test_solve_euler_rejects_loops():
    v = Vertex(id="x", mult=1)
    g = PlumbingGraph(vertices=(v,), edges=(Edge(a="x", b="x", sign=-1),))
    with pytest.raises(UnsupportedLoop):
        solve_euler(g)


def test_solve_euler_rejects_non_integral():
    # 2 e = 1 has no integer solution
    g = PlumbingGraph(
        vertices=(Vertex(id="p", mult=2), Vertex(id="q", mult=1, euler=None)),
        edges=(Edge(a="p", b="q", sign=1),),
    )
    with pytest.raises(NonIntegralEuler):
        solve_euler(g)


def test_boundary_graph_braid_like_size():
    coeffs = [[1, 0, 0], [0, 1, 0], [0, 0, 1],
              [1, -1, 0], [0, 1, -1], [-1, 0, 1]]
    inc = incidence_from_lines(
        [ProjLine.from_coeffs(c, label=i) for i, c in enumerate(coeffs)]
    )
    g = boundary_graph(inc)
    assert len(g.vertices) == 37
    assert g.is_closed() and g.is_simple()
    solved = solve_euler(decorate_and_insert(build_gamma_c(inc)))
    check_multiplicity_equation(solved)


def generic_5_gamma_c():
    return build_gamma_c(generate_family("generic", 5))


@pytest.mark.parametrize("relabel", [
    Vertex(id="w0", kind="point", dec=(5, 5, 1)),  # point w0 claims m = 5
    Vertex(id="v4", kind="line", dec=(1, 7, 1)),   # line v4 claims n = 7
])
def test_insertion_reads_the_structure_not_the_labels(relabel):
    gc = generic_5_gamma_c()
    assert decorate_and_insert(gc.edit(put=[relabel])) == decorate_and_insert(gc)


def _arrow_to(vid, head="a9"):
    return dict(add_vertices=[Vertex(id=head, kind="arrowhead", dec=(1, 0, 1))],
                add_edges=[Edge(a=vid, b=head, sign=1, edge_type=1, arrow=True)])


@pytest.mark.parametrize("edit,names", [
    (dict(drop=["a0"]), "line v0"),
    (_arrow_to("v0"), "line v0"),
    (_arrow_to("w0"), "w0--a9"),
    (dict(add_edges=[Edge(a="w0", b="w9", edge_type=2)]), "w0--w9"),
    (dict(add_edges=[Edge(a="v0", b="v1", edge_type=2)]), "v0--v1"),
    (dict(add_edges=[Edge(a="w0", b="v0", edge_type=2)]), "w0--v0"),
    (dict(add_vertices=[Vertex(id="w10", kind="point", dec=(1, 5, 1))],
          add_edges=[Edge(a="v0", b="w10", edge_type=2)]), "point w10"),
    (dict(add_vertices=[Vertex(id="x", kind="plain")]), "at x"),
], ids=["line without arrow", "line with two arrows", "arrow at a point",
        "point-point edge", "line-line edge", "parallel incidence",
        "point on one line", "plain vertex"])
def test_malformed_gamma_c_is_one_invalid_input(edit, names):
    with pytest.raises(InvalidInput, match=names):
        decorate_and_insert(generic_5_gamma_c().edit(**edit))


# -- the one-pass builder against the three-stage check route ---------------

def three_stage(inc, reduce=False):
    g = strip_arrowheads(solve_euler(decorate_and_insert(build_gamma_c(inc))))
    return reduce_double_chains(g, inc) if reduce else g


def family_cases():
    return ([("generic", n) for n in range(2, 13)] + [("pencil", n) for n in range(2, 41)]
            + [("near_pencil", n) for n in range(3, 31)])


@pytest.mark.parametrize("fam,n", family_cases())
def test_one_pass_equals_the_three_stages_on_families(fam, n):
    inc = generate_family(fam, n)
    g, ref = boundary_graph(inc), three_stage(inc)
    assert g.vertices == ref.vertices  # order included
    assert g.edges == ref.edges


@pytest.mark.parametrize("n", range(3, 15))
def test_one_pass_equals_the_three_stages_on_random_arrangements(n):
    for seed in range(40):
        inc = incidence_from_lines(random_rational_lines(n, random.Random(seed)))
        g, ref = boundary_graph(inc), three_stage(inc)
        assert (g.vertices, g.edges) == (ref.vertices, ref.edges), seed


CLI_RUNS = [("plumbing",), ("plumbing", "--dot"), ("export-dot",), ("homology", "--json")]


@pytest.mark.parametrize("inc", [
    generate_family("generic", 6),
    generate_family("near_pencil", 8),
    incidence_from_lines(random_rational_lines(9, random.Random(3))),
], ids=["generic6", "near_pencil8", "random9"])
def test_cli_stdout_is_that_of_the_three_stages(inc, tmp_path, capsys, monkeypatch):
    arr = tmp_path / "arr.json"
    arr.write_text(json.dumps(incidence_to_json(inc)))

    def stdouts():
        outs = []
        for command, *flags in CLI_RUNS:
            assert cli.main([command, str(arr), *flags]) == 0
            outs.append(capsys.readouterr().out)
        return outs

    one_pass = stdouts()
    monkeypatch.setattr(cli, "boundary_graph", three_stage)
    assert stdouts() == one_pass


def test_boundary_graph_takes_no_stage_of_the_check_route(monkeypatch):
    cases = [generate_family("generic", 5), generate_family("near_pencil", 6),
             generate_family("pencil", 5),
             incidence_from_lines(random_rational_lines(8, random.Random(1)))]

    def groups():
        return [(homology_of_graph(boundary_graph(inc)),
                 homology_of_graph(boundary_graph(inc, reduce=True)),
                 probe_conjecture(inc).group) for inc in cases]

    before = groups()

    def refuse(*args, **kwargs):
        raise RuntimeError("the check route was called")

    for name in ("build_gamma_c", "decorate_and_insert", "solve_euler", "strip_arrowheads"):
        monkeypatch.setattr(pipeline, name, refuse, raising=False)
    assert groups() == before


@pytest.mark.parametrize("inc", [
    generate_family("generic", 8),
    generate_family("near_pencil", 10),
    generate_family("pencil", 6),
    incidence_from_lines(random_rational_lines(9, random.Random(3))),
], ids=["generic8", "near_pencil10", "pencil6", "random9"])
def test_boundary_graph_builds_one_record_per_vertex_and_edge(inc, monkeypatch):
    calls = {Vertex: 0, Edge: 0}
    for cls, new in [(Vertex, Vertex.__new__), (Edge, Edge.__new__)]:
        def counted(cls, *args, _new=new, **kwargs):
            calls[cls] += 1
            return _new(cls, *args, **kwargs)
        monkeypatch.setattr(cls, "__new__", counted)
    g = boundary_graph(inc)
    assert (calls[Vertex], calls[Edge]) == (len(g.vertices), len(g.edges))


def test_the_raw_graph_holds_at_most_215_bytes_per_vertex_and_edge():
    # each Vertex and Edge is one tuple with no instance dict: about 181 B
    # per vertex plus edge, with the graph's indexes
    inc = generate_family("generic", 30)
    boundary_graph(generate_family("generic", 4))  # fills what a first call caches
    tracemalloc.start()
    try:
        g = boundary_graph(inc)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert held <= 215 * (len(g.vertices) + len(g.edges))


def test_boundary_graph_builds_through_the_checked_constructor(monkeypatch):
    # a repeated string vertex id must meet the graph's duplicate check
    inc = generate_family("generic", 5)
    assert any(v.kind == "string" for v in boundary_graph(inc).vertices)
    monkeypatch.setattr(pipeline, "chain_ids", lambda i, j, k: ["s0_1#0"] * k)
    with pytest.raises(InvalidInput, match="^duplicate vertex id 's0_1#0'$"):
        boundary_graph(inc)


def test_one_line_is_invalid_size():
    with pytest.raises(InvalidSize, match=r"^need at least two lines, got n=1$"):
        boundary_graph(IncidenceData(1, ()))


ERRORS = [
    (lambda: decorate_and_insert(PlumbingGraph((Vertex("w0", kind="point"),), ())),
     InvalidInput, "no line vertices present"),
    (lambda: solve_euler(PlumbingGraph((Vertex("x"),), ())),
     InvalidInput, "vertex x has no multiplicity"),
    (lambda: solve_euler(PlumbingGraph((Vertex("x", mult=1), Vertex("y")), (Edge("x", "y"),))),
     InvalidInput, "vertex y has no multiplicity"),
]


@pytest.mark.parametrize("call,cls,message", ERRORS, ids=range(len(ERRORS)))
def test_error_branches_raise_their_class_and_message(call, cls, message):
    with pytest.raises(MFBoundaryError) as caught:
        call()
    assert type(caught.value) is cls and str(caught.value) == message
