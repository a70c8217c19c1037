"""Plumbing graph data structures, canonical order, JSON and DOT."""

import random
import re

import pytest

from mfboundary.arrangement import generate_family, incidence_from_lines, random_rational_lines
from mfboundary import graph_core
from mfboundary.errors import InvalidInput, MFBoundaryError, UnknownVertex
from mfboundary.graph_core import (
    KINDS,
    Edge,
    PlumbingGraph,
    Vertex,
    _order_key,
    chain_id,
    chain_ids,
    first_betti_of_graph,
    graph_from_json,
    graph_to_json,
    to_dot,
)
from mfboundary.pipeline import boundary_graph, build_gamma_c, decorate_and_insert
from mfboundary.record import replace
from oracles import edge_outcome, regex_chain_order_key, vertex_outcome


def path_graph(eulers, sign=1):
    verts = tuple(Vertex(id=f"n{i}", euler=e) for i, e in enumerate(eulers))
    edges = tuple(
        Edge(a=f"n{i}", b=f"n{i+1}", sign=sign) for i in range(len(eulers) - 1)
    )
    return PlumbingGraph(vertices=verts, edges=edges)


def test_vertex_validation():
    with pytest.raises(InvalidInput):
        Vertex(id="v0", genus=-1)
    with pytest.raises(InvalidInput):
        Vertex(id="v0", mult=0)
    with pytest.raises(InvalidInput):
        Vertex(id="a0", kind="arrowhead", euler=-1)  # arrowheads carry no euler
    with pytest.raises(InvalidInput):
        Vertex(id="v0", dec=(0, 1, 1))  # dec m must be >= 1
    Vertex(id="v0", dec=(2, 4, 1), euler=None)  # fine


@pytest.mark.parametrize("field", [
    {"genus": True}, {"euler": True}, {"euler": False}, {"mult": True},
    {"dec": (True, 0, 1)}, {"dec": (1, False, 1)},
])
def test_vertex_rejects_a_bool_where_an_integer_belongs(field):
    with pytest.raises(InvalidInput):
        Vertex(id="x", **field)


def test_bool_genus_and_euler_do_not_make_a_graph():
    with pytest.raises(InvalidInput):
        PlumbingGraph((Vertex("x", genus=True, euler=True),), ())


@pytest.mark.parametrize("field", [
    {"sign": True}, {"sign": 1.0}, {"edge_type": True}, {"edge_type": 2.0},
    {"arrow": 1}, {"arrow": 0}, {"arrow": None}, {"arrow": "yes"},
])
def test_edge_rejects_a_bool_integer_and_a_non_bool_arrow(field):
    with pytest.raises(InvalidInput):
        Edge("x", "y", **field)


def test_edge_validation_and_helpers():
    e = Edge(a="x", b="y", sign=-1)
    assert e.other("x") == "y" and e.other("y") == "x"
    assert e.touches("x") and not e.touches("z")
    assert not e.is_loop()
    assert Edge(a="x", b="x").is_loop()
    with pytest.raises(InvalidInput):
        Edge(a="x", b="y", sign=0)


class Tag(str):
    """A str subclass: a valid id or kind that is not of type str."""


# per field, values a valid object may hold, then values it may not
VERTEX_FIELDS = {
    "id": (["v0", "s1_2#0", "x", "\u0663", Tag("w1")],
           ["", None, 3, ["v0"], {"v0": 1}]),
    "genus": ([0, 1, 2], [-1, True, False, 1.0, "0", None]),
    "euler": ([None, 0, -3, 5], [True, False, 1.5, "1", [1]]),
    "mult": ([None, 1, 2, 7], [0, -1, True, 1.0, "2"]),
    "kind": (list(KINDS) + [Tag("line")],
             ["", "Line", None, 3, [], {}, ["line"], {"line": 1}]),
    "dec": ([None, (1, 0, 1), (2, 4, 1), [2, 4, 1], [3, 0, 2]],
            [(0, 1, 1), (1, -1, 1), (1, 0, 0), (True, 0, 1), (1.0, 0, 1), (1, 0),
             [1, 0, 1, 2], [], {}, {"a": 1, "b": 2, "c": 3}, 5, 1.0, True]),
}
EDGE_FIELDS = {
    "a": (["v0", "w1", Tag("v2")], []),  # an Edge does not check its ends
    "b": (["v1", "s1_2#0", ""], []),
    "sign": ([1, -1], [0, 2, -2, True, False, 1.0, -1.0, "+", None, []]),
    "edge_type": ([None, 1, 2], [0, 3, True, 1.0, "1", []]),
    "arrow": ([False, True], [0, 1, None, "yes", []]),
}

# a phrase of each message of the full checks
CHECKS = {
    Vertex: ("non-empty string", "genus must be", "euler must be", "multiplicity must be",
             "unknown kind", "dec must be", "bad decoration", "must not carry an Euler",
             "must have genus 0"),
    Edge: ("sign must be", "type must be", "arrow must be"),
}


def draw_fields(rng, table):
    """Each field from its valid values with probability 0.7, else from all."""
    return {name: rng.choice(good if rng.random() < 0.7 or not bad else good + bad)
            for name, (good, bad) in table.items()}


def built(make, names):
    """("error", message) for the InvalidInput make() raises, or ("ok",
    fields) with the type of every field, so a bool never passes for 1."""
    try:
        obj = make()
    except InvalidInput as exc:
        return "error", str(exc)
    values = tuple(getattr(obj, name) for name in names)
    return "ok", (values, tuple(map(type, values)))


def expected(outcome):
    status, got = outcome
    return (status, got) if status == "error" else (status, (got, tuple(map(type, got))))


@pytest.mark.parametrize("cls, table, oracle, base", [
    (Vertex, VERTEX_FIELDS, vertex_outcome, Vertex(id="base", euler=-1)),
    (Edge, EDGE_FIELDS, edge_outcome, Edge("base", "other")),
], ids=["Vertex", "Edge"])
def test_constructors_raise_or_build_what_the_full_checks_give(cls, table, oracle, base):
    # every draw raises the oracle's message or holds the oracle's fields,
    # whether it comes from the constructor or from replace
    rng = random.Random(20260417)
    names = list(table)
    seen = {"ok": 0, "error": set()}
    for _ in range(4000):
        fields = draw_fields(rng, table)
        want = expected(oracle(**fields))
        assert built(lambda: cls(**fields), names) == want, fields
        assert built(lambda: cls(*fields.values()), names) == want, fields
        assert built(lambda: replace(base, **fields), names) == want, fields
        some = {k: fields[k] for k in rng.sample(names, rng.randint(1, len(names)))}
        merged = {k: getattr(base, k) for k in names} | some
        assert built(lambda: replace(base, **some), names) == expected(oracle(**merged)), some
        if want[0] == "ok":
            seen["ok"] += 1
            again = cls(**fields)
            assert again == cls(**fields) and hash(again) == hash(cls(**fields))
        else:
            seen["error"].add(next(c for c in CHECKS[cls] if c in want[1]))
    assert seen["ok"] >= 500
    assert seen["error"] == set(CHECKS[cls])  # every check failed somewhere
    with pytest.raises(AttributeError):
        setattr(base, names[-1], None)


ORDER_IDS = [
    "v0", "v007", "w00", "w12", "a3", "a000", "s01_002#003", "s1_2#0", "s12_3#45",
    "v\u0663", "w\u0661\u0662", "s\u0661_\u0662#\u0663", "a\u0660", "v\u00b3",
    "v3\n", "w3\n", "a1\n", "s1_2#0\n", "v3\n\n", "v\n", "s1_2#0\nx",
    "s1_2#", "s1_2", "s1_", "s1", "s_1#0", "s1_2#0#1", "a1_2#3",
    "v", "w", "a", "s", "x", "", "V3", "x3", "n0", "v3a", "vv3", "ws1", "v-1", "v+1", "v 3",
]


def test_order_key_is_the_regex_chain_key():
    rng = random.Random(917)
    alphabet = "vwsax_#0123\u0663\n "
    fuzz = ["".join(rng.choice(alphabet) for _ in range(rng.randint(1, 7))) for _ in range(3000)]
    fuzz += [f"{p}{d}" for p in "vwsa" for d in ("1", "01", "\u0663", "1\n")]
    for vid in ORDER_IDS + fuzz:
        assert _order_key(vid) == regex_chain_order_key(vid), repr(vid)
    assert sorted(ORDER_IDS, key=_order_key) == sorted(ORDER_IDS, key=regex_chain_order_key)


@pytest.mark.parametrize("k", range(7))
def test_chain_ids_are_the_literal_scheme_and_parse_back(k):
    # the one-pass and three-stage builds both write their ids through
    # chain_ids, so only literal strings catch a change of the scheme
    for i in (0, 1, 9, 10, 99, 100, 999):
        for j in (0, 3, 42, 100, 640, 999):
            ids = chain_ids(i, j, k)
            assert ids == [f"s{i}_{j}#{p}" for p in range(k)]
            assert ids == [chain_id(i, j, p) for p in range(k)]
            assert [_order_key(vid) for vid in ids] == [(1, j, 1, i, p, f"s{i}_{j}#{p}")
                                                        for p in range(k)]


def family_graphs():
    incs = [generate_family(kind, n) for kind, ns in (("generic", range(2, 9)),
                                                      ("pencil", range(2, 9)),
                                                      ("near_pencil", range(3, 10)))
            for n in ns]
    incs += [incidence_from_lines(random_rational_lines(n, random.Random(seed)))
             for n in (5, 8) for seed in range(3)]
    for inc in incs:
        gc = build_gamma_c(inc)
        yield from (gc, decorate_and_insert(gc), boundary_graph(inc),
                    boundary_graph(inc, reduce=True))


def test_vertex_order_of_family_graphs_is_unchanged():
    count = 0
    for g in family_graphs():
        assert g.canonical().ids == sorted(g.ids, key=regex_chain_order_key)
        count += 1
    assert count == 4 * 27


def random_multigraph(rng):
    """Plain vertices with structured ids in a shuffled order, and edges
    with either end first, parallel edges, loops, both signs and all types."""
    ids = rng.sample(["v0", "v1", "v10", "w0", "w2", "s0_2#0", "s0_2#1", "s1_0#0",
                      "a1", "x", "n3"], rng.randint(1, 11))
    edges = [Edge(rng.choice(ids), rng.choice(ids), rng.choice((1, -1)),
                  rng.choice((None, 1, 2))) for _ in range(rng.randint(0, 12))]
    return PlumbingGraph(tuple(Vertex(vid, euler=-2) for vid in ids), tuple(edges))


def canonical_order_oracle(g):
    """The canonical order by one order key per vertex and per edge end:
    (vertex ids, edge rows as graph_to_json writes them)."""
    key = regex_chain_order_key
    edges = [e if key(e.a) <= key(e.b) else replace(e, a=e.b, b=e.a) for e in g.edges]
    edges.sort(key=lambda e: (key(e.a), key(e.b), -e.sign, e.arrow, e.edge_type or 0))
    rows = [{"a": e.a, "b": e.b, "sign": "+" if e.sign == 1 else "-", "type": e.edge_type,
             "arrow": e.arrow} for e in edges]
    return sorted(g.ids, key=key), rows


def test_printing_sorts_the_graph_it_is_given_once(monkeypatch):
    rng = random.Random(4242)
    graphs = [*family_graphs(), boundary_graph(generate_family("generic", 12)),
              *(random_multigraph(rng) for _ in range(200))]
    keyed, built = [], []
    order_key, build = graph_core._order_key, PlumbingGraph._build
    monkeypatch.setattr(graph_core, "_order_key", lambda vid: keyed.append(vid) or order_key(vid))
    monkeypatch.setattr(PlumbingGraph, "_build",
                        lambda *args, **kwargs: built.append(1) or build(*args, **kwargs))
    for g in graphs:
        ids, rows = canonical_order_oracle(g)
        keyed.clear()
        out = graph_to_json(g)
        assert len(keyed) <= len(g.vertices)
        assert [v["id"] for v in out["vertices"]] == ids and out["edges"] == rows
        keyed.clear()
        dot = to_dot(g)
        assert len(keyed) <= len(g.vertices)
        assert re.findall(r'^  "(.*)" \[shape=', dot, re.M) == ids
    assert built == []


def test_graph_validation():
    v = Vertex(id="v0", euler=-1)
    with pytest.raises(InvalidInput):
        PlumbingGraph(vertices=(v, v), edges=())  # duplicate id
    with pytest.raises(UnknownVertex):
        PlumbingGraph(vertices=(v,), edges=(Edge(a="v0", b="nope"),))
    # an arrow edge must touch exactly one arrowhead
    ah = Vertex(id="a0", kind="arrowhead")
    with pytest.raises(InvalidInput):
        PlumbingGraph(vertices=(v, ah), edges=(Edge(a="v0", b="a0"),))
    with pytest.raises(InvalidInput):
        PlumbingGraph(vertices=(v, ah), edges=(Edge(a="v0", b="v0", arrow=True),))
    g = PlumbingGraph(vertices=(v, ah), edges=(Edge(a="v0", b="a0", arrow=True),))
    assert not g.is_closed()
    assert g.degree("v0") == 1


def test_arrowhead_degree_one():
    v = Vertex(id="v0", euler=0)
    w = Vertex(id="v1", euler=0)
    ah = Vertex(id="a0", kind="arrowhead")
    with pytest.raises(InvalidInput):
        PlumbingGraph(
            vertices=(v, w, ah),
            edges=(Edge(a="v0", b="a0", arrow=True), Edge(a="v1", b="a0", arrow=True)),
        )


def test_degree_counts_loops_twice():
    v = Vertex(id="v0", euler=1)
    g = PlumbingGraph(vertices=(v,), edges=(Edge(a="v0", b="v0"),))
    assert g.degree("v0") == 2
    assert not g.is_simple()
    assert g.is_closed()


def test_parallel_edges_not_simple():
    g = path_graph([0, 0])
    doubled = g.edit(add_edges=[Edge(a="n0", b="n1", sign=-1)])
    assert not doubled.is_simple()
    assert doubled.degree("n0") == 2


def test_canonical_equality_ignores_storage_order():
    v0 = Vertex(id="v0", euler=-2)
    v1 = Vertex(id="v1", euler=-2)
    g1 = PlumbingGraph(vertices=(v0, v1), edges=(Edge(a="v0", b="v1"),))
    g2 = PlumbingGraph(vertices=(v1, v0), edges=(Edge(a="v1", b="v0"),))
    assert g1.canonical() == g2.canonical()


def test_vertex_order_slots():
    # line vertices first, then point/string slots by point index, then arrows
    verts = (
        Vertex(id="s1_0#0", euler=2),
        Vertex(id="w2", euler=1),
        Vertex(id="v1", euler=-1),
        Vertex(id="v0", euler=-1),
        Vertex(id="a0", kind="arrowhead"),
    )
    g = PlumbingGraph(vertices=verts, edges=(Edge(a="v0", b="a0", arrow=True),))
    assert g.canonical().ids == ["v0", "v1", "s1_0#0", "w2", "a0"]


def test_first_betti():
    assert first_betti_of_graph(path_graph([0, 0, 0])) == 0
    tri = PlumbingGraph(
        vertices=tuple(Vertex(id=f"n{i}", euler=0) for i in range(3)),
        edges=(
            Edge(a="n0", b="n1"), Edge(a="n1", b="n2"), Edge(a="n0", b="n2"),
        ),
    )
    assert first_betti_of_graph(tri) == 1
    two = PlumbingGraph(
        vertices=(Vertex(id="p", euler=0), Vertex(id="q", euler=0)), edges=()
    )
    assert first_betti_of_graph(two) == 0


def test_graph_edit_helpers():
    g = path_graph([-1, -2, -1])
    g2 = g.edit(put=[replace(g.vertex("n1"), euler=g.vertex("n1").euler + 3)])
    assert g2.vertex("n1").euler == 1
    g3 = g.edit(drop=["n2"])
    assert sorted(g3.ids) == ["n0", "n1"]
    assert len(g3.plain_edges()) == 1
    g4 = g.edit(put=[Vertex(id="n0", euler=7, genus=2)])
    assert g4.vertex("n0").genus == 2
    with pytest.raises(UnknownVertex):
        g.vertex("zzz")


def test_remove_edge_once():
    g = path_graph([0, 0]).edit(add_edges=[Edge(a="n0", b="n1", sign=1)])
    first = next(x for x in g.edges if x == Edge(a="n0", b="n1", sign=1))
    g2 = g.edit(remove=[first])
    assert len(g2.plain_edges()) == 1  # only one copy removed
    assert g2.edges[0] is g.edges[1]


def test_json_round_trip():
    base = path_graph([-1, -2, -3], sign=-1)
    g = PlumbingGraph(
        vertices=base.vertices + (Vertex(id="a0", kind="arrowhead"),),
        edges=base.edges + (Edge(a="n0", b="a0", arrow=True),),
    )
    blob = graph_to_json(g)
    back = graph_from_json(blob)
    assert back.canonical() == g.canonical()
    signs = {e["sign"] for e in blob["edges"]}
    assert signs <= {"+", "-"}


def test_json_rejects_bad_sign():
    g = path_graph([0, 0])
    blob = graph_to_json(g)
    blob["edges"][0]["sign"] = "?"
    with pytest.raises(InvalidInput):
        graph_from_json(blob)


def arrow_blob(arrow, to_head):
    edge = {"a": "x", "b": "h" if to_head else "y", "sign": "+"}
    if arrow != "missing":
        edge["arrow"] = arrow
    return {"vertices": [{"id": "x", "euler": -1}, {"id": "y", "euler": -1},
                         {"id": "h", "kind": "arrowhead"}],
            "edges": [edge] if to_head else [edge, {"a": "x", "b": "h", "arrow": True}]}


@pytest.mark.parametrize("arrow", [False, None, "missing"])
def test_json_plain_edge_takes_false_null_or_no_arrow(arrow):
    g = graph_from_json(arrow_blob(arrow, to_head=False))
    assert [e.arrow for e in g.edges if e.touches("y")] == [False]
    assert graph_from_json(arrow_blob(True, to_head=True)).edges[0].arrow


@pytest.mark.parametrize("arrow", ["no", "false", "true", 0, 1, [], {}])
@pytest.mark.parametrize("to_head", [True, False])
def test_json_arrow_must_be_a_boolean(arrow, to_head):
    with pytest.raises(InvalidInput, match="arrow must be true, false or null"):
        graph_from_json(arrow_blob(arrow, to_head))


def test_dot_output():
    base = path_graph([-1, -2])
    g = PlumbingGraph(
        vertices=base.vertices + (Vertex(id="a0", kind="arrowhead"),),
        edges=base.edges + (Edge(a="n0", b="a0", arrow=True),),
    )
    dot = to_dot(g)
    assert dot.startswith("digraph")
    assert '"n0"' in dot and '"a0"' in dot
    assert "shape=point" in dot  # arrowheads drawn as points
    assert "dir=forward" in dot  # arrows directed


def test_dot_escapes_quotes_and_backslashes_in_ids_and_labels():
    g = PlumbingGraph((Vertex('x"y', euler=-1), Vertex("z\\", euler=-2, genus=1)),
                      (Edge('x"y', "z\\", sign=-1),))
    dot = to_dot(g)
    quoted = re.compile(r'"((?:[^"\\]|\\.)*)"')  # a backslash escapes the next character
    decoded = [re.sub(r"\\(.)", r"\1", s) for s in quoted.findall(dot)]
    assert decoded == ['x"y', 'x"y: -1', "z\\", "z\\: -2 [1]", 'x"y', "z\\", "-"]
    outside = quoted.sub("", dot)
    assert '"' not in outside and "\\" not in outside


@pytest.mark.parametrize("end", [["x"], {"x": 1}, ("x", ["x"])], ids=["list", "dict", "tuple"])
def test_an_unhashable_edge_end_is_an_unknown_vertex(end):
    x = Vertex("x", euler=1)
    g = PlumbingGraph((x,), ())
    message = f"edge references unknown vertex {end!r}"
    for build in (lambda: PlumbingGraph((x,), (Edge(a=end, b="x"),)),
                  lambda: PlumbingGraph((x,), (Edge(a="x", b=end),)),
                  lambda: g.edit(add_edges=[Edge(a=end, b="x")]),
                  lambda: g.edit(add_edges=[Edge(a="x", b=end)])):
        with pytest.raises(UnknownVertex) as caught:
            build()
        assert str(caught.value) == message


ERRORS = [
    (lambda: Edge("x", "y").other("z"), UnknownVertex, "edge x--y does not touch z"),
    (lambda: graph_from_json([]), InvalidInput, 'graph JSON needs "vertices" and "edges"'),
]


@pytest.mark.parametrize("call,cls,message", ERRORS, ids=range(len(ERRORS)))
def test_error_branches_raise_their_class_and_message(call, cls, message):
    with pytest.raises(MFBoundaryError) as caught:
        call()
    assert type(caught.value) is cls and str(caught.value) == message
