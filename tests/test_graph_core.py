"""Plumbing graph data structures, canonical order, JSON and DOT."""

import pytest

from mfboundary.calculus import _bumped
from mfboundary.errors import InvalidInput, UnknownVertex
from mfboundary.graph_core import (
    Edge,
    PlumbingGraph,
    Vertex,
    first_betti_of_graph,
    graph_from_json,
    graph_to_json,
    to_dot,
    vertex_order,
)


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
    assert vertex_order(g) == ["v0", "v1", "s1_0#0", "w2", "a0"]


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
    g2 = g.edit(put=[_bumped(g, "n1", 3)])
    assert g2.vertex("n1").euler == 1
    g3 = g.edit(drop=["n2"])
    assert sorted(g3.ids) == ["n0", "n1"]
    assert len(g3.plain_edges()) == 1
    g4 = g.edit(put=[Vertex(id="n0", euler=7, genus=2)])
    assert g4.vertex("n0").genus == 2
    with pytest.raises(UnknownVertex):
        g.vertex("zzz")
    fresh = g.fresh_id("n")
    assert fresh not in g.ids


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
