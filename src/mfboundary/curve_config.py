"""Curve-configuration graph of an arrangement.

The boundary of the Milnor fiber is assembled from a configuration of
curves: one curve per line, one per intersection point, and one arrow per
line recording the link component of the line itself.  Each vertex carries
a decoration (m; n, nu): the local multiplicity, the degree of the defining
form, and the number of local branches (always 1 here).

Vertex ids: "v{i}" for line i, "w{j}" for point j (points in the canonical
sorted order of their line tuples), "a{i}" for the arrowhead of line i.
Line-point edges have type 2, arrows type 1.  Signs are not meaningful at
this stage and default to +.
"""

from __future__ import annotations

from .arrangement import IncidenceData
from .errors import InvalidSize
from .graph_core import Edge, PlumbingGraph, Vertex

def build_gamma_c(inc: IncidenceData) -> PlumbingGraph:
    """Curve-configuration graph: line and point vertices joined by a type-2
    edge for every incidence, plus one type-1 arrow per line."""
    if inc.n < 2:
        raise InvalidSize(f"need at least two lines, got n={inc.n}")
    n = inc.n
    vertices = [
        Vertex(id=f"v{i}", kind="line", dec=(1, n, 1)) for i in range(n)
    ]
    vertices += [
        Vertex(id=f"w{j}", kind="point", dec=(p.multiplicity, n, 1))
        for j, p in enumerate(inc.points)
    ]
    vertices += [
        Vertex(id=f"a{i}", kind="arrowhead", dec=(1, 0, 1)) for i in range(n)
    ]
    edges = [
        Edge(a=f"v{i}", b=f"w{j}", sign=1, edge_type=2)
        for j, p in enumerate(inc.points)
        for i in p.lines
    ]
    edges += [Edge(a=f"v{i}", b=f"a{i}", sign=1, edge_type=1, arrow=True)
              for i in range(n)]
    return PlumbingGraph(tuple(vertices), tuple(edges))


def validate_gamma_c(g: PlumbingGraph) -> None:
    """Sanity checks for a graph claiming to be at curve-configuration
    stage: all vertices decorated, no Euler numbers yet, edges typed."""
    from .errors import InvalidInput

    for v in g.vertices:
        if v.dec is None:
            raise InvalidInput(f"vertex {v.id} lacks a decoration")
        if v.euler is not None:
            raise InvalidInput(f"vertex {v.id} already has an Euler number")
    for e in g.edges:
        if e.edge_type not in (1, 2):
            raise InvalidInput(f"edge {e.a}--{e.b} lacks a type")
        if (e.edge_type == 1) != e.arrow:
            raise InvalidInput(f"edge {e.a}--{e.b}: type-1 edges are exactly the arrows")
    ns = {v.dec[1] for v in g.vertices if v.kind in ("line", "point")}
    if len(ns) > 1:
        raise InvalidInput(f"inconsistent arrangement sizes in decorations: {sorted(ns)}")
    for v in g.vertices:
        t2 = sum(1 for e in g.edges_at(v.id) if e.edge_type == 2)
        arrows = sum(1 for e in g.edges_at(v.id) if e.arrow)
        if v.kind == "line":
            if v.dec[0] != 1 or v.dec[2] != 1:
                raise InvalidInput(f"line {v.id} carries decoration {v.dec}")
            if arrows != 1:
                raise InvalidInput(f"line {v.id} needs exactly one arrow, has {arrows}")
        elif v.kind == "point":
            if v.dec != (t2, v.dec[1], 1) or t2 < 2:
                raise InvalidInput(
                    f"point {v.id}: decoration {v.dec} does not match its {t2} incidences"
                )
        elif v.kind == "arrowhead":
            if v.dec != (1, 0, 1):
                raise InvalidInput(f"arrowhead {v.id} carries decoration {v.dec}")
