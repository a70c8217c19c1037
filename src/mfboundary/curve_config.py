"""Curve-configuration graph of an arrangement.

The boundary of the Milnor fiber is assembled from a configuration of
curves: one curve per line, one per intersection point, and one arrow per
line recording the link component of the line itself.  Each vertex carries
a decoration (m; n, nu): the local multiplicity, the degree of the defining
form, and the number of local branches (always 1 here).  These are the
paper's labels, written for export and display; the pipeline reads none of
them and works n and every m out from the graph's structure.

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

