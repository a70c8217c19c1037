"""From incidence combinatorics to the closed plumbing graph of the Milnor
fiber boundary.

Stages:
  1. decorate_and_insert   turn the curve-configuration graph into a
                           multiplicity-decorated graph: fix genus and
                           multiplicity of every vertex, replace each
                           line-point edge by its string chain (all edges
                           signed -), sign the arrows +;
  2. solve_euler           recover every Euler number from the local
                           formula e_v * m_v + sum of signed neighbor
                           multiplicities = 0;
  3. strip_arrowheads      drop the arrows, leaving the closed graph.

boundary_graph composes the three, optionally followed by the chain
reduction recipes.
"""

from __future__ import annotations

import math
from dataclasses import replace

from .arrangement import IncidenceData
from .curve_config import build_gamma_c
from .errors import InternalError, InvalidInput, NonIntegralEuler, UnsupportedLoop
from .graph_core import Edge, PlumbingGraph, Vertex
from .strings import build_string


def point_genus(m: int, n: int) -> int:
    """Genus of the vertex of a multiplicity-m point: (m-2)(gcd(m,n)-1)/2.

    The product is always even: gcd(m, n) even forces m even."""
    num = (m - 2) * (math.gcd(m, n) - 1)
    if num % 2:
        raise InternalError(f"odd genus numerator (m-2)(gcd(m,n)-1) = {num} for m={m}, n={n}")
    return num // 2


def decorate_and_insert(gc: PlumbingGraph) -> PlumbingGraph:
    """Resolve a curve-configuration graph into genus/multiplicity and
    splice a string chain into every line-point edge.

    The decorations (m; n, nu) are the paper's labels; this reads none of
    them, nor edge types or ids, but works the numbers out from the
    structure: n is the number of line vertices, a point's m the number of
    its incidence edges, and nu = 1.  It checks that every non-arrow edge
    joins a line and a point, no two the same pair, that every point meets
    at least two lines, and that every line carries exactly one arrow and
    no point one.  String vertices get ids s{i}_{j}#{pos}, with line i and
    point j counted in vertex order and pos counted from the line end.
    """
    arrows = {v.id: 0 for v in gc.vertices if v.kind == "line"}  # arrows at each line
    mult = {v.id: 0 for v in gc.vertices if v.kind == "point"}  # edges at each point
    if not arrows:
        raise InvalidInput("no line vertices present")
    n = len(arrows)
    index = {vid: i for ids in (arrows, mult) for i, vid in enumerate(ids)}  # among its kind
    pairs = set()  # line-point pairs joined so far
    for e in gc.edges:  # the graph makes one end of each arrow an arrowhead
        line, point = (e.a, e.b) if e.a in arrows else (e.b, e.a)
        if e.arrow and line in arrows:
            arrows[line] += 1
        elif not e.arrow and line in arrows and point in mult and (line, point) not in pairs:
            pairs.add((line, point))
            mult[point] += 1
        else:
            raise InvalidInput(f"edge {e.a}--{e.b}: an arrow must leave a line, and any "
                               "other edge join a line to a point it meets once")
    vertices: list[Vertex] = []
    chains = {}  # point id -> multiplicities of its chain's interior
    for v in gc.vertices:
        if v.kind == "line" and arrows[v.id] != 1:
            raise InvalidInput(f"line {v.id} needs exactly one arrow, has {arrows[v.id]}")
        if v.kind in ("line", "arrowhead"):
            vertices.append(Vertex(id=v.id, mult=1, kind=v.kind))
            continue
        if v.kind != "point":
            raise InvalidInput(f"unexpected vertex kind {v.kind!r} at {v.id}")
        m = mult[v.id]
        if m < 2:
            raise InvalidInput(f"point {v.id} meets {m} line(s), needs at least two")
        chains[v.id] = build_string(1, m, n).interior_mults
        vertices.append(Vertex(id=v.id, genus=point_genus(m, n),
                               mult=m // math.gcd(m, n), kind="point"))
    edges: list[Edge] = []
    for e in gc.edges:
        if e.arrow:
            edges.append(Edge(a=e.a, b=e.b, sign=1, arrow=True))
            continue
        line, point = (e.a, e.b) if e.a in arrows else (e.b, e.a)
        ids = [f"s{index[line]}_{index[point]}#{pos}" for pos in range(len(chains[point]))]
        vertices += [Vertex(id=vid, mult=k, kind="string") for vid, k in zip(ids, chains[point])]
        path = [line] + ids + [point]
        edges += [Edge(a=a, b=b, sign=-1) for a, b in zip(path, path[1:])]
    return PlumbingGraph(tuple(vertices), tuple(edges))


def solve_euler(dg: PlumbingGraph) -> PlumbingGraph:
    """Fill in every non-arrowhead Euler number from the local formula

        e_v * m_v + sum over edges at v of sign * m_other = 0.

    Requires all multiplicities set.  A loop contributes its vertex's own
    multiplicity twice, which the formula does not cover; loops are
    rejected.  The division must be exact."""
    out = []
    for v in dg.vertices:
        if v.kind == "arrowhead":
            continue
        if v.mult is None:
            raise InvalidInput(f"vertex {v.id} has no multiplicity")
        acc = 0
        for e in dg.edges_at(v.id):
            if e.is_loop():
                raise UnsupportedLoop(f"loop at {v.id}: local formula undefined")
            other = dg.vertex(e.other(v.id))
            if other.mult is None:
                raise InvalidInput(f"vertex {other.id} has no multiplicity")
            acc += e.sign * other.mult
        if acc % v.mult != 0:
            raise NonIntegralEuler(
                f"vertex {v.id}: -({acc})/{v.mult} is not an integer"
            )
        out.append(replace(v, euler=-acc // v.mult))
    return dg.edit(put=out)


def strip_arrowheads(g: PlumbingGraph) -> PlumbingGraph:
    """Remove arrowhead vertices and their arrows; the rest is untouched."""
    heads = [v.id for v in g.vertices if v.kind == "arrowhead"]
    return g.edit(drop=heads)


def boundary_graph(inc: IncidenceData, reduce: bool = False) -> PlumbingGraph:
    """Closed plumbing graph of the Milnor fiber boundary of the arrangement.

    With reduce=True the double-point chains are compacted by the calculus
    recipes (one middle vertex per chain); for a generic arrangement this is
    exactly the compact model with intersection matrix A_n."""
    g = strip_arrowheads(solve_euler(decorate_and_insert(build_gamma_c(inc))))
    if reduce:
        from .reduction import reduce_double_chains

        g = reduce_double_chains(g, inc)
    return g
