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
    """Resolve decorations into genus/multiplicity and splice a string chain
    into every line-point edge.

    Reads n and the point multiplicities off the stage decorations, so the
    curve-configuration graph is self-contained.  String vertices get ids
    s{i}_{j}#{pos} with pos counted from the line end.
    """
    vertices: list[Vertex] = []
    n = None
    for v in gc.vertices:
        if v.dec is None:
            raise InvalidInput(f"vertex {v.id} lacks a stage decoration")
        m, deg, nu = v.dec
        if v.kind == "line":
            n = deg
            vertices.append(Vertex(id=v.id, genus=0, mult=1, kind="line"))
        elif v.kind == "point":
            g = point_genus(m, deg)
            vertices.append(
                Vertex(id=v.id, genus=g, mult=m // math.gcd(m, deg), kind="point")
            )
        elif v.kind == "arrowhead":
            vertices.append(Vertex(id=v.id, kind="arrowhead", mult=1))
        else:
            raise InvalidInput(f"unexpected vertex kind {v.kind!r} at {v.id}")
    if n is None:
        raise InvalidInput("no line vertices present")

    edges: list[Edge] = []
    for e in gc.edges:
        if e.arrow:
            edges.append(Edge(a=e.a, b=e.b, sign=1, arrow=True))
            continue
        if e.edge_type != 2:
            raise InvalidInput(f"edge {e.a}--{e.b} has unexpected type {e.edge_type}")
        line_id, point_id = (e.a, e.b) if e.a.startswith("v") else (e.b, e.a)
        m = gc.vertex(point_id).dec[0]
        chain = build_string(1, m, n)
        if chain.is_double_arrow:
            edges.append(Edge(a=line_id, b=point_id, sign=-1))
            continue
        i, j = line_id[1:], point_id[1:]
        ids = [f"s{i}_{j}#{pos}" for pos in range(len(chain.interior_mults))]
        for vid, mult in zip(ids, chain.interior_mults):
            vertices.append(Vertex(id=vid, genus=0, mult=mult, kind="string"))
        path = [line_id] + ids + [point_id]
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
            out.append(v)
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
    return PlumbingGraph(tuple(out), dg.edges)


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
