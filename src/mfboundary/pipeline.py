"""From incidence combinatorics to the closed plumbing graph of the Milnor
fiber boundary.

boundary_graph writes the closed graph in one pass, splicing the string
chain Str(1, m; n) into every line-point incidence, all edges signed -;
each vertex and edge is one record of the checked constructors, and the
graph's constructor checks and indexes them.
A chain vertex's Euler number is its Hirzebruch-Jung term; a line's and a
point's come from the local formula e_v * m_v + sum of signed neighbor
multiplicities = 0, each line's arrow folded in.  reduce=True then runs the
chain reduction recipes.  Four stages, kept as the check route, give the
same graph with every step inspectable:
  0. build_gamma_c         the curve-configuration graph Gamma_C: a vertex
                           per line and per point, a type-2 edge for every
                           incidence and a type-1 arrow per line;
  1. decorate_and_insert   Gamma_C decorated with genus and multiplicity, a
                           string chain in every line-point edge, arrows
                           signed +;
  2. solve_euler           every Euler number from the local formula;
  3. strip_arrowheads      drop the arrows, leaving the closed graph.

Gamma_C's vertex ids, written by graph_core's id helpers, are "v{i}" for
line i, "w{j}" for point j (points in the canonical sorted order of their
line tuples) and "a{i}" for the arrowhead of line i; boundary_graph names
lines and points the same.  Its vertices carry the paper's decoration
(m; n, nu): the local multiplicity, the degree of the defining form and
the number of local branches (always 1 here).  These labels are written
for export and display, as are its edge types and its + signs;
decorate_and_insert reads none of them.

probe_conjecture then checks the graph's H1 against the closed forms of
the arrangement: betti_formula for its rank, and the torsion predictions,
with projective_complement_euler, for its torsion.
"""

from __future__ import annotations

import math
from itertools import repeat
from typing import Iterator, Optional

from .arrangement import IncidenceData, is_near_pencil, is_pencil
from .errors import InternalError, InvalidInput, InvalidSize, NonIntegralEuler, UnsupportedLoop
from .graph_core import Edge, PlumbingGraph, Vertex, arrowhead_id, chain_ids, line_id, point_id
from .homology import AbelianGroup, homology_of_graph
from .record import Record, replace
from .reduction import reduce_double_chains
from .strings import build_string


def point_genus(m: int, n: int) -> int:
    """Genus of the vertex of a multiplicity-m point: (m-2)(gcd(m,n)-1)/2.

    The product is always even: gcd(m, n) even forces m even."""
    num = (m - 2) * (math.gcd(m, n) - 1)
    if num % 2:
        raise InternalError(f"odd genus numerator (m-2)(gcd(m,n)-1) = {num} for m={m}, n={n}")
    return num // 2


def _chain(line: str, ids: list[str], point: str) -> Iterator[Edge]:
    """The - edges of the chain of vertices ids from line to point."""
    return map(Edge, [line, *ids], [*ids, point], repeat(-1))


def _line_count(inc: IncidenceData) -> int:
    """The arrangement's number of lines n, which must be at least two."""
    if inc.n < 2:
        raise InvalidSize(f"need at least two lines, got n={inc.n}")
    return inc.n


def build_gamma_c(inc: IncidenceData) -> PlumbingGraph:
    """Curve-configuration graph: line and point vertices joined by a type-2
    edge for every incidence, plus one type-1 arrow per line."""
    n = _line_count(inc)
    lines = [line_id(i) for i in range(n)]
    points = [point_id(j) for j in range(len(inc.points))]
    heads = [arrowhead_id(i) for i in range(n)]
    vertices = [Vertex(id=v, kind="line", dec=(1, n, 1)) for v in lines]
    vertices += [Vertex(id=w, kind="point", dec=(p.multiplicity, n, 1))
                 for w, p in zip(points, inc.points)]
    vertices += [Vertex(id=a, kind="arrowhead", dec=(1, 0, 1)) for a in heads]
    edges = [Edge(a=lines[i], b=w, sign=1, edge_type=2)
             for w, p in zip(points, inc.points) for i in p.lines]
    edges += [Edge(a=v, b=a, sign=1, edge_type=1, arrow=True) for v, a in zip(lines, heads)]
    return PlumbingGraph(tuple(vertices), tuple(edges))


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
    strings = {m: build_string(1, m, n) for m in set(mult.values()) if m >= 2}
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
        chains[v.id] = strings[m].interior_mults
        vertices.append(Vertex(id=v.id, genus=point_genus(m, n),
                               mult=m // math.gcd(m, n), kind="point"))
    edges: list[Edge] = []
    for e in gc.edges:
        if e.arrow:
            edges.append(Edge(a=e.a, b=e.b, sign=1, arrow=True))
            continue
        line, point = (e.a, e.b) if e.a in arrows else (e.b, e.a)
        ids = chain_ids(index[line], index[point], len(chains[point]))
        vertices += [Vertex(id=vid, mult=k, kind="string") for vid, k in zip(ids, chains[point])]
        edges += _chain(line, ids, point)
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
    """Closed plumbing graph of the Milnor fiber boundary of the arrangement,
    equal, vertex and edge order included, to strip_arrowheads(solve_euler(
    decorate_and_insert(build_gamma_c(inc)))).  A line's Euler number is -1
    (its arrow) plus the first chain multiplicities at it; a point's is the
    sum of its m last ones over its multiplicity m/gcd(m, n).  An empty chain
    joins multiplicities m/gcd(m, n) and 1.

    With reduce=True the double-point chains are compacted by the calculus
    recipes (one middle vertex per chain); for a generic arrangement this is
    exactly the compact model with intersection matrix A_n."""
    n = _line_count(inc)
    strings = {m: build_string(1, m, n) for m in {p.multiplicity for p in inc.points}}
    line_ids = [line_id(i) for i in range(n)]
    line_euler = [-1] * n
    points, chains, edges = [], [], []
    for j, p in enumerate(inc.points):
        m, d = p.multiplicity, math.gcd(p.multiplicity, n)
        ks, ms = strings[m].cf_terms, strings[m].interior_mults
        first, last = (ms[0], ms[-1]) if ms else (m // d, 1)
        w = point_id(j)
        points.append(Vertex(w, point_genus(m, n), d * last, m // d, "point"))
        for i in p.lines:
            line_euler[i] += first
            ids = chain_ids(i, j, len(ms))
            chains += map(Vertex, ids, repeat(0), ks, ms, repeat("string"))
            edges += _chain(line_ids[i], ids, w)
    lines = [Vertex(v, 0, e, 1, "line") for v, e in zip(line_ids, line_euler)]
    g = PlumbingGraph(tuple(lines + points + chains), tuple(edges))
    if reduce:
        g = reduce_double_chains(g, inc)
    return g


# -- closed forms and probes -------------------------------------------------

def betti_formula(inc: IncidenceData) -> int:
    """First Betti number of the boundary straight from the incidence data:
    sum over intersection points of 1 + (m - 2) * gcd(m, n)."""
    n = _line_count(inc)
    return sum(1 + (p.multiplicity - 2) * math.gcd(p.multiplicity, n) for p in inc.points)


def projective_complement_euler(inc: IncidenceData) -> int:
    """Euler characteristic of the complement of the projectivized
    arrangement: 3 - 2n + sum (m_j - 1)."""
    return 3 - 2 * inc.n + sum(p.multiplicity - 1 for p in inc.points)


class ConjectureReport(Record):
    """Evidence for the three torsion predictions on one arrangement.

    flat_hypothesis     every point has (m-2)(gcd(m,n)-1) = 0, i.e. no
                        point vertex carries genus;
    flat_prediction_ok  under that hypothesis, whether the torsion is
                        exactly (Z_n)^chi with chi the complement Euler
                        characteristic (None when the hypothesis fails);
    orders_divide_n     every invariant factor divides n;
    torsion_free_iff    torsion-freeness happens exactly for pencil and
                        near-pencil shapes.
    """

    n: int
    group: AbelianGroup
    betti_matches: bool
    flat_hypothesis: bool
    complement_euler: int
    flat_prediction_ok: Optional[bool]
    orders_divide_n: bool
    torsion_free: bool
    pencil_like: bool
    near_pencil_like: bool
    torsion_free_iff: bool

    def all_hold(self) -> bool:
        checks = [self.betti_matches, self.orders_divide_n, self.torsion_free_iff]
        if self.flat_prediction_ok is not None:
            checks.append(self.flat_prediction_ok)
        return all(checks)

    def to_json(self) -> dict:
        out = {name: getattr(self, name) for name in self._fields if name != "group"}
        out.update(h1=str(self.group), rank=self.group.free_rank,
                   torsion=list(self.group.torsion), all_hold=self.all_hold())
        return out


def probe_conjecture(inc: IncidenceData) -> ConjectureReport:
    g = boundary_graph(inc)
    group = homology_of_graph(g)
    n = inc.n
    flat = all(point_genus(p.multiplicity, n) == 0 for p in inc.points)
    chi = projective_complement_euler(inc)
    prediction = None
    if flat and chi >= 0:
        prediction = group.torsion == ((n,) * chi if chi else ())
    torsion_free = group.is_torsion_free
    pencil = is_pencil(inc)
    near = is_near_pencil(inc)
    return ConjectureReport(
        n=n,
        group=group,
        betti_matches=group.free_rank == betti_formula(inc),
        flat_hypothesis=flat,
        complement_euler=chi,
        flat_prediction_ok=prediction,
        orders_divide_n=all(n % d == 0 for d in group.torsion),
        torsion_free=torsion_free,
        pencil_like=pencil,
        near_pencil_like=near,
        torsion_free_iff=torsion_free == (pencil or near),
    )
