"""Plumbing graphs with signed edges.

A vertex carries genus, Euler number, multiplicity, a kind tag and, during
the curve-configuration stage only, a decoration triple (m; n, nu).  Edges
are unordered, signed +1/-1, may be parallel, may be loops, and may be
arrows (edges into an arrowhead vertex).  Graphs are immutable: every
operation returns a new graph.

Vertex ids double as ordering keys.  The pipeline assigns structured ids
 ("v3" line 3, "w5" point 5, "s1_4#0" first string vertex on the edge from
line 1 toward point 4, "a2" arrowhead of line 2) and vertex_order sorts
line vertices first by line index, then point and string vertices by host
point, then everything else by id.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field, replace
from typing import Iterable, Optional

from .errors import InvalidInput, UnknownVertex

KINDS = ("line", "point", "string", "arrowhead", "plain")


@dataclass(frozen=True)
class Vertex:
    id: str
    genus: int = 0
    euler: Optional[int] = None
    mult: Optional[int] = None
    kind: str = "plain"
    dec: Optional[tuple[int, int, int]] = None

    def __post_init__(self):
        if not isinstance(self.id, str) or not self.id:
            raise InvalidInput(f"vertex id must be a non-empty string: {self.id!r}")
        # type(x) is int: a bool is not an integer here
        if type(self.genus) is not int or self.genus < 0:
            raise InvalidInput(f"vertex {self.id}: genus must be a non-negative integer")
        if self.euler is not None and type(self.euler) is not int:
            raise InvalidInput(f"vertex {self.id}: euler must be an integer or None")
        if self.mult is not None and (type(self.mult) is not int or self.mult < 1):
            raise InvalidInput(f"vertex {self.id}: multiplicity must be a positive integer")
        if self.kind not in KINDS:
            raise InvalidInput(f"vertex {self.id}: unknown kind {self.kind!r}")
        if self.dec is not None:
            d = tuple(self.dec)
            if len(d) != 3 or not all(type(x) is int for x in d):
                raise InvalidInput(f"vertex {self.id}: dec must be three integers")
            if d[0] < 1 or d[1] < 0 or d[2] < 1:
                raise InvalidInput(f"vertex {self.id}: bad decoration {d}")
            object.__setattr__(self, "dec", d)
        if self.kind == "arrowhead":
            if self.euler is not None:
                raise InvalidInput(f"arrowhead {self.id} must not carry an Euler number")
            if self.genus != 0:
                raise InvalidInput(f"arrowhead {self.id} must have genus 0")


@dataclass(frozen=True)
class Edge:
    a: str
    b: str
    sign: int = 1
    edge_type: Optional[int] = None
    arrow: bool = False

    def __post_init__(self):
        if type(self.sign) is not int or self.sign not in (1, -1):
            raise InvalidInput(f"edge {self.a}--{self.b}: sign must be +1 or -1")
        if type(self.edge_type) not in (int, type(None)) or self.edge_type not in (None, 1, 2):
            raise InvalidInput(f"edge {self.a}--{self.b}: type must be 1, 2 or None")
        if not isinstance(self.arrow, bool):
            raise InvalidInput(f"edge {self.a}--{self.b}: arrow must be True or False")

    def other(self, vid: str) -> str:
        if vid == self.a:
            return self.b
        if vid == self.b:
            return self.a
        raise UnknownVertex(f"edge {self.a}--{self.b} does not touch {vid}")

    def touches(self, vid: str) -> bool:
        return vid == self.a or vid == self.b

    def is_loop(self) -> bool:
        return self.a == self.b


_ID_V = re.compile(r"^v(\d+)$")
_ID_W = re.compile(r"^w(\d+)$")
_ID_S = re.compile(r"^s(\d+)_(\d+)#(\d+)$")
_ID_A = re.compile(r"^a(\d+)$")


def _order_key(vid: str):
    m = _ID_V.match(vid)
    if m:
        return (0, int(m.group(1)), 0, 0, 0, vid)
    m = _ID_W.match(vid)
    if m:
        return (1, int(m.group(1)), 0, 0, 0, vid)
    m = _ID_S.match(vid)
    if m:
        line, point, pos = (int(g) for g in m.groups())
        return (1, point, 1, line, pos, vid)
    m = _ID_A.match(vid)
    if m:
        return (2, int(m.group(1)), 0, 0, 0, vid)
    return (3, 0, 0, 0, 0, vid)


def _check_edge(e: Edge, index: dict) -> None:
    """Both ends are known vertices, and the edge touches an arrowhead
    exactly when it is an arrow, and then at one end only."""
    for vid in (e.a, e.b):
        if vid not in index:
            raise UnknownVertex(f"edge references unknown vertex {vid!r}")
    heads = (index[e.a].kind == "arrowhead") + (index[e.b].kind == "arrowhead")
    if e.arrow and heads != 1:
        raise InvalidInput(f"arrow edge {e.a}--{e.b} must join a vertex to one arrowhead")
    if not e.arrow and heads != 0:
        raise InvalidInput(f"edge {e.a}--{e.b} touches an arrowhead but is not an arrow")


@dataclass(frozen=True)
class PlumbingGraph:
    """Vertices and edges in a fixed order, with three indexes: ``_index``
    maps an id to its vertex, in vertex order; ``_store`` maps an edge key
    to its edge, in edge order; and ``_adj`` maps an id to the keys of the
    edges at the vertex, ascending (a loop once).

    Every graph is an edit: the constructor runs the routine behind
    ``edit`` on empty indexes, adding all its vertices and edges, so it
    checks and indexes everything in one O(V + E) pass."""

    vertices: tuple[Vertex, ...]
    edges: tuple[Edge, ...]
    _index: dict = field(init=False, repr=False, compare=False, default=None)
    _adj: dict = field(init=False, repr=False, compare=False, default=None)
    _store: dict = field(init=False, repr=False, compare=False, default=None)

    def __post_init__(self):
        self._build({}, {}, {}, add_vertices=self.vertices, add_edges=self.edges)

    def edit(self, *, add_vertices: Iterable[Vertex] = (),
             remove: Iterable[Edge] = (), drop: Iterable[str] = (),
             add_edges: Iterable[Edge] = (), put: Iterable[Vertex] = ()) -> "PlumbingGraph":
        """The graph after one edit, made in this order:

          add_vertices  append these vertices;
          remove        remove these edges: each removes one stored edge
                        equal to it, the first in key order at its a end;
          drop          remove these vertices, in order, and every edge at them;
          add_edges     append these edges;
          put           put each vertex in place of the one with its id.

        Vertex and edge order come out as a rebuild from the edited lists
        would give them: a kept edge keeps its key and an added one takes a
        fresh key, so a key only ever joins an adjacency at its end.  The
        indexes are copied from this graph's and only the vertices and edges
        the edit touches are edited and checked, raising what the
        constructor would raise."""
        out = object.__new__(PlumbingGraph)
        out._build(dict(self._index), dict(self._adj), dict(self._store),
                   add_vertices, remove, drop, add_edges, put)
        return out

    def _build(self, index: dict, adj: dict, store: dict, add_vertices=(),
               remove=(), drop=(), add_edges=(), put=()) -> None:
        """Make the edit of ``edit`` on the given indexes, which this graph
        then keeps."""
        touched = []  # ids where an arrowhead's degree may have changed
        for v in add_vertices:
            if v.id in index:
                raise InvalidInput(f"duplicate vertex id {v.id!r}")
            index[v.id] = v
            adj[v.id] = ()
            touched.append(v.id)
        for e in remove:
            k = next((k for k in adj.get(e.a, ()) if store[k] == e), None)
            if k is None:
                raise InvalidInput(f"no edge {e.a}--{e.b} to remove")
            del store[k]
            for vid in {e.a, e.b}:
                adj[vid] = tuple(x for x in adj[vid] if x != k)
            touched += (e.a, e.b)
        for vid in dict.fromkeys(drop):
            if vid not in index:
                raise UnknownVertex(f"no vertex {vid!r}")
            del index[vid]
            for k in adj.pop(vid):
                e = store.pop(k, None)  # None: already gone with its other end
                if e is None:
                    continue
                touched += (e.a, e.b)
                other = e.b if e.a == vid else e.a
                if other in adj:
                    adj[other] = tuple(x for x in adj[other] if x != k)
        fresh = {}  # new keys per vertex, joined to its tuple once
        # new keys count on from the last stored one; stored keys ascend,
        # so key order stays edge order
        for k, e in enumerate(add_edges, next(reversed(store), -1) + 1):
            _check_edge(e, index)
            store[k] = e
            fresh.setdefault(e.a, []).append(k)
            if e.b != e.a:
                fresh.setdefault(e.b, []).append(k)
            if e.arrow:  # only an arrow can reach an arrowhead
                touched += (e.a, e.b)
        for vid, keys in fresh.items():
            adj[vid] += tuple(keys)
        for v in put:
            old = index.get(v.id)
            if old is None:
                raise UnknownVertex(f"no vertex {v.id!r}")
            index[v.id] = v
            if (old.kind == "arrowhead") != (v.kind == "arrowhead"):
                touched.append(v.id)
                for k in adj[v.id]:
                    _check_edge(store[k], index)
        object.__setattr__(self, "vertices", tuple(index.values()))
        object.__setattr__(self, "edges", tuple(store.values()))
        object.__setattr__(self, "_index", index)
        object.__setattr__(self, "_adj", adj)
        object.__setattr__(self, "_store", store)
        for v in map(index.get, touched):  # None: dropped
            if v is not None and v.kind == "arrowhead" and self.degree(v.id) != 1:
                raise InvalidInput(f"arrowhead {v.id} must have degree 1")

    # -- access ------------------------------------------------------------

    def vertex(self, vid: str) -> Vertex:
        try:
            return self._index[vid]
        except KeyError:
            raise UnknownVertex(f"no vertex {vid!r}") from None

    def has_vertex(self, vid: str) -> bool:
        return vid in self._index

    def edges_at(self, vid: str) -> list[Edge]:
        store = self._store
        return [store[k] for k in self._adj.get(vid, ())]

    def degree(self, vid: str) -> int:
        """Number of edge ends at the vertex; a loop contributes 2."""
        es = self.edges_at(vid)
        return len(es) + sum(e.a == e.b for e in es)

    def neighbors(self, vid: str) -> list[str]:
        out = {e.other(vid) for e in self.edges_at(vid)}
        out.discard(vid)
        return sorted(out, key=_order_key)

    @property
    def ids(self) -> list[str]:
        return list(self._index)

    def plain_edges(self) -> list[Edge]:
        return [e for e in self.edges if not e.arrow]

    # -- predicates ---------------------------------------------------------

    def is_closed(self) -> bool:
        """No arrowheads left and every vertex has its Euler number."""
        return all(v.kind != "arrowhead" and v.euler is not None for v in self.vertices)

    def is_simple(self) -> bool:
        """No loops and no parallel edges (arrows ignored)."""
        seen = set()
        for e in self.plain_edges():
            if e.is_loop():
                return False
            key = frozenset((e.a, e.b))
            if key in seen:
                return False
            seen.add(key)
        return True

    # -- canonical form ------------------------------------------------------

    def canonical(self) -> "PlumbingGraph":
        """Same graph with vertices in canonical order and edges sorted with
        normalized endpoint order.  Two graphs are structurally equal iff
        their canonical forms are equal."""
        verts = tuple(sorted(self.vertices, key=lambda v: _order_key(v.id)))
        edges = []
        for e in self.edges:
            if _order_key(e.b) < _order_key(e.a):
                e = replace(e, a=e.b, b=e.a)
            edges.append(e)
        edges.sort(key=lambda e: (_order_key(e.a), _order_key(e.b), -e.sign,
                                  e.arrow, e.edge_type or 0))
        return PlumbingGraph(verts, tuple(edges))


def vertex_order(g: PlumbingGraph) -> list[str]:
    """Canonical vertex id order: line vertices by line index, then point and
    string vertices grouped by host point (strings after their point, by host
    line and position), then arrowheads, then anything else by id."""
    return sorted(g.ids, key=_order_key)


def first_betti_of_graph(g: PlumbingGraph) -> int:
    """b_1 of the underlying topological graph, arrowheads and arrows
    excluded: edges - vertices + components."""
    verts = [v.id for v in g.vertices if v.kind != "arrowhead"]
    parent = {v: v for v in verts}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    edges = g.plain_edges()  # none touches an arrowhead
    for e in edges:
        ra, rb = find(e.a), find(e.b)
        if ra != rb:
            parent[ra] = rb
    components = len({find(v) for v in verts})
    return len(edges) - len(verts) + components


# -- serialization ----------------------------------------------------------

def graph_to_json(g: PlumbingGraph) -> dict:
    g = g.canonical()
    return {
        "vertices": [
            {
                "id": v.id,
                "genus": v.genus,
                "euler": v.euler,
                "mult": v.mult,
                "kind": v.kind,
                "dec": list(v.dec) if v.dec is not None else None,
            }
            for v in g.vertices
        ],
        "edges": [
            {
                "a": e.a,
                "b": e.b,
                "sign": "+" if e.sign == 1 else "-",
                "type": e.edge_type,
                "arrow": e.arrow,
            }
            for e in g.edges
        ],
    }


def _json_rows(obj: dict, key: str, what: str, required: tuple[str, ...]) -> list[dict]:
    """The rows under obj[key], each an object with the required fields."""
    rows = obj[key]
    if not isinstance(rows, list):
        raise InvalidInput(f'graph JSON "{key}" must be a list')
    for row in rows:
        if not isinstance(row, dict):
            raise InvalidInput(f"{what} row must be an object, got {row!r}")
        for name in required:
            if name not in row:
                raise InvalidInput(f'{what} row needs "{name}": {row!r}')
    return rows


def graph_from_json(obj: dict) -> PlumbingGraph:
    if not isinstance(obj, dict) or "vertices" not in obj or "edges" not in obj:
        raise InvalidInput('graph JSON needs "vertices" and "edges"')
    verts = []
    for row in _json_rows(obj, "vertices", "vertex", ("id",)):
        dec = row.get("dec")
        if dec is not None and not isinstance(dec, list):
            raise InvalidInput(f"vertex {row['id']!r}: dec must be a list of three integers")
        verts.append(
            Vertex(
                id=row["id"],
                genus=row.get("genus", 0),
                euler=row.get("euler"),
                mult=row.get("mult"),
                kind=row.get("kind", "plain"),
                dec=tuple(dec) if dec is not None else None,
            )
        )
    edges = []
    for row in _json_rows(obj, "edges", "edge", ("a", "b")):
        if not isinstance(row["a"], str) or not isinstance(row["b"], str):
            raise InvalidInput(f"edge ends must be vertex ids: {row['a']!r}--{row['b']!r}")
        sign = row.get("sign", "+")
        sign = 1 if sign == "+" else -1 if sign == "-" else sign  # Edge checks the rest
        arrow = row.get("arrow")
        if arrow is not None and not isinstance(arrow, bool):
            raise InvalidInput(f"edge arrow must be true, false or null, got {arrow!r}")
        edges.append(
            Edge(
                a=row["a"],
                b=row["b"],
                sign=sign,
                edge_type=row.get("type"),
                arrow=bool(arrow),
            )
        )
    return PlumbingGraph(tuple(verts), tuple(edges))


def _vertex_label(v: Vertex) -> str:
    if v.dec is not None:
        core = f"({v.dec[0]};{v.dec[1]},{v.dec[2]})"
    else:
        parts = []
        if v.euler is not None:
            parts.append(str(v.euler))
        if v.genus:
            parts.append(f"[{v.genus}]")
        if v.mult is not None:
            parts.append(f"({v.mult})")
        core = " ".join(parts) if parts else "."
    return f"{v.id}: {core}"


def _quoted(text: str) -> str:
    """A DOT quoted string, with backslash and double quote escaped."""
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


def to_dot(g: PlumbingGraph) -> str:
    """Graphviz rendering.  Arrows keep their direction, ordinary edges are
    drawn without one; edge labels show the sign and, if present, the type."""
    g = g.canonical()
    lines = ["digraph plumbing {", "  edge [dir=none];"]
    for v in g.vertices:
        shape = "point" if v.kind == "arrowhead" else "ellipse"
        lines.append(f"  {_quoted(v.id)} [shape={shape} label={_quoted(_vertex_label(v))}];")
    for e in g.edges:
        label = "+" if e.sign == 1 else "-"
        if e.edge_type is not None:
            label += f" t{e.edge_type}"
        attrs = [f"label={_quoted(label)}"]
        if e.arrow:
            head, tail = (e.a, e.b) if g.vertex(e.a).kind == "arrowhead" else (e.b, e.a)
            lines.append(f'  {_quoted(tail)} -> {_quoted(head)} [dir=forward {" ".join(attrs)}];')
        else:
            lines.append(f'  {_quoted(e.a)} -> {_quoted(e.b)} [{" ".join(attrs)}];')
    lines.append("}")
    return "\n".join(lines) + "\n"
