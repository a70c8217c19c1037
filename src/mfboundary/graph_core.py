"""Plumbing graphs with signed edges.

A vertex carries genus, Euler number, multiplicity, a kind tag and, during
the curve-configuration stage only, a decoration triple (m; n, nu).  Edges
are unordered, signed +1/-1, may be parallel, may be loops, and may be
arrows (edges into an arrowhead vertex).  Graphs are immutable: every
operation returns a new graph, and ``edit`` copies the old graph's indexes.
The one exception is an open graph, a private copy that ``opened`` makes:
its edits are made in place on its indexes, which pass to the graph the
edit returns, so an edit costs only the degree of the vertices it touches.
The superseded graph raises ``InternalError`` when it is read again.
A new graph indexes each vertex's edges only when first asked for them,
so the raw route, which reads a graph whole, never pays for that index.

Vertex ids double as ordering keys.  This module both writes and parses
the structured ids, from one table of prefixes: the pipeline and the
reduction recipes name vertices through line_id, point_id, arrowhead_id,
chain_id and chain_ids ("v3" line 3, "w5" point 5, "s1_4#0" first string
vertex on the edge from line 1 toward point 4, "a2" arrowhead of line 2),
and the canonical order of ``PlumbingGraph.canonical`` sorts line
vertices first by line index, then point and string vertices by host
point (strings after their point, by host line and position), then
arrowheads, then everything else by id.
That order is an output format (JSON, DOT, structural equality); every
computation reads a graph in its own vertex order.  Printing sorts the
graph it is given once, and builds no second graph.
"""

from __future__ import annotations

import re
from collections import defaultdict, deque
from itertools import compress
from operator import attrgetter, ne
from typing import Iterable, Optional

from .errors import InternalError, InvalidInput, UnknownVertex, reject_unknown_keys
from .record import Record

KINDS = ("line", "point", "string", "arrowhead", "plain")


class Vertex(Record):
    """The constructor checks the fields, then writes them straight into the
    instance dict, past the record's refusing setattr."""

    id: str
    genus: int = 0
    euler: Optional[int] = None
    mult: Optional[int] = None
    kind: str = "plain"
    dec: Optional[tuple[int, int, int]] = None

    def __init__(self, id: str, genus: int = 0, euler: Optional[int] = None,
                 mult: Optional[int] = None, kind: str = "plain",
                 dec: Optional[tuple[int, int, int]] = None):
        if not isinstance(id, str) or not id:
            raise InvalidInput(f"vertex id must be a non-empty string: {id!r}")
        # type(x) is int: a bool is not an integer here
        if type(genus) is not int or genus < 0:
            raise InvalidInput(f"vertex {id}: genus must be a non-negative integer")
        if euler is not None and type(euler) is not int:
            raise InvalidInput(f"vertex {id}: euler must be an integer or None")
        if mult is not None and (type(mult) is not int or mult < 1):
            raise InvalidInput(f"vertex {id}: multiplicity must be a positive integer")
        if kind not in KINDS:
            raise InvalidInput(f"vertex {id}: unknown kind {kind!r}")
        if dec is not None:
            dec = tuple(dec) if hasattr(dec, "__iter__") else ()  # () fails below
            if len(dec) != 3 or not all(type(x) is int for x in dec):
                raise InvalidInput(f"vertex {id}: dec must be three integers")
            if dec[0] < 1 or dec[1] < 0 or dec[2] < 1:
                raise InvalidInput(f"vertex {id}: bad decoration {dec}")
        if kind == "arrowhead":
            if euler is not None:
                raise InvalidInput(f"arrowhead {id} must not carry an Euler number")
            if genus != 0:
                raise InvalidInput(f"arrowhead {id} must have genus 0")
        d = self.__dict__
        d["id"] = id
        d["genus"] = genus
        d["euler"] = euler
        d["mult"] = mult
        d["kind"] = kind
        d["dec"] = dec


class Edge(Record):
    """Built as a Vertex is: the fields are checked, then written straight
    into the instance dict."""

    a: str
    b: str
    sign: int = 1
    edge_type: Optional[int] = None
    arrow: bool = False

    def __init__(self, a: str, b: str, sign: int = 1, edge_type: Optional[int] = None,
                 arrow: bool = False):
        if type(sign) is not int or sign not in (1, -1):
            raise InvalidInput(f"edge {a}--{b}: sign must be +1 or -1")
        if edge_type is not None and (type(edge_type) is not int or edge_type not in (1, 2)):
            raise InvalidInput(f"edge {a}--{b}: type must be 1, 2 or None")
        if type(arrow) is not bool:
            raise InvalidInput(f"edge {a}--{b}: arrow must be True or False")
        d = self.__dict__
        d["a"] = a
        d["b"] = b
        d["sign"] = sign
        d["edge_type"] = edge_type
        d["arrow"] = arrow

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


class _Superseded:
    """What a graph superseded by an in-place edit holds for its indexes
    and its open flag: any use of them raises, and every read or edit of
    the graph uses them."""

    def __getattr__(self, *args):
        raise InternalError("read of a graph superseded by an in-place edit")

    __getitem__ = __contains__ = __iter__ = __len__ = __bool__ = __getattr__


# the id prefixes of line, point, arrowhead and string vertices: the id
# helpers below write them and _order_key parses them
_LINE, _POINT, _ARROWHEAD, _STRING = "v", "w", "a", "s"
_ID_NUM = re.compile(r"(\d+)$")
_ID_S = re.compile(_STRING + r"(\d+)_(\d+)#(\d+)$")
_ID_SLOT = {_LINE: 0, _POINT: 1, _ARROWHEAD: 2}  # prefix -> slot of a "<prefix><digits>" id


def line_id(i: int) -> str:
    """Id of the vertex of line i."""
    return f"{_LINE}{i}"


def point_id(j: int) -> str:
    """Id of the vertex of intersection point j."""
    return f"{_POINT}{j}"


def arrowhead_id(i: int) -> str:
    """Id of the arrowhead of line i's arrow."""
    return f"{_ARROWHEAD}{i}"


def _chain_head(i: int, j: int) -> str:
    """The head shared by the ids of the chain from line i toward point j."""
    return f"{_STRING}{i}_{j}#"


def chain_id(i: int, j: int, pos: int) -> str:
    """Id of the string vertex at pos on the chain from line i toward
    point j, pos counted from the line end."""
    return _chain_head(i, j) + str(pos)


def chain_ids(i: int, j: int, k: int) -> list[str]:
    """chain_id(i, j, pos) for pos = 0..k-1, the whole chain of k vertices,
    its head formatted once."""
    head = _chain_head(i, j)
    return [head + str(pos) for pos in range(k)]


def _order_key(vid: str):
    """The sort key of an id, dispatched on its first character so that it
    runs at most one regex.  An id may end in one newline, and its digits
    may be any Unicode decimal digits, which ``int`` reads."""
    first = vid[:1]
    if first == _STRING:
        m = _ID_S.match(vid)
        if m:
            line, point, pos = m.groups()
            return (1, int(point), 1, int(line), int(pos), vid)
    elif first in _ID_SLOT:
        m = _ID_NUM.match(vid, 1)
        if m:
            return (_ID_SLOT[first], int(m.group(1)), 0, 0, 0, vid)
    return (3, 0, 0, 0, 0, vid)


def _check_edge(e: Edge, index: dict) -> None:
    """Both ends are known vertices, and the edge touches an arrowhead
    exactly when it is an arrow, and then at one end only."""
    heads = 0
    for vid in (e.a, e.b):
        try:
            heads += index[vid].kind == "arrowhead"
        except (KeyError, TypeError):  # TypeError: an unhashable end
            raise UnknownVertex(f"edge references unknown vertex {vid!r}") from None
    if e.arrow and heads != 1:
        raise InvalidInput(f"arrow edge {e.a}--{e.b} must join a vertex to one arrowhead")
    if not e.arrow and heads != 0:
        raise InvalidInput(f"edge {e.a}--{e.b} touches an arrowhead but is not an arrow")


class PlumbingGraph(Record):
    """Vertices and edges in a fixed order, with three indexes: ``_index``
    maps an id to its vertex, in vertex order; ``_store`` maps an edge key
    to its edge, in edge order; and ``_adj`` maps an id to the keys of the
    edges at the vertex, ascending (a loop once).  ``vertices`` and
    ``edges`` are read off ``_index`` and ``_store``.  ``_adj`` is built
    on its first read (a lookup, an edit, ``opened`` or an arrowhead's
    degree check) and kept; edits then update it as they do the others.

    Every graph is an edit: the constructor runs the routine behind
    ``edit`` on empty indexes, adding all its vertices and edges, so it
    checks everything and fills ``_index`` and ``_store`` in one O(V + E)
    pass."""

    __slots__ = ("_index", "_edge_keys", "_store", "_open")
    vertices: tuple[Vertex, ...]
    edges: tuple[Edge, ...]

    def __init__(self, vertices: tuple[Vertex, ...], edges: tuple[Edge, ...]):
        self._build(False, {}, None, {}, add_vertices=vertices, add_edges=edges)

    @property
    def _adj(self) -> dict:
        """``_edge_keys``, which holds None until this first read builds it."""
        adj = self._edge_keys
        if adj is None:
            adj = _adjacency(self._index, self._store)
            object.__setattr__(self, "_edge_keys", adj)
        return adj

    @property
    def vertices(self) -> tuple[Vertex, ...]:
        return tuple(self._index.values())

    @property
    def edges(self) -> tuple[Edge, ...]:
        return tuple(self._store.values())

    def opened(self) -> "PlumbingGraph":
        """An open copy of this graph: its indexes are copied once, and
        every edit of the copy, and of the graphs its edits return, is made
        in place on them, superseding the graph it edits."""
        return _made(True, dict(self._index), dict(self._adj), dict(self._store))

    def closed(self) -> "PlumbingGraph":
        """This graph as an ordinary one, whose edits copy.  An open graph
        hands its indexes to the closed one and is superseded."""
        return _made(False, *self._released()) if self._open else self

    def _released(self) -> tuple[dict, dict, dict]:
        """The indexes of this open graph, which it gives up: from now on
        it holds a ``_Superseded`` in every slot."""
        indexes = self._index, self._adj, self._store
        superseded = _Superseded()
        for name in self.__slots__:
            object.__setattr__(self, name, superseded)
        return indexes

    def edit(self, *, add_vertices: Iterable[Vertex] = (),
             remove: Iterable[Edge] = (), drop: Iterable[str] = (),
             add_edges: Iterable[Edge] = (), put: Iterable[Vertex] = ()) -> "PlumbingGraph":
        """The graph after one edit, made in this order:

          add_vertices  append these vertices;
          remove        remove these edges: each removes one stored edge
                        equal to it, the first in key order at its a end;
          drop          remove these vertices, in order, and every edge at them;
          add_edges     append these edges;
          put           put each vertex for the one with its id: both arrowheads or neither.

        Vertex and edge order come out as a rebuild from the edited lists
        would give them: a kept edge keeps its key and an added one takes a
        fresh key, so a key only ever joins an adjacency at its end.  Only
        the vertices and edges the edit touches are edited and checked,
        raising what the constructor would raise.  The indexes are copied
        from this graph's, in O(V + E), unless this graph is open: then
        they are taken from it, the edit is made in place, and the graph
        returned is open."""
        if self._open:
            return _made(True, *self._released(), add_vertices, remove, drop, add_edges, put)
        return _made(False, dict(self._index), dict(self._adj), dict(self._store),
                     add_vertices, remove, drop, add_edges, put)

    def _build(self, open_: bool, index: dict, adj: Optional[dict], store: dict,
               add_vertices=(), remove=(), drop=(), add_edges=(), put=()) -> None:
        """Make the edit of ``edit`` on the given indexes, which this graph
        then keeps, open or not.  adj is None for a new graph, which only
        adds: its adjacency is built when first read."""
        touched = []  # ids where an arrowhead's degree may have changed
        for v in add_vertices:
            vid = v.id
            if vid in index:
                raise InvalidInput(f"duplicate vertex id {vid!r}")
            index[vid] = v
            if adj is not None:
                adj[vid] = ()
            if v.kind == "arrowhead":
                touched.append(vid)
        for e in remove:
            try:
                at = adj.get(e.a, ())
            except TypeError:  # an unhashable end is no vertex's
                at = ()
            k = next((k for k in at if store[k] == e), None)
            if k is None:
                raise InvalidInput(f"no edge {e.a}--{e.b} to remove")
            del store[k]
            for vid in {e.a, e.b}:
                adj[vid] = tuple(x for x in adj[vid] if x != k)
            touched += (e.a, e.b)
        dropped = set()
        for vid in drop:
            try:
                if vid in dropped:
                    continue
                del index[vid]
            except (KeyError, TypeError):  # TypeError: an unhashable id
                raise UnknownVertex(f"no vertex {vid!r}") from None
            dropped.add(vid)
            for k in adj.pop(vid):
                e = store.pop(k)
                touched += (e.a, e.b)
                other = e.b if e.a == vid else e.a
                if other in adj:
                    adj[other] = tuple(x for x in adj[other] if x != k)
        fresh = defaultdict(list)  # new keys per vertex, joined to its tuple once
        # new keys count on from the last stored one; stored keys ascend,
        # so key order stays edge order
        for k, e in enumerate(add_edges, next(reversed(store), -1) + 1):
            a, b = e.a, e.b
            try:  # only an arrow, or an edge at an arrowhead or an unknown end, can fail
                full = e.arrow or index[a].kind == "arrowhead" or index[b].kind == "arrowhead"
            except (KeyError, TypeError):  # TypeError: an unhashable end
                full = True
            if full:
                _check_edge(e, index)  # raises, naming the fault, unless a valid arrow
                touched += (a, b)
            store[k] = e
            if adj is not None:
                fresh[a].append(k)
                if b != a:
                    fresh[b].append(k)
        for vid, keys in fresh.items():
            adj[vid] += tuple(keys)
        for v in put:
            old = index.get(v.id)
            if old is None:
                raise UnknownVertex(f"no vertex {v.id!r}")
            if (old.kind == "arrowhead") != (v.kind == "arrowhead"):
                raise InvalidInput(f"put cannot turn {v.id!r} into or out of an arrowhead")
            index[v.id] = v
        object.__setattr__(self, "_open", open_)
        object.__setattr__(self, "_index", index)
        object.__setattr__(self, "_edge_keys", adj)
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
        return all(v.euler is not None for v in self.vertices)  # an arrowhead has none

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
        return PlumbingGraph(*_canonical_order(self))


def _adjacency(index: dict, store: dict) -> dict:
    """The ``_adj`` of these indexes, in C-level calls that run no Python
    line per vertex or edge: each edge's key joins its a end's list, then its
    b end's unless a loop, and each list is sorted."""
    at = dict(zip(index, iter(list, None)))  # iter(list, None): a fresh list each step
    keys = list(store)
    a = list(map(attrgetter("a"), store.values()))
    b = list(map(attrgetter("b"), store.values()))
    deque(map(list.append, map(at.__getitem__, a), keys), 0)
    loopless = list(map(ne, a, b))
    deque(map(list.append, map(at.__getitem__, compress(b, loopless)),
              compress(keys, loopless)), 0)
    deque(map(list.sort, at.values()), 0)
    return dict(zip(at, map(tuple, at.values())))


def _canonical_order(g: PlumbingGraph) -> tuple[list[Vertex], list[Edge]]:
    """g's vertices and edges in canonical order, from one sort of its ids:
    an order key ends in its id, so an id's place in the sorted ids stands
    for its key.  Edges run from their smaller end, sorted by their ends,
    then - sign, arrow and type."""
    index = g._index
    ids = sorted(index, key=_order_key)
    rank = {vid: k for k, vid in enumerate(ids)}
    edges = [e if rank[e.a] <= rank[e.b] else Edge(e.b, e.a, e.sign, e.edge_type, e.arrow)
             for e in g._store.values()]
    edges.sort(key=lambda e: (rank[e.a], rank[e.b], -e.sign, e.arrow, e.edge_type or 0))
    return list(map(index.__getitem__, ids)), edges


def _made(open_: bool, *build_args) -> PlumbingGraph:
    """The graph that ``_build`` makes of these arguments."""
    out = object.__new__(PlumbingGraph)
    out._build(open_, *build_args)
    return out


def cycle_count(n: int, pairs: Iterable[tuple[int, int]]) -> int:
    """b_1 of the graph on vertices 0..n-1 with an edge for each (a, b) of
    pairs: the number of pairs whose ends union-find has already joined."""
    parent = list(range(n))
    b1 = 0
    for a, b in pairs:
        while parent[a] != a:  # find, halving the path
            parent[a] = parent[parent[a]]
            a = parent[a]
        while parent[b] != b:
            parent[b] = parent[parent[b]]
            b = parent[b]
        if a == b:
            b1 += 1
        else:
            parent[a] = b
    return b1


def first_betti_of_graph(g: PlumbingGraph) -> int:
    """b_1 of the underlying topological graph, arrowheads and arrows
    excluded: ``cycle_count`` over the vertices' positions and the edges.
    An arrow ends at an arrowhead of degree 1, so it never closes a cycle
    and needs no exclusion."""
    pos = {vid: k for k, vid in enumerate(g._index)}
    return cycle_count(len(pos), ((pos[e.a], pos[e.b]) for e in g.edges))


# -- serialization ----------------------------------------------------------

def graph_to_json(g: PlumbingGraph) -> dict:
    vertices, edges = _canonical_order(g)
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
            for v in vertices
        ],
        "edges": [
            {
                "a": e.a,
                "b": e.b,
                "sign": "+" if e.sign == 1 else "-",
                "type": e.edge_type,
                "arrow": e.arrow,
            }
            for e in edges
        ],
    }


def _json_rows(obj: dict, key: str, what: str, required: tuple[str, ...],
               known: tuple[str, ...]) -> list[dict]:
    """The rows under obj[key], each an object with the required fields
    and no key outside the known ones."""
    rows = obj[key]
    if not isinstance(rows, list):
        raise InvalidInput(f'graph JSON "{key}" must be a list')
    for row in rows:
        if not isinstance(row, dict):
            raise InvalidInput(f"{what} row must be an object, got {row!r}")
        for name in required:
            if name not in row:
                raise InvalidInput(f'{what} row needs "{name}": {row!r}')
        reject_unknown_keys(row, known, what)
    return rows


def graph_from_json(obj: dict) -> PlumbingGraph:
    """The graph of the JSON that ``graph_to_json`` writes; a key outside
    that shape raises."""
    if not isinstance(obj, dict) or "vertices" not in obj or "edges" not in obj:
        raise InvalidInput('graph JSON needs "vertices" and "edges"')
    reject_unknown_keys(obj, ("vertices", "edges"), "graph JSON")
    verts = []
    for row in _json_rows(obj, "vertices", "vertex", ("id",),
                          ("id", "genus", "euler", "mult", "kind", "dec")):
        dec = row.get("dec")
        if dec is not None and not isinstance(dec, list):
            raise InvalidInput(f"vertex {row['id']!r}: dec must be a list of three integers")
        verts.append(Vertex(row["id"], row.get("genus", 0), row.get("euler"), row.get("mult"),
                            row.get("kind", "plain"), None if dec is None else tuple(dec)))
    edges = []
    for row in _json_rows(obj, "edges", "edge", ("a", "b"), ("a", "b", "sign", "type", "arrow")):
        if not isinstance(row["a"], str) or not isinstance(row["b"], str):
            raise InvalidInput(f"edge ends must be vertex ids: {row['a']!r}--{row['b']!r}")
        sign = row.get("sign", "+")
        sign = 1 if sign == "+" else -1 if sign == "-" else sign  # Edge checks the rest
        arrow = row.get("arrow")
        if arrow is not None and not isinstance(arrow, bool):
            raise InvalidInput(f"edge arrow must be true, false or null, got {arrow!r}")
        edges.append(Edge(row["a"], row["b"], sign, row.get("type"), bool(arrow)))
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
    vertices, edges = _canonical_order(g)
    lines = ["digraph plumbing {", "  edge [dir=none];"]
    for v in vertices:
        shape = "point" if v.kind == "arrowhead" else "ellipse"
        lines.append(f"  {_quoted(v.id)} [shape={shape} label={_quoted(_vertex_label(v))}];")
    for e in edges:
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
