"""Plumbing calculus: local moves that change a closed plumbing graph
without changing the 3-manifold it describes.

Every move validates its precondition and returns a new graph; nothing is
mutated.  Multiplicities are input-stage data and are carried along
unchanged; the moves maintain Euler numbers, genus and signs only.

Moves:
  sign_reversal      flip the sign of every non-loop edge at a vertex;
  blow_down_a        remove a genus-0 leaf with Euler number +-1,
                     decrementing its neighbor by that number;
  blow_down_b        remove a genus-0 degree-2 vertex with Euler number
                     e = +-1 between distinct neighbors, joining them by an
                     edge of sign -e*e1*e2 and decrementing both by e;
  zero_chain_absorb  remove a genus-0 Euler-0 degree-2 vertex and merge its
                     two distinct neighbors (Euler numbers and genus add;
                     the far side's edges pick up the sign factor -e*ebar);
  handle_absorb      remove a genus-0 Euler-0 vertex doubly joined to one
                     vertex by a + and a - edge, adding 1 to that genus;
  split              remove a vertex that carries a degree-1 Euler-0
                     genus-0 companion; the remaining components survive
                     and 2g + (the drop in b_1) isolated Euler-0 vertices
                     are added, the drop being sum(k_j - 1) with k_j the
                     removed edges into each component;
  two_alteration     replace Euler number +2 by -2 on a genus-0 degree-2
                     vertex between distinct neighbors, flipping the sign
                     of exactly one of its two edges and decrementing both
                     neighbors by 1.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from typing import Optional

from .errors import (
    InvalidInput,
    MFBoundaryError,
    NotAbsorbable,
    NotApplicable,
    NotBlowdownable,
    NotSplittable,
)
from .graph_core import Edge, PlumbingGraph, Vertex, first_betti_of_graph
from .homology import homology_of_graph


def _bumped(g: PlumbingGraph, vid: str, delta: int) -> Vertex:
    """The vertex with delta added to its Euler number."""
    v = g.vertex(vid)
    if v.euler is None:
        raise InvalidInput(f"vertex {vid} has no Euler number to adjust")
    return replace(v, euler=v.euler + delta)


def _at_vertex(g: PlumbingGraph, vid: str, move: str, err, eulers: tuple[int, ...],
               edges: int) -> tuple[Vertex, list[Edge], list[str]]:
    """The vertex, its edges and the far end of each, once the vertex is
    not an arrowhead, has genus 0 and an Euler number in eulers, carries
    exactly ``edges`` edges and no loop, and every neighbor has an Euler
    number; err otherwise."""
    v = g.vertex(vid)
    if v.kind == "arrowhead":
        raise err(f"{move}: {vid} is an arrowhead")
    if v.genus != 0 or v.euler not in eulers:
        raise err(f"{move}: {vid} needs genus 0 and Euler number in {eulers}, "
                  f"has {v.genus}, {v.euler}")
    incident = g.edges_at(vid)
    others = [e.other(vid) for e in incident]
    if len(incident) != edges or vid in others:
        raise err(f"{move}: {vid} needs {edges} edges and no loop")
    for u in others:
        if g.vertex(u).euler is None:  # arrowheads have none
            raise err(f"{move}: neighbor {u} of {vid} has no Euler number")
    return v, incident, others


def sign_reversal(g: PlumbingGraph, vid: str) -> PlumbingGraph:
    """Flip the sign of every non-loop edge at the vertex."""
    g.vertex(vid)
    flipped = [e for e in g.edges_at(vid) if not e.is_loop()]
    return g.edit(remove=flipped, add_edges=[replace(e, sign=-e.sign) for e in flipped])


def blow_down_a(g: PlumbingGraph, vid: str) -> PlumbingGraph:
    v, _, (u,) = _at_vertex(g, vid, "blow_down_a", NotBlowdownable, (1, -1), 1)
    return g.edit(drop=[vid], put=[_bumped(g, u, -v.euler)])


def blow_down_b(g: PlumbingGraph, vid: str) -> PlumbingGraph:
    v, (e1, e2), (i, j) = _at_vertex(g, vid, "blow_down_b", NotBlowdownable, (1, -1), 2)
    if i == j:
        raise NotBlowdownable(f"{vid}: both edges go to {i}")
    sign0 = -v.euler * e1.sign * e2.sign
    return g.edit(drop=[vid], add_edges=[Edge(a=i, b=j, sign=sign0)],
                  put=[_bumped(g, i, -v.euler), _bumped(g, j, -v.euler)])


def zero_chain_absorb(g: PlumbingGraph, vid: str, keep: Optional[str] = None) -> PlumbingGraph:
    """Merge the two neighbors of a 0-vertex.  The merged vertex keeps the
    id, kind and multiplicity of ``keep`` (default: the canonically first
    neighbor); genus and Euler numbers add.  Edges formerly at the other
    neighbor are re-signed by -e*ebar unless they are loops."""
    _, (e1, e2), (n1, n2) = _at_vertex(g, vid, "zero_chain_absorb", NotAbsorbable, (0,), 2)
    if n1 == n2:
        raise NotAbsorbable(f"{vid}: both edges go to {n1}, use handle_absorb")
    if keep is None:
        keep = g.neighbors(vid)[0]
    if keep not in (n1, n2):
        raise NotAbsorbable(f"{vid}: keep={keep!r} is not a neighbor")
    kid = keep
    jid = n2 if kid == n1 else n1
    eps, eps_bar = (e1.sign, e2.sign) if kid == n1 else (e2.sign, e1.sign)
    ki, kj = g.vertex(kid), g.vertex(jid)
    factor = -eps * eps_bar
    merged = replace(ki, euler=ki.euler + kj.euler, genus=ki.genus + kj.genus)
    moved = []
    for e in g.edges_at(jid):
        if e.touches(vid):
            continue  # leaves with vid
        ja, jb = e.a == jid, e.b == jid
        a = kid if ja else e.a
        b = kid if jb else e.b
        sign = e.sign * factor if ja != jb else e.sign
        moved.append(replace(e, a=a, b=b, sign=sign))
    return g.edit(drop=[vid, jid], add_edges=moved, put=[merged])


def handle_absorb(g: PlumbingGraph, vid: str) -> PlumbingGraph:
    _, (e1, e2), (i, j) = _at_vertex(g, vid, "handle_absorb", NotAbsorbable, (0,), 2)
    if i != j:
        raise NotAbsorbable(f"{vid}: need a double edge to a single other vertex")
    if {e1.sign, e2.sign} != {1, -1}:
        raise NotAbsorbable(f"{vid}: the double edge must carry one + and one -")
    host = g.vertex(i)
    return g.edit(drop=[vid], put=[replace(host, genus=host.genus + 1)])


def split(g: PlumbingGraph, vid: str, companion: Optional[str] = None) -> PlumbingGraph:
    """Split at a vertex with an Euler-0 leaf companion.

    The vertex and the companion disappear; each remaining component
    survives, and one isolated Euler-0 vertex appears for every handle the
    removal frees: 2*genus plus the drop in b_1 of the graph, which is
    (k_j - 1) per component joined by k_j edges."""
    v = g.vertex(vid)
    if v.kind == "arrowhead":
        raise NotSplittable(f"split: {vid} is an arrowhead")
    if any(e.is_loop() for e in g.edges_at(vid)):
        raise NotSplittable(f"{vid}: loops at the split vertex are not supported")
    candidates = [
        u
        for u in g.neighbors(vid)
        if g.degree(u) == 1
        and g.vertex(u).euler == 0
        and g.vertex(u).genus == 0
        and g.vertex(u).kind != "arrowhead"
    ]
    if companion is not None:
        if companion not in candidates:
            raise NotSplittable(f"{vid}: {companion!r} is not an Euler-0 leaf neighbor")
    else:
        if not candidates:
            raise NotSplittable(f"{vid}: no Euler-0 leaf companion")
        companion = candidates[0]
    rest = g.edit(drop=[vid, companion])
    extras = 2 * v.genus + first_betti_of_graph(g) - first_betti_of_graph(rest)
    free = (f"z{k}" for k in itertools.count() if not rest.has_vertex(f"z{k}"))
    return rest.edit(add_vertices=[
        Vertex(id=next(free), genus=0, euler=0, kind="plain") for _ in range(extras)
    ])


def two_alteration(g: PlumbingGraph, vid: str, flip: Optional[str] = None) -> PlumbingGraph:
    """Trade Euler number +2 for -2 on a degree-2 vertex, flipping one of
    its two edge signs (``flip`` names which neighbor's edge; either choice
    is legitimate) and decrementing both neighbors."""
    v, (e1, e2), (i, j) = _at_vertex(g, vid, "two_alteration", NotApplicable, (2,), 2)
    if i == j:
        raise NotApplicable(f"{vid}: both edges go to {i}")
    if flip is None:
        flip = g.neighbors(vid)[0]
    if flip not in (i, j):
        raise NotApplicable(f"{vid}: flip={flip!r} is not a neighbor")
    flip_edge = e1 if i == flip else e2
    return g.edit(remove=[flip_edge], add_edges=[replace(flip_edge, sign=-flip_edge.sign)],
                  put=[replace(v, euler=-2), _bumped(g, i, -1), _bumped(g, j, -1)])


# -- scripted application ----------------------------------------------------

# kind -> (the move, the one optional field of its spec it reads, or None)
MOVES = {
    "sign_reversal": (sign_reversal, None),
    "blow_down_a": (blow_down_a, None),
    "blow_down_b": (blow_down_b, None),
    "zero_chain_absorb": (zero_chain_absorb, "keep"),
    "handle_absorb": (handle_absorb, None),
    "split": (split, "companion"),
    "two_alteration": (two_alteration, "flip"),
}
_OPTIONAL = ("keep", "flip", "companion")


@dataclass(frozen=True)
class MoveSpec:
    kind: str
    target: str
    keep: Optional[str] = None
    flip: Optional[str] = None
    companion: Optional[str] = None

    def __post_init__(self):
        if self.kind not in MOVES:
            raise InvalidInput(f"unknown move kind {self.kind!r}")
        for key in _OPTIONAL:
            if getattr(self, key) is not None and key != MOVES[self.kind][1]:
                raise InvalidInput(f'move {self.kind} does not read "{key}"')

    def to_json(self) -> dict:
        out = {"kind": self.kind, "target": self.target}
        for key in _OPTIONAL:
            if getattr(self, key) is not None:
                out[key] = getattr(self, key)
        return out

    @classmethod
    def from_json(cls, obj: dict) -> "MoveSpec":
        if not isinstance(obj, dict):
            raise InvalidInput("a move spec is a JSON object")
        unknown = [key for key in obj if key not in ("kind", "target") + _OPTIONAL]
        if unknown:
            raise InvalidInput(f"unknown move spec keys {unknown}")
        spec = {key: obj.get(key) for key in ("kind", "target") + _OPTIONAL}
        for key, value in spec.items():  # kind and target required, the rest optional
            if not isinstance(value, str) and (value is not None or key in ("kind", "target")):
                raise InvalidInput(f'move spec "{key}" must be a string, '
                                   f"got {type(value).__name__}")
        return cls(**spec)


def apply_move(g: PlumbingGraph, spec: MoveSpec) -> PlumbingGraph:
    fn, field = MOVES[spec.kind]
    if field is None:
        return fn(g, spec.target)
    return fn(g, spec.target, getattr(spec, field))


def run_script(g: PlumbingGraph, script: list[MoveSpec]):
    """Yield the graph after each move, in order."""
    for spec in script:
        g = apply_move(g, spec)
        yield g


def apply_script(g: PlumbingGraph, script: list[MoveSpec],
                 check_h1: bool = False) -> PlumbingGraph:
    """Apply the moves in order.  With check_h1, compare the first homology
    of every closed simple intermediate graph against the start."""
    reference = None
    if check_h1 and g.is_closed() and g.is_simple():
        reference = homology_of_graph(g)
    for step, g in enumerate(run_script(g, script)):
        if check_h1 and g.is_closed() and g.is_simple():
            h = homology_of_graph(g)
            if reference is None:
                reference = h
            elif h != reference:
                raise MFBoundaryError(f"H1 changed after move {step}: {reference} -> {h}")
    return g
