"""Reduction recipes: move scripts that compact a freshly built boundary
graph toward its small normal forms.

The workhorse is the double-point chain reduction.  The chain of an
ordinary double point consists of Euler-2 string vertices around the point
vertex (Euler 2 for even n, Euler 1 with two Euler-3 neighbors for odd n).
Blowing down the point vertex when its Euler number is 1, trading the
Euler 2 at the line end for -2 with one sign flip, and blowing down the
resulting chain of 1s leaves a single middle vertex with Euler number -n,
joined to the two line vertices by a - edge (smaller line index) and a +
edge, and decrements both line vertices by 1.

For a generic arrangement doing this on every chain produces the compact
model whose intersection matrix is the block matrix of the closed-form
route.  The pencil and near-pencil scripts finish their families off to
normal form.
"""

from __future__ import annotations

from typing import Iterator

from .arrangement import IncidenceData, is_generic, is_near_pencil, is_pencil
from .calculus import MoveSpec, apply_script
from .errors import InvalidInput
from .graph_core import PlumbingGraph, chain_id, chain_ids, line_id, point_id


def double_chain_script(g: PlumbingGraph, inc: IncidenceData, j: int) -> list[MoveSpec]:
    """Script reducing the chain of double point j to a single middle
    vertex.  The surviving vertex is the string vertex next to the smaller
    line (the point vertex itself when the chain has no strings)."""
    pt = inc.points[j]
    if pt.multiplicity != 2:
        raise InvalidInput(f"point {j} has multiplicity {pt.multiplicity}, not 2")
    i1, i2 = pt.lines
    wid = point_id(j)
    t = 0
    while g.has_vertex(chain_id(i1, j, t)):
        t += 1
    chain = chain_ids(i1, j, t) + [wid] + chain_ids(i2, j, t)[::-1]
    script: list[MoveSpec] = []
    if g.vertex(wid).euler == 1:
        script.append(MoveSpec("blow_down_b", wid))
        chain.remove(wid)
    first, rest = chain[0], chain[1:]
    flip = rest[0] if rest else line_id(i2)
    script.append(MoveSpec("two_alteration", first, flip=flip))
    script += [MoveSpec("blow_down_b", c) for c in rest]
    return script


def chain_survivor(inc: IncidenceData, j: int) -> str:
    """Id of the middle vertex left by double_chain_script."""
    i1, _ = inc.points[j].lines
    return point_id(j) if inc.n == 2 else chain_id(i1, j, 0)


def _double_chains_script(g: PlumbingGraph, inc: IncidenceData) -> Iterator[MoveSpec]:
    """The double_chain_scripts of all double points in point order, each
    built from g when the moves reach it: no chain's moves touch what
    another chain's script reads, and only one chain's moves are alive."""
    for j, pt in enumerate(inc.points):
        if pt.multiplicity == 2:
            yield from double_chain_script(g, inc, j)


def generic_reduction_script(g: PlumbingGraph, inc: IncidenceData) -> list[MoveSpec]:
    if not is_generic(inc):
        raise InvalidInput("generic reduction needs an arrangement with only double points")
    return list(_double_chains_script(g, inc))


def reduce_double_chains(g: PlumbingGraph, inc: IncidenceData) -> PlumbingGraph:
    """Compact every double-point chain of a boundary graph; points of
    higher multiplicity are left alone."""
    return apply_script(g, _double_chains_script(g, inc))


def pencil_reduction_script(g: PlumbingGraph, inc: IncidenceData) -> list[MoveSpec]:
    """One splitting at the central point, companion line 0."""
    if not is_pencil(inc):
        raise InvalidInput("pencil reduction needs all lines through one point")
    return [MoveSpec("split", point_id(0), companion=line_id(0))]


def near_pencil_roles(inc: IncidenceData) -> tuple[int, int, list[int]]:
    """(big point index, generic line, double point indices) of a
    near-pencil arrangement."""
    if not is_near_pencil(inc):
        raise InvalidInput("not a near-pencil arrangement")
    # For n = 3 the triangle is a near-pencil in three symmetric ways
    # (every point has multiplicity n - 1 = 2); take the first.
    big = next(j for j, p in enumerate(inc.points) if p.multiplicity == inc.n - 1)
    doubles = [j for j in range(len(inc.points)) if j != big]
    (gline,) = set(range(inc.n)) - set(inc.points[big].lines)
    return big, gline, doubles


def near_pencil_reduction_script(g: PlumbingGraph, inc: IncidenceData) -> list[MoveSpec]:
    """Reduce a near-pencil boundary graph to a single vertex of genus n-2.

    After the double chains are compacted, each pencil line has Euler
    number 0 and joins its chain's survivor to the string vertex heading to
    the big point; absorbing it merges the two into an Euler-0 middle.
    Absorbing the first middle merges the generic line (Euler -1) with the
    big point vertex (Euler 1); the remaining middles become +- handles."""
    big, gline, doubles = near_pencil_roles(inc)
    script: list[MoveSpec] = []
    survivors = {}
    for j in doubles:
        script += double_chain_script(g, inc, j)
        survivors[j] = chain_survivor(inc, j)
    for j in doubles:
        pline = next(i for i in inc.points[j].lines if i != gline)
        script.append(MoveSpec("zero_chain_absorb", line_id(pline), keep=survivors[j]))
    first, rest = doubles[0], doubles[1:]
    script.append(MoveSpec("zero_chain_absorb", survivors[first], keep=line_id(gline)))
    script += [MoveSpec("handle_absorb", survivors[j]) for j in rest]
    return script
