"""The keyed edge store and incremental edits of PlumbingGraph.

Every edited graph must equal a full rebuild of its own vertex and edge
lists, in the same order, with the same vertex index and the same edges at
every vertex; its edge store must hold its edges in order, keyed so that
every vertex lists its keys ascending; its lookups must match a scan of
the edge list; an edit must cost the same at any graph size; and every
edit that a rebuild would reject must be rejected with the same error
class."""

import itertools
import os
import random
import subprocess
import sys
import timeit

import pytest

from mfboundary.arrangement import generate_family, incidence_from_lines, random_rational_lines
from mfboundary.calculus import (
    MOVES,
    MoveSpec,
    _bumped,
    apply_move,
    blow_down_b,
    run_script,
)
from mfboundary.errors import InvalidInput, MFBoundaryError, UnknownVertex
from mfboundary.graph_core import Edge, PlumbingGraph, Vertex, _order_key
from mfboundary.pipeline import boundary_graph
from mfboundary.reduction import (
    double_chain_script,
    generic_reduction_script,
    near_pencil_reduction_script,
    pencil_reduction_script,
    reduce_double_chains,
)

from oracles import random_plumbing


def assert_indexed(g):
    rebuilt = PlumbingGraph(g.vertices, g.edges)
    assert g == rebuilt
    assert g._index == rebuilt._index
    assert all(g.edges_at(vid) == rebuilt.edges_at(vid) for vid in g.ids)
    # keys are drawn afresh by a rebuild, so check the store's own shape
    assert tuple(g._store.values()) == g.edges
    assert list(g._store) == sorted(g._store)  # key order is edge order
    assert g._adj.keys() == g._index.keys()
    for vid, keys in g._adj.items():
        assert list(keys) == sorted(set(keys))
        for k in keys:
            e = g._store[k]
            assert vid in (e.a, e.b)
            assert k in g._adj[e.a] and k in g._adj[e.b]
    assert g.ids == [v.id for v in g.vertices]
    # one scan of the edge list gives every vertex's edges and degree
    at = {v.id: [] for v in g.vertices}
    degree = dict.fromkeys(at, 0)
    for e in g.edges:
        at[e.a].append(e)
        if e.b != e.a:
            at[e.b].append(e)
        degree[e.a] += 1
        degree[e.b] += 1
    for vid, es in at.items():
        assert g.edges_at(vid) == es
        assert g.degree(vid) == degree[vid]
        others = {e.b if e.a == vid else e.a for e in es} - {vid}
        assert g.neighbors(vid) == sorted(others, key=_order_key)


def walk(g, script):
    assert_indexed(g)
    for g in run_script(g, script):
        assert_indexed(g)
    return g


@pytest.mark.parametrize("n", range(4, 10))
def test_generic_script_keeps_the_index(n):
    inc = generate_family("generic", n)
    g = boundary_graph(inc)
    out = walk(g, generic_reduction_script(g, inc))
    assert len(out.vertices) == n + n * (n - 1) // 2


@pytest.mark.parametrize("n", range(3, 9))
def test_near_pencil_script_keeps_the_index(n):
    inc = generate_family("near_pencil", n)
    g = boundary_graph(inc)
    out = walk(g, near_pencil_reduction_script(g, inc))
    assert len(out.vertices) == 1


@pytest.mark.parametrize("n", [3, 4, 6])
def test_pencil_split_keeps_the_index(n):
    inc = generate_family("pencil", n)
    g = boundary_graph(inc)
    walk(g, pencil_reduction_script(g, inc))


def test_double_chain_scripts_on_random_arrangements_keep_the_index():
    rng = random.Random(4242)
    for _ in range(6):
        inc = incidence_from_lines(random_rational_lines(rng.randint(5, 8), rng))
        g = boundary_graph(inc)
        for j, p in enumerate(inc.points):
            if p.multiplicity == 2:
                g = walk(g, double_chain_script(g, inc, j))
        assert g == reduce_double_chains(boundary_graph(inc), inc)


def fresh_id(g, prefix):
    return next(f"{prefix}{k}" for k in itertools.count() if not g.has_vertex(f"{prefix}{k}"))


def random_edit(rng, g):
    """One random edit of g, with the graph a rebuild gives for the plain
    edits; None when the edit does not apply."""
    ids = g.ids
    vid = rng.choice(ids)
    kind = rng.choice(sorted(MOVES) + ["blow_up", "add_edge", "remove_edge",
                                       "remove_vertex", "bump", "add_vertex"])
    if kind in MOVES:
        return apply_move(g, MoveSpec(kind, vid)), None
    if kind == "blow_up":
        plain = [e for e in g.edges if not e.is_loop()]
        if not plain:
            return None, None
        e = rng.choice(plain)
        # subdivide e by a +-1 vertex u, signs multiplying to -euler * e.sign
        euler, sign_a = rng.choice([1, -1]), rng.choice([1, -1])
        u = fresh_id(g, "u")
        halves = [Edge(e.a, u, sign=sign_a), Edge(u, e.b, sign=-euler * e.sign * sign_a)]
        return g.edit(add_vertices=[Vertex(u, euler=euler)], remove=[e], add_edges=halves,
                      put=[_bumped(g, e.a, euler), _bumped(g, e.b, euler)]), None
    if kind == "add_edge":
        e = Edge(vid, rng.choice(ids), sign=rng.choice([1, -1]))  # may be a loop
        return g.edit(add_edges=[e]), PlumbingGraph(g.vertices, g.edges + (e,))
    if kind == "remove_edge":
        if not g.edges:
            return None, None
        e = rng.choice(g.edges)
        es = list(g.edges)
        es.remove(e)
        first = next(x for x in g.edges if x == e)
        return g.edit(remove=[first]), PlumbingGraph(g.vertices, es)
    if kind == "remove_vertex":
        return g.edit(drop=[vid]), PlumbingGraph(
            [v for v in g.vertices if v.id != vid],
            [e for e in g.edges if not e.touches(vid)],
        )
    if kind == "bump":
        delta = rng.randint(-2, 2)
        v = g.vertex(vid)
        bumped = Vertex(v.id, v.genus, v.euler + delta, v.mult, v.kind, v.dec)
        return g.edit(put=[_bumped(g, vid, delta)]), PlumbingGraph(
            [bumped if u.id == vid else u for u in g.vertices], g.edges
        )
    nv = Vertex(fresh_id(g, "q"), euler=rng.randint(-2, 2))
    return g.edit(add_vertices=[nv]), PlumbingGraph(g.vertices + (nv,), g.edges)


def test_random_edits_on_random_plumbings_keep_the_index():
    rng = random.Random(20261018)
    applied = 0
    for _ in range(250):
        g = random_plumbing(rng)
        for _ in range(15):
            if not g.vertices:
                break
            try:
                out, expected = random_edit(rng, g)
            except MFBoundaryError:
                continue  # the move does not apply here
            if out is None:
                continue
            assert_indexed(out)
            if expected is not None:
                assert out == expected
            applied += 1
            g = out
    assert applied > 1500


def test_reduction_runs_no_full_validation_per_move(monkeypatch):
    # every move derives its graph from the previous one; a full
    # constructor check per move would make reduction quadratic again
    inc = generate_family("generic", 10)
    g = boundary_graph(inc)
    moves = len(generic_reduction_script(g, inc))
    calls = []
    full_check = PlumbingGraph.__post_init__

    def counted(self):
        calls.append(self)
        full_check(self)

    monkeypatch.setattr(PlumbingGraph, "__post_init__", counted)
    reduce_double_chains(g, inc)
    assert moves > 300
    assert len(calls) <= 2, f"{len(calls)} full validations for {moves} moves"


def chain(n):
    """A path of n vertices with Euler number -2, -1 at the middle one."""
    vs = [Vertex(f"c{i}", euler=-1 if i == n // 2 else -2) for i in range(n)]
    es = [Edge(f"c{i}", f"c{i + 1}") for i in range(n - 1)]
    return PlumbingGraph(tuple(vs), tuple(es))


def traced_lines(fn, *args):
    """Python line events in graph_core.py and calculus.py while fn runs."""
    count = 0

    def tracer(frame, event, arg):
        nonlocal count
        if not frame.f_code.co_filename.endswith(("graph_core.py", "calculus.py")):
            return None
        if event == "line":
            count += 1
        return tracer

    previous = sys.gettrace()
    sys.settrace(tracer)
    try:
        fn(*args)
    finally:
        sys.settrace(previous)
    return count


def test_a_move_does_python_work_only_at_its_own_vertices():
    # dict copies run in C; what runs in Python must not grow with the graph
    small, large = chain(200), chain(2000)
    assert traced_lines(blow_down_b, small, "c100") == traced_lines(blow_down_b, large, "c1000")


def star(leaves):
    """The vertices and edges of a center joined to each of its leaves."""
    vs = (Vertex("c", euler=-1),) + tuple(Vertex(f"l{i}", euler=-2) for i in range(leaves))
    return vs, tuple(Edge("c", f"l{i}") for i in range(leaves))


def test_the_constructor_stays_linear():
    # the center has degree V - 1, so joining its keys one edge at a time
    # would make the constructor quadratic
    small = traced_lines(PlumbingGraph, *star(200))
    large = traced_lines(PlumbingGraph, *star(2000))
    assert large / small <= 11, (small, large)
    # a tuple grown one key at a time is copied in C, where no line event
    # shows it: 10x the leaves take about 12x the time when linear, and
    # about 90x when the center's tuple is grown edge by edge
    small, large = star(2000), star(20000)
    ratio = (min(timeit.repeat(lambda: PlumbingGraph(*large), number=1, repeat=5))
             / min(timeit.repeat(lambda: PlumbingGraph(*small), number=1, repeat=5)))
    assert ratio < 40, ratio


def arrow_graph():
    """n0 -- n1 -> a0."""
    return PlumbingGraph(
        vertices=(Vertex("n0", euler=-1), Vertex("n1", euler=-2), Vertex("a0", kind="arrowhead")),
        edges=(Edge("n0", "n1", -1), Edge("n1", "a0", arrow=True)),
    )


def test_edits_reject_what_a_rebuild_rejects():
    g = arrow_graph()
    v, e = g.vertices, g.edges
    cases = [
        # an edge to an unknown vertex
        (lambda: g.edit(add_edges=[Edge("n0", "zz")]), v, e + (Edge("n0", "zz"),)),
        # a non-arrow edge at an arrowhead
        (lambda: g.edit(add_edges=[Edge("n0", "a0")]), v, e + (Edge("n0", "a0"),)),
        # an arrow that reaches no arrowhead
        (lambda: g.edit(add_edges=[Edge("n0", "n1", arrow=True)]), v,
         e + (Edge("n0", "n1", arrow=True),)),
        # a second arrow into an arrowhead
        (lambda: g.edit(add_edges=[Edge("n0", "a0", arrow=True)]), v,
         e + (Edge("n0", "a0", arrow=True),)),
        # removing the vertex the arrowhead hangs on
        (lambda: g.edit(drop=["n1"]), (v[0], v[2]), ()),
        # removing the arrow
        (lambda: g.edit(remove=[e[1]]), v, (e[0],)),
        # an arrowhead with no arrow
        (lambda: g.edit(add_vertices=[Vertex("a1", kind="arrowhead")]),
         v + (Vertex("a1", kind="arrowhead"),), e),
        # a vertex id twice
        (lambda: g.edit(add_vertices=[Vertex("n0")]), v + (Vertex("n0"),), e),
        # an arrowhead turned into a plain vertex
        (lambda: g.edit(put=[Vertex("a0", euler=0)]), (v[0], v[1], Vertex("a0", euler=0)), e),
        # a vertex with edges turned into an arrowhead
        (lambda: g.edit(put=[Vertex("n0", kind="arrowhead")]),
         (Vertex("n0", kind="arrowhead"), v[1], v[2]), e),
    ]
    for edit, vertices, edges in cases:
        with pytest.raises(MFBoundaryError) as rebuild:
            PlumbingGraph(vertices, edges)
        assert type(rebuild.value) in (UnknownVertex, InvalidInput)
        with pytest.raises(type(rebuild.value)):
            edit()
    for edit in (lambda: g.edit(put=[Vertex("zz")]), lambda: g.edit(drop=["zz"]),
                 lambda: g.edit(put=[_bumped(g, "zz", 1)])):
        with pytest.raises(UnknownVertex):
            edit()
    with pytest.raises(InvalidInput):
        g.edit(put=[_bumped(g, "a0", 1)])  # an arrowhead has no Euler number
    assert_indexed(g)  # a rejected edit leaves the graph as it was


def test_removes_take_one_occurrence_each():
    # the same edge object listed twice is two parallel edges
    e = Edge("n0", "n1", 1)
    g = PlumbingGraph((Vertex("n0", euler=0), Vertex("n1", euler=0)), (e, e))
    once = g.edit(remove=[e])
    assert once.edges == (e,)
    assert g.edit(remove=[e, e]).edges == ()
    assert_indexed(once)
    flipped = apply_move(g, MoveSpec("sign_reversal", "n0"))
    assert [x.sign for x in flipped.edges] == [-1, -1]
    assert_indexed(flipped)


def test_remove_takes_an_equal_edge_that_is_not_the_stored_object():
    g = PlumbingGraph((Vertex("x", euler=0), Vertex("y", euler=0)), (Edge("x", "y"),))
    out = g.edit(remove=[Edge("x", "y")])
    assert out.edges == ()
    assert_indexed(out)


def test_a_graph_keys_its_edges_from_zero_whatever_was_built_before():
    # keys belong to one graph: no count is shared between graphs
    for n in (3, 4, 5, 4):
        g = boundary_graph(generate_family("generic", n))
        assert list(g._store) == list(range(len(g.edges)))
    last = g.edges[-1]
    edited = g.edit(remove=[last], add_edges=[last, Edge(last.a, last.b, -last.sign)])
    assert list(edited._store) == list(range(len(edited.edges)))
    assert_indexed(edited)


@pytest.mark.parametrize("remove", [
    [Edge("n0", "n1", 1)],       # the stored edge has sign -1
    [Edge("n1", "n0", -1)],      # the stored edge runs n0 -> n1
    [Edge("n0", "zz", -1)],      # an unknown end
    [Edge("zz", "n0", -1)],
    [Edge("n0", "n1", -1)] * 2,  # one stored copy only
])
def test_removing_an_edge_not_in_the_graph_is_invalid_input(remove):
    with pytest.raises(InvalidInput, match="no edge"):
        arrow_graph().edit(remove=remove)


def test_drop_names_the_first_unknown_id_under_any_hash_seed():
    # drop walks its ids in the order given, so the error does not depend
    # on how strings hash
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    code = ("from mfboundary.errors import UnknownVertex\n"
            "from mfboundary.graph_core import PlumbingGraph, Vertex\n"
            "g = PlumbingGraph((Vertex('n0'),), ())\n"
            "try:\n"
            "    g.edit(drop=['n0', 'p', 'q', 'r', 's', 't'])\n"
            "except UnknownVertex as exc:\n"
            "    print(exc)\n")
    for seed in ("0", "1", "2", "3", "4"):
        env = dict(os.environ, PYTHONHASHSEED=seed)
        env["PYTHONPATH"] = os.pathsep.join([src] + [p for p in [env.get("PYTHONPATH")] if p])
        run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, timeout=60)
        assert run.stdout == "no vertex 'p'\n", (seed, run.stdout, run.stderr)
