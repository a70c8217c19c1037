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
    apply_move,
    apply_script,
    blow_down_b,
    run_script,
)
from mfboundary import graph_core
from mfboundary.errors import InternalError, InvalidInput, MFBoundaryError, UnknownVertex
from mfboundary.graph_core import Edge, PlumbingGraph, Vertex, _order_key
from mfboundary.homology import homology_with_stats
from mfboundary.pipeline import boundary_graph
from mfboundary.record import replace
from mfboundary.reduction import (
    double_chain_script,
    generic_reduction_script,
    near_pencil_reduction_script,
    pencil_reduction_script,
    reduce_double_chains,
)

from oracles import random_plumbing, random_split_case


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


def bumped_vertex(g, vid, delta):
    """The vertex with delta added to its Euler number."""
    return replace(g.vertex(vid), euler=g.vertex(vid).euler + delta)


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
                      put=[bumped_vertex(g, e.a, euler), bumped_vertex(g, e.b, euler)]), None
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
        return g.edit(put=[bumped_vertex(g, vid, delta)]), PlumbingGraph(
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


def specs_at(g, vid):
    """A spec of every kind in MOVES at the vertex: its optional field
    unset, then set to each neighbor."""
    out = []
    for kind, (_, field) in MOVES.items():
        out.append(MoveSpec(kind, vid))
        if field is not None:
            out += [MoveSpec(kind, vid, **{field: u}) for u in g.neighbors(vid)]
    return out


def outcome(call):
    """The graph the call returns, or the class and message it raises."""
    try:
        return call()
    except MFBoundaryError as exc:
        return type(exc), str(exc)


def script_is_move(g, spec):
    """apply_move(g, spec), once apply_script(g, [spec]) has given the same
    graph, orders included, or raised the same error, and g is as it was
    after both and after a script whose last move raises."""
    before = PlumbingGraph(g.vertices, g.edges)
    indexes = dict(g._index), dict(g._adj), dict(g._store)
    moved = outcome(lambda: apply_move(g, spec))
    scripted = outcome(lambda: apply_script(g, [spec]))
    assert scripted == moved, (spec, g)
    if isinstance(scripted, PlumbingGraph):
        assert_indexed(scripted)
    with pytest.raises(MFBoundaryError):
        apply_script(g, [spec, MoveSpec("blow_down_a", "no such vertex")])
    assert g == before
    assert (g._index, g._adj, g._store) == indexes
    return moved


def test_a_move_in_a_script_is_the_move_on_a_persistent_graph():
    # apply_script edits one open copy in place; each move must give what
    # it gives on a graph whose edits copy, and the caller's graph must
    # never change
    rng = random.Random(20261020)
    applied = dict.fromkeys(MOVES, 0)

    def check_all(g, vids):
        for vid in vids:
            for spec in specs_at(g, vid):
                applied[spec.kind] += isinstance(script_is_move(g, spec), PlumbingGraph)

    for _ in range(200):
        check_all(random_split_case(rng), ["c", "comp", "n0"])
    for _ in range(60):
        g = random_plumbing(rng)
        host = rng.choice(g.ids)  # a handle at it, for handle_absorb
        g = g.edit(add_vertices=[Vertex("h", euler=0)],
                   add_edges=[Edge("h", host, 1), Edge(host, "h", -1)])
        for _ in range(8):
            check_all(g, sorted({"h", *rng.sample(g.ids, min(2, len(g.ids)))} & set(g.ids)))
            try:
                g, _ = random_edit(rng, g)
            except MFBoundaryError:
                continue
            if g is None or not g.vertices:
                break
    scripts = [(kind, n, script) for kind, ns, script in (
        ("generic", range(3, 7), generic_reduction_script),
        ("near_pencil", range(3, 7), near_pencil_reduction_script),
        ("pencil", range(2, 6), pencil_reduction_script),
    ) for n in ns]
    for kind, n, script in scripts:
        inc = generate_family(kind, n)
        g = boundary_graph(inc)
        for spec in script(g, inc):
            g = script_is_move(g, spec)
            assert isinstance(g, PlumbingGraph), (kind, n, spec, g)
            applied[spec.kind] += 1
    assert min(applied.values()) >= 50, applied


def test_a_graph_superseded_by_an_in_place_edit_raises_when_read(monkeypatch):
    g = chain(5)
    opened = g.opened()
    out = blow_down_b(opened, "c2")
    reads = [lambda: opened.vertices, lambda: opened.edges, lambda: opened.vertex("c0"),
             lambda: opened.edges_at("c0"), lambda: opened == out, lambda: opened.edit(),
             lambda: opened.closed()]
    for read in reads:
        with pytest.raises(InternalError, match="superseded by an in-place edit"):
            read()
    closed = out.closed()
    with pytest.raises(InternalError):
        out.edges
    assert closed == blow_down_b(g, "c2") == apply_script(g, [MoveSpec("blow_down_b", "c2")])
    assert closed.edit(drop=["c0"]) != closed == blow_down_b(g, "c2")  # closed edits copy
    assert g == chain(5)

    def late_read(g, vid):
        """A move that reads its graph after editing it."""
        out = g.edit(drop=[vid])
        g.vertex(vid)
        return out

    monkeypatch.setitem(MOVES, "blow_down_a", (late_read, None))
    spec = MoveSpec("blow_down_a", "c0")
    assert apply_move(g, spec) == g.edit(drop=["c0"])
    with pytest.raises(InternalError):
        apply_script(g, [spec])
    assert g == chain(5)


@pytest.mark.parametrize("inc", [
    generate_family("generic", 8),
    generate_family("near_pencil", 10),
    generate_family("pencil", 6),
    incidence_from_lines(random_rational_lines(9, random.Random(3))),
], ids=["generic8", "near_pencil10", "pencil6", "random9"])
def test_the_raw_route_never_builds_the_adjacency_index(inc, monkeypatch):
    # the raw route reads only the vertex and edge indexes; the first
    # adjacency read builds the index once, and the graph keeps it
    builds = []
    build = graph_core._adjacency

    def counted(index, store):
        builds.append(len(index))
        return build(index, store)

    monkeypatch.setattr(graph_core, "_adjacency", counted)
    g = boundary_graph(inc)
    homology_with_stats(g)
    assert builds == [] and g._edge_keys is None
    vid = g.ids[0]
    at = g.edges_at(vid)
    assert builds == [len(g.vertices)]
    assert g.edges_at(vid) == at and g.degree(vid) == len(at) and g.neighbors(vid)
    assert builds == [len(g.vertices)]
    assert_indexed(g)


def edit_calls(rng, g):
    """Calls of every edit verb, alone and together, that apply to g or
    raise, and of opened and closed around one, chosen from g's vertex and
    edge lists only."""
    vs, es = g.vertices, g.edges
    v, u = rng.choice(vs), rng.choice(vs)
    bumped = replace(v, euler=v.euler + 1)
    edge = Edge(v.id, u.id, rng.choice([1, -1]))  # may be a loop
    fresh = Vertex(fresh_id(g, "q"), euler=-1)
    calls = [
        lambda g: g.edit(add_vertices=[fresh]),
        lambda g: g.edit(add_vertices=[fresh, Vertex(u.id)]),
        lambda g: g.edit(drop=[v.id]),
        lambda g: g.edit(drop=[v.id, u.id, v.id]),
        lambda g: g.edit(drop=["zz"]),
        lambda g: g.edit(add_edges=[edge, edge]),
        lambda g: g.edit(add_edges=[Edge(v.id, "zz")]),
        lambda g: g.edit(put=[bumped]),
        lambda g: g.edit(put=[Vertex("zz")]),
        lambda g: g.edit(remove=[Edge(v.id, "zz")]),
        lambda g: g.edit(add_vertices=[fresh], drop=[u.id],
                         add_edges=[Edge(fresh.id, v.id)] if v.id != u.id else [], put=[bumped]),
        lambda g: g.opened().edit(put=[bumped]).closed(),
        lambda g: g.opened().closed(),
        lambda g: g.closed().edit(add_edges=[edge]),
    ]
    if es:
        e = rng.choice(es)
        calls += [lambda g: g.edit(remove=[e]), lambda g: g.edit(remove=[e, e]),
                  lambda g: g.edit(remove=[e], drop=[e.a], add_edges=[edge])]
    return calls


def test_a_graph_never_read_gives_what_a_graph_read_first_gives():
    # building the adjacency index on first read must not change any answer
    rng = random.Random(20261021)
    checked = 0
    cases = [random_plumbing(rng) for _ in range(120)] + [random_split_case(rng)
                                                         for _ in range(80)]
    for g in cases:
        calls = edit_calls(rng, g)
        for vid in g.ids:
            for spec in specs_at(g, vid):
                calls += [lambda g, spec=spec: apply_move(g, spec),
                          lambda g, spec=spec: apply_script(g, [spec, spec])]
        for call in calls:
            lazy, eager = PlumbingGraph(g.vertices, g.edges), PlumbingGraph(g.vertices, g.edges)
            eager._adj
            assert lazy._edge_keys is None
            out = outcome(lambda: call(lazy))
            assert out == outcome(lambda: call(eager)), g
            if isinstance(out, PlumbingGraph):
                assert_indexed(out)
            checked += 1
    assert checked > 5000, checked


def test_the_constructor_still_checks_arrowhead_degrees():
    lone = Vertex("a0", kind="arrowhead")
    with pytest.raises(InvalidInput, match="^arrowhead a0 must have degree 1$"):
        PlumbingGraph((lone,), ())
    twice = (Vertex("n0", euler=-1), Vertex("n1", euler=-1), lone)
    with pytest.raises(InvalidInput, match="^arrowhead a0 must have degree 1$"):
        PlumbingGraph(twice, (Edge("n0", "a0", arrow=True), Edge("n1", "a0", arrow=True)))


def test_a_graph_superseded_before_its_index_was_read_raises():
    g = chain(5)
    assert g._edge_keys is None
    opened = g.opened()
    opened.edit(drop=["c0"])
    for read in (lambda: opened.edges_at("c1"), lambda: opened.degree("c1"),
                 lambda: opened.neighbors("c1"), lambda: opened.edit(drop=["c1"])):
        with pytest.raises(InternalError, match="superseded by an in-place edit"):
            read()
    assert g == chain(5)


def test_reduction_runs_no_full_validation_per_move(monkeypatch):
    # every move derives its graph from the previous one; a full
    # constructor check per move would make reduction quadratic again
    inc = generate_family("generic", 10)
    g = boundary_graph(inc)
    moves = len(generic_reduction_script(g, inc))
    calls = []
    full_check = PlumbingGraph.__new__

    def counted(cls, *args, **kwargs):
        calls.append(cls)
        return full_check(cls, *args, **kwargs)

    monkeypatch.setattr(PlumbingGraph, "__new__", counted)
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


def test_the_reduction_stays_linear():
    # raw generic 20 has 8.7x the vertices and about 9x the moves of raw
    # generic 10; a move that copies the whole graph makes it about 30x
    seconds = []
    for n in (10, 20):
        inc = generate_family("generic", n)
        g = boundary_graph(inc)
        seconds.append(min(timeit.repeat(lambda: reduce_double_chains(g, inc), number=1,
                                         repeat=3)))
    assert seconds[1] / seconds[0] < 15, seconds


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
        # an edge end that is not even hashable
        (lambda: g.edit(add_edges=[Edge(["n0"], "n1")]), v, e + (Edge(["n0"], "n1"),)),
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
        # an isolated plain vertex turned into an arrowhead
        (lambda: g.edit(add_vertices=[Vertex("z0", euler=0)]).edit(
            put=[Vertex("z0", kind="arrowhead")]),
         v + (Vertex("z0", kind="arrowhead"),), e),
    ]
    for edit, vertices, edges in cases:
        with pytest.raises(MFBoundaryError) as rebuild:
            PlumbingGraph(vertices, edges)
        assert type(rebuild.value) in (UnknownVertex, InvalidInput)
        with pytest.raises(type(rebuild.value)):
            edit()
    for edit in (lambda: g.edit(put=[Vertex("zz")]), lambda: g.edit(drop=["zz"]),
                 lambda: g.edit(drop=[["n0"]]), lambda: g.edit(drop=["n0", ["n0"]]),
                 lambda: g.edit(put=[bumped_vertex(g, "zz", 1)])):
        with pytest.raises(UnknownVertex):
            edit()
    with pytest.raises(InvalidInput):  # put keeps arrowheads, even with the arrow removed
        g.edit(remove=[e[1]], put=[Vertex("a0", euler=0)])
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


def test_an_id_twice_in_one_drop_is_dropped_once():
    g = chain(5).edit(add_edges=[Edge("c0", "c3", -1)])
    once = g.edit(drop=["c2"])
    for twice in (g.edit(drop=["c2", "c2"]), g.opened().edit(drop=["c2", "c2"]).closed()):
        assert (twice.vertices, twice.edges) == (once.vertices, once.edges)
        assert_indexed(twice)
    assert g == chain(5).edit(add_edges=[Edge("c0", "c3", -1)])


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
    [Edge("n0", ["n1"], -1)],    # an end that is not even hashable
    [Edge(["n0"], "n1", -1)],
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
