"""Plumbing calculus moves: exact local semantics plus H1 invariance."""

import random
import re

import pytest

from mfboundary.calculus import (
    MOVES,
    MoveSpec,
    apply_move,
    apply_script,
    blow_down_a,
    blow_down_b,
    handle_absorb,
    sign_reversal,
    split,
    two_alteration,
    zero_chain_absorb,
)
from mfboundary.errors import (
    InvalidInput,
    MFBoundaryError,
    NotAbsorbable,
    NotApplicable,
    NotBlowdownable,
    NotSplittable,
)
from mfboundary.graph_core import Edge, PlumbingGraph, Vertex
from mfboundary.homology import homology_of_graph

from oracles import random_plumbing, random_split_case


def graph(vs, es):
    return PlumbingGraph(
        vertices=tuple(Vertex(id=i, euler=e, genus=g) for i, e, g in vs),
        edges=tuple(Edge(a=a, b=b, sign=s) for a, b, s in es),
    )


def test_sign_reversal_flips_non_loop_edges():
    g = graph(
        [("x", -2, 0), ("y", -2, 0), ("z", -2, 0)],
        [("x", "y", 1), ("y", "z", -1)],
    ).edit(add_edges=[Edge(a="y", b="y", sign=1)])
    out = sign_reversal(g, "y")
    signs = {(e.a, e.b): e.sign for e in out.edges}
    assert signs[("x", "y")] == -1
    assert signs[("y", "z")] == 1
    assert signs[("y", "y")] == 1  # loops keep their sign


def test_blow_down_leaf():
    g = graph([("x", -1, 0), ("y", -5, 1)], [("x", "y", 1)])
    out = blow_down_a(g, "x")
    assert out.ids == ["y"]
    assert out.vertex("y").euler == -4
    assert out.vertex("y").genus == 1
    g2 = graph([("x", 1, 0), ("y", -5, 0)], [("x", "y", -1)])
    assert blow_down_a(g2, "x").vertex("y").euler == -6


def test_blow_down_leaf_preconditions():
    g = graph([("x", -2, 0), ("y", -5, 0)], [("x", "y", 1)])
    with pytest.raises(NotBlowdownable):
        blow_down_a(g, "x")  # euler -2
    g2 = graph([("x", -1, 1), ("y", -5, 0)], [("x", "y", 1)])
    with pytest.raises(NotBlowdownable):
        blow_down_a(g2, "x")  # genus 1
    with pytest.raises(NotBlowdownable):
        blow_down_a(g, "y")  # degree wrong and euler wrong


def test_blow_down_chain_vertex():
    # x --(+) v(-1) (+)-- y  becomes  x --(sign +1... -e*s1*s2 = +1)-- y
    g = graph([("x", -3, 0), ("v", -1, 0), ("y", -4, 0)],
              [("x", "v", 1), ("v", "y", 1)])
    out = blow_down_b(g, "v")
    assert sorted(out.ids) == ["x", "y"]
    assert out.vertex("x").euler == -2
    assert out.vertex("y").euler == -3
    (e,) = out.edges
    assert e.sign == 1
    # +1 vertex with mixed signs gives a minus edge
    g2 = graph([("x", 0, 0), ("v", 1, 0), ("y", 0, 0)],
               [("x", "v", 1), ("v", "y", -1)])
    (e2,) = blow_down_b(g2, "v").edges
    assert e2.sign == 1  # -e*s1*s2 = -1*1*-1
    g3 = graph([("x", 0, 0), ("v", 1, 0), ("y", 0, 0)],
               [("x", "v", 1), ("v", "y", 1)])
    (e3,) = blow_down_b(g3, "v").edges
    assert e3.sign == -1


def test_blow_down_chain_needs_distinct_neighbors():
    g = graph([("x", 0, 0), ("v", -1, 0)],
              [("x", "v", 1), ("v", "x", -1)])
    with pytest.raises(NotBlowdownable):
        blow_down_b(g, "v")


def test_zero_chain_absorb_merges():
    g = graph(
        [("a", -2, 1), ("z", 0, 0), ("b", 3, 2), ("c", -7, 0)],
        [("a", "z", 1), ("z", "b", 1), ("b", "c", 1)],
    )
    out = zero_chain_absorb(g, "z", keep="a")
    assert sorted(out.ids) == ["a", "c"]
    merged = out.vertex("a")
    assert merged.euler == 1 and merged.genus == 3
    (e,) = out.edges
    # exactly one endpoint moved, so the sign flips by -eps*epsbar = -1
    assert {e.a, e.b} == {"a", "c"} and e.sign == -1


def test_zero_chain_absorb_sign_rules():
    # mixed signs at the 0-vertex leave reattached edges alone
    g = graph(
        [("a", 0, 0), ("z", 0, 0), ("b", 0, 0), ("c", 0, 0)],
        [("a", "z", 1), ("z", "b", -1), ("b", "c", 1)],
    )
    out = zero_chain_absorb(g, "z", keep="a")
    (e,) = out.edges
    assert e.sign == 1
    # loops at the absorbed vertex keep their sign
    g2 = graph(
        [("a", 0, 0), ("z", 0, 0), ("b", 0, 0)],
        [("a", "z", 1), ("z", "b", 1)],
    ).edit(add_edges=[Edge(a="b", b="b", sign=-1)])
    out2 = zero_chain_absorb(g2, "z", keep="a")
    loop = next(e for e in out2.edges if e.is_loop())
    assert loop.sign == -1 and loop.a == "a"


def test_zero_chain_absorb_default_keep_is_canonical():
    g = graph(
        [("v1", -1, 0), ("z", 0, 0), ("v0", -1, 0)],
        [("v1", "z", 1), ("z", "v0", 1)],
    )
    out = zero_chain_absorb(g, "z")
    assert sorted(out.ids) == ["v0"]  # v0 sorts before v1


def test_zero_chain_absorb_preconditions():
    g = graph([("a", 0, 0), ("z", 1, 0), ("b", 0, 0)],
              [("a", "z", 1), ("z", "b", 1)])
    with pytest.raises(NotAbsorbable):
        zero_chain_absorb(g, "z")  # euler 1
    g2 = graph([("a", 0, 0), ("z", 0, 0)],
               [("a", "z", 1), ("z", "a", -1)])
    with pytest.raises(NotAbsorbable):
        zero_chain_absorb(g2, "z")  # both edges to one vertex
    g3 = graph([("a", 0, 0), ("z", 0, 0), ("b", 0, 0)],
               [("a", "z", 1), ("z", "b", 1)])
    with pytest.raises(NotAbsorbable):
        zero_chain_absorb(g3, "z", keep="nope")


def test_handle_absorb():
    g = graph([("h", 0, 0), ("x", -3, 1)],
              [("h", "x", 1), ("x", "h", -1)])
    out = handle_absorb(g, "h")
    assert out.ids == ["x"]
    assert out.vertex("x").genus == 2
    assert out.vertex("x").euler == -3
    assert out.edges == ()


def test_handle_absorb_needs_opposite_signs():
    g = graph([("h", 0, 0), ("x", -3, 0)],
              [("h", "x", 1), ("x", "h", 1)])
    with pytest.raises(NotAbsorbable):
        handle_absorb(g, "h")


def test_split_star():
    # center with euler 5, genus 1, a 0-leaf companion and two branches,
    # one of them attached twice
    g = graph(
        [("c", 5, 1), ("comp", 0, 0), ("p", -2, 0), ("q", -3, 0), ("r", -4, 0)],
        [("c", "comp", 1), ("c", "p", 1),
         ("c", "q", 1), ("c", "r", -1), ("q", "r", 1)],
    )
    out = split(g, "c", companion="comp")
    survivors = sorted(out.ids)
    zs = [i for i in survivors if i.startswith("z")]
    # extras: 2*genus + (k_pq - 1) where the q-r component is hit twice
    assert len(zs) == 2 * 1 + 1
    assert all(out.vertex(z).euler == 0 and out.degree(z) == 0 for z in zs)
    assert {"p", "q", "r"} <= set(survivors)
    assert len(out.plain_edges()) == 1  # only q -- r survives


def test_split_frees_2g_plus_the_extra_edges_into_each_component():
    rng = random.Random(2024)
    with_extras = several = 0
    for _ in range(600):
        g = random_split_case(rng)
        rest = [u for u in g.ids if u not in ("c", "comp")]
        comp = {u: u for u in rest}  # component label, by repeated relabelling
        changed = True
        while changed:
            changed = False
            for e in g.edges:
                if e.a in comp and e.b in comp and comp[e.a] != comp[e.b]:
                    low = min(comp[e.a], comp[e.b])
                    comp[e.a] = comp[e.b] = low
                    changed = True
        hits: dict[str, int] = {}
        for e in g.edges_at("c"):
            if e.other("c") != "comp":
                label = comp[e.other("c")]
                hits[label] = hits.get(label, 0) + 1
        expected = 2 * g.vertex("c").genus + sum(k - 1 for k in hits.values())
        out = split(g, "c", companion="comp")
        zs = [u for u in out.ids if u.startswith("z")]
        assert len(zs) == expected
        assert all(out.vertex(z).euler == 0 and out.degree(z) == 0 for z in zs)
        assert out.edit(drop=zs) == g.edit(drop=["c", "comp"])
        with_extras += expected > 0
        several += len(hits) > 1
    assert with_extras >= 400 and several >= 150


def test_split_requires_companion():
    g = graph([("c", 5, 0), ("p", -2, 0)], [("c", "p", 1)])
    with pytest.raises(NotSplittable):
        split(g, "c")  # p has euler -2, no 0-leaf anywhere
    g2 = graph([("c", 5, 0), ("comp", 0, 0), ("p", -2, 0)],
               [("c", "comp", 1), ("c", "p", 1)])
    with pytest.raises(NotSplittable):
        split(g2, "c", companion="p")


def test_two_alteration_both_flips():
    base = graph([("x", -1, 0), ("t", 2, 0), ("y", -1, 0)],
                 [("x", "t", -1), ("t", "y", -1)])
    left = two_alteration(base, "t", flip="x")
    right = two_alteration(base, "t", flip="y")
    for out, flipped in ((left, "x"), (right, "y")):
        assert out.vertex("t").euler == -2
        assert out.vertex("x").euler == -2
        assert out.vertex("y").euler == -2
        signs = {frozenset((e.a, e.b)): e.sign for e in out.edges}
        assert signs[frozenset((flipped, "t"))] == 1
        other = "y" if flipped == "x" else "x"
        assert signs[frozenset((other, "t"))] == -1


def test_two_alteration_preconditions():
    g = graph([("x", 0, 0), ("t", -2, 0), ("y", 0, 0)],
              [("x", "t", 1), ("t", "y", 1)])
    with pytest.raises(NotApplicable):
        two_alteration(g, "t")
    g2 = graph([("x", 0, 0), ("t", 2, 0)],
               [("x", "t", 1), ("t", "x", 1)])
    with pytest.raises(NotApplicable):
        two_alteration(g2, "t")


@pytest.mark.parametrize("move, euler, err, es", [
    (blow_down_a, -1, NotBlowdownable, [("t", "x", 1)]),
    (blow_down_b, 1, NotBlowdownable, [("x", "t", 1), ("t", "y", 1)]),
    (zero_chain_absorb, 0, NotAbsorbable, [("x", "t", 1), ("t", "y", 1)]),
    (handle_absorb, 0, NotAbsorbable, [("x", "t", 1), ("t", "x", -1)]),
    (two_alteration, 2, NotApplicable, [("x", "t", 1), ("t", "y", 1)]),
])
def test_moves_need_euler_numbers_at_the_neighbors(move, euler, err, es):
    g = graph([("t", euler, 0), ("x", None, 0), ("y", -2, 0)], es)
    with pytest.raises(err):
        move(g, "t")
    assert move(g.edit(put=[Vertex("x", euler=-2)]), "t").vertices


def test_a_move_reads_each_vertex_once(monkeypatch):
    """A move looks up its vertex and the far end of each of its edges once;
    split looks up its vertex and each degree-1 neighbor once."""
    chain = [("x", -2, 0), ("y", -3, 0)], [("x", "t", 1), ("t", "y", 1)]
    cases = [
        (blow_down_a, graph([("t", -1, 0), ("y", -5, 0)], [("t", "y", 1)])),
        (blow_down_b, graph([("t", 1, 0)] + chain[0], chain[1])),
        (two_alteration, graph([("t", 2, 0)] + chain[0], chain[1])),
        (zero_chain_absorb, graph([("t", 0, 0)] + chain[0], chain[1])),
        (handle_absorb, graph([("t", 0, 0), ("x", -3, 0)], [("t", "x", 1), ("x", "t", -1)])),
        (split, graph([("t", 5, 0), ("comp", 0, 0), ("p", -2, 0), ("q", -3, 0)],
                      [("t", "comp", 1), ("t", "p", 1), ("t", "q", -1)])),
    ]
    lookups = []
    vertex = PlumbingGraph.vertex
    monkeypatch.setattr(PlumbingGraph, "vertex",
                        lambda g, vid: lookups.append(vid) or vertex(g, vid))
    counts = {}
    for move, g in cases:
        lookups.clear()
        move(g, "t")
        counts[move.__name__] = len(lookups)
    assert counts == {"blow_down_a": 2, "blow_down_b": 3, "two_alteration": 3,
                      "zero_chain_absorb": 3, "handle_absorb": 3, "split": 4}


def test_two_alteration_is_blow_up_then_blow_down():
    base = graph([("x", -1, 0), ("t", 2, 0), ("y", -3, 0)],
                 [("x", "t", -1), ("t", "y", -1)])
    altered = two_alteration(base, "t", flip="x")
    # blow up the x--t edge with a -1 vertex, then blow down t (now +1)
    staged = base.edit(add_vertices=[Vertex("u", euler=-1)], remove=[Edge("x", "t", sign=-1)],
                       add_edges=[Edge("x", "u", sign=1), Edge("u", "t", sign=-1)],
                       put=[Vertex("x", euler=-2), Vertex("t", euler=1)])
    assert staged.vertex("t").euler == 1
    staged = blow_down_b(staged, "t")
    relabeled = staged.edit(put=[staged.vertex("u")])
    assert relabeled.canonical() == staged.canonical()
    # compare shapes: degree sequence, euler multiset, sign multiset
    assert sorted(v.euler for v in staged.vertices) == sorted(
        v.euler for v in altered.vertices
    )
    assert sorted(e.sign for e in staged.edges) == sorted(
        e.sign for e in altered.edges
    )


def test_blow_up_edge_round_trip():
    g = graph([("x", -3, 0), ("y", -4, 2)], [("x", "y", -1)])
    # subdivide x--y by a -1 vertex u, signs multiplying to -euler * old sign
    up = g.edit(add_vertices=[Vertex("u", euler=-1)], remove=[Edge("x", "y", sign=-1)],
                add_edges=[Edge("x", "u", sign=-1), Edge("u", "y", sign=1)],
                put=[Vertex("x", euler=-4), Vertex("y", euler=-5, genus=2)])
    assert up.vertex("x").euler == -4
    assert up.vertex("u").euler == -1
    down = blow_down_b(up, "u")
    assert down.canonical() == g.canonical()


def test_move_spec_round_trip():
    spec = MoveSpec(kind="zero_chain_absorb", target="z", keep="a")
    again = MoveSpec.from_json(spec.to_json())
    assert again == spec
    with pytest.raises(InvalidInput):
        MoveSpec(kind="teleport", target="z")
    with pytest.raises(InvalidInput):
        MoveSpec.from_json({"kind": "split"})


def test_move_spec_takes_only_the_field_its_move_reads():
    for kind, (_, field) in MOVES.items():
        for key in ("keep", "flip", "companion"):
            if key == field:
                assert getattr(MoveSpec(kind, "v0", **{key: "x"}), key) == "x"
                continue
            with pytest.raises(InvalidInput):
                MoveSpec(kind, "v0", **{key: "x"})
            with pytest.raises(InvalidInput):
                MoveSpec.from_json({"kind": kind, "target": "v0", key: "x"})
        # an absent field may be given as null
        assert MoveSpec.from_json({"kind": kind, "target": "v0", "keep": None}).keep is None
    with pytest.raises(InvalidInput):
        MoveSpec.from_json({"kind": "two_alteration", "target": "w0", "flipp": "v1"})


def test_apply_script_checks_h1():
    g = graph([("x", -3, 0), ("v", -1, 0), ("y", -4, 0)],
              [("x", "v", 1), ("v", "y", 1)])
    script = [MoveSpec(kind="blow_down_b", target="v"),
              MoveSpec(kind="sign_reversal", target="x")]
    out = apply_script(g, script, check_h1=True)
    assert sorted(out.ids) == ["x", "y"]


def _bump_euler(g, vid):
    v = g.vertex(vid)
    return g.edit(put=[Vertex(id=vid, genus=v.genus, euler=v.euler + 1, kind=v.kind)])


def test_apply_script_names_the_step_that_changes_h1(monkeypatch):
    monkeypatch.setitem(MOVES, "sign_reversal", (_bump_euler, None))
    g = graph([("x", -3, 0), ("v", -1, 0), ("y", -4, 0)],
              [("x", "v", 1), ("v", "y", 1)])
    with pytest.raises(MFBoundaryError, match="after move 0: Z_5 -> Z_2") as err:
        apply_script(g, [MoveSpec(kind="sign_reversal", target="x")], check_h1=True)
    assert err.type is MFBoundaryError
    # without the check the same script runs through
    apply_script(g, [MoveSpec(kind="sign_reversal", target="x")])


def test_apply_script_compares_against_the_first_closed_simple_graph(monkeypatch):
    monkeypatch.setitem(MOVES, "sign_reversal", (_bump_euler, None))
    # a handle makes the start non-simple; absorbing it gives the reference
    g = graph([("h", 0, 0), ("x", -3, 1), ("y", -2, 0)],
              [("h", "x", 1), ("x", "h", -1), ("x", "y", 1)])
    script = [MoveSpec(kind="handle_absorb", target="h"),
              MoveSpec(kind="sign_reversal", target="y")]
    reference = homology_of_graph(apply_script(g, script[:1]))
    with pytest.raises(MFBoundaryError, match=re.escape(f"after move 1: {reference} -> ")) as err:
        apply_script(g, script, check_h1=True)
    assert err.type is MFBoundaryError


def candidate_specs(g):
    """Every (kind, target) move spec that might apply to g."""
    out = []
    for v in g.vertices:
        for kind in MOVES:
            out.append(MoveSpec(kind=kind, target=v.id))
    return out


def test_h1_invariance_random_moves():
    """Moves never change H1 on simple closed graphs (500+ samples)."""
    rng = random.Random(20260822)
    checked = 0
    trials = 0
    while checked < 520 and trials < 20000:
        trials += 1
        g = random_plumbing(rng)
        if not g.is_simple():
            continue
        before = None
        for spec in candidate_specs(g):
            try:
                out = apply_move(g, spec)
            except (NotBlowdownable, NotAbsorbable, NotSplittable, NotApplicable):
                continue  # move not applicable here
            if not out.is_simple():
                continue
            if before is None:
                before = homology_of_graph(g)
            after = homology_of_graph(out)
            assert after == before, (spec, g, out)
            checked += 1
    assert checked >= 520, f"only exercised {checked} applicable moves"


def _arrow_graph():
    """x (Euler 2) between y and z, y carrying the arrow to the arrowhead a0."""
    verts = (Vertex("x", euler=2), Vertex("y", euler=-1), Vertex("z", euler=-1),
             Vertex("a0", kind="arrowhead"))
    edges = (Edge("x", "y"), Edge("x", "z"), Edge("y", "a0", arrow=True))
    return PlumbingGraph(verts, edges)


ERRORS = [
    (lambda: blow_down_a(_arrow_graph(), "a0"),
     NotBlowdownable, "blow_down_a: a0 is an arrowhead"),
    (lambda: split(_arrow_graph(), "a0"), NotSplittable, "split: a0 is an arrowhead"),
    (lambda: two_alteration(_arrow_graph(), "x", flip="a0"),
     NotApplicable, "x: flip='a0' is not a neighbor"),
]


@pytest.mark.parametrize("call,cls,message", ERRORS, ids=range(len(ERRORS)))
def test_error_branches_raise_their_class_and_message(call, cls, message):
    with pytest.raises(MFBoundaryError) as caught:
        call()
    assert type(caught.value) is cls and str(caught.value) == message
