"""Reduction scripts: double-point chains, pencil and near-pencil recipes."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mfboundary import calculus, reduction
from mfboundary.arrangement import generate_family, incidence_from_lines
from mfboundary.arrangement import is_generic, is_near_pencil, is_pencil, random_rational_lines
from mfboundary.calculus import apply_script
from mfboundary.errors import InvalidInput, MFBoundaryError
from mfboundary.generic_algebra import build_An, generic_h1_closed_form
from mfboundary.homology import homology_of_graph, incidence_matrix
from mfboundary.pipeline import betti_formula, boundary_graph
from mfboundary.reduction import (
    chain_survivor,
    double_chain_script,
    generic_reduction_script,
    near_pencil_reduction_script,
    near_pencil_roles,
    pencil_reduction_script,
    reduce_double_chains,
)

from oracles import compact_boundary_graph


@pytest.mark.parametrize("n", range(2, 7))
def test_generic_reduction_matches_block_matrix(n):
    inc = generate_family("generic", n)
    g = boundary_graph(inc)
    script = generic_reduction_script(g, inc)
    red = apply_script(g, script, check_h1=True)
    # one -1 vertex per line, one -n vertex per pair
    assert len(red.vertices) == n + n * (n - 1) // 2
    eulers = sorted(v.euler for v in red.vertices)
    assert eulers == [-n] * (n * (n - 1) // 2) + [-1] * n
    assert incidence_matrix(red) == build_An(n)


# generic arrangements keep their plain ids; random ones are
# random_rational_lines(n, Random(seed))
MIDDLE_INPUTS = (
    [pytest.param("generic", n, None, id=str(n)) for n in range(2, 13)]
    + [pytest.param("near_pencil", n, None, id=f"near_pencil-{n}") for n in range(3, 31)]
    + [pytest.param("random", n, seed, id=f"random-{n}-{seed}")
       for n in range(5, 15) for seed in range(12)]
)


def arrangement(kind, n, seed):
    if kind == "random":
        return incidence_from_lines(random_rational_lines(n, random.Random(seed)))
    return generate_family(kind, n)


@pytest.mark.parametrize("kind, n, seed", MIDDLE_INPUTS)
def test_generic_middle_signs(kind, n, seed):
    # every double point's chain leaves one middle vertex of Euler number
    # -n, joined to its smaller line by a - edge and to the larger by a +
    inc = arrangement(kind, n, seed)
    red = reduce_double_chains(boundary_graph(inc), inc)
    doubles = [j for j, p in enumerate(inc.points) if p.multiplicity == 2]
    for j in doubles:
        i1, i2 = inc.points[j].lines
        mid = chain_survivor(inc, j)
        assert i1 < i2 and red.vertex(mid).euler == -inc.n
        edges = {e.other(mid): e.sign for e in red.edges_at(mid)}
        assert edges == {f"v{i1}": -1, f"v{i2}": 1}


@pytest.mark.parametrize("kind, n, seed", MIDDLE_INPUTS + [
    pytest.param("pencil", n, None, id=f"pencil-{n}") for n in range(2, 41)])
def test_the_moves_leave_the_directly_written_compact_graph(kind, n, seed):
    # the certificate a direct compact build must meet: the double-chain
    # moves give the graph written with one survivor per double point
    inc = arrangement(kind, n, seed)
    raw = boundary_graph(inc)
    want = compact_boundary_graph(raw, inc).canonical()
    assert reduce_double_chains(raw, inc).canonical() == want


@pytest.mark.parametrize("n", range(2, 11))
def test_pencil_script_reaches_zero_dust(n):
    inc = generate_family("pencil", n)
    g = boundary_graph(inc)
    out = apply_script(g, pencil_reduction_script(g, inc), check_h1=True)
    assert len(out.vertices) == (n - 1) ** 2
    assert out.edges == ()
    assert all(v.euler == 0 and v.genus == 0 for v in out.vertices)


@pytest.mark.parametrize("n", range(3, 11))
def test_near_pencil_script_reaches_single_vertex(n):
    inc = generate_family("near_pencil", n)
    g = boundary_graph(inc)
    out = apply_script(g, near_pencil_reduction_script(g, inc), check_h1=True)
    assert len(out.vertices) == 1
    (v,) = out.vertices
    assert v.euler == 0 and v.genus == n - 2
    assert out.edges == ()


def test_near_pencil_roles():
    inc = generate_family("near_pencil", 6)
    big, generic_line, doubles = near_pencil_roles(inc)
    assert inc.points[big].multiplicity == 5
    assert generic_line == 5
    assert len(doubles) == 5
    assert all(inc.points[j].multiplicity == 2 for j in doubles)
    with pytest.raises(Exception):
        near_pencil_roles(generate_family("generic", 4))


def refuses(fn, *args) -> bool:
    try:
        fn(*args)
    except InvalidInput:
        return True
    return False


def test_shape_predicates_agree_with_the_recipes():
    rng = random.Random(11)
    pencils = near_pencils = 0
    for _ in range(60):
        inc = incidence_from_lines(random_rational_lines(rng.randint(2, 6), rng))
        g = boundary_graph(inc)
        assert is_pencil(inc) != refuses(pencil_reduction_script, g, inc)
        assert is_near_pencil(inc) != refuses(near_pencil_roles, inc)
        pencils += is_pencil(inc)
        near_pencils += is_near_pencil(inc)
    assert pencils >= 10 and near_pencils >= 10


def test_reduce_double_chains_random_arrangements():
    rng = random.Random(5)
    done = 0
    while done < 6:
        lines = random_rational_lines(rng.randint(4, 6), rng)
        inc = incidence_from_lines(lines)
        g = boundary_graph(inc)
        red = reduce_double_chains(g, inc)
        assert homology_of_graph(red) == homology_of_graph(g)
        doubles = sum(1 for p in inc.points if p.multiplicity == 2)
        if doubles:
            assert len(red.vertices) < len(g.vertices)
        done += 1


def test_double_chain_scripts_are_built_as_the_moves_reach_them(monkeypatch):
    # a chain's script is built when the moves reach its double point, so
    # only that chain's moves are alive at a time; each is still read from
    # the unmoved graph
    inc = generate_family("generic", 5)
    g = boundary_graph(inc)
    calls = []
    move = calculus.apply_move

    def logged_script(graph, inc, j):
        calls.append(("script", j))
        assert graph is g
        return double_chain_script(graph, inc, j)

    def logged_move(graph, spec):
        calls.append(("move", spec.target))
        return move(graph, spec)

    monkeypatch.setattr(reduction, "double_chain_script", logged_script)
    monkeypatch.setattr(calculus, "apply_move", logged_move)
    red = reduce_double_chains(g, inc)
    scripts = [k for k, (kind, _) in enumerate(calls) if kind == "script"]
    assert len(scripts) == 10 and scripts[0] == 0
    # each later script is built after the previous chain's moves have run
    assert all(calls[k - 1][0] == "move" for k in scripts[1:])
    assert red == apply_script(g, generic_reduction_script(g, inc))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(n=st.integers(3, 9), seed=st.integers(0, 2**32 - 1))
def test_reduction_keeps_h1_on_random_arrangements(n, seed):
    # every double chain's script runs one two_alteration
    inc = incidence_from_lines(random_rational_lines(n, random.Random(seed)))
    raw = homology_of_graph(boundary_graph(inc))
    assert homology_of_graph(boundary_graph(inc, reduce=True)) == raw
    assert raw.free_rank == betti_formula(inc)
    if is_generic(inc):
        assert raw == generic_h1_closed_form(n)


def test_scripts_are_json_serializable():
    inc = generate_family("generic", 4)
    g = boundary_graph(inc)
    script = generic_reduction_script(g, inc)
    from mfboundary.calculus import MoveSpec

    blobs = [m.to_json() for m in script]
    assert [MoveSpec.from_json(b) for b in blobs] == script


def _raw(kind, n):
    inc = generate_family(kind, n)
    return boundary_graph(inc), inc


ERRORS = [
    # near-pencil 4's point 0 is its triple point (0, 1, 2)
    (lambda: double_chain_script(*_raw("near_pencil", 4), 0),
     InvalidInput, "point 0 has multiplicity 3, not 2"),
    (lambda: generic_reduction_script(*_raw("pencil", 4)),
     InvalidInput, "generic reduction needs an arrangement with only double points"),
]


@pytest.mark.parametrize("call,cls,message", ERRORS, ids=range(len(ERRORS)))
def test_error_branches_raise_their_class_and_message(call, cls, message):
    with pytest.raises(MFBoundaryError) as caught:
        call()
    assert type(caught.value) is cls and str(caught.value) == message
