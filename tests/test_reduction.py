"""Reduction scripts: double-point chains, pencil and near-pencil recipes."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mfboundary.arrangement import generate_family, incidence_from_lines
from mfboundary.arrangement import is_generic, is_near_pencil, is_pencil, random_rational_lines
from mfboundary.calculus import apply_script
from mfboundary.errors import InvalidInput
from mfboundary.generic_algebra import build_An, generic_h1_closed_form
from mfboundary.homology import homology_of_graph, incidence_matrix
from mfboundary.pipeline import betti_formula, boundary_graph
from mfboundary.reduction import (
    chain_survivor,
    generic_reduction_script,
    near_pencil_reduction_script,
    near_pencil_roles,
    pencil_reduction_script,
    reduce_double_chains,
)


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


@pytest.mark.parametrize("n", range(2, 7))
def test_generic_middle_signs(n):
    inc = generate_family("generic", n)
    red = reduce_double_chains(boundary_graph(inc), inc)
    for j, p in enumerate(inc.points):
        i1, i2 = p.lines
        mid = chain_survivor(inc, j)
        edges = {e.other(mid): e.sign for e in red.edges_at(mid)}
        assert edges == {f"v{i1}": -1, f"v{i2}": 1}


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
