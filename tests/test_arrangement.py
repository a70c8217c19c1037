"""Projective lines, intersection points and incidence combinatorics."""

import itertools
import json
import random
import re
import time
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mfboundary.arrangement import (
    RANDOM_BOX_LINES,
    IncidenceData,
    MultiPoint,
    ProjLine,
    arrangement_from_json,
    generate_family,
    incidence_from_lines,
    incidence_to_json,
    intersect_lines,
    is_generic,
    is_near_pencil,
    is_pencil,
    load_arrangement,
    random_rational_lines,
)
from mfboundary.errors import (
    IdenticalLines,
    InvalidIncidence,
    InvalidInput,
    InvalidSize,
    MFBoundaryError,
)

from oracles import incidence_fault


def test_line_canonicalization():
    assert ProjLine.from_coeffs([2, 4, -6]).coeffs == (1, 2, -3)
    assert ProjLine.from_coeffs([-1, 0, 2]).coeffs == (1, 0, -2)
    assert ProjLine.from_coeffs([0, 0, 5]).coeffs == (0, 0, 1)


def test_line_rational_coeffs():
    l = ProjLine.from_coeffs([Fraction(1, 2), Fraction(-1, 3), 0])
    assert l.coeffs == (3, -2, 0)
    assert ProjLine.from_coeffs(["1/2", "-1/3", "0"]) == l


def test_line_rejects_garbage():
    with pytest.raises(InvalidInput):
        ProjLine.from_coeffs([0, 0, 0])
    with pytest.raises(InvalidInput):
        ProjLine.from_coeffs([1.5, 0, 1])
    with pytest.raises(InvalidInput):
        ProjLine.from_coeffs([True, 0, 1])
    with pytest.raises(InvalidInput):
        ProjLine.from_coeffs([1, 2])


@pytest.mark.parametrize("row, outcome", [
    (["1/0", 1, 2], "cannot parse rational '1/0'"),
    (["+3/06", 1, 2], (1, 2, 4)),
    (["-0/5", 1, 2], (0, 1, 2)),
    ([Fraction(1, 3), 1, 2], (1, 3, 6)),
    ([Fraction(-4, 6), "10/4", 2], (4, -15, -12)),
    ([3.0, 1, 2], "not a rational coefficient: 3.0"),
    ([True, 1, 2], "not a rational coefficient: True"),
    (["\u0663", 1, 2], "not a rational coefficient: '\u0663'"),
    (["1" * 5000, 1, 2], "cannot parse rational '" + "1" * 5000 + "'"),
    ([0, 0, 0], "zero vector does not define a projective object"),
    (5, "a line is a list of three coefficients, got 5"),
    ("123", "a line is a list of three coefficients, got '123'"),
])
def test_line_coefficient_parser_table(row, outcome):
    if isinstance(outcome, tuple):
        assert ProjLine.from_coeffs(row).coeffs == outcome
    else:
        with pytest.raises(InvalidInput) as info:
            ProjLine.from_coeffs(row)
        assert str(info.value) == outcome


def test_a_long_row_is_rejected_before_it_is_parsed():
    obj = {"lines": [["1/3"] * 10**6, [0, 1, 0]]}
    start = time.perf_counter()
    with pytest.raises(InvalidInput, match="^expected 3 coordinates, got 1000000$"):
        arrangement_from_json(obj)
    assert time.perf_counter() - start < 0.5


def test_intersect_lines_cross_product():
    x = ProjLine.from_coeffs([1, 0, 0])
    y = ProjLine.from_coeffs([0, 1, 0])
    p = intersect_lines(x, y)
    assert p == (0, 0, 1)
    assert all(sum(a * c for a, c in zip(l.coeffs, p)) == 0 for l in (x, y))


def test_intersect_lines_returns_the_primitive_triple():
    # (1, 2, 3) x (4, 5, 6) = (-3, 6, -3): content 3, first entry negative
    p = intersect_lines(ProjLine.from_coeffs([1, 2, 3]), ProjLine.from_coeffs([4, 5, 6]))
    assert p == (1, -2, 1)
    assert type(p) is tuple and all(type(v) is int for v in p)


def test_intersect_identical_lines_fails():
    a = ProjLine.from_coeffs([1, -2, 3])
    b = ProjLine.from_coeffs([-2, 4, -6])
    with pytest.raises(IdenticalLines):
        intersect_lines(a, b)


def test_incidence_from_lines_triangle():
    lines = [ProjLine.from_coeffs(c, label=i)
             for i, c in enumerate([[1, 0, 0], [0, 1, 0], [0, 0, 1]])]
    inc = incidence_from_lines(lines)
    assert inc.n == 3
    assert [p.multiplicity for p in inc.points] == [2, 2, 2]
    assert [p.lines for p in inc.points] == [(0, 1), (0, 2), (1, 2)]


def test_incidence_pair_exactness_enforced():
    # pair (0,2) missing
    with pytest.raises(InvalidIncidence):
        IncidenceData(n=3, points=(MultiPoint(lines=(0, 1)), MultiPoint(lines=(1, 2))))
    # pair (0,1) twice
    with pytest.raises(InvalidIncidence):
        IncidenceData(n=3, points=(
            MultiPoint(lines=(0, 1, 2)), MultiPoint(lines=(0, 1))))
    # line index out of range
    with pytest.raises(InvalidIncidence):
        IncidenceData(n=2, points=(MultiPoint(lines=(0, 2)),))


def test_incidence_size_bounds():
    assert IncidenceData(n=1, points=()).points == ()  # one line, no points
    with pytest.raises(InvalidSize):
        IncidenceData(n=0, points=())
    with pytest.raises(InvalidIncidence):
        IncidenceData(n=2, points=(MultiPoint(lines=(0, 0)),))


@pytest.mark.parametrize("n", [True, False, "3", 3.0, None, [3]])
def test_incidence_n_must_be_an_int(n):
    # as arrangement_from_json requires of "n": a bool is not an integer here
    with pytest.raises(InvalidInput, match="n must be an integer"):
        IncidenceData(n, ())


def assert_same_fault(n, points):
    """IncidenceData reports the fault the pair table reports, except that
    of several repeated pairs it may name any, with two points it lies on."""
    try:
        IncidenceData(n, tuple(MultiPoint(tuple(p)) for p in points))
        got = None
    except InvalidIncidence as exc:
        got = str(exc)
    want = incidence_fault(n, points)
    if want is None or " appears on points " not in want:
        assert got == want
        return
    a, b, p, q = map(int, re.fullmatch(
        r"line pair \((\d+), (\d+)\) appears on points (\d+) and (\d+)", got).groups())
    ordered = sorted(tuple(sorted(pt)) for pt in points)
    assert a < b and p < q and {a, b} <= set(ordered[p]) & set(ordered[q])


@given(st.integers(1, 6), st.lists(st.lists(st.integers(-1, 6), max_size=5), max_size=8))
@settings(max_examples=400, deadline=None)
def test_incidence_errors_match_the_pair_table(n, points):
    assert_same_fault(n, points)


@pytest.mark.parametrize("seed", range(40))
def test_incidence_errors_match_the_pair_table_near_valid_input(seed):
    # a valid arrangement with one point dropped, duplicated, merged into
    # another or extended by a line
    rng = random.Random(seed)
    inc = incidence_from_lines(random_rational_lines(rng.randint(3, 9), rng))
    points = [list(p.lines) for p in inc.points]
    k = rng.randrange(len(points))
    edit = seed % 4
    if edit == 0:
        del points[k]
    elif edit == 1:
        points.append(list(points[k]))
    elif edit == 2:
        points[k] += points[rng.randrange(len(points))]
        points[k] = sorted(set(points[k]))
    else:
        points[k].append(rng.randrange(inc.n))
    assert_same_fault(inc.n, points)


def test_one_repeated_pair_is_named_with_its_two_points():
    points = [(0, 1, 2), (0, 3), (1, 3), (2, 3), (1, 2)]  # (1, 2) twice; sorted, points 0 and 2
    with pytest.raises(InvalidIncidence, match=r"^line pair \(1, 2\) appears on points 0 and 2$"):
        IncidenceData(4, tuple(MultiPoint(p) for p in points))


def test_points_form_pencil_validates_in_linear_memory():
    # a pair table would hold every one of the 1999000 line pairs
    obj = {"n": 2000, "points": [list(range(2000))]}
    tracemalloc.start()
    try:
        inc = arrangement_from_json(obj)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert is_pencil(inc)
    assert peak < 5 * 2 ** 20


def test_a_huge_n_with_few_points_fails_in_little_memory():
    tracemalloc.start()
    try:
        with pytest.raises(InvalidIncidence, match=r"^line pair \(0, 2\) meets no point$"):
            arrangement_from_json({"n": 10 ** 9, "points": [[0, 1], [5, 10 ** 8]]})
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20


@pytest.mark.parametrize("n", range(2, 9))
def test_generic_family_all_doubles(n):
    inc = generate_family("generic", n)
    assert inc.n == n
    assert len(inc.points) == n * (n - 1) // 2
    assert all(p.multiplicity == 2 for p in inc.points)
    assert is_generic(inc)


@pytest.mark.parametrize("n", range(2, 9))
def test_pencil_family_single_point(n):
    inc = generate_family("pencil", n)
    assert len(inc.points) == 1
    assert inc.points[0].multiplicity == n


@pytest.mark.parametrize("n", range(3, 9))
def test_near_pencil_family_shape(n):
    inc = generate_family("near_pencil", n)
    mults = sorted(p.multiplicity for p in inc.points)
    assert mults == [2] * (n - 1) + [n - 1]
    assert len(inc.points) == n


@pytest.mark.parametrize("n", range(2, 9))
def test_shape_predicates_on_the_three_families(n):
    generic, pencil = generate_family("generic", n), generate_family("pencil", n)
    assert is_pencil(pencil) and not is_near_pencil(pencil)
    assert is_pencil(generic) == (n == 2)  # two lines meet in one point
    assert is_near_pencil(generic) == (n == 3)  # the triangle
    if n >= 3:
        near = generate_family("near_pencil", n)
        assert is_near_pencil(near) and not is_pencil(near)
        assert is_generic(near) == (n == 3)


def test_generate_family_validates():
    with pytest.raises(InvalidInput):
        generate_family("nonsense", 4)
    with pytest.raises(InvalidSize):
        generate_family("generic", 1)
    with pytest.raises(InvalidSize):
        generate_family("near_pencil", 2)


@pytest.mark.parametrize("n", range(2, 9))
def test_moment_curve_lines_are_generic(n):
    # x + t*y + t^2*z: any two meet at (t1*t2 : -(t1+t2) : 1), distinct per pair
    inc = incidence_from_lines([ProjLine.from_coeffs((1, t, t * t), t) for t in range(n)])
    assert is_generic(inc)
    assert generate_family("generic", n) == inc


def test_braid_like_arrangement_incidence():
    # x, y, z, x-y, y-z, z-x: four triple points and three double points
    coeffs = [[1, 0, 0], [0, 1, 0], [0, 0, 1],
              [1, -1, 0], [0, 1, -1], [-1, 0, 1]]
    lines = [ProjLine.from_coeffs(c, label=i) for i, c in enumerate(coeffs)]
    inc = incidence_from_lines(lines)
    mults = sorted(p.multiplicity for p in inc.points)
    assert mults == [2, 2, 2, 3, 3, 3, 3]


def test_random_rational_lines_deterministic_and_valid():
    a = random_rational_lines(6, random.Random(11))
    b = random_rational_lines(6, random.Random(11))
    assert [l.coeffs for l in a] == [l.coeffs for l in b]
    inc = incidence_from_lines(a)
    assert inc.n == 6  # validation inside IncidenceData did the real work


def test_random_rational_lines_refuse_more_lines_than_the_box_holds():
    box = {
        ProjLine.from_coeffs(c).coeffs
        for c in itertools.product(range(-2, 3), repeat=3) if any(c)
    }
    assert len(box) == RANDOM_BOX_LINES
    lines = random_rational_lines(RANDOM_BOX_LINES, random.Random(3))
    assert {l.coeffs for l in lines} == box
    with pytest.raises(InvalidSize):
        random_rational_lines(RANDOM_BOX_LINES + 1, random.Random(3))


def test_random_rational_lines_vary_with_seed():
    incs = set()
    for seed in range(8):
        inc = incidence_from_lines(random_rational_lines(5, random.Random(seed)))
        incs.add(tuple(p.lines for p in inc.points))
    assert len(incs) > 1


def test_json_round_trip_lines(tmp_path):
    inc = generate_family("near_pencil", 5)
    blob = incidence_to_json(inc)
    again = arrangement_from_json(json.loads(json.dumps(blob)))
    assert again == inc


def test_json_lines_input():
    data = {"lines": [[1, 0, 0], [0, 1, 0], ["1/2", "1/2", 0]]}
    inc = arrangement_from_json(data)
    assert inc.n == 3
    assert len(inc.points) == 1 and inc.points[0].multiplicity == 3


def test_json_identical_lines_name_the_first_pair():
    with pytest.raises(IdenticalLines, match="^lines 0 and 2 coincide$"):
        arrangement_from_json({"lines": [[1, 0, 0], [0, 1, 0], [2, 0, 0]]})


def test_json_bad_payload():
    with pytest.raises(InvalidInput):
        arrangement_from_json({"whatever": 1})


def test_incidence_helpers():
    inc = generate_family("near_pencil", 4)
    assert sorted(inc.multiplicities) == [2, 2, 2, 3]
    big = max(range(len(inc.points)), key=lambda j: inc.points[j].multiplicity)
    assert sum(3 in p.lines for p in inc.points) == 3  # the generic line meets 3 doubles
    assert 3 not in inc.points[big].lines


def _bool_labelled_lines():
    # True stands where the label 1 belongs, and compares equal to it
    return [ProjLine((1, 0, 0), 0), ProjLine((0, 1, 0), True), ProjLine((0, 0, 1), 2)]


ERRORS = [
    (lambda: incidence_from_lines([]), InvalidSize, "need at least one line"),
    (lambda: incidence_from_lines([ProjLine((1, 0, 0), 1), ProjLine((0, 1, 0), 0)]),
     InvalidInput, "line labels must be 0..n-1 in order"),
    (lambda: random_rational_lines(1, random.Random(0)), InvalidSize, "need n >= 2"),
    (lambda: arrangement_from_json({"points": [[0, 1]]}),
     InvalidInput, '"points" form needs an "n" field'),
    (lambda: arrangement_from_json({"n": 2, "points": {"0": [0, 1]}}),
     InvalidInput, '"points" must be a list'),
    (lambda: IncidenceData(3, (MultiPoint((0, True)), MultiPoint((0, 2)), MultiPoint((1, 2)))),
     InvalidInput, "point 0 has line index True, not an integer"),
    (lambda: IncidenceData(3, (MultiPoint((0, 1)), MultiPoint((0, 2)), MultiPoint((1, 2.0)))),
     InvalidInput, "point 2 has line index 2.0, not an integer"),
    (lambda: incidence_from_lines(_bool_labelled_lines()),
     InvalidInput, "point 0 has line index True, not an integer"),
]


@pytest.mark.parametrize("call,cls,message", ERRORS, ids=range(len(ERRORS)))
def test_error_branches_raise_their_class_and_message(call, cls, message):
    with pytest.raises(MFBoundaryError) as caught:
        call()
    assert type(caught.value) is cls and str(caught.value) == message


def test_load_arrangement_reads_both_file_shapes(tmp_path):
    inc = generate_family("near_pencil", 5)
    points = tmp_path / "points.json"
    points.write_text(json.dumps(incidence_to_json(inc)))
    lines = tmp_path / "lines.json"
    lines.write_text(json.dumps({"lines": [[1, 0, 0], [0, 1, 0], [1, 1, 0], [0, 0, 1]]}))
    assert load_arrangement(str(points)) == inc
    assert load_arrangement(str(lines)).multiplicities == (3, 2, 2, 2)
    lines.write_text('{"lines": [')
    with pytest.raises(InvalidInput, match="^invalid JSON in "):
        load_arrangement(str(lines))
