"""Smith normal form, abelian group arithmetic, and the graph homology
theorem, checked against a slow minor-gcd oracle and hand-computed cases."""

import math
import os
import random
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mfboundary.arrangement import generate_family, incidence_from_lines, random_rational_lines
from mfboundary import homology
from mfboundary.errors import InternalError, InvalidInput, MissingEuler, NonSimpleGraph
from mfboundary.graph_core import Edge, PlumbingGraph, Vertex, first_betti_of_graph
from mfboundary.homology import (
    AbelianGroup,
    SmithForm,
    _bareiss_rank_modulus,
    _coprime_split,
    homology_of_graph,
    incidence_matrix,
    smith_normal_form,
)
from mfboundary.pipeline import (
    betti_formula,
    boundary_graph,
    probe_conjecture,
    projective_complement_euler,
)

from oracles import minor_gcd_smith, random_matrix, random_plumbing, rational_rank


def v(vid, euler=None, genus=0, kind="plain"):
    return Vertex(id=vid, euler=euler, genus=genus, kind=kind)


# -- SmithForm / AbelianGroup containers -------------------------------------

def test_smith_form_rank_and_corank():
    sf = SmithForm(rows=4, cols=5, factors=(1, 2, 6))
    assert sf.rank == 3
    assert sf.corank == 2


def test_smith_form_rejects_nondivisible_chain():
    with pytest.raises(InvalidInput):
        SmithForm(rows=2, cols=2, factors=(2, 3))


def test_abelian_group_validation():
    with pytest.raises(InvalidInput):
        AbelianGroup(-1)
    with pytest.raises(InvalidInput):
        AbelianGroup(0, (1,))
    with pytest.raises(InvalidInput):
        AbelianGroup(0, (4, 2))


def test_abelian_group_equality_and_str():
    assert AbelianGroup(2, (3, 6)) == AbelianGroup(2, [3, 6])
    assert str(AbelianGroup(0)) == "0"
    assert str(AbelianGroup(1)) == "Z"
    assert str(AbelianGroup(3)) == "Z^3"
    assert str(AbelianGroup(2, (4,))) == "Z^2 (+) Z_4"
    assert str(AbelianGroup(0, (2, 2))) == "Z_2 (+) Z_2"


def test_abelian_group_helpers():
    g = AbelianGroup.cyclic_powers(5, 4, 3)
    assert g == AbelianGroup(5, (4, 4, 4))
    assert AbelianGroup.cyclic_powers(2, 7, 0) == AbelianGroup(2)
    assert AbelianGroup(3).is_torsion_free
    assert not AbelianGroup(3, (2,)).is_torsion_free


# -- smith_normal_form -------------------------------------------------------

def test_snf_small_hand_cases():
    assert smith_normal_form([[0]]).factors == ()
    assert smith_normal_form([[7]]).factors == (7,)
    assert smith_normal_form([[-7]]).factors == (7,)
    assert smith_normal_form([[2, 0], [0, 3]]).factors == (1, 6)
    assert smith_normal_form([[2, 4], [4, 8]]).factors == (2,)
    # diag(2, 2) is not diag(1, 4)
    assert smith_normal_form([[2, 0], [0, 2]]).factors == (2, 2)


def test_snf_rejects_garbage():
    with pytest.raises(InvalidInput):
        smith_normal_form("nope")
    with pytest.raises(InvalidInput):
        smith_normal_form([[1, 2], [3]])
    with pytest.raises(InvalidInput):
        smith_normal_form([[1.5]])
    with pytest.raises(InvalidInput):
        smith_normal_form([[True]])


def test_snf_empty_matrices():
    assert smith_normal_form([]).factors == ()
    assert smith_normal_form([[]]).factors == ()
    assert smith_normal_form([[]]).corank == 0


def test_snf_matches_minor_gcd_oracle_seeded():
    rng = random.Random(90125)
    for _ in range(300):
        M = random_matrix(rng)
        got = smith_normal_form(M)
        want = minor_gcd_smith(M)
        assert got.factors == want, (M, got.factors, want)
        assert got.rank == rational_rank(M)


def test_snf_nontrivial_torsion_example():
    # presentation of Z_2 (+) Z_{12}
    M = [[2, 0, 0], [0, 12, 0], [0, 0, 1]]
    assert smith_normal_form(M).factors == (1, 2, 12)


def test_snf_handles_wide_and_tall():
    assert smith_normal_form([[6, 10, 15]]).factors == (1,)
    assert smith_normal_form([[4], [6]]).factors == (2,)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_snf_invariances(data):
    rng = random.Random(data.draw(st.integers(0, 10**9)))
    M = random_matrix(rng, max_size=5, bound=7)
    base = smith_normal_form(M).factors
    rows = list(range(len(M)))
    cols = list(range(len(M[0])))
    rng.shuffle(rows)
    rng.shuffle(cols)
    permuted = [[M[i][j] for j in cols] for i in rows]
    assert smith_normal_form(permuted).factors == base
    transposed = [list(col) for col in zip(*M)]
    assert smith_normal_form(transposed).factors == base
    negated = [[-x for x in row] for row in M]
    assert smith_normal_form(negated).factors == base
    if len(M) >= 2:
        # add a multiple of one row to another: unimodular, SNF-preserving
        k = rng.randint(-3, 3)
        bumped = [list(row) for row in M]
        bumped[0] = [a + k * b for a, b in zip(bumped[0], bumped[1])]
        assert smith_normal_form(bumped).factors == base


def test_snf_bigger_structured_matrix():
    # block diag(5, 15, 45) after clearing: factors 5, 15, 45
    M = [[5, 0, 0], [0, 15, 0], [0, 0, 45]]
    assert smith_normal_form(M).factors == (5, 15, 45)
    M2 = [[5, 5, 0], [0, 15, 15], [0, 0, 45]]
    # det 5*15*45, D_1 = 5
    assert smith_normal_form(M2).factors == minor_gcd_smith(M2)


def low_rank_matrix(rng):
    """A product of n x k and k x m random matrices, k < min(n, m)."""
    n, m = rng.randint(2, 5), rng.randint(2, 5)
    k = rng.randint(1, min(n, m) - 1)
    A = [[rng.randint(-3, 3) for _ in range(k)] for _ in range(n)]
    B = [[rng.randint(-3, 3) for _ in range(m)] for _ in range(k)]
    return [[sum(a * b for a, b in zip(row, col)) for col in zip(*B)] for row in A]


def test_bareiss_modulus_is_a_multiple_of_the_last_factor():
    rng = random.Random(5150)
    endings = set()
    for k in range(300):
        M = low_rank_matrix(rng) if k % 2 else random_matrix(rng)
        copy = [list(row) for row in M]
        rank, R = _bareiss_rank_modulus(copy)
        assert copy == M  # the input is left as it was
        want = minor_gcd_smith(M)
        assert rank == len(want), (M, rank, want)
        if not rank:
            assert R == 0
            continue
        assert R > 0 and R % want[-1] == 0, (M, R, want)
        # the loop ends by running out of rows or columns, or on a zero block
        endings.add("exhausted" if rank == min(len(M), len(M[0])) else "zero block")
    assert endings == {"exhausted", "zero block"}
    assert _bareiss_rank_modulus([[2, 4], [4, 8]]) == (1, 2)  # zero block after one step
    assert _bareiss_rank_modulus([[2, 0], [0, 3]]) == (2, 6)  # out of rows


def unit_free_matrix(rng):
    """A small random matrix with no +-1 entry and content 1."""
    values = [v for v in range(-12, 13) if abs(v) > 1] + [0] * 6
    while True:
        M = [[rng.choice(values) for _ in range(rng.randint(2, 5))]]
        M += [[rng.choice(values) for _ in M[0]] for _ in range(rng.randint(1, 4))]
        if math.gcd(*(v for row in M for v in row)) == 1:
            return M


def test_snf_unit_free_matrices_match_oracle():
    # with no +-1 entry and content 1 the whole matrix goes to the modular
    # finish; entries coprime to the Bareiss modulus R are its unit pivots,
    # and when there are none R splits into coprime parts
    rng = random.Random(2718)
    seen = {"units mod R": 0, "no unit mod R": 0}
    for _ in range(400):
        M = unit_free_matrix(rng)
        got = smith_normal_form(M).factors
        assert got == minor_gcd_smith(M), (M, got)
        _, R = _bareiss_rank_modulus(M)
        if R > 1:
            coprime = any(math.gcd(v, R) == 1 for row in M for v in row if v)
            seen["units mod R" if coprime else "no unit mod R"] += 1
    assert min(seen.values()) >= 10, seen


@pytest.fixture
def splits(monkeypatch):
    """The moduli the engine splits, in call order."""
    seen = []
    split = homology._coprime_split

    def recording(rows, modulus):
        seen.append(modulus)
        return split(rows, modulus)

    monkeypatch.setattr(homology, "_coprime_split", recording)
    return seen


def test_coprime_split_takes_the_primes_one_entry_shares():
    # 360 = 2^3 * 3^2 * 5, and the first entry, 6, shares 2 and 3 but not 5
    assert _coprime_split({0: {0: 6, 1: 10}, 1: {1: 15}}, 360) == (72, 5)
    rng = random.Random(1129)
    for _ in range(200):
        primes = rng.sample([2, 3, 5, 7, 11, 13], rng.randint(2, 4))
        m = math.prod(p ** rng.randint(1, 3) for p in primes)
        # each entry a power of one prime of m times a unit: no unit, content 1
        rows = {i: {j: rng.choice((1, -1)) * p ** rng.randint(1, 4) * rng.choice((1, 17, 19))
                    for j, p in enumerate(primes)}
                for i in range(rng.randint(1, 3))}
        a, b = _coprime_split(rows, m)
        assert a * b == m and math.gcd(a, b) == 1 and a > 1 and b > 1, (rows, m, a, b)
    # entries divisible by every prime of m leave no split (nor content 1)
    with pytest.raises(InternalError):
        _coprime_split({0: {0: 30, 1: -60}}, 30)


def prime_product_matrix(rng):
    """A small matrix whose nonzero entries are +-products of one or two
    primes above 1000: no entry is a unit over Z, and entries often share
    primes with the Bareiss modulus, which then splits."""
    primes = (1009, 1013, 1019)

    def entry():
        if rng.random() < 0.2:
            return 0
        return rng.choice((1, -1)) * math.prod(rng.choices(primes, k=rng.randint(1, 2)))

    n, m = rng.randint(2, 4), rng.randint(2, 4)
    return [[entry() for _ in range(m)] for _ in range(n)]


def test_snf_coprime_split_matches_oracle(splits):
    rng = random.Random(1013)
    split_matrices = 0
    for _ in range(400):
        M = prime_product_matrix(rng)
        before = len(splits)
        got = smith_normal_form(M).factors
        assert got == minor_gcd_smith(M), (M, got)
        split_matrices += len(splits) > before
    # every split after a matrix's first runs on a part of an earlier one
    nested = len(splits) - split_matrices
    assert split_matrices >= 50 and nested >= 10, (split_matrices, nested)


@pytest.mark.parametrize("seed, group", [
    (1, AbelianGroup(39, (10,) * 22)),
    (2, AbelianGroup(38, (5, 5) + (10,) * 17)),
    (3, AbelianGroup(43, (5, 5) + (10,) * 22)),
])
def test_non_generic_boundaries_split_the_modulus(splits, seed, group):
    # random arrangements of 10 lines whose raw graphs leave a core with no
    # unit and content 1 modulo R; the groups are literals recorded from an
    # engine that finished such cores by Euclid steps instead
    inc = incidence_from_lines(random_rational_lines(10, random.Random(seed)))
    assert homology_of_graph(boundary_graph(inc)) == group
    assert splits
    assert homology_of_graph(boundary_graph(inc, reduce=True)) == group


# -- incidence_matrix --------------------------------------------------------

def closed_graph(verts, edges):
    return PlumbingGraph(
        vertices=[v(i, e, g) for i, e, g in verts],
        edges=[Edge(a, b, s) for a, b, s in edges],
    )


def test_incidence_matrix_values_and_symmetry():
    g = closed_graph(
        [("v0", -1, 0), ("v1", -2, 0), ("w0", -3, 1)],
        [("v0", "w0", 1), ("v1", "w0", -1)],
    )
    A = incidence_matrix(g)
    assert A == [[-1, 0, 1], [0, -2, -1], [1, -1, -3]]
    assert all(A[i][j] == A[j][i] for i in range(3) for j in range(3))


def test_incidence_matrix_rejects_arrowheads():
    g = PlumbingGraph(
        vertices=[v("v0", -1), v("a0", kind="arrowhead")],
        edges=[Edge("v0", "a0", 1, arrow=True)],
    )
    with pytest.raises(InvalidInput):
        incidence_matrix(g)


def test_incidence_matrix_rejects_missing_euler():
    g = PlumbingGraph(vertices=[v("v0")], edges=[])
    with pytest.raises(MissingEuler):
        incidence_matrix(g)


def test_incidence_matrix_rejects_non_simple():
    loop = closed_graph([("v0", -1, 0)], [("v0", "v0", 1)])
    with pytest.raises(NonSimpleGraph) as exc:
        incidence_matrix(loop)
    assert "absorb" in str(exc.value)
    double = closed_graph(
        [("v0", -1, 0), ("v1", -2, 0)],
        [("v0", "v1", 1), ("v0", "v1", -1)],
    )
    with pytest.raises(NonSimpleGraph):
        incidence_matrix(double)


# -- homology_of_graph -------------------------------------------------------

def test_homology_single_vertices():
    # euler e, genus 0: lens-space circle bundle over S^2
    assert homology_of_graph(closed_graph([("v", 0, 0)], [])) == AbelianGroup(1)
    assert homology_of_graph(closed_graph([("v", 1, 0)], [])) == AbelianGroup(0)
    assert homology_of_graph(closed_graph([("v", -5, 0)], [])) == AbelianGroup(0, (5,))
    # genus g contributes 2g free generators
    assert homology_of_graph(closed_graph([("v", 3, 2)], [])) == AbelianGroup(4, (3,))


def test_homology_counts_graph_cycles():
    tri = closed_graph(
        [("a", 1, 0), ("b", 1, 0), ("c", 1, 0)],
        [("a", "b", 1), ("b", "c", 1), ("a", "c", 1)],
    )
    got = homology_of_graph(tri)
    A = incidence_matrix(tri)
    snf = smith_normal_form(A)
    assert got.free_rank == snf.corank + 1  # one independent cycle
    assert got.torsion == tuple(d for d in snf.factors if d >= 2)


def test_homology_disjoint_union_adds():
    g1 = closed_graph([("a", -4, 0)], [])
    g2 = closed_graph([("b", 0, 1)], [])
    both = closed_graph([("a", -4, 0), ("b", 0, 1)], [])
    h1, h2, hb = map(homology_of_graph, (g1, g2, both))
    assert hb.free_rank == h1.free_rank + h2.free_rank
    assert sorted(hb.torsion) == sorted(h1.torsion + h2.torsion)


def dense_homology(g):
    """H1 assembled from the dense matrix route."""
    snf = smith_normal_form(incidence_matrix(g))
    free = snf.corank + 2 * sum(x.genus for x in g.vertices) + first_betti_of_graph(g)
    return AbelianGroup(free, tuple(d for d in snf.factors if d >= 2))


def boundary_arrangements():
    arrangements = [generate_family("generic", n) for n in range(4, 10)]
    arrangements += [generate_family("pencil", n) for n in range(3, 9)]
    arrangements += [generate_family("near_pencil", n) for n in range(4, 10)]
    rng = random.Random(7077)
    arrangements += [
        incidence_from_lines(random_rational_lines(rng.randint(4, 7), rng)) for _ in range(8)
    ]
    return arrangements


@pytest.mark.parametrize("reduce", [False, True], ids=["raw", "reduced"])
def test_homology_of_graph_matches_dense_route(reduce):
    for inc in boundary_arrangements():
        g = boundary_graph(inc, reduce=reduce)
        assert homology_of_graph(g) == dense_homology(g)
    rng = random.Random(4004)
    for _ in range(40):
        g = random_plumbing(rng)
        assert homology_of_graph(g) == dense_homology(g)


def test_homology_of_graph_rejects_what_incidence_matrix_rejects():
    arrow = PlumbingGraph(
        vertices=[v("v0", -1), v("a0", kind="arrowhead")],
        edges=[Edge("v0", "a0", 1, arrow=True)],
    )
    missing = PlumbingGraph(vertices=[v("v0", -1), v("v1")], edges=[Edge("v0", "v1", 1)])
    loop = closed_graph([("v0", -1, 0)], [("v0", "v0", 1)])
    double = closed_graph(
        [("v0", -1, 0), ("v1", -2, 0)],
        [("v0", "v1", 1), ("v0", "v1", -1)],
    )
    for g, error in [(arrow, InvalidInput), (missing, MissingEuler),
                     (loop, NonSimpleGraph), (double, NonSimpleGraph)]:
        with pytest.raises(error):
            incidence_matrix(g)
        with pytest.raises(error):
            homology_of_graph(g)


def test_snf_oracle_tests_pass_under_python_O():
    # python -O strips assert statements; the engine's invariant checks and
    # the graph checks of incremental edits are explicit raises and must
    # still hold in an optimised run
    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(here)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(root, "src"), here] + [p for p in [env.get("PYTHONPATH")] if p]
    )
    selected = [
        "tests/test_homology.py::test_snf_matches_minor_gcd_oracle_seeded",
        "tests/test_homology.py::test_snf_unit_free_matrices_match_oracle",
        "tests/test_homology.py::test_snf_coprime_split_matches_oracle",
        "tests/test_homology.py::test_bareiss_modulus_is_a_multiple_of_the_last_factor",
        "tests/test_acceptance.py::test_criterion_11_snf_oracle",
        "tests/test_graph_index.py::test_edits_reject_what_a_rebuild_rejects",
        "tests/test_graph_core.py::test_graph_validation",
        "tests/test_graph_core.py::test_arrowhead_degree_one",
    ]
    # pytest warns that -O turns its asserts off, which is this run's point;
    # every other warning is still an error
    quiet = "ignore:assertions not in test modules:pytest.PytestConfigWarning"
    out = subprocess.run(
        [sys.executable, "-O", "-m", "pytest", "-q", "-p", "no:cacheprovider", "-W", quiet,
         *selected],
        cwd=root, env=env, capture_output=True, text=True, timeout=300,
    )
    assert out.returncode == 0, out.stdout[-2000:] + out.stderr[-2000:]
    assert f"{len(selected)} passed" in out.stdout


# -- closed-form arrangement counts ------------------------------------------

def test_betti_formula_families():
    for n in range(2, 9):
        assert betti_formula(generate_family("generic", n)) == n * (n - 1) // 2
        assert betti_formula(generate_family("pencil", n)) == (n - 1) ** 2
    for n in range(3, 9):
        assert betti_formula(generate_family("near_pencil", n)) == 2 * n - 3


def test_betti_formula_rejects_tiny():
    from mfboundary.arrangement import IncidenceData

    with pytest.raises(InvalidInput):
        betti_formula(IncidenceData(n=1, points=[]))


def test_projective_complement_euler_values():
    assert projective_complement_euler(generate_family("generic", 3)) == 0
    assert projective_complement_euler(generate_family("generic", 4)) == 1
    assert projective_complement_euler(generate_family("generic", 5)) == 3
    for n in range(2, 8):
        assert projective_complement_euler(generate_family("pencil", n)) == 2 - n
    for n in range(3, 8):
        assert projective_complement_euler(generate_family("near_pencil", n)) == 0


# -- conjecture probes -------------------------------------------------------

def test_probe_generic_four_lines():
    rep = probe_conjecture(generate_family("generic", 4))
    assert rep.group == AbelianGroup(6, (4,))
    assert rep.flat_hypothesis
    assert rep.complement_euler == 1
    assert rep.flat_prediction_ok is True
    assert rep.betti_matches
    assert rep.orders_divide_n
    assert not rep.torsion_free
    assert not (rep.pencil_like or rep.near_pencil_like)
    assert rep.torsion_free_iff
    assert rep.all_hold()


def test_probe_pencil_flags():
    rep = probe_conjecture(generate_family("pencil", 5))
    assert rep.group == AbelianGroup(16)
    assert not rep.flat_hypothesis
    assert rep.flat_prediction_ok is None
    assert rep.pencil_like and not rep.near_pencil_like
    assert rep.torsion_free and rep.torsion_free_iff
    assert rep.all_hold()


def test_probe_near_pencil_flags():
    rep = probe_conjecture(generate_family("near_pencil", 5))
    assert rep.group == AbelianGroup(7)
    assert rep.flat_hypothesis
    assert rep.complement_euler == 0
    assert rep.flat_prediction_ok is True  # chi = 0, no torsion expected
    assert rep.near_pencil_like and not rep.pencil_like
    assert rep.all_hold()


def test_probe_triangle_counts_as_near_pencil():
    rep = probe_conjecture(generate_family("generic", 3))
    assert rep.group == AbelianGroup(3)
    assert rep.near_pencil_like
    assert rep.torsion_free_iff
    assert rep.all_hold()


def test_probe_report_json_shape():
    rep = probe_conjecture(generate_family("generic", 4))
    d = rep.to_json()
    assert d["h1"] == "Z^6 (+) Z_4"
    assert d["torsion"] == [4]
    assert d["all_hold"] is True
    assert d["n"] == 4
