"""Smith normal form, abelian group arithmetic, and the graph homology
theorem, checked against a slow minor-gcd oracle and hand-computed cases."""

import hashlib
import json
import math
import os
import random
import re
import subprocess
import sys
import time
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mfboundary.arrangement import generate_family, incidence_from_lines, random_rational_lines
from mfboundary import homology
from mfboundary.errors import (
    InternalError,
    InvalidInput,
    InvalidSize,
    MFBoundaryError,
    MissingEuler,
    NonSimpleGraph,
)
from mfboundary.graph_core import Edge, PlumbingGraph, Vertex, first_betti_of_graph
from mfboundary.homology import (
    AbelianGroup,
    SmithForm,
    _bareiss_rank_modulus,
    _coprime_split,
    _sparse_rows,
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

from oracles import (
    component_count_betti,
    front_end_error,
    minor_gcd_smith,
    plain_bareiss,
    random_matrix,
    random_plumbing,
    rational_rank,
)


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


@pytest.mark.parametrize("torsion", [5, "23", None, 2.0, {2: 0}, range(2, 3), iter([2])])
def test_abelian_group_torsion_is_a_tuple_or_list(torsion):
    with pytest.raises(InvalidInput, match="^torsion must be a tuple or list of orders, got " +
                       re.escape(repr(torsion)) + "$"):
        AbelianGroup(1, torsion)


@pytest.mark.parametrize("rank", [True, False, 1.5, 2.0, "2", None, -1, [1]])
def test_abelian_group_free_rank_is_a_non_bool_int(rank):
    with pytest.raises(InvalidInput, match="free rank must be a non-negative integer"):
        AbelianGroup(rank)


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


def nonzero_rows(M):
    """The engine's form of a dense matrix: row -> {column: nonzero}."""
    return _sparse_rows(M)[2]


def sweep_matrices():
    """300 small seeded matrices, every other one of low rank."""
    rng = random.Random(5150)
    return [low_rank_matrix(rng) if k % 2 else random_matrix(rng) for k in range(300)]


def test_bareiss_modulus_is_a_multiple_of_the_last_factor():
    endings = set()
    for M in sweep_matrices():
        rows = nonzero_rows(M)
        rank, R = _bareiss_rank_modulus(rows)
        assert rows == nonzero_rows(M)  # the input is left as it was
        want = minor_gcd_smith(M)
        assert rank == len(want), (M, rank, want)
        if not rank:
            assert R == 0
            continue
        assert R > 0 and R % want[-1] == 0, (M, R, want)
        # the loop ends by running out of rows or columns, or on a zero block
        endings.add("exhausted" if rank == min(len(M), len(M[0])) else "zero block")
    assert endings == {"exhausted", "zero block"}
    # a zero block after one step, and out of rows
    assert _bareiss_rank_modulus(nonzero_rows([[2, 4], [4, 8]])) == (1, 2)
    assert _bareiss_rank_modulus(nonzero_rows([[2, 0], [0, 3]])) == (2, 6)
    assert _bareiss_rank_modulus({}) == (0, 0)
    # rows and columns with gaps, as the engine leaves them: [[0, 4], [6, 2]]
    # has factors (2, 12); the pivot is the 2, and -24 is left
    assert _bareiss_rank_modulus({3: {5: 4}, 7: {2: 6, 5: 2}}) == (2, 24)
    # the second row cancels to empty on the first step, and the third goes on
    rows = nonzero_rows([[2, 4, 0], [4, 8, 0], [0, 0, 3]])
    assert _bareiss_rank_modulus(rows) == (2, 6)
    assert rows == nonzero_rows([[2, 4, 0], [4, 8, 0], [0, 0, 3]])


@pytest.fixture
def stuck_cores(monkeypatch):
    """Copies of the cores of the engine's calls, each taken when its call
    first gets stuck over Z (no unit, content 1), before any Bezout step:
    the cores a finish with no Bezout step would sweep.  In call order."""
    seen, engines = [], []
    anchor = homology._bezout_anchor

    def recording(rows, cols):
        # a call keeps one rows dict, so a dict not met before is a new call
        if not any(rows is other for other in engines):
            engines.append(rows)
            seen.append({i: dict(row) for i, row in rows.items()})
        return anchor(rows, cols)

    monkeypatch.setattr(homology, "_bezout_anchor", recording)
    return seen


def finish_mod_sweep(core):
    """A stuck core's invariant factors the way a finish with no Bezout
    step and no prime split gets them: the engine over Z/R, R the sweep's
    multiple of the last factor, splitting R where it is stuck."""
    rank, R = _bareiss_rank_modulus(core)
    return homology._invariant_factors({i: dict(row) for i, row in core.items()}, R, rank)


def uncontracted_factors(g):
    """The engine's invariant factors of g's incidence rows as they are,
    with no chain contracted: the cores these leave are the sweep's and
    the coprime finish's test data."""
    return homology._invariant_factors(nonzero_rows(incidence_matrix(g)))


def test_the_sweep_matches_the_plain_sweep(stuck_cores):
    # the sweep visits only the rows its pivot column meets and brings the
    # others up to date on demand; the plain sweep rebuilds every row at
    # every step, and the two must agree on rank and R exactly
    for n in range(3, 11):
        uncontracted_factors(boundary_graph(generate_family("generic", n)))
    for n in range(5, 13):
        uncontracted_factors(boundary_graph(generate_family("near_pencil", n)))
    for n in range(5, 11):
        for seed in range(6):
            inc = incidence_from_lines(random_rational_lines(n, random.Random(seed)))
            uncontracted_factors(boundary_graph(inc))
    assert len(stuck_cores) >= 30 and max(map(len, stuck_cores)) >= 80
    cases = [nonzero_rows(M) for M in sweep_matrices()] + stuck_cores
    for rows in cases:
        want = plain_bareiss(rows)
        copy = {i: dict(row) for i, row in rows.items()}
        assert _bareiss_rank_modulus(rows) == want, rows
        assert rows == copy  # the input is left as it was


@pytest.mark.parametrize("rows, want", [
    # step 1 pivots on the 2 and leaves rows 1 and 2 as written; step 2
    # pivots in row 1, whose entries must first be doubled to 6 and 10,
    # and so must row 2's
    pytest.param({0: {0: 2}, 1: {1: 3, 2: 5}, 2: {1: 4, 2: 7}}, (3, 2), id="stale pivot row"),
    pytest.param({0: {0: 2}, 1: {1: 3}, 2: {2: 2}}, (3, 12), id="no pivot column meets a row"),
    # step 1 empties rows 1 and 2 and leaves rows 3 and 4 untouched
    pytest.param({0: {0: 2, 1: 4}, 1: {0: 4, 1: 8}, 2: {0: 6, 1: 12}, 3: {2: 3},
                  4: {2: 5, 3: 7}}, (3, 42), id="emptied and untouched rows"),
    # the last block is rows 2 and 0 brought up to date, -4 and -12; with
    # row 0 as written, 6, or with step 1's pivot, -2, the gcd would be 2
    pytest.param({0: {1: 6}, 1: {0: -2}, 2: {1: 2}}, (2, 4), id="R from the last block"),
    # at step 2 row 1, left as written at step 0, holds the least entry
    # but is the larger once brought up to date: 12 against row 2's -10
    pytest.param({0: {1: 5, 2: -2}, 1: {0: 6}, 2: {2: 2, 3: 6}}, (3, 60),
                 id="least compared up to date"),
])
def test_the_sweep_brings_rows_up_to_date_when_it_reads_them(rows, want):
    assert plain_bareiss(rows) == want
    assert _bareiss_rank_modulus(rows) == want


def test_a_step_costs_the_rows_its_pivot_column_meets():
    # on a diagonal no pivot column meets another row: the plain sweep
    # rescales every row at every step, this one writes no row at all
    rows = {k: {k: 2 + k % 2} for k in range(800)}
    want = (800, 6 ** 400)
    times = {}
    for sweep in (_bareiss_rank_modulus, plain_bareiss):
        best = math.inf
        for _ in range(2):
            start = time.perf_counter()
            assert sweep(rows) == want
            best = min(best, time.perf_counter() - start)
        times[sweep.__name__] = best
    assert 3 * times["_bareiss_rank_modulus"] < times["plain_bareiss"], times


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
        _, R = _bareiss_rank_modulus(nonzero_rows(M))
        if R > 1:
            coprime = any(math.gcd(v, R) == 1 for row in M for v in row if v)
            seen["units mod R" if coprime else "no unit mod R"] += 1
    assert min(seen.values()) >= 10, seen


def alternating_diagonal(n):
    """n isolated vertices with Euler numbers 2, 3, 2, 3, ...: a diagonal
    matrix with no unit and content 1, so all of it is a stuck core."""
    return PlumbingGraph(vertices=[v(f"x{k}", 2 + k % 2) for k in range(n)], edges=())


def test_a_stuck_core_costs_its_nonzeros_not_rows_times_columns():
    # the finish sweeps the core on its own sparse rows; a dense copy of an
    # n x n diagonal grows as n^2, 16x from n = 100 to 400
    peaks = []
    for n in (100, 400):
        g = alternating_diagonal(n)
        tracemalloc.start()
        try:
            assert homology_of_graph(g) == AbelianGroup(0, (6,) * (n // 2))
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] < 6 * peaks[0], peaks


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


def test_snf_coprime_split_matches_oracle(stuck_cores, splits):
    # the engine's cores, finished modulo the sweep's R, split R and then
    # its parts; R's primes are above 1000, so the engine itself finishes
    # the cores it cannot unstick by Bezout steps modulo that cofactor
    rng = random.Random(1013)
    split_matrices = nested = 0
    for _ in range(400):
        M = prime_product_matrix(rng)
        stuck_cores.clear()
        got = smith_normal_form(M).factors
        assert got == minor_gcd_smith(M), (M, got)
        splits.clear()
        for core in stuck_cores:
            assert tuple(finish_mod_sweep(core)) == minor_gcd_smith(dense(core)), core
        split_matrices += bool(splits)
        # every split after a matrix's first runs on a part of an earlier one
        nested += max(len(splits) - 1, 0)
    assert split_matrices >= 50 and nested >= 10, (split_matrices, nested)


@pytest.mark.parametrize("seed, group", [
    (1, AbelianGroup(39, (10,) * 22)),
    (2, AbelianGroup(38, (5, 5) + (10,) * 17)),
    (3, AbelianGroup(43, (5, 5) + (10,) * 22)),
])
def test_non_generic_boundaries_split_the_modulus(stuck_cores, splits, seed, group):
    # random arrangements of 10 lines whose raw incidence rows, with no
    # chain contracted, leave a core with no unit and content 1 modulo R,
    # once finished modulo the sweep's R with no Bezout step; the groups
    # are literals recorded from an engine that finished such cores by
    # Euclid steps instead
    inc = incidence_from_lines(random_rational_lines(10, random.Random(seed)))
    raw = boundary_graph(inc)
    assert homology_of_graph(raw) == group
    assert tuple(d for d in uncontracted_factors(raw) if d >= 2) == group.torsion
    cores = list(stuck_cores)
    wants = [homology._invariant_factors({i: dict(r) for i, r in c.items()}) for c in cores]
    splits.clear()
    for core, want in zip(cores, wants):
        assert finish_mod_sweep(core) == want
    assert splits
    assert homology_of_graph(boundary_graph(inc, reduce=True)) == group


@pytest.fixture
def moduli(monkeypatch):
    """The moduli of the engine's calls over Z/m, in call order."""
    seen = []
    engine = homology._invariant_factors

    def recording(rows, modulus=0, count=0):
        if modulus:
            seen.append(modulus)
        return engine(rows, modulus, count)

    monkeypatch.setattr(homology, "_invariant_factors", recording)
    return seen


P7, Q7 = 1000003, 1000033  # primes of seven digits


@pytest.mark.parametrize("M, want, runs", [
    # no unit and content 1; column 0 holds 2 and 3, whose gcd 1 one Bezout
    # step writes in the anchor row, and no modular run is needed
    pytest.param([[2, 3], [3, 2]], (1, 5), [], id="bezout"),
    # the column gcds are 3 and 2, so no Bezout step: the sweep's R is 114 = 2 * 3 * 19,
    # finished mod each prime, none of which divides a factor twice
    pytest.param([[6, 10], [15, 6]], (1, 114), [2, 3, 19], id="sweep"),
    # v_2(R) = 40: mod 2^k for k = 1, 2, 4, ..., 32 the factor is 2^k, so
    # the precision doubles up to the cap 2^40
    pytest.param([[2 ** 40, 0], [0, 3]], (1, 3 * 2 ** 40),
                 [2 ** k for k in (1, 2, 4, 8, 16, 32, 40)] + [3], id="precision"),
    # R = P7 * Q7 has no prime below 1000: one finish mod the cofactor,
    # which is stuck there and splits into its two primes
    pytest.param([[P7, 0], [0, Q7]], (1, P7 * Q7), [P7 * Q7, P7, Q7], id="cofactor"),
])
def test_the_stuck_branches_by_hand(moduli, splits, M, want, runs):
    assert minor_gcd_smith(M) == want
    assert smith_normal_form(M).factors == want
    assert moduli == runs
    assert splits == ([P7 * Q7] if P7 in runs else [])


def test_a_modular_run_leaves_the_row_dicts_it_was_given():
    # _local_factors hands each run a shallow copy of its core, so a run
    # over Z/q must write every row anew and never into the dicts it got
    cases = [
        ([[6, 10], [15, 6]], 114),          # a run mod each prime of 114
        ([[2 ** 40, 0], [0, 3]], 2 ** 40),  # the first row vanishes mod q
        ([[P7, 0], [0, Q7]], P7 * Q7),      # stuck mod q: split into P7 and Q7
    ] + [(M, q) for M in sweep_matrices()[:40] for q in (2, 8, 12, 30)]
    for M, q in cases:
        rows = nonzero_rows(M)
        given = list(rows.values())
        before = [dict(row) for row in given]
        homology._invariant_factors(rows, q, len(rows))
        assert given == before, (M, q)


def fibonacci(k):
    a, b = 0, 1
    for _ in range(k):
        a, b = b, a + b
    return a


def test_long_euclid_chains(moduli):
    # consecutive Fibonacci numbers give Euclid's longest chain for their
    # size, about k/2 steps with nearest quotients; 2^300 +- 1 give a short
    # chain of 300-bit rows.  Each matrix has no +-1 entry, content 1 and a
    # column of gcd 1, so the Bezout step alone finishes it
    cases = [[[fibonacci(k), 2 * fibonacci(k + 1)], [fibonacci(k + 1), 2 * fibonacci(k)]]
             for k in (50, 200, 1000, 3000)]
    cases.append([[2 ** 300 + 1, 6], [2 ** 300 - 1, 10]])
    for M in cases:
        (a, b), (c, d) = M
        assert 1 not in {abs(v) for v in (a, b, c, d)}
        assert math.gcd(a, b, c, d) == 1 and math.gcd(a, c) == 1
        assert smith_normal_form(M).factors == (1, abs(a * d - b * c))
    assert moduli == []


def valuation_matrix(rng):
    """A small matrix with no +-1 entry whose entries are +-products of
    powers of 2, 3 and 5, some of them large."""
    def entry():
        if rng.random() < 0.25:
            return 0
        v = 2 ** rng.choice((0, 1, 3, rng.randint(20, 45))) * 3 ** rng.randint(0, 3)
        return rng.choice((1, -1)) * v * 5 ** (v == 1 or rng.random() < 0.3)

    n, m = rng.randint(2, 4), rng.randint(2, 4)
    return [[entry() for _ in range(m)] for _ in range(n)]


def test_snf_large_valuations_match_oracle(stuck_cores, moduli):
    # cores with factors up to 2^135 take the Bezout step, or the per-prime
    # finish at a doubling precision; the plain finish mod R agrees
    rng = random.Random(4096)
    seen = {"bezout": 0, "sweep": 0, "precision": 0}
    for _ in range(300):
        M = valuation_matrix(rng)
        stuck_cores.clear()
        moduli.clear()
        want = minor_gcd_smith(M)
        assert smith_normal_form(M).factors == want, M
        runs = list(moduli)
        for core in stuck_cores:
            assert tuple(finish_mod_sweep(core)) == minor_gcd_smith(dense(core)), core
        seen["bezout"] += bool(stuck_cores) and not runs
        seen["sweep"] += bool(runs)
        seen["precision"] += any(q > 2 ** 16 and q & (q - 1) == 0 for q in runs)
    assert min(seen.values()) >= 10, seen


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


# -- string chains -----------------------------------------------------------

SHAPES = {"leaf chain", "loop chain", "chain between nodes", "adjacent nodes",
          "node-free path", "node-free cycle", "genus", "zero Euler in a chain"}


def string_plumbing(rng, longest, nodes):
    """A random closed simple plumbing graph of 1..``nodes`` nodes joined by
    strings of 1..``longest`` vertices, and the shapes of SHAPES it holds.
    Every node is topped up to degree 3 with leaf chains."""
    verts, edges, shapes = [], [], set()

    def vertex():
        verts.append(v(f"v{len(verts)}", rng.choice((-3, -2, -1, 0, 1, 2, 3)),
                       rng.choice((0, 0, 0, 1))))
        return verts[-1].id

    def strand(ends, k):
        """k new vertices strung between ends (None for a free end)."""
        ids = [vertex() for _ in range(k)]
        walk = [x for x in (ends[0], *ids, ends[1]) if x is not None]
        edges.extend(Edge(a, b, rng.choice((1, -1))) for a, b in zip(walk, walk[1:]))
        if ends != (None, None) and any(x.euler == 0 for x in verts[len(verts) - k:]):
            shapes.add("zero Euler in a chain")
        return walk

    hubs = [vertex() for _ in range(rng.randint(1, nodes))]
    degree = dict.fromkeys(hubs, 0)
    for a, b in zip(hubs, hubs[1:]):
        # one or two strands, at most one of them an edge
        for k in [rng.randint(0, longest)] + [rng.randint(1, longest)] * rng.randint(0, 1):
            strand((a, b), k)
            degree[a] += 1
            degree[b] += 1
            if k != 1:
                shapes.add("chain between nodes" if k else "adjacent nodes")
    for u in hubs:
        if rng.random() < 0.4:
            strand((u, u), rng.randint(2, max(2, longest)))
            degree[u] += 2
            shapes.add("loop chain")
        while degree[u] < 3 or rng.random() < 0.2:
            k = rng.randint(1, longest)
            strand((u, None), k)
            degree[u] += 1
            if k > 1:
                shapes.add("leaf chain")
    if rng.random() < 0.3:
        strand((None, None), rng.randint(1, longest))
        shapes.add("node-free path")
    if rng.random() < 0.3:
        walk = strand((None, None), rng.randint(3, max(3, longest)))
        edges.append(Edge(walk[-1], walk[0], rng.choice((1, -1))))
        shapes.add("node-free cycle")
    if any(x.genus for x in verts):
        shapes.add("genus")
    return PlumbingGraph(vertices=verts, edges=edges), shapes


def contracted_rows(g):
    """(units removed, rows left) of g's incidence rows after
    ``_contract_chains``, as ``homology_of_graph`` reads g."""
    euler, nbrs, _ = homology._read_graph(g)
    return homology._contract_chains(euler, nbrs)


def test_contracted_chains_keep_the_invariant_factors():
    # every chain row but the last is a unit pivot, so the engine on the
    # contracted rows, after the removed units, gives the raw rows' factors
    rng = random.Random(3571)
    seen = dict.fromkeys(SHAPES, 0)
    removed = 0
    for _ in range(300):
        g, shapes = string_plumbing(rng, longest=5, nodes=3)
        units, rows = contracted_rows(g)
        assert [1] * units + homology._invariant_factors(rows) == uncontracted_factors(g)
        assert homology_of_graph(g) == dense_homology(g)
        removed += units
        for s in shapes:
            seen[s] += 1
    assert min(seen.values()) >= 20 and removed >= 1000, (seen, removed)


def dense(rows):
    """The sparse rows as a dense matrix over the rows and columns they
    use; a row or column with no entry adds no invariant factor."""
    cols = sorted({c for row in rows.values() for c in row})
    return [[row.get(c, 0) for c in cols] for _, row in sorted(rows.items())]


NODE_FREE = "node-free path and cycle, isolated vertex"

# the shapes of SHAPES on at most 7 vertices, as edge lists; a and d are
# the nodes, and the Euler numbers, genera and signs are drawn per case
SMALL_SHAPES = {
    "leaf chains": ["ab", "bc", "ad", "de", "af"],
    "loop chain": ["ab", "bc", "ca", "ad"],
    "chain between adjacent nodes": ["ab", "bc", "cd", "ad", "ae", "df"],
    "two chains between nodes": ["ab", "bc", "cd", "ae", "ed", "af", "dg"],
    NODE_FREE: ["ab", "bc", "de", "ef", "fd", "g"],
}


def test_contracted_chains_match_minor_gcd_oracle():
    # the oracle on the raw matrix against the oracle, and the engine, on
    # the contracted one; components with no node keep their rows as they are
    rng = random.Random(1597)
    removed = dict.fromkeys(SMALL_SHAPES, 0)
    for shape, pairs in SMALL_SHAPES.items():
        ids = sorted(set("".join(pairs)))
        for _ in range(20):
            g = closed_graph(
                [(x, rng.choice((-3, -2, -1, 0, 1, 2, 3)), rng.choice((0, 0, 1))) for x in ids],
                [(a, b, rng.choice((1, -1))) for a, b in (p for p in pairs if len(p) == 2)],
            )
            units, rows = contracted_rows(g)
            if shape == NODE_FREE:
                assert rows == nonzero_rows(incidence_matrix(g))
            want = minor_gcd_smith(incidence_matrix(g))
            assert (1,) * units + minor_gcd_smith(dense(rows)) == want, (shape, g)
            assert (1,) * units + tuple(homology._invariant_factors(rows)) == want, (shape, g)
            assert homology_of_graph(g) == dense_homology(g)
            removed[shape] += units
    assert [s for s, k in removed.items() if not k] == [NODE_FREE]


def presentations(g, rng):
    """Copies of g with its vertices permuted, its edges permuted with
    their ends swapped at random, and both."""
    verts = list(g.vertices)
    rng.shuffle(verts)
    flipped = [Edge(e.b, e.a, e.sign, e.edge_type, e.arrow) if rng.random() < 0.5 else e
               for e in g.edges]
    rng.shuffle(flipped)
    return [PlumbingGraph(tuple(verts), g.edges), PlumbingGraph(g.vertices, tuple(flipped)),
            PlumbingGraph(tuple(verts), tuple(flipped))]


def test_homology_does_not_depend_on_vertex_or_edge_order(stuck_cores):
    # the rows follow the graph's own vertex order, which changes the
    # elimination path but never the group
    incs = [generate_family(kind, n) for kind, ns in (("generic", range(3, 8)),
                                                      ("pencil", range(3, 8)),
                                                      ("near_pencil", range(4, 9)))
            for n in ns]
    incs += [incidence_from_lines(random_rational_lines(n, random.Random(seed)))
             for n in range(8, 13) for seed in range(5)]
    rng = random.Random(1919)
    for inc in incs:
        for reduce in (False, True):
            g = boundary_graph(inc, reduce=reduce)
            want = homology_of_graph(g)
            for other in presentations(g, rng):
                assert homology_of_graph(other) == want, (inc, reduce)
    assert len(stuck_cores) >= 60  # random raw and reduced graphs reach the finish


def test_incidence_matrix_rows_follow_the_graph_vertex_order():
    g = boundary_graph(generate_family("near_pencil", 5))
    g = PlumbingGraph(g.vertices[::-1], g.edges)
    assert g.ids != g.canonical().ids
    A = incidence_matrix(g)
    for k, x in enumerate(g.vertices):
        assert A[k][k] == x.euler
    ids = g.ids
    assert {(ids[i], ids[j], A[i][j]) for i in range(len(A)) for j in range(len(A))
            if i != j and A[i][j]} == {t for e in g.edges
                                        for t in ((e.a, e.b, e.sign), (e.b, e.a, e.sign))}


def test_raw_family_graphs_leave_no_stuck_core(stuck_cores):
    # with its chains contracted, a raw generic or near-pencil graph is
    # finished by unit pivots and content divisions alone
    for n in range(3, 13):
        homology_of_graph(boundary_graph(generate_family("generic", n)))
        homology_of_graph(boundary_graph(generate_family("near_pencil", n)))
    assert stuck_cores == []


def test_a_leaf_chain_leaves_its_continuants():
    # a - b - c with Euler numbers -1, -2, -2 and + edges, a topped up to a
    # node by the leaves d and e: row b solves c = 2b - a, and row c, b - 2c,
    # becomes 2a - 3b, the continuants of the string's 3/2
    g = closed_graph(
        [("a", -1, 0), ("b", -2, 0), ("c", -2, 0), ("d", -2, 0), ("e", -3, 0)],
        [("a", "b", 1), ("b", "c", 1), ("a", "d", 1), ("a", "e", -1)],
    )
    assert contracted_rows(g) == (1, {0: {0: -1, 1: 1, 3: 1, 4: -1}, 2: {0: 2, 1: -3},
                                      3: {3: -2, 0: 1}, 4: {4: -3, 0: -1}})


def test_a_double_point_string_becomes_one_unit_coupled_vertex():
    # u - y_1 - ... - y_k - w, Euler -2 inside and + edges, u and w topped
    # up to nodes by leaves: x_i = i y - (i-1) u, so R = k u - (k+1) y + w
    # and W holds -(k-1) at u and k at y.  The row step W += R (t = 1)
    # leaves W -1 at y and 1 at u, and the column step col_u += col_y
    # (sigma = 1) clears that 1, leaving one vertex with unit couplings
    for k in range(2, 7):
        ids = ["u", "a", "b"] + [f"y{i}" for i in range(1, k + 1)] + ["w", "c", "d"]
        euler = {"u": -1, "w": -3}  # -2 elsewhere
        path = ["u"] + ids[3:3 + k] + ["w"]
        g = closed_graph([(x, euler.get(x, -2), 0) for x in ids],
                         [(x, z, 1) for x, z in zip(path, path[1:])]
                         + [("u", "a", 1), ("u", "b", 1), ("w", "c", 1), ("w", "d", 1)])
        u, y, last, w, c, d = 0, 3, 2 + k, 3 + k, 4 + k, 5 + k
        units, rows = contracted_rows(g)
        assert units == k - 1
        assert rows[last] == {u: -1, y: -(k + 1), w: 1}
        assert rows[w] == {w: -2, c: 1, d: 1, y: -1}
        assert rows[u] == {1: 1, 2: 1, y: 1}  # Euler -1 + sigma * 1 = 0 at u
        assert [1] * units + homology._invariant_factors(rows) == uncontracted_factors(g)


def test_compact_chains_cut_the_bezout_steps(monkeypatch):
    # raw random n=30 seed 4: with its chains only contracted, the engine
    # took 68 Bezout steps; with the double-point strings made compact, 16
    calls = []
    anchor = homology._bezout_anchor

    def counting(rows, cols):
        calls.append(len(rows))
        return anchor(rows, cols)

    monkeypatch.setattr(homology, "_bezout_anchor", counting)
    homology_of_graph(boundary_graph(incidence_from_lines(
        random_rational_lines(30, random.Random(4)))))
    assert 0 < len(calls) <= 30, len(calls)


PINNED = os.path.join(os.path.dirname(os.path.abspath(__file__)), "h1_groups.json")


def pinned_arrangement(name):
    """The arrangement of a name in ``h1_groups.json``: kind/n, or
    random/n/seed for ``random_rational_lines(n, Random(seed))``."""
    kind, *args = name.split("/")
    if kind == "random":
        n, seed = map(int, args)
        return incidence_from_lines(random_rational_lines(n, random.Random(seed)))
    return generate_family(kind, int(args[0]))


def test_h1_groups_stay_as_pinned():
    # generic 2..14, near-pencil 3..30, pencil 2..40 and random n 5..14 with
    # seeds 0..5, raw and reduced: 280 groups, recorded from a front end that
    # contracted chains without making any compact
    with open(PINNED) as fh:
        pinned = json.load(fh)
    got = []
    for name, want in pinned.items():
        inc = pinned_arrangement(name)
        for reduce in (False, True):
            got.append(str(homology_of_graph(boundary_graph(inc, reduce=reduce))))
            assert got[-1] == want, (name, reduce)
    assert len(got) == 280
    digest = hashlib.sha256("\n".join(got).encode()).hexdigest()
    assert digest == "d7c8b6f6f7d112cdeaad90795306fd4a6dfb3ea66b3916e0ffb28c207e6cb915"


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


NON_SIMPLE = {
    "loop": ([("v0", -1, 0)], [("v0", "v0", 1)]),
    "loop at an Euler-0 vertex": ([("v0", 0, 0), ("v1", 0, 0)],
                                  [("v0", "v1", 1), ("v1", "v1", -1)]),
    "parallel pair": ([("v0", -1, 0), ("v1", -2, 0)], [("v0", "v1", 1), ("v0", "v1", 1)]),
    "reversed parallel pair": ([("v0", -1, 0), ("v1", -2, 0)],
                               [("v0", "v1", 1), ("v1", "v0", -1)]),
    # rows of Euler-0 vertices are made by their first edge
    "parallel pair at Euler 0": ([("v0", 0, 0), ("v1", 0, 0), ("v2", -1, 0)],
                                 [("v2", "v0", 1), ("v0", "v1", 1), ("v1", "v0", 1)]),
}


@pytest.mark.parametrize("shape", NON_SIMPLE)
def test_loops_and_parallel_pairs_are_not_simple(shape):
    g = closed_graph(*NON_SIMPLE[shape])
    for route in (incidence_matrix, homology_of_graph):
        with pytest.raises(NonSimpleGraph):
            route(g)


def faulty_graph(rng):
    """A small graph that may have arrowheads, vertices with no Euler
    number, loops and parallel pairs, any of them at once."""
    k = rng.randint(1, 6)
    verts = [Vertex(id=f"n{i}", genus=rng.choice((0, 0, 1)),
                    euler=rng.choice((None, -2, -1, -1, 0, 0, 1, 2)))
             for i in range(k)]
    edges = [Edge(f"n{rng.randrange(k)}", f"n{rng.randrange(k)}", rng.choice((1, -1)))
             for _ in range(rng.randint(0, k + 1))]
    for h in range(rng.choice((0, 0, 0, 1, 2))):
        verts.append(Vertex(id=f"a{h}", kind="arrowhead"))
        edges.append(Edge(f"n{rng.randrange(k)}", f"a{h}", arrow=True))
    rng.shuffle(verts)
    rng.shuffle(edges)
    return PlumbingGraph(vertices=verts, edges=edges)


def test_front_end_raises_the_first_fault_class():
    # arrowheads, then a missing Euler number, then a loop or parallel
    # pair, however many of them a graph has; a graph with none gets the
    # dense route's group; b_1 is the component count's, arrowheads or not
    rng = random.Random(8191)
    seen = {}
    for _ in range(1500):
        g = faulty_graph(rng)
        want = front_end_error(g)
        faults = (any(x.kind == "arrowhead" for x in g.vertices),
                  any(x.euler is None and x.kind != "arrowhead" for x in g.vertices),
                  not g.is_simple())
        seen[faults] = seen.get(faults, 0) + 1
        assert first_betti_of_graph(g) == component_count_betti(g)
        if want is None:
            assert homology_of_graph(g) == dense_homology(g)
            continue
        for route in (incidence_matrix, homology_of_graph):
            with pytest.raises(MFBoundaryError) as caught:
                route(g)
            assert type(caught.value) is want, (g, caught.value)
        if want is MissingEuler:
            first = next(x for x in g.vertices if x.euler is None)
            assert str(caught.value) == f"vertex {first.id} has no Euler number"
    # every mix of the three faults, all three at once included
    assert len(seen) == 8 and min(seen.values()) >= 20, seen


def test_first_betti_is_the_component_count():
    rng = random.Random(2718)
    cycles = 0
    for _ in range(300):
        g, shapes = string_plumbing(rng, longest=5, nodes=3)
        assert first_betti_of_graph(g) == component_count_betti(g)
        cycles += "node-free cycle" in shapes
    assert cycles >= 50, cycles


def test_snf_oracle_tests_pass_under_python_O():
    # python -O strips assert statements; the engine's invariant checks,
    # the graph checks of incremental edits and of the constructors, the
    # guard on graphs superseded by in-place edits, and the homology front
    # end's checks are explicit raises and must still hold in an optimised
    # run
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
        "tests/test_homology.py::test_the_stuck_branches_by_hand[bezout]",
        "tests/test_homology.py::test_the_stuck_branches_by_hand[sweep]",
        "tests/test_homology.py::test_the_stuck_branches_by_hand[precision]",
        "tests/test_homology.py::test_the_stuck_branches_by_hand[cofactor]",
        "tests/test_homology.py::test_snf_large_valuations_match_oracle",
        "tests/test_homology.py::test_a_modular_run_leaves_the_row_dicts_it_was_given",
        "tests/test_homology.py::test_long_euclid_chains",
        "tests/test_homology.py::test_bareiss_modulus_is_a_multiple_of_the_last_factor",
        "tests/test_homology.py::test_the_sweep_matches_the_plain_sweep",
        "tests/test_homology.py::test_contracted_chains_match_minor_gcd_oracle",
        "tests/test_homology.py::test_a_double_point_string_becomes_one_unit_coupled_vertex",
        "tests/test_homology.py::test_compact_chains_cut_the_bezout_steps",
        "tests/test_homology.py::test_h1_groups_stay_as_pinned",
        "tests/test_acceptance.py::test_criterion_11_snf_oracle",
        "tests/test_graph_index.py::test_edits_reject_what_a_rebuild_rejects",
        "tests/test_graph_index.py::test_a_move_in_a_script_is_the_move_on_a_persistent_graph",
        "tests/test_graph_index.py::test_a_graph_superseded_by_an_in_place_edit_raises_when_read",
        "tests/test_graph_core.py::test_graph_validation",
        "tests/test_graph_core.py::test_arrowhead_degree_one",
        "tests/test_graph_core.py::test_constructors_raise_or_build_what_the_full_checks_give[Vertex]",
        "tests/test_graph_core.py::test_constructors_raise_or_build_what_the_full_checks_give[Edge]",
        "tests/test_graph_core.py::test_order_key_is_the_regex_chain_key",
        "tests/test_homology.py::test_front_end_raises_the_first_fault_class",
        "tests/test_homology.py::test_homology_does_not_depend_on_vertex_or_edge_order",
        "tests/test_homology.py::test_incidence_matrix_rows_follow_the_graph_vertex_order",
        "tests/test_graph_core.py::test_an_unhashable_edge_end_is_an_unknown_vertex[list]",
        "tests/test_graph_core.py::test_an_unhashable_edge_end_is_an_unknown_vertex[dict]",
        "tests/test_graph_core.py::test_an_unhashable_edge_end_is_an_unknown_vertex[tuple]",
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

    # the error every other command gives for one line
    with pytest.raises(InvalidSize, match=r"^need at least two lines, got n=1$"):
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
    assert list(d) == ["n", "betti_matches", "flat_hypothesis", "complement_euler",
                       "flat_prediction_ok", "orders_divide_n", "torsion_free", "pencil_like",
                       "near_pencil_like", "torsion_free_iff", "h1", "rank", "torsion",
                       "all_hold"]
    assert d["h1"] == "Z^6 (+) Z_4"
    assert d["torsion"] == [4]
    assert d["all_hold"] is True
    assert d["n"] == 4


ERRORS = [
    (lambda: smith_normal_form([[1, 2], 3]), InvalidInput, "matrix rows must be lists"),
]


@pytest.mark.parametrize("call,cls,message", ERRORS, ids=range(len(ERRORS)))
def test_error_branches_raise_their_class_and_message(call, cls, message):
    with pytest.raises(MFBoundaryError) as caught:
        call()
    assert type(caught.value) is cls and str(caught.value) == message
