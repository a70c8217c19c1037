"""Closed-form generic-arrangement algebra: the inductive pair-by-line
matrices, the block identities behind the diagonalization, and agreement
between the closed-form answer and the full pipeline."""

import pytest

from mfboundary import generic_algebra
from mfboundary.arrangement import generate_family
from mfboundary.errors import InvalidSize
from mfboundary.generic_algebra import (
    An_rows,
    build_An,
    build_Bn,
    build_Xn,
    check_lemma_identities,
    expected_An_factors,
    generic_h1_closed_form,
)
from mfboundary.homology import homology_of_graph, smith_form_of_rows, smith_normal_form
from mfboundary.pipeline import boundary_graph
from oracles import dense_An, dense_Bn, dense_lemma_identities, dense_Xn, matmul, transpose

X3 = [
    [1, -1, 0],
    [1, 0, -1],
    [0, 1, -1],
]

X4 = [
    [1, -1, 0, 0],
    [1, 0, -1, 0],
    [1, 0, 0, -1],
    [0, 1, -1, 0],
    [0, 1, 0, -1],
    [0, 0, 1, -1],
]

A2 = [
    [-1, 0, -1],
    [0, -1, 1],
    [-1, 1, -2],
]

A3 = [
    [-1, 0, 0, -1, -1, 0],
    [0, -1, 0, 1, 0, -1],
    [0, 0, -1, 0, 1, 1],
    [-1, 1, 0, -3, 0, 0],
    [-1, 0, 1, 0, -3, 0],
    [0, -1, 1, 0, 0, -3],
]

A4 = [
    [-1, 0, 0, 0, -1, -1, -1, 0, 0, 0],
    [0, -1, 0, 0, 1, 0, 0, -1, -1, 0],
    [0, 0, -1, 0, 0, 1, 0, 1, 0, -1],
    [0, 0, 0, -1, 0, 0, 1, 0, 1, 1],
    [-1, 1, 0, 0, -4, 0, 0, 0, 0, 0],
    [-1, 0, 1, 0, 0, -4, 0, 0, 0, 0],
    [-1, 0, 0, 1, 0, 0, -4, 0, 0, 0],
    [0, -1, 1, 0, 0, 0, 0, -4, 0, 0],
    [0, -1, 0, 1, 0, 0, 0, 0, -4, 0],
    [0, 0, -1, 1, 0, 0, 0, 0, 0, -4],
]


def test_Xn_literals():
    assert build_Xn(2) == [[1, -1]]
    assert build_Xn(3) == X3
    assert build_Xn(4) == X4


def test_An_literals():
    assert build_An(2) == A2
    assert build_An(3) == A3
    assert build_An(4) == A4


@pytest.mark.parametrize("n", range(2, 9))
def test_Xn_row_structure(n):
    X = build_Xn(n)
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    assert len(X) == len(pairs) == n * (n - 1) // 2
    for row, (i, j) in zip(X, pairs):
        expect = [0] * n
        expect[i] = 1
        expect[j] = -1
        assert row == expect


@pytest.mark.parametrize("n", range(2, 8))
def test_An_shape_and_blocks(n):
    A = build_An(n)
    k = n * (n - 1) // 2
    assert len(A) == len(A[0]) == n + k
    assert A == transpose(A)
    for i in range(n):
        assert A[i][i] == -1
    for i in range(n, n + k):
        assert A[i][i] == -n
    # pair block off-diagonal is zero; line-pair couplings are signs
    for i in range(n, n + k):
        for j in range(n, n + k):
            if i != j:
                assert A[i][j] == 0
    for i in range(n):
        for j in range(n, n + k):
            assert A[i][j] in (-1, 0, 1)


@pytest.mark.parametrize("n", range(2, 9))
def test_Bn_annihilates_Xn(n):
    B = build_Bn(n)
    X = build_Xn(n)
    k = len(X)
    assert matmul(B, X) == [[0] * n for _ in range(k)]


def test_size_validation():
    for bad in (build_Xn, build_Bn, An_rows, build_An, expected_An_factors,
                generic_h1_closed_form):
        with pytest.raises(InvalidSize):
            bad(1)
    with pytest.raises(InvalidSize):
        check_lemma_identities(2)


@pytest.mark.parametrize("n", range(2, 17))
def test_sparse_route_matches_the_dense_oracle(n):
    assert build_Xn(n) == dense_Xn(n)
    assert build_Bn(n) == dense_Bn(n)
    assert build_An(n) == dense_An(n)
    assert An_rows(n) == {i: {j: v for j, v in enumerate(row) if v}
                          for i, row in enumerate(dense_An(n))}
    if n >= 3:
        got, want = check_lemma_identities(n), dense_lemma_identities(n)
        assert got == want and list(got) == list(want)
        assert all(type(v) is bool for v in got.values())


@pytest.mark.parametrize("n", range(3, 13))
def test_Xn_is_its_inductive_block_form(n):
    # X_n = [[1, -E], [0, X_{n-1}]], written out densely
    top = [[1] + [-1 if a == b else 0 for b in range(n - 1)] for a in range(n - 1)]
    bottom = [[0] + row for row in build_Xn(n - 1)]
    assert build_Xn(n) == top + bottom


@pytest.mark.parametrize("level", [0, 1], ids=["X_n", "X_n-1"])
def test_lemma_check_sees_every_flipped_sign(monkeypatch, level):
    # one sign of X_n (or of X_{n-1}) flipped at a time: some identity fails
    n = 5
    real = generic_algebra._x_rows
    entries = [(r, c) for r, row in real(n - level).items() for c in row]
    assert len(entries) == 2 * len(real(n - level))
    for r, c in entries:
        def flipped(m, r=r, c=c):
            X = real(m)
            if m == n - level:
                X[r] = {**X[r], c: -X[r][c]}
            return X

        monkeypatch.setattr(generic_algebra, "_x_rows", flipped)
        assert False in check_lemma_identities(n).values(), (r, c)
    monkeypatch.undo()
    assert all(check_lemma_identities(n).values())


@pytest.mark.parametrize("n", range(3, 13))
def test_lemma_identities(n):
    result = check_lemma_identities(n)
    assert set(result) == {
        "gram_blocks",
        "normal_equations",
        "complement_blocks",
        "annihilation",
    }
    assert all(result.values()), result


@pytest.mark.parametrize("n", range(2, 9))
def test_An_smith_form_closed_form(n):
    factors, corank = expected_An_factors(n)
    snf = smith_normal_form(build_An(n))
    assert snf.factors == factors
    assert snf.corank == corank
    assert smith_form_of_rows(snf.rows, snf.cols, An_rows(n)) == snf


def test_An_smith_form_small_literals():
    assert smith_normal_form(A2).factors == (1, 1)
    assert smith_normal_form(A2).corank == 1
    assert smith_normal_form(A3).factors == (1, 1, 1, 1)
    assert smith_normal_form(A3).corank == 2
    assert smith_normal_form(A4).factors == (1, 1, 1, 1, 1, 1, 4)
    assert smith_normal_form(A4).corank == 3


@pytest.mark.parametrize("n", range(2, 7))
def test_closed_form_matches_pipeline(n):
    inc = generate_family("generic", n)
    got = homology_of_graph(boundary_graph(inc))
    assert got == generic_h1_closed_form(n)


def test_closed_form_values():
    g = generic_h1_closed_form(5)
    assert g.free_rank == 10
    assert g.torsion == (5, 5, 5)
    g = generic_h1_closed_form(3)
    assert g.free_rank == 3
    assert g.torsion == ()
