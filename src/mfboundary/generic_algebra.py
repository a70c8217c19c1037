"""Closed-form algebra for boundaries of generic arrangements.

The compact plumbing graph of a generic n-line arrangement has n line
vertices of Euler number -1 and one vertex of Euler number -n per pair of
lines, the pair vertex joined to its smaller line by a - edge and to its
larger line by a + edge.  Its intersection matrix is the block matrix

    A_n = [ -E_n     -X_n^T ]
          [ -X_n   -n E_{n(n-1)/2} ]

where the pair-by-line matrix X_n has a row per pair (i, j), i < j, in
lexicographic order, with +1 in column i and -1 in column j, defined
inductively by X_2 = (1 -1) and

    X_n = [ ones   -E_{n-1} ]
          [ zeros   X_{n-1} ].

Everything here is exact integer arithmetic on sparse rows, row -> {column:
value} with zeros dropped as in the Smith form engine; the public builders
render dense lists.  The identities and the Smith normal form
E_{2n-2} (+) n*E_{(n-2)(n-3)/2} (+) 0 feed the closed-form homology answer.
"""

from __future__ import annotations

from .errors import InvalidSize
from .homology import AbelianGroup

Matrix = list[list[int]]
Rows = dict[int, dict[int, int]]


def _sum(*terms: tuple[int, Rows]) -> Rows:
    """The sum of s * M over the (s, M) terms."""
    acc: Rows = {}
    for s, M in terms:
        for r, row in M.items():
            dst = acc.setdefault(r, {})
            for c, v in row.items():
                dst[c] = dst.get(c, 0) + s * v
    return {r: kept for r, row in acc.items() if (kept := {c: v for c, v in row.items() if v})}


def _diag(k: int, s: int) -> Rows:
    return {i: {i: s} for i in range(k)}


def _t(M: Rows) -> Rows:
    out: Rows = {}
    for r, row in M.items():
        for c, v in row.items():
            out.setdefault(c, {})[r] = v
    return out


def _mul(A: Rows, B: Rows) -> Rows:
    # row r of A B is the sum of a * (row k of B) over the entries a = A[r][k]
    return _sum(*((a, {r: B[k]}) for r, row in A.items() for k, a in row.items() if k in B))


def _blocks(h: int, w: int, tl: Rows, tr: Rows, bl: Rows, br: Rows) -> Rows:
    """[[tl, tr], [bl, br]] with tl h rows by w columns."""
    out: Rows = {}
    for block, dr, dc in ((tl, 0, 0), (tr, 0, w), (bl, h, 0), (br, h, w)):
        for r, row in block.items():
            out.setdefault(r + dr, {}).update((c + dc, v) for c, v in row.items())
    return out


def _dense(rows: Rows, height: int, width: int) -> Matrix:
    return [[rows.get(r, {}).get(c, 0) for c in range(width)] for r in range(height)]


def _x_rows(n: int) -> Rows:
    """X_n by the inductive block definition, from X_2 up."""
    if n < 2:
        raise InvalidSize(f"X_n needs n >= 2, got {n}")
    X = {0: {0: 1, 1: -1}}
    for m in range(3, n + 1):
        X = _blocks(m - 1, 1, {r: {0: 1} for r in range(m - 1)}, _diag(m - 1, -1), {}, X)
    return X


def build_Xn(n: int) -> Matrix:
    """The pair-by-line matrix, built by the inductive block definition."""
    return _dense(_x_rows(n), n * (n - 1) // 2, n)


def build_Bn(n: int) -> Matrix:
    """B_n = n E - X_n X_n^T, the pair-pair Gram complement."""
    X = _x_rows(n)
    k = len(X)
    return _dense(_sum((n, _diag(k, 1)), (-1, _mul(X, _t(X)))), k, k)


def build_An(n: int) -> Matrix:
    """Intersection matrix of the compact generic boundary graph."""
    if n < 2:
        raise InvalidSize(f"A_n needs n >= 2, got {n}")
    X = _x_rows(n)
    k = len(X)
    A = _blocks(n, n, _diag(n, -1), _sum((-1, _t(X))), _sum((-1, X)), _diag(k, -n))
    return _dense(A, n + k, n + k)


def check_lemma_identities(n: int) -> dict[str, bool]:
    """The four block identities used to diagonalize A_n:

      (1) X_n X_n^T has the block form [[J + E, -X'^T], [-X', X' X'^T]]
          with X' = X_{n-1};
      (2) X_n^T X_n = n E - J;
      (3) B_n has the block form [[X'^T X', X'^T], [X', n E - X' X'^T]];
      (4) B_n X_n = 0, and (n E - X' X'^T) X' = X'.
    """
    if n < 3:
        raise InvalidSize(f"lemma identities need n >= 3, got {n}")
    X, Xp = _x_rows(n), _x_rows(n - 1)
    Xt, Xpt = _t(X), _t(Xp)
    gram, gram_p = _mul(X, Xt), _mul(Xp, Xpt)
    B = _sum((n, _diag(len(X), 1)), (-1, gram))
    Bp = _sum((n, _diag(len(Xp), 1)), (-1, gram_p))  # n E - X' X'^T
    h = n - 1
    j_plus_e = {a: {b: 1 + (a == b) for b in range(h)} for a in range(h)}
    # n E - J has n-1 on the diagonal and -1 off it
    n_e_minus_j = {a: {b: n - 1 if a == b else -1 for b in range(n)} for a in range(n)}
    return {
        "gram_blocks": gram == _blocks(h, h, j_plus_e, _sum((-1, Xpt)), _sum((-1, Xp)), gram_p),
        "normal_equations": _mul(Xt, X) == n_e_minus_j,
        "complement_blocks": B == _blocks(h, h, _mul(Xpt, Xp), Xpt, Xp, Bp),
        "annihilation": _mul(B, X) == {} and _mul(Bp, Xp) == Xp,
    }


def expected_An_factors(n: int) -> tuple[tuple[int, ...], int]:
    """(invariant factors, corank) of A_n: 2n-2 ones, (n-2)(n-3)/2 copies
    of n, and n-1 zero columns."""
    if n < 2:
        raise InvalidSize(f"need n >= 2, got {n}")
    ones = 2 * n - 2
    ns = (n - 2) * (n - 3) // 2
    size = n + n * (n - 1) // 2
    return (1,) * ones + (n,) * ns, size - ones - ns


def generic_h1_closed_form(n: int) -> AbelianGroup:
    """H_1 of the boundary for a generic n-line arrangement:
    Z^(n(n-1)/2) (+) (Z_n)^((n-2)(n-3)/2)."""
    if n < 2:
        raise InvalidSize(f"need n >= 2, got {n}")
    return AbelianGroup.cyclic_powers(n * (n - 1) // 2, n, (n - 2) * (n - 3) // 2)
