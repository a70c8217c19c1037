"""Independent cross-checks used by the test suite.

Everything in this module is deliberately computed by a different route
than the package code: invariant factors straight from determinantal
divisors with cofactor-expansion determinants, congruences by brute
force search, continued fractions evaluated with Fraction arithmetic.
Slow is fine here; these only run on small inputs.
"""

import math
import random
import re
from collections.abc import Iterable
from fractions import Fraction
from itertools import combinations

from mfboundary.errors import InvalidInput, InvalidSize, MissingEuler, NonSimpleGraph
from mfboundary.graph_core import Edge, PlumbingGraph, Vertex
from mfboundary.record import replace
from mfboundary.reduction import chain_survivor


def det_cofactor(M, rows, cols):
    """Determinant of the submatrix M[rows][cols] by first-row expansion."""
    if len(rows) == 1:
        return M[rows[0]][cols[0]]
    r0 = rows[0]
    rest = rows[1:]
    total = 0
    sign = 1
    for t, c in enumerate(cols):
        v = M[r0][c]
        if v:
            total += sign * v * det_cofactor(M, rest, cols[:t] + cols[t + 1:])
        sign = -sign
    return total


def minor_gcd_smith(M):
    """Invariant factors from the definition d_k = D_k / D_{k-1}, where
    D_k is the gcd of all k x k minors.  Exponential, so keep M small."""
    n, m = len(M), len(M[0]) if M else 0
    prev = 1
    out = []
    for k in range(1, min(n, m) + 1):
        g = 0
        for rs in combinations(range(n), k):
            for cs in combinations(range(m), k):
                g = math.gcd(g, det_cofactor(M, tuple(rs), tuple(cs)))
                # no early break on g == 1: keep the oracle dumb and honest
        if g == 0:
            break
        out.append(g // prev)
        prev = g
    return tuple(out)


def rational_rank(M):
    """Rank over Q by fraction Gaussian elimination."""
    A = [[Fraction(v) for v in row] for row in M]
    rank = 0
    ncols = len(A[0]) if A else 0
    for c in range(ncols):
        piv = next((r for r in range(rank, len(A)) if A[r][c]), None)
        if piv is None:
            continue
        A[rank], A[piv] = A[piv], A[rank]
        prow = A[rank]
        for r in range(len(A)):
            if r != rank and A[r][c]:
                f = A[r][c] / prow[c]
                A[r] = [a - f * b for a, b in zip(A[r], prow)]
        rank += 1
    return rank


def smallest_lambda(a, b, c):
    """Brute-force search for the unique 0 <= lam < c' solving the string
    congruence c' | b + lam * a' with a' = a/(a,c), c' = c/(a,c)."""
    d = math.gcd(a, c)
    ap, cp = a // d, c // d
    sols = [lam for lam in range(cp) if (b + lam * ap) % cp == 0]
    assert len(sols) == 1, (a, b, c, sols)
    return sols[0]


def cf_value(terms):
    """Value of the negative continued fraction [k1, k2, ...]."""
    x = Fraction(terms[-1])
    for k in reversed(terms[:-1]):
        x = k - 1 / x
    return x


def incidence_fault(n, points):
    """The first fault of n lines and these points, as IncidenceData words
    it, or None: the points in sorted order, each line pair checked against
    a dict of all pairs seen.  Quadratic memory, so keep n small."""
    points = sorted(tuple(sorted(p)) for p in points)
    seen = {}
    for idx, pt in enumerate(points):
        if len(pt) < 2:
            return f"point {idx} has fewer than two lines"
        if len(set(pt)) != len(pt):
            return f"point {idx} repeats a line"
        for i in pt:
            if not 0 <= i < n:
                return f"point {idx} references line {i}, out of range"
        for pair in combinations(pt, 2):
            if pair in seen:
                return f"line pair {pair} appears on points {seen[pair]} and {idx}"
            seen[pair] = idx
    for pair in combinations(range(n), 2):
        if pair not in seen:
            return f"line pair {pair} meets no point"
    return None


def random_matrix(rng: random.Random, max_size: int = 6, bound: int = 9):
    """Random integer matrix; sizes are biased small so the exhaustive
    minor-gcd oracle stays affordable."""
    sizes = [1, 1, 2, 2, 2, 3, 3, 3, 4, 4, 5, 6]
    n = rng.choice(sizes)
    m = rng.choice(sizes)
    return [[rng.randint(-bound, bound) for _ in range(m)] for _ in range(n)]


def random_plumbing(rng: random.Random, max_vertices: int = 7) -> PlumbingGraph:
    """Random closed simple plumbing graph with all Euler numbers set.

    Mix of structures: a random spanning forest plus a few extra edges,
    occasional 0-framed or +-1 vertices so every calculus move finds
    targets somewhere in the stream.
    """
    k = rng.randint(1, max_vertices)
    verts = []
    for i in range(k):
        e = rng.choice([-3, -2, -1, -1, 0, 0, 1, 1, 2, 2, 3])
        g = rng.choice([0, 0, 0, 0, 1, 1, 2])
        verts.append(Vertex(id=f"n{i}", genus=g, euler=e))
    pairs = [(i, j) for i in range(k) for j in range(i + 1, k)]
    rng.shuffle(pairs)
    chosen = set()
    # random forest over a random subset of the vertices, then extras
    parent = list(range(k))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for (i, j) in pairs:
        if find(i) != find(j) and rng.random() < 0.8:
            parent[find(i)] = find(j)
            chosen.add((i, j))
    for (i, j) in pairs:
        if (i, j) not in chosen and rng.random() < 0.08:
            chosen.add((i, j))
    edges = [
        Edge(a=f"n{i}", b=f"n{j}", sign=rng.choice([1, -1]))
        for (i, j) in sorted(chosen)
    ]
    return PlumbingGraph(vertices=tuple(verts), edges=tuple(edges))


def random_split_case(rng: random.Random) -> PlumbingGraph:
    """A plumbing with a center c, its Euler-0 leaf companion and 1-8 other
    vertices; edges at c may run in parallel and reach several components."""
    k = rng.randint(1, 8)
    others = [f"n{i}" for i in range(k)]
    vs = [("c", rng.randint(-3, 3), rng.randint(0, 2)), ("comp", 0, 0)]
    vs += [(u, rng.randint(-3, 3), rng.randint(0, 2)) for u in others]
    es = [("c", "comp", rng.choice([1, -1]))]
    for _ in range(rng.randint(0, 6)):
        es.append(("c", rng.choice(others), rng.choice([1, -1])))
    for _ in range(rng.randint(0, k)):
        a, b = rng.sample(others, 2) if k > 1 else (others[0], others[0])
        if a != b:
            es.append((a, b, rng.choice([1, -1])))
    return PlumbingGraph(tuple(Vertex(id=i, euler=e, genus=g) for i, e, g in vs),
                         tuple(Edge(a=a, b=b, sign=s) for a, b, s in es))


def plain_bareiss(rows):
    """(rank, R) of the sparse rows (row -> {column: nonzero}) by the plain
    fraction-free sweep: each step pivots on the first least |entry| of the
    first row holding the least, and rebuilds every other row, as
    (x*p - f*y) // prev or, with no entry in the pivot column, x*p // prev.
    R is the gcd of the block the last pivot came from; (0, 0) for no
    rows."""
    block = last = rows
    prev, r = 1, 0
    while block:
        least = {i: min(map(abs, row.values())) for i, row in block.items()}
        pi = min(least, key=least.__getitem__)
        prow = block[pi]
        pj, p = next((c, v) for c, v in prow.items() if abs(v) == least[pi])
        nxt = {}
        for i, row in block.items():
            if i == pi:
                continue
            f = row.get(pj)
            if f is None:
                nxt[i] = {c: x * p // prev for c, x in row.items()}
                continue
            new = {c: x * p for c, x in row.items()}
            for c, y in prow.items():
                new[c] = new.get(c, 0) - f * y
            new = {c: v // prev for c, v in new.items() if v}
            if new:
                nxt[i] = new
        last, block, prev, r = block, nxt, p, r + 1
    return r, math.gcd(*(v for row in last.values() for v in row.values()))


# -- graph constructors, vertex order, b_1 and the homology front end, as
# the dataclass constructors, regex chain and separate scans had them ------

ORACLE_KINDS = ("line", "point", "string", "arrowhead", "plain")


def vertex_outcome(id, genus=0, euler=None, mult=None, kind="plain", dec=None):
    """("error", message) for the InvalidInput a Vertex of these fields
    raises, field by field in a fixed order, or ("ok", fields) with dec
    made a tuple."""
    if not isinstance(id, str) or not id:
        return "error", f"vertex id must be a non-empty string: {id!r}"
    if type(genus) is not int or genus < 0:
        return "error", f"vertex {id}: genus must be a non-negative integer"
    if euler is not None and type(euler) is not int:
        return "error", f"vertex {id}: euler must be an integer or None"
    if mult is not None and (type(mult) is not int or mult < 1):
        return "error", f"vertex {id}: multiplicity must be a positive integer"
    if kind not in ORACLE_KINDS:
        return "error", f"vertex {id}: unknown kind {kind!r}"
    if dec is not None:
        if not isinstance(dec, Iterable):
            return "error", f"vertex {id}: dec must be three integers"
        d = tuple(dec)
        if len(d) != 3 or not all(type(x) is int for x in d):
            return "error", f"vertex {id}: dec must be three integers"
        if d[0] < 1 or d[1] < 0 or d[2] < 1:
            return "error", f"vertex {id}: bad decoration {d}"
        dec = d
    if kind == "arrowhead":
        if euler is not None:
            return "error", f"arrowhead {id} must not carry an Euler number"
        if genus != 0:
            return "error", f"arrowhead {id} must have genus 0"
    return "ok", (id, genus, euler, mult, kind, dec)


def edge_outcome(a, b, sign=1, edge_type=None, arrow=False):
    """("error", message) for the InvalidInput an Edge of these fields
    raises, or ("ok", fields)."""
    if type(sign) is not int or sign not in (1, -1):
        return "error", f"edge {a}--{b}: sign must be +1 or -1"
    if type(edge_type) not in (int, type(None)) or edge_type not in (None, 1, 2):
        return "error", f"edge {a}--{b}: type must be 1, 2 or None"
    if not isinstance(arrow, bool):
        return "error", f"edge {a}--{b}: arrow must be True or False"
    return "ok", (a, b, sign, edge_type, arrow)


def regex_chain_order_key(vid):
    """The sort key of a vertex id by up to four anchored regex matches,
    one per id family, tried in turn."""
    m = re.match(r"^v(\d+)$", vid)
    if m:
        return (0, int(m.group(1)), 0, 0, 0, vid)
    m = re.match(r"^w(\d+)$", vid)
    if m:
        return (1, int(m.group(1)), 0, 0, 0, vid)
    m = re.match(r"^s(\d+)_(\d+)#(\d+)$", vid)
    if m:
        line, point, pos = (int(g) for g in m.groups())
        return (1, point, 1, line, pos, vid)
    m = re.match(r"^a(\d+)$", vid)
    if m:
        return (2, int(m.group(1)), 0, 0, 0, vid)
    return (3, 0, 0, 0, 0, vid)


def front_end_error(g):
    """The error class the homology front end gives the graph, or None:
    any arrowhead first, then any missing Euler number, then any loop or
    parallel pair among the non-arrow edges, each in its own scan."""
    if any(v.kind == "arrowhead" for v in g.vertices):
        return InvalidInput
    if any(v.euler is None for v in g.vertices):
        return MissingEuler
    seen = set()
    for e in g.edges:
        if e.arrow:
            continue
        key = frozenset((e.a, e.b))
        if len(key) == 1 or key in seen:
            return NonSimpleGraph
        seen.add(key)
    return None


def component_count_betti(g):
    """b_1 of the graph without its arrowheads and arrows, as edges -
    vertices + components, the components found by union-find on ids."""
    verts = [v.id for v in g.vertices if v.kind != "arrowhead"]
    parent = {v: v for v in verts}

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    edges = [e for e in g.edges if not e.arrow]
    for e in edges:
        ra, rb = find(e.a), find(e.b)
        if ra != rb:
            parent[ra] = rb
    return len(edges) - len(verts) + len({find(v) for v in verts})


# -- the compact boundary graph written directly, as the calculus moves
# leave it: the certificate a direct compact build must meet ------------------

def compact_boundary_graph(raw, inc):
    """The raw boundary graph ``raw`` of ``inc`` with each double point's
    chain and point vertex replaced by the one vertex ``chain_survivor``
    names: Euler -n, mult 1, kind "string" ("point" when n = 2), with a -
    edge to the smaller line and a + edge to the larger.  Each line's Euler
    number drops by one per double point on it.  Vertices are told apart
    by matching their ids, not by the package's id helpers."""
    doubles = {j for j, p in enumerate(inc.points) if p.multiplicity == 2}
    lowered = {}
    for j in doubles:
        for i in inc.points[j].lines:
            lowered[f"v{i}"] = lowered.get(f"v{i}", 0) + 1

    def dropped(vid):
        m = re.fullmatch(r"w(\d+)|s\d+_(\d+)#\d+", vid)
        return m is not None and int(m.group(1) or m.group(2)) in doubles

    verts = [replace(v, euler=v.euler - lowered.get(v.id, 0))
             for v in raw.vertices if not dropped(v.id)]
    edges = [e for e in raw.edges if not dropped(e.a) and not dropped(e.b)]
    for j in sorted(doubles):
        i1, i2 = sorted(inc.points[j].lines)
        mid = chain_survivor(inc, j)
        verts.append(Vertex(id=mid, euler=-inc.n, mult=1,
                            kind="point" if inc.n == 2 else "string"))
        edges += [Edge(a=mid, b=f"v{i1}", sign=-1), Edge(a=mid, b=f"v{i2}", sign=1)]
    return PlumbingGraph(tuple(verts), tuple(edges))


# -- the generic-arrangement matrices on dense nested lists: X_n by its
# inductive block definition, B_n, A_n and the four block identities by
# dense matmul, as generic_algebra computed them before it went sparse ----

def _zeros(r, c):
    return [[0] * c for _ in range(r)]


def _eye(k, scale=1):
    out = _zeros(k, k)
    for i in range(k):
        out[i][i] = scale
    return out


def _neg(M):
    return [[-v for v in row] for row in M]


def transpose(M):
    return [list(col) for col in zip(*M)]


def matmul(A, B):
    if not A or not B or len(A[0]) != len(B):
        raise InvalidSize("matrix dimensions do not match")
    Bt = transpose(B)
    return [[sum(a * b for a, b in zip(row, col)) for col in Bt] for row in A]


def matsub(A, B):
    return [[a - b for a, b in zip(ra, rb)] for ra, rb in zip(A, B)]


def _block(tl, tr, bl, br):
    top = [rl + rr for rl, rr in zip(tl, tr)]
    bottom = [rl + rr for rl, rr in zip(bl, br)]
    return top + bottom


def dense_Xn(n):
    if n < 2:
        raise InvalidSize(f"X_n needs n >= 2, got {n}")
    if n == 2:
        return [[1, -1]]
    prev = dense_Xn(n - 1)
    top = [[1] + row for row in _neg(_eye(n - 1))]
    bottom = [[0] + row for row in prev]
    return top + bottom


def dense_Bn(n):
    X = dense_Xn(n)
    k = len(X)
    return matsub(_eye(k, n), matmul(X, transpose(X)))


def dense_An(n):
    if n < 2:
        raise InvalidSize(f"A_n needs n >= 2, got {n}")
    X = dense_Xn(n)
    k = len(X)
    return _block(_eye(n, -1), _neg(transpose(X)), _neg(X), _eye(k, -n))


def dense_lemma_identities(n):
    """The four identities of generic_algebra.check_lemma_identities, each
    side a dense matrix: O(k^2 n) per product at k = n(n-1)/2."""
    if n < 3:
        raise InvalidSize(f"lemma identities need n >= 3, got {n}")
    X = dense_Xn(n)
    Xp = dense_Xn(n - 1)
    kp = len(Xp)
    out = {}

    gram = matmul(X, transpose(X))
    expect1 = _block(
        [[1 + (1 if a == b else 0) for b in range(n - 1)] for a in range(n - 1)],
        _neg(transpose(Xp)),
        _neg(Xp),
        matmul(Xp, transpose(Xp)),
    )
    out["gram_blocks"] = gram == expect1

    # n E - J has n-1 on the diagonal and -1 off it
    out["normal_equations"] = matmul(transpose(X), X) == [
        [n - 1 if a == b else -1 for b in range(n)] for a in range(n)
    ]

    B = dense_Bn(n)
    expect3 = _block(
        matmul(transpose(Xp), Xp),
        transpose(Xp),
        Xp,
        matsub(_eye(kp, n), matmul(Xp, transpose(Xp))),
    )
    out["complement_blocks"] = B == expect3

    out["annihilation"] = matmul(B, X) == _zeros(len(B), n) and matmul(
        matsub(_eye(kp, n), matmul(Xp, transpose(Xp))), Xp
    ) == Xp
    return out
