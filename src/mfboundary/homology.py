"""Integral first homology of plumbed 3-manifolds, read from the plumbing
graph alone; this module knows nothing of arrangements.

The core computation: for a closed simple plumbing graph, form the weighted
incidence matrix A (Euler numbers on the diagonal, edge signs off it); then

    H_1 = Z^(corank A + 2*total genus + b_1(graph)) (+) torsion of A,

the torsion being the invariant factors of A that exceed 1.  A graph is
mostly strings, chains of vertices of degree 2, and a string acts on the
rest only through its continuants: the graph is read once, and before
the engine runs every chain that leaves a node is contracted in closed
form, k-1 of its k rows being unit pivots solved by 2 x 2 transfer
matrices, so the engine sees one relation row per chain and node-to-node
entries instead of whole chains.  Where two unimodular steps can, a chain
between two nodes is then made compact: one vertex coupled by units to
both ends, as the calculus leaves a double point.
Invariant factors come from one exact Smith normal form engine on one
sparse form, row -> {column: nonzero}, in two steps: a unit pivot, taken
from a priority queue ordered by Markowitz cost, and a content division
when no unit is left.  A core where both are stuck over Z takes a Bezout
step when a column's entries have gcd 1: Euclid steps through ``row_op``,
the one routine that changes a row, until an entry of that column is 1,
and the unit pivots go on.  With no such column, a fraction-free sweep
over the core's own rows gives its rank r and a multiple R of its last
invariant factor, and the core is finished one prime of R at a time: mod
p^k for k = 1, 2, 4, ... up to v_p(R), stopping at the first k where
every factor is below p^k.  The primes are those below 1000, found by
trial division; the cofactor of R that has none of them is finished mod
itself, where every entry coprime to it is a unit, split into coprime
moduli where that is stuck too.
A step of the sweep visits only the rows its pivot column meets: a row
written at step s keeps its values v, which at step t stand for
v * P[t] / P[s], P being the pivots by step (P[0] = 1), and is brought
up to date when read.
`smith_form_of_rows` is the engine's public entry, on its own row form,
and `smith_normal_form` the dense adapter over it;
`homology_of_graph` hands it the nonzeros straight from the graph, so no
V x V matrix is built.  Its one read of the graph also counts the
vertices, edges, genus and b_1, and `homology_with_stats` returns those
counts with the group; `incidence_matrix` is written from the same read.
Everything runs over unbounded Python integers; no floating point anywhere.
"""

from __future__ import annotations

import heapq
import math
from itertools import compress
from typing import Optional, Sequence

from .errors import InternalError, InvalidInput, MissingEuler, NonSimpleGraph
from .graph_core import PlumbingGraph, cycle_count
from .record import Record


# -- Smith normal form -------------------------------------------------------

class SmithForm(Record):
    """Outcome of a Smith normal form computation.

    ``factors`` are the positive diagonal entries d_1 | d_2 | ... | d_r in
    divisibility order; ``corank`` is the kernel rank cols - r (for the
    square symmetric matrices used here, the usual corank)."""

    rows: int
    cols: int
    factors: tuple[int, ...]

    def __new__(cls, rows: int, cols: int, factors: tuple[int, ...]):
        if _out_of_order(factors):
            raise InvalidInput(f"invariant factors out of order: {factors}")
        return tuple.__new__(cls, (cls, rows, cols, factors))

    @property
    def rank(self) -> int:
        return len(self.factors)

    @property
    def corank(self) -> int:
        return self.cols - self.rank


def _out_of_order(factors: Sequence[int]) -> bool:
    """Whether d_1 | d_2 | ... fails: some factor does not divide the next."""
    return any(b % a for a, b in zip(factors, factors[1:]))


def _column_index(rows: dict[int, dict[int, int]]) -> dict[int, set[int]]:
    """The rows each column of the sparse rows meets: column -> {row}."""
    cols: dict[int, set[int]] = {}
    for i, row in rows.items():
        for c in row:
            cols.setdefault(c, set()).add(i)
    return cols


def _sparse_rows(M: Sequence[Sequence[int]]) -> tuple[int, int, dict[int, dict[int, int]]]:
    """Validate a dense integer matrix and return (rows, cols, nonzeros by
    row)."""
    if not isinstance(M, (list, tuple)):
        raise InvalidInput("matrix must be a list of rows")
    nrows = len(M)
    ncols = None
    sparse: dict[int, dict[int, int]] = {}
    for i, row in enumerate(M):
        if not isinstance(row, (list, tuple)):
            raise InvalidInput("matrix rows must be lists")
        if ncols is None:
            ncols = len(row)
            positions = range(ncols)
        elif len(row) != ncols:
            raise InvalidInput("matrix rows have unequal lengths")
        if not set(map(type, row)) <= {int}:  # the per-entry check only when needed
            for v in row:
                if not isinstance(v, int) or isinstance(v, bool):
                    raise InvalidInput(f"matrix entries must be integers, got {v!r}")
        nonzero = list(compress(positions, row))
        if nonzero:
            sparse[i] = {j: row[j] for j in nonzero}
    return nrows, (ncols or 0), sparse


def _bareiss_rank_modulus(rows: dict[int, dict[int, int]]) -> tuple[int, int]:
    """Fraction-free (Bareiss) elimination of the sparse integer matrix
    ``rows`` (row -> {column: nonzero}), which it leaves unchanged.

    Returns (rank, R) where R is a positive multiple of the largest
    nonzero invariant factor, or (0, 0) for no rows.  Every intermediate
    entry is a minor of the input, so sizes grow polynomially and each
    division by the previous pivot is exact on any row storage.  After r-1
    steps the live block consists of r x r minors, so the gcd of the block
    the last pivot came from is a multiple of the r-th determinantal
    divisor d_1 * ... * d_r, hence of d_r, and usually far smaller than
    any single minor, which keeps the modular stage cheap.

    Each step pivots on an entry p of least absolute value, which keeps
    the products x*p small: the first row, in input order, with the least,
    then its first such entry.  Only the rows the pivot column meets,
    found by a column index, are rebuilt, as (x*p - f*y) // prev without
    zeros; empty rows go, and the sweep ends when no row is left.  Every
    other row would only be rescaled to x*p // prev, and those rescales
    telescope: a row keeps the values v it was written with at step s,
    which at step t stand for v * P[t] / P[s], an exact integer (P[t] the
    pivot of step t, P[0] = 1).  A row is brought up to date when it is
    read, as the pivot row or a row the pivot column meets, and its least
    |entry| is scaled the same way to pick pivots.  At the last step the
    pivot column meets every row left, so R comes from rows brought up to
    date.
    """
    live = dict(rows)
    stamp = dict.fromkeys(rows, 0)
    least = {i: min(map(abs, row.values())) for i, row in rows.items()}
    cols = _column_index(rows)
    P, size = [1], [1]  # the pivots and their absolute values, by step
    R = 0
    while live:
        t, prev, scale = len(P) - 1, P[-1], size[-1]
        pi = min(live, key=lambda i: least[i] * scale // size[stamp[i]])
        prow, s = live.pop(pi), stamp.pop(pi)
        if s < t:
            prow = {c: x * prev // P[s] for c, x in prow.items()}
        lp = least.pop(pi) * scale // size[s]
        pj, p = next((c, v) for c, v in prow.items() if abs(v) == lp)
        for c in prow:
            cols[c].discard(pi)
        block = [prow]
        for i in list(cols.pop(pj)):
            row, s = live[i], stamp[i]
            if s < t:
                row = {c: x * prev // P[s] for c, x in row.items()}
            block.append(row)
            f = row[pj]
            new = {c: x * p for c, x in row.items()}
            for c, y in prow.items():  # the pivot column cancels to 0
                new[c] = new.get(c, 0) - f * y
            new = {c: v // prev for c, v in new.items() if v}
            for c in prow:
                if c in new and c not in row:
                    cols[c].add(i)
                elif c in row and c not in new and c != pj:
                    cols[c].discard(i)
            if new:
                live[i], stamp[i], least[i] = new, t + 1, min(map(abs, new.values()))
            else:
                del live[i], stamp[i], least[i]
        P.append(p)
        size.append(abs(p))
        if not live:
            R = math.gcd(*(v for row in block for v in row.values()))
    return len(P) - 1, R


def _coprime_split(rows: dict[int, dict[int, int]], modulus: int) -> tuple[int, int]:
    """A split a * b = modulus with gcd(a, b) = 1 and a, b > 1, where a
    collects the powers in the modulus of the primes some entry shares
    with it.  The rows must have no unit mod the modulus and content 1
    with it, so every entry shares a prime with the modulus and some entry
    misses one of its primes (or that prime would divide the content)."""
    for ri in rows.values():
        for v in ri.values():
            a, b = 1, modulus
            g = math.gcd(v, b)
            while g > 1:
                a *= g
                b //= g
                g = math.gcd(g, b)
            if a > 1 and b > 1:
                return a, b
    raise InternalError(f"no coprime split of {modulus} at a stuck matrix")


def _bezout_anchor(rows: dict[int, dict[int, int]],
                   cols: dict[int, set[int]]) -> Optional[tuple[int, int]]:
    """The anchor (row, column) of a Bezout step on a matrix stuck over Z,
    or None when no column's entries have gcd 1.  Of those columns it takes
    one with the fewest entries, then the fewest entries in the rows it
    meets, and anchors it at its least |entry|, then the shortest row: the
    short rows keep the fill of the steps and the pivots after them small.
    ``cols`` maps a column to the rows it meets; ties go to the first."""
    best = None
    for c, meets in cols.items():
        if meets and (best is None or len(meets) <= best[0][0]):
            key = (len(meets), sum(len(rows[r]) for r in meets))
            if best is None or key < best[0]:
                g = 0
                for r in meets:
                    g = math.gcd(g, rows[r][c])
                if g == 1:
                    best = key, c
    if best is None:
        return None
    j = best[1]
    return min(cols[j], key=lambda r: (abs(rows[r][j]), len(rows[r]), r)), j


def _prime_powers(R: int) -> list[tuple[int, int]]:
    """(p, v_p(R)) for each prime p < 1000 of R > 0, by trial division,
    then (c, 1) for the cofactor c > 1 that no such prime divides."""
    found = []
    d = 2
    while d < 1000 and R > 1:
        if R % d == 0:  # d is prime: the primes below it are divided out
            e = 0
            while R % d == 0:
                R //= d
                e += 1
            found.append((d, e))
        d += 1 if d == 2 else 2
    if R > 1:
        found.append((R, 1))
    return found


def _local_factors(rows: dict[int, dict[int, int]], p: int, e: int, count: int) -> list[int]:
    """gcd(d_i, p^e) for the first ``count`` invariant factors d_i of
    ``rows``, which it leaves as they are, for a prime p with v_p(d_i) <= e:
    the engine runs over Z/p^k, where it writes every row anew, on a shallow
    copy for k = 1, 2, 4, ... up to e, and stops at the first k where every
    factor is below p^k, since then every v_p(d_i) < k.  With e = 1 it is
    one run mod p, for any modulus p."""
    k = 1
    while True:
        q = p ** min(k, e)
        local = _invariant_factors(dict(rows), q, count)
        if k >= e or local[-1] < q:
            return local
        k *= 2


def _invariant_factors(rows: dict[int, dict[int, int]], modulus: int = 0,
                       count: int = 0) -> list[int]:
    """The Smith normal form engine: the invariant factors d_1 | d_2 | ...
    of the sparse integer matrix ``rows`` (row -> {column: nonzero entry}),
    which it consumes.  One loop of two steps, over Z or, when the private
    ``modulus`` m is set, over Z/m:

      * Unit pivots come from a heap of (Markowitz cost, row, column), the
        cost being (row length - 1) * (column length - 1).  Entries enter
        it when elimination writes a unit, so a pivot costs what its row
        and column cost, not a scan of the matrix.  Keys go stale as rows
        and columns change length; a popped entry that is gone or no longer
        a unit is dropped, one that got dearer goes back with its true
        cost, and the heap is rebuilt once stale keys outnumber the live
        entries.  Over Z/m every entry coprime to m is a unit.
      * When no unit entry is left, the gcd g of the remaining entries
        (and m) is the next invariant factor's content: divide it out (the
        factors of g*M are g times those of M; the work goes on mod m/g),
        which in the graph cases turns the torsion core back into a
        unit-pivot matrix.

    Stuck on both over Z (no unit, content 1), the engine takes a Bezout
    step when some column's entries have gcd 1 (``_bezout_anchor``): Euclid
    steps through ``row_op`` until the anchor entry is +-1, and the loop
    goes on.  Each step buys at least one unit pivot, so this ends.  With
    no such column, a Bareiss sweep gives the rank r of the rest and a
    multiple R of its last invariant factor d_r, and the rest is finished
    over coprime moduli, each run on a copy, the returned lists multiplied
    elementwise (Chinese remainders): for each prime p < 1000 of R, Z/p^k
    at a doubling precision k up to v_p(R) (``_local_factors``), and Z/c
    for the cofactor c of R with no such prime.  Over Z/q the first r
    factors are gcd(d_i, q), and every prime of every d_i divides d_r,
    hence R.  Stuck over Z/m, the engine finishes over a split of m from
    ``_coprime_split``; over Z/p^k no unit means content >= p, so no split
    is needed there.  Over Z/m the rows are reduced into (-m/2, m/2] at
    entry, each into a new dict, so the row dicts it was given are never
    written, and exactly ``count`` factors come back, padded with m for
    rows that vanish mod m.

    Entries are unbounded Python integers throughout; nothing is floated.
    """
    if modulus:
        for i, ri in list(rows.items()):
            reduced = {c: r - modulus if 2 * r > modulus else r
                       for c, v in ri.items() if (r := v % modulus)}
            if reduced:
                rows[i] = reduced
            else:
                del rows[i]
    cols = _column_index(rows)
    nnz = sum(map(len, rows.values()))
    gcd = math.gcd
    heappush = heapq.heappush
    # A unit of Z/modulus; modulus 0 gives Z, whose units are +-1 = the v
    # with gcd(v, 0) = |v| = 1.
    queue: list[tuple[int, int, int]] = []  # (Markowitz cost, row, column)

    def rebuild_queue():
        queue[:] = [
            ((len(ri) - 1) * (len(cols[c]) - 1), i, c)
            for i, ri in rows.items()
            for c, v in ri.items()
            if gcd(v, modulus) == 1
        ]
        heapq.heapify(queue)

    def pop_unit() -> Optional[tuple[int, int]]:
        if len(queue) > 2 * nnz + 64:
            rebuild_queue()
        while queue:
            key, i, j = queue[0]
            ri = rows.get(i)
            v = ri.get(j) if ri is not None else None
            if v is None or gcd(v, modulus) != 1:
                heapq.heappop(queue)
                continue
            cost = (len(ri) - 1) * (len(cols[j]) - 1)
            if cost > key:
                heapq.heapreplace(queue, (cost, i, j))
                continue
            heapq.heappop(queue)
            return i, j
        return None

    def row_op(r: int, source: dict[int, int], q: int):
        """row_r -= q * source, reduced mod the modulus; units written
        join the queue."""
        nonlocal nnz
        rr = rows[r]
        for c, v in source.items():
            old = rr.get(c, 0)
            new = old - q * v
            if modulus:
                new %= modulus
                if 2 * new > modulus:
                    new -= modulus
            if new:
                rr[c] = new
                if not old:
                    cols[c].add(r)
                    nnz += 1
                if gcd(new, modulus) == 1:
                    heappush(queue, ((len(rr) - 1) * (len(cols[c]) - 1), r, c))
            elif old:
                del rr[c]
                cols[c].discard(r)
                nnz -= 1
        if not rr:
            del rows[r]

    def extract_content() -> int:
        """Divide out g = gcd(entries, modulus) and return it; under a
        modulus m the remaining work then runs mod m/g."""
        nonlocal modulus
        g = modulus
        for ri in rows.values():
            for v in ri.values():
                g = gcd(g, v)
                if g == 1:
                    return 1
        for ri in rows.values():
            for c in ri:
                ri[c] //= g
        modulus //= g
        return g

    def bezout(i: int, j: int):
        """Make the anchor (i, j) of a matrix stuck over Z a unit by Euclid
        steps through ``row_op``: row i loses the multiple of a partner row
        k that leaves its column-j entry nearest 0, the two swap roles, and
        so on until one of the two entries is 0; the other row is the
        anchor.  Each partner is the row whose entry leaves the least gcd
        with the anchor's, then the shortest row; the column keeps its gcd
        1, so the anchor gets to 1."""
        while abs(a := rows[i][j]) != 1:
            k = min(cols[j] - {i}, key=lambda r: (gcd(a, rows[r][j]), len(rows[r]), r))
            while j in rows.get(k, ()):
                b = rows[k][j]
                row_op(i, rows[k], (2 * rows[i][j] + b) // (2 * b))  # nearest quotient
                i, k = k, i

    def eliminate(i: int, j: int):
        """Clear row i and column j around the unit pivot (i, j)."""
        nonlocal nnz
        prow = rows.pop(i)
        nnz -= len(prow)
        for c in prow:
            cols[c].discard(i)
        p = prow[j]
        inv = pow(p, -1, modulus) if modulus else p
        for r in list(cols[j]):
            row_op(r, prow, rows[r][j] * inv)
        # column j is now empty; the implicit column ops clearing row i
        # touch no other row, so the row just goes away
        for c in prow:
            if not cols[c]:
                del cols[c]

    factors: list[int] = []
    scale = 1
    rebuild_queue()
    while rows:
        unit = pop_unit()
        if unit is not None:
            eliminate(*unit)
            factors.append(scale)
            continue
        g = extract_content()
        if g > 1:
            scale *= g
            rebuild_queue()
            continue
        # stuck: no unit and content 1
        if modulus:
            parts, left = [(m, 1) for m in _coprime_split(rows, modulus)], count - len(factors)
        else:
            anchor = _bezout_anchor(rows, cols)
            if anchor is not None:
                bezout(*anchor)
                continue
            left, R = _bareiss_rank_modulus(rows)
            if left < 1:
                raise InternalError("the unit-free core of a nonzero matrix has rank 0")
            parts = _prime_powers(R)
        finish = [scale] * left
        for p, e in parts:
            finish = [x * y for x, y in zip(finish, _local_factors(rows, p, e, left))]
        factors += finish
        break
    # content divided out moves from the modulus into the scale, so the
    # padding scale * modulus is the entry modulus (and nothing over Z)
    factors += [scale * modulus] * (count - len(factors))
    if _out_of_order(factors):
        raise InternalError(f"invariant factors out of divisibility order: {factors}")
    return factors


def smith_form_of_rows(nrows: int, ncols: int, rows: dict[int, dict[int, int]]) -> SmithForm:
    """Invariant factors of the nrows x ncols integer matrix whose nonzeros
    are ``rows`` (row -> {column: nonzero int}), which it consumes, by the
    one sparse engine, ``_invariant_factors``, whose docstring gives its steps.

    The naive minimum-entry Euclidean strategy is catastrophic here: on
    the raw boundary graph of ten generic lines it manufactures pivots
    with hundreds of digits.  Here unit pivots do most of the work, a
    Bezout step only turns a core's missing unit into one, and a finish
    mod p^k works on residues below p^k; only the sweep's minors and a
    core that many Bezout steps have filled hold integers of hundreds of
    digits.
    """
    return SmithForm(nrows, ncols, tuple(_invariant_factors(rows)))


def smith_normal_form(M: Sequence[Sequence[int]]) -> SmithForm:
    """``smith_form_of_rows`` of a dense integer matrix, after checking that
    M is a list or tuple of list or tuple rows of one length whose entries
    are ints, not bools."""
    return smith_form_of_rows(*_sparse_rows(M))


# -- finitely generated abelian groups ---------------------------------------

class AbelianGroup(Record):
    """Z^free_rank plus cyclic factors in invariant-factor form (each at
    least 2, each dividing the next).  Equality is isomorphism."""

    free_rank: int
    torsion: tuple[int, ...]

    def __new__(cls, free_rank: int, torsion: tuple[int, ...] = ()):
        # type(x) is int: a bool is not a rank or an order
        if type(free_rank) is not int or free_rank < 0:
            raise InvalidInput(f"free rank must be a non-negative integer, got {free_rank!r}")
        if not isinstance(torsion, (tuple, list)):
            raise InvalidInput(f"torsion must be a tuple or list of orders, got {torsion!r}")
        torsion = tuple(torsion)
        for d in torsion:
            if type(d) is not int or d < 2:
                raise InvalidInput(f"torsion orders must be >= 2, got {d}")
        if _out_of_order(torsion):
            raise InvalidInput(f"torsion not in invariant-factor form: {torsion}")
        return tuple.__new__(cls, (cls, free_rank, torsion))

    @classmethod
    def cyclic_powers(cls, free_rank: int, n: int, k: int) -> "AbelianGroup":
        """Z^free_rank (+) (Z_n)^k."""
        return cls(free_rank, ((n,) * k) if k else ())

    @property
    def is_torsion_free(self) -> bool:
        return not self.torsion

    def __str__(self) -> str:
        parts = []
        if self.free_rank == 1:
            parts.append("Z")
        elif self.free_rank:
            parts.append(f"Z^{self.free_rank}")
        parts += [f"Z_{d}" for d in self.torsion]
        return " (+) ".join(parts) if parts else "0"


# -- graph homology ----------------------------------------------------------

def _read_graph(g: PlumbingGraph) -> tuple[list[int], list[dict[int, int]], dict[str, int]]:
    """A closed simple plumbing graph read from its vertex list, then in one
    pass over its edges: the Euler numbers and the neighbours of each vertex,
    vertex k being ``g.vertices[k]`` and its neighbours {position: edge
    sign} in edge order, and the graph's counts: its vertices, its edges,
    its total genus and its b_1, the last two giving the free summands
    2 * genus + b_1 of H_1 that the incidence matrix does not see.

    The Euler numbers, read first, check that the graph is closed: an
    arrowhead has no Euler number, so the first vertex without one decides
    between the arrowhead and the missing-Euler error.  The edge pass checks that it is
    simple, a loop or a second edge between two vertices raising, and
    collects the edges as position pairs, whose ``cycle_count`` is b_1."""
    vertices = g.vertices
    euler = [v.euler for v in vertices]
    if None in euler:
        if any(u.kind == "arrowhead" for u in vertices):
            raise InvalidInput("graph still has arrowheads; strip them first")
        raise MissingEuler(f"vertex {vertices[euler.index(None)].id} has no Euler number")
    pos = dict(zip(g.ids, range(len(euler))))
    genus = sum([v.genus for v in vertices])
    nbrs: list[dict[int, int]] = [{} for _ in euler]
    pairs = []
    for e in g.edges:
        a, b = pos[e.a], pos[e.b]
        around = nbrs[a]
        if a == b or b in around:
            raise NonSimpleGraph(
                "graph has loops or parallel edges; absorb them first "
                "(a +- double edge is a handle_absorb target, an Euler-0 "
                "degree-2 vertex a zero_chain_absorb target)"
            )
        around[b] = nbrs[b][a] = e.sign
        pairs.append((a, b))
    return euler, nbrs, {"vertices": len(euler), "edges": len(pairs), "genus_total": genus,
                         "first_betti": cycle_count(len(euler), pairs)}


def _contract_chains(euler: list[int], nbrs: list[dict[int, int]]
                     ) -> tuple[int, dict[int, dict[int, int]]]:
    """The incidence rows of a closed simple graph, given as ``_read_graph``
    reads it, with every string chain contracted, and the number of unit
    invariant factors that went with the rows contracted away.

    A chain is a maximal path v_1..v_k of vertices of degree 1 or 2 that
    leaves a node u (degree >= 3) and ends at a node w (possibly u) or at
    a leaf.  Row v_i reads s_{i-1} x_{i-1} + e_i x_i + s_i x_{i+1} with
    x_0 = u and edge signs s = +-1, so rows v_1..v_{k-1} solve for x_2..x_k
    in turn, x_{i+1} = -s_i (s_{i-1} x_{i-1} + e_i x_i), each one a unit
    pivot: every x_i is a pair (a_i, b_i) of continuants, x_i = a_i u + b_i
    y with y = x_1.  Those k-1 rows, which are never written, and the
    columns v_2..v_k go; row v_k becomes its relation R = A u + B y (+ s_k
    w), and w's row W holds s_k (a_k u + b_k y) where it held s_k at v_k.
    Entries add up where columns meet, and zeros are dropped.

    A chain between two distinct nodes is then made compact when |B| > 1
    and W's entry c_y at y is +-1 mod B, by two unimodular steps: the row
    step W += t R, t = (+-1 - c_y) / B, makes W's y entry +-1, and the
    column step col_u += sigma col_y, over the three rows that hold column
    y (u's row, R and W), with sigma = -(W's u entry) * (W's y entry),
    clears W's u entry.  On the Euler -2 strings of a double point t =
    sigma = 1, and the chain becomes one vertex x_u + B y +- x_w coupled
    by units to both ends, as in the compact graph of the calculus.

    Each contraction step is a unit pivot of the Smith form and each
    compact step is unimodular, so the rank drops by the count returned
    and every other invariant factor is kept.  Components with no node,
    and vertices of degree 0, keep their rows as they are."""
    walked = []  # (u, y, last, w, s_k, A, B, a_k, b_k) per chain of two or more
    gone = [False] * len(nbrs)  # by row: one of some chain's v_1..v_{k-1}, never written
    ends: set[int] = set()  # each chain's v_k, where its other end starts
    deg = list(map(len, nbrs))
    for u, around in enumerate(nbrs):
        if deg[u] < 3:
            continue
        for y, s0 in around.items():
            if y in ends or deg[y] != 2:
                continue
            # (a0, b0) and (a1, b1) are x_{i-1} and x_i, s0 is s_{i-1}
            a0, b0, a1, b1 = 1, 0, 0, 1
            prev, vi, w, sk = u, y, None, 0
            while deg[vi] == 2:
                near = nbrs[vi]
                p, q = near
                nxt = q if p == prev else p
                s = near[nxt]
                if deg[nxt] > 2:
                    w, sk = nxt, s
                    break
                e = euler[vi]
                a0, b0, a1, b1, s0 = a1, b1, -s * (s0 * a0 + e * a1), -s * (s0 * b0 + e * b1), s
                gone[vi] = True
                prev, vi = vi, nxt
            if vi != y:
                e = euler[vi]
                ends.add(vi)
                walked.append((u, y, vi, w, sk, s0 * a0 + e * a1, s0 * b0 + e * b1, a1, b1))
    rows = {k: {k: e, **around} if e else dict(around)
            for k, (e, around, g) in enumerate(zip(euler, nbrs, gone)) if not g and (e or around)}
    for u, y, last, w, sk, A, B, a1, b1 in walked:
        relation = {u: A, y: B}
        if w is not None:
            relation[w] = relation.get(w, 0) + sk
        row = rows[last]  # rewritten in place, to keep its place in row order
        row.clear()
        row.update((c, x) for c, x in relation.items() if x)
        if not row:
            del rows[last]
        if w is None:
            continue
        wrow = rows[w]
        del wrow[last]
        _add(wrow, {u: sk * a1, y: sk * b1}, 1)
        if w == u or -1 <= B <= 1:
            continue
        for unit in (1, -1):
            t, r = divmod(unit - wrow.get(y, 0), B)
            if not r:
                _add(wrow, row, t)
                sigma = -wrow.get(u, 0) * unit
                if sigma:
                    for meets in (rows[u], row, wrow):
                        _add(meets, {u: sigma * meets[y]}, 1)
                break
    return gone.count(True), rows


def _add(row: dict[int, int], other: dict[int, int], t: int) -> None:
    """row += t * other, in place, dropping the zeros."""
    if t:
        for c, x in other.items():
            x = row.get(c, 0) + t * x
            if x:
                row[c] = x
            else:
                row.pop(c, None)


def incidence_matrix(g: PlumbingGraph) -> list[list[int]]:
    """Weighted incidence matrix of a closed simple plumbing graph, row and
    column k being ``g.vertices[k]``: Euler numbers on the diagonal, the
    sign of the unique i-j edge elsewhere.  ``_read_graph`` checks the
    graph."""
    euler, nbrs, _ = _read_graph(g)
    A = [[0] * len(euler) for _ in euler]
    for k, row in enumerate(A):
        row[k] = euler[k]
        for b, sign in nbrs[k].items():
            row[b] = sign
    return A


def homology_with_stats(g: PlumbingGraph) -> tuple[AbelianGroup, dict[str, int]]:
    """``homology_of_graph(g)`` and the counts its one read of g makes:
    {"vertices", "edges", "genus_total", "first_betti"}."""
    euler, nbrs, stats = _read_graph(g)
    units, rows = _contract_chains(euler, nbrs)
    factors = _invariant_factors(rows)
    free = len(euler) - units - len(factors) + 2 * stats["genus_total"] + stats["first_betti"]
    return AbelianGroup(free, tuple(d for d in factors if d >= 2)), stats


def homology_of_graph(g: PlumbingGraph) -> AbelianGroup:
    """First integral homology of the plumbed manifold of a closed simple
    graph: corank of the incidence matrix plus 2*genus plus b_1 of the
    graph free summands, invariant factors >= 2 as torsion.

    The graph is read once (``_read_graph``), and the Smith form engine
    gets the nonzeros of its incidence matrix with every string chain
    contracted and, between two nodes, made compact where it can be
    (``_contract_chains``); the dense V x V matrix is never built."""
    return homology_with_stats(g)[0]
