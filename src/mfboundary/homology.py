"""Integral first homology of plumbed 3-manifolds, plus the closed-form
Betti number and torsion probes for arrangement boundaries.

The core computation: for a closed simple plumbing graph, form the weighted
incidence matrix A (Euler numbers on the diagonal, edge signs off it); then

    H_1 = Z^(corank A + 2*total genus + b_1(graph)) (+) torsion of A,

the torsion being the invariant factors of A that exceed 1.  Invariant
factors come from one exact sparse Smith normal form engine of two steps:
a unit pivot, taken from a priority queue ordered by Markowitz cost, and a
content division when no unit is left.  A core where both are stuck is
finished over coprime moduli: first a multiple R of its last invariant
factor, where every entry coprime to R is a unit, then coprime splits of
any modulus that is stuck too.  `smith_normal_form` hands the engine the
nonzeros of a dense matrix; `homology_of_graph` hands it the nonzeros
straight from the graph, so the V x V matrix is never built on that route.
Everything runs over unbounded Python integers; no floating point anywhere.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, fields
from itertools import compress
from typing import Optional, Sequence

from .arrangement import IncidenceData, is_near_pencil, is_pencil
from .errors import InternalError, InvalidInput, MissingEuler, NonSimpleGraph
from .graph_core import PlumbingGraph, first_betti_of_graph, vertex_order
from .pipeline import boundary_graph, point_genus


# -- Smith normal form -------------------------------------------------------

@dataclass(frozen=True)
class SmithForm:
    """Outcome of a Smith normal form computation.

    ``factors`` are the positive diagonal entries d_1 | d_2 | ... | d_r in
    divisibility order; ``corank`` is the kernel rank cols - r (for the
    square symmetric matrices used here, the usual corank)."""

    rows: int
    cols: int
    factors: tuple[int, ...]

    @property
    def rank(self) -> int:
        return len(self.factors)

    @property
    def corank(self) -> int:
        return self.cols - self.rank

    def __post_init__(self):
        for a, b in zip(self.factors, self.factors[1:]):
            if b % a != 0:
                raise InvalidInput(f"invariant factors out of order: {self.factors}")


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


def _bareiss_rank_modulus(B: list[list[int]]) -> tuple[int, int]:
    """Fraction-free elimination of a dense integer matrix (left unchanged).

    Returns (rank, R) where R is a positive multiple of the largest
    nonzero invariant factor, or (0, 0) for a zero matrix.  Bareiss keeps
    every intermediate entry equal to a minor of the input, so sizes grow
    polynomially instead of doubling per pivot.  After r-1 steps the live
    block consists of r x r minors; the gcd of the final live block is
    therefore a multiple of the r-th determinantal divisor, hence of the
    last invariant factor d_r.  That gcd is usually far smaller than any
    single minor, which keeps the modular stage below cheap.

    Each step builds the next live block as new lists, so the block the
    last pivot came from is still whole when the loop ends, whether it ran
    out of rows or columns or the block became zero.
    """
    block = B
    last: list[list[int]] = []
    prev = 1
    r = 0
    while block and block[0]:
        # pivot: an entry of least absolute value, the first in row-major
        # order among those
        least = [min(map(abs, filter(None, row)), default=0) for row in block]
        m = min(filter(None, least), default=0)
        if not m:
            break
        pi = least.index(m)
        prow = block[pi]
        pj = next(jj for jj, v in enumerate(prow) if v == m or v == -m)
        p = prow[pj]
        # the first row and column move into the pivot's places
        rest = block[1:]
        if pi:
            rest[pi - 1] = block[0]
        pk = prow[1:]
        if pj:
            pk[pj - 1] = prow[0]
        nxt = []
        for row in rest:
            f = row[pj]
            rk = row[1:]
            if pj:
                rk[pj - 1] = row[0]
            if f:
                nxt.append([(x * p - f * y) // prev for x, y in zip(rk, pk)])
            else:
                nxt.append([x * p // prev for x in rk])
        last = block
        block = nxt
        prev = p
        r += 1
    if r == 0:
        return 0, 0
    g = 0
    for row in last:
        g = math.gcd(g, *row)
        if g == 1:
            break
    return r, g


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

    Stuck on both (no unit, content 1), the engine finishes the rest once
    per modulus of a coprime list, on a copy for every modulus but the
    last, and multiplies the returned lists elementwise (Chinese
    remainders).  Over Z the list is (R,): a Bareiss sweep gives the rank
    r of the rest and a multiple R of its last invariant factor, and over
    Z/R the first r factors are gcd(d_i, R) = d_i.  Over Z/m it is a split
    of m from ``_coprime_split``; over Z/p^e no unit means content >= p,
    so splitting ends.  Over Z/m the rows are reduced into (-m/2, m/2] at
    entry and stay there, and exactly ``count`` factors come back, padded
    with m for rows that vanish mod m.

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
    cols: dict[int, set[int]] = {}
    for i, ri in rows.items():
        for c in ri:
            cols.setdefault(c, set()).add(i)
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
        # stuck: no unit and content 1; finish over coprime moduli
        if modulus:
            parts, left = _coprime_split(rows, modulus), count - len(factors)
        else:
            cmap = {c: t for t, c in enumerate(sorted(cols))}
            dense = [[0] * len(cmap) for _ in rows]
            for row, i in zip(dense, sorted(rows)):
                for c, v in rows[i].items():
                    row[cmap[c]] = v
            left, R = _bareiss_rank_modulus(dense)
            if left < 1:
                raise InternalError("the unit-free core of a nonzero matrix has rank 0")
            parts = (R,)
        finish = [scale] * left
        for k, part in enumerate(parts):
            rest = rows if k == len(parts) - 1 else {i: dict(ri) for i, ri in rows.items()}
            finish = [x * y for x, y in zip(finish, _invariant_factors(rest, part, left))]
        factors += finish
        break
    # content divided out moves from the modulus into the scale, so the
    # padding scale * modulus is the entry modulus (and nothing over Z)
    factors += [scale * modulus] * (count - len(factors))
    for a, b in zip(factors, factors[1:]):
        if b % a:
            raise InternalError(f"invariant factors out of divisibility order: {factors}")
    return factors


def smith_normal_form(M: Sequence[Sequence[int]]) -> SmithForm:
    """Invariant factors of an integer matrix, by exact sparse elimination.

    The matrix is validated, and its nonzeros go to the one sparse engine
    (``_invariant_factors``), tuned for the mostly-empty matrices of
    boundary graphs: unit pivots from a Markowitz-cost priority queue,
    content extraction when no unit is left, and a finish over coprime
    moduli, in which every entry coprime to the modulus is a unit pivot.

    The naive minimum-entry Euclidean strategy is catastrophic here: on
    the raw boundary graph of ten generic lines it manufactures pivots
    with hundreds of digits.  The unit phase plus the modular finish keep
    the whole computation in word-sized integers unless the input really
    has giant invariant factors.
    """
    nrows, ncols, rows = _sparse_rows(M)
    return SmithForm(nrows, ncols, tuple(_invariant_factors(rows)))


# -- finitely generated abelian groups ---------------------------------------

@dataclass(frozen=True)
class AbelianGroup:
    """Z^free_rank plus cyclic factors in invariant-factor form (each at
    least 2, each dividing the next).  Equality is isomorphism."""

    free_rank: int
    torsion: tuple[int, ...] = ()

    def __post_init__(self):
        if self.free_rank < 0:
            raise InvalidInput("free rank cannot be negative")
        object.__setattr__(self, "torsion", tuple(self.torsion))
        for d in self.torsion:
            if not isinstance(d, int) or d < 2:
                raise InvalidInput(f"torsion orders must be >= 2, got {d}")
        for a, b in zip(self.torsion, self.torsion[1:]):
            if b % a != 0:
                raise InvalidInput(f"torsion not in invariant-factor form: {self.torsion}")

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

def _incidence_rows(g: PlumbingGraph) -> tuple[int, dict[int, dict[int, int]]]:
    """Size and nonzeros by row of the weighted incidence matrix of a closed
    simple plumbing graph, rows and columns in canonical vertex order:
    each row's diagonal entry first, then its edges in edge order."""
    if any(v.kind == "arrowhead" for v in g.vertices):
        raise InvalidInput("graph still has arrowheads; strip them first")
    for v in g.vertices:
        if v.euler is None:
            raise MissingEuler(f"vertex {v.id} has no Euler number")
    if not g.is_simple():
        raise NonSimpleGraph(
            "graph has loops or parallel edges; absorb them first "
            "(a +- double edge is a handle_absorb target, an Euler-0 "
            "degree-2 vertex a zero_chain_absorb target)"
        )
    pos = {vid: k for k, vid in enumerate(vertex_order(g))}
    rows = {pos[v.id]: {pos[v.id]: v.euler} for v in g.vertices if v.euler}
    for e in g.edges:
        a, b = pos[e.a], pos[e.b]
        rows.setdefault(a, {})[b] = e.sign
        rows.setdefault(b, {})[a] = e.sign
    return len(pos), rows


def incidence_matrix(g: PlumbingGraph) -> list[list[int]]:
    """Weighted incidence matrix of a closed simple plumbing graph in
    canonical vertex order: Euler numbers on the diagonal, the sign of the
    unique i-j edge elsewhere."""
    size, rows = _incidence_rows(g)
    A = [[0] * size for _ in range(size)]
    for a, row in rows.items():
        for b, v in row.items():
            A[a][b] = v
    return A


def homology_of_graph(g: PlumbingGraph) -> AbelianGroup:
    """First integral homology of the plumbed manifold of a closed simple
    graph: corank of the incidence matrix plus 2*genus plus b_1 of the
    graph free summands, invariant factors >= 2 as torsion.

    The Smith form engine gets the matrix's nonzeros straight from the
    graph; the dense V x V matrix is never built."""
    size, rows = _incidence_rows(g)
    snf = SmithForm(size, size, tuple(_invariant_factors(rows)))
    free = snf.corank + 2 * sum(v.genus for v in g.vertices) + first_betti_of_graph(g)
    torsion = tuple(d for d in snf.factors if d >= 2)
    return AbelianGroup(free, torsion)


# -- closed forms and probes -------------------------------------------------

def betti_formula(inc: IncidenceData) -> int:
    """First Betti number of the boundary straight from the incidence data:
    sum over intersection points of 1 + (m - 2) * gcd(m, n)."""
    if inc.n < 2:
        raise InvalidInput("Betti formula needs n >= 2")
    return sum(
        1 + (p.multiplicity - 2) * math.gcd(p.multiplicity, inc.n)
        for p in inc.points
    )


def projective_complement_euler(inc: IncidenceData) -> int:
    """Euler characteristic of the complement of the projectivized
    arrangement: 3 - 2n + sum (m_j - 1)."""
    return 3 - 2 * inc.n + sum(p.multiplicity - 1 for p in inc.points)


@dataclass(frozen=True)
class ConjectureReport:
    """Evidence for the three torsion predictions on one arrangement.

    flat_hypothesis     every point has (m-2)(gcd(m,n)-1) = 0, i.e. no
                        point vertex carries genus;
    flat_prediction_ok  under that hypothesis, whether the torsion is
                        exactly (Z_n)^chi with chi the complement Euler
                        characteristic (None when the hypothesis fails);
    orders_divide_n     every invariant factor divides n;
    torsion_free_iff    torsion-freeness happens exactly for pencil and
                        near-pencil shapes.
    """

    n: int
    group: AbelianGroup
    betti_matches: bool
    flat_hypothesis: bool
    complement_euler: int
    flat_prediction_ok: Optional[bool]
    orders_divide_n: bool
    torsion_free: bool
    pencil_like: bool
    near_pencil_like: bool
    torsion_free_iff: bool

    def all_hold(self) -> bool:
        checks = [self.betti_matches, self.orders_divide_n, self.torsion_free_iff]
        if self.flat_prediction_ok is not None:
            checks.append(self.flat_prediction_ok)
        return all(checks)

    def to_json(self) -> dict:
        out = {f.name: getattr(self, f.name) for f in fields(self) if f.name != "group"}
        out.update(h1=str(self.group), rank=self.group.free_rank,
                   torsion=list(self.group.torsion), all_hold=self.all_hold())
        return out


def probe_conjecture(inc: IncidenceData) -> ConjectureReport:
    g = boundary_graph(inc)
    group = homology_of_graph(g)
    n = inc.n
    flat = all(point_genus(p.multiplicity, n) == 0 for p in inc.points)
    chi = projective_complement_euler(inc)
    prediction = None
    if flat and chi >= 0:
        prediction = group.torsion == ((n,) * chi if chi else ())
    torsion_free = group.is_torsion_free
    pencil = is_pencil(inc)
    near = is_near_pencil(inc)
    return ConjectureReport(
        n=n,
        group=group,
        betti_matches=group.free_rank == betti_formula(inc),
        flat_hypothesis=flat,
        complement_euler=chi,
        flat_prediction_ok=prediction,
        orders_divide_n=all(n % d == 0 for d in group.torsion),
        torsion_free=torsion_free,
        pencil_like=pencil,
        near_pencil_like=near,
        torsion_free_iff=torsion_free == (pencil or near),
    )
