"""String graphs: the chains of rational vertices that replace the edges of
a curve-configuration graph.

For parameters (a, b, c) with gcd(a, b, c) = 1 the chain of type
(i, j, k) = (0, 0, 1) is determined by the congruence

    b + lambda * a/(a,c)  =  m1 * c/(a,c),   0 <= lambda < c/(a,c),

whose unique solution gives the first interior multiplicity m1.  When
lambda = 0 the chain is empty (the two ends are joined directly); otherwise
the interior Euler data is the negative continued fraction expansion of
c/(a,c) over lambda and the interior multiplicities follow a three-term
recurrence seeded by m1 and a/(a,c).
"""

from __future__ import annotations

import math

from .errors import InternalError, InvalidInput, InvalidSize, NoSolution
from .record import Record

# longest continued fraction expanded: the pipeline needs at most n - 1
# terms, and Str(3, 5; 10^20) would need about 6.7e18
MAX_CF_TERMS = 10**6


def solve_lambda(a: int, b: int, c: int) -> tuple[int, int]:
    """Solve b + lambda*(a/(a,c)) == m1*(c/(a,c)) with 0 <= lambda < c/(a,c).

    Returns (lambda, m1).  Requires a, b, c >= 1 and gcd(a, b, c) == 1;
    the solution exists and is unique because a/(a,c) is invertible mod
    c/(a,c).
    """
    if a < 1 or b < 1 or c < 1:
        raise InvalidInput(f"string parameters must be positive: ({a}, {b}, {c})")
    if math.gcd(a, b, c) != 1:
        raise InvalidInput(f"string parameters must be coprime: ({a}, {b}, {c})")
    d = math.gcd(a, c)
    a1, c1 = a // d, c // d
    lam = (-b * pow(a1, -1, c1)) % c1
    num = b + lam * a1
    if num % c1 != 0:
        raise NoSolution(f"no admissible lambda for ({a}, {b}, {c})")
    m1 = num // c1
    if m1 < 1:
        raise NoSolution(f"non-positive first multiplicity for ({a}, {b}, {c})")
    return lam, m1


def hj_continued_fraction(p: int, q: int) -> list[int]:
    """Negative (Hirzebruch-Jung) continued fraction of p/q:

        p/q = k1 - 1/(k2 - 1/(... - 1/ks)),  all ki >= 2.

    Requires 0 < q <= p.  Computed by repeated ceiling division; more
    than MAX_CF_TERMS terms raise InvalidSize.
    """
    if q < 1 or p < q:
        raise InvalidInput(f"need 0 < q <= p, got p={p}, q={q}")
    # a common factor of p and q drops out: the ceiling-division orbit only
    # sees the ratio
    terms = []
    while q:
        k = -(-p // q)
        terms.append(k)
        if len(terms) > MAX_CF_TERMS:
            raise InvalidSize(f"continued fraction longer than {MAX_CF_TERMS} terms")
        p, q = q, k * q - p
    return terms


class StringGraph(Record):
    """One computed chain.

    cf_terms        negative continued fraction of c/(a,c) over lambda,
                    empty when lambda = 0;
    interior_mults  multiplicities of the interior vertices, same length;
    end_mults       (a/(a,c), b/(b,c)), the multiplicities the two attached
                    ends are expected to carry.

    Interior vertices carry no Euler numbers here; those are recovered
    later from the multiplicities (for an all-minus chain the local formula
    yields e_i = +k_i, since m_{i-1} + m_{i+1} = k_i * m_i).
    """

    a: int
    b: int
    c: int
    lam: int
    m1: int
    cf_terms: tuple[int, ...]
    interior_mults: tuple[int, ...]
    end_mults: tuple[int, int]

    @property
    def is_double_arrow(self) -> bool:
        return not self.interior_mults


def build_string(a: int, b: int, c: int) -> StringGraph:
    """Compute the chain Str(a, b; c) of type (0, 0, 1), the only type
    arising for arrangement boundaries; the pipeline signs its edges -.
    """
    lam, m1 = solve_lambda(a, b, c)
    d = math.gcd(a, c)
    a1, c1 = a // d, c // d
    ends = (a1, b // math.gcd(b, c))
    if lam == 0:
        return StringGraph(a, b, c, 0, m1, (), (), ends)
    cf = hj_continued_fraction(c1, lam)
    mults = [m1]
    prev = a1  # the multiplicity the chain sees behind its first vertex
    for k in cf[:-1]:
        mults.append(k * mults[-1] - prev)
        prev = mults[-2]
    if any(m < 1 for m in mults):
        raise NoSolution(f"non-positive interior multiplicity for ({a}, {b}, {c})")
    # the recurrence extended across the last vertex must reproduce the
    # multiplicity at the far end; a failure here is a bug, not bad input
    tail = cf[-1] * mults[-1] - (mults[-2] if len(mults) > 1 else a1)
    if tail != ends[1]:
        raise InternalError(
            f"string ({a}, {b}; {c}) with cf {cf} and multiplicities {mults} "
            f"ends in {tail}, not {ends[1]}"
        )
    return StringGraph(a, b, c, lam, m1, tuple(cf), tuple(mults), ends)
