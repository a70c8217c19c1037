"""Central plane arrangements in C^3, handled through their projectivized
line arrangements in the projective plane.

Line coefficients are parsed as exact rationals; lines and points are stored
as primitive integer triples with the first nonzero entry positive, so
equality of projective objects is plain tuple equality.  The combinatorial
outcome of an arrangement is an IncidenceData: the list of intersection
points, each with the set of lines through it.
"""

from __future__ import annotations

import itertools
import json
import math
import random
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .errors import IdenticalLines, InvalidIncidence, InvalidInput, InvalidSize

Triple = tuple[int, int, int]


def _primitive(ints: Sequence[int]) -> Triple:
    """Canonical representative of a nonzero integer triple: content 1,
    first nonzero entry positive."""
    g = math.gcd(*ints)
    if g == 0:
        raise InvalidInput("zero vector does not define a projective object")
    if next(v for v in ints if v) < 0:
        g = -g
    a, b, c = ints
    return (a // g, b // g, c // g)


_RATIONAL = re.compile(r"[+-]?[0-9]+(/[0-9]+)?")


def _parse_rational(value) -> Fraction:
    # accepts ints, Fractions and "p" or "p/q" strings of decimal digits;
    # floats and exponents are rejected on purpose: exactness is the whole
    # point, and "1e600000" would expand to a 600001-digit integer
    if isinstance(value, bool):
        raise InvalidInput(f"not a rational coefficient: {value!r}")
    if isinstance(value, (int, Fraction)):
        return Fraction(value)
    if isinstance(value, str) and _RATIONAL.fullmatch(value):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise InvalidInput(f"cannot parse rational {value!r}") from exc
    raise InvalidInput(f"not a rational coefficient: {value!r}")


@dataclass(frozen=True)
class ProjLine:
    """A projective line a*x + b*y + c*z = 0 with a 0-based label."""

    coeffs: Triple
    label: int

    @classmethod
    def from_coeffs(cls, coeffs: Sequence, label: int = 0) -> "ProjLine":
        if len(coeffs) != 3:  # before parsing, which a long row makes slow
            raise InvalidInput(f"expected 3 coordinates, got {len(coeffs)}")
        fracs = [_parse_rational(c) for c in coeffs]
        denom = math.lcm(*(f.denominator for f in fracs))
        return cls(_primitive([f.numerator * (denom // f.denominator) for f in fracs]), label)


def intersect_lines(l1: ProjLine, l2: ProjLine) -> Triple:
    """Intersection point of two distinct lines: the primitive cross product of
    their coefficient vectors.  Raises IdenticalLines when they coincide."""
    a, b = l1.coeffs, l2.coeffs
    cross = (
        a[1] * b[2] - a[2] * b[1],
        a[2] * b[0] - a[0] * b[2],
        a[0] * b[1] - a[1] * b[0],
    )
    if cross == (0, 0, 0):
        raise IdenticalLines(f"lines {l1.label} and {l2.label} coincide")
    return _primitive(cross)


@dataclass(frozen=True, slots=True)
class MultiPoint:
    """An intersection point of the arrangement, recorded combinatorially:
    the sorted tuple of labels of all lines through it."""

    lines: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "lines", tuple(sorted(self.lines)))

    @property
    def multiplicity(self) -> int:
        return len(self.lines)


@dataclass(frozen=True)
class IncidenceData:
    """Incidence combinatorics of an arrangement of n projective lines.

    Invariants checked at construction:
      * every point lists at least two distinct lines, all in range;
      * every unordered pair of lines lies on exactly one common point.

    Points are kept sorted by their line tuple, which keeps everything
    downstream deterministic.
    """

    n: int
    points: tuple[MultiPoint, ...]

    def __post_init__(self):
        object.__setattr__(
            self, "points", tuple(sorted(self.points, key=lambda p: p.lines))
        )
        self._validate()

    def _validate(self):
        # memory O(sum of multiplicities) whatever n: each line on a point marks
        # the higher lines it meets, testing them against its largest point's set
        n, pts = self.n, [p.lines for p in self.points]
        if n < 1:
            raise InvalidSize(f"need at least one line, got n={n}")
        through: dict[int, list[int]] = {}  # the points on each line
        fault = None
        for idx, lines in enumerate(pts):
            if len(lines) < 2:
                fault = f"point {idx} has fewer than two lines"
            elif len(set(lines)) != len(lines):
                fault = f"point {idx} repeats a line"
            elif lines[0] < 0 or lines[-1] >= n:  # lines are sorted
                i = next(i for i in lines if not 0 <= i < n)
                fault = f"point {idx} references line {i}, out of range"
            if fault:
                del pts[idx:]  # a pair repeated before the faulty point comes first
                break
            for i in lines:
                through.setdefault(i, []).append(idx)
        marker, first_on, sets = {}, {}, {}
        for i, on in sorted(through.items()):
            big = max(on, key=lambda q: len(pts[q]))
            if big not in sets:
                sets[big] = set(pts[big])
            for q in on:
                for j in pts[q] if q != big else ():
                    if j <= i:
                        continue
                    if marker.get(j) == i or j in sets[big]:
                        p = first_on[j] if marker.get(j) == i else big
                        raise InvalidIncidence(
                            f"line pair {(i, j)} appears on points {min(p, q)} and {max(p, q)}")
                    marker[j], first_on[j] = i, q
        if fault:
            raise InvalidIncidence(fault)
        for i in range(n):  # stops at the first line that misses one
            on = through.get(i, ())
            if sum(len(pts[q]) - 1 for q in on) < n - 1:
                seen = set().union(*(pts[q] for q in on))
                j = next(j for j in range(i + 1, n) if j not in seen)
                raise InvalidIncidence(f"line pair {(i, j)} meets no point")

    @property
    def multiplicities(self) -> tuple[int, ...]:
        return tuple(p.multiplicity for p in self.points)


def incidence_from_lines(lines: Sequence[ProjLine]) -> IncidenceData:
    """Group the pairwise intersections of distinct lines into multiple
    points.  Two pairs meeting at the same projective point merge."""
    if len(lines) < 1:
        raise InvalidSize("need at least one line")
    labels = [l.label for l in lines]
    if labels != list(range(len(lines))):
        raise InvalidInput("line labels must be 0..n-1 in order")
    by_point: dict[Triple, set[int]] = {}
    for l1, l2 in itertools.combinations(lines, 2):
        by_point.setdefault(intersect_lines(l1, l2), set()).update((l1.label, l2.label))
    points = tuple(MultiPoint(tuple(sorted(s))) for s in by_point.values())
    return IncidenceData(len(lines), points)


# The largest n generate_family accepts.  A generic family has n(n-1)/2
# points: n = 200 builds in 0.4 s, already far past what the pipeline
# finishes (raw generic n = 24 needs 4 s of Smith form), while n = 2000
# takes 21 s and 70 MB only to build (2-core VM, Python 3.11).
MAX_FAMILY_LINES = 200


def generate_family(kind: str, n: int) -> IncidenceData:
    """Combinatorial models of the three named families.

    generic      all points double, one per pair of lines;
    pencil       all n lines through a single point;
    near_pencil  lines 0..n-2 through one point, line n-1 generic to them.
    """
    if not 2 <= n <= MAX_FAMILY_LINES:
        raise InvalidSize(f"family {kind!r} needs 2 <= n <= {MAX_FAMILY_LINES}, got {n}")
    if kind == "generic":
        points = tuple(
            MultiPoint(pair) for pair in itertools.combinations(range(n), 2)
        )
    elif kind == "pencil":
        points = (MultiPoint(tuple(range(n))),)
    elif kind == "near_pencil":
        if n < 3:
            raise InvalidSize("near_pencil needs n >= 3")
        big = MultiPoint(tuple(range(n - 1)))
        doubles = tuple(MultiPoint((i, n - 1)) for i in range(n - 1))
        points = (big,) + doubles
    else:
        raise InvalidInput(f"unknown family kind {kind!r}")
    return IncidenceData(n, points)


def is_generic(inc: IncidenceData) -> bool:
    """True when every intersection point is an ordinary double point."""
    return all(p.multiplicity == 2 for p in inc.points)


def is_pencil(inc: IncidenceData) -> bool:
    """True when all lines pass through a single point."""
    return len(inc.points) == 1 and inc.points[0].multiplicity == inc.n


def is_near_pencil(inc: IncidenceData) -> bool:
    """True when n >= 3 and n - 1 lines pass through one point, which the
    remaining line meets in n - 1 double points.  The n = 3 triangle is
    one, and generic too."""
    if inc.n < 3 or len(inc.points) != inc.n:
        return False
    mults = sorted(p.multiplicity for p in inc.points)
    return mults == [2] * (inc.n - 1) + [inc.n - 1]


# distinct projective lines with coefficients in the box [-2, 2]^3
RANDOM_BOX_LINES = 49


def random_rational_lines(n: int, rng: random.Random) -> list[ProjLine]:
    """n pairwise distinct lines with small integer coefficients.

    Coefficients are drawn from a deliberately small box so that coincident
    intersections (triple and higher points) actually occur.  The box holds
    only RANDOM_BOX_LINES distinct lines, so larger n is refused.
    """
    if n < 2:
        raise InvalidSize("need n >= 2")
    if n > RANDOM_BOX_LINES:
        raise InvalidSize(
            f"random arrangements have at most {RANDOM_BOX_LINES} lines, "
            f"the distinct lines with coefficients in [-2, 2]; got n = {n}"
        )
    seen: set[Triple] = set()
    lines: list[ProjLine] = []
    while len(lines) < n:
        raw = [rng.randint(-2, 2) for _ in range(3)]
        if all(v == 0 for v in raw):
            continue
        triple = _primitive(raw)
        if triple in seen:
            continue
        seen.add(triple)
        lines.append(ProjLine(triple, len(lines)))
    return lines


# -- JSON input -------------------------------------------------------------

def arrangement_from_json(obj: dict) -> IncidenceData:
    """Accept either explicit lines or bare incidence combinatorics.

      {"lines": [[a,b,c], ...]}        coefficients as ints or "p/q" strings
      {"n": 5, "points": [[0,1,2], ...]}
    """
    if not isinstance(obj, dict):
        raise InvalidInput("arrangement JSON must be an object")
    if "lines" in obj:
        rows = obj["lines"]
        if not isinstance(rows, list) or not rows:
            raise InvalidInput('"lines" must be a non-empty list')
        for row in rows:
            if not isinstance(row, list):
                raise InvalidInput(f"a line is a list of three coefficients, got {row!r}")
        lines = [ProjLine.from_coeffs(row, i) for i, row in enumerate(rows)]
        return incidence_from_lines(lines)
    if "points" in obj:
        if "n" not in obj:
            raise InvalidInput('"points" form needs an "n" field')
        n = obj["n"]
        if type(n) is not int:  # not a bool either
            raise InvalidInput('"n" must be an integer')
        pts = obj["points"]
        if not isinstance(pts, list):
            raise InvalidInput('"points" must be a list')
        for p in pts:
            if not isinstance(p, list) or not all(type(i) is int for i in p):
                raise InvalidInput(f"a point is a list of line indices, got {p!r}")
        return IncidenceData(n, tuple(MultiPoint(tuple(p)) for p in pts))
    raise InvalidInput('arrangement JSON needs "lines" or "points"')


def load_json(path: str):
    """The JSON value in a file.  Text that is not UTF-8 or not JSON, an
    integer literal too long for int() and nesting too deep for the parser
    raise InvalidInput."""
    with open(path) as fh:
        try:
            return json.load(fh)
        except (ValueError, RecursionError) as exc:
            raise InvalidInput(f"invalid JSON in {path}: {exc}") from exc


def load_arrangement(path: str) -> IncidenceData:
    return arrangement_from_json(load_json(path))


def incidence_to_json(inc: IncidenceData) -> dict:
    return {"n": inc.n, "points": [list(p.lines) for p in inc.points]}
