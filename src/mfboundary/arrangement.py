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
from typing import Iterable, Sequence

from .errors import (IdenticalLines, InvalidIncidence, InvalidInput, InvalidSize,
                     reject_unknown_keys)
from .record import Record

Triple = tuple[int, int, int]


def _primitive(ints: Sequence[int]) -> Triple:
    """Canonical representative of a nonzero integer triple: content 1,
    first nonzero entry positive."""
    a, b, c = ints
    g = math.gcd(a, b, c)
    if g == 0:
        raise InvalidInput("zero vector does not define a projective object")
    if (a or b or c) < 0:  # the first nonzero entry
        g = -g
    return (a // g, b // g, c // g)


_RATIONAL = re.compile(r"([+-]?[0-9]+)(?:/([0-9]+))?")


def _parse_rational(value) -> tuple[int, int]:
    """(p, q), q > 0, for an int, a Fraction (any non-bool value with int
    numerator and denominator) or a "p" or "p/q" string of decimal digits.
    No floats or exponents: "1e600000" would be a 600001-digit integer."""
    num, den = getattr(value, "numerator", None), getattr(value, "denominator", None)
    if type(num) is int and type(den) is int and den > 0 and not isinstance(value, bool):
        return num, den
    m = _RATIONAL.fullmatch(value) if isinstance(value, str) else None
    if m is None:
        raise InvalidInput(f"not a rational coefficient: {value!r}")
    try:  # int() refuses more than 4300 digits
        num, den = int(m[1]), int(m[2] or 1)
        if den:
            return num, den
    except ValueError:
        pass
    raise InvalidInput(f"cannot parse rational {value!r}")


class ProjLine(Record):
    """A projective line a*x + b*y + c*z = 0 with a 0-based label."""

    coeffs: Triple
    label: int

    @classmethod
    def from_coeffs(cls, coeffs: Sequence, label: int = 0) -> "ProjLine":
        if not isinstance(coeffs, (list, tuple)):
            raise InvalidInput(f"a line is a list of three coefficients, got {coeffs!r}")
        if len(coeffs) != 3:  # before parsing, which a long row makes slow
            raise InvalidInput(f"expected 3 coordinates, got {len(coeffs)}")
        pairs = [_parse_rational(c) for c in coeffs]
        denom = math.lcm(*(q for _, q in pairs))
        return cls(_primitive([p * (denom // q) for p, q in pairs]), label)


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


class MultiPoint(tuple):
    """An intersection point of the arrangement, recorded combinatorially:
    the sorted tuple of labels of all lines through it.  It is that tuple
    itself, so it costs no more than one."""

    __slots__ = ()

    def __new__(cls, lines: Iterable[int]):
        return super().__new__(cls, sorted(lines))

    @property
    def lines(self) -> tuple[int, ...]:
        return self

    @property
    def multiplicity(self) -> int:
        return len(self)


class IncidenceData(Record):
    """Incidence combinatorics of an arrangement of n projective lines.

    Invariants checked at construction:
      * every point lists at least two distinct lines, all in range;
      * every unordered pair of lines lies on exactly one common point.

    Points are kept sorted by their line tuple, which keeps everything
    downstream deterministic.
    """

    n: int
    points: tuple[MultiPoint, ...]

    def __new__(cls, n: int, points: Iterable[MultiPoint]):
        self = tuple.__new__(cls, (cls, n, tuple(sorted(points))))
        self._validate()
        return self

    def _validate(self):
        # memory O(sum of multiplicities) whatever n: each line on a point marks
        # the higher lines it meets, testing them against its largest point's set
        n, pts = self.n, [p.lines for p in self.points]
        if type(n) is not int:  # not a bool either
            raise InvalidInput(f"n must be an integer, got {n!r}")
        if n < 1:
            raise InvalidSize(f"need at least one line, got n={n}")
        if not set(map(type, itertools.chain.from_iterable(pts))) <= {int}:  # not a bool either
            idx, i = next((idx, i) for idx, p in enumerate(pts) for i in p if type(i) is not int)
            raise InvalidInput(f"point {idx} has line index {i!r}, not an integer")
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
        size = list(map(len, pts)).__getitem__  # the multiplicity of each point
        for i, on in sorted(through.items()):
            big = max(on, key=size)
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
            if sum(map(size, on)) - len(on) < n - 1:
                seen = set().union(*(pts[q] for q in on))
                j = next(j for j in range(i + 1, n) if j not in seen)
                raise InvalidIncidence(f"line pair {(i, j)} meets no point")

    @property
    def multiplicities(self) -> tuple[int, ...]:
        return tuple(p.multiplicity for p in self.points)


def incidence_from_lines(lines: Sequence[ProjLine]) -> IncidenceData:
    """Group the pairwise intersections of distinct lines into multiple
    points.  A point is found from its first line, and no pair of its other
    lines is intersected again, which needs the lines distinct: a first
    check raises at the first coincident pair."""
    if len(lines) < 1:
        raise InvalidSize("need at least one line")
    # type(x) is int: a bool label equals 0 or 1 but is no index
    if any(type(l.label) is not int or l.label != k for k, l in enumerate(lines)):
        raise InvalidInput("line labels must be 0..n-1 in order")
    classes = {_primitive(l.coeffs) if any(l.coeffs) else None for l in lines}
    if None in classes or len(classes) < len(lines):
        for l1, l2 in itertools.combinations(lines, 2):
            intersect_lines(l1, l2)  # raises at the first coincident pair
    met: list[set[int]] = [set() for _ in lines]  # the lines each meets at a point found
    points = []
    for i, l1 in enumerate(lines):
        on: dict[Triple, list[int]] = {}  # the points of line i found now, with their lines
        for j in range(i + 1, len(lines)):
            if j not in met[i]:
                on.setdefault(intersect_lines(l1, lines[j]), [i]).append(j)
        for through in on.values():
            points.append(MultiPoint(through))
            for k in through[1:]:
                met[k].update(through)
    return IncidenceData(len(lines), points)


# The largest n generate_family accepts.  A generic family has n(n-1)/2
# points: n = 200 builds in 0.04 s, already far past what the pipeline
# finishes (raw generic n = 60, 104490 vertices, needs 0.8 s to build the
# graph and 0.6-0.9 s for its H1, and both grow about as n^4), while
# n = 2000 takes 6 s and 280 MB of peak RSS only to build (2-core VM,
# Python 3.11).
MAX_FAMILY_LINES = 200

# the kinds generate_family knows
FAMILIES = ("generic", "pencil", "near_pencil")


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

    Any other key, or keys of both forms, raise: either would drop part of
    the arrangement without a word.
    """
    if not isinstance(obj, dict):
        raise InvalidInput("arrangement JSON must be an object")
    reject_unknown_keys(obj, ("lines", "n", "points"), "arrangement")
    if "lines" in obj and len(obj) > 1:
        raise InvalidInput('arrangement JSON gives "lines" and "n"/"points": give one form')
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
        return IncidenceData(n, tuple(map(MultiPoint, pts)))
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
