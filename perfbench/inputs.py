"""Seeded inputs and the stored answers they are checked against.

Every item is an arrangement given by explicit integer line coefficients,
which is all the program under test ever sees.  Named families are built
from a canonical configuration, then a seeded relabeling of the lines and a
seeded invertible integer change of coordinates.  Three lines are
concurrent exactly when their coefficient vectors are linearly dependent,
and an invertible linear map keeps that, so every seed gives new
coefficients with the same incidence combinatorics and the same answer.

Random arrangements come from a fixed pool stored in expected.json, sorted
by n and then by cost, so that consecutive runs of STRATUM entries are
cost strata.  A seed draws one arrangement from every stratum: two seeds
give different item lists with the same n distribution and nearly the same
cost profile, which keeps the figures of different seeds comparable.
"""

from __future__ import annotations

import json
import math
import os
import random

HERE = os.path.dirname(os.path.abspath(__file__))
EXPECTED_PATH = os.path.join(HERE, "expected.json")

# Random arrangements: n uniform over this range, coefficients from a box
# small enough that triple and higher points are common.
RANDOM_NS = range(5, 11)
RANDOM_BOX = 2
STRATUM = 3


def family_lines(kind: str, n: int, rng: random.Random) -> list[list[int]]:
    """Integer coefficients of a seeded realisation of a named family.

    generic      lines x + t*y + t^2*z, distinct t: dual points on a conic,
                 so no three lines meet;
    pencil       lines x + t*y, all through (0:0:1);
    near_pencil  n-1 of those plus the line z = 0.
    """
    pencil_n = n if kind == "pencil" else n - 1
    ts = rng.sample(range(-60, 61), n if kind == "generic" else pencil_n)
    if kind == "generic":
        lines = [(1, t, t * t) for t in ts]
    elif kind in ("pencil", "near_pencil"):
        lines = [(1, t, 0) for t in ts]
        if kind == "near_pencil":
            lines.append((0, 0, 1))
    else:
        raise ValueError(f"unknown family {kind!r}")
    rng.shuffle(lines)
    m = _invertible_matrix(rng)
    return [[sum(m[r][k] * c[k] for k in range(3)) for r in range(3)] for c in lines]


def _invertible_matrix(rng: random.Random) -> list[list[int]]:
    while True:
        m = [[rng.randint(-3, 3) for _ in range(3)] for _ in range(3)]
        det = (
            m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
            - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
            + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0])
        )
        if det:
            return m


def random_lines(n: int, rng: random.Random) -> list[list[int]]:
    """n pairwise distinct lines with coefficients in [-RANDOM_BOX, RANDOM_BOX]."""
    seen: set[tuple[int, int, int]] = set()
    out: list[list[int]] = []
    while len(out) < n:
        raw = [rng.randint(-RANDOM_BOX, RANDOM_BOX) for _ in range(3)]
        key = _projective_key(raw)
        if key is None or key in seen:
            continue
        seen.add(key)
        out.append(raw)
    return out


def _projective_key(v: list[int]):
    nz = [x for x in v if x]
    if not nz:
        return None
    g = math.gcd(*nz)
    sign = 1 if nz[0] > 0 else -1
    return tuple(sign * x // g for x in v)


def load_expected() -> dict:
    with open(EXPECTED_PATH) as fh:
        return json.load(fh)


def random_draw(pool: list[dict], rng: random.Random) -> list[dict]:
    """One pool entry from every stratum, in seeded order."""
    picked = [rng.choice(pool[i:i + STRATUM]) for i in range(0, len(pool), STRATUM)]
    rng.shuffle(picked)
    return picked
