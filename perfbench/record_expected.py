"""Record the answers the benchmark checks against, into expected.json.

    python3 perfbench/record_expected.py

Run this only on a commit whose answers are trusted: the benchmark treats
the file as ground truth.  Every answer is computed on the raw and on the
reduced boundary graph, and recording stops unless the two agree and the
rank equals the Betti formula.

The random pool is stored sorted by n, then by the recording commit's item
time, so that consecutive entries form the cost strata inputs.random_draw
samples from.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
import time

import inputs

ROOT = os.path.dirname(inputs.HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

from mfboundary import (  # noqa: E402
    ProjLine,
    betti_formula,
    boundary_graph,
    generate_family,
    homology_of_graph,
    incidence_from_lines,
)

FAMILIES = (
    [("generic", n) for n in range(4, 13)]
    + [("pencil", n) for n in range(4, 9)] + [("pencil", 40)]
    + [("near_pencil", n) for n in range(4, 9)] + [("near_pencil", 12), ("near_pencil", 30)]
)
POOL_SEED = 20240402
POOL_PER_N = inputs.STRATUM * 17
GENERIC_CHECK_NS = (4, 10)


def arrangement(lines: list[list[int]]):
    return incidence_from_lines([ProjLine.from_coeffs(c, i) for i, c in enumerate(lines)])


def item_seconds(lines: list[list[int]]) -> float:
    """Best of three raw item times."""
    best = float("inf")
    for _ in range(3):
        t = time.perf_counter()
        homology_of_graph(boundary_graph(arrangement(lines)))
        best = min(best, time.perf_counter() - t)
    return best


def answer(lines: list[list[int]]) -> dict:
    inc = arrangement(lines)
    raw = homology_of_graph(boundary_graph(inc))
    reduced = homology_of_graph(boundary_graph(inc, reduce=True))
    if raw != reduced or raw.free_rank != betti_formula(inc):
        raise SystemExit(f"inconsistent answers for {lines}: {raw} vs {reduced}")
    return {"rank": raw.free_rank, "torsion": list(raw.torsion)}


def main() -> None:
    families = {}
    for kind, n in FAMILIES:
        lines = inputs.family_lines(kind, n, random.Random(0))
        inc = arrangement(lines)
        if sorted(inc.multiplicities) != sorted(generate_family(kind, n).multiplicities):
            raise SystemExit(f"{kind} {n}: realisation has the wrong combinatorics")
        families[f"{kind}/{n}"] = answer(lines)
    rng = random.Random(POOL_SEED)
    pool = []
    for n in inputs.RANDOM_NS:
        group = [inputs.random_lines(n, rng) for _ in range(POOL_PER_N)]
        group.sort(key=item_seconds)
        pool += [{"n": n, "lines": lines, **answer(lines)} for lines in group]
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    generic_check = {}
    for max_n in GENERIC_CHECK_NS:
        out = subprocess.run(
            [sys.executable, "-m", "mfboundary.cli", "generic-check", "--max-n", str(max_n)],
            capture_output=True, text=True, env=env, check=True, timeout=600,
        )
        generic_check[str(max_n)] = out.stdout
    with open(inputs.EXPECTED_PATH, "w") as fh:
        json.dump({"families": families, "random_pool": pool,
                   "generic_check": generic_check}, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
