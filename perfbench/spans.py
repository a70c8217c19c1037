"""The traced route: the pipeline called stage by stage, one span per call.

Spans are kept in memory as [name, item, parent, start, end] and written
out when the run ends.  A layer's self time is the duration of its spans
minus the part covered by their child spans.  Only the benchmark's own
calls into the program's public functions are wrapped; nothing inside the
program is instrumented, so stages that one public function runs inside
another (the H1 recomputation of apply_script, say) count toward the
caller.

Counts are taken after the item's span has closed, so that their own cost
stays out of the traced time.
"""

from __future__ import annotations

import contextlib
import json
import time

# Layers with a span, in pipeline order; "item" is the root of every item.
LAYERS = (
    "arrangement",
    "curve_config",
    "pipeline.insert",
    "pipeline.euler",
    "pipeline.strip",
    "reduction",
    "calculus",
    "homology.matrix",
    "homology.snf",
    "generic_algebra",
)
COUNTS = (
    "arrangement.points",
    "curve_config.V",
    "curve_config.E",
    "strings.vertices",
    "pipeline.V",
    "pipeline.E",
    "reduction.moves",
    "reduction.V",
    "reduction.E",
    "calculus.moves",
    "homology.matrix.dim",
    "homology.matrix.nnz",
    "homology.snf.calls",
    "homology.snf.torsion",
)
_OFF = contextlib.nullcontext()


class Tracer:
    """Span and count recorder; a disabled one records nothing."""

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self.spans: list[list] = []
        self.counts: list[tuple[str, str, int]] = []
        self._stack: list[int] = []

    def span(self, name: str, item: str):
        return self._span(name, item) if self.enabled else _OFF

    @contextlib.contextmanager
    def _span(self, name: str, item: str):
        parent = self._stack[-1] if self._stack else None
        row = [name, item, parent, time.perf_counter(), None]
        self._stack.append(len(self.spans))
        self.spans.append(row)
        try:
            yield
        finally:
            row[4] = time.perf_counter()
            self._stack.pop()

    def count(self, item: str, name: str, value: int) -> None:
        if self.enabled:
            self.counts.append((item, name, value))

    def self_times(self) -> list[tuple[str, str, float]]:
        """(name, item, self seconds) for every span."""
        child = [0.0] * len(self.spans)
        for name, item, parent, start, end in self.spans:
            if parent is not None:
                child[parent] += end - start
        return [
            (name, item, end - start - child[k])
            for k, (name, item, parent, start, end) in enumerate(self.spans)
        ]

    def item_walls(self) -> list[float]:
        return [end - start for name, _, _, start, end in self.spans if name == "item"]


def staged_item(mf, inc_of, reduce: bool, tr: Tracer, item: str):
    """Arrangement to H1 stage by stage.  inc_of() builds the arrangement
    inside the arrangement span.  Returns (incidence, group)."""
    with tr.span("item", item):
        with tr.span("arrangement", item):
            inc = inc_of()
        with tr.span("curve_config", item):
            gc = mf.build_gamma_c(inc)
        with tr.span("pipeline.insert", item):
            dg = mf.decorate_and_insert(gc)
        with tr.span("pipeline.euler", item):
            eg = mf.solve_euler(dg)
        with tr.span("pipeline.strip", item):
            raw = mf.strip_arrowheads(eg)
        g = raw
        if reduce:
            with tr.span("reduction", item):
                g = mf.reduce_double_chains(raw, inc)
        with tr.span("homology.matrix", item):
            A = mf.incidence_matrix(g)
        with tr.span("homology.snf", item):
            snf = mf.smith_normal_form(A)
        # the assembly homology_of_graph does after the Smith form
        free = snf.corank + 2 * sum(v.genus for v in g.vertices) + mf.first_betti_of_graph(g)
        group = mf.AbelianGroup(free, tuple(d for d in snf.factors if d >= 2))
    if tr.enabled:
        tr.count(item, "arrangement.points", len(inc.points))
        tr.count(item, "curve_config.V", len(gc.vertices))
        tr.count(item, "curve_config.E", len(gc.edges))
        tr.count(item, "strings.vertices", sum(v.kind == "string" for v in dg.vertices))
        tr.count(item, "pipeline.V", len(raw.vertices))
        tr.count(item, "pipeline.E", len(raw.edges))
        if reduce:
            # reduce_double_chains runs double_chain_script once per double
            # point; no chain's script depends on the reduction of another.
            moves = sum(
                len(mf.double_chain_script(raw, inc, j))
                for j, p in enumerate(inc.points) if p.multiplicity == 2
            )
            tr.count(item, "reduction.moves", moves)
            tr.count(item, "reduction.V", len(g.vertices))
            tr.count(item, "reduction.E", len(g.edges))
        tr.count(item, "homology.matrix.dim", len(A))
        tr.count(item, "homology.matrix.nnz", sum(1 for row in A for x in row if x))
        tr.count(item, "homology.snf.calls", 1)
        tr.count(item, "homology.snf.torsion", len(group.torsion))
    return inc, group


# -- in-process replays of the CLI items ------------------------------------

def replay_homology(mf, path: str, reduce: bool, tr: Tracer, item: str):
    """What `mfboundary homology PATH --json [--reduce]` prints, less the
    graph statistics."""
    inc, group = staged_item(mf, lambda: mf.load_arrangement(path), reduce, tr, item)
    payload = {"h1": str(group), "rank": group.free_rank,
               "factors": list(group.torsion), "betti_formula": mf.betti_formula(inc)}
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def replay_generic_check(mf, max_n: int, tr: Tracer, item: str) -> str:
    """What `mfboundary generic-check --max-n MAX_N` prints when every
    check passes."""
    lines = []
    with tr.span("item", item):
        for n in range(2, max_n + 1):
            with tr.span("generic_algebra", item):
                factors, corank = mf.expected_An_factors(n)
                An = mf.build_An(n)
            with tr.span("homology.snf", item):
                snf = mf.smith_normal_form(An)
            with tr.span("generic_algebra", item):
                lemma_ok = n < 3 or all(mf.check_lemma_identities(n).values())
                closed = mf.generic_h1_closed_form(n)
            free = snf.corank + (n - 1) * (n - 2) // 2
            ok = (lemma_ok and (snf.factors, snf.corank) == (factors, corank)
                  and (free, tuple(d for d in snf.factors if d >= 2))
                  == (closed.free_rank, closed.torsion))
            lines.append(f"{'PASS' if ok else 'FAIL'} n={n}: H1 = {closed}")
    tr.count(item, "homology.snf.calls", max_n - 1)
    return "\n".join(lines) + "\n"


def replay_calculus(mf, graph_path: str, script_path: str, tr: Tracer, item: str):
    """What `mfboundary calculus GRAPH --script SCRIPT --check-h1` prints."""
    with tr.span("item", item):
        with open(graph_path) as fh:
            g = mf.graph_from_json(json.load(fh))
        with open(script_path) as fh:
            script = [mf.MoveSpec.from_json(row) for row in json.load(fh)]
        with tr.span("calculus", item):
            out = mf.apply_script(g, script, check_h1=True)
        text = json.dumps(mf.graph_to_json(out), indent=2, sort_keys=True) + "\n"
    tr.count(item, "calculus.moves", len(script))
    return text
