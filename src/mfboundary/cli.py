"""Command line interface.

Subcommands mirror the pipeline stages: generate an arrangement, inspect
its curve-configuration graph, build the closed plumbing graph, run
calculus scripts, and compute homology and the closed-form checks.  All
output is deterministic; errors leave a one-line JSON object on stderr and
a nonzero exit code.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from typing import Optional

from . import __version__
from .arrangement import (
    FAMILIES,
    IncidenceData,
    arrangement_from_json,
    generate_family,
    incidence_from_lines,
    incidence_to_json,
    load_json,
    random_rational_lines,
)
from .calculus import MoveSpec, apply_script
from .errors import InvalidInput, InvalidSize, MFBoundaryError, file_error
from .generic_algebra import (
    An_rows,
    check_lemma_identities,
    expected_An_factors,
    generic_h1_closed_form,
)
from .graph_core import PlumbingGraph, graph_from_json, graph_to_json, to_dot
from .homology import homology_with_stats, smith_form_of_rows
from .pipeline import betti_formula, boundary_graph, build_gamma_c, probe_conjecture
from .strings import build_string


def _emit(text: str, path: Optional[str]):
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _dump(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _load_any(path: str) -> tuple[Optional[IncidenceData], Optional[PlumbingGraph]]:
    """Accept an arrangement file or a graph file, telling them apart by
    their keys."""
    obj = load_json(path)
    if isinstance(obj, dict) and "vertices" in obj and "edges" in obj:
        return None, graph_from_json(obj)
    return arrangement_from_json(obj), None


def _load_arrangement(args: argparse.Namespace) -> IncidenceData:
    """The arrangement file; a graph file is an error."""
    inc, _ = _load_any(args.input)
    if inc is None:
        raise InvalidInput(f"{args.command} expects an arrangement, not a graph")
    return inc


def _load_graph(args: argparse.Namespace) -> tuple[Optional[IncidenceData], PlumbingGraph]:
    """The graph file as it is, or the boundary graph of the arrangement
    file, reduced under --reduce; --reduce on a graph file is an error."""
    inc, g = _load_any(args.input)
    if g is None:
        return inc, boundary_graph(inc, reduce=args.reduce)
    if args.reduce:
        raise InvalidInput("--reduce applies to an arrangement, not a graph")
    return None, g


def _cmd_generate(args: argparse.Namespace) -> int:
    if args.kind == "random":
        rng = random.Random(args.seed)
        inc = incidence_from_lines(random_rational_lines(args.n, rng))
    else:
        inc = generate_family(args.kind, args.n)
    _emit(_dump(incidence_to_json(inc)), args.output)
    return 0


def _cmd_gamma_c(args: argparse.Namespace) -> int:
    gc = build_gamma_c(_load_arrangement(args))
    text = to_dot(gc) if args.dot else _dump(graph_to_json(gc))
    _emit(text, args.output)
    return 0


def _cmd_string(args: argparse.Namespace) -> int:
    a, b, c = args.a, args.b, args.c
    s = build_string(a, b, c)
    payload = {
        "a": a,
        "b": b,
        "c": c,
        "lambda": s.lam,
        "m1": s.m1,
        "cf": list(s.cf_terms),
        "interior_mults": list(s.interior_mults),
        "end_mults": list(s.end_mults),
        "double_arrow": s.is_double_arrow,
    }
    if args.json:
        _emit(_dump(payload), args.output)
    else:
        if s.is_double_arrow:
            line = f"Str({a},{b};{c}): double arrow, end multiplicities {s.end_mults}\n"
        else:
            line = (
                f"Str({a},{b};{c}): lambda={s.lam}, cf={list(s.cf_terms)}, "
                f"interior multiplicities {list(s.interior_mults)}, "
                f"end multiplicities {s.end_mults}\n"
            )
        _emit(line, args.output)
    return 0


def _cmd_plumbing(args: argparse.Namespace) -> int:
    g = boundary_graph(_load_arrangement(args), reduce=args.reduce)
    text = to_dot(g) if args.dot else _dump(graph_to_json(g))
    _emit(text, args.output)
    return 0


def _cmd_calculus(args: argparse.Namespace) -> int:
    inc, g = _load_any(args.input)
    if g is None:
        raise InvalidInput("calculus expects a graph file")
    script_obj = load_json(args.script)
    if not isinstance(script_obj, list):
        raise InvalidInput("a move script is a JSON list of move objects")
    script = [MoveSpec.from_json(row) for row in script_obj]
    out = apply_script(g, script, check_h1=args.check_h1)
    text = to_dot(out) if args.dot else _dump(graph_to_json(out))
    _emit(text, args.output)
    return 0


def _cmd_homology(args: argparse.Namespace) -> int:
    inc, g = _load_graph(args)
    betti = betti_formula(inc) if inc is not None else None
    group, stats = homology_with_stats(g)
    if args.json:
        payload = {
            "h1": str(group),
            "rank": group.free_rank,
            "factors": list(group.torsion),
            "betti_formula": betti,
            "graph_stats": stats,
        }
        _emit(_dump(payload), args.output)
    else:
        _emit(f"H1 = {group}\n", args.output)
    return 0


def _cmd_betti(args: argparse.Namespace) -> int:
    _emit(f"{betti_formula(_load_arrangement(args))}\n", args.output)
    return 0


# The largest --max-n generic-check accepts.  The run grows about as n^4:
# --max-n 24 takes 0.3-0.4 s end to end and 32 about 1 s (2-core VM, Python 3.11).
MAX_GENERIC_CHECK_N = 24


def _cmd_generic_check(args: argparse.Namespace) -> int:
    if args.max_n < 2:
        raise InvalidInput("--max-n must be at least 2")
    if args.max_n > MAX_GENERIC_CHECK_N:
        raise InvalidSize(f"--max-n must be at most {MAX_GENERIC_CHECK_N}, got {args.max_n}")
    lines = []
    for n in range(2, args.max_n + 1):
        notes = []
        factors, corank = expected_An_factors(n)
        rows = An_rows(n)
        snf = smith_form_of_rows(len(rows), len(rows), rows)
        if snf.factors != factors or snf.corank != corank:
            notes.append(f"SNF({list(snf.factors)}, corank {snf.corank}) unexpected")
        lemma = check_lemma_identities(n) if n >= 3 else {}
        if not all(lemma.values()):
            notes.append(f"lemma identities failed: {lemma}")
        # free rank = corank + b_1 of the compact generic graph: connected, n + k
        # vertices, 2k edges (k = n(n-1)/2), so b_1 = k - n + 1 = (n-1)(n-2)/2
        free = snf.corank + (n - 1) * (n - 2) // 2
        torsion = tuple(d for d in snf.factors if d >= 2)
        closed = generic_h1_closed_form(n)
        if (free, torsion) != (closed.free_rank, closed.torsion):
            notes.append(f"H1 mismatch: rank {free}, torsion {torsion} vs {closed}")
        lines.append(f"FAIL n={n}: {'; '.join(notes)}" if notes else f"PASS n={n}: H1 = {closed}")
    _emit("\n".join(lines) + "\n", args.output)
    return 1 if any(line.startswith("FAIL") for line in lines) else 0


def _cmd_probe(args: argparse.Namespace) -> int:
    report = probe_conjecture(_load_arrangement(args))
    _emit(_dump(report.to_json()), args.output)
    return 0 if report.all_hold() else 1


def _cmd_export_dot(args: argparse.Namespace) -> int:
    _, g = _load_graph(args)
    _emit(to_dot(g), args.output)
    return 0


class _Parser(argparse.ArgumentParser):
    """A usage error raises InvalidInput, so it too is one JSON line;
    subparsers are made of the same class."""

    def error(self, message):
        raise InvalidInput(message)


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(
        prog="mfboundary",
        description="Homology of Milnor fiber boundaries of plane arrangements",
    )
    p.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = p.add_subparsers(dest="command", required=True)

    def command(name, run, help):
        sp = sub.add_parser(name, help=help)
        sp.set_defaults(run=run)
        sp.add_argument("-o", "--output", help="write to a file instead of stdout")
        return sp

    sp = command("generate", _cmd_generate, "emit an arrangement JSON for a named family")
    sp.add_argument("kind", choices=[*FAMILIES, "random"])
    sp.add_argument("n", type=int)
    sp.add_argument("--seed", type=int, default=0, help="rng seed for kind=random")

    sp = command("gamma-c", _cmd_gamma_c, "curve-configuration graph of an arrangement")
    sp.add_argument("input")
    sp.add_argument("--dot", action="store_true")

    sp = command("string", _cmd_string, "compute one string chain Str(a,b;c)")
    sp.add_argument("a", type=int)
    sp.add_argument("b", type=int)
    sp.add_argument("c", type=int)
    sp.add_argument("--json", action="store_true")

    sp = command("plumbing", _cmd_plumbing, "closed plumbing graph of an arrangement")
    sp.add_argument("input")
    sp.add_argument("--reduce", action="store_true",
                    help="compact the double-point chains by calculus moves")
    sp.add_argument("--dot", action="store_true")

    sp = command("calculus", _cmd_calculus, "apply a move script to a graph")
    sp.add_argument("input")
    sp.add_argument("--script", required=True, help="JSON list of moves")
    sp.add_argument("--check-h1", action="store_true", dest="check_h1")
    sp.add_argument("--dot", action="store_true")

    sp = command("homology", _cmd_homology, "H1 of an arrangement boundary or a graph")
    sp.add_argument("input")
    sp.add_argument("--reduce", action="store_true")
    sp.add_argument("--json", action="store_true")

    sp = command("betti", _cmd_betti, "closed-form first Betti number")
    sp.add_argument("input")

    sp = command("generic-check", _cmd_generic_check, "verify the closed-form generic algebra")
    sp.add_argument("--max-n", type=int, default=12, dest="max_n")

    sp = command("probe-conjecture", _cmd_probe, "torsion predictions on one arrangement")
    sp.add_argument("input")

    sp = command("export-dot", _cmd_export_dot, "Graphviz output for a graph or arrangement")
    sp.add_argument("input")
    sp.add_argument("--reduce", action="store_true")

    return p


def main(argv: Optional[list[str]] = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.run(args)
    except MFBoundaryError as exc:
        error = exc
    except OSError as exc:  # a path that cannot be read or written
        error = file_error(exc)
    sys.stderr.write(json.dumps(error.payload()) + "\n")
    return 1


if __name__ == "__main__":
    sys.exit(main())
