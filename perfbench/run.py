"""Benchmark: time to a verified H1, from an arrangement or through the CLI.

    python3 perfbench/run.py --workload raw_families --seed 1 --seconds 30 --trace 0

Workloads (see BENCHMARK.json for why each was chosen):

  raw_families      generic n = 8..12, near_pencil 30, pencil 40; raw graph
  reduced_families  the same items with reduce=True
  random_sweep      102 random arrangements, 17 for each n in 5..10; raw graph
  cli_calculus      `mfboundary` run as a subprocess: homology --json on 29
                    small arrangements, generic-check --max-n 10, and
                    calculus --check-h1 on the near-pencil n = 12 script

One client runs items one at a time in a closed loop, with at most one CLI
child alive.  A run repeats whole passes over the item list until about
--seconds have been used.  Every answer is checked after the timed region
against the Betti formula, the generic closed form, torsion-freeness of
pencil-type arrangements and the answers stored in expected.json.

--trace 0 reports the end-to-end metrics: the timed route calls what a user
calls, incidence_from_lines, boundary_graph and homology_of_graph, or the
CLI.  Item times are reported in units of a reference time, taken before
every item (reference_seconds), which cancels the drift of a shared host's
speed.  Set-up is repeated SETUP_REPEATS times, each next to a reference
time, and setup_s is the median in seconds on a host whose reference time
is REFERENCE_NOMINAL_S.  The same figures in plain seconds are printed too
and stored under "in_seconds".  --trace 1 runs every item untraced and then
once more with the stages called one by one under spans (spans.py), and
reports per-layer metrics, each a mean per item of the workload: 0 for a
layer the workload never calls.  The traced run of cli_calculus replays
each CLI item in-process, untraced and traced, to find the CLI's own cost.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics; the full record, with environment, per-item
samples, failures, per-item stage times and spans, goes to
perfbench/results/.  The exit code is 1 when any item failed, 2 when the
program's source is missing.
"""

from __future__ import annotations

import argparse
import collections
import gc
import importlib
import json
import os
import platform
import random
import resource
import signal
import statistics
import subprocess
import sys
import time
import types
from dataclasses import dataclass
from typing import Optional

import inputs
import spans

HERE = inputs.HERE
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RESULTS_DIR = os.path.join(HERE, "results")
WORK_DIR = os.path.join(HERE, "work")

WORKLOADS = ("raw_families", "reduced_families", "random_sweep", "cli_calculus")
FAMILY_ITEMS = [("generic", n) for n in range(8, 13)] + [("near_pencil", 30), ("pencil", 40)]
CLI_FAMILIES = (
    [("generic", n) for n in range(4, 8)]
    + [("pencil", n) for n in range(4, 9)]
    + [("near_pencil", n) for n in range(4, 9)]
)
CLI_RANDOM_PER_N = {5: 5, 6: 5, 7: 5}
CLI_GENERIC_CHECK_N = 10
CLI_CALCULUS_N = 12
# Smoke mode: the cheapest items of each workload, one pass.
SMOKE_FAMILY_ITEMS = [("generic", 8), ("pencil", 40)]
SMOKE_RANDOM_NS = (5, 6)
SMOKE_CLI = {"families": [("generic", 4)], "random": {5: 1}, "generic_check": 4, "calculus": 5}

ITEM_TIMEOUT_S = 60
SETUP_REPEATS = 15
# setup_s is reported in seconds on a host whose reference loop takes this
# long (see reference_seconds)
REFERENCE_NOMINAL_S = 0.008
CLI_STARTUP_REPEATS = 5

PROGRAM_NAMES = {
    "mfboundary": (
        "AbelianGroup", "MoveSpec", "ProjLine", "apply_script", "betti_formula",
        "boundary_graph", "build_An", "build_gamma_c", "check_lemma_identities",
        "decorate_and_insert", "first_betti_of_graph", "generic_h1_closed_form",
        "graph_from_json", "graph_to_json", "homology_of_graph", "incidence_from_lines",
        "incidence_matrix", "is_generic", "load_arrangement", "smith_normal_form",
        "solve_euler", "strip_arrowheads",
    ),
    "mfboundary.reduction": (
        "double_chain_script", "near_pencil_reduction_script", "reduce_double_chains",
    ),
    "mfboundary.generic_algebra": ("expected_An_factors",),
}


@dataclass
class Item:
    id: str
    kind: str                       # homology | generic-check | calculus
    family: str = ""                # generic | pencil | near_pencil | random
    n: int = 0
    lines: Optional[list] = None
    reduce: bool = False
    expected: object = None         # {"rank", "torsion"} or the expected stdout
    argv: Optional[list] = None     # CLI arguments, CLI items only
    files: tuple = ()               # input files a CLI item reads


class ItemTimeout(Exception):
    pass


def _alarm(signum, frame):
    raise ItemTimeout(f"item exceeded {ITEM_TIMEOUT_S} s")


# -- set-up ------------------------------------------------------------------

def import_program() -> types.SimpleNamespace:
    """Import the program afresh, so that every set-up pays for it."""
    for name in [m for m in sys.modules if m == "mfboundary" or m.startswith("mfboundary.")]:
        del sys.modules[name]
    found = {}
    for module, names in PROGRAM_NAMES.items():
        mod = importlib.import_module(module)
        found.update({name: getattr(mod, name) for name in names})
    return types.SimpleNamespace(**found)


def setup(workload: str, seed: int, smoke: bool, store: dict):
    mf = import_program()
    rng = random.Random(seed)
    if workload in ("raw_families", "reduced_families"):
        reduce = workload == "reduced_families"
        items = [
            Item(f"{kind}/{n}", "homology", kind, n, inputs.family_lines(kind, n, rng),
                 reduce, store["families"][f"{kind}/{n}"])
            for kind, n in (SMOKE_FAMILY_ITEMS if smoke else FAMILY_ITEMS)
        ]
    elif workload == "random_sweep":
        pool = store["random_pool"]
        if smoke:
            pool = [e for n in SMOKE_RANDOM_NS
                    for e in [x for x in pool if x["n"] == n][:inputs.STRATUM]]
        items = [
            Item(f"random/{e['n']}/{k}", "homology", "random", e["n"], e["lines"], False,
                 {"rank": e["rank"], "torsion": e["torsion"]})
            for k, e in enumerate(inputs.random_draw(pool, rng))
        ]
    else:
        items = cli_items(mf, seed, rng, smoke, store)
    return mf, items


def cli_items(mf, seed: int, rng: random.Random, smoke: bool, store: dict) -> list[Item]:
    """The CLI items, with their input files written under WORK_DIR."""
    plan = SMOKE_CLI if smoke else {
        "families": CLI_FAMILIES, "random": CLI_RANDOM_PER_N,
        "generic_check": CLI_GENERIC_CHECK_N, "calculus": CLI_CALCULUS_N,
    }
    work = os.path.join(WORK_DIR, f"cli_calculus-seed{seed}")
    os.makedirs(work, exist_ok=True)

    def write(name: str, obj) -> str:
        path = os.path.join(work, name)
        with open(path, "w") as fh:
            json.dump(obj, fh)
        return path

    items = []
    for kind, n in plan["families"]:
        lines = inputs.family_lines(kind, n, rng)
        path = write(f"{kind}-{n}.json", {"lines": lines})
        items.append(Item(f"homology:{kind}/{n}", "homology", kind, n, lines, True,
                          store["families"][f"{kind}/{n}"],
                          ["homology", path, "--json", "--reduce"], (path,)))
    by_n = collections.defaultdict(list)
    for k, e in enumerate(store["random_pool"]):
        by_n[e["n"]].append((k, e))
    for n, count in plan["random"].items():
        for k, e in rng.sample(by_n[n], count):
            path = write(f"random-{k}.json", {"lines": e["lines"]})
            items.append(Item(f"homology:random/{k}", "homology", "random", n, e["lines"],
                              False, {"rank": e["rank"], "torsion": e["torsion"]},
                              ["homology", path, "--json"], (path,)))
    rng.shuffle(items)
    max_n = plan["generic_check"]
    items.append(Item(f"generic-check/{max_n}", "generic-check", n=max_n,
                      expected=store["generic_check"][str(max_n)],
                      argv=["generic-check", "--max-n", str(max_n)]))
    n = plan["calculus"]
    lines = inputs.family_lines("near_pencil", n, rng)
    inc = arrangement_of(mf, lines)
    g = mf.boundary_graph(inc)
    graph = write(f"near_pencil-{n}-graph.json", mf.graph_to_json(g))
    script = write(f"near_pencil-{n}-script.json",
                   [m.to_json() for m in mf.near_pencil_reduction_script(g, inc)])
    items.append(Item(f"calculus:near_pencil/{n}", "calculus", "near_pencil", n, lines, False,
                      store["families"][f"near_pencil/{n}"],
                      ["calculus", graph, "--script", script, "--check-h1"], (graph, script)))
    return items


# -- running items ----------------------------------------------------------

def arrangement_of(mf, lines):
    return mf.incidence_from_lines([mf.ProjLine.from_coeffs(c, i) for i, c in enumerate(lines)])


def run_in_process(mf, item: Item):
    """The timed route: what a library user calls.  Returns (inc, group)."""
    inc = arrangement_of(mf, item.lines)
    return inc, mf.homology_of_graph(mf.boundary_graph(inc, reduce=item.reduce))


def run_cli(argv: list[str]) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    env["MFBOUNDARY_JOBS"] = "1"  # generic-check would otherwise start a pool
    return subprocess.run(
        [sys.executable, "-m", "mfboundary.cli", *argv], cwd=ROOT, env=env,
        capture_output=True, text=True, timeout=ITEM_TIMEOUT_S,
    )


def timed(fn, *args):
    """(seconds, result or the exception raised), under the item time limit."""
    signal.setitimer(signal.ITIMER_REAL, ITEM_TIMEOUT_S)
    t = time.perf_counter()
    try:
        out = fn(*args)
    except Exception as exc:  # a failed item is recorded, not fatal
        out = exc
    finally:
        dt = time.perf_counter() - t
        signal.setitimer(signal.ITIMER_REAL, 0)
    return dt, out


def reference_seconds() -> float:
    """Time of a fixed piece of pure-Python work: integer dict stores and a
    scan, like the program's inner loops.  Taken before every item and every
    set-up, it tracks the speed of the host, which on a shared machine
    drifts by tens of percent within minutes; times are reported in units of
    it.  The table stays at about a thousand keys, so that the harness adds
    next to nothing to the peak memory of the process."""
    t = time.perf_counter()
    table = {}
    for i in range(60000):
        table[(i * 7919) % 1021] = i
    sum(k ^ v for k, v in table.items())
    return time.perf_counter() - t


def run_passes(items: list[Item], one_item, seconds: float, smoke: bool) -> float:
    """Pass over the items until about `seconds` are used (whole passes;
    no new item starts after twice that).  Returns the wall time."""
    t0 = time.perf_counter()
    passes = 0
    while True:
        for item in items:
            if time.perf_counter() - t0 > 2 * seconds:
                return time.perf_counter() - t0
            one_item(item)
        passes += 1
        elapsed = time.perf_counter() - t0
        if smoke or elapsed + elapsed / passes / 2 >= seconds:
            return elapsed


# -- checking answers --------------------------------------------------------

class Checker:
    """Checks answers outside the timed region; arrangements are built once
    per item."""

    def __init__(self, mf):
        self.mf = mf
        self._inc = {}

    def inc(self, item: Item):
        if item.id not in self._inc:
            self._inc[item.id] = arrangement_of(self.mf, item.lines)
        return self._inc[item.id]

    def group(self, item: Item, inc, group) -> Optional[str]:
        mf = self.mf
        want = mf.AbelianGroup(item.expected["rank"], tuple(item.expected["torsion"]))
        betti = mf.betti_formula(inc)
        if group.free_rank != betti:
            return f"rank {group.free_rank} != Betti formula {betti}"
        if mf.is_generic(inc) and group != mf.generic_h1_closed_form(inc.n):
            return f"{group} != generic closed form {mf.generic_h1_closed_form(inc.n)}"
        if item.family in ("pencil", "near_pencil") and group.torsion:
            return f"pencil-type arrangement with torsion: {group}"
        if group != want:
            return f"{group} != expected {want}"
        return None

    def in_process(self, item: Item, out) -> Optional[str]:
        if isinstance(out, BaseException):
            return f"{type(out).__name__}: {out}"
        return self.group(item, *out)

    def replay(self, item: Item, out) -> Optional[str]:
        if isinstance(out, BaseException):
            return f"{type(out).__name__}: {out}"
        return self.output(item, out)

    def cli(self, item: Item, out) -> Optional[str]:
        if isinstance(out, BaseException):
            return f"{type(out).__name__}: {out}"
        if out.returncode != 0:
            return f"exit {out.returncode}: {out.stderr.strip()[-300:]}"
        return self.output(item, out.stdout)

    def output(self, item: Item, stdout: str) -> Optional[str]:
        """Check what the CLI printed, or what its replay produced."""
        mf = self.mf
        if item.kind == "generic-check":
            return None if stdout == item.expected else f"unexpected output {stdout[-300:]!r}"
        try:
            obj = json.loads(stdout)
        except ValueError as exc:
            return f"unreadable output: {exc}"
        if item.kind == "homology":
            group = mf.AbelianGroup(obj["rank"], tuple(obj["factors"]))
        else:
            group = mf.homology_of_graph(mf.graph_from_json(obj))
        return self.group(item, self.inc(item), group)


# -- metrics ----------------------------------------------------------------

def quantile(values: list[float], k: int) -> float:
    """The k-th decile, k = 5 for the median."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[k - 1]


def layer_metrics(tr: spans.Tracer) -> dict:
    k = len(tr.item_walls())
    self_s = collections.Counter()
    for name, _, s in tr.self_times():
        self_s[name] += s
    totals = collections.Counter()
    for _, name, value in tr.counts:
        totals[name] += value
    out = {f"{layer}.s": (self_s[layer] / k, "s") for layer in spans.LAYERS}
    out.update({name: (totals[name] / k, "count") for name in spans.COUNTS})
    return out


def stage_table(tr: spans.Tracer) -> dict:
    """Median self time of every span name, per item id."""
    per = collections.defaultdict(lambda: collections.defaultdict(list))
    for name, item, s in tr.self_times():
        per[item][name].append(s)
    return {item: {name: statistics.median(v) for name, v in names.items()}
            for item, names in per.items()}


def environment() -> dict:
    commit = None
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            timeout=10, env=dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT)),
        )
        if out.returncode == 0:
            commit = out.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "commit": commit,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "loadavg_start": os.getloadavg(),
    }


# -- the two modes -----------------------------------------------------------

def measure(args, mf, items, checker):
    """Timed mode.  Returns (samples, reference times, wall time, peak RSS
    in MB)."""
    samples = []
    reference = []
    cli = args.workload == "cli_calculus"

    def one_item(item):
        reference.append(reference_seconds())
        if cli:
            dt, out = timed(run_cli, item.argv)
            samples.append((item, dt, checker.cli, out))
        else:
            dt, out = timed(run_in_process, mf, item)
            samples.append((item, dt, checker.in_process, out))

    wall = run_passes(items, one_item, args.seconds, args.smoke)
    who = resource.RUSAGE_CHILDREN if cli else resource.RUSAGE_SELF
    rss = resource.getrusage(who).ru_maxrss / 1024.0  # kB on Linux
    return samples, reference, wall, rss


def measure_traced(args, mf, items, checker, tr):
    """Traced mode: every item runs untraced and then, in the same visit,
    stage by stage under spans.  Returns (samples, the per-layer metrics
    that do not come from spans)."""
    samples = []
    plain = spans.Tracer(enabled=False)
    untraced_s = []
    overhead = []
    cli = args.workload == "cli_calculus"

    def replay(item, tracer):
        if item.kind == "homology":
            return spans.replay_homology(mf, item.files[0], item.reduce, tracer, item.id)
        if item.kind == "generic-check":
            return spans.replay_generic_check(mf, item.n, tracer, item.id)
        return spans.replay_calculus(mf, *item.files, tracer, item.id)

    def one_item(item):
        if cli:
            dt_cli, out = timed(run_cli, item.argv)
            samples.append((item, dt_cli, checker.cli, out))
            dt, out = timed(replay, item, plain)
            samples.append((item, dt, checker.replay, out))
            untraced_s.append(dt)
            overhead.append(dt_cli - dt)
            dt, out = timed(replay, item, tr)
            samples.append((item, dt, checker.replay, out))
        else:
            # alternate which route runs first, so neither always finds the
            # caches the other left
            first = len(untraced_s) % 2 == 0
            for traced in (first, not first):
                if traced:
                    dt, out = timed(spans.staged_item, mf,
                                    lambda: arrangement_of(mf, item.lines),
                                    item.reduce, tr, item.id)
                else:
                    dt, out = timed(run_in_process, mf, item)
                    untraced_s.append(dt)
                samples.append((item, dt, checker.in_process, out))

    run_passes(items, one_item, args.seconds, args.smoke)
    extra = {
        "cli.startup_s": (0.0, "s"),
        "cli.overhead_s": (statistics.mean(overhead) if overhead else 0.0, "s"),
        "trace.overhead": (sum(tr.item_walls()) / sum(untraced_s) - 1, "ratio"),
    }
    if cli:
        startup = [timed(run_cli, ["--version"])[0] for _ in range(CLI_STARTUP_REPEATS)]
        extra["cli.startup_s"] = (statistics.median(startup), "s")
    return samples, extra


def main(argv: Optional[list[str]] = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="one pass over the cheapest items of the workload")
    args = p.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "mfboundary", "__init__.py")):
        print(f"program source not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    signal.signal(signal.SIGALRM, _alarm)
    env = environment()

    setups = []
    setup_reference = []
    for _ in range(2 if args.smoke else SETUP_REPEATS):
        setup_reference.append(reference_seconds())
        t = time.perf_counter()
        store = inputs.load_expected()
        mf, items = setup(args.workload, args.seed, args.smoke, store)
        setups.append(time.perf_counter() - t)
        gc.collect()  # frees the replaced copy of the program before the pass
    checker = Checker(mf)

    tr = spans.Tracer()
    if args.trace:
        samples, metrics = measure_traced(args, mf, items, checker, tr)
        metrics.update(layer_metrics(tr))
    else:
        samples, reference, wall, rss = measure(args, mf, items, checker)

    failures = []
    verified = 0
    for item, _, check, out in samples:
        reason = check(item, out)
        if reason is None:
            verified += 1
        else:
            failures.append({"item": item.id, "reason": reason})
    attempted = len(samples)
    seconds = {}
    if not args.trace:
        latencies = [dt for _, dt, _, _ in samples]
        # each item in units of the median reference time of the nine
        # samples around it
        in_ref = [dt / statistics.median(reference[max(0, i - 4):i + 5])
                  for i, dt in enumerate(latencies)]
        setup_in_ref = [s / r for s, r in zip(setups, setup_reference)]
        metrics = {
            "setup_s": (REFERENCE_NOMINAL_S * statistics.median(setup_in_ref), "s"),
            "h1_per_kref": (1000 * verified / sum(in_ref), "1/kref"),
            "item_p50_ref": (quantile(in_ref, 5), "ref"),
            "item_p90_ref": (quantile(in_ref, 9), "ref"),
            "verified_ratio": (verified / attempted, "ratio"),
            "peak_rss_mb": (rss, "MB"),
        }
        seconds = {
            "setup_s": (statistics.median(setups), "s"),
            "h1_per_s": (verified / wall, "1/s"),
            "item_p50_s": (quantile(latencies, 5), "s"),
            "item_p90_s": (quantile(latencies, 9), "s"),
            "reference_s": (statistics.median(reference), "s"),
        }
    env["loadavg_end"] = os.getloadavg()

    by_item = collections.defaultdict(list)
    for item, dt, _, _ in samples:
        by_item[item.id].append(dt)
    record = {
        "workload": args.workload, "seed": args.seed, "run_seconds": args.seconds,
        "trace": args.trace, "smoke": args.smoke, "environment": env,
        "setup_s": setups, "setup_reference_s": setup_reference,
        "attempted": attempted, "failed": len(failures),
        "fail_ratio": len(failures) / attempted, "failures": failures,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "in_seconds": {k: {"value": v, "unit": u} for k, (v, u) in seconds.items()},
        "item_samples_s": by_item,
    }
    if not args.trace:
        record["reference_samples_s"] = reference
    if args.trace:
        record["stage_self_s"] = stage_table(tr)
        record["spans"] = tr.spans
        record["counts"] = tr.counts
    os.makedirs(RESULTS_DIR, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}{'-smoke' if args.smoke else ''}"
    with open(os.path.join(RESULTS_DIR, name + ".json"), "w") as fh:
        json.dump(record, fh, indent=1)

    for f in failures[:20]:
        print(f"FAIL {f['item']}: {f['reason']}")
    for key, (value, unit) in metrics.items():
        print(f"{key} = {value:.6g} {unit}")
    for key, (value, unit) in seconds.items():
        print(f"in seconds: {key} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": not failures, "attempted": attempted, "failed": len(failures),
        "metrics": record["metrics"],
    }))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
