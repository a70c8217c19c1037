"""Smoke test of the benchmark itself.

    python3 -m pytest perfbench

Runs the smoke mode (one pass over the cheapest items) of every workload,
traced and untraced, and checks the result line against BENCHMARK.json.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    BENCH = json.load(_fh)


def run_bench(workload: str, trace: int, root: str = ROOT):
    proc = subprocess.run(
        [sys.executable, os.path.join(root, "perfbench", "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=root, capture_output=True, text=True, timeout=300,
    )
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, json.loads(lines[-1]) if lines else None


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in BENCH["workloads"]])
def test_every_metric_is_reported_with_its_unit(workload, trace):
    code, out = run_bench(workload, trace)
    assert code == 0
    assert out["correct"] is True and out["failed"] == 0 and out["attempted"] >= 1
    declared = BENCH["per_layer" if trace else "end_to_end"]
    assert set(out["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        got = out["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))


def copy_benchmark(dest, with_program: bool):
    """BENCHMARK.json and perfbench/, and src/ if asked, copied under dest."""
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), dest)
    skip = shutil.ignore_patterns("results", "work", "__pycache__")
    shutil.copytree(HERE, dest / "perfbench", ignore=skip)
    if with_program:
        shutil.copytree(os.path.join(ROOT, "src"), dest / "src", ignore=skip)


@pytest.mark.parametrize("workload, plant", [
    ("raw_families", lambda s: s["families"]["generic/8"].update(rank=29)),
    ("cli_calculus", lambda s: s["generic_check"].update({"4": "PASS n=2: H1 = Z\n"})),
])
def test_planted_wrong_answer_is_a_failure(tmp_path, workload, plant):
    copy_benchmark(tmp_path, with_program=True)
    path = tmp_path / "perfbench" / "expected.json"
    store = json.loads(path.read_text())
    plant(store)
    path.write_text(json.dumps(store))
    code, out = run_bench(workload, 0, root=str(tmp_path))
    assert code == 1
    assert out["correct"] is False and out["failed"] >= 1
    assert out["metrics"]["verified_ratio"]["value"] < 1


def test_without_the_program_it_exits_nonzero_and_prints_no_result(tmp_path):
    copy_benchmark(tmp_path, with_program=False)
    code, out = run_bench("raw_families", 0, root=str(tmp_path))
    assert code != 0 and out is None
