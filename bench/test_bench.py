"""Checks of the benchmark itself: python3 -m pytest bench/test_bench.py"""

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
KNOWN_FAILURES = 4


def _run(*args):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), *args],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_traced_counts_repeat_exactly(workload):
    args = ("--workload", workload, "--seed", "3", "--trace", "1")
    first, second = (json.loads(_run(*args).splitlines()[-1]) for _ in range(2))
    # every count, and every ratio of counts; trace_overhead is a ratio of times
    exact = [
        m["name"]
        for m in SPEC["per_layer"]
        if m["unit"] == "count" or (m["unit"] == "ratio" and m["name"] != "trace_overhead")
    ]
    assert len(exact) > 20
    for name in exact:
        assert first["metrics"][name] == second["metrics"][name], name
    assert (first["attempted"], first["failed"]) == (second["attempted"], second["failed"])
    # only general-cones runs the known-failure probes
    assert first["failed"] == (KNOWN_FAILURES if workload == "general-cones" else 0)


def test_list_names_every_metric_with_unit():
    out = _run("--list")
    for m in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert re.search(rf"^{re.escape(m['name'])}\s+{re.escape(m['unit'])}\s", out, re.M), m
