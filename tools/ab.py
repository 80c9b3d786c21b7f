"""A/B the benchmark between two checkouts on this machine.

  python3 tools/ab.py PARENT CHANGE --workload W [--pairs N] [--seconds S]

PARENT and CHANGE are roots of lgb checkouts.  Each pair runs ``python3
bench/run.py --workload W --seconds S --trace 0`` once in each checkout,
at the benchmark's default seed, the parent first in odd pairs and the
change first in even ones, so that neither side always meets the machine
in the same phase.  N defaults to 10 and S to the ``run_seconds`` of
PARENT's ``BENCHMARK.json``.  Then it prints, for each end-to-end
metric of PARENT's ``BENCHMARK.json``, the two medians, the parent's
interquartile range (IQR, as a share of its median), the ratio
change/parent, and in how many pairs the change did better; then
``attempted`` and ``failed`` of every run.  A run that exits
non-zero stops the A/B with its exit code.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def run_bench(checkout, workload, seconds):
    """The result object of one ``bench/run.py`` run: its last stdout line."""
    cmd = [
        sys.executable, "bench/run.py", "--workload", workload,
        "--seconds", str(seconds), "--trace", "0",
    ]
    proc = subprocess.run(cmd, cwd=checkout, stdout=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        print(f"error: {checkout}: bench/run.py exited {proc.returncode}", file=sys.stderr)
        sys.exit(proc.returncode)
    return parse_result(proc.stdout)


def parse_result(stdout):
    """The JSON object on the last line of a ``bench/run.py`` output."""
    return json.loads(stdout.strip().splitlines()[-1])


def iqr(values):
    """Upper minus lower quartile, by the default (exclusive) method of
    ``statistics.quantiles``, the wider of its two; 0 for one value."""
    if len(values) < 2:
        return 0.0
    lower, _, upper = statistics.quantiles(values, n=4)
    return upper - lower


def summary(metrics, parent, change):
    """The report lines for the end-to-end ``metrics`` (BENCHMARK.json
    entries) of paired result objects ``parent`` and ``change``."""
    lines = [
        f"{'metric':16} {'parent':>11} {'change':>11} {'parent IQR':>10} {'ratio':>7} {'wins':>6}"
    ]
    for m in metrics:
        name = m["name"]
        a = [r["metrics"][name]["value"] for r in parent]
        b = [r["metrics"][name]["value"] for r in change]
        ma, mb = statistics.median(a), statistics.median(b)
        if m["better"] == "lower":
            wins = sum(y < x for x, y in zip(a, b))
        else:
            wins = sum(y > x for x, y in zip(a, b))
        spread = f"{iqr(a) / ma:.1%}" if ma else "-"
        ratio = f"{mb / ma:.3f}" if ma else "-"
        lines.append(
            f"{name:16} {ma:11.6g} {mb:11.6g} {spread:>10} {ratio:>7} {f'{wins}/{len(a)}':>6}"
        )
    for k, (x, y) in enumerate(zip(parent, change), 1):
        lines.append(
            f"pair {k}: parent attempted {x['attempted']} failed {x['failed']}, "
            f"change attempted {y['attempted']} failed {y['failed']}"
        )
    return lines


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=int)
    args = ap.parse_args()
    spec = json.loads((args.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = args.seconds or spec["run_seconds"]
    parent, change = [], []
    for k in range(1, args.pairs + 1):
        sides = [(args.parent, parent), (args.change, change)]
        for checkout, results in sides if k % 2 else sides[::-1]:
            results.append(run_bench(checkout, args.workload, seconds))
    print(f"{args.workload}, {args.pairs} pairs of {seconds} s runs")
    for line in summary(spec["end_to_end"], parent, change):
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
