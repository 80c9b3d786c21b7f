"""The lgb benchmark.

  python3 bench/run.py --workload std-cones --seed 1 --seconds 30 --trace 0
  python3 bench/run.py --list

With ``--trace 0`` it prints every end-to-end metric of BENCHMARK.json,
measured with tracing off; with ``--trace 1`` every per-layer metric, from
a separate traced run.  The last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}.  A wrong answer
exits with code 3 and prints no result.  ``--list`` prints every metric
name of BENCHMARK.json with its unit.

Each run starts fresh single-threaded worker processes (``worker.py``):
one that measures, plus SETUP_SAMPLES that only set up, so that set-up
time is a median over several process starts.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUP_SAMPLES = 6
DEADLINE_S = 170


def load_spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def list_metrics(spec):
    for group in ("end_to_end", "per_layer"):
        for m in spec[group]:
            bound = f"  bound {m['bound']}" if "bound" in m else ""
            print(f"{m['name']:34} {m['unit']:6} {group:10} {m['better']} is better{bound}")


def worker(args, role, deadline):
    cmd = [
        sys.executable,
        str(BENCH / "worker.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--role", role,
    ]
    timeout = max(1.0, deadline - time.monotonic())
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=timeout)
    if proc.returncode != 0:
        sys.exit(proc.returncode)
    *lines, last = proc.stdout.strip().splitlines()
    for line in lines:
        print(line)
    return json.loads(last)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--list", action="store_true", help="list every metric with its unit")
    args = ap.parse_args()
    spec = load_spec()
    if args.list:
        list_metrics(spec)
        return 0
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        ap.error(f"--workload must be one of {', '.join(names)}")
    if not (ROOT / "src" / "lgb").is_dir():
        print(f"error: no lgb sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S
    if args.trace:
        group = spec["per_layer"]
        out = worker(args, "trace", deadline)
    else:
        group = spec["end_to_end"]
        # set-up samples before and after the measuring process, so that
        # they do not all fall in one phase of the machine's speed
        half = SETUP_SAMPLES // 2
        setups = [worker(args, "setup", deadline)["setup_s"] for _ in range(half)]
        out = worker(args, "measure", deadline)
        setups.append(out["setup_s"])
        setups += [worker(args, "setup", deadline)["setup_s"] for _ in range(SETUP_SAMPLES - half)]
        out["metrics"]["setup_s"] = statistics.median(setups)
        out["notes"]["setup"] = f"median of {len(setups)} process starts"

    measured = out["metrics"]
    missing = {m["name"] for m in group} ^ set(measured)
    if missing:
        print(f"error: metrics out of step with BENCHMARK.json: {sorted(missing)}", file=sys.stderr)
        return 2
    metrics = {}
    for m in group:
        value = measured[m["name"]]
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        print(f"{args.workload} {m['name']} = {value:.6g} {m['unit']}")
    for key, note in out["notes"].items():
        print(f"{args.workload} {key}: {note}")
    print(f"{args.workload} failed {out['failed']} of {out['attempted']} engine calls")
    print(
        json.dumps(
            {"correct": True, "attempted": out["attempted"], "failed": out["failed"], "metrics": metrics}
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
