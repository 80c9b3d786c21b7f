"""One benchmark process: set up one workload, then measure or trace it.

Started by ``run.py``; prints one JSON object as its last line.

  --role setup     set up and report the set-up time only
  --role measure   set up, then run passes over the workload until
                   --seconds have gone by (tracing off)
  --role trace     set up, one untraced pass, then one traced pass

Every pass parses the instances afresh, so per-object caches start empty
as in a CLI run.  A pass times, per instance, one basis computation
(``lgb gb``), one criterion check of that basis (``lgb check``) and one
reduction per probe (``lgb reduce``/``member``), in reference seconds
(see CALIBRATION_S).  Answers are checked outside the timed regions; a
wrong answer exits with code 3.  The oracle checks and the known-failure
inputs run after the peak memory is read, so they do not set it.
"""

import time
from fractions import Fraction

# This machine's speed drifts by up to 1.7x over tens of seconds, and a
# fixed piece of Python work slows down with the engine (their ratio held
# within 3% while the speed swung by 50%).  Timings are therefore reported
# in reference seconds: seconds on a machine where calibrate() reads
# CALIBRATION_S, its reading in the fast phases of a 2.1 GHz vCPU.
CALIBRATION_S = 0.0004


def calibrate():
    """Seconds a fixed piece of pure-Python work takes right now: Fraction
    arithmetic and dict updates under tuple keys, the engine's staple
    operations.  The lowest of three readings."""
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        acc = {}
        for i in range(200):
            key = (i % 7, i % 11, -i % 5)
            acc[key] = acc.get(key, 0) + Fraction(i, 7)
        best = min(best, time.perf_counter() - t0)
    return best


_CALIBRATION = calibrate()
_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from lgb import (  # noqa: E402
    affinoid,
    cli,
    coeffs,
    gmo,
    groebner,
    lattice,
    laurent,
    oracle,
    reduction,
)

import spans  # noqa: E402
import workloads  # noqa: E402

MIN_PASSES = 3


class WrongAnswer(Exception):
    """The engine returned an incorrect result."""


def _orthant_ring():
    """Q[x^±1, y^±1] under the orthant decomposition with the per-cone
    custom score, as in test_orthant_decomposition_buchberger."""
    d = lattice.build_decomposition("orthant", 2)
    rows = {i: tuple(c.generators[k][k] for k in range(2)) for i, c in enumerate(d.cones)}
    order = gmo.GeneralizedOrder(d, gmo.ScoreFunction("custom", 2, rows=rows))
    return laurent.LaurentRing(coeffs.FieldSpec.rational(), 2, order, ("x", "y"))


class PolyCase:
    """An instance in polynomial mode."""

    def __init__(self, inst):
        if inst.kind == "orthant":
            ring = _orthant_ring()
            lines = inst.text.split("gens:\n", 1)[1].splitlines()
            self.gens = [cli.parse_poly(ring, line) for line in lines]
        else:
            problem = cli.parse_problem(inst.text)
            ring = problem.ring
            self.gens = problem.generators
        self.probes = [cli.parse_poly(ring, p.text) for p in inst.probes]
        self.one = cli.parse_poly(ring, "1")
        self.mode = None

    def gb(self):
        return groebner.buchberger(self.gens)

    def check(self, basis):
        return groebner.is_groebner(basis)[0]

    def reduce(self, f, basis):
        return reduction.reduce(f, basis).remainder

    @staticmethod
    def body(h):
        return h


class SeriesCase:
    """An instance over a weight or polytope at a precision cap."""

    def __init__(self, inst):
        problem = cli.parse_problem(inst.text)
        self.mode = problem.mode
        self.gens = problem.series_generators()
        self.probes = [problem.series(cli.parse_poly(problem.ring, p.text)) for p in inst.probes]
        self.one = problem.series(cli.parse_poly(problem.ring, "1"))

    def gb(self):
        return affinoid.buchberger_P(self.gens)

    def check(self, basis):
        return affinoid.is_groebner_series(basis)[0]

    def reduce(self, f, basis):
        return affinoid.reduce_P(f, basis)[1]

    @staticmethod
    def body(h):
        return h.body


def make_case(inst):
    return SeriesCase(inst) if inst.kind == "series" else PolyCase(inst)


class Run:
    """Samples, answers and failure counts of one process."""

    def __init__(self, instances):
        self.instances = instances
        self.gb_t = {inst.name: [] for inst in instances}
        self.check_t = {inst.name: [] for inst in instances}
        self.reduce_t = {(inst.name, j): [] for inst in instances for j in range(len(inst.probes))}
        self.reference = {}
        self.oracle_jobs = []  # (instance name, probe, generators, verdict)
        self.attempted = 0
        self.failed = 0
        self.pairs = 0
        self.zero_reductions = 0
        self.basis_added = 0

    def call(self, fn, *args):
        """One engine call; an exception counts as a failure, not a crash."""
        self.attempted += 1
        try:
            return True, fn(*args)
        except Exception:  # the benchmark keeps going and reports the failure
            self.failed += 1
            traceback.print_exc(file=sys.stderr)
            return False, None


def run_pass(run, cases, tracer=None):
    """Time every instance once.  Each engine call is timed between two
    calibration readings, and its time is scaled by CALIBRATION_S over their
    mean, which turns it into reference seconds."""
    clock = time.perf_counter
    pause = tracer.paused if tracer else nullcontext
    last = [calibrate()]

    def timed(samples, key, op, name, fn, *args):
        t0 = clock()
        ok, result = run.call(fn, *args)
        t1 = clock()
        before, last[0] = last[0], calibrate()
        if ok:
            samples[key].append((t1 - t0) * CALIBRATION_S * 2 / (before + last[0]))
            if tracer:
                tracer.request(op, name, t0, t1)
        return ok, result

    for inst, case in zip(run.instances, cases):
        ok, result = timed(run.gb_t, inst.name, "gb", inst.name, case.gb)
        if not ok:
            continue
        basis = result.basis
        run.pairs += result.stats.pairs_processed
        run.zero_reductions += result.stats.zero_reductions
        with pause():
            run.basis_added += len(basis) - len(set(case.gens))
        ok, flag = timed(run.check_t, inst.name, "check", inst.name, case.check, basis)
        verdicts = []
        for j, probe in enumerate(case.probes):
            ok, rem = timed(run.reduce_t, (inst.name, j), "reduce", inst.name, case.reduce, probe, basis)
            with pause():
                verdicts.append(rem.is_zero() if ok else None)
        with pause():
            _verify(run, inst, case, basis, flag, verdicts)


def _verify(run, inst, case, basis, flag, verdicts):
    if flag is False:
        raise WrongAnswer(f"{inst.name}: the criterion check rejects the computed basis")
    for probe, verdict in zip(inst.probes, verdicts):
        if probe.in_ideal and verdict is False:
            raise WrongAnswer(f"{inst.name}: a combination of the generators does not reduce to 0")
    bodies = [case.body(h) for h in basis]
    ref = run.reference.get(inst.name)
    if ref is not None:
        if bodies != ref[0] or verdicts != ref[1]:
            raise WrongAnswer(f"{inst.name}: answers differ between passes")
        return
    run.reference[inst.name] = (bodies, verdicts)
    for g in case.gens:
        if not case.reduce(g, basis).is_zero():
            raise WrongAnswer(f"{inst.name}: a generator does not reduce to 0 by its basis")
    if case.reduce(case.one, basis).is_zero():
        raise WrongAnswer(f"{inst.name}: 1 reduces to 0, but every input ideal is proper")
    for probe, f, verdict in zip(inst.probes, case.probes, verdicts):
        if probe.oracle and verdict is not None:
            run.oracle_jobs.append((inst.name, f, case.gens, verdict))


def check_oracle(run):
    """Compare the seeded subset of membership verdicts with the oracle."""
    for name, f, gens, verdict in run.oracle_jobs:
        if verdict != oracle.laurent_membership_oracle(f, gens, max_basis=400):
            raise WrongAnswer(f"{name}: membership disagrees with the oracle")


def known_failures(run):
    """Run the documented failing inputs untimed; each counts in fail_ratio.
    An input documented as a WrongAnswer has a common zero in its domain, so
    deriving 1 from it is the failure."""
    for name, text, expected in workloads.KNOWN_FAILURES:
        run.attempted += 1
        try:
            problem = cli.parse_problem(text)
            basis = affinoid.buchberger_P(problem.series_generators()).basis
            one = problem.series(cli.parse_poly(problem.ring, "1"))
            if expected == "WrongAnswer" and affinoid.reduce_P(one, basis)[1].is_zero():
                raise WrongAnswer("1 reduces to 0 in a proper ideal")
        except Exception as exc:  # expected: these inputs fail on the engine today
            run.failed += 1
            got = type(exc).__name__
            if got == expected:
                print(f"known failure: {name}: fails as documented")
            else:
                print(f"known failure: {name}: fails with {got}, documented {expected}")
            continue
        if not affinoid.is_groebner_series(basis)[0]:
            raise WrongAnswer(f"known failure {name}: returns a basis that fails the check")
        print(f"known failure: {name}: now succeeds")


def tail(values):
    """(value, percentile, count): the highest whole percentile, nearest
    rank, with at least ten values above it."""
    s = sorted(values)
    n = len(s)
    for p in range(99, 0, -1):
        idx = -(-p * n // 100) - 1
        if n - 1 - idx >= 10:
            return s[idx], p, n
    raise ValueError(f"{n} samples leave no percentile with ten beyond it")


def _typical(samples):
    """Each sample's median over the passes."""
    return [statistics.median(v) for v in samples.values() if v]


def measure(run, cases, seconds, workload):
    start = time.perf_counter()
    passes = 0
    while True:
        if passes:
            cases = [make_case(inst) for inst in run.instances]
        t0 = time.perf_counter()
        run_pass(run, cases)
        passes += 1
        now = time.perf_counter()
        if passes >= MIN_PASSES and now - start + (now - t0) > seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    check_oracle(run)
    if workload == "general-cones":
        known_failures(run)
    gb = _typical(run.gb_t)
    probes = _typical(run.reduce_t)
    gb_tail, gb_p, gb_n = tail(gb)
    red_tail, red_p, red_n = tail(probes)
    metrics = {
        "gb_s": sum(gb),
        "gb_p50_ms": statistics.median(gb) * 1e3,
        "gb_tail_ms": gb_tail * 1e3,
        "check_s": sum(_typical(run.check_t)),
        "reduce_per_s": len(probes) / sum(probes),
        "reduce_tail_ms": red_tail * 1e3,
        "peak_rss_mb": peak_rss_mb,
    }
    notes = {
        "times": f"reference seconds, calibrate() = {CALIBRATION_S * 1e3:g} ms",
        "passes": passes,
        "gb_tail": f"p{gb_p} of {gb_n} instances",
        "reduce_tail": f"p{red_p} of {red_n} probes",
    }
    return metrics, notes


def trace_run(run, cases, workload, seed):
    run_pass(run, cases)
    untraced_gb = sum(v[-1] for v in run.gb_t.values() if v)
    run.pairs = run.zero_reductions = run.basis_added = 0
    tracer = spans.Tracer()
    tracer.install()
    try:
        cases = [make_case(inst) for inst in run.instances]
        run_pass(run, cases, tracer)
    finally:
        tracer.uninstall()
    traced_gb = sum(v[-1] for v in run.gb_t.values() if v)
    check_oracle(run)
    if workload == "general-cones":
        known_failures(run)
    metrics = spans.layer_metrics(tracer)
    spairs = metrics["groebner.spairs"]
    metrics.update(
        {
            "groebner.pairs": run.pairs,
            "groebner.zero_reductions": run.zero_reductions,
            "groebner.basis_added": run.basis_added,
            "groebner.useful_ratio": run.basis_added / spairs if spairs else 0.0,
            "affinoid.uncertified_modules": sum(
                1 for c in cases if getattr(c.mode, "_certified", True) is False
            ),
            "fail_ratio": run.failed / run.attempted,
            "trace_overhead": traced_gb / untraced_gb,
        }
    )
    out = ROOT / ".bench_out" / f"trace-{workload}-seed{seed}.json"
    tracer.write(out, {"workload": workload, "seed": seed, "metrics": metrics})
    return metrics, {"spans": str(out.relative_to(ROOT))}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--role", choices=("setup", "measure", "trace"), default="measure")
    args = ap.parse_args()

    instances = workloads.build(args.workload, args.seed)
    cases = [make_case(inst) for inst in instances]
    elapsed = time.perf_counter() - _START
    setup_s = elapsed * CALIBRATION_S / ((_CALIBRATION + calibrate()) / 2)
    out = {"setup_s": setup_s}
    if args.role != "setup":
        run = Run(instances)
        try:
            if args.role == "measure":
                metrics, notes = measure(run, cases, args.seconds, args.workload)
            else:
                metrics, notes = trace_run(run, cases, args.workload, args.seed)
        except WrongAnswer as exc:
            print(f"wrong answer: {exc}", file=sys.stderr)
            return 3
        out.update(metrics=metrics, notes=notes, attempted=run.attempted, failed=run.failed)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
