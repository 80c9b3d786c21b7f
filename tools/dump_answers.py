"""Write every answer of the benchmark workloads and of the CLI, and every
counted surface of the traced benchmark, to one file, so that two
checkouts can be compared byte for byte.

  python3 tools/dump_answers.py CHECKOUT OUT

CHECKOUT is the root of an lgb checkout; its ``src``, ``bench`` and
``tests/conftest.py`` are imported.  The file holds, for seeds 1 and 7 of the three workloads, every
basis (with its pair statistics), criterion verdict, and the quotients and
remainder of each probe, of 1 and of each generator divided by the basis
and by the generators; a capped series is written as ``str(h)``, in its
mode's term order, then as its body in the Laurent order; for every
polynomial basis, ``GBResult.combinations``
(each basis element over the generators), also recomputed with
``GBConfig(normalize=True)``, and at seed 1 the verdict and certificate of
``is_groebner`` on the basis without each one of its elements, and every
S-pair of the basis, by the one S-pair builder ``groebner._spair`` with
the adapter the layer's engine builds (``groebner._generators``,
``affinoid._series_generators``),
at each collision generator of each cone for each pair of basis elements,
with its cap; for each
general-cones basis element, the generators of every cone module of
``laurent.cone_module`` (at ceiling 8 on the orthant ring, 6 on a
polytope) or the exception it raised, and on a
polytope those at every ceiling r = 0..6 on a
fresh mode; while the general-cones bases of seed 1, their cone modules
and the ``ORTHANT_N3`` bases and modules are computed, every verdict of the
completeness certificate ``lattice._some_choice_feasible``, in call order,
with its numbers of levels, options and constraints; the bases or
exceptions (at parse or in ``buchberger_P``) of the known failures; the
bases and every cone module of the ``ORTHANT_N3`` ideals on the n=3
orthant ring; every cone module at every ceiling r = 0..8 of ``x^9 + y^9 + x^-8*y^-8`` on the
n=2 orthant ring and of each ``ORTHANT_N3`` generator, parsed afresh for
each ceiling so that no memo hides where the search starts to fail;
every cone module at r = 0..6, on a fresh mode for each
ceiling, for each of ``test_affinoid.TIJ_POLYS`` on each of
``test_affinoid.BENCH_POLYTOPES``; then
the stdout, exit code and stderr of ``gb``, ``gb --normalize``, ``check``,
``reduce``, ``member`` and ``info`` on each seed-1 problem file, each
known failure and each of the ``EXTENSION_FIELDS`` problems over GF(4),
GF(8), GF(25) and GF(27), which no workload reaches (written to the
directory ``OUT.problems``), and of ``selftest``; last, the parser's
answers: for each expression of ``EXPRESSIONS`` and of a seeded corpus,
over Q, GF(7) and GF(9), its terms in storage order, or the exception type
and text (a ``ParseError`` with its line and column), and the same for
``parse_problem`` on each of ``PROBLEMS``; last, for each workload, every
per-layer metric of unit count or ratio but ``trace_overhead``, with
``attempted`` and ``failed``, from one ``python3 bench/run.py --workload W
--seed 3 --trace 1`` run in CHECKOUT.  Compare two checkouts with ``cmp``.
"""

import contextlib
import io
import itertools
import json
import random
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("std-cones", "general-cones", "capped-series")
VERBS = (["gb"], ["gb", "--normalize"], ["check"], ["reduce"], ["member"], ["info"])
#: (q, generators) of one two-generator ideal over each extension field
#: besides GF(9), probed with ``x^2*y + a*x^-1*y^2``
EXTENSION_FIELDS = (
    (4, ("a*x^2*y + x*y^-1 + 1", "x^-1*y^2 + (a+1)*x + a*y")),
    (8, ("a*x^2*y + x*y^-1 + a^2", "x^-1*y^2 + (a^2+1)*x + a*y")),
    (25, ("a*x^2*y + 3*x*y^-1 + 2", "x^-1*y^2 + (2*a+4)*x + a*y")),
    (27, ("a*x^2*y + 2*x*y^-1 + a^2", "x^-1*y^2 + (a^2+2*a)*x + a*y")),
)

#: two-binomial ideals on Q[x^±1, y^±1, z^±1] under the orthant decomposition
#: with the per-cone score (``conftest.orthant_ring(3)``)
ORTHANT_N3 = (
    ("x*y^-1 + 2*z", "y*z - 3*x^-1"),
    ("x*y - 2", "y*z^-1 + 3*x"),
)

#: one expression per parser error and per zero-dropping or bound rule
EXPRESSIONS = (
    "", "   ", "x +", "2*", "x^y", "w + 1", "(x + y", "x/y", "x y", "3 $ x", "x^", "x^-",
    "1/", "1/0", "1/7", "7/7", "(x + y)^-1", "(x + y - y)^-1", "(x - x)^-1", "(x - x)^0",
    "0^-1", "(0*x)^-1", "(2*x*y^2)^-1", "x^1000000", "x^1000001", "(x + y)^256",
    "(x + y)^257", "(x + y - y)^1000000", "(x + y - y)^1000001", "(3*x + y)^-1",
    "(7*x + y)^-1", "((x + y)^3 - y^3)^-1", "(x + y)^4*(x - y)^2", "a*x + a^2", "a^-1",
    "z", "-(-x) - -y", "+x", "--x", "x*(y", "x)", "(x)(y)", "2/3*x^-2*y + (1/2)*y^-1",
)

#: problem files with one fault each
PROBLEMS = (
    "vars x\norder min\ngens:\nx\n",
    "ring Q\nring Q\nvars x\norder min\ngens:\nx\n",
    "ring Q\nvars x y\norder lex\ngens:\nx\n",
    "ring Q\nvars a\norder min\ngens:\na\n",
    "ring Q\nvars x x\norder min\ngens:\nx\n",
    "ring Q\nvars\norder min\ngens:\nx\n",
    "ring Q\norder min\ngens:\nx\n",
    "ring Q\nvars x\ngens:\nx\n",
    "ring\nvars x\norder min\ngens:\nx\n",
    "ring GF 6\nvars x\norder min\ngens:\nx\n",
    "ring GF 1\nvars x\norder min\ngens:\nx\n",
    "ring GF 3 2\nvars x\norder min\ngens:\nx\n",
    "ring Qp 4\nvars x\norder min\ngens:\nx\n",
    "ring Qp two\nvars x\norder min\ngens:\nx\n",
    "ring R\nvars x\norder min\ngens:\nx\n",
    "ring Q\nvars x y\norder degmin\nweight 1 1\npolytope (1,1) (0,1)\ngens:\nx\n",
    "ring Q\nvars x y\norder degmin\nweight 1 b\ngens:\nx\n",
    "ring Q\nvars x y\norder degmin\nweight\ngens:\nx\n",
    "ring Q\nvars x y\norder degmin\nweight 1 2 3\ngens:\nx\n",
    "ring Q\nvars x y\norder degmin\npolytope 1,1\ngens:\nx\n",
    "ring Q\nvars x y\norder degmin\npolytope (1,b)\ngens:\nx\n",
    "ring Q\nvars x y\norder degmin\npolytope (1,1,1)\ngens:\nx\n",
    "ring Q\nvars x y\norder degmin\npolytope (0,0) (0,0)\ngens:\nx\n",
    "ring Q\nvars x y\norder degmin\nprecision 5\ngens:\nx\n",
    "ring Qp 2\nvars x y\norder degmin\nweight 1 2\nprecision\ngens:\nx\n",
    "ring Q\nvars x y\norder degmin\nfoo 1\ngens:\nx\n",
    "ring Q\nvars x y\norder degmin\ngens:\nx + y\n\n  # note\nx - x\n",
    "ring Q\nvars x y\norder degmin\ngens:\nx + y\nx^-1 + (y\n",
    "ring GF 7\nvars x y\norder degmin\ngens:\n1/7*x + y\n",
    "ring GF 9\nvars x y\norder min\ngens:\n(a*x + y)^9 - (a*x)^9\nx^2 + z\n",
    "ring Q\nvars x y\norder degmin\ngens:\n",
)


def random_expressions(count):
    """Seeded strings over the expression alphabet, with 'z' and nesting."""
    rng = random.Random(2718)
    alphabet = "xyaz+-*/^()0123456789 "
    return [
        "(" * rng.randint(0, 2) + "".join(rng.choice(alphabet) for _ in range(rng.randint(1, 24)))
        for _ in range(count)
    ]


def run_cli(cli, argv):
    """(exit code, stdout, stderr) of one in-process CLI call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except Exception as exc:  # an uncaught exception is an answer too
            code = f"uncaught {type(exc).__name__}"
    return code, out.getvalue(), err.getvalue()


def main():
    checkout = Path(sys.argv[1]).resolve()
    out_path = Path(sys.argv[2])
    sys.path.insert(0, str(checkout / "src"))
    sys.path.insert(0, str(checkout / "bench"))
    sys.path.insert(0, str(checkout / "tests"))
    import workloads
    import worker
    from conftest import orthant_ring
    from test_affinoid import BENCH_POLYTOPES, TIJ_POLYS, polytope_mode
    from lgb import affinoid, cli, groebner, lattice, reduction
    from lgb.laurent import LaurentMode, cone_module, format_poly

    lines = []
    emit = lines.append

    certificates = [False]  # whether certificate verdicts are written
    depth = [0]  # a search that recurses through the module name logs once
    feasible = lattice._some_choice_feasible

    def logged_feasible(cons, levels, n):
        depth[0] += 1
        try:
            verdict = feasible(cons, levels, n)
        finally:
            depth[0] -= 1
        if certificates[0] and not depth[0]:
            options = sum(len(level) for level in levels)
            constraints = len(cons) + sum(len(o) for level in levels for o in level)
            emit(f"certificate levels {len(levels)} options {options} constraints {constraints} -> {verdict}")
        return verdict

    lattice._some_choice_feasible = logged_feasible

    def text(h):
        if isinstance(h, affinoid.CappedSeries):
            return str(h) + " | " + text(h.body)
        return format_poly(h) + " | " + repr(sorted((e, repr(c)) for e, c in h.terms_unordered()))

    def guarded(label, fn, *args):
        try:
            return fn(*args)
        except Exception as exc:  # the failure type is the answer
            emit(f"{label}: raised {type(exc).__name__}: {exc}")
            return None

    def generators(mode, f, label, radius):
        """The generators of one cone module."""
        return list(cone_module(mode, f, label, radius).generators)

    def collisions(mode, f, g, label):
        """The collision generators U of two bodies at a cone label."""
        return cone_module(mode, f, label).intersection(cone_module(mode, g, label))

    def combinations(gens):
        """The plain and the normalized basis with each element's combination."""
        for normalize in (False, True):
            res = guarded("gb", groebner.buchberger, gens, groebner.GBConfig(normalize=normalize))
            if res is None:
                continue
            emit(f"combinations normalize={normalize}")
            for h, combo in zip(res.basis, res.combinations):
                emit("basis " + text(h))
                for c in combo:
                    emit("  comb " + text(c))

    def tij_ceilings(mode, body):
        """T_{i,j} of one polynomial at every ceiling 0..6, each ceiling on a
        fresh mode so that no memo hides where the search starts to fail."""
        for radius in range(7):
            fresh = affinoid.PolytopeMode(mode.ring, mode.context, mode.refined)
            for label in fresh.labels:
                name = f"T_{label} ceiling {radius}"
                res = guarded(name, generators, fresh, body, label, radius)
                if res is not None:
                    emit(f"{name} {res}")

    def spairs(basis):
        """Every S-pair of a basis: per pair, cone and collision generator,
        the S-pair with its cap, or the exception."""
        capped = isinstance(basis[0], affinoid.CappedSeries)
        adapter = (affinoid._series_generators if capped else groebner._generators)(basis)[2]
        cap = basis[0].cap if capped else None
        bodies = [h.body for h in basis] if capped else basis
        for a, b in itertools.combinations(range(len(basis)), 2):
            f, g = bodies[a], bodies[b]
            for label in adapter.labels:
                found = guarded(f"U_{label} {a} {b}", collisions, adapter.mode, f, g, label)
                for v in found or ():
                    s = guarded(f"spair {a} {b} {label} {v}", groebner._spair, adapter, label, f, g, v)
                    if s is not None:
                        if capped:
                            s = affinoid.CappedSeries(adapter.mode, s, cap)
                        emit(f"spair {a} {b} {label} {v} cap {cap} " + text(s))

    def modules(h, mode):
        """Every cone module of one basis element, or the exception."""
        if mode is None:
            for i in range(len(h.ring.order.decomposition)):
                res = guarded(f"T_{i}", generators, LaurentMode(h.ring), h, i, 8)
                if res is not None:
                    emit(f"T_{i} {res}")
        else:
            for label in mode.labels:
                res = guarded(f"T_{label}", generators, mode, h.body, label, 6)
                if res is not None:
                    emit(f"T_{label} {res}")
            tij_ceilings(mode, h.body)

    for seed in (1, 7):
        for wl in WORKLOADS:
            for inst in workloads.build(wl, seed):
                case = worker.make_case(inst)
                emit(f"== {wl} seed {seed} {inst.name}")
                certificates[0] = wl == "general-cones" and seed == 1
                res = guarded("gb", case.gb)
                if res is None:
                    certificates[0] = False
                    continue
                emit(f"stats {res.stats}")
                for h in res.basis:
                    emit("basis " + text(h))
                    if wl == "general-cones":
                        modules(h, case.mode)
                certificates[0] = False
                emit(f"check {guarded('check', case.check, res.basis)}")
                if seed == 1:
                    spairs(res.basis)
                if case.mode is None:
                    combinations(case.gens)
                    if seed == 1:
                        for k in range(len(res.basis)):
                            subset = res.basis[:k] + res.basis[k + 1:]
                            verdict = guarded("check", groebner.is_groebner, subset)
                            emit(f"check without {k} {verdict}")
                for f in case.probes + [case.one] + list(case.gens):
                    for divisors in (res.basis, case.gens):
                        if isinstance(f, affinoid.CappedSeries):
                            r = guarded("reduce", affinoid.reduce_P, f, divisors)
                        else:
                            r = guarded("reduce", reduction.reduce, f, divisors)
                        if r is None:
                            continue
                        quotients, remainder = r
                        emit("rem " + text(remainder))
                        for q in quotients:
                            emit("quo " + text(q))
        for name, body, _ in workloads.KNOWN_FAILURES:
            emit(f"== known {name}")
            problem = guarded("parse", cli.parse_problem, body)
            if problem is None:
                continue
            res = guarded("gb", affinoid.buchberger_P, problem.series_generators())
            if res is not None:
                for h in res.basis:
                    emit("basis " + text(h))

    ring3 = orthant_ring(3)
    for gens in ORTHANT_N3:
        emit(f"== orthant n=3 {', '.join(gens)}")
        polys = [cli.parse_poly(ring3, g) for g in gens]
        certificates[0] = True
        res = guarded("gb", groebner.buchberger, polys)
        if res is not None:
            for h in res.basis:
                emit("basis " + text(h))
                modules(h, None)
        certificates[0] = False
        combinations(polys)

    ceiling_cases = (
        (orthant_ring(2), ["x^9 + y^9 + x^-8*y^-8"]),
        (ring3, [g for gens in ORTHANT_N3 for g in gens]),
    )
    for ring, texts in ceiling_cases:
        for t in texts:
            emit(f"== ceilings {t}")
            for radius in range(9):
                for i in range(len(ring.order.decomposition)):
                    label = f"T_{i} ceiling {radius}"
                    res = guarded(label, generators, LaurentMode(ring), cli.parse_poly(ring, t), i, radius)
                    if res is not None:
                        emit(f"{label} {res}")

    for vertices in BENCH_POLYTOPES:
        ring, mode = polytope_mode(vertices)
        for t in TIJ_POLYS:
            emit(f"== tij ceilings {vertices} {t}")
            tij_ceilings(mode, cli.parse_poly(ring, t))

    probdir = out_path.parent / (out_path.name + ".problems")
    probdir.mkdir(exist_ok=True)
    files = []
    for wl in WORKLOADS:
        for k, inst in enumerate(workloads.build(wl, 1)):
            files.append((f"{wl}-{k}", inst.text, inst.probes[0].text))
    for k, (_, body, _) in enumerate(workloads.KNOWN_FAILURES):
        files.append((f"known-{k}", body, "x + y"))
    for q, gens in EXTENSION_FIELDS:
        body = f"ring GF {q}\nvars x y\norder degmin\ngens:\n" + "\n".join(gens) + "\n"
        files.append((f"gf{q}", body, "x^2*y + a*x^-1*y^2"))
    for name, body, probe in files:
        path = probdir / f"{name}.txt"
        path.write_text(body)
        for verb in VERBS:
            argv = [*verb, str(path)]
            if verb[0] in ("reduce", "member", "info"):
                argv += ["--poly", probe]
            code, out, err = run_cli(cli, argv)
            emit(f"== cli {name} {' '.join(verb)} -> {code}")
            emit(out)
            emit("stderr: " + err.replace(str(probdir), "<dir>"))
    code, out, _ = run_cli(cli, ["selftest"])
    emit(f"== selftest -> {code}")
    emit(out)

    def parsed(fn, *args):
        """What a parse gives: the terms in storage order, or the error."""
        try:
            res = fn(*args)
        except cli.ParseError as exc:
            return f"ParseError: {exc} (line {exc.line}, column {exc.col})"
        except Exception as exc:  # the failure type is the answer
            return f"raised {type(exc).__name__}: {exc}"
        poly = res.generators if isinstance(res, cli.Problem) else [res]
        return " ; ".join(text(f) for f in poly)

    for q in ("Q", "GF 7", "GF 9"):
        emit(f"== expressions over {q}")
        ring = cli.parse_problem(f"ring {q}\nvars x y\norder degmin\ngens:\nx\n").ring
        for k, t in enumerate(EXPRESSIONS + tuple(random_expressions(1000))):
            emit(f"{t!r} -> {parsed(cli.parse_poly, ring, t, k % 4 or None)}")
    emit("== problem files")
    for body in PROBLEMS:
        emit(f"{body!r} -> {parsed(cli.parse_problem, body)}")

    spec = json.loads((checkout / "BENCHMARK.json").read_text(encoding="utf-8"))
    counted = [
        m["name"] for m in spec["per_layer"]
        if m["unit"] in ("count", "ratio") and m["name"] != "trace_overhead"
    ]
    for wl in WORKLOADS:
        argv = [sys.executable, "bench/run.py", "--workload", wl, "--seed", "3", "--trace", "1"]
        proc = subprocess.run(argv, cwd=checkout, stdout=subprocess.PIPE, text=True, check=True)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        emit(f"== bench {wl} seed 3 trace")
        for name in counted:
            emit(f"{name} {result['metrics'][name]['value']!r}")
        emit(f"attempted {result['attempted']} failed {result['failed']}")
    out_path.write_text("\n".join(lines) + "\n")
    print(f"{len(lines)} lines written to {out_path}")


if __name__ == "__main__":
    main()
