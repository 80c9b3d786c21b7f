"""Write every answer of the benchmark workloads and of the CLI to one file,
so that two checkouts can be compared byte for byte.

  python3 tools/dump_answers.py CHECKOUT OUT

CHECKOUT is the root of an lgb checkout; its ``src``, ``bench`` and
``tests/conftest.py`` are imported.  The file holds, for seeds 1 and 7 of the three workloads, every
basis (with its pair statistics), criterion verdict, and the quotients and
remainder of each probe, of 1 and of each generator divided by the basis
and by the generators; for each general-cones basis element, every cone
module (``ti_set_general(i, 8)`` on the orthant ring, ``tij_generators(
body, label, 6)`` on a polytope) or the exception it raised; the bases or
exceptions of the known failures; the bases and every cone module of the
``ORTHANT_N3`` ideals on the n=3 orthant ring; then
the stdout, exit code and stderr of ``gb``, ``gb --normalize``, ``check``,
``reduce``, ``member`` and ``info`` on each seed-1 problem file, each
known failure and each of the ``EXTENSION_FIELDS`` problems over GF(4),
GF(8), GF(25) and GF(27), which no workload reaches (written to the
directory ``OUT.problems``), and of ``selftest``.  Compare two checkouts
with ``cmp``.
"""

import contextlib
import io
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
    from lgb import affinoid, cli, groebner, reduction
    from lgb.laurent import format_poly

    lines = []
    emit = lines.append

    def text(h):
        body = h.body if isinstance(h, affinoid.CappedSeries) else h
        return format_poly(body) + " | " + repr(sorted((e, repr(c)) for e, c in body.terms_unordered()))

    def guarded(label, fn, *args):
        try:
            return fn(*args)
        except Exception as exc:  # the failure type is the answer
            emit(f"{label}: raised {type(exc).__name__}: {exc}")
            return None

    def modules(h, mode):
        """Every cone module of one basis element, or the exception."""
        if mode is None:
            for i in range(len(h.ring.order.decomposition)):
                res = guarded(f"T_{i}", h.ti_set_general, i, 8)
                if res is not None:
                    emit(f"T_{i} {res}")
        else:
            for label in mode.labels:
                res = guarded(f"T_{label}", mode.tij_generators, h.body, label, 6)
                if res is not None:
                    emit(f"T_{label} {res}")

    for seed in (1, 7):
        for wl in WORKLOADS:
            for inst in workloads.build(wl, seed):
                case = worker.make_case(inst)
                emit(f"== {wl} seed {seed} {inst.name}")
                res = guarded("gb", case.gb)
                if res is None:
                    continue
                emit(f"stats {res.stats}")
                for h in res.basis:
                    emit("basis " + text(h))
                    if wl == "general-cones":
                        modules(h, case.mode)
                emit(f"check {guarded('check', case.check, res.basis)}")
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
            problem = cli.parse_problem(body)
            res = guarded("gb", affinoid.buchberger_P, problem.series_generators())
            if res is not None:
                for h in res.basis:
                    emit("basis " + text(h))

    ring3 = orthant_ring(3)
    for gens in ORTHANT_N3:
        emit(f"== orthant n=3 {', '.join(gens)}")
        res = guarded("gb", groebner.buchberger, [cli.parse_poly(ring3, g) for g in gens])
        if res is not None:
            for h in res.basis:
                emit("basis " + text(h))
                modules(h, None)

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
    out_path.write_text("\n".join(lines) + "\n")
    print(f"{len(lines)} lines written to {out_path}")


if __name__ == "__main__":
    main()
