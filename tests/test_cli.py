import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from conftest import random_poly, reference_parse_poly, ring_for
from lgb.affinoid import PolytopeMode
from lgb.cli import ParseError, main, parse_poly, parse_problem
from lgb.coeffs import FieldSpec
from lgb.groebner import same_ideal
from lgb.laurent import format_poly


def write(tmp_path, text, name="problem.lgb"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def test_parse_problem_rational():
    problem = parse_problem("ring Q\nvars x y\norder degmin\ngens:\nx + y\n")
    assert problem.ring.n == 2
    assert not problem.capped
    assert len(problem.generators) == 1


def test_parse_problem_finite_field():
    problem = parse_problem("ring GF 9\nvars x y\norder degmin\ngens:\nx^2*y + y^-6\n")
    assert problem.ring.field.p == 3 and problem.ring.field.k == 2
    assert str(problem.generators[0]) == "y^-6 + x^2*y"


def test_parse_problem_polytopal():
    text = (
        "ring Qp 2\nvars x y\npolytope (1,1) (0,1)\norder degmin\n"
        "precision 20\ngens:\n2*x + y\n"
    )
    problem = parse_problem(text)
    assert problem.capped
    assert problem.precision == Fraction(20)
    assert problem.mode.context.vertices == ((Fraction(1), Fraction(1)), (Fraction(0), Fraction(1)))


def test_weight_parses_to_the_one_vertex_polytope():
    problem = parse_problem("ring Qp 2\nvars x y\nweight 1 1/2\norder degmin\ngens:\nx\n")
    assert isinstance(problem.mode, PolytopeMode)
    assert problem.mode.context.vertices == ((Fraction(1), Fraction(1, 2)),)
    assert problem.mode.labels == ((1, 1), (1, 2), (1, 3))
    with pytest.raises(ParseError, match="^weight dimension does not match vars$"):
        parse_problem("ring Qp 2\nvars x y\nweight 1 2 3\norder degmin\ngens:\nx\n")


def test_parse_problem_errors():
    with pytest.raises(ParseError):
        parse_problem("vars x\norder min\ngens:\nx\n")
    with pytest.raises(ParseError):
        parse_problem("ring Q\nring Q\nvars x\norder min\ngens:\nx\n")
    with pytest.raises(ParseError):
        parse_problem(
            "ring Q\nvars x y\norder degmin\nweight 1 1\npolytope (1,1) (0,1)\ngens:\nx\n"
        )
    with pytest.raises(ParseError):
        parse_problem("ring Q\nvars x y\norder lex\ngens:\nx\n")
    with pytest.raises(ParseError):
        parse_problem("ring Q\nvars a\norder min\ngens:\na\n")


def test_expression_errors(q_ring2):
    for bad in ("x +", "2*", "x^y", "w + 1", "(x + y", "x/y"):
        with pytest.raises(ParseError):
            parse_poly(q_ring2, bad)


def test_negative_power_of_term(q_ring2):
    assert parse_poly(q_ring2, "(2*x*y^2)^-1") == q_ring2.poly({(-1, -2): Fraction(1, 2)})
    with pytest.raises(ParseError):
        parse_poly(q_ring2, "(x + y)^-1")


def test_power_bounds(q_ring2):
    # large single-term powers stay cheap; multi-term powers are bounded
    assert parse_poly(q_ring2, "x^999999") == q_ring2.poly({(999999, 0): 1})
    assert parse_poly(q_ring2, "(x + y)^3") == parse_poly(
        q_ring2, "x^3 + 3*x^2*y + 3*x*y^2 + y^3"
    )
    for bad in ("x^9999999", "(x+y)^257", "(x+y)^-2"):
        with pytest.raises(ParseError):
            parse_poly(q_ring2, bad)


def fuzz_texts():
    rng = random.Random(5150)
    alphabet = "xy a+-*/^()0123456789"
    return ["".join(rng.choice(alphabet) for _ in range(rng.randint(1, 18))) for _ in range(600)]


def test_parser_fuzz_never_crashes(q_ring2):
    for text in fuzz_texts():
        try:
            parse_poly(q_ring2, text)
        except (ParseError, ZeroDivisionError):
            pass


#: expressions whose zeros decide the path through ``power`` or its bounds
ZERO_AND_BOUND_TEXTS = (
    "(x + y - y)^-1", "(x - x)^-1", "(x - x)^0", "(x - x)^3", "0^-1", "(0*x)^-1",
    "(x + y - x - y)^2", "(2*x + y - y)^-2", "(7*x + y)^-1", "(x + 7*y - 7*y)^-3",
    "(3*x + y)^-1", "(x + y)^3*(x - y)", "((x + y)^3 - y^3)^-1", "(x + y)^4*(x + y)^2",
    "(x + y - y)^1000000", "(x + y - y)^1000001", "(x + y)^256", "(x + y)^257",
    "(x + y - y)^-1000000", "(a*x + y)^9 - (a*x)^9", "(1/7)*x", "7/7", "a^-1", "z + 1",
)


def nested_texts(count):
    """Seeded expressions with nested parentheses, mostly well formed, a
    third of them with one character inserted, deleted or replaced."""
    rng = random.Random(1807)
    alphabet = "xyaz0/()+-*^ 123"

    def expr(depth):
        terms = []
        for _ in range(rng.randint(1, 3)):
            factors = []
            for _ in range(rng.randint(1, 3)):
                roll = rng.random()
                if depth < 3 and roll < 0.25:
                    atom = "(" + expr(depth + 1) + ")"
                elif roll < 0.6:
                    atom = str(rng.randint(0, 9))
                    if rng.random() < 0.3:
                        atom += f"/{rng.randint(0, 9)}"
                else:
                    atom = rng.choice("az" if rng.random() < 0.03 else "xy")
                if rng.random() < 0.3:
                    atom += "^" + rng.choice(("", "-")) + str(rng.randint(0, 4))
                factors.append(atom)
            terms.append(rng.choice(("*", " * ")).join(factors))
        text = rng.choice(("", "-", "+")) + terms[0]
        for term in terms[1:]:
            text += rng.choice((" + ", " - ", "+", "-")) + term
        return text

    texts = []
    for _ in range(count):
        text = expr(0)
        if rng.random() < 1 / 3:
            k = rng.randrange(len(text) + 1)
            edit = rng.choice(("insert", "delete", "replace"))
            cut = k + (edit != "insert")
            text = text[:k] + ("" if edit == "delete" else rng.choice(alphabet)) + text[cut:]
        texts.append(text)
    return texts


def parse_outcome(parse, ring, text, line):
    """The terms in storage order, or the type, text and position of the error."""
    try:
        poly = parse(ring, text, line)
    except Exception as exc:  # the exception is the outcome compared
        return type(exc), str(exc), getattr(exc, "line", None), getattr(exc, "col", None)
    return poly, list(poly.terms_unordered())


def assert_parsers_agree(ring, texts):
    kinds = set()
    for k, text in enumerate(texts):
        line = k % 5 or None
        got = parse_outcome(parse_poly, ring, text, line)
        want = parse_outcome(reference_parse_poly, ring, text, line)
        assert got == want, (text, line)
        kinds.add(want[0].__name__ if isinstance(want[0], type) else "parsed")
    return kinds


@pytest.mark.parametrize(
    "field", [FieldSpec.rational(), FieldSpec.finite(7), FieldSpec.finite(3, 2)], ids=["Q", "GF7", "GF9"]
)
def test_parser_agrees_with_the_reference_parser(field):
    """Equal terms in the same storage order, or the same exception with the
    same text, line and column, as the parser that built every step as a
    LaurentPoly (``conftest.reference_parse_poly``)."""
    ring = ring_for(field, 2, "degmin")
    kinds = assert_parsers_agree(ring, fuzz_texts() + list(ZERO_AND_BOUND_TEXTS) + nested_texts(5000))
    assert {"parsed", "ParseError"} <= kinds


def test_parser_agrees_with_the_reference_on_workload_texts(monkeypatch):
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "bench"))
    import workloads

    for seed in (1, 7):
        for name in ("std-cones", "general-cones", "capped-series"):
            for inst in workloads.build(name, seed):
                ring = parse_problem(inst.text).ring
                texts = inst.text.split("gens:\n", 1)[1].splitlines()
                assert assert_parsers_agree(ring, texts + [p.text for p in inst.probes]) == {"parsed"}


@pytest.mark.parametrize(
    "field",
    [FieldSpec.rational(), FieldSpec.padic(2), FieldSpec.finite(7), FieldSpec.finite(3, 2)],
    ids=["Q", "Q2", "GF7", "GF9"],
)
def test_print_parse_round_trip(field):
    rng = random.Random(1234)
    ring = ring_for(field, 2, "degmin")
    for _ in range(1000):
        f = random_poly(ring, rng, terms=4, radius=4)
        assert parse_poly(ring, format_poly(f)) == f


def test_gb_verb_output(tmp_path, capsys):
    path = write(
        tmp_path,
        "ring Q\nvars x y z\norder degmin\ngens:\nx^-3*y^-4 + x*y*z\nx^3*y^-2 + y^-1*z\n",
    )
    assert main(["gb", path]) == 0
    out = capsys.readouterr().out
    assert out.splitlines() == [
        "x^-3*y^-4 + x*y*z",
        "x^3*y^-2 + y^-1*z",
        "-y^4*z + x^-1*y^-2*z^-1",
    ]


def _capped(directive):
    return f"ring Qp 2\nvars x y\n{directive}\norder degmin\nprecision 20\ngens:\nx*y + 4\n"


#: name -> (problem file, --poly, the whole stdout of ``lgb info``)
INFO_CASES = {
    "standard": (
        "ring Q\nvars x y\norder degmin\ngens:\nx^-2*y^-1 + x*y\n",
        "2*x^2*y^-1 + x^-3*y - 3*y^-5",
        "lm: y^-5\nlm_0: x^2*y^-1\nlm_1: x^-3*y\nlm_2: y^-5\n"
        "T_0 generator: x^2*y^3\nT_1 generator: x*y^3\nT_2 generator: x*y^2\n",
    ),
    "weight (1,2)": (
        _capped("weight 1 2"),
        "x^-1*y^2 - 2*x + 3",
        "lm: x^-1*y^2\nlm_0: x^-1*y^2\nlm_1: x^-1*y^2\nlm_2: x^-1*y^2\n"
        "T_0 generator: x*y^-2\nT_1 generator: x*y^-2\nT_2 generator: x*y^-2\n",
    ),
    "polytope (1,1)": (
        _capped("polytope (1,1)"),
        "x^-1*y^2 - 2*x + 3",
        "lm: x^-1*y^2\nlm_(1, 1): x^-1*y^2\nlm_(1, 2): x^-1*y^2\nlm_(1, 3): x^-1*y^2\n"
        "T_(1, 1) generators: x*y^-2\nT_(1, 2) generators: x*y^-2\n"
        "T_(1, 3) generators: x*y^-2\n",
    ),
    "polytope (1,1),(0,1)": (
        _capped("polytope (1,1) (0,1)"),
        "x^-1*y^2 - 2*x + 3",
        "lm: x^-1*y^2\nlm_(1, 1): x^-1*y^2\nlm_(1, 2): x^-1*y^2\nlm_(2, 1): x^-1*y^2\n"
        "lm_(2, 2): x^-1*y^2\nT_(1, 1) generators: x*y^-2\nT_(1, 2) generators: x*y^-2\n"
        "T_(2, 1) generators: y^-3\nT_(2, 2) generators: y^-3\n",
    ),
}


@pytest.mark.parametrize("case", list(INFO_CASES))
def test_info_verb_fixture(tmp_path, capsys, case):
    text, poly, expected = INFO_CASES[case]
    assert main(["info", write(tmp_path, text), "--poly", poly]) == 0
    assert capsys.readouterr().out == expected


def test_reduce_verb_empty_gens(tmp_path, capsys):
    path = write(tmp_path, "ring Q\nvars x y\norder degmin\ngens:\n")
    assert main(["reduce", path, "--poly", "x + 2*y"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out == ["x + 2*y"]


def test_member_exit_codes(tmp_path, capsys):
    path = write(tmp_path, "ring Q\nvars x y\norder degmin\ngens:\nx + y\nx^-1*y + y^-1\n")
    assert main(["member", path, "--poly", "y - x^2*y^-2"]) == 0
    # every member vanishes at the common zero (-1, 1); x does not
    assert main(["member", path, "--poly", "x"]) == 3
    capsys.readouterr()


def test_parse_error_exit_code(tmp_path, capsys):
    path = write(tmp_path, "ring Q\nvars x y\norder degmin\ngens:\nx +\n")
    assert main(["gb", path]) == 1
    capsys.readouterr()


def test_check_verb(tmp_path, capsys):
    good = write(tmp_path, "ring Q\nvars x y\norder degmin\ngens:\nx + y\n", "good.lgb")
    assert main(["check", good]) == 0
    bad = write(
        tmp_path,
        "ring Q\nvars x y z\norder degmin\ngens:\nx^-3*y^-4 + x*y*z\nx^3*y^-2 + y^-1*z\n",
        "bad.lgb",
    )
    assert main(["check", bad]) == 3
    capsys.readouterr()


def test_check_verb_names_file_positions_of_repeated_generators(tmp_path, capsys):
    path = write(tmp_path, "ring Q\nvars x y\norder degmin\ngens:\nx - 1\nx - 1\ny - 2\nx*y + 1\n")
    assert main(["check", path]) == 3
    out = capsys.readouterr().out
    assert "generators 1 and 3," in out


def test_check_and_gb_agree_on_a_capped_zero_generator(tmp_path, capsys):
    # 1024 = 2^10 is zero at precision 10
    path = write(
        tmp_path, "ring Qp 2\nvars x y\nweight 1 2\norder degmin\nprecision 10\ngens:\nx - 1\n1024\n"
    )
    errors = []
    for verb in ("gb", "check"):
        assert main([verb, path]) == 2
        errors.append(capsys.readouterr().err)
    assert errors[0] == errors[1] == "error: generators must be nonzero at the working precision\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["check", "{path}", "--max-basis", "3"],
        ["reduce", "{path}", "--poly", "x", "--max-basis", "3"],
        ["info", "{path}", "--poly", "x", "--max-basis", "3"],
        ["selftest", "--max-basis", "3"],
        ["selftest", "--precision", "3"],
    ],
    ids=["check", "reduce", "info", "selftest-max-basis", "selftest-precision"],
)
def test_options_are_registered_only_where_read(tmp_path, capsys, argv):
    path = write(tmp_path, "ring Q\nvars x y\norder degmin\ngens:\nx + y\n")
    with pytest.raises(SystemExit) as exc:
        main([a.format(path=path) for a in argv])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize(
    "header, value, message",
    [
        ("weight 1 2\n", "abc", "precision must be a rational"),
        ("weight 1 2\n", "1/0", "precision must be a rational"),
        ("", "5", "precision requires a weight or polytope directive"),
    ],
    ids=["not-rational", "zero-denominator", "no-weight-or-polytope"],
)
def test_precision_option_follows_the_directive_rules(tmp_path, capsys, header, value, message):
    body = "vars x y\norder degmin\n" + header
    option = write(tmp_path, "ring Qp 2\n" + body + "gens:\nx + 2*y\n", "option.lgb")
    directive = write(tmp_path, f"ring Qp 2\n{body}precision {value}\ngens:\nx + 2*y\n", "directive.lgb")
    assert main(["gb", directive]) == 1
    assert capsys.readouterr().err.startswith(f"parse error: {message}")
    assert main(["gb", option, "--precision", value]) == 1
    assert capsys.readouterr().err == f"parse error: {message}\n"


def test_precision_option_overrides_the_cap(tmp_path, capsys):
    path = write(tmp_path, "ring Qp 2\nvars x y\nweight 1 2\norder degmin\nprecision 20\ngens:\nx - 1\n1024\n")
    assert main(["gb", path]) == 0
    # 1024 = 2^10 is zero at precision 10
    assert main(["gb", path, "--precision", "10"]) == 2
    assert capsys.readouterr().err.endswith("error: generators must be nonzero at the working precision\n")


def test_polytopal_gb_verb(tmp_path, capsys):
    path = write(
        tmp_path,
        "ring Qp 2\nvars x y\npolytope (1,1) (0,1)\norder degmin\nprecision 20\n"
        "gens:\n2*x + y\n",
    )
    assert main(["gb", path]) == 0
    out = capsys.readouterr().out.strip()
    assert out == "y + 2*x"


TRIANGLE = (
    "ring Qp 2\nvars x y\npolytope (0,0) (1,0) (0,1)\norder degmin\nprecision 10\n"
    "gens:\n3*x^-1*y - x^-1\nx*y^-1 + 2/3*x\n"
)


@pytest.mark.parametrize(
    "verb", [["gb"], ["gb", "--normalize"], ["reduce"], ["member"], ["check"], ["info"]],
    ids=lambda verb: " ".join(verb),
)
def test_invalid_polytope_order_fails_at_set_up(tmp_path, capsys, verb):
    # degmin is not linear on the triangle's whole vertex region V_1, so the
    # problem is refused when it is built, before any S-pair or division
    argv = [*verb, write(tmp_path, TRIANGLE)]
    if verb[0] in ("reduce", "member", "info"):
        argv += ["--poly", "x + y"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: score is not linear on cone 0\n"


def test_reduce_reads_only_the_cone_leading_data_it_scans(tmp_path, capsys):
    # cone 1 of this segment's refinement is not unimodular, so its leading
    # data cannot be computed; every step of this division fires on cone 0
    # until the cap, so it never scans cone 1 and succeeds
    path = write(
        tmp_path,
        "ring Qp 2\nvars x y\npolytope (1,1) (-2,-1)\norder degmin\nprecision 10\n"
        "gens:\n2*x + y\nx*y + 4\n",
    )
    assert main(["reduce", path, "--poly", "x + y"]) == 0
    assert capsys.readouterr().out == (
        "0\n"
        "-x*y^-1 + 1 + 2*x^2*y^-2 - 4*x^3*y^-3 + 8*x^4*y^-4 - 16*x^5*y^-5 + 32*x^6*y^-6"
        " - 64*x^7*y^-7 + 128*x^8*y^-8 - 256*x^9*y^-9 + 512*x^10*y^-10 + 1024*x^11*y^-11\n"
        "0\n"
    )
    assert main(["gb", path]) == 2
    assert capsys.readouterr().err == "error: cone 1 is not simplicial unimodular\n"


def test_weight_mode_verbs(tmp_path, capsys):
    path = write(
        tmp_path,
        "ring Qp 2\nvars x y\nweight 1 2\norder degmin\nprecision 30\n"
        "gens:\nx + 2*y\nx^-1*y + 4\n",
    )
    assert main(["gb", path]) == 0
    assert main(["reduce", path, "--poly", "x^2 + y^2"]) == 0
    capsys.readouterr()


@pytest.mark.parametrize(
    "directive, gens, probe, gb_out, reduce_out",
    [
        (
            "weight 1 2",
            "x + 2*y\nx^-1*y + 4\ny + 8*x^3\n",
            "x^2 + y^2 + 8*x^3",
            "x + 2*y\nx^-1*y + 4\ny + 8*x^3\n",
            "0\nx - 14380470*y + 8*x^2 - 16*x*y + 9586976*y^2\n28760941*x*y - 19173952*x*y^2\n0\n",
        ),
        (
            "polytope (1,1) (0,1)",
            "2*x + y\nx*y + 4\n",
            "x^2 + y^2",
            "y + 2*x\nx*y + 4\n",
            "0\n5*x^2*y^-1 + y - 10*x^3*y^-2 - 2*x + 20*x^4*y^-3 - 40*x^5*y^-4"
            " + 80*x^6*y^-5 - 160*x^7*y^-6 + 320*x^8*y^-7 - 640*x^9*y^-8 + 1280*x^10*y^-9"
            " - 2560*x^11*y^-10 + 5120*x^12*y^-11 - 10240*x^13*y^-12 + 20480*x^14*y^-13"
            " - 40960*x^15*y^-14 + 81920*x^16*y^-15 - 163840*x^17*y^-16 + 327680*x^18*y^-17"
            " - 655360*x^19*y^-18 + 1310720*x^20*y^-19 - 2621440*x^21*y^-20"
            " + 1048576*x^22*y^-21 - 2097152*x^23*y^-22\n0\n",
        ),
    ],
    ids=["weight", "polytope"],
)
def test_capped_stdout_prints_in_the_mode_order(tmp_path, capsys, directive, gens, probe, gb_out, reduce_out):
    # capped series print largest term first in the mode's order, valuation
    # first: "y + 8*x^3" and "y + 2*x", where the Laurent order puts x^3 and x first
    path = write(tmp_path, f"ring Qp 2\nvars x y\n{directive}\norder degmin\nprecision 20\ngens:\n{gens}")
    assert main(["gb", path]) == 0
    assert capsys.readouterr().out == gb_out
    assert main(["reduce", path, "--poly", probe]) == 0
    assert capsys.readouterr().out == reduce_out


def test_deterministic_output(tmp_path, capsys):
    path = write(
        tmp_path,
        "ring GF 9\nvars x y\norder degmin\ngens:\nx^2*y + y^-6\nx^-2*y + x^-1*y^-2\n",
    )
    assert main(["gb", path]) == 0
    first = capsys.readouterr().out
    assert main(["gb", path]) == 0
    second = capsys.readouterr().out
    assert first == second and first


def test_missing_file(capsys):
    assert main(["gb", "/nonexistent/problem.lgb"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize(
    "q, gens, expected, previous",
    [
        (
            4,
            "a*x^2*y + x*y^-1 + 1\nx^-1*y^2 + (a+1)*x + a*y\n",
            "a*x^2*y + x*y^-1 + 1\nx^-1*y^2 + (a+1)*x + a*y\na*y^3 + (a+1)*x^-1*y + (a+1)\n"
            "x + a*x^-1*y^-1\nx^-4*y^-4 + (a+1)*y\na*y + a*x^-1*y^-1\n(a+1)*x^-3*y^-3 + a\n",
            None,
        ),
        (
            8,
            "a*x^2*y + x*y^-1 + a^2\nx^-1*y^2 + (a^2+1)*x + a*y\n",
            "a*x^2*y + x*y^-1 + a^2\nx^-1*y^2 + (a^2+1)*x + a*y\na*y^3 + a*x^-1*y + a\n"
            "(a^2+1)*x^-3*y^-2 + x + a*x^-1*y^-1\n(a+1)*x + a^2*y + a*x^-1*y^-1\n"
            "(a^2+1)*x^-4*y^-4 + a*y + (a^2+a)*x^-1*y^-1\n(a+1)*x^-2*y^-1 + a*x^-3*y^-3 + (a^2+a)\n",
            "a*x^2*y + x*y^-1 + a^2\nx^-1*y^2 + (a^2+1)*x + a*y\na*y^3 + a*x^-1*y + a\n"
            "(a^2+1)*x^-3*y^-2 + x + a*x^-1*y^-1\n(a+1)*x + a^2*y + a*x^-1*y^-1\n"
            "(a^2+a+1)*x^-4*y^-4 + y + (a+1)*x^-1*y^-1\na*x^-2*y^-1 + (a^2+1)*x^-3*y^-3 + a^2\n",
        ),
        (
            25,
            "a*x^2*y + 3*x*y^-1 + 2\nx^-1*y^2 + (2*a+4)*x + a*y\n",
            "a*x^2*y + 3*x*y^-1 + 2\nx^-1*y^2 + (2*a+4)*x + a*y\n4*a*y^3 + (2*a+2)*x^-1*y + (4*a+3)\n"
            "2*x^-3*y^-2 + (2*a+3)*x + x^-1*y^-1\n(a+3)*x + (a+1)*y + (4*a+4)*x^-1*y^-1\n"
            "a*x^-4*y^-4 + (4*a+3)*y + (a+2)*x^-1*y^-1\n(4*a+3)*x^-2*y^-1 + (3*a+3)*x^-3*y^-3 + (2*a+4)\n",
            "a*x^2*y + 3*x*y^-1 + 2\nx^-1*y^2 + (2*a+4)*x + a*y\n4*a*y^3 + (2*a+2)*x^-1*y + (4*a+3)\n"
            "2*x^-3*y^-2 + (2*a+3)*x + x^-1*y^-1\n(a+3)*x + (a+1)*y + (4*a+4)*x^-1*y^-1\n"
            "2*x^-4*y^-4 + (4*a+2)*y + (a+3)*x^-1*y^-1\n(2*a+3)*x^-2*y^-1 + x^-3*y^-3 + (a+4)\n",
        ),
        (
            27,
            "a*x^2*y + 2*x*y^-1 + a^2\nx^-1*y^2 + (a^2+2*a)*x + a*y\n",
            "a*x^2*y + 2*x*y^-1 + a^2\nx^-1*y^2 + (a^2+2*a)*x + a*y\n2*a*y^3 + a*x^-1*y + (a^2+a+1)\n"
            "(a^2+2*a)*x^-3*y^-2 + (2*a^2+a+2)*x + (2*a^2+2)*x^-1*y^-1\n"
            "(2*a^2+2)*x + 2*a^2*y + (a^2+a+1)*x^-1*y^-1\n"
            "(a^2+2*a)*x^-4*y^-4 + (a^2+2*a+2)*y + x^-1*y^-1\n"
            "a*x^-2*y^-1 + (a^2+a+1)*x^-3*y^-3 + (a+1)\n",
            "a*x^2*y + 2*x*y^-1 + a^2\nx^-1*y^2 + (a^2+2*a)*x + a*y\n2*a*y^3 + a*x^-1*y + (a^2+a+1)\n"
            "(a^2+2*a)*x^-3*y^-2 + (2*a^2+a+2)*x + (2*a^2+2)*x^-1*y^-1\n"
            "(2*a^2+2)*x + 2*a^2*y + (a^2+a+1)*x^-1*y^-1\n"
            "(a+2)*x^-4*y^-4 + (a^2+a+1)*y + (2*a^2+1)*x^-1*y^-1\n"
            "(a^2+2)*x^-2*y^-1 + (2*a^2+a)*x^-3*y^-3 + (2*a^2+a+1)\n",
        ),
    ],
    ids=["GF4", "GF8", "GF25", "GF27"],
)
def test_gb_stdout_over_extension_fields(tmp_path, capsys, q, gens, expected, previous):
    """The printed basis; where the chain criterion in the loop changed it,
    the same ideal as the exhaustive loop's ``previous`` one."""
    text = f"ring GF {q}\nvars x y\norder degmin\ngens:\n{gens}"
    assert main(["gb", write(tmp_path, text)]) == 0
    assert capsys.readouterr().out == expected
    if previous is not None:
        ring = parse_problem(text).ring
        basis = [parse_poly(ring, h) for h in expected.splitlines()]
        assert same_ideal(basis, [parse_poly(ring, h) for h in previous.splitlines()])


@pytest.mark.parametrize("q", ["0", "1", "6", "-3"])
def test_ring_gf_that_is_not_a_prime_power(tmp_path, capsys, q):
    text = f"ring GF {q}\nvars x y\norder degmin\ngens:\nx + y\n"
    with pytest.raises(ParseError, match="prime power"):
        parse_problem(text)
    assert main(["gb", write(tmp_path, text)]) == 1
    assert "prime power" in capsys.readouterr().err


def test_ring_gf_large_prime_parses_quickly():
    start = time.perf_counter()
    problem = parse_problem("ring GF 1000000007\nvars x y\norder degmin\ngens:\nx + y\n")
    assert time.perf_counter() - start < 1.0
    assert (problem.ring.field.p, problem.ring.field.k) == (1000000007, 1)


def test_python_dash_m_runs_the_cli(tmp_path, capsys):
    path = write(tmp_path, "ring Q\nvars x y\norder degmin\ngens:\nx + y\nx^-1*y + y^-1\n")
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run(
        [sys.executable, "-m", "lgb", "gb", path], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert main(["gb", path]) == 0
    assert proc.stdout == capsys.readouterr().out
    assert proc.stdout.splitlines()[:2] == ["x + y", "x^-1*y + y^-1"]
