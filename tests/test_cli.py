import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from conftest import random_poly, ring_for
from lgb.cli import ParseError, main, parse_poly, parse_problem
from lgb.coeffs import FieldSpec
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
    assert problem.context.vertices == ((Fraction(1), Fraction(1)), (Fraction(0), Fraction(1)))


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


def test_parser_fuzz_never_crashes(q_ring2):
    rng = random.Random(5150)
    alphabet = "xy a+-*/^()0123456789"
    for _ in range(600):
        text = "".join(rng.choice(alphabet) for _ in range(rng.randint(1, 18)))
        try:
            parse_poly(q_ring2, text)
        except (ParseError, ZeroDivisionError):
            pass


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


def test_info_verb_fixture(tmp_path, capsys):
    path = write(
        tmp_path,
        "ring Q\nvars x y\norder degmin\ngens:\nx^-2*y^-1 + x*y\n",
    )
    assert main(["info", path, "--poly", "2*x^2*y^-1 + x^-3*y - 3*y^-5"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert "lm: y^-5" in out
    assert "lm_1: x^-3*y" in out
    assert "T_2 generator: x*y^2" in out


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


def test_polytopal_gb_verb(tmp_path, capsys):
    path = write(
        tmp_path,
        "ring Qp 2\nvars x y\npolytope (1,1) (0,1)\norder degmin\nprecision 20\n"
        "gens:\n2*x + y\n",
    )
    assert main(["gb", path]) == 0
    out = capsys.readouterr().out.strip()
    assert out == "y + 2*x"


def test_weight_mode_verbs(tmp_path, capsys):
    path = write(
        tmp_path,
        "ring Qp 2\nvars x y\nweight 1 2\norder degmin\nprecision 30\n"
        "gens:\nx + 2*y\nx^-1*y + 4\n",
    )
    assert main(["gb", path]) == 0
    assert main(["reduce", path, "--poly", "x^2 + y^2"]) == 0
    capsys.readouterr()


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
    "q, gens, expected",
    [
        (
            4,
            "a*x^2*y + x*y^-1 + 1\nx^-1*y^2 + (a+1)*x + a*y\n",
            "a*x^2*y + x*y^-1 + 1\nx^-1*y^2 + (a+1)*x + a*y\na*y^3 + (a+1)*x^-1*y + (a+1)\n"
            "x + a*x^-1*y^-1\nx^-4*y^-4 + (a+1)*y\na*y + a*x^-1*y^-1\n(a+1)*x^-3*y^-3 + a\n",
        ),
        (
            8,
            "a*x^2*y + x*y^-1 + a^2\nx^-1*y^2 + (a^2+1)*x + a*y\n",
            "a*x^2*y + x*y^-1 + a^2\nx^-1*y^2 + (a^2+1)*x + a*y\na*y^3 + a*x^-1*y + a\n"
            "(a^2+1)*x^-3*y^-2 + x + a*x^-1*y^-1\n(a+1)*x + a^2*y + a*x^-1*y^-1\n"
            "(a^2+a+1)*x^-4*y^-4 + y + (a+1)*x^-1*y^-1\na*x^-2*y^-1 + (a^2+1)*x^-3*y^-3 + a^2\n",
        ),
        (
            25,
            "a*x^2*y + 3*x*y^-1 + 2\nx^-1*y^2 + (2*a+4)*x + a*y\n",
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
            "(a+2)*x^-4*y^-4 + (a^2+a+1)*y + (2*a^2+1)*x^-1*y^-1\n"
            "(a^2+2)*x^-2*y^-1 + (2*a^2+a)*x^-3*y^-3 + (2*a^2+a+1)\n",
        ),
    ],
    ids=["GF4", "GF8", "GF25", "GF27"],
)
def test_gb_stdout_over_extension_fields(tmp_path, capsys, q, gens, expected):
    path = write(tmp_path, f"ring GF {q}\nvars x y\norder degmin\ngens:\n{gens}")
    assert main(["gb", path]) == 0
    assert capsys.readouterr().out == expected


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
