"""Problem-file parsing, polynomial expression parsing and printing, and
the ``lgb`` command surface.

Problem files name a ring, variables, an order, optional ``weight`` or
``polytope`` and ``precision`` directives, and a generator list; ``weight
r`` is the one-vertex ``polytope (r)``:

    ring Qp 2
    vars x y
    polytope (1,1) (0,1)
    order degmin
    precision 20
    gens:
    2*x + y

An expression is parsed into one term dict, zero coefficients dropped at
every step as LaurentPoly arithmetic drops them, and becomes one
LaurentPoly at the end.

Exit codes: 0 success, 1 parse error, 2 math or configuration error,
3 negative membership or failed basis check.
"""

from __future__ import annotations

import argparse
import math
import re
import sys
from fractions import Fraction

from lgb.affinoid import (
    AffinoidError,
    CappedSeries,
    PolytopeContext,
    PolytopeMode,
    build_refined_decomposition,
    buchberger_P,
    is_groebner_series,
    reduce_P,
)
from lgb.coeffs import FieldError, FieldSpec
from lgb.gmo import GeneralizedOrder, ScoreFunction
from lgb.groebner import GBConfig, ResourceLimitError, buchberger, is_groebner
from lgb.lattice import LatticeError, build_decomposition, vadd
from lgb.laurent import (
    LaurentMode, LaurentPoly, LaurentRing, RingError, cone_module, format_exponent, format_poly,
)
from lgb.reduction import reduce


class ParseError(ValueError):
    def __init__(self, message, line=None, col=None):
        self.line = line
        self.col = col
        where = ""
        if line is not None:
            where = f" at line {line}" + (f", column {col}" if col is not None else "")
        super().__init__(message + where)


# -- expression parsing -------------------------------------------------------

_TOKEN_RE = re.compile(r"\s*(?:(\d+)|([A-Za-z_][A-Za-z_0-9]*)|([()^*+\-/]))")


def _tokenize(text, line=None):
    pos = 0
    tokens = []
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m or m.end() == pos:
            stray = text[pos:].lstrip()
            if not stray:
                break
            raise ParseError(f"unexpected character {stray[0]!r}", line, pos + 1)
        num, name, op = m.groups()
        col = m.start(m.lastindex) + 1
        if num is not None:
            tokens.append(("num", int(num), col))
        elif name is not None:
            tokens.append(("name", name, col))
        else:
            tokens.append(("op", op, col))
        pos = m.end()
    tokens.append(("end", None, len(text) + 1))
    return tokens


def _add(a, b):
    """Sum of two term dicts, in LaurentPoly.__add__'s term order."""
    out = dict(a)
    for e, c in b.items():
        out[e] = out[e] + c if e in out else c
    return {e: c for e, c in out.items() if not c.is_zero()}


def _mul(a, b):
    """Product of two term dicts, in LaurentPoly.__mul__'s term order."""
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = vadd(e1, e2)
            c = c1 * c2
            out[e] = out[e] + c if e in out else c
    return {e: c for e, c in out.items() if not c.is_zero()}


class _ExprParser:
    """Recursive descent with one term dict per parse: every rule returns
    {exponent: nonzero Coefficient} in LaurentPoly's term order (so ``len``
    of a base counts its terms), and ``parse`` builds one LaurentPoly."""

    def __init__(self, ring: LaurentRing, text: str, line=None):
        self.ring = ring
        self.line = line
        self.tokens = _tokenize(text, line)
        self.pos = 0
        self.origin = (0,) * ring.n

    def peek(self):
        return self.tokens[self.pos]

    def take(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def error(self, message, tok=None):
        tok = tok or self.peek()
        raise ParseError(message, self.line, tok[2])

    def parse(self) -> LaurentPoly:
        value = self.expr()
        kind, val, _ = self.peek()
        if kind != "end":
            self.error(f"trailing input {val!r}")
        return LaurentPoly(self.ring, value)

    def expr(self) -> dict:
        sign = 1
        kind, val, _ = self.peek()
        if kind == "op" and val in "+-":
            self.take()
            sign = -1 if val == "-" else 1
        value = self.term()
        if sign < 0:
            value = {e: -c for e, c in value.items()}
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in "+-":
                self.take()
                rhs = self.term()
                if val == "-":
                    rhs = {e: -c for e, c in rhs.items()}
                value = _add(value, rhs)
            else:
                return value

    def term(self) -> dict:
        value = self.factor()
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val == "*":
                self.take()
                value = _mul(value, self.factor())
            else:
                return value

    def factor(self) -> dict:
        base = self.atom()
        kind, val, _ = self.peek()
        if kind == "op" and val == "^":
            self.take()
            exp = self.signed_int()
            return self.power(base, exp)
        return base

    def signed_int(self) -> int:
        sign = 1
        kind, val, _ = self.peek()
        if kind == "op" and val == "-":
            self.take()
            sign = -1
        kind, val, _ = self.peek()
        if kind != "num":
            self.error("expected an integer exponent")
        self.take()
        return sign * val

    def power(self, base: dict, exp: int) -> dict:
        if abs(exp) > (10 ** 6 if len(base) <= 1 else 256):
            self.error("exponent out of range")
        if len(base) == 1:
            ((e, c),) = base.items()
            coef = self.ring.field.one()
            step = c if exp >= 0 else c.inv()
            remaining = abs(exp)
            while remaining:
                if remaining & 1:
                    coef = coef * step
                step = step * step
                remaining >>= 1
            return {tuple(exp * x for x in e): coef}
        if exp < 0:
            self.error("negative powers apply only to single terms")
        out = self.constant(self.ring.field.one())
        square = base
        remaining = exp
        while remaining:
            if remaining & 1:
                out = _mul(out, square)
            remaining >>= 1
            if remaining:
                square = _mul(square, square)
        return out

    def constant(self, c) -> dict:
        return {} if c.is_zero() else {self.origin: c}

    def atom(self) -> dict:
        kind, val, _ = self.peek()
        field = self.ring.field
        if kind == "num":
            self.take()
            kind, nxt, _ = self.peek()
            if kind == "op" and nxt == "/":
                self.take()
                kind, den, _ = self.peek()
                if kind != "num":
                    self.error("expected a denominator")
                self.take()
                if den == 0:
                    self.error("zero denominator")
                return self.constant(field.from_fraction(Fraction(val, den)))
            return self.constant(field.from_int(val))
        if kind == "name":
            self.take()
            if val in self.ring.names:
                i = self.ring.names.index(val)
                return {self.origin[:i] + (1,) + self.origin[i + 1:]: field.one()}
            if val == "a" and field.is_finite and field.k > 1:
                return {self.origin: field.generator()}
            self.error(f"unknown name {val!r}")
        if kind == "op" and val == "(":
            self.take()
            inner = self.expr()
            kind, val, _ = self.peek()
            if kind != "op" or val != ")":
                self.error("expected ')'")
            self.take()
            return inner
        self.error("expected a number, a name, or '('")


def parse_poly(ring: LaurentRing, text: str, line=None) -> LaurentPoly:
    return _ExprParser(ring, text, line).parse()


# -- problem files --------------------------------------------------------------

class Problem:
    """A parsed problem file, assembled into ring/mode/generators.  A
    ``weight r`` problem is the one-vertex polytope (r) (``lgb.affinoid``);
    it prints its cone labels as flat indices, as a Laurent problem does."""

    def __init__(self, field, n, names, score, weight, polytope, precision, gen_texts):
        self.field = field
        self.score = score
        order_decomp = build_decomposition("standard", n)
        self.mode = None
        self.flat_labels = polytope is None
        vertices, noun = ([weight], "weight") if weight is not None else (polytope, "polytope")
        if vertices is not None:
            ctx = PolytopeContext(vertices)
            if ctx.n != n:
                raise ParseError(f"{noun} dimension does not match vars")
            refined = build_refined_decomposition(ctx, order_decomp)
            order = GeneralizedOrder(refined.decomposition, ScoreFunction(score, n))
            # the score must be linear on every refined cone; an invalid
            # order fails here with LatticeError, before any S-pair
            for k in range(len(refined.decomposition.cones)):
                order.linear_form(k)
            self.ring = LaurentRing(field, n, order, names)
            self.mode = PolytopeMode(self.ring, ctx, refined)
        else:
            order = GeneralizedOrder(order_decomp, ScoreFunction(score, n))
            self.ring = LaurentRing(field, n, order, names)
        self.precision = precision
        self.generators = []
        for text, lineno in gen_texts:
            poly = parse_poly(self.ring, text, lineno)
            if poly.is_zero():
                raise ParseError("zero generator", lineno)
            self.generators.append(poly)

    @property
    def capped(self) -> bool:
        return self.mode is not None

    def series(self, poly: LaurentPoly) -> CappedSeries:
        return CappedSeries(self.mode, poly, self.precision)

    def series_generators(self):
        return [self.series(g) for g in self.generators]

    def label_text(self, label) -> str:
        """A cone label as ``info`` and ``check`` print it: a polytope
        problem's (vertex, sub-index) pair, otherwise the flat cone index."""
        if self.flat_labels and self.capped:
            label = self.mode.refined.flat_index(label)
        return str(label)


_VERTEX_RE = re.compile(r"\(([^()]*)\)")


def parse_problem(text: str) -> Problem:
    field = None
    names = None
    score = None
    weight = None
    polytope = None
    precision = None
    gen_texts = []
    in_gens = False
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if in_gens:
            gen_texts.append((line, lineno))
            continue
        parts = line.split()
        head = parts[0]
        if head == "ring":
            if field is not None:
                raise ParseError("duplicate ring directive", lineno)
            field = _parse_ring(parts[1:], lineno)
        elif head == "vars":
            if names is not None:
                raise ParseError("duplicate vars directive", lineno)
            if len(parts) < 2:
                raise ParseError("vars needs at least one name", lineno)
            names = tuple(parts[1:])
            for name in names:
                if not re.fullmatch(r"[A-Za-z_][A-Za-z_0-9]*", name) or name == "a":
                    raise ParseError(f"invalid variable name {name!r}", lineno)
            if len(set(names)) != len(names):
                raise ParseError("duplicate variable names", lineno)
        elif head == "order":
            if score is not None:
                raise ParseError("duplicate order directive", lineno)
            if len(parts) != 2 or parts[1] not in ("min", "degmin"):
                raise ParseError("order must be 'min' or 'degmin'", lineno)
            score = parts[1]
        elif head == "weight":
            if weight is not None:
                raise ParseError("duplicate weight directive", lineno)
            try:
                weight = tuple(Fraction(x) for x in parts[1:])
            except (ValueError, ZeroDivisionError):
                raise ParseError("weight entries must be rationals", lineno) from None
            if not weight:
                raise ParseError("weight needs one entry per variable", lineno)
        elif head == "polytope":
            if polytope is not None:
                raise ParseError("duplicate polytope directive", lineno)
            rest = line[len("polytope"):].strip()
            found = _VERTEX_RE.findall(rest)
            if not found or _VERTEX_RE.sub("", rest).strip():
                raise ParseError("polytope expects vertices like (1,1) (0,1)", lineno)
            try:
                polytope = [
                    tuple(Fraction(x.strip()) for x in grp.split(",")) for grp in found
                ]
            except (ValueError, ZeroDivisionError):
                raise ParseError("vertex entries must be rationals", lineno) from None
        elif head == "precision":
            if precision is not None:
                raise ParseError("duplicate precision directive", lineno)
            try:
                precision = Fraction(parts[1])
            except (IndexError, ValueError, ZeroDivisionError):
                raise ParseError("precision must be a rational", lineno) from None
        elif head == "gens:" and len(parts) == 1:
            in_gens = True
        else:
            raise ParseError(f"unknown directive {head!r}", lineno)
    if field is None:
        raise ParseError("missing ring directive")
    if names is None:
        raise ParseError("missing vars directive")
    if score is None:
        raise ParseError("missing order directive")
    if weight is not None and polytope is not None:
        raise ParseError("weight and polytope are mutually exclusive")
    if precision is not None and weight is None and polytope is None:
        raise ParseError("precision requires a weight or polytope directive")
    if precision is None:
        precision = Fraction(20)
    return Problem(field, len(names), names, score, weight, polytope, precision, gen_texts)


def _parse_ring(parts, lineno) -> FieldSpec:
    if not parts:
        raise ParseError("empty ring directive", lineno)
    kind = parts[0]
    if kind == "Q" and len(parts) == 1:
        return FieldSpec.rational()
    if kind not in ("Qp", "GF") or len(parts) != 2:
        raise ParseError("ring must be 'Q', 'Qp p', or 'GF q'", lineno)
    try:
        q = int(parts[1])
    except ValueError:
        raise ParseError("malformed ring directive", lineno) from None
    try:
        if kind == "Qp":
            return FieldSpec.padic(q)
        if q < 2:
            raise ParseError(f"{q} is not a prime power", lineno)
        p = next((d for d in range(2, math.isqrt(q) + 1) if q % d == 0), q)
        k = 0
        m = q
        while m % p == 0:
            m //= p
            k += 1
        if m != 1:
            raise ParseError(f"{q} is not a prime power", lineno)
        return FieldSpec.finite(p, k)
    except FieldError as exc:
        raise ParseError(str(exc), lineno) from None


# -- printing helpers -------------------------------------------------------------

def _poly_text(problem: Problem, poly: LaurentPoly) -> str:
    if problem.capped:
        return format_poly(poly, key=problem.mode.term_key)
    return format_poly(poly)


def _monomial_text(ring, exp) -> str:
    return format_exponent(exp, ring.names) or "1"


# -- verbs --------------------------------------------------------------------------

def _load(args) -> Problem:
    with open(args.file, encoding="utf-8") as fh:
        text = fh.read()
    problem = parse_problem(text)
    if args.precision is not None:
        try:
            problem.precision = Fraction(args.precision)
        except (ValueError, ZeroDivisionError):
            raise ParseError("precision must be a rational") from None
        if not problem.capped:
            raise ParseError("precision requires a weight or polytope directive")
    return problem


def _compute_basis(problem: Problem, normalize=False, max_basis=500):
    cfg = GBConfig(normalize=normalize, max_basis=max_basis)
    if problem.capped:
        return buchberger_P(problem.series_generators(), cfg).basis
    return buchberger(problem.generators, cfg).basis


def cmd_gb(args) -> int:
    problem = _load(args)
    basis = _compute_basis(problem, normalize=args.normalize, max_basis=args.max_basis)
    for h in basis:
        body = h.body if problem.capped else h
        print(_poly_text(problem, body))
    return 0


def cmd_reduce(args) -> int:
    problem = _load(args)
    poly = parse_poly(problem.ring, args.poly)
    if problem.capped:
        quotients, remainder = reduce_P(problem.series(poly), problem.series_generators())
        print(_poly_text(problem, remainder.body))
        for q in quotients:
            print(_poly_text(problem, q.body))
    else:
        quotients, remainder = reduce(poly, problem.generators)
        print(_poly_text(problem, remainder))
        for q in quotients:
            print(_poly_text(problem, q))
    return 0


def cmd_member(args) -> int:
    problem = _load(args)
    poly = parse_poly(problem.ring, args.poly)
    basis = _compute_basis(problem, max_basis=args.max_basis)
    if problem.capped:
        _, remainder = reduce_P(problem.series(poly), basis)
        member = remainder.is_zero()
    else:
        member = reduce(poly, basis).remainder.is_zero()
    print("member: " + ("true" if member else "false"))
    return 0 if member else 3


def cmd_check(args) -> int:
    problem = _load(args)
    if problem.capped:
        flag, cert = is_groebner_series(problem.series_generators())
    else:
        flag, cert = is_groebner(problem.generators)
    if flag:
        print("groebner: yes")
        return 0
    label, a, b, v = cert
    print("groebner: no")
    print(
        f"failing S-pair: cone {problem.label_text(label)}, generators {a + 1} and {b + 1}, "
        f"collision monomial {_monomial_text(problem.ring, v)}"
    )
    return 3


def cmd_info(args) -> int:
    problem = _load(args)
    ring = problem.ring
    poly = parse_poly(ring, args.poly)
    mode = problem.mode or LaurentMode(ring)
    body = problem.series(poly).body if problem.capped else poly
    print(f"lm: {_monomial_text(ring, mode.leading(body).exp)}")
    for label in mode.labels:
        lm = mode.cone_leading(body, label)[0]
        print(f"lm_{problem.label_text(label)}: {_monomial_text(ring, lm)}")
    noun = "generator" if problem.flat_labels else "generators"
    for label in mode.labels:
        gens = ", ".join(_monomial_text(ring, g) for g in cone_module(mode, body, label).generators)
        print(f"T_{problem.label_text(label)} {noun}: {gens}")
    return 0


def cmd_selftest(args) -> int:
    from lgb.oracle import selftest

    return 0 if selftest(print) else 2


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="lgb",
        description="Exact Groebner bases for Laurent polynomial rings and "
        "polytopal affinoid algebras.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    def add(name, func, needs_file=True, needs_poly=False, builds_basis=False):
        p = sub.add_parser(name)
        if needs_file:
            p.add_argument("file", help="problem file")
            p.add_argument("--precision", default=None, help="override the series cap")
        if needs_poly:
            p.add_argument("--poly", required=True, help="polynomial expression")
        if builds_basis:
            p.add_argument("--max-basis", type=int, default=500)
        p.set_defaults(func=func)
        return p

    gb = add("gb", cmd_gb, builds_basis=True)
    gb.add_argument("--normalize", action="store_true", help="make leading coefficients 1")
    add("reduce", cmd_reduce, needs_poly=True)
    add("member", cmd_member, needs_poly=True, builds_basis=True)
    add("check", cmd_check)
    add("info", cmd_info, needs_poly=True)
    add("selftest", cmd_selftest, needs_file=False)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (
        AffinoidError,
        FieldError,
        LatticeError,
        RingError,
        ResourceLimitError,
        ZeroDivisionError,
        ArithmeticError,
        ValueError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
