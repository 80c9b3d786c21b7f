"""Source-level invariants of the package."""

import ast
from pathlib import Path

import lgb

SOURCES = sorted(Path(lgb.__file__).parent.glob("*.py"))


def test_no_assert_statements():
    # python -O strips assert statements; invariants raise explicitly
    found = []
    for path in SOURCES:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [
            f"{path.name}:{node.lineno}" for node in ast.walk(tree) if isinstance(node, ast.Assert)
        ]
    assert len(SOURCES) >= 10
    assert found == []


def _call_sites(name):
    """(module file, enclosing function) of every call of ``name`` in the
    package, as a plain name or an attribute."""
    sites = []
    for path in SOURCES:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for func in ast.walk(tree):
            if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for node in ast.walk(func):
                if isinstance(node, ast.Call):
                    callee = node.func
                    called = callee.id if isinstance(callee, ast.Name) else getattr(callee, "attr", None)
                    if called == name:
                        sites.append((path.name, func.name))
    return sites


def test_one_cone_module_path():
    # every cone module is built by laurent.cone_module and intersected by
    # ConeModule.intersection; oracle.selftest runs the certified search on
    # the cells itself, as its second computation of a principal module
    assert _call_sites("_certified_generators") == [
        ("laurent.py", "cone_module"), ("oracle.py", "selftest"),
    ]
    assert _call_sites("module_intersection") == [("laurent.py", "intersection")]


def test_one_spair_builder_and_one_verified_division():
    # both layers divide through reduction._divide, which re-verifies every
    # division, and form S-pairs with groebner._spair; the adapter carries
    # no per-layer function
    from lgb.reduction import PolynomialMode

    assert _call_sites("division_loop") == [("reduction.py", "_divide")]
    assert _call_sites("residual") == [("reduction.py", "_divide")]
    assert {path for path, _ in _call_sites("_spair")} == {"groebner.py"}
    assert not {"spair", "divide", "body"} & set(PolynomialMode.__slots__)


def test_one_capped_mode():
    # a weight r is the one-vertex polytope (r): the package has no second
    # capped mode, context or valuation for it
    found = [
        f"{path.name}: {name}"
        for path in SOURCES
        for name in ("WeightMode", "WeightContext", "val_weight")
        if name in path.read_text(encoding="utf-8")
    ]
    assert found == []


def _trees():
    return [(path.name, ast.parse(path.read_text(encoding="utf-8"), filename=str(path))) for path in SOURCES]


def test_one_membership_test():
    # lm(X^t g) is computed by the engine call's adapter alone, and every
    # cone module is tested by its member, whatever the layer
    used = {
        name
        for name, tree in _trees()
        for node in ast.walk(tree)
        if getattr(node, "attr", getattr(node, "id", None)) == "_shifted_lm"
    }
    assert used == {"reduction.py"}
    found = [
        f"{path.name}: {name}"
        for path in SOURCES
        for name in ("shifted_leading_monomial", "ti_contains", "module_source", "_term_keys")
        if name in path.read_text(encoding="utf-8")
    ]
    assert found == []
    defined = [
        (name, cls.name)
        for name, tree in _trees()
        for cls in ast.walk(tree)
        if isinstance(cls, ast.ClassDef)
        for node in cls.body
        if isinstance(node, ast.FunctionDef) and node.name == "member"
    ]
    assert defined == [("reduction.py", "PolynomialMode")]
