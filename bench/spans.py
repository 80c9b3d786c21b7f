"""Per-layer tracing from outside the engine.

``Tracer.install`` wraps the public functions and methods of each layer
module of ``lgb`` in place and rebinds every module-level reference to
them, so calls between layers pass through the wrappers.  Each wrapped
call is a span: it is timed, and its time is subtracted from the span
that called it, which gives self time.  Spans are aggregated in memory
per (caller, callee) edge and written out when the run ends, together
with one span per engine request the benchmark made.

Left unwrapped, and so charged to their caller: the tuple helpers of
``lattice`` (``vadd`` and friends; a span would cost more than the work)
and constructors that only store fields.  ``oracle`` is never wrapped: it
only checks answers.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import json
import sys
import time

LAYERS = ("cli", "coeffs", "lattice", "gmo", "laurent", "reduction", "groebner", "affinoid")

_UNWRAPPED = {"lattice": {"vadd", "vsub", "vneg", "vdot", "vscale"}}
# _SeriesDivision is private but is the mode the capped division loop
# drives; its methods give the division counts of reduce_P.
_PRIVATE_CLASSES = {"affinoid": {"_SeriesDivision"}}
_DUNDERS = {
    "__add__", "__sub__", "__neg__", "__mul__", "__rmul__", "__truediv__", "__eq__", "__hash__"
}
_HEAVY_INIT = {"LaurentPoly", "CappedSeries", "Problem"}

ROOT = "bench:run"
_DONE = object()


class Tracer:
    def __init__(self):
        self.edges = {}  # (caller, callee) -> [calls, total_s, self_s]
        self.yields = {}  # generator -> items yielded
        self.requests = []  # (op, instance, start_s, end_s)
        self._stack = [[ROOT, 0.0]]
        self._on = [True]
        self._patches = []

    # -- spans -----------------------------------------------------------
    def _close(self, frame, elapsed):
        self._stack.pop()
        parent = self._stack[-1]
        parent[1] += elapsed
        edge = (parent[0], frame[0])
        acc = self.edges.get(edge)
        if acc is None:
            self.edges[edge] = [1, elapsed, elapsed - frame[1]]
        else:
            acc[0] += 1
            acc[1] += elapsed
            acc[2] += elapsed - frame[1]

    def _wrap(self, fn, key):
        stack, on, close, clock = self._stack, self._on, self._close, time.perf_counter

        if inspect.isgeneratorfunction(fn):
            self.yields[key] = 0
            yields = self.yields

            @functools.wraps(fn)
            def traced_gen(*args, **kwargs):
                it = fn(*args, **kwargs)
                while True:
                    if not on[0]:
                        item = next(it, _DONE)
                    else:
                        frame = [key, 0.0]
                        stack.append(frame)
                        start = clock()
                        try:
                            item = next(it, _DONE)
                        finally:
                            close(frame, clock() - start)
                        if item is not _DONE:
                            yields[key] += 1
                    if item is _DONE:
                        return
                    yield item

            return traced_gen

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not on[0]:
                return fn(*args, **kwargs)
            frame = [key, 0.0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                close(frame, clock() - start)

        return traced

    @contextlib.contextmanager
    def paused(self):
        """Calls made inside run untraced (answer checks, for example)."""
        self._on[0] = False
        try:
            yield
        finally:
            self._on[0] = True

    def request(self, op, instance, start, end):
        self.requests.append((op, instance, start, end))

    # -- patching ----------------------------------------------------------
    def install(self):
        replaced = {}
        for layer in LAYERS:
            module = importlib.import_module(f"lgb.{layer}")
            skip = _UNWRAPPED.get(layer, set())
            for name, obj in list(vars(module).items()):
                if getattr(obj, "__module__", None) != module.__name__ or name in skip:
                    continue
                if inspect.isfunction(obj) and not name.startswith("_"):
                    replaced[id(obj)] = (obj, self._wrap(obj, f"{layer}:{name}"))
                elif inspect.isclass(obj) and not issubclass(obj, BaseException) and (
                    not name.startswith("_") or name in _PRIVATE_CLASSES.get(layer, ())
                ):
                    self._patch_class(layer, obj)
        for module in [m for n, m in sys.modules.items() if n == "lgb" or n.startswith("lgb.")]:
            for name, obj in list(vars(module).items()):
                hit = replaced.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patches.append((module, name, obj))
                    setattr(module, name, hit[1])

    def _patch_class(self, layer, cls):
        for name, attr in list(vars(cls).items()):
            wanted = (
                not name.startswith("_")
                or name in _DUNDERS
                or (name == "__init__" and cls.__name__ in _HEAVY_INIT)
            )
            if not wanted:
                continue
            key = f"{layer}:{cls.__name__}.{name}"
            if isinstance(attr, staticmethod):
                new = staticmethod(self._wrap(attr.__func__, key))
            elif inspect.isfunction(attr):
                new = self._wrap(attr, key)
            else:
                continue
            self._patches.append((cls, name, attr))
            setattr(cls, name, new)

    def uninstall(self):
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)

    # -- results -------------------------------------------------------------
    def per_function(self):
        """callee -> [calls, total_s, self_s]."""
        out = {}
        for (_, callee), (calls, total, own) in self.edges.items():
            acc = out.setdefault(callee, [0, 0.0, 0.0])
            acc[0] += calls
            acc[1] += total
            acc[2] += own
        return out

    def write(self, path, meta):
        path.parent.mkdir(parents=True, exist_ok=True)
        doc = {
            **meta,
            "requests": [
                {"id": k, "op": op, "instance": inst, "start_s": a, "end_s": b}
                for k, (op, inst, a, b) in enumerate(self.requests)
            ],
            "edges": [
                {"caller": caller, "callee": callee, "calls": c, "total_s": t, "self_s": s}
                for (caller, callee), (c, t, s) in sorted(self.edges.items())
            ],
            "yields": self.yields,
        }
        path.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")


def layer_metrics(tracer: Tracer) -> dict:
    """The per-layer metrics that come from spans alone."""
    fn = tracer.per_function()

    def calls(*keys):
        return sum(fn[k][0] for k in keys if k in fn)

    def total(*keys):
        return sum(fn[k][1] for k in keys if k in fn)

    def self_s(layer):
        return sum(v[2] for k, v in fn.items() if k.startswith(layer + ":"))

    def edge_calls(caller, callee):
        return tracer.edges.get((caller, callee), [0])[0]

    def from_bench(*keys):
        return sum(tracer.edges.get((ROOT, k), [0, 0.0])[1] for k in keys)

    tries = calls("reduction:PolynomialMode.shifted_lm", "affinoid:_SeriesDivision.shifted_lm")
    fires = calls("reduction:PolynomialMode.on_fire", "affinoid:_SeriesDivision.on_fire")
    leading = ("affinoid:WeightMode.leading", "affinoid:PolytopeMode.leading")
    coeff_ops = [
        f"coeffs:Coefficient.{op}" for op in ("__add__", "__sub__", "__mul__", "__truediv__", "inv")
    ]
    poly_ops = [
        f"laurent:LaurentPoly.{op}" for op in ("__add__", "__sub__", "__mul__", "__rmul__", "term_mul")
    ]
    m = {
        "cli.parse_s": from_bench("cli:parse_problem", "cli:parse_poly"),
        "coeffs.ops": calls(*coeff_ops),
        "coeffs.valuation_calls": calls("coeffs:Coefficient.valuation"),
        "coeffs.self_s": self_s("coeffs"),
        "gmo.compare_calls": calls("gmo:GeneralizedOrder.compare"),
        "gmo.max_exponent_calls": calls("gmo:GeneralizedOrder.max_exponent"),
        "gmo.self_s": self_s("gmo"),
        "lattice.fm_feasible_calls": calls("lattice:fm_feasible"),
        "lattice.box_points_yielded": tracer.yields.get("lattice:box_points", 0),
        "lattice.self_s": self_s("lattice"),
        "laurent.ti_generator_calls": calls("laurent:LaurentPoly.ti_generator"),
        "laurent.ti_set_general_calls": calls("laurent:LaurentPoly.ti_set_general"),
        "laurent.ti_set_general_s": total("laurent:LaurentPoly.ti_set_general"),
        "laurent.u_intersection_calls": calls("laurent:u_intersection"),
        "laurent.u_intersection_s": total("laurent:u_intersection"),
        "laurent.cone_leading_data_calls": calls("laurent:LaurentPoly.cone_leading_data"),
        "laurent.poly_ops": calls(*poly_ops),
        "laurent.self_s": self_s("laurent"),
        "reduction.reduce_calls": calls("reduction:reduce"),
        "reduction.steps": calls(
            "reduction:PolynomialMode.leading", "affinoid:_SeriesDivision.leading"
        ),
        "reduction.reducer_tries": tries,
        "reduction.reducer_fires": fires,
        "reduction.hit_ratio": fires / tries if tries else 0.0,
        "reduction.division_s": total("reduction:division_loop"),
        "reduction.self_s": self_s("reduction"),
        "groebner.spairs": edge_calls("groebner:buchberger", "groebner:spair")
        + edge_calls("affinoid:buchberger_P", "affinoid:spair_series"),
        "groebner.self_s": self_s("groebner"),
        "affinoid.leading_calls": calls(*leading),
        "affinoid.leading_s": total(*leading),
        "affinoid.term_val_calls": calls(
            "affinoid:WeightContext.term_val",
            "affinoid:PolytopeContext.term_val",
            "affinoid:PolytopeContext.term_val_indices",
        ),
        "affinoid.tij_calls": calls("affinoid:PolytopeMode.tij_generators"),
        "affinoid.tij_s": total("affinoid:PolytopeMode.tij_generators"),
        "affinoid.u_set_calls": calls("affinoid:WeightMode.u_set", "affinoid:PolytopeMode.u_set"),
        "affinoid.reduce_P_calls": calls("affinoid:reduce_P"),
        "affinoid.self_s": self_s("affinoid"),
    }
    return m
