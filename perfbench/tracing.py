"""Per-layer tracing of the superproj engine from outside its source.

``Tracer.install`` rebinds engine entry points to timing or counting
wrappers and ``Tracer.remove`` puts every original back.  A function imported
by name into another module (``cech.echelon_basis``, ``tangent.bareiss_rank``,
``tangent.cohomology_dims``, the package re-exports) is a separate binding,
so each original is replaced wherever any ``superproj`` module holds it.

A span covers one call into a layer.  Spans are folded into per-layer totals
as they close, keeping memory flat: the hot layers close 10^4 to 10^5 spans
in one pass.  ``busy`` is the time inside the outermost span of a layer;
``self`` subtracts the time of child spans of any layer.  The hottest
operations (``Scalar`` and ``SuperPolynomial`` products, ``Scalar.inverse``)
are counted only, since a timer on every multiply would swamp the trace.
"""

from __future__ import annotations

import sys
from functools import wraps
from time import perf_counter

from superproj import (
    cech,
    characteristic,
    cohomology,
    linalg,
    parser,
    picard,
    scalars,
    superlie,
    superpoly,
    tangent,
)


class LayerStats:
    __slots__ = ("calls", "busy", "self_time")

    def __init__(self):
        self.calls = 0
        self.busy = 0.0
        self.self_time = 0.0


class Tracer:
    def __init__(self):
        self.layers = {}  # name -> LayerStats
        self.counters = {}  # name -> number
        self._stack = []  # child-time accumulator of each open span
        self._active = {}  # name -> open spans of that layer
        self._undo = []  # (namespace, attribute, original)
        self._scalar_mul = (0, 0)  # products, products with both operands in Q

    # -- recording --------------------------------------------------------

    def add(self, name: str, amount):
        self.counters[name] = self.counters.get(name, 0) + amount

    def span(self, name: str, fn, before=None, after=None):
        """Wrap fn so each call records a span of layer ``name``.

        ``before(args, kwargs)`` and ``after(args, kwargs, result)`` run
        outside the timed interval, for counters read from arguments or
        results.
        """
        stats = self.layers.setdefault(name, LayerStats())
        stack, active = self._stack, self._active
        active.setdefault(name, 0)

        @wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            child = [0.0]
            stack.append(child)
            active[name] += 1
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                stack.pop()
                active[name] -= 1
                if stack:
                    stack[-1][0] += dt
                stats.calls += 1
                stats.self_time += dt - child[0]
                if not active[name]:
                    stats.busy += dt
            if after is not None:
                after(args, kwargs, result)
            return result

        return wrapper

    def count(self, name: str, fn):
        counters = self.counters
        counters.setdefault(name, 0)

        @wraps(fn)
        def wrapper(*args, **kwargs):
            counters[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def count_scalar_mul(self, fn):
        """Count Scalar products and the share whose operands are both in Q."""
        tally = [0, 0]
        self._scalar_mul = tally
        Scalar = scalars.Scalar

        @wraps(fn)
        def wrapper(a, b):
            tally[0] += 1
            c = a.c
            if not (c[1] or c[2] or c[3]):
                if b.__class__ is not Scalar:
                    tally[1] += 1
                else:
                    d = b.c
                    if not (d[1] or d[2] or d[3]):
                        tally[1] += 1
            return fn(a, b)

        return wrapper

    # -- patching ---------------------------------------------------------

    def _rebind(self, original, wrapper, namespaces):
        hits = 0
        for ns in namespaces:
            for attr, value in list(vars(ns).items()):
                if value is original:
                    setattr(ns, attr, wrapper)
                    self._undo.append((ns, attr, original))
                    hits += 1
        if not hits:
            raise RuntimeError(f"no binding of {original!r} found to trace")

    def install(self):
        """Patch every traced entry point; pair with ``remove``."""
        modules = [
            mod for name, mod in sorted(sys.modules.items())
            if mod is not None and (name == "superproj" or name.startswith("superproj."))
        ]
        poly, chart = superpoly.SuperPolynomial, superpoly.ChartTransition
        elim, Scalar = linalg.SparseElim, scalars.Scalar

        def cech_result(args, kwargs, result):
            sheaf = args[0]
            window = args[1] if len(args) > 1 else kwargs.get("window")
            start = window if window is not None else cech.default_window(sheaf)
            self.add("cech.windows", 2 + result.window_used.D - start.D)
            self.add("cech.dim_total", result.h0.total + result.h1.total)

        def echelon_cells(args, kwargs):
            vectors = args[0]
            keys = {k for v in vectors for k in v}
            self.add("linalg.echelon.cells", sum(1 for v in vectors if v) * len(keys))

        def bareiss_cells(args, kwargs):
            rows = args[0]
            self.add("linalg.bareiss.cells", len(rows) * (len(rows[0]) if rows else 0))

        functions = [
            ("cech", cech.cech_cohomology, None, cech_result),
            ("linalg.echelon", linalg.echelon_basis, echelon_cells, None),
            ("linalg.bareiss", linalg.bareiss_rank, bareiss_cells, None),
            ("cohomology.closed", cohomology.chi_closed, None, None),
            ("cohomology.closed", cohomology.zeta_closed, None, None),
            ("cohomology.dims", cohomology.cohomology_dims, None, None),
            ("tangent.gradient", tangent.super_gradient_rank, None, None),
            ("tangent.fields", tangent.global_tangent_fields, None, None),
            ("superlie.osp22", superlie.verify_osp22, None, None),
            ("picard", picard.pi_picard, None, None),
            ("picard", picard.even_picard, None, None),
            ("characteristic", characteristic.characteristic_report, None, None),
            ("parser.parse", parser.parse_superpoly, None, None),
        ]
        try:
            for name, fn, before, after in functions:
                self._rebind(fn, self.span(name, fn, before, after), modules)
            self._rebind(chart.to_b, self.span("superpoly.to_b", chart.to_b), [chart])
            self._rebind(poly.inverse, self.span("superpoly.inverse", poly.inverse), [poly])
            self._rebind(elim.add, self.span("linalg.elim_add", elim.add), [elim])
            self._rebind(poly.__mul__, self.count("superpoly.mul.calls", poly.__mul__), [poly])
            self._rebind(Scalar.__mul__, self.count_scalar_mul(Scalar.__mul__), [Scalar])
            self._rebind(Scalar.inverse, self.count("scalars.inverse.calls", Scalar.inverse),
                         [Scalar])
        except BaseException:
            self.remove()
            raise

    def remove(self):
        while self._undo:
            ns, attr, original = self._undo.pop()
            setattr(ns, attr, original)

    # -- results ----------------------------------------------------------

    def metrics(self) -> dict:
        """Per-layer figures, named as in BENCHMARK.json (without units)."""

        def layer(name):
            return self.layers.get(name) or LayerStats()

        cech_stats = layer("cech")
        windows = self.counters.get("cech.windows", 0)
        muls, rational = self._scalar_mul
        closed = layer("cohomology.closed")
        return {
            "cech.calls": cech_stats.calls,
            "cech.self_s": cech_stats.self_time,
            "cech.windows": windows,
            "cech.window_yield": cech_stats.calls / windows if windows else 0.0,
            "cech.dim_total": self.counters.get("cech.dim_total", 0),
            "superpoly.to_b.calls": layer("superpoly.to_b").calls,
            "superpoly.to_b.busy_s": layer("superpoly.to_b").busy,
            "superpoly.mul.calls": self.counters.get("superpoly.mul.calls", 0),
            "superpoly.inverse.busy_s": layer("superpoly.inverse").busy,
            "linalg.elim_add.calls": layer("linalg.elim_add").calls,
            "linalg.elim_add.busy_s": layer("linalg.elim_add").busy,
            "linalg.echelon.calls": layer("linalg.echelon").calls,
            "linalg.echelon.busy_s": layer("linalg.echelon").busy,
            "linalg.echelon.cells": self.counters.get("linalg.echelon.cells", 0),
            "linalg.bareiss.busy_s": layer("linalg.bareiss").busy,
            "linalg.bareiss.cells": self.counters.get("linalg.bareiss.cells", 0),
            "scalars.mul.calls": muls,
            "scalars.mul.rational_share": rational / muls if muls else 0.0,
            "scalars.inverse.calls": self.counters.get("scalars.inverse.calls", 0),
            "cohomology.closed.calls": closed.calls,
            "cohomology.closed.busy_s": closed.busy,
            "cohomology.dims.busy_s": layer("cohomology.dims").busy,
            "tangent.gradient.busy_s": layer("tangent.gradient").busy,
            "tangent.fields.busy_s": layer("tangent.fields").busy,
            "superlie.osp22.busy_s": layer("superlie.osp22").busy,
            "picard.busy_s": layer("picard").busy,
            "characteristic.busy_s": layer("characteristic").busy,
            "parser.parse.busy_s": layer("parser.parse").busy,
        }
