"""Span tracing of the fraccauchy modules, installed from outside the package.

``Tracer.install`` rebinds every public function of the six modules to a
wrapper that records a span, in its own module and wherever a sibling module
bound it by ``from .x import y``.  It also wraps the SciPy entry points as
the modules bind them: ``elliptic.splu`` (the factor it returns gets a traced
``solve`` and reports its fill) and ``specfun.quad`` (one call per
integral-branch point).  ``uninstall`` restores the originals, so untraced
rounds run the program exactly as shipped.

A span is ``[name, layer, start, end, parent, op, count]``; ``parent`` is
the index of the enclosing span (-1 at the top), ``op`` the id of the
benchmark op it ran in, ``count`` a per-call figure (points evaluated, Newton
iterations, factor entries).  Spans stay in memory until ``write``.
"""

import importlib
import inspect
import json
import time

import numpy as np

LAYERS = ("specfun", "spectral", "continuation", "elliptic", "freeboundary", "simultaneous")

# single-slice continuation entry points; split_frequency_continue and
# solve_cauchy_holdall call these once per level
_SLICE_FUNCS = frozenset(
    "continuation." + n
    for n in ("continue_exact", "continue_left_dc", "continue_right_dc",
              "continue_fac_lap", "continue_banded")
)
_TRACE_FUNCS = frozenset(
    ("elliptic.eval_on_curve", "elliptic.interface_traces", "elliptic.bottom_flux")
)
_NEWTON_FUNCS = frozenset(
    "freeboundary." + n for n in ("newton_dirichlet", "newton_neumann", "newton_impedance")
)


def _ml_values_points(args, kwargs, result):
    return int(np.size(args[2] if len(args) > 2 else kwargs["z"]))


_COUNTS = {
    "specfun.ml": lambda a, k, r: 1,
    "specfun.ml_kernel": lambda a, k, r: 1,
    "specfun.ml_values": _ml_values_points,
    "simultaneous.frozen_newton": lambda a, k, r: int(r[1]),
    "elliptic.splu": lambda a, k, r: int(r.nnz),
}
for _name in _NEWTON_FUNCS:
    _COUNTS[_name] = lambda a, k, r: len(r.iterates) - 1


def package_modules():
    return {name: importlib.import_module("fraccauchy." + name) for name in LAYERS}


def _rebind(modules, replace):
    """Point every module attribute bound to a key of ``replace`` at its
    value; returns what ``_restore`` needs to undo it."""
    undo = []
    for mod in modules.values():
        for attr, val in list(vars(mod).items()):
            if callable(val) and val in replace:
                undo.append((mod, attr, val))
                setattr(mod, attr, replace[val])
    return undo


def _restore(undo):
    for mod, attr, val in reversed(undo):
        setattr(mod, attr, val)


class MLRecorder:
    """Context manager recording every Mittag-Leffler evaluation made
    through ``ml`` and ``ml_values``: ``calls`` holds (alpha, beta, z,
    values, scalar) with z and values as flat float arrays and ``scalar``
    true for ``ml``."""

    def __init__(self):
        self.calls = []
        self._undo = []

    def __enter__(self):
        modules = package_modules()
        spf = modules["specfun"]
        ml, ml_values, calls = spf.ml, spf.ml_values, self.calls

        def rec_ml(alpha, beta, z):
            r = ml(alpha, beta, z)
            calls.append((alpha, beta, np.array([z], dtype=float), np.array([r.value]), True))
            return r

        def rec_ml_values(alpha, beta, z):
            v = ml_values(alpha, beta, z)
            calls.append((alpha, beta, np.array(z, dtype=float).ravel(), np.array(v).ravel(), False))
            return v

        self._undo = _rebind(modules, {ml: rec_ml, ml_values: rec_ml_values})
        return self

    def __exit__(self, *exc):
        _restore(self._undo)
        self._undo = []

    def points(self):
        """All recorded evaluations as arrays (alpha, beta, z, value,
        scalar)."""
        if not self.calls:
            return tuple(np.empty(0) for _ in range(4)) + (np.empty(0, dtype=bool),)
        sizes = [c[2].size for c in self.calls]
        return (np.repeat([float(c[0]) for c in self.calls], sizes),
                np.repeat([float(c[1]) for c in self.calls], sizes),
                np.concatenate([c[2] for c in self.calls]),
                np.concatenate([c[3] for c in self.calls]),
                np.repeat([c[4] for c in self.calls], sizes))


class _TracedFactor:
    """A SuperLU factor whose ``solve`` records a span."""

    def __init__(self, lu, solve):
        self._lu = lu
        self.solve = solve

    def __getattr__(self, name):
        return getattr(self._lu, name)


class Tracer:
    def __init__(self):
        self.modules = package_modules()
        self.spans = []
        self.op = None
        self._stack = []
        self._undo = []

    def _wrap(self, name, layer, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        count = _COUNTS.get(name)

        def traced(*args, **kwargs):
            rec = [name, layer, 0.0, 0.0, stack[-1] if stack else -1, self.op, 0]
            stack.append(len(spans))
            spans.append(rec)
            rec[2] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[3] = clock()
                stack.pop()
            if count is not None:
                rec[6] = count(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _wrap_splu(self, splu):
        factor = self._wrap("elliptic.splu", "elliptic", splu)

        def traced_splu(*args, **kwargs):
            lu = factor(*args, **kwargs)
            return _TracedFactor(lu, self._wrap("elliptic.splu.solve", "elliptic", lu.solve))

        traced_splu.__wrapped__ = splu
        return traced_splu

    def install(self):
        if self._undo:
            return
        replace = {}
        for layer, mod in self.modules.items():
            for attr, fn in vars(mod).items():
                if attr.startswith("_") or not inspect.isfunction(fn):
                    continue
                if fn.__module__ == mod.__name__:
                    replace[fn] = self._wrap("%s.%s" % (layer, attr), layer, fn)
        ell, spf = self.modules["elliptic"], self.modules["specfun"]
        replace[ell.splu] = self._wrap_splu(ell.splu)
        replace[spf.quad] = self._wrap("specfun.quad", "specfun", spf.quad)
        self._undo = _rebind(self.modules, replace)

    def uninstall(self):
        _restore(self._undo)
        self._undo = []

    def write(self, path, header):
        with open(path, "w") as fh:
            fh.write(json.dumps(header) + "\n")
            for name, _, start, end, parent, op, count in self.spans:
                fh.write(json.dumps([name, start, end, parent, op, count]) + "\n")


def layer_metrics(spans, n_ops):
    """Per-op figures of each layer from the spans recorded inside ops.

    Self time is a span's duration minus the durations of its direct
    children; a layer's self time sums the self times of its spans, with
    ``specfun.quad`` counted in specfun and ``elliptic.splu`` in elliptic.
    """
    child = [0.0] * len(spans)
    for name, layer, start, end, parent, op, count in spans:
        if parent >= 0:
            child[parent] += end - start
    self_s = dict.fromkeys(LAYERS, 0.0)
    tot = dict.fromkeys(
        ("specfun.calls", "specfun.points", "specfun.integral_points", "spectral.calls",
         "continuation.slices", "elliptic.forward_solves", "elliptic.factorizations",
         "elliptic.fill", "elliptic.factor_s", "elliptic.backsolve_s",
         "elliptic.assembly_s", "elliptic.trace_s", "freeboundary.newton_iters",
         "simultaneous.iters"), 0.0)
    for i, (name, layer, start, end, parent, op, count) in enumerate(spans):
        if op is None:
            continue
        dur = end - start
        self_s[layer] += dur - child[i]
        outer = spans[parent][1] if parent >= 0 else None
        if layer == "specfun" and outer != "specfun":
            tot["specfun.calls"] += 1
            tot["specfun.points"] += count
        if layer == "spectral" and outer != "spectral":
            tot["spectral.calls"] += 1
        if name == "specfun.quad":
            tot["specfun.integral_points"] += 1
        elif name in _SLICE_FUNCS and (parent < 0 or spans[parent][0] not in _SLICE_FUNCS):
            tot["continuation.slices"] += 1
        elif name == "elliptic.solve_forward":
            tot["elliptic.forward_solves"] += 1
            tot["elliptic.assembly_s"] += dur - child[i]
        elif name == "elliptic.splu":
            tot["elliptic.factorizations"] += 1
            tot["elliptic.fill"] += count
            tot["elliptic.factor_s"] += dur
        elif name == "elliptic.splu.solve":
            tot["elliptic.backsolve_s"] += dur
        elif name in _TRACE_FUNCS:
            tot["elliptic.trace_s"] += dur
        elif name in _NEWTON_FUNCS:
            tot["freeboundary.newton_iters"] += count
        elif name == "simultaneous.frozen_newton":
            tot["simultaneous.iters"] += count

    per_op = {k: v / n_ops for k, v in tot.items() if k != "elliptic.fill"}
    for layer in ("specfun", "spectral", "continuation", "freeboundary", "simultaneous"):
        per_op[layer + ".self_s"] = self_s[layer] / n_ops
    points = tot["specfun.points"]
    per_op["specfun.us_per_point"] = 1e6 * self_s["specfun"] / points if points else 0.0
    nfac = tot["elliptic.factorizations"]
    per_op["elliptic.lu_fill_nnz"] = tot["elliptic.fill"] / nfac if nfac else 0.0
    return per_op
