"""Outside-in span tracer for the ringcat package.

The tracer never edits the package.  ``install`` replaces, in every ringcat
module namespace, each public function and each public method of the public
classes with a wrapper that opens a span named after the module (its layer).
The public functions of ``numpy.linalg`` -- and of ``scipy.linalg`` and
``scipy.sparse.linalg`` once ringcat has imported them -- are wrapped the same
way as the ``linalg`` layer.  ``uninstall`` puts every original back.

A layer's self time is its span time minus the time of the spans it caused.
A call from a layer into itself opens no span, because it would not change
any self time; ``<layer>.calls`` therefore counts calls *into* the layer from
another one.  A few spans also look at what the call returned, to count work
(matrix entries built, eigenpairs computed and returned, CSV bytes written);
that inspection is timed apart and kept out of every layer's self time.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import math
import os
import sys
import time

import numpy as np

RING_LAYERS = ("cli", "basis", "hamiltonians", "solver", "effective", "catmetrics", "loopmodel", "util")
LAYERS = RING_LAYERS + ("linalg",)
LINALG_MODULES = ("numpy.linalg", "scipy.linalg", "scipy.sparse.linalg")

#: Dense factorisations; linalg.dim3_sum adds n^3 per matrix handed to one
#: of them (times the batch size for stacked input).
CUBIC_LINALG = {"eigh", "eigvalsh", "det"}
#: Eigen-solvers; solver.pairs_computed adds the eigenvalues they return.
EIGEN_LINALG = {"eigh", "eigvalsh", "eigsh"}

#: Per-element accessors that the path sum calls about a million times per
#: ``paths`` run.  A wrapper would cost more than the work they do, so they
#: stay unwrapped and their time counts to the layer that calls them.
UNWRAPPED = {"CouplingGraph.edge_value", "CouplingGraph.neighbors"}

COUNT_KEYS = (
    "hamiltonians.entries",
    "hamiltonians.nnz",
    "solver.pairs_computed",
    "solver.pairs_returned",
    "linalg.dim3_sum",
    "effective.lowdin_iterations",
    "effective.paths",
    "util.rows",
    "util.bytes",
)


class Tracer:
    """Per-layer self time, call counts and work counters of one process.

    The records are containers that ``reset`` clears in place, so the span
    wrappers can hold them directly; a span costs about a microsecond.
    """

    def __init__(self) -> None:
        self._restore: list[tuple[object, str, object]] = []
        self.self_s = dict.fromkeys(LAYERS, 0.0)
        self.calls = dict.fromkeys(LAYERS, 0)
        self.counts = dict.fromkeys(COUNT_KEYS, 0)
        self.open = dict.fromkeys(LAYERS, 0)
        # One frame per open span: [layer, time covered by its child spans].
        self.stack: list[list] = [[None, 0.0]]

    # -- records ---------------------------------------------------------

    def reset(self) -> None:
        for record in (self.self_s, self.calls, self.counts, self.open):
            for key, value in record.items():
                record[key] = type(value)()
        self.stack[:] = [[None, 0.0]]

    def snapshot(self) -> dict:
        return {
            "self_s": dict(self.self_s),
            "calls": dict(self.calls),
            "counts": dict(self.counts),
        }

    # -- spans -----------------------------------------------------------

    def wrap(self, fn, layer: str, hook=None):
        """Span wrapper; ``hook(tracer, outer_layer, args, kwargs, result)``
        runs after the span closes, timed apart from every layer."""
        tracer, stack, self_s, calls, open_ = self, self.stack, self.self_s, self.calls, self.open
        clock = time.perf_counter
        only_from_ringcat = layer == "linalg"

        def span(fn_call, args, kwargs):
            frame = [layer, 0.0]
            stack.append(frame)
            open_[layer] += 1
            start = clock()
            try:
                return fn_call(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                open_[layer] -= 1
                self_s[layer] += elapsed - frame[1]
                stack[-1][1] += elapsed

        def inspect_result(outer_layer, args, kwargs, result):
            start = clock()
            hook(tracer, outer_layer, args, kwargs, result)
            stack[-1][1] += clock() - start  # keep the inspection out of the caller's self time

        if inspect.isgeneratorfunction(fn):

            def steps(inner, args, kwargs):
                # One span per step, wherever the generator is consumed.
                try:
                    while True:
                        try:
                            item = span(next, (inner,), {})
                        except StopIteration:
                            return
                        if hook is not None:
                            inspect_result(layer, args, kwargs, item)
                        yield item
                finally:
                    inner.close()

            @functools.wraps(fn)
            def traced_generator(*args, **kwargs):
                inner = fn(*args, **kwargs)
                if stack[-1][0] == layer and hook is None:
                    return inner
                if stack[-1][0] != layer:
                    calls[layer] += 1
                return steps(inner, args, kwargs)

            return traced_generator

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            outer = stack[-1][0]
            if (outer == layer and hook is None) or (outer is None and only_from_ringcat):
                return fn(*args, **kwargs)
            if outer != layer:
                calls[layer] += 1
            result = span(fn, args, kwargs)
            if hook is not None:
                inspect_result(outer, args, kwargs, result)
            return result

        return traced

    # -- installation ----------------------------------------------------

    def _patch(self, owner, name: str, value) -> None:
        self._restore.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def install(self) -> None:
        """Wrap the ringcat layers and the linear-algebra entry points."""
        if self._restore:
            raise RuntimeError("tracer already installed")
        modules = {}
        for layer in RING_LAYERS:
            try:
                modules[layer] = importlib.import_module(f"ringcat.{layer}")
            except ModuleNotFoundError:
                continue
        namespaces = [m for name, m in sys.modules.items() if name == "ringcat" or name.startswith("ringcat.")]

        replacements: dict[int, object] = {}
        for layer, module in modules.items():
            for name, obj in list(vars(module).items()):
                if name.startswith("_"):
                    continue
                if inspect.isfunction(obj) and obj.__module__ == module.__name__:
                    replacements[id(obj)] = self.wrap(obj, layer, _ring_hook(layer, name))
                elif inspect.isclass(obj) and obj.__module__ == module.__name__:
                    for attr, member in list(vars(obj).items()):
                        qualname = f"{obj.__name__}.{attr}"
                        if not attr.startswith("_") and inspect.isfunction(member) and qualname not in UNWRAPPED:
                            self._patch(obj, attr, self.wrap(member, layer, _ring_hook(layer, qualname)))

        linalg_modules = [sys.modules[name] for name in LINALG_MODULES if name in sys.modules]
        for module in linalg_modules:
            for name in getattr(module, "__all__", ()):
                obj = getattr(module, name, None)
                if callable(obj) and not inspect.isclass(obj) and id(obj) not in replacements:
                    replacements[id(obj)] = self.wrap(obj, "linalg", _linalg_hook(name))

        for module in namespaces + linalg_modules:
            for name, obj in list(vars(module).items()):
                wrapped = replacements.get(id(obj))
                if wrapped is not None and not name.startswith("__"):
                    self._patch(module, name, wrapped)

    def uninstall(self) -> None:
        while self._restore:
            owner, name, value = self._restore.pop()
            setattr(owner, name, value)


# -- work counters ---------------------------------------------------------


def _count_operator(tracer: Tracer, outer, args, kwargs, result) -> None:
    matrix = getattr(result, "matrix", None)
    if matrix is None or getattr(matrix, "ndim", 0) != 2:
        return
    tracer.counts["hamiltonians.entries"] += matrix.shape[0] * matrix.shape[1]
    nnz = getattr(matrix, "nnz", None)
    if nnz is None:
        nnz = int(np.count_nonzero(matrix))
    tracer.counts["hamiltonians.nnz"] += nnz


def _count_returned_pairs(tracer: Tracer, outer, args, kwargs, result) -> None:
    # Only pairs that leave the solver layer: an inner solver call made while
    # an outer solver span is still open hands its pairs to that span.
    energies = getattr(result, "energies", None)
    if energies is not None and tracer.open["solver"] == 0:
        tracer.counts["solver.pairs_returned"] += int(getattr(energies, "size", len(energies)))


def _count_lowdin(tracer: Tracer, outer, args, kwargs, result) -> None:
    tracer.counts["effective.lowdin_iterations"] += int(getattr(result, "iterations", 0))


def _count_path(tracer: Tracer, outer, args, kwargs, item) -> None:
    tracer.counts["effective.paths"] += 1


def _count_csv(tracer: Tracer, outer, args, kwargs, result) -> None:
    path = kwargs.get("path", args[0] if args else None)
    if path is None or not os.path.isfile(path):
        return
    with open(path, "rb") as fh:
        data = fh.read()
    lines = data.splitlines()
    header_lines = 1 + sum(1 for line in lines[:2] if line.startswith(b"#"))
    tracer.counts["util.rows"] += max(0, len(lines) - header_lines)
    tracer.counts["util.bytes"] += len(data)


def _linalg_hook(name: str):
    cubic = name in CUBIC_LINALG
    eigen = name in EIGEN_LINALG
    if not (cubic or eigen):
        return None

    def hook(tracer: Tracer, outer, args, kwargs, result) -> None:
        matrix = args[0] if args else kwargs.get("a", kwargs.get("A"))
        shape = getattr(matrix, "shape", ())
        if cubic and len(shape) >= 2:
            tracer.counts["linalg.dim3_sum"] += math.prod(shape[:-2]) * shape[-1] ** 3
        if eigen and tracer.open["solver"] > 0:
            values = result[0] if isinstance(result, tuple) else result
            tracer.counts["solver.pairs_computed"] += int(getattr(values, "size", 0))

    return hook


def _ring_hook(layer: str, name: str):
    """Counter for a ringcat function, chosen by what the layer returns.

    Every hamiltonians and solver function is inspected, so a new builder or
    solver entry point is counted without a change here; the effective and
    util counters are tied to the function that does the counted work.
    """
    if layer == "hamiltonians":
        return _count_operator
    if layer == "solver":
        return _count_returned_pairs
    return {
        ("effective", "lowdin_coupling"): _count_lowdin,
        ("effective", "CouplingGraph.simple_paths"): _count_path,
        ("util", "write_csv"): _count_csv,
    }.get((layer, name))
