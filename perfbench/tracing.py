"""Per-layer spans recorded from outside the library.

A :class:`Tracer` wraps every public function of the layer modules and
swaps the wrapper into *every* ``putget`` module that binds the same
function object.  That matters because callers reach a function through
different bindings: ``check_law`` is imported by name into
``registry``, ``quantum``, ``karoubi`` and ``lenses``; ``compose`` and
``tensor`` are looked up as globals of ``putget.tensors`` by
``Morphism.__rshift__`` and ``Morphism.__matmul__``.  Family extras are
wrapped by replacing the registry's specs.  The benchmark's tests count
calls of the original code objects with a profiler and require the
same counts from the spans, so a missed binding fails a test instead
of reading as a faster layer.

A span's self time is its duration minus the durations of the spans it
directly contains.  Time that no top-level span covers is
``unattributed_s``.  Counters are taken at the same boundaries:
computed multiply-accumulates and bytes of the matrices that
``compose`` and ``tensor`` return, table entries that ``fun_compose``
and ``fun_product`` return, and the distinct (structure, law) pairs
that ``check_law`` is asked about.
"""
from __future__ import annotations

import dataclasses
import functools
import importlib
import sys
import time
import types

LAYERS = (
    "tensors",
    "finsets",
    "structures",
    "algebras",
    "quantum",
    "karoubi",
    "lenses",
    "registry",
    "cli",
)

# Span names that differ from ``<layer>.<function>``.
_RENAMED = {"registry.build_example": "registry.build"}

COMPLEX_BYTES = 16


class Tracer:
    """Spans and counters of one traced pass; install, run, uninstall."""

    def __init__(self) -> None:
        self.calls: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        self.covered_s = 0.0
        self.counters = {
            "tensors.compose.flops": 0,
            "tensors.bytes_built": 0,
            "tensors.peak_elems": 0,
            "finsets.entries_built": 0,
        }
        self._stack: list[list[float]] = []
        # (id of structure, law) -> structure; holding the structure keeps its id unique
        self._laws: dict[tuple[int, str], object] = {}
        self._patches: list[tuple[object, str, object]] = []
        self.originals: dict[str, object] = {}  # span name -> wrapped module function

    # -- counters -----------------------------------------------------------
    def _on_compose(self, args, result) -> None:
        g, f = args[0], args[1]
        rows, mid = g.array.shape
        self.counters["tensors.compose.flops"] += rows * mid * f.array.shape[1]
        self._on_matrix(result)

    def _on_matrix(self, result) -> None:
        size = result.array.size
        self.counters["tensors.bytes_built"] += COMPLEX_BYTES * size
        if size > self.counters["tensors.peak_elems"]:
            self.counters["tensors.peak_elems"] = size

    def _on_table(self, result) -> None:
        self.counters["finsets.entries_built"] += len(result.table)

    def _on_check_law(self, args, result) -> None:
        U, law = args[0], args[1]
        self._laws[id(U), law] = U

    @property
    def distinct_laws(self) -> int:
        return len(self._laws)

    def _hook(self, name: str):
        return {
            "tensors.compose": self._on_compose,
            "tensors.tensor": lambda args, result: self._on_matrix(result),
            "finsets.fun_compose": lambda args, result: self._on_table(result),
            "finsets.fun_product": lambda args, result: self._on_table(result),
            "structures.check_law": self._on_check_law,
        }.get(name)

    # -- spans --------------------------------------------------------------
    def _wrap(self, name: str, fn):
        self.calls.setdefault(name, 0)
        self.self_s.setdefault(name, 0.0)
        stack, hook, clock = self._stack, self._hook(name), time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            children = [0.0]
            stack.append(children)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = clock() - start
                stack.pop()
                self.calls[name] += 1
                self.self_s[name] += duration - children[0]
                if stack:
                    stack[-1][0] += duration
                else:
                    self.covered_s += duration
            if hook is not None:
                hook(args, result)
            return result

        return traced

    # -- patching -----------------------------------------------------------
    def install(self) -> None:
        wrappers = {}  # id of an original -> (original, wrapper)
        for layer in LAYERS:
            module = importlib.import_module(f"putget.{layer}")
            for attr in module.__all__:
                fn = getattr(module, attr)
                if isinstance(fn, types.FunctionType) and fn.__module__ == module.__name__:
                    name = _RENAMED.get(f"{layer}.{attr}", f"{layer}.{attr}")
                    wrappers[id(fn)] = (fn, self._wrap(name, fn))
                    self.originals[name] = fn
        for module_name, module in list(sys.modules.items()):
            if module_name == "putget" or module_name.startswith("putget."):
                for attr, value in list(vars(module).items()):
                    original, wrapper = wrappers.get(id(value), (None, None))
                    if original is value:
                        self._patch(module, attr, wrapper)
        registry = importlib.import_module("putget.registry")
        extras = self._wrap("registry.extras", lambda run, U, tol: run(U, tol))
        for key, spec in list(registry.REGISTRY.items()):
            if spec.extras is not None:
                run = spec.extras
                wrapped = dataclasses.replace(
                    spec, extras=lambda U, tol, run=run: extras(run, U, tol))
                self._patch(registry.REGISTRY, key, wrapped)

    def _patch(self, target, key: str, value) -> None:
        if isinstance(target, dict):
            self._patches.append((target, key, target[key]))
            target[key] = value
        else:
            self._patches.append((target, key, getattr(target, key)))
            setattr(target, key, value)

    def uninstall(self) -> None:
        for target, key, value in reversed(self._patches):
            if isinstance(target, dict):
                target[key] = value
            else:
                setattr(target, key, value)
        self._patches.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- summary ------------------------------------------------------------
    def layer_self_s(self, layer: str) -> float:
        return sum(s for name, s in self.self_s.items() if name.split(".")[0] == layer)
