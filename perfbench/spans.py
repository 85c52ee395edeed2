"""Outside-in tracing: spans around the program's functions, kept in memory.

``Tracer.install`` replaces every public function of the package (and every
public method of its classes) at each layer-module attribute that binds it
with a wrapper that records a span (name, start, end, parent). ``EXTRA``
adds a few more bindings by name. Nothing inside ``src/`` changes;
``uninstall`` restores the originals.

Span names:

* a function defined in the package is named by its defining module,
  ``mechanics.grasp_map``, whichever module's binding was called;
* a function from another package is named by the module that binds it,
  ``stance.linear_sum_assignment``;
* ``SPLIT_BY_SITE`` functions serve more than one layer and are named by
  the binding that was called: ``stance.feasibility_matrix`` for boom
  matching, ``interference.feasibility_matrix`` for coverage;
* a method is named by its class's module, ``study.to_dict``.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import time
from collections import defaultdict

PACKAGE = "reachbot"
LAYERS = ("cli", "config", "rng", "terrain", "robot", "stance", "mechanics", "study",
          "interference")
SPLIT_BY_SITE = {"feasibility_matrix"}
# Bindings traced by name: the CLI's private output writers and the
# assignment solver the stance layer imports.
EXTRA = {"cli": ("_write_json", "_write_lines"), "stance": ("linear_sum_assignment",)}


def _short(module: str) -> str:
    return module[len(PACKAGE) + 1:] if module.startswith(PACKAGE + ".") else module


class Tracer:
    """Records spans of wrapped calls; one instance per traced run."""

    def __init__(self, tallies=None):
        # tallies: span name -> fn(result) -> number, summed per name.
        self.spans: list[tuple[str, float, float, int]] = []
        self.tallies = tallies or {}
        self.tally = defaultdict(float)
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, fn, name: str):
        spans, stack, tally = self.spans, self._stack, self.tallies.get(name)
        totals = self.tally
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent)
            if tally is not None:
                totals[name] += tally(result)
            return result
        return traced

    def _patch(self, owner, attr: str, wrapped):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapped)

    def install(self):
        for layer in LAYERS:
            try:
                mod = importlib.import_module(f"{PACKAGE}.{layer}")
            except ModuleNotFoundError:
                continue  # a removed layer reports its metrics as absent
            for attr, value in list(vars(mod).items()):
                if attr.startswith("_"):
                    continue
                if inspect.isclass(value) and value.__module__ == mod.__name__:
                    self._install_methods(value, layer)
                elif inspect.isfunction(value) and value.__module__.startswith(PACKAGE):
                    home = layer if attr in SPLIT_BY_SITE else _short(value.__module__)
                    self._patch(mod, attr, self._wrap(value, f"{home}.{attr}"))
            for attr in EXTRA.get(layer, ()):
                if inspect.isroutine(getattr(mod, attr, None)):
                    self._patch(mod, attr, self._wrap(getattr(mod, attr), f"{layer}.{attr}"))

    def _install_methods(self, cls, layer: str):
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            if isinstance(raw, (classmethod, staticmethod)):
                self._patch(cls, attr, type(raw)(self._wrap(raw.__func__, f"{layer}.{attr}")))
            elif inspect.isfunction(raw):
                self._patch(cls, attr, self._wrap(raw, f"{layer}.{attr}"))

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def profile(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total (inclusive) seconds and self seconds.

        Self time is a span's duration minus the durations of its child
        spans; calls are single-threaded, so children never overlap.
        """
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, dict[str, float]] = defaultdict(lambda: {"calls": 0, "total_s": 0.0,
                                                                 "self_s": 0.0})
        for (name, start, end, _), inner in zip(self.spans, child):
            row = out[name]
            row["calls"] += 1
            row["total_s"] += end - start
            row["self_s"] += end - start - inner
        return dict(out)
