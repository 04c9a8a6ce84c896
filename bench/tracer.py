"""Span tracer that wraps the public functions of the shiftadapt layers.

Every public function and method that a layer module defines is replaced,
in every ``shiftadapt`` module namespace that binds it, by a wrapper that
records one span per call: name, start, end, parent span and run id. Spans
are kept in flat in-memory arrays and written out once, at the end of a
traced run. Nothing inside ``src/`` is changed; ``uninstall`` restores every
original binding.

Observers attach extra counts to a function (rows touched by a gradient,
pairwise kernel entries, bytes written). They run outside the wrapped call,
inside a ``bench.observe`` span, so their cost is never charged to a layer.
"""
from __future__ import annotations

import contextlib
import functools
import inspect
import sys
import time
from array import array

import numpy as np

LAYERS = ("data", "model", "correction", "mmd", "adapt", "metrics", "cli")

# featurize's per-token hash primitive. A span per token would cost about as
# much as the hashing it measures, so its time counts as featurize self time.
UNWRAPPED = frozenset({"data.fnv1a_64"})

OBSERVE = "bench.observe"


def public_callables(module, layer):
    """(span name, owner, attribute, raw attribute) for each public function
    and method the module defines; properties and dunders are skipped."""
    found = []
    for name, value in vars(module).items():
        if name.startswith("_") or getattr(value, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(value):
            found.append((f"{layer}.{name}", module, name, value))
        elif inspect.isclass(value):
            for attr, raw in vars(value).items():
                if attr.startswith("_"):
                    continue
                if inspect.isfunction(raw) or isinstance(raw, (classmethod, staticmethod)):
                    found.append((f"{layer}.{name}.{attr}", value, attr, raw))
    return [entry for entry in found if entry[0] not in UNWRAPPED]


class Tracer:
    """Records nested call spans; see the module docstring."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("q")
        self.run_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.run = 0
        self._stack = [-1]
        self._paused = False
        self._patches: list[tuple[object, str, object]] = []

    # -- span recording -------------------------------------------------
    def _id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _open(self, nid: int) -> int:
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1])
        self.run_id.append(self.run)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        """Record a span around the benchmark's own steps."""
        idx = self._open(self._id(name))
        try:
            yield
        finally:
            self._close(idx)

    def _observe(self, fn, *args) -> None:
        idx = self._open(self._id(OBSERVE))
        self._paused = True
        try:
            fn(*args)
        finally:
            self._paused = False
            self._close(idx)

    # -- installation ---------------------------------------------------
    def _wrapper(self, name: str, fn, pre=None, post=None):
        nid = self._id(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer._paused:
                return fn(*args, **kwargs)
            if pre is not None:
                tracer._observe(pre, args, kwargs)
            idx = tracer._open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            if post is not None:
                tracer._observe(post, args, kwargs, result)
            return result

        return traced

    def install(self, observers=None) -> None:
        """Wrap every public callable of every layer module.

        observers maps a span name to (pre, post); pre is called with
        (args, kwargs) before the call, post with (args, kwargs, result).
        """
        if self._patches:
            raise RuntimeError("tracer already installed")
        observers = observers or {}
        package = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "shiftadapt" or n.startswith("shiftadapt."))]
        replaced = {}  # id(original function) -> wrapper
        for layer in LAYERS:
            module = sys.modules[f"shiftadapt.{layer}"]
            for name, owner, attr, raw in public_callables(module, layer):
                pre, post = observers.get(name, (None, None))
                if isinstance(raw, (classmethod, staticmethod)):
                    wrapped = type(raw)(self._wrapper(name, raw.__func__, pre, post))
                else:
                    wrapped = self._wrapper(name, raw, pre, post)
                    replaced[id(raw)] = wrapped
                self._patches.append((owner, attr, raw))
                setattr(owner, attr, wrapped)
        # Rebind names imported into other modules, e.g. forward in adapt.
        for module in package:
            for attr, value in list(vars(module).items()):
                wrapped = replaced.get(id(value))
                if wrapped is not None and value is not wrapped:
                    self._patches.append((module, attr, value))
                    setattr(module, attr, wrapped)

    def uninstall(self) -> None:
        for owner, attr, raw in reversed(self._patches):
            setattr(owner, attr, raw)
        self._patches.clear()

    # -- output ---------------------------------------------------------
    def arrays(self):
        """(names, name_id, parent, run_id, start, end) as numpy arrays."""
        return (
            list(self.names),
            np.frombuffer(self.name_id, dtype=np.int32).copy(),
            np.frombuffer(self.parent, dtype=np.int64).copy(),
            np.frombuffer(self.run_id, dtype=np.int32).copy(),
            np.frombuffer(self.start, dtype=np.float64).copy(),
            np.frombuffer(self.end, dtype=np.float64).copy(),
        )

    def write_csv(self, path) -> None:
        names, nid, parent, run_id, start, end = self.arrays()
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("span,name,parent,run,start_s,end_s\n")
            for i in range(nid.size):
                fh.write(f"{i},{names[nid[i]]},{parent[i]},{run_id[i]},"
                         f"{float(start[i])!r},{float(end[i])!r}\n")


def self_times(parent: np.ndarray, start: np.ndarray, end: np.ndarray) -> np.ndarray:
    """Each span's duration minus the time covered by its direct children.

    Children of one parent never overlap (one thread), so the covered time
    is the sum of their durations.
    """
    duration = end - start
    covered = np.zeros_like(duration)
    nested = parent >= 0
    np.add.at(covered, parent[nested], duration[nested])
    return duration - covered
