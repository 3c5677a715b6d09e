"""In-memory spans around calls into the rtfbeam layers.

A span is ``[name, start, end, parent, attrs]``: a name such as
``covariance.hermitian_evd``, ``perf_counter`` start and end, the index of
the span that was open when it started (-1 at the root), and a dict of
counters observed at that boundary (or None). Spans stay in memory and are
written once, when the benchmark ends.

``instrument`` replaces every public function of the named rtfbeam modules
with a traced wrapper at every module attribute it is bound to, so a
direct import such as ``from .covariance import hermitian_evd`` in ``rtf``
is traced too. Private helpers (leading underscore) are never wrapped.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from contextlib import contextmanager

LAYERS = (
    "simulator", "stft", "covariance", "rtf", "beamformer", "metrics",
    "pipeline", "cli",
)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    def _open(self, name: str, attrs: dict | None) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, attrs])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str, **attrs):
        idx = self._open(name, attrs or None)
        try:
            yield
        finally:
            self._close(idx)

    def current(self) -> int:
        """Index of the innermost open span, -1 when none is open."""
        return self._stack[-1] if self._stack else -1

    def add(self, idx: int, key: str, value: float) -> None:
        """Accumulate a counter on span ``idx``."""
        attrs = self.spans[idx][4]
        if attrs is None:
            attrs = self.spans[idx][4] = {}
        attrs[key] = attrs.get(key, 0) + value

    def wrap(self, name: str, fn, observe=None):
        """Traced version of ``fn``; ``observe(result)`` returns counters."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(name, None)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if observe is not None:
                for key, value in observe(result).items():
                    self.add(idx, key, value)
            return result

        return traced


def instrument(tracer: Tracer, observers: dict | None = None) -> None:
    """Wrap the public functions of every layer at every module binding."""
    observers = observers or {}
    modules = {layer: importlib.import_module(f"rtfbeam.{layer}") for layer in LAYERS}
    wrappers = {}  # id(original function) -> traced wrapper
    for layer, mod in modules.items():
        for attr, obj in vars(mod).items():
            if (
                inspect.isfunction(obj)
                and obj.__module__ == mod.__name__
                and not attr.startswith("_")
            ):
                name = f"{layer}.{attr}"
                wrappers[id(obj)] = tracer.wrap(name, obj, observers.get(name))
    for mod in modules.values():
        for attr, obj in list(vars(mod).items()):
            if id(obj) in wrappers and inspect.isfunction(obj):
                setattr(mod, attr, wrappers[id(obj)])


def span_cost_s(samples: int = 20000) -> float:
    """Measured cost of one traced call over a plain call, in seconds."""
    tracer = Tracer()

    def noop():
        return None

    traced = tracer.wrap("noop", noop)
    best = float("inf")
    for _ in range(3):
        tracer.spans.clear()
        t0 = time.perf_counter()
        for _ in range(samples):
            noop()
        t1 = time.perf_counter()
        for _ in range(samples):
            traced()
        t2 = time.perf_counter()
        best = min(best, ((t2 - t1) - (t1 - t0)) / samples)
    return max(best, 0.0)


class Summary:
    """Durations, self times and layer attribution of a finished span list."""

    def __init__(self, spans: list[list]):
        self.spans = spans
        n = len(spans)
        self.children: list[list[int]] = [[] for _ in range(n)]
        for i, s in enumerate(spans):
            if s[3] >= 0:
                self.children[s[3]].append(i)
        self.duration = [s[2] - s[1] for s in spans]
        self.self_time = [
            self.duration[i] - sum(self.duration[c] for c in self.children[i])
            for i in range(n)
        ]

    @staticmethod
    def layer(name: str) -> str:
        return name.split(".", 1)[0]

    def named(self, name: str) -> list[int]:
        return [i for i, s in enumerate(self.spans) if s[0] == name]

    def subtree(self, root: int) -> list[int]:
        out, todo = [], [root]
        while todo:
            i = todo.pop()
            out.append(i)
            todo.extend(self.children[i])
        return out

    def layer_self_time(self, root: int, layer: str) -> float:
        """Self time of ``layer`` code inside the subtree of ``root``."""
        return sum(
            self.self_time[i] for i in self.subtree(root)
            if self.layer(self.spans[i][0]) == layer
        )
