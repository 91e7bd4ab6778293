"""Spans around the calls into each cstardyn layer, installed from outside.

Nothing in the package is edited.  While :func:`installed` is active, every
public function of a layer module is replaced, in every ``cstardyn`` module
namespace that refers to it, by a wrapper that records a span; dataclasses
defined in a layer get the same wrapper on ``__post_init__``, so building a
group, an action, a module vector or a representation (and validating it)
counts toward the layer that defines the type.  Methods other than
``__post_init__`` are not wrapped: they are called per matrix entry in the
verification loops, and their time counts toward the caller.  ``numutil``
and ``reporting`` are helpers and also count toward their caller.  On exit
every name is restored.

A span is ``[name, layer, start, end, parent]``; the parent is the index of
the enclosing span, or -1 for a request root.  Spans are only recorded while
a request root is open, so set-up work is never traced.
"""

from __future__ import annotations

import functools
import inspect
import sys
from contextlib import contextmanager
from time import perf_counter

LAYERS = (
    "core",
    "serialize",
    "hilbmod",
    "equivrep",
    "cocycle",
    "multiplier",
    "crossed",
    "cyclic_examples",
    "cli",
)
ROOT_LAYER = "request"


class Tracer:
    """In-memory span recorder for one process."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    def begin(self, name: str, layer: str) -> None:
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(len(self.spans))
        self.spans.append([name, layer, perf_counter(), 0.0, parent])

    def end(self) -> None:
        self.spans[self._stack.pop()][3] = perf_counter()

    def active(self) -> bool:
        return bool(self._stack)

    def take(self) -> list[list]:
        """Hand over the recorded spans and start a fresh list."""
        if self._stack:
            raise RuntimeError("spans are still open")
        spans, self.spans = self.spans, []
        return spans


def _wrap(fn, name: str, layer: str, tracer: Tracer):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if not tracer.active():
            return fn(*args, **kwargs)
        tracer.begin(name, layer)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.end()

    return traced


@contextmanager
def installed(tracer: Tracer):
    """Wrap every layer's public functions and constructors for the duration."""
    modules = {layer: sys.modules[f"cstardyn.{layer}"] for layer in LAYERS}
    wrappers: dict[int, tuple[object, object]] = {}
    patched: list[tuple[object, str, object]] = []
    for layer, mod in modules.items():
        for attr, obj in vars(mod).items():
            if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                continue
            if inspect.isfunction(obj):
                wrappers[id(obj)] = (obj, _wrap(obj, f"{layer}.{attr}", layer, tracer))
            elif inspect.isclass(obj) and "__post_init__" in vars(obj):
                original = vars(obj)["__post_init__"]
                patched.append((obj, "__post_init__", original))
                setattr(obj, "__post_init__", _wrap(original, f"{layer}.{attr}", layer, tracer))
    namespaces = [m for name, m in sys.modules.items() if name == "cstardyn" or name.startswith("cstardyn.")]
    for mod in namespaces:
        for attr, obj in list(vars(mod).items()):
            hit = wrappers.get(id(obj))
            if hit is not None and hit[0] is obj:
                patched.append((mod, attr, obj))
                setattr(mod, attr, hit[1])
    try:
        yield tracer
    finally:
        for target, attr, original in reversed(patched):
            setattr(target, attr, original)


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the time its child spans cover.

    Calls are synchronous on one thread, so children never overlap; a child
    that leaves its parent's interval means the spans are corrupt.
    """
    covered = [0.0] * len(spans)
    for name, _, start, end, parent in spans:
        if parent < 0:
            continue
        p = spans[parent]
        if start < p[2] or end > p[3]:
            raise ValueError(f"span {name} is not nested in its parent {p[0]}")
        covered[parent] += end - start
    return [s[3] - s[2] - c for s, c in zip(spans, covered)]


def summarize(spans: list[list]) -> dict:
    """Self time and call count per layer and per span name, plus, per
    request root, the gap between its duration and the sum of the self times
    of all spans under it."""
    selfs = self_times(spans)
    layers: dict[str, list] = {}
    names: dict[str, list] = {}
    root_of = [0] * len(spans)
    totals: dict[int, float] = {}
    for i, (name, layer, _, _, parent) in enumerate(spans):
        root_of[i] = i if parent < 0 else root_of[parent]
        totals[root_of[i]] = totals.get(root_of[i], 0.0) + selfs[i]
        for key, table in ((layer, layers), (name, names)):
            entry = table.setdefault(key, [0.0, 0])
            entry[0] += selfs[i]
            entry[1] += 1
    gap = max((abs(total - (spans[r][3] - spans[r][2])) for r, total in totals.items()), default=0.0)
    return {"layers": layers, "names": names, "self_sum_gap_s": gap}
