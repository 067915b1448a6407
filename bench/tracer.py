"""Per-layer tracing for the slicekit benchmark, from outside the package.

Every public function of the traced modules is replaced by a timing
wrapper.  slicekit modules bind each other's functions with
``from .x import f``, so a function is reachable under several names; the
wrapper is installed at every module attribute that holds the original
function object, and ``remove`` puts every original back.

Spans nest through a stack: a wrapper's self time is its duration minus
the durations of the wrapped calls made inside it.  Observers record size
counters from return values; the time they take is charged to no span.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
from time import perf_counter

LAYERS = (
    "instance",
    "lattice",
    "graphs",
    "spectral",
    "counting",
    "analysis",
    "oracle",
    "report",
    "cli",
)


class Stat:
    __slots__ = ("calls", "total", "self_time")

    def __init__(self) -> None:
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0


class Tracer:
    """Install with ``with Tracer() as tracer:``; read ``stats`` and
    ``counters`` afterwards, or ``snapshot()`` between ops."""

    def __init__(self, observers=None) -> None:
        self.stats: dict[str, Stat] = {}
        self.counters: dict[str, float] = {}
        self._observers = observers or {}
        self._stack: list[float] = []
        self._patched: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.remove()

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer already installed")
        wrappers = {}
        for layer in LAYERS:
            module = importlib.import_module(f"slicekit.{layer}")
            for attr, obj in vars(module).items():
                if (
                    inspect.isfunction(obj)
                    and obj.__module__ == module.__name__
                    and not attr.startswith("_")
                ):
                    wrappers[id(obj)] = self._wrap(f"{layer}.{obj.__name__}", obj)
        for module in _slicekit_modules():
            for attr, obj in list(vars(module).items()):
                wrapper = wrappers.get(id(obj))
                if wrapper is not None:
                    setattr(module, attr, wrapper)
                    self._patched.append((module, attr, obj))

    def remove(self) -> None:
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    def _wrap(self, key: str, fn):
        stat = self.stats.setdefault(key, Stat())
        stack = self._stack
        observe = self._observers.get(key)
        counters = self.counters

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack.append(0.0)
            start = perf_counter()
            end = None
            try:
                result = fn(*args, **kwargs)
                end = perf_counter()
                if observe is not None:
                    observe(counters, result)
                return result
            finally:
                stop = perf_counter()
                elapsed = (stop if end is None else end) - start
                stat.calls += 1
                stat.total += elapsed
                stat.self_time += elapsed - stack.pop()
                if stack:
                    stack[-1] += stop - start

        wrapper.bench_trace_key = key
        return wrapper

    def snapshot(self) -> dict[str, int]:
        """Call counts so far, for per-op differences."""
        return {key: s.calls for key, s in self.stats.items()}

    def dump(self) -> dict:
        return {
            "stats": {k: [s.calls, s.total, s.self_time] for k, s in self.stats.items()},
            "counters": dict(self.counters),
        }

    def absorb(self, dump: dict) -> None:
        """Add the stats of a tracer that ran in another process."""
        for key, (calls, total, self_time) in dump["stats"].items():
            stat = self.stats.setdefault(key, Stat())
            stat.calls += calls
            stat.total += total
            stat.self_time += self_time
        for key, value in dump["counters"].items():
            merge = max if key.startswith("peak_") else float.__add__
            self.counters[key] = merge(float(self.counters.get(key, 0.0)), float(value))

    def reset(self) -> None:
        for stat in self.stats.values():
            stat.calls, stat.total, stat.self_time = 0, 0.0, 0.0
        self.counters.clear()


def _slicekit_modules() -> list:
    return [
        module
        for name, module in list(sys.modules.items())
        if module is not None and (name == "slicekit" or name.startswith("slicekit."))
    ]


def installed_wrappers() -> list[str]:
    """``module.attr`` of every slicekit attribute that still holds a
    tracer wrapper; empty once every tracer has been removed."""
    return sorted(
        f"{module.__name__}.{attr}"
        for module in _slicekit_modules()
        for attr, obj in vars(module).items()
        if hasattr(obj, "bench_trace_key")
    )
