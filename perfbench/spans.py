"""Outside-in span tracing for the benchmark's traced run.

The tracer wraps public functions and methods of the program from the
benchmark's own code: nothing under ``src/`` knows it is being traced.  Each
call through a wrapper records one span ``[name, start, end, parent,
request]`` in memory, where ``parent`` is the index of the enclosing span on
the same thread (-1 for a root) and ``request`` is the index of the root span
the call belongs to, so every span of one flow run or one serve request
shares an identifier.  Counters ride the same wrappers.

A module-level function is patched at every import site: each loaded
``repro`` module whose namespace holds the original object gets the
wrapper, so ``from repro.evaluation.metrics import evaluate_tree`` in three
modules means three patched names.  :meth:`Tracer.restore` puts every
original back, including names that a module imported lazily while the
patch was live.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import threading
import time
from collections import Counter
from typing import Any, Callable

#: Span record fields (a list per span keeps the hot path cheap).
NAME, START, END, PARENT, REQUEST = range(5)

OnResult = Callable[["Tracer", tuple, dict, Any], None]


def _program_modules() -> list:
    return [
        module
        for name, module in list(sys.modules.items())
        if module is not None and (name == "repro" or name.startswith("repro."))
    ]


class _CountingAttribute:
    """Class-level data descriptor that tallies increments of an attribute.

    Reads and writes still go to the instance ``__dict__``, so instances
    behave exactly as before; every write that raises the value adds the
    increase to a tracer counter.  This reads an engine's telemetry counters
    (``full_compiles`` and the like) wherever and whenever they move.
    """

    def __init__(self, tracer: "Tracer", attr: str, counter: str) -> None:
        self.tracer = tracer
        self.attr = attr
        self.counter = counter

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        try:
            return obj.__dict__[self.attr]
        except KeyError:
            raise AttributeError(self.attr) from None

    def __set__(self, obj, value) -> None:
        previous = obj.__dict__.get(self.attr, 0)
        obj.__dict__[self.attr] = value
        if value > previous:
            self.tracer.count(self.counter, value - previous)


class Tracer:
    """Records spans and counters through wrappers it installs and removes."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        #: Targets that could not be patched (renamed or removed upstream).
        self.missing: list[str] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches: list[tuple[Any, str, Any, bool]] = []
        self._wrappers: dict[int, tuple[Any, Any]] = {}

    # ------------------------------------------------------------ recording
    def enter(self, name: str) -> int:
        stack = self._local.__dict__.setdefault("stack", [])
        parent = stack[-1] if stack else -1
        with self._lock:
            index = len(self.spans)
            request = self.spans[parent][REQUEST] if parent >= 0 else index
            self.spans.append([name, time.perf_counter(), 0.0, parent, request])
        stack.append(index)
        return index

    def exit(self, index: int) -> None:
        self.spans[index][END] = time.perf_counter()
        self._local.stack.pop()

    def count(self, name: str, amount: int = 1) -> None:
        self.counts[name] += amount

    def wrap(
        self,
        fn: Callable,
        span: str | None,
        on_result: OnResult | None = None,
    ) -> Callable:
        """``fn`` recording a ``span`` span (``None``: counters only)."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if span is None:
                result = fn(*args, **kwargs)
            else:
                index = tracer.enter(span)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    tracer.exit(index)
            if on_result is not None:
                on_result(tracer, args, kwargs, result)
            return result

        self._wrappers[id(wrapper)] = (wrapper, fn)
        return wrapper

    # ------------------------------------------------------------- patching
    def patch(
        self,
        module: str,
        qualname: str,
        span: str | None,
        on_result: OnResult | None = None,
    ) -> bool:
        """Wrap ``module.qualname`` (a function or a ``Class.method``).

        Returns False, and records the target in :attr:`missing`, when the
        target no longer exists, so a later refactor of the program degrades
        the trace instead of breaking the benchmark.
        """
        target = f"{module}.{qualname}"
        try:
            owner = importlib.import_module(module)
            *path, attr = qualname.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = owner.__dict__[attr] if path else getattr(owner, attr)
        except (ImportError, AttributeError, KeyError):
            self.missing.append(target)
            return False
        if not inspect.isfunction(original):
            self.missing.append(target)
            return False
        wrapper = self.wrap(original, span, on_result)
        if path:
            self._set(owner, attr, wrapper, original)
            return True
        for mod in _program_modules():
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, key, wrapper, original)
        return True

    def count_attribute(self, module: str, qualname: str, counter: str) -> bool:
        """Tally increments of the instance attribute ``Class.attr``."""
        try:
            cls_name, attr = qualname.split(".")
            cls = getattr(importlib.import_module(module), cls_name)
        except (ImportError, AttributeError, ValueError):
            self.missing.append(f"{module}.{qualname}")
            return False
        if "__slots__" in cls.__dict__ or attr in cls.__dict__:
            self.missing.append(f"{module}.{qualname}")
            return False
        self._patches.append((cls, attr, None, False))
        setattr(cls, attr, _CountingAttribute(self, attr, counter))
        return True

    def _set(self, owner: Any, attr: str, wrapper: Any, original: Any) -> None:
        self._patches.append((owner, attr, original, True))
        setattr(owner, attr, wrapper)

    def restore(self) -> None:
        """Put back every original the tracer replaced."""
        for owner, attr, original, had in reversed(self._patches):
            if had:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
        self._patches.clear()
        # Modules imported while the patch was live may hold a wrapper.
        for mod in _program_modules():
            for key, value in list(vars(mod).items()):
                if self._is_wrapper(value):
                    setattr(mod, key, self._wrappers[id(value)][1])

    def _is_wrapper(self, value: Any) -> bool:
        entry = self._wrappers.get(id(value))
        return entry is not None and entry[0] is value

    def installed_wrappers(self) -> list[str]:
        """Program names still bound to one of this tracer's wrappers or
        counting attributes (empty after :meth:`restore`)."""
        found = []
        for mod in _program_modules():
            for key, value in list(vars(mod).items()):
                if self._is_wrapper(value):
                    found.append(f"{mod.__name__}.{key}")
                if isinstance(value, type) and value.__module__ == mod.__name__:
                    for attr, member in vars(value).items():
                        if isinstance(member, _CountingAttribute) or self._is_wrapper(
                            member
                        ):
                            found.append(f"{mod.__name__}.{key}.{attr}")
        return found


def summarize(spans: list[list]) -> dict[str, dict[str, float]]:
    """Per span name: ``total`` time, ``self`` time and ``calls``.

    A span's self time is its duration minus the durations of its direct
    children (children of one span run on its thread, so they never
    overlap).  ``total`` counts only outermost spans of a name, so a name
    that nests within itself is not counted twice.
    """
    child_time = [0.0] * len(spans)
    for span in spans:
        if span[PARENT] >= 0:
            child_time[span[PARENT]] += span[END] - span[START]
    out: dict[str, dict[str, float]] = {}
    for index, span in enumerate(spans):
        entry = out.setdefault(span[NAME], {"total": 0.0, "self": 0.0, "calls": 0})
        duration = span[END] - span[START]
        entry["self"] += duration - child_time[index]
        entry["calls"] += 1
        parent = span[PARENT]
        nested = False
        while parent >= 0:
            if spans[parent][NAME] == span[NAME]:
                nested = True
                break
            parent = spans[parent][PARENT]
        if not nested:
            entry["total"] += duration
    return out


def root_time(spans: list[list]) -> float:
    """Summed duration of root spans: the time the spans account for."""
    return sum(s[END] - s[START] for s in spans if s[PARENT] < 0)
