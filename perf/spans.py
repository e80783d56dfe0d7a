"""In-memory spans around public callables, installed from outside.

The benchmark measures the layers of ``repro`` without editing them:
:func:`install` swaps each target callable for a wrapper that records a
span (target, start, end, parent span, trace id) into a
:class:`Recorder`, and :func:`uninstall` puts the originals back.  A
layer's **self time** is its spans' duration minus the part covered by
their child spans, so nested targets never count the same second twice.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable


@dataclass(frozen=True)
class Target:
    """One public callable to wrap.

    ``owner`` is ``"package.module"`` for a module-level function or
    ``"package.module:Class"`` for a method (wrapped on the class and on
    every subclass that overrides it).  ``bucket`` names the per-layer
    self-time sum the span feeds.  ``before(recorder, args, kwargs)`` runs
    ahead of the span (trace-id bookkeeping); ``after(counters, args,
    kwargs, result)`` runs once the call returned (work counts).
    """

    owner: str
    attr: str
    bucket: str
    before: Callable | None = None
    after: Callable | None = None

    @property
    def name(self) -> str:
        return f"{self.owner.replace(':', '.')}.{self.attr}"

    @property
    def layer(self) -> str:
        """Package under ``repro`` the callable lives in."""
        return self.owner.split(".")[1]


#: Span record layout (a list, so the end time can be filled in place).
TARGET, START, END, PARENT, TRACE_ID = range(5)


class Recorder:
    """Span store for one traced run; single-threaded by design."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        #: Work counts of the root span now open, and of every root by name.
        self.counters: dict[str, float] = {}
        self.root_counters: dict[str, dict] = {}
        #: Identifier shared by the spans of one request: ``(epoch, step)``
        #: while training, the window index while serving.
        self.trace_id = None
        self._stack: list[int] = []

    def wrap(self, fn: Callable, target: Target) -> Callable:
        """``fn`` with a span around every call; returns and raises as-is."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        before, after = target.before, target.after

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(self, args, kwargs)
            span = [target, 0.0, 0.0, stack[-1] if stack else -1,
                    self.trace_id]
            stack.append(len(spans))
            spans.append(span)
            span[START] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()
            if after is not None:
                after(self.counters, args, kwargs, result)
            return result

        return wrapper

    @contextmanager
    def root(self, name: str):
        """A top-level span opened by the benchmark itself; work counted
        while it is open is kept apart under its name."""
        self.counters = self.root_counters.setdefault(name, {})
        span = [Target("perf.bench", name, f"root.{name}"),
                time.perf_counter(), 0.0, -1, None]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        try:
            yield
        finally:
            span[END] = time.perf_counter()
            self._stack.pop()

    def self_times(self) -> list[float]:
        """Per span: duration minus the time its direct children cover."""
        out = [s[END] - s[START] for s in self.spans]
        for span in self.spans:
            if span[PARENT] >= 0:
                out[span[PARENT]] -= span[END] - span[START]
        return out

    def roots(self) -> list[int]:
        """Per span: index of the top-level span it descends from."""
        out: list[int] = []
        for i, span in enumerate(self.spans):
            out.append(i if span[PARENT] < 0 else out[span[PARENT]])
        return out

    def write_chrome_trace(self, path) -> None:
        """Dump every span as a Chrome-trace complete event (``ph: X``)."""
        origin = self.spans[0][START] if self.spans else 0.0
        events = [{
            "name": s[TARGET].name, "cat": s[TARGET].layer, "ph": "X",
            "pid": 1, "tid": 1,
            "ts": (s[START] - origin) * 1e6,
            "dur": (s[END] - s[START]) * 1e6,
            "args": {"id": i, "parent": s[PARENT], "trace_id": s[TRACE_ID]},
        } for i, s in enumerate(self.spans)]
        with open(path, "w") as fh:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, fh)


def _subclasses(cls) -> list[type]:
    out = [cls]
    for sub in cls.__subclasses__():
        out.extend(_subclasses(sub))
    return out


def install(recorder: Recorder, targets) -> list[tuple]:
    """Wrap every target once and replace **every** reference to it.

    A module-level function is replaced in its defining module and in each
    already-loaded ``repro`` module that imported the name (``from x
    import f`` copies the reference, so patching ``x.f`` alone would miss
    the caller).  A method is replaced in the ``__dict__`` of the class
    and of each subclass overriding it, keeping its ``classmethod`` /
    ``staticmethod`` kind.  Returns the patch list :func:`uninstall` needs.
    """
    patches: list[tuple] = []
    for target in targets:
        module_name, _, class_name = target.owner.partition(":")
        module = importlib.import_module(module_name)
        if class_name:
            for cls in _subclasses(getattr(module, class_name)):
                raw = cls.__dict__.get(target.attr)
                if raw is None or getattr(raw, "__isabstractmethod__", False):
                    continue
                if isinstance(raw, (classmethod, staticmethod)):
                    wrapped = type(raw)(recorder.wrap(raw.__func__, target))
                else:
                    wrapped = recorder.wrap(raw, target)
                setattr(cls, target.attr, wrapped)
                patches.append((cls, target.attr, raw))
            continue
        original = getattr(module, target.attr)
        wrapped = recorder.wrap(original, target)
        for name, mod in list(sys.modules.items()):
            if mod is None or not (name == "repro"
                                   or name.startswith("repro.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapped)
                    patches.append((mod, key, original))
    return patches


def uninstall(patches: list[tuple]) -> None:
    """Restore every reference :func:`install` replaced."""
    for owner, key, original in reversed(patches):
        setattr(owner, key, original)
