"""Span tracing of the t2vad package from outside it.

Public functions and methods are wrapped at runtime; nothing under `src/`
is edited. A function is replaced in every loaded `t2vad.*` module that
binds it, so a name imported with `from .x import f` is traced where it
is looked up, not only where it is defined. A method is replaced on its
class. A target that no longer exists is recorded in `missing` and the
run goes on without it.

Each span records its name, start, end, parent span and run id (one run
id per set-up repetition or timed iteration). Spans stay in memory and
are written out once, when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import statistics
import sys
import time
from collections import defaultdict


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []       # (id, name, start, end, parent, run)
        self.counters: dict = defaultdict(float)   # (run, name) -> value
        self.missing: list[str] = []
        self.run: str | None = None
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    # -- recording ---------------------------------------------------------

    def open(self, name: str) -> tuple:
        parent = self._stack[-1] if self._stack else None
        sid = len(self.spans) + len(self._stack)
        self._stack.append(sid)
        return (sid, name, time.perf_counter(), parent)

    def close(self, token: tuple) -> None:
        end = time.perf_counter()
        self._stack.pop()
        sid, name, start, parent = token
        self.spans.append((sid, name, start, end, parent, self.run))

    def note_missing(self, what: str) -> None:
        if what not in self.missing:
            self.missing.append(what)

    def count(self, name: str, value: float) -> None:
        self.counters[(self.run, name)] += value

    def call(self, name: str, fn, *args, **kwargs):
        token = self.open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.close(token)

    # -- installing wrappers ----------------------------------------------

    def wrap(self, fn, name, after=None):
        """`name` is a span name or a function of the call's args giving one;
        `after(args, result)` returns counters to add once the call returns."""
        tracer = self
        fallback = f"{fn.__module__}.{fn.__qualname__}"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = name
            if not isinstance(name, str):
                try:
                    span = name(args)
                except Exception:       # the call's arguments changed shape
                    span = fallback
                    tracer.note_missing(f"span name of {fallback}")
            token = tracer.open(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(token)
            if after is not None:
                try:
                    counters = after(args, result)
                except Exception:       # the result or arguments changed shape
                    tracer.note_missing(f"counters of {fallback}")
                else:
                    for key, value in counters.items():
                        tracer.count(key, value)
            return result

        return traced

    def install(self, targets) -> None:
        for spec, name, after in targets:
            module_name, _, attr = spec.partition(":")
            try:
                owner = importlib.import_module(module_name)
                *path, leaf = attr.split(".")
                for part in path:
                    owner = getattr(owner, part)
                original = getattr(owner, leaf)
            except (ImportError, AttributeError):
                self.note_missing(spec)
                continue
            wrapper = self.wrap(original, name, after)
            if path:        # a method: patch the class attribute
                self._undo.append((owner, leaf, owner.__dict__.get(leaf)))
                setattr(owner, leaf, wrapper)
                continue
            for module in _package_modules(module_name.split(".")[0]):
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._undo.append((module, key, original))
                        setattr(module, key, wrapper)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._undo):
            if original is None:
                delattr(owner, key)
            else:
                setattr(owner, key, original)
        self._undo.clear()

    # -- analysis ----------------------------------------------------------

    def self_times(self) -> dict:
        """span id -> duration minus the time its direct children cover."""
        child_time: dict = defaultdict(float)
        for _, _, start, end, parent, _ in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        return {sid: (end - start) - child_time[sid]
                for sid, _, start, end, _, _ in self.spans}

    def per_run(self) -> dict:
        """run id -> {name_s: self time, name.calls: count, ...} plus counters."""
        selfs = self.self_times()
        out: dict = defaultdict(lambda: defaultdict(float))
        for sid, name, start, end, parent, run in self.spans:
            row = out[run]
            row[f"{name}_s"] += selfs[sid]
            row[f"{name}.calls"] += 1
            row[f"{name}.total_s"] += end - start
            if parent is None:
                row["trace.top_level_s"] += end - start
        for (run, name), value in self.counters.items():
            out[run][name] += value
        return out

    def count_nested(self, name: str, ancestor_prefix: str) -> dict:
        """run id -> number of `name` spans with an ancestor whose name
        starts with `ancestor_prefix`."""
        by_id = {s[0]: s for s in self.spans}
        out: dict = defaultdict(float)
        for _, span_name, _, _, parent, run in self.spans:
            if span_name != name:
                continue
            while parent is not None and parent in by_id:
                if by_id[parent][1].startswith(ancestor_prefix):
                    out[run] += 1
                    break
                parent = by_id[parent][4]
        return out

    def write(self, path: str, t0: float) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as fh:
            for sid, name, start, end, parent, run in sorted(self.spans):
                fh.write(json.dumps({"id": sid, "name": name, "start": start - t0,
                                     "end": end - t0, "parent": parent,
                                     "run": run}) + "\n")


def _package_modules(package: str):
    return [m for n, m in list(sys.modules.items())
            if m is not None and (n == package or n.startswith(package + "."))]


def span_cost_s(samples: int = 20000) -> float:
    """Median added cost of one traced call, from a wrapped no-op."""
    def noop():
        return None

    tracer = Tracer()
    traced = tracer.wrap(noop, "noop")
    costs = []
    for _ in range(5):
        start = time.perf_counter()
        for _ in range(samples):
            noop()
        plain = time.perf_counter() - start
        start = time.perf_counter()
        for _ in range(samples):
            traced()
        costs.append((time.perf_counter() - start - plain) / samples)
        tracer.spans.clear()
    return max(statistics.median(costs), 0.0)
