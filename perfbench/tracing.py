"""Stdlib span and counter recorder that wraps public functions at their
call sites and puts the original objects back afterwards.

A span is (name, phase, start, end, parent, unit): `parent` is the index of
the enclosing span and `unit` the index of the nearest enclosing span whose
name is in `unit_names` (an episode, an optimizer step, a learner step).
Counters are kept per (name, unit). Everything stays in memory until
`dump` writes it out.

Each thread keeps its own stack of open spans. A thread whose stack is
empty while a unit is open (a worker that `run_jobs` starts inside an
episode) continues the stack of the thread that opened the unit, so its
spans get the unit and the span that waits for them as parent. Units do
not run concurrently with each other.
"""

from __future__ import annotations

import json
import threading
import time
from collections import defaultdict


class Recorder:
    def __init__(self, unit_names=()):
        self.unit_names = frozenset(unit_names)
        self.phase = ""
        self.spans: list = []
        self.counts: defaultdict = defaultdict(int)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._units: list = []  # (index, stack of the opening thread) of open units
        self._patched: list = []

    # -- recording ----------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _parent(self, stack: list) -> int:
        if stack:
            return stack[-1]
        if self._units:  # the opening thread's stack holds at least the unit
            return self._units[-1][1][-1]
        return -1

    def current_unit(self) -> int:
        parent = self._parent(self._stack())
        return self.spans[parent][5] if parent >= 0 else -1

    def open(self, name: str) -> int:
        stack = self._stack()
        with self._lock:
            parent = self._parent(stack)
            idx = len(self.spans)
            unit = idx if name in self.unit_names else (
                self.spans[parent][5] if parent >= 0 else -1)
            self.spans.append([name, self.phase, time.perf_counter(), None, parent, unit])
            if unit == idx:
                self._units.append((idx, stack))
        stack.append(idx)
        return idx

    def close(self, idx: int):
        self.spans[idx][3] = time.perf_counter()
        self._stack().pop()
        if self._units and self._units[-1][0] == idx:
            with self._lock:
                self._units.pop()

    def count(self, name: str):
        with self._lock:
            self.counts[(name, self.current_unit())] += 1

    def span(self, name: str, fn):
        """Run `fn()` inside a span called `name`; returns its result."""
        idx = self.open(name)
        try:
            return fn()
        finally:
            self.close(idx)

    # -- patching -------------------------------------------------------------

    def wrap(self, owner, attr: str, name, count_only: bool = False):
        """Replace `owner.attr` by a recording wrapper.

        `name` is a span name, or a function of the call's arguments that
        returns one. With `count_only` the wrapper only bumps a counter
        named `name` (cheap enough for per-node calls).
        """
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)

        if count_only:
            def wrapper(*args, **kwargs):
                self.count(name)
                return original(*args, **kwargs)
        else:
            def wrapper(*args, **kwargs):
                idx = self.open(name(*args, **kwargs) if callable(name) else name)
                try:
                    return original(*args, **kwargs)
                finally:
                    self.close(idx)

        wrapper.__wrapped__ = original
        setattr(owner, attr, wrapper)
        self._patched.append((owner, attr, original))

    def restore(self):
        """Put back every wrapped object, newest first."""
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.restore()

    # -- analysis -------------------------------------------------------------

    def self_times(self) -> list:
        """Per span: its duration minus the time covered by its direct
        children. Children on other threads may overlap, so the covered
        time is the length of the union of their intervals."""
        children: list = [[] for _ in self.spans]
        for _, _, t0, t1, parent, _ in self.spans:
            if parent >= 0:
                children[parent].append((t0, t1))
        out = []
        for s, intervals in zip(self.spans, children):
            covered, end = 0.0, float("-inf")
            for t0, t1 in sorted(intervals):
                if t1 > end:
                    covered += t1 - max(t0, end)
                    end = t1
            out.append(s[3] - s[2] - covered)
        return out

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump({
                "fields": ["name", "phase", "start", "end", "parent", "unit"],
                "spans": self.spans,
                "counts": [[name, unit, n] for (name, unit), n in self.counts.items()],
            }, fh)
