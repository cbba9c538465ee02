"""Per-layer tracing for the benchmark, done entirely from outside the program.

The tracer wraps module attributes of `visback` that the program looks up at
call time (`network._run_batch`, `tc.conv2d`, `harness.shift_class`, ...).
A wrapped function opens a span on entry and closes it on exit; spans nest on
one stack because the benchmark runs single-threaded (`VISBACK_THREADS` is
refused). A span's self time is its duration minus the time of its child
spans. Counter hooks only count calls, keyed by every enclosing span name, so
"calls per forward" is measured where the work happens.

Hooks are installed only while `Tracer.active()` is entered and the original
attributes are restored on exit, so untraced code runs unpatched. A hook whose
target no longer exists is recorded as missing instead of failing the run.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import sys
import time
from array import array
from collections import Counter, defaultdict
from dataclasses import dataclass
from typing import Callable, Optional


@dataclass(frozen=True)
class Hook:
    name: str                      # metric prefix, e.g. "network.forward"
    module: str                    # visback submodule, e.g. "network"
    attr: str                      # attribute path in that module, e.g. "FrameDataset.save"
    count_only: bool = False       # count calls instead of opening a span
    label: Optional[Callable] = None    # args -> name suffix, e.g. "toy.conv1"
    observe: Optional[Callable] = None  # (tracer, args, result) -> None, after the span


class Tracer:
    def __init__(self, hooks):
        self.hooks = tuple(hooks)
        # One entry per span in flat arrays, which the garbage collector never
        # scans: per-span objects made collection pauses grow with the trace.
        self.names: list[str] = []
        self.name_ids: dict[str, int] = {}
        self.name_of = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.child = array("d")   # seconds covered by child spans
        self.stack: list[int] = []
        self.counts: Counter = Counter()   # (name, enclosing span name or None) -> calls
        self.failed: Counter = Counter()   # name -> calls that raised
        self.bags: dict = defaultdict(set)  # free-form per-span sets filled by observers
        self.missing: set[str] = set()
        self.enabled = True
        self._undo: list[tuple[object, str, object]] = []

    # --- installation ---------------------------------------------------

    @contextlib.contextmanager
    def active(self):
        """Install every hook, trace what runs inside, then restore the originals."""
        for hook in self.hooks:
            self._install(hook)
        try:
            yield self
        finally:
            for owner, name, original in reversed(self._undo):
                setattr(owner, name, original)
            self._undo.clear()

    @contextlib.contextmanager
    def paused(self):
        """Let the program run through the hooks without recording (for output checks)."""
        self.enabled = False
        try:
            yield
        finally:
            self.enabled = True

    def _install(self, hook: Hook) -> None:
        try:
            owner = importlib.import_module(f"visback.{hook.module}")
            *path, name = hook.attr.split(".")
            for part in path:
                owner = getattr(owner, part)
        except (ImportError, AttributeError):
            self.missing.add(hook.name)
            return
        raw = vars(owner).get(name)
        if raw is None:
            self.missing.add(hook.name)
            return
        if isinstance(raw, classmethod):
            self._set(owner, name, classmethod(self._wrap(hook, raw.__func__)))
            return
        wrapped = self._wrap(hook, raw)
        self._set(owner, name, wrapped)
        # `from .x import f` copies the binding; rebind f wherever it was imported.
        for mod_name, mod in list(sys.modules.items()):
            if not mod_name.startswith("visback") or mod is owner:
                continue
            for key, value in list(vars(mod).items()):
                if value is raw:
                    self._set(mod, key, wrapped)

    def _set(self, owner, name, value) -> None:
        self._undo.append((owner, name, vars(owner)[name]))
        setattr(owner, name, value)

    def _wrap(self, hook: Hook, func):
        tracer = self

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return func(*args, **kwargs)
            name = hook.name
            if hook.label is not None:
                name = f"{name}.{hook.label(args)}"
            if hook.count_only:
                tracer._count(name)
                return func(*args, **kwargs)
            idx = tracer._open(name)
            ok = False
            try:
                result = func(*args, **kwargs)
                ok = True
            finally:
                tracer._close(idx, ok)
            if hook.observe is not None:
                t0 = time.perf_counter()
                hook.observe(tracer, args, result)
                tracer.exclude(time.perf_counter() - t0)
            return result

        return wrapper

    # --- span bookkeeping -------------------------------------------------

    def _open(self, name: str) -> int:
        name_id = self.name_ids.get(name)
        if name_id is None:
            name_id = self.name_ids[name] = len(self.names)
            self.names.append(name)
        self.name_of.append(name_id)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.child.append(0.0)
        self.end.append(0.0)
        idx = len(self.start)
        self.stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int, ok: bool) -> None:
        end = self.end[idx] = time.perf_counter()
        self.stack.pop()
        parent = self.parent[idx]
        if parent >= 0:
            self.child[parent] += end - self.start[idx]
        if not ok:
            self.failed[self.names[self.name_of[idx]]] += 1

    def exclude(self, seconds: float) -> None:
        """Book non-program work done inside the open span as child time, off its self time."""
        if self.stack:
            self.child[self.stack[-1]] += seconds

    def _count(self, name: str) -> None:
        self.counts[(name, None)] += 1
        for enclosing in {self.name_of[i] for i in self.stack}:
            self.counts[(name, self.names[enclosing])] += 1

    def current_span(self) -> int:
        return self.stack[-1] if self.stack else -1

    # --- results ------------------------------------------------------------

    def summary(self) -> dict[str, dict]:
        """Per span name: calls, failed calls and total self seconds."""
        out = {name: {"calls": 0, "failed": self.failed.get(name, 0), "self_s": 0.0} for name in self.names}
        for i, name_id in enumerate(self.name_of):
            row = out[self.names[name_id]]
            row["calls"] += 1
            row["self_s"] += (self.end[i] - self.start[i]) - self.child[i]
        return out

    def children_named(self, parent_name: str, child_name: str) -> int:
        """Spans called child_name whose direct parent is called parent_name."""
        parent_id = self.name_ids.get(parent_name)
        child_id = self.name_ids.get(child_name)
        return sum(
            1 for i, name_id in enumerate(self.name_of)
            if name_id == child_id and self.parent[i] >= 0 and self.name_of[self.parent[i]] == parent_id
        )

    def write_spans(self, path) -> None:
        if not self.start:
            return
        t0 = self.start[0]
        with open(path, "w", encoding="utf-8") as fh:
            for i, name_id in enumerate(self.name_of):
                fh.write(json.dumps({"id": i, "name": self.names[name_id], "parent": self.parent[i],
                                     "start_s": self.start[i] - t0, "end_s": self.end[i] - t0}) + "\n")
