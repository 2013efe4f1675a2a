"""Spans and counters recorded from outside the library by wrapping attributes.

A `Tracer` replaces module functions and class methods with thin wrappers.
A span wrapper records, per call, its name, start, end, parent span, job id
and thread id into flat arrays kept in memory; a count wrapper only bumps a
counter, for operations too fine-grained to deserve a span (one interval
multiply).  `uninstall` puts every original attribute back and reports any
attribute it could not restore.

The traced run is single-threaded (BIWIND_WORKERS=1), so a span's children
run one after another inside it and its self time is its duration minus the
sum of its children's durations.
"""

from __future__ import annotations

import functools
import threading
import time
from array import array
from collections import defaultdict
from typing import Callable

import numpy as np

# hook(counts, result, duration_s) inspects a call's return value.
Hook = Callable[[dict, object, float], None]


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self._name = array("i")
        self._start = array("d")
        self._end = array("d")
        self._parent = array("i")
        self._job = array("i")
        self._thread = array("q")
        self._local = threading.local()
        self.job = -1
        self.counts: dict[str, float] = defaultdict(float)
        self._cells: dict[str, list[int]] = {}
        self._saved: list[tuple[object, str, object]] = []

    # -- installing ------------------------------------------------------------

    def _replace(self, owner, attr: str, wrapper) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def wrap_span(self, owner, attr: str, name: str,
                  hook: Hook | None = None, new_job: bool = False) -> None:
        """Record a span named `name` around every call of owner.attr."""
        fn = owner.__dict__[attr]
        nid = self._name_ids.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)
        names, starts, ends = self._name, self._start, self._end
        parents, jobs, threads = self._parent, self._job, self._thread
        local, counts, clock, ident = self._local, self.counts, time.perf_counter, threading.get_ident
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = local.__dict__.setdefault("stack", [])
            if new_job:
                tracer.job += 1
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            jobs.append(tracer.job)
            threads.append(ident())
            ends.append(0.0)
            stack.append(idx)
            t0 = clock()
            starts.append(t0)
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                ends[idx] = t1
                stack.pop()
            if hook is not None:
                hook(counts, result, t1 - t0)
            return result

        self._replace(owner, attr, wrapper)

    def wrap_count(self, owner, attr: str, counter: str) -> None:
        """Count the calls of owner.attr under `counter` without a span."""
        fn = owner.__dict__[attr]
        cell = self._cells.setdefault(counter, [0])

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            cell[0] += 1
            return fn(*args, **kwargs)

        self._replace(owner, attr, wrapper)

    def uninstall(self) -> list[str]:
        """Restore every wrapped attribute; return those still not original."""
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        left = [
            f"{getattr(owner, '__name__', owner)}.{attr}"
            for owner, attr, original in self._saved
            if owner.__dict__.get(attr) is not original
        ]
        self._saved.clear()
        for counter, cell in self._cells.items():
            self.counts[counter] += cell[0]
            cell[0] = 0
        return left

    # -- reading -------------------------------------------------------------------

    def spans(self) -> dict[str, np.ndarray]:
        """All spans as parallel arrays, with self time derived from children."""
        name = np.frombuffer(self._name, dtype=np.int32).copy()
        start = np.frombuffer(self._start, dtype=np.float64).copy()
        end = np.frombuffer(self._end, dtype=np.float64).copy()
        parent = np.frombuffer(self._parent, dtype=np.int32).copy()
        dur = end - start
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
        return {
            "name": name,
            "start": start,
            "end": end,
            "parent": parent,
            "job": np.frombuffer(self._job, dtype=np.int32).copy(),
            "thread": np.frombuffer(self._thread, dtype=np.int64).copy(),
            "duration": dur,
            "self": dur - child,
        }

    def save(self, path: str) -> None:
        np.savez_compressed(path, names=np.array(self.names), **self.spans())


class SpanTable:
    """Per-name sums over a tracer's spans."""

    def __init__(self, tracer: Tracer) -> None:
        self._sp = tracer.spans()
        self._ids = {n: i for i, n in enumerate(tracer.names)}

    def __len__(self) -> int:
        return len(self._sp["name"])

    def _mask(self, prefix: str) -> np.ndarray:
        ids = [i for n, i in self._ids.items() if n == prefix or n.startswith(prefix + ".")]
        return np.isin(self._sp["name"], ids)

    def calls(self, prefix: str) -> int:
        return int(self._mask(prefix).sum())

    def total(self, prefix: str) -> float:
        return float(self._sp["duration"][self._mask(prefix)].sum())

    def self_time(self, prefix: str) -> float:
        return float(self._sp["self"][self._mask(prefix)].sum())

    def durations(self, prefix: str) -> np.ndarray:
        return self._sp["duration"][self._mask(prefix)]
