"""Span tracing of the ftnlab layers from outside the library.

`Tracer.install` replaces every public function of the ftnlab modules with a
wrapper that records a span, both where the function is defined and wherever
another module imported it by name (``modem`` does
``from .transforms import make_plan``, so ``modem.make_plan`` is wrapped as
``transforms.make_plan`` too).  `Tracer.uninstall` puts the originals back,
so traced and untraced reps can alternate in one process.

A span is (id, name, start, end, parent id, rep id, thread id).  The parent
is the innermost open span on the same thread; spans started on a pool
thread have no parent, so the caller's span keeps the time it waits for the
pool as self time.  Spans stay in memory until `write`.
"""

import inspect
import itertools
import json
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass


@dataclass(frozen=True)
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: object  # span id or None
    rep: int
    thread: int

    @property
    def duration(self):
        return self.end - self.start


def _public_functions():
    """(module, attribute, function, span name) for every public ftnlab
    function reachable as a module attribute, under its defining module's name."""
    found = []
    for mod_name, module in list(sys.modules.items()):
        if module is None or not (mod_name == "ftnlab" or mod_name.startswith("ftnlab.")):
            continue
        for attr, value in vars(module).items():
            if attr.startswith("_") or not inspect.isfunction(value):
                continue
            home = value.__module__ or ""
            if not home.startswith("ftnlab."):
                continue
            found.append((module, attr, value, f"{home[len('ftnlab.'):]}.{value.__name__}"))
    return found


class Tracer:
    def __init__(self):
        self.spans = []
        self.rep = -1
        self._ids = itertools.count()
        self._local = threading.local()
        self._installed = []

    def _wrap(self, fn, name):
        tracer = self

        def wrapper(*args, **kwargs):
            stack = getattr(tracer._local, "stack", None)
            if stack is None:
                stack = tracer._local.stack = []
            span_id = next(tracer._ids)
            parent = stack[-1] if stack else None
            rep = tracer.rep
            stack.append(span_id)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                tracer.spans.append(
                    Span(span_id, name, start, end, parent, rep, threading.get_ident())
                )

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self):
        if self._installed:
            return
        wrappers = {}
        for module, attr, fn, name in _public_functions():
            if fn not in wrappers:
                wrappers[fn] = self._wrap(fn, name)
            setattr(module, attr, wrappers[fn])
            self._installed.append((module, attr, fn))

    def uninstall(self):
        for module, attr, fn in self._installed:
            setattr(module, attr, fn)
        self._installed = []

    def write(self, path):
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps(s.__dict__) + "\n")


def self_times(spans):
    """Self time of each span: its duration minus that of its child spans.

    Children of one span run on its thread, one after another, so their
    durations do not overlap and their sum is the time they cover.
    """
    child_time = defaultdict(float)
    for s in spans:
        if s.parent is not None:
            child_time[s.parent] += s.duration
    return {s.id: s.duration - child_time[s.id] for s in spans}


def by_rep(spans):
    reps = defaultdict(list)
    for s in spans:
        reps[s.rep].append(s)
    return reps


def rep_layer_stats(spans, root="berlab.run_ber_sweep"):
    """Per-rep aggregates of one rep's spans.

    Returns (self seconds by name, calls by name, rep wall seconds, busy
    seconds), where busy time is the time covered by the spans directly
    under the root on its thread plus the top-level spans of pool threads.
    """
    selfs = self_times(spans)
    self_by_name = defaultdict(float)
    calls = defaultdict(int)
    roots = {s.id for s in spans if s.name == root and s.parent is None}
    wall = sum(s.duration for s in spans if s.id in roots)
    busy = 0.0
    for s in spans:
        self_by_name[s.name] += selfs[s.id]
        calls[s.name] += 1
        if s.id not in roots and (s.parent is None or s.parent in roots):
            busy += s.duration
    return self_by_name, calls, wall, busy
