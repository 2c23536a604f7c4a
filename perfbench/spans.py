"""In-memory span recorder for the traced run.

Spans are recorded from the benchmark's own code: around its calls into
the program, and by wrapping public functions and methods for the
duration of the traced phase only.  Each span has a name, start, end
(``time.perf_counter`` seconds), a lane (the recording thread, or for
the stage spans of one serve request, that request's own lane), optional
attributes (a serve request's id, a batch size, ...) and, once
:meth:`Tracer.link` has run, the index of its parent: the innermost span
of the same lane whose interval contains it.  Names starting with
``bench.`` group the benchmark's own work; every other name is a layer
of the program.
"""

from __future__ import annotations

import functools
import inspect
import json
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional


@dataclass
class Span:
    name: str
    start: float
    end: float
    lane: int
    attrs: dict = field(default_factory=dict)
    parent: Optional[int] = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._lock = threading.Lock()
        self._patches: list[tuple[object, str, object]] = []

    def record(self, name: str, start: float, end: float, lane=None, **attrs) -> None:
        lane = threading.get_ident() if lane is None else lane
        span = Span(name, start, end, lane, attrs)
        with self._lock:
            self.spans.append(span)

    @contextmanager
    def span(self, name: str, **attrs):
        start = time.perf_counter()
        try:
            yield
        finally:
            self.record(name, start, time.perf_counter(), **attrs)

    def timed(self, fn, name: str):
        """``fn`` wrapped so that every call records a span."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.record(name, start, time.perf_counter())

        return wrapper

    def wrap(self, owner, attr: str, name: str) -> None:
        """Replace ``owner.attr`` by a timed version until :meth:`restore`."""
        static = inspect.getattr_static(owner, attr)
        if isinstance(static, (classmethod, staticmethod)):
            self.patch(owner, attr, staticmethod(self.timed(getattr(owner, attr), name)))
        else:
            self.patch(owner, attr, self.timed(static, name))

    def patch(self, owner, attr: str, replacement) -> None:
        """Set ``owner.attr`` to ``replacement`` until :meth:`restore`."""
        self._patches.append((owner, attr, inspect.getattr_static(owner, attr)))
        setattr(owner, attr, replacement)

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- analysis ------------------------------------------------------------
    def link(self) -> None:
        """Set each span's parent: the innermost enclosing span of its lane."""
        order = sorted(
            range(len(self.spans)),
            key=lambda i: (self.spans[i].lane, self.spans[i].start, -self.spans[i].end),
        )
        stack: list[int] = []
        lane = None
        for i in order:
            span = self.spans[i]
            if span.lane != lane:
                stack, lane = [], span.lane
            while stack and self.spans[stack[-1]].end < span.end:
                stack.pop()
            span.parent = stack[-1] if stack else None
            stack.append(i)

    def self_times(self) -> list[float]:
        """Each span's duration minus the part its child spans cover."""
        self.link()
        own = [span.duration for span in self.spans]
        for span in self.spans:
            if span.parent is not None:
                own[span.parent] -= span.duration
        return own

    def unaccounted_share(self, root: str = "bench.measure") -> float:
        """Share of the root span's wall time not inside any program layer.

        Wall time minus the summed self times of the layer spans (every
        span not named ``bench.*``) under the root, over the wall time.
        """
        own = self.self_times()
        roots = [i for i, s in enumerate(self.spans) if s.name == root]
        wall = sum(self.spans[i].duration for i in roots)
        if not wall:
            return 0.0
        covered = 0.0
        for i, span in enumerate(self.spans):
            if span.name.startswith("bench."):
                continue
            j = span.parent
            while j is not None and self.spans[j].name != root:
                j = self.spans[j].parent
            if j is not None:
                covered += own[i]
        return (wall - covered) / wall

    def durations(self, name: str) -> list[float]:
        return [s.duration for s in self.spans if s.name == name]

    def write(self, path: Path) -> None:
        """Write the spans as JSON lines (times relative to the first span)."""
        self.link()
        t0 = min((s.start for s in self.spans), default=0.0)
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as out:
            for i, s in enumerate(self.spans):
                row = {
                    "id": i,
                    "name": s.name,
                    "start_us": round((s.start - t0) * 1e6, 1),
                    "end_us": round((s.end - t0) * 1e6, 1),
                    "parent": s.parent,
                    "lane": s.lane,
                }
                row.update(s.attrs)
                out.write(json.dumps(row) + "\n")
