"""In-memory span tracer for the benchmark's traced runs.

Spans are recorded from the benchmark's own files, by wrapping calls
into each layer's functions; nothing under ``src/`` changes.  A span is
``(name, start, end, parent, id)``: ``parent`` is the span that was open
when it started (tracked per asyncio task through a context variable)
and ``id`` is the request, frame batch or cell it belongs to, inherited
from the parent unless given.

Self time follows the single-thread rule: every instant of a process's
timeline belongs to the most recently started span that covers it.
For nested calls that is the classic "duration minus children"; for
coroutines interleaved on one event loop it also excludes the time a
suspended span spent waiting while other tasks ran.  Each instant is
counted once, so the self times of a window sum to the part of the
window that any span covered, and ``wall - sum`` is the unattributed
remainder.

Work measured as a total only (generator steps, the program's own
``obs`` stage spans) enters as *leaf* time: it is moved from the span
that enclosed it to its own layer name, keeping the sum unchanged.
"""

from __future__ import annotations

import contextvars
import heapq
import inspect
import json
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

clock = perf_counter

# (span index, request id) of the span open in the current task.
_CURRENT: contextvars.ContextVar = contextvars.ContextVar(
    "perfbench_span", default=None
)


class Tracer:
    """Span recorder plus the wrappers that feed it."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.ids: list = []
        #: Leaf seconds measured inside each span, by span index.
        self.inner: dict[int, float] = defaultdict(float)
        #: Leaf seconds by layer name.
        self.leaf: dict[str, float] = defaultdict(float)
        #: Free-form per-name tallies (rows stepped, bytes encoded, ...).
        self.tally: dict[str, float] = defaultdict(float)
        self._undo: list[tuple] = []

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    @contextmanager
    def span(self, name: str, span_id=None):
        parent = _CURRENT.get()
        index = len(self.names)
        if span_id is None and parent is not None:
            span_id = parent[1]
        self.names.append(name)
        self.parents.append(-1 if parent is None else parent[0])
        self.ids.append(span_id)
        self.ends.append(0.0)
        token = _CURRENT.set((index, span_id))
        self.starts.append(clock())
        try:
            yield index
        finally:
            self.ends[index] = clock()
            _CURRENT.reset(token)

    def add_leaf(self, name: str, seconds: float) -> None:
        """Attribute ``seconds`` measured inside the open span to ``name``."""
        self.leaf[name] += seconds
        current = _CURRENT.get()
        if current is not None:
            self.inner[current[0]] += seconds

    def wrap(self, owner, attr: str, name: str, tally=None, span_id=None):
        """Replace ``owner.attr`` by a span-recording wrapper.

        ``tally(args, kwargs)`` may return a number added to
        ``self.tally[name]``; ``span_id(args, kwargs)`` names the
        request/cell the call belongs to.  Generator functions are timed
        per step as leaf time (their consumer runs between steps).
        """
        original = inspect.getattr_static(owner, attr)
        func = original.__func__ if isinstance(original, staticmethod) else original
        tracer = self

        def note(args, kwargs):
            if tally is not None:
                tracer.tally[name] += tally(args, kwargs)
            return None if span_id is None else span_id(args, kwargs)

        if inspect.iscoroutinefunction(func):

            async def wrapper(*args, **kwargs):
                with tracer.span(name, note(args, kwargs)):
                    return await func(*args, **kwargs)

        elif inspect.isgeneratorfunction(func):

            def wrapper(*args, **kwargs):
                note(args, kwargs)
                generator = func(*args, **kwargs)
                while True:
                    start = clock()
                    try:
                        item = next(generator)
                    except StopIteration:
                        tracer.add_leaf(name, clock() - start)
                        return
                    tracer.add_leaf(name, clock() - start)
                    yield item

        else:

            def wrapper(*args, **kwargs):
                with tracer.span(name, note(args, kwargs)):
                    return func(*args, **kwargs)

        wrapper.__name__ = getattr(func, "__name__", attr)
        wrapper.__qualname__ = getattr(func, "__qualname__", attr)
        wrapper.__wrapped__ = func
        installed = staticmethod(wrapper) if isinstance(original, staticmethod) else wrapper
        setattr(owner, attr, installed)
        self._undo.append((owner, attr, original))
        return wrapper

    def unwrap_all(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------------
    # Analysis
    # ------------------------------------------------------------------
    def totals(self, name: str, window: tuple[float, float]) -> tuple[int, float]:
        """(calls, summed duration) of spans named ``name`` inside ``window``."""
        lo, hi = window
        calls, busy = 0, 0.0
        for index, span_name in enumerate(self.names):
            if span_name == name and self.starts[index] >= lo and self.ends[index] <= hi:
                calls += 1
                busy += self.ends[index] - self.starts[index]
        return calls, busy

    def self_times(self, window: tuple[float, float]) -> dict[str, float]:
        """Self seconds by span name inside ``window`` (leaf time moved out)."""
        lo, hi = window
        events = []
        for index in range(len(self.names)):
            start = max(self.starts[index], lo)
            end = min(self.ends[index], hi)
            if end > start:
                events.append((start, 1, index))
                events.append((end, 0, index))
        events.sort()  # at equal times, ends (0) close before starts (1)
        per_span: dict[int, float] = defaultdict(float)
        heap: list[tuple[float, int]] = []
        alive: set[int] = set()
        previous = lo
        for moment, kind, index in events:
            while heap and -heap[0][1] not in alive:
                heapq.heappop(heap)
            if heap and moment > previous:
                per_span[-heap[0][1]] += moment - previous
            previous = moment
            if kind == 1:
                alive.add(index)
                # Latest start wins; a later-created span at the same
                # instant is the child.
                heapq.heappush(heap, (-self.starts[index], -index))
            else:
                alive.discard(index)
        result: dict[str, float] = defaultdict(float)
        for index, seconds in per_span.items():
            result[self.names[index]] += seconds - self.inner.get(index, 0.0)
        for name, seconds in self.leaf.items():
            result[name] += seconds
        return dict(result)

    def dump(self, path) -> None:
        """Write every span as one JSON line (the run's span log)."""
        with open(path, "w") as handle:
            for index, name in enumerate(self.names):
                handle.write(
                    json.dumps(
                        {
                            "name": name,
                            "start": self.starts[index],
                            "end": self.ends[index],
                            "parent": self.parents[index],
                            "id": self.ids[index],
                        }
                    )
                    + "\n"
                )
