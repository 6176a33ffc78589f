"""Nested span tracing stamped with wall-clock and simulated time.

A :class:`Tracer` produces :class:`Span`\\ s arranged in the natural
execution hierarchy — run → superstep → stage task → storage op — by
keeping a per-thread stack of open spans. Every span records wall-clock
``perf_counter`` timestamps; when the tracer carries a :class:`SimClock`
(advanced by the Pregelix driver from the cost model), spans additionally
record simulated-time stamps, so a trace shows both what CPython spent
and what the paper's hardware would have.

Completed spans are retained (bounded by ``max_spans``, oldest dropped
first) and exported whole by :mod:`repro.telemetry.export`, which is what
guarantees Chrome-trace ``B``/``E`` events always come in matched pairs.
Span ids only grow, so a reader that noted :meth:`Tracer.next_id` before
some work knows that work lost spans to the ring when
``evicted_id >= that id``.
"""

import itertools
import threading
from collections import deque
import time
from contextlib import contextmanager

DEFAULT_MAX_SPANS = 100_000


class SimClock:
    """Accumulated cost-model simulated seconds for one telemetry session."""

    def __init__(self):
        self.seconds = 0.0
        self._lock = threading.Lock()

    def advance(self, seconds):
        with self._lock:
            self.seconds += float(seconds)


class Span:
    """One timed region of execution."""

    __slots__ = (
        "span_id",
        "name",
        "category",
        "args",
        "start",
        "end",
        "sim_start",
        "sim_end",
        "parent_id",
        "depth",
        "tid",
    )

    def __init__(self, span_id, name, category, args, parent_id, depth, tid, sim_start):
        self.span_id = span_id
        self.name = name
        self.category = category
        self.args = args
        self.start = time.perf_counter()
        self.end = None
        self.sim_start = sim_start
        self.sim_end = None
        self.parent_id = parent_id
        self.depth = depth
        self.tid = tid

    @property
    def finished(self):
        return self.end is not None

    @property
    def duration(self):
        return (self.end - self.start) if self.finished else None

    @property
    def sim_duration(self):
        if self.sim_start is None or self.sim_end is None:
            return None
        return self.sim_end - self.sim_start

    def annotate(self, **kv):
        """Attach key/value detail to the span (shown in trace viewers)."""
        self.args.update(kv)

    def to_record(self):
        record = {
            "type": "span",
            "id": self.span_id,
            "name": self.name,
            "category": self.category,
            "start": self.start,
            "end": self.end,
            "parent": self.parent_id,
            "depth": self.depth,
            "tid": self.tid,
        }
        if self.sim_start is not None:
            record["sim_start"] = self.sim_start
            record["sim_end"] = self.sim_end
        if self.args:
            record["args"] = dict(self.args)
        return record

    def __repr__(self):
        status = "%.6fs" % self.duration if self.finished else "open"
        return "Span(%s/%s, %s)" % (self.category, self.name, status)


class Tracer:
    """Produces nested spans; keeps completed ones for export."""

    def __init__(self, sim_clock=None, max_spans=DEFAULT_MAX_SPANS, enabled=True):
        self.sim_clock = sim_clock
        self.max_spans = int(max_spans)
        self.enabled = enabled
        # Completed, in finish order; a ring, so a full buffer evicts its
        # oldest span in O(1) (a long-lived service runs full).
        self.spans = deque(maxlen=self.max_spans)
        self.dropped = 0
        #: The highest id of a span the ring has evicted (0: none yet).
        self.evicted_id = 0
        self._ids = itertools.count(1)
        self._last_id = 0
        self._lock = threading.Lock()
        self._local = threading.local()

    # ------------------------------------------------------------------
    # span lifecycle
    # ------------------------------------------------------------------
    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self):
        """The innermost open span on this thread, or ``None``."""
        stack = self._stack()
        return stack[-1] if stack else None

    # ------------------------------------------------------------------
    # scoped context: default args merged into every span on this thread
    # ------------------------------------------------------------------
    def _context_stack(self):
        stack = getattr(self._local, "context", None)
        if stack is None:
            stack = self._local.context = []
        return stack

    @contextmanager
    def context(self, **args):
        """Merge ``args`` into every span started on this thread.

        Contexts nest (inner wins per key) and a span's own explicit
        args always win over the context. This is the scoped-tracer
        mechanism: the serve layer enters ``context(job_id=...)`` around
        a job's execution, the driver enters ``context(run_id=...)``,
        and every engine/operator span below them is stamped with both
        without any plumbing through the call graph.
        """
        stack = self._context_stack()
        merged = dict(stack[-1]) if stack else {}
        merged.update(args)
        stack.append(merged)
        try:
            yield merged
        finally:
            stack.pop()

    def start(self, name, category="span", **args):
        """Open a span manually; pair with :meth:`finish`."""
        stack = self._stack()
        parent = stack[-1] if stack else None
        context = getattr(self._local, "context", None)
        if context and context[-1]:
            merged = dict(context[-1])
            merged.update(args)
            args = merged
        span_id = self._last_id = next(self._ids)
        span = Span(
            span_id=span_id,
            name=name,
            category=category,
            args=args,
            parent_id=parent.span_id if parent else None,
            depth=len(stack),
            tid=threading.get_ident(),
            sim_start=self.sim_clock.seconds if self.sim_clock else None,
        )
        stack.append(span)
        return span

    def finish(self, span):
        span.end = time.perf_counter()
        if self.sim_clock is not None:
            span.sim_end = self.sim_clock.seconds
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()
        elif span in stack:  # out-of-order finish: unwind to the span
            while stack and stack[-1] is not span:
                stack.pop()
            if stack:
                stack.pop()
        if not self.enabled:
            return
        with self._lock:
            if len(self.spans) == self.max_spans:
                self.dropped += 1
                # A ring with no room (max_spans=0) evicts the span itself.
                oldest = self.spans[0] if self.spans else span
                self.evicted_id = max(self.evicted_id, oldest.span_id)
            self.spans.append(span)

    def next_id(self):
        """A lower bound on the id of every span started after this call."""
        return self._last_id + 1

    @contextmanager
    def span(self, name, category="span", **args):
        """``with tracer.span("superstep:3", category="superstep"): ...``"""
        span = self.start(name, category=category, **args)
        try:
            yield span
        finally:
            self.finish(span)

    # ------------------------------------------------------------------
    # reading
    # ------------------------------------------------------------------
    def finished_spans(self, category=None, name_prefix=None):
        with self._lock:
            spans = list(self.spans)
        if category is not None:
            spans = [s for s in spans if s.category == category]
        if name_prefix is not None:
            spans = [s for s in spans if s.name.startswith(name_prefix)]
        return spans

    def __len__(self):
        return len(self.spans)
