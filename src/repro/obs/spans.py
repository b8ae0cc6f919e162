"""Hierarchical span tracing: session → statement → phase → instruction → chunk.

Spans answer both "which instruction was slow" and where a statement's
time went *between* layers — parse vs. optimize vs. execute vs. serialize,
server vs. client, worker chunk vs. coordinator.  The model follows
distributed-tracing spans (and MonetDB's TRACE events, which carry the same
per-operator accounting):

* a :class:`Span` is one timed region with a ``trace_id``/``span_id``/
  ``parent_id`` triple, a kind (``session``, ``statement``, ``phase``,
  ``instruction``, ``chunk``, ``wire``), and free-form attributes
  (cardinalities, bytes touched, RSS delta, tactic, cache status);
* a :class:`SpanTracer` owns a bounded ring buffer of finished spans plus
  the registry of *in-flight* statements (backing ``sys.active_queries``);
* a :class:`StatementSpans` handle is threaded through one statement's
  execution and collects that statement's spans.

**Sampling is head-based**: the keep/skip decision is made when the
statement span opens.  A sampled statement records deep (per-instruction,
per-chunk) spans; an unsampled one records only the statement/phase shell
and is retained at finish *only* if it turned out slow
(``span_slow_us``).  Tracing off (``trace_spans=False``) costs one
attribute load and one early-return per statement.

**Wire context propagation** uses a :mod:`contextvars` variable: the server
sets the client's ``traceparent`` (W3C-style ``00-<trace>-<span>-01``)
around statement execution, so server-side statement spans nest under the
client's root span and the two sides merge into one tree by trace id.
"""

from __future__ import annotations

import contextvars
import os
import random
import threading
import time
from collections import deque
from dataclasses import dataclass, field

__all__ = [
    "Span",
    "SpanTracer",
    "StatementSpans",
    "SPAN_KINDS",
    "new_trace_id",
    "new_span_id",
    "make_traceparent",
    "parse_traceparent",
    "render_tree",
    "rss_bytes",
]

#: Every span kind, outermost to innermost.
SPAN_KINDS = ("session", "statement", "phase", "instruction", "chunk", "wire")

#: Wire trace context of the current thread/task: ``(trace_id, parent_id)``
#: or None.  Module-level so any tracer in the process can observe the
#: context the server installed for the duration of one statement.
_WIRE_CONTEXT: contextvars.ContextVar = contextvars.ContextVar(
    "repro_wire_trace_context", default=None
)


def new_trace_id() -> str:
    """A 16-byte hex trace id (W3C trace-context sized)."""
    return os.urandom(16).hex()


def new_span_id() -> str:
    """An 8-byte hex span id."""
    return os.urandom(8).hex()


def make_traceparent(trace_id: str, span_id: str) -> str:
    """Render a W3C-style ``traceparent`` header value."""
    return f"00-{trace_id}-{span_id}-01"


def parse_traceparent(text: str):
    """``(trace_id, span_id)`` from a traceparent, or None if malformed."""
    parts = text.strip().split("-")
    if len(parts) != 4:
        return None
    _, trace_id, span_id, _ = parts
    if len(trace_id) != 32 or len(span_id) != 16:
        return None
    try:
        int(trace_id, 16), int(span_id, 16)
    except ValueError:
        return None
    return trace_id, span_id


try:
    _PAGE_BYTES = os.sysconf("SC_PAGE_SIZE")
except (AttributeError, ValueError, OSError):
    _PAGE_BYTES = 4096


def rss_bytes() -> int:
    """Resident-set size of this process (bytes); 0 where unreadable."""
    try:
        with open("/proc/self/statm", "rb") as statm:
            return int(statm.read().split()[1]) * _PAGE_BYTES
    except (OSError, ValueError, IndexError):
        return 0


@dataclass
class Span:
    """One timed region of work inside a trace."""

    trace_id: str
    span_id: str
    parent_id: str | None
    name: str
    kind: str
    session: int
    start_ns: int  # perf_counter_ns domain; epoch via SpanTracer.epoch_of
    end_ns: int = 0
    status: str = "ok"
    attrs: dict = field(default_factory=dict)

    @property
    def duration_us(self) -> float:
        return max(0, self.end_ns - self.start_ns) / 1000.0

    def to_dict(self, epoch_of=None) -> dict:
        """Portable dict form (wire transfer, exports, virtual tables)."""
        start_s = (
            epoch_of(self.start_ns) if epoch_of is not None
            else self.start_ns * 1e-9
        )
        return {
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "kind": self.kind,
            "session": self.session,
            "start_us": start_s * 1e6,
            "duration_us": self.duration_us,
            "status": self.status,
            "attrs": dict(self.attrs),
        }


class StatementSpans:
    """The span collector threaded through one statement's execution.

    Created by :meth:`SpanTracer.statement`; the connection opens phase
    spans, the interpreter records instruction spans (deep mode only), and
    worker threads append chunk spans through the thread-safe
    :meth:`record`.  :meth:`finish` hands everything back to the tracer,
    which applies the retention policy.
    """

    __slots__ = (
        "tracer", "trace_id", "session", "sql", "deep", "retain",
        "root", "spans", "_stack", "_lock", "rows_processed",
        "rows_estimate", "started_epoch", "_rss_start", "_finished",
    )

    def __init__(self, tracer, trace_id, parent_id, session, sql,
                 parse_ns=0, deep=True, retain=None):
        now = time.perf_counter_ns()
        self.tracer = tracer
        self.trace_id = trace_id
        self.session = session
        self.sql = sql
        self.deep = deep
        #: True = always keep, False = never keep, None = keep if deep/slow
        self.retain = retain
        self._lock = threading.Lock()
        self.rows_processed = 0
        self.rows_estimate: int | None = None
        self._finished = False
        start = now - max(0, int(parse_ns))
        self.started_epoch = tracer.epoch_of(start)
        self.root = Span(
            trace_id, new_span_id(), parent_id, "statement", "statement",
            session, start, attrs={"sql": sql},
        )
        self.spans = [self.root]
        self._stack = [self.root]
        if parse_ns:
            self.spans.append(Span(
                trace_id, new_span_id(), self.root.span_id, "parse", "phase",
                session, start, end_ns=now,
            ))
        self._rss_start = rss_bytes()

    # -- span construction (statement thread) ---------------------------------

    def begin(self, name: str, kind: str = "phase",
              start_ns: int | None = None, **attrs) -> Span:
        """Open a child span under the innermost open span; ``start_ns``
        back-dates it (a phase starting where the previous one ended)."""
        span = Span(
            self.trace_id, new_span_id(), self._stack[-1].span_id, name,
            kind, self.session,
            time.perf_counter_ns() if start_ns is None else start_ns,
            attrs=attrs,
        )
        with self._lock:
            self.spans.append(span)
        self._stack.append(span)
        return span

    def end(self, span: Span, **attrs) -> None:
        span.end_ns = time.perf_counter_ns()
        if attrs:
            span.attrs.update(attrs)
        if self._stack and self._stack[-1] is span:
            self._stack.pop()

    class _PhaseCtx:
        __slots__ = ("handle", "span")

        def __init__(self, handle, span):
            self.handle = handle
            self.span = span

        def __enter__(self):
            return self.span

        def __exit__(self, exc_type, exc, tb):
            self.handle.end(
                self.span,
                **({"status": "error"} if exc_type is not None else {}),
            )

    def phase(self, name: str, **attrs):
        """Context manager recording one phase span."""
        return self._PhaseCtx(self, self.begin(name, "phase", **attrs))

    def record(self, name: str, kind: str, start_ns: int, end_ns: int,
               parent: Span | None = None, **attrs) -> Span:
        """Append a pre-timed span; safe to call from worker threads."""
        span = Span(
            self.trace_id, new_span_id(),
            (parent or self.root).span_id, name, kind, self.session,
            start_ns, end_ns=end_ns, attrs=attrs,
        )
        with self._lock:
            self.spans.append(span)
        return span

    def current(self) -> Span:
        """The innermost open span (chunk-span parent for worker fan-out)."""
        return self._stack[-1]

    # -- live progress (sys.active_queries) -----------------------------------

    def add_rows(self, n: int) -> None:
        """Count rows processed; int += is atomic enough for a progress bar."""
        self.rows_processed += n

    def active_row(self) -> tuple:
        """One ``sys.active_queries`` row for this in-flight statement."""
        with self._lock:
            stack = list(self._stack)
        phase = ""
        for span in reversed(stack):
            if span.kind == "phase":
                phase = span.name
                break
        elapsed_us = (time.perf_counter_ns() - self.root.start_ns) / 1000.0
        estimate = self.rows_estimate
        processed = self.rows_processed
        progress = None
        if estimate is not None and estimate > 0:
            progress = min(1.0, processed / estimate)
        return (
            self.session, self.trace_id, self.sql, phase,
            self.started_epoch, elapsed_us, processed,
            estimate, progress,
        )

    # -- completion -----------------------------------------------------------

    def annotate(self, **attrs) -> None:
        self.root.attrs.update(attrs)

    def finish(self, status: str = "ok", error: str | None = None,
               rows: int | None = None, **attrs) -> None:
        """Close the statement span and hand spans to the tracer."""
        if self._finished:
            return
        self._finished = True
        now = time.perf_counter_ns()
        # close any spans an exception left open, innermost first
        while len(self._stack) > 1:
            dangling = self._stack.pop()
            if dangling.end_ns == 0:
                dangling.end_ns = now
                dangling.status = "error" if status == "error" else dangling.status
        self.root.end_ns = now
        self.root.status = status
        if error is not None:
            self.root.attrs["error"] = error
        if rows is not None:
            self.root.attrs["rows"] = int(rows)
        if attrs:
            self.root.attrs.update(attrs)
        delta = rss_bytes() - self._rss_start
        self.root.attrs["rss_delta"] = delta
        self.tracer._finish_statement(self)


class SpanTracer:
    """Process-wide span collection: ring buffer, sampling, live registry."""

    def __init__(self, enabled: bool = False, sample_rate: float = 1.0,
                 slow_us: float | None = None, buffer_size: int = 4096,
                 metrics=None):
        self.enabled = bool(enabled)
        self.sample_rate = float(sample_rate)
        self.slow_us = slow_us
        self.metrics = metrics
        self._lock = threading.Lock()
        self._buffer: deque = deque(maxlen=max(1, int(buffer_size)))
        self._active: dict = {}
        # anchor pair: converts perf_counter_ns() spans to epoch time
        self._epoch_anchor = time.time() - time.perf_counter_ns() * 1e-9

    # -- time domain ----------------------------------------------------------

    def epoch_of(self, perf_ns: int) -> float:
        """Unix-epoch seconds for a ``perf_counter_ns`` stamp."""
        return self._epoch_anchor + perf_ns * 1e-9

    # -- wire context ---------------------------------------------------------

    @staticmethod
    def set_wire_context(trace_id: str, parent_id: str):
        """Install a client trace context for this thread; returns a token."""
        return _WIRE_CONTEXT.set((trace_id, parent_id))

    @staticmethod
    def reset_wire_context(token) -> None:
        _WIRE_CONTEXT.reset(token)

    @staticmethod
    def wire_context():
        return _WIRE_CONTEXT.get()

    # -- statement lifecycle --------------------------------------------------

    def statement(self, *, session: int, sql: str, parse_ns: int = 0,
                  trace_id: str | None = None,
                  parent_id: str | None = None,
                  force: bool = False) -> StatementSpans | None:
        """Open a statement span, or None when tracing does not apply.

        ``force`` (EXPLAIN ANALYZE, trace exports) always records deeply;
        the spans are retained in the ring only if tracing is enabled.  A
        wire context (client-propagated traceparent) also forces deep
        recording *and* retention — the client asked for this trace.
        """
        context = _WIRE_CONTEXT.get()
        if context is None and not self.enabled and not force:
            return None
        if context is not None:
            wire_trace, wire_parent = context
            handle = StatementSpans(
                self, wire_trace, wire_parent, session, sql, parse_ns,
                deep=True, retain=True,
            )
        elif force:
            handle = StatementSpans(
                self, trace_id or new_trace_id(), parent_id, session, sql,
                parse_ns, deep=True,
                retain=True if self.enabled else False,
            )
        else:
            deep = (
                self.sample_rate >= 1.0
                or random.random() < self.sample_rate
            )
            handle = StatementSpans(
                self, trace_id or new_trace_id(), parent_id, session, sql,
                parse_ns, deep=deep, retain=None,
            )
        with self._lock:
            self._active[handle.root.span_id] = handle
        return handle

    def _finish_statement(self, handle: StatementSpans) -> None:
        with self._lock:
            self._active.pop(handle.root.span_id, None)
        keep = handle.retain
        if keep is None:
            slow = (
                self.slow_us is not None
                and handle.root.duration_us >= self.slow_us
            )
            keep = handle.deep or slow
            if slow:
                handle.root.attrs["slow"] = True
        if not keep:
            return
        with self._lock:
            self._buffer.extend(handle.spans)
        if self.metrics is not None:
            self.metrics.incr("spans_recorded", len(handle.spans))
            self.metrics.incr("statements_traced")

    # -- raw span recording (server wire spans, session spans) ---------------

    def record_span(self, span: Span) -> None:
        """Append one already-finished span, bypassing retention policy."""
        with self._lock:
            self._buffer.append(span)
        if self.metrics is not None:
            self.metrics.incr("spans_recorded")

    # -- reads ----------------------------------------------------------------

    def events(self) -> list:
        """Oldest-first snapshot of retained spans."""
        with self._lock:
            return list(self._buffer)

    def spans_for(self, trace_id: str) -> list:
        with self._lock:
            return [s for s in self._buffer if s.trace_id == trace_id]

    def export_dicts(self, trace_id: str | None = None) -> list:
        spans = self.events() if trace_id is None else self.spans_for(trace_id)
        return [span.to_dict(self.epoch_of) for span in spans]

    def active_statements(self) -> list:
        with self._lock:
            return list(self._active.values())

    def clear(self) -> None:
        with self._lock:
            self._buffer.clear()
            self._active.clear()


# -- span-tree rendering (EXPLAIN ANALYZE, RemoteConnection.trace_query) -----


def render_tree(spans: list) -> str:
    """Render span dicts (see :meth:`Span.to_dict`) as an indented tree.

    Every line carries total and self time (``time_us`` / ``self_us``);
    instruction and chunk spans add cardinalities, tactic, and detail.
    Orphans (parent not in the set, e.g. a server tree whose parent lives
    client-side) render as additional roots.
    """
    by_id = {s["span_id"]: s for s in spans}
    children: dict = {}
    roots = []
    for span in spans:
        parent = span.get("parent_id")
        if parent is not None and parent in by_id:
            children.setdefault(parent, []).append(span)
        else:
            roots.append(span)

    def self_us(span):
        return span["duration_us"] - sum(
            c["duration_us"] for c in children.get(span["span_id"], ())
        )

    lines: list = []

    def emit(span, prefix, tail, top=False):
        attrs = span.get("attrs", {})
        branch = "" if top else ("└─ " if tail else "├─ ")
        label = span["name"]
        parts = [
            f"time_us={span['duration_us']:.1f}",
            f"self_us={max(0.0, self_us(span)):.1f}",
        ]
        if "rows_in" in attrs or "rows_out" in attrs:
            parts.append(
                f"rows={attrs.get('rows_in', 0)}->{attrs.get('rows_out', 0)}"
            )
        elif "rows" in attrs:
            parts.append(f"rows={attrs['rows']}")
        if attrs.get("tactic"):
            parts.append(f"tactic={attrs['tactic']}")
        if attrs.get("cache"):
            parts.append(f"cache={attrs['cache']}")
        if attrs.get("bytes"):
            parts.append(f"bytes={attrs['bytes']}")
        if span.get("status", "ok") != "ok":
            parts.append(f"status={span['status']}")
        detail = attrs.get("detail") or (
            attrs.get("sql") if span["kind"] in ("statement", "wire") else None
        )
        text = f"{prefix}{branch}{label:<12} {'  '.join(parts)}"
        if detail:
            text += f"  {detail}"
        lines.append(text)
        kids = children.get(span["span_id"], [])
        child_prefix = prefix if top else prefix + ("   " if tail else "│  ")
        for i, kid in enumerate(kids):
            emit(kid, child_prefix, i == len(kids) - 1)

    for i, root in enumerate(roots):
        emit(root, "", i == len(roots) - 1, top=True)
    return "\n".join(lines)
