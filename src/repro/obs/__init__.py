"""Engine observability: spans, counters, metrics, and the sys schema.

Modeled on MonetDB's ``TRACE`` facility (and the stethoscope tooling built
on it), with one instrumentation model: hierarchical spans
(:mod:`repro.obs.spans`).  A statement's span tree nests its phases
(parse/bind/optimize/compile/execute) and, when sampled deep, one span per
executed MAL instruction — operator, input and output cardinalities, bytes
touched, the tactical choice the interpreter made, and wall time — plus
morsel and COPY chunk spans.  ``EXPLAIN ANALYZE`` and
``Connection.trace_query`` force a deep tree for one statement.  The
engine also keeps lightweight global counters (queries served, rows
appended/exported, bytes on the wire, transaction aborts) that
:meth:`repro.core.database.Database.stats` exposes.

On top of the counters sit a :class:`MetricsRegistry` (gauges and latency
histograms, rendered as Prometheus text by ``Database.metrics_text()``), a
ring-buffer :class:`QueryLog`, and the ``sys.*`` virtual tables
(:mod:`repro.obs.systables`) that expose all of it through plain SQL.

Tracing is strictly opt-in: an untraced statement carries no span handle,
and the interpreter's hot loop checks that once per program, doing no
per-instruction work.
"""

from repro.obs.metrics import DEFAULT_LATENCY_BOUNDS, Histogram, MetricsRegistry
from repro.obs.querylog import QueryLog, QueryLogEntry
from repro.obs.spans import Span, SpanTracer, StatementSpans, render_tree
from repro.obs.stats import EngineStats
from repro.obs.trace import cardinality, instruction_inputs, value_nbytes

__all__ = [
    "DEFAULT_LATENCY_BOUNDS",
    "EngineStats",
    "Histogram",
    "MetricsRegistry",
    "QueryLog",
    "QueryLogEntry",
    "Span",
    "SpanTracer",
    "StatementSpans",
    "cardinality",
    "instruction_inputs",
    "render_tree",
    "value_nbytes",
]
