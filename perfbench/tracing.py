"""The traced run: spans around each module's public entry points.

The untraced run never imports this module.  :meth:`SpanRecorder.install`
replaces the entry points below with timing wrappers for the duration of
the traced window and :meth:`SpanRecorder.uninstall` puts the originals
back.  Spans are kept in memory as ``[name, parent, start_ns, end_ns]``;
each benchmark operation is a root span named ``op`` so that, per
operation, the self times of all layers plus the root's own self time
(the unattributed remainder) add up to its wall time.

Only calls made on the benchmark's own thread are recorded.  Work the
in-process server does on its worker threads overlaps the client's
``server.query`` span and would otherwise be counted twice.

Per-MAL-instruction and per-tactic times come from the engine's own span
tree (``trace_spans=True``), drained from each database after every
operation; counters come from ``Database.stats()``, the metrics registry,
``index_manager.stats`` and the ``sys.*`` tables.
"""

from __future__ import annotations

import threading
import time
from collections import Counter
from contextlib import contextmanager

import repro.copy
import repro.core.connection
import repro.server.client
from repro.core.connection import Connection
from repro.core.result import Result
from repro.interface.zerocopy import COWArray
from repro.mal.interpreter import Interpreter
from repro.storage.wal import WriteAheadLog
from repro.txn.manager import TransactionManager

#: (owner, attribute, span name) of every wrapped entry point.  The
#: connection module imports parse/bind/optimize/compile by name, so they
#: are wrapped where the connection looks them up.
ENTRY_POINTS = (
    (repro.core.connection, "parse", "sql.parse"),
    (repro.core.connection, "bind_statement", "algebra.bind"),
    (repro.core.connection, "optimize", "algebra.optimize"),
    (repro.core.connection, "compile_select", "mal.compile"),
    (Interpreter, "run", "mal.execute"),
    (TransactionManager, "commit", "txn.commit"),
    (WriteAheadLog, "append", "storage.wal"),
    (Connection, "append", "interface.append"),
    (repro.copy, "load_into", "copy.load"),
    (Result, "to_numpy", "interface.export"),
    (repro.server.client.RemoteConnection, "query", "server.query"),
    (repro.server.client, "decode_block", "server.decode"),
    (repro.server.client.RemoteResult, "to_columns", "server.to_columns"),
)

#: MAL instruction -> operator group reported as ``mal.op.<group>_ms``.
OP_GROUPS = {
    "join": "join", "semijoin": "join", "pair_left": "join",
    "pair_right": "join", "pair_filter": "join",
    "groupby": "groupby", "gb_ids": "groupby", "gb_reps": "groupby",
    "distinct": "groupby",
    "take": "take", "take_pad": "take", "left_pad": "take",
    "agg": "agg", "pred": "pred", "map": "map", "sort": "sort",
    "topn": "topn", "winctx": "window", "winfunc": "window",
}
GROUPS = ("join", "groupby", "take", "agg", "pred", "map", "sort", "topn",
          "window")
TACTICS = ("hash_join", "sort_merge", "merge_join", "hash_group",
           "hash_index")
INDEX_COUNTERS = ("hash_hits", "hashes_built", "hash_refreshes",
                  "imprints_built", "invalidations")


class SpanRecorder:
    """Benchmark-side spans plus the engine span and counter readings."""

    def __init__(self, databases):
        #: callable returning the databases whose engine spans to drain
        self._databases = databases
        self._thread = threading.get_ident()
        self.spans: list = []
        self._stack: list = []
        self._saved: list = []
        self.counts: Counter = Counter()
        self.engine: Counter = Counter()

    # -- spans -----------------------------------------------------------------

    def _enter(self, name: str) -> int:
        """Open a span; calls outside any operation (the benchmark's own
        checks) are not recorded."""
        if not self._stack and name != "op":
            return -1
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, parent, time.perf_counter_ns(), 0])
        self._stack.append(index)
        return index

    def _exit(self, index: int) -> None:
        if index >= 0:
            self.spans[index][3] = time.perf_counter_ns()
            self._stack.pop()

    @contextmanager
    def op(self):
        """The root span of one benchmark operation."""
        index = self._enter("op")
        try:
            yield
        finally:
            self._exit(index)

    def _wrap(self, name: str, fn):
        recorder = self

        def traced(*args, **kwargs):
            if threading.get_ident() != recorder._thread:
                return fn(*args, **kwargs)
            wal_size = args[0].size if name == "storage.wal" else 0
            index = recorder._enter(name)
            try:
                value = fn(*args, **kwargs)
            finally:
                recorder._exit(index)
            if index >= 0:
                recorder._observe(name, args, value, wal_size)
            return value

        return traced

    def _observe(self, name: str, args, value, wal_size: int) -> None:
        """Counts taken at the entry point itself."""
        if name == "storage.wal":
            self.counts["wal_bytes"] += args[0].size - wal_size
        elif name == "interface.export":
            self.counts["export_columns"] += 1
            self.counts["zero_copy_columns"] += isinstance(value, COWArray)
        elif name == "server.query":
            self.counts["wire_rows"] += value.nrows

    def install(self) -> None:
        """Wrap the entry points and turn on the engines' span tracing."""
        for owner, attr, name in ENTRY_POINTS:
            original = vars(owner)[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, original))
        for database in self._databases():
            database.span_tracer.enabled = True

    def uninstall(self) -> None:
        for database in self._databases():
            database.span_tracer.enabled = False
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # -- engine spans -------------------------------------------------------------

    def discard_engine(self) -> None:
        """Drop engine spans of statements issued outside any operation."""
        for database in self._databases():
            database.span_tracer.clear()

    def drain_engine(self) -> None:
        """Fold the engine's retained spans into totals and empty its buffer."""
        for database in self._databases():
            tracer = database.span_tracer
            events = tracer.events()
            tracer.clear()
            phase_us: Counter = Counter()
            statements = []
            for span in events:
                if span.kind == "instruction":
                    us = span.duration_us
                    group = OP_GROUPS.get(span.name)
                    if group is not None:
                        self.engine[f"op.{group}"] += us
                    tactic = span.attrs.get("tactic")
                    if tactic in TACTICS:
                        self.engine[f"tactic.{tactic}"] += us
                    self.engine["rows_in"] += span.attrs.get("rows_in", 0)
                    self.engine["rows_out"] += span.attrs.get("rows_out", 0)
                elif span.kind == "phase":
                    phase_us[span.parent_id] += span.duration_us
                elif span.kind == "statement":
                    statements.append(span)
            for span in statements:
                self.engine["statements"] += 1
                self.engine["unattributed"] += (
                    span.duration_us - phase_us[span.span_id]
                )

    # -- report -------------------------------------------------------------------

    def layer_totals(self):
        """Per span name: calls, total ns, self ns, and outermost ns/calls."""
        child_ns = [0] * len(self.spans)
        for name, parent, start, end in self.spans:
            if parent is not None:
                child_ns[parent] += end - start
        calls: Counter = Counter()
        total: Counter = Counter()
        self_ns: Counter = Counter()
        outer: Counter = Counter()
        outer_calls: Counter = Counter()
        for index, (name, parent, start, end) in enumerate(self.spans):
            duration = end - start
            calls[name] += 1
            total[name] += duration
            self_ns[name] += duration - child_ns[index]
            if parent is None or self.spans[parent][0] != name:
                outer[name] += duration
                outer_calls[name] += 1
        return calls, total, self_ns, outer, outer_calls


def counter_snapshot(databases) -> dict:
    """Engine counters the traced run reports as deltas."""
    snap: Counter = Counter()
    for database in databases:
        stats = database.stats()
        snap["plan_hits"] += stats.get("plan_cache_hits", 0)
        snap["plan_misses"] += stats.get("plan_cache_misses", 0)
        snap["plan_invalidations"] += stats.get("plan_cache_invalidations", 0)
        snap["txn_aborts"] += stats.get("txn_aborts", 0)
        snap["wire_bytes"] += stats.get("wire_bytes_binary", 0)
        snap["wire_bytes"] += stats.get("wire_bytes_text", 0)
        index_stats = database.index_manager.stats
        for name in INDEX_COUNTERS:
            snap[f"index.{name}"] += getattr(index_stats, name)
        queue = database.metrics.histogram("server_queue_wait_us")
        if queue is not None:
            snap["queue_wait_n"] += queue["count"]
            snap["queue_wait_us"] += queue["sum"]
        conn = database.connect()
        try:
            fragments, morsels = conn.query(
                "SELECT fragments_started, morsels_dispatched "
                "FROM sys.exec_stats"
            ).fetchone()
            snap["exec.fragments"] += fragments
            snap["exec.morsels"] += morsels
            loads, load_us, rejected = conn.query(
                "SELECT count(*), sum(total_us), sum(rejected) "
                "FROM sys.copy_history WHERE direction = 'in'"
            ).fetchone()
            snap["copy_loads"] += loads
            snap["copy_us"] += load_us or 0
            snap["copy_rejected"] += rejected or 0
        finally:
            conn.close()
    return snap


def storage_bytes(database) -> int:
    """The engine's in-memory footprint of user tables, from sys.storage."""
    conn = database.connect()
    try:
        total = conn.query("SELECT sum(total_bytes) FROM sys.storage").scalar()
    finally:
        conn.close()
    return int(total or 0)


def per_layer_metrics(recorder, before: dict, after: dict,
                      extra: dict) -> dict:
    """Every per-layer metric of a traced window.

    Times are per call of the entry point (``_us``/``_ms`` of a layer) or
    per benchmark operation (``mal.op.*``, ``mal.tactic.*``, ``self.*``);
    counts are per operation unless noted.
    """
    calls, total, self_ns, outer, outer_calls = recorder.layer_totals()
    delta = Counter(after)
    delta.subtract(before)
    engine = recorder.engine
    counts = recorder.counts
    nops = calls["op"]
    per_op = 1.0 / nops

    def mean(name, scale):
        return total[name] / calls[name] / scale if calls[name] else 0.0

    lookups = delta["plan_hits"] + delta["plan_misses"]
    metrics = {
        "sql.parse_us": mean("sql.parse", 1e3),
        "algebra.bind_us": mean("algebra.bind", 1e3),
        "algebra.optimize_us": mean("algebra.optimize", 1e3),
        "mal.compile_us": mean("mal.compile", 1e3),
        "cache.plan_hit_ratio": delta["plan_hits"] / lookups if lookups else 0.0,
        "cache.plan_invalidations": delta["plan_invalidations"] * per_op,
        "core.unattributed_us": (
            engine["unattributed"] / engine["statements"]
            if engine["statements"] else 0.0
        ),
        "mal.execute_ms": (
            outer["mal.execute"] / outer_calls["mal.execute"] / 1e6
            if outer_calls["mal.execute"] else 0.0
        ),
    }
    for group in GROUPS:
        metrics[f"mal.op.{group}_ms"] = engine[f"op.{group}"] / 1e3 * per_op
    for tactic in TACTICS:
        metrics[f"mal.tactic.{tactic}_ms"] = (
            engine[f"tactic.{tactic}"] / 1e3 * per_op
        )
    metrics["mal.rows_in_per_row_out"] = (
        engine["rows_in"] / engine["rows_out"] if engine["rows_out"] else 0.0
    )
    metrics["exec.fragments"] = delta["exec.fragments"] * per_op
    metrics["exec.morsels"] = delta["exec.morsels"] * per_op
    for name in INDEX_COUNTERS:
        metrics[f"index.{name}"] = delta[f"index.{name}"] * per_op
    metrics["txn.commit_us"] = mean("txn.commit", 1e3)
    metrics["txn.aborts"] = delta["txn_aborts"]
    written = extra["user_bytes_written"]
    metrics["storage.wal_bytes_per_user_byte"] = (
        counts["wal_bytes"] / written if written else 0.0
    )
    metrics["storage.bytes_per_user_byte"] = extra["bytes_per_user_byte"]
    metrics["storage.disk_bytes_per_user_byte"] = (
        extra["disk_bytes_per_user_byte"]
    )
    metrics["storage.append_ms"] = mean("interface.append", 1e6)
    metrics["copy.load_ms"] = (
        delta["copy_us"] / delta["copy_loads"] / 1e3
        if delta["copy_loads"] else 0.0
    )
    metrics["copy.rows_rejected"] = delta["copy_rejected"]
    export_ops = extra["export_ops"]
    metrics["interface.export_ms"] = (
        total["interface.export"] / export_ops / 1e6 if export_ops else 0.0
    )
    metrics["interface.zero_copy_ratio"] = (
        counts["zero_copy_columns"] / counts["export_columns"]
        if counts["export_columns"] else 0.0
    )
    wire_ops = calls["server.query"]
    metrics["server.wait_ms"] = (
        self_ns["server.query"] / wire_ops / 1e6 if wire_ops else 0.0
    )
    metrics["server.decode_ms"] = (
        (total["server.decode"] + total["server.to_columns"])
        / wire_ops / 1e6 if wire_ops else 0.0
    )
    metrics["server.wire_bytes_per_row"] = (
        delta["wire_bytes"] / counts["wire_rows"] if counts["wire_rows"] else 0.0
    )
    metrics["server.queue_wait_us"] = (
        delta["queue_wait_us"] / delta["queue_wait_n"]
        if delta["queue_wait_n"] else 0.0
    )
    # the self-time breakdown: layers plus the remainder sum to wall time
    for _, _, span in ENTRY_POINTS:
        metrics[f"self.{span}_ms"] = self_ns[span] / 1e6 * per_op
    metrics["self.unattributed_ms"] = self_ns["op"] / 1e6 * per_op
    metrics["wall.op_ms"] = total["op"] / 1e6 * per_op
    metrics["trace.overhead_pct"] = extra["overhead_pct"]
    return metrics


#: Every per-layer metric with its unit, in report order.  ``1/op`` counts
#: are per benchmark operation over the traced window, cold round included.
PER_LAYER = (
    [
        ("sql.parse_us", "us"), ("algebra.bind_us", "us"),
        ("algebra.optimize_us", "us"), ("mal.compile_us", "us"),
        ("cache.plan_hit_ratio", "ratio"),
        ("cache.plan_invalidations", "1/op"),
        ("core.unattributed_us", "us"), ("mal.execute_ms", "ms"),
    ]
    + [(f"mal.op.{group}_ms", "ms/op") for group in GROUPS]
    + [(f"mal.tactic.{tactic}_ms", "ms/op") for tactic in TACTICS]
    + [
        ("mal.rows_in_per_row_out", "ratio"),
        ("exec.fragments", "1/op"), ("exec.morsels", "1/op"),
    ]
    + [(f"index.{name}", "1/op") for name in INDEX_COUNTERS]
    + [
        ("txn.commit_us", "us"), ("txn.aborts", "count"),
        ("storage.wal_bytes_per_user_byte", "ratio"),
        ("storage.bytes_per_user_byte", "ratio"),
        ("storage.disk_bytes_per_user_byte", "ratio"),
        ("storage.append_ms", "ms"), ("copy.load_ms", "ms"),
        ("copy.rows_rejected", "count"), ("interface.export_ms", "ms"),
        ("interface.zero_copy_ratio", "ratio"), ("server.wait_ms", "ms"),
        ("server.decode_ms", "ms"), ("server.wire_bytes_per_row", "B/row"),
        ("server.queue_wait_us", "us"),
    ]
    + [(f"self.{span}_ms", "ms/op") for _, _, span in ENTRY_POINTS]
    + [
        ("self.unattributed_ms", "ms/op"), ("wall.op_ms", "ms/op"),
        ("trace.overhead_pct", "%"),
    ]
)
