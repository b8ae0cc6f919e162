"""Wire session: one connection's protocol brain.

:class:`repro.server.aio.AsyncServer` owns the sockets; this module holds
the protocol logic.  A :class:`Session` owns one engine connection plus
the negotiated capabilities and turns each incoming message into an
ordered list of ``(type, payload)`` response frames.  The server decides
where the handling runs (on a worker pool, off the event loop) and how
the frames reach the socket.

Handling is synchronous and self-contained, so the server can run it on
an executor thread: the contextvar-based trace wire context is set and
reset inside :meth:`Session.handle`, never across threads.
"""

from __future__ import annotations

import json
import time

from repro.errors import DatabaseError
from repro.obs.spans import Span, new_span_id, parse_traceparent
from repro.server.binary import BINARY_BATCH_ROWS, encode_block
from repro.server.protocol import (
    COPY_CHUNK_BYTES,
    ProtocolConfig,
    encode_rows,
    parse_field,
)

__all__ = ["Session", "open_engine", "CLOSE"]

#: Sentinel a transport may receive instead of frames: close the connection.
CLOSE = object()


def open_engine(kind: str, directory: str | None, timeout: float | None):
    """Create the hosted engine instance for a server front end."""
    if kind == "columnar":
        from repro.core.database import Database

        return Database(directory, timeout=timeout)
    if kind == "rowstore":
        from repro.rowstore import RowDatabase

        path = None
        if directory is not None:
            path = f"{directory}/rowstore.db"
        return RowDatabase(path, timeout=timeout)
    raise DatabaseError(f"unknown server engine {kind!r}")


class Session:
    """Protocol state and message dispatch for one client connection."""

    def __init__(
        self,
        database,
        conn,
        config: ProtocolConfig,
        *,
        engine_kind: str = "columnar",
        allow_binary: bool = True,
    ):
        self.database = database
        self.conn = conn
        self.config = config
        self.engine_kind = engine_kind
        self.allow_binary = allow_binary
        self.binary = False  # flips on when the client negotiates binary=1
        self.trace_ctx = None  # (trace_id, parent span id) from a 'T' frame
        self.inflight = 0  # statements queued or executing
        if hasattr(conn, "client"):
            conn.client = "tcp"  # tag the session for sys.sessions
        self._tracer = getattr(database, "span_tracer", None)
        self._metrics = getattr(database, "metrics", None)

    # -- small helpers -------------------------------------------------------------

    def close(self) -> None:
        close = getattr(self.conn, "close", None)
        if close is not None:
            close()

    def _incr(self, name: str, amount: int = 1) -> None:
        if self._metrics is not None:
            self._metrics.incr(name, amount)

    @staticmethod
    def _error_frames(exc) -> list:
        return [(b"E", str(exc).encode("utf-8")), (b"Z", b"")]

    # -- COPY plumbing (the server runs the d/c/f exchange) -------------------------

    def needs_copy_data(self, payload: bytes) -> bool:
        """True when a ``Q`` payload is a ``COPY ... FROM STDIN``.

        Runs on the event loop for every statement, so it only parses a
        payload that contains the bytes ``stdin``: ``FROM STDIN`` is the
        contextual identifier ``stdin``, which no other spelling matches.
        """
        if self.engine_kind != "columnar":
            return False  # rowstore engine has no COPY support
        if b"stdin" not in payload.lower():
            return False
        try:
            from repro.sql import ast
            from repro.sql.parser import parse

            statements = parse(payload.decode("utf-8"))
        except Exception:
            return False  # let execute() raise the real error
        return (
            len(statements) == 1
            and isinstance(statements[0], ast.CopyFromStmt)
            and statements[0].path is None
        )

    # -- dispatch -------------------------------------------------------------------

    def handle(
        self,
        mtype: bytes,
        payload: bytes,
        *,
        copy_data: bytes | None = None,
        copy_aborted: bool = False,
        queue_wait_us: float | None = None,
    ):
        """Process one message; returns response frames or :data:`CLOSE`.

        ``copy_data`` carries the streamed STDIN payload when the
        transport already ran the ``G``/``d``/``c`` exchange for a COPY
        statement; ``copy_aborted`` marks a client ``f`` frame.
        ``queue_wait_us`` is how long the statement sat in the worker
        queue — recorded as a span when tracing.
        """
        if mtype == b"X":
            return CLOSE
        if mtype == b"N":
            return self._handle_negotiate(payload)
        if mtype == b"M":
            return self._handle_metrics()
        if mtype == b"P":
            return self._handle_prepare(payload)
        if mtype == b"E":
            return self._handle_execute_prepared(payload)
        if mtype == b"D":
            return self._handle_deallocate(payload)
        if mtype == b"T":
            return self._handle_trace_context(payload)
        if mtype == b"t":
            return self._handle_trace_fetch(payload)
        if mtype != b"Q":
            return [
                (b"E", f"unexpected message {mtype!r}".encode()),
                (b"Z", b""),
            ]
        return self._handle_query(
            payload.decode("utf-8"),
            copy_data=copy_data,
            copy_aborted=copy_aborted,
            queue_wait_us=queue_wait_us,
        )

    # -- individual message handlers -------------------------------------------------

    def _handle_negotiate(self, payload: bytes) -> list:
        """``N``: capability negotiation (currently just ``binary``)."""
        requested = {}
        for token in payload.decode("utf-8", "replace").split():
            key, _, value = token.partition("=")
            requested[key] = value
        accepted = []
        if requested.get("binary") == "1" and self.allow_binary:
            self.binary = True
            accepted.append("binary=1")
        return [
            (b"N", " ".join(accepted).encode("utf-8")),
            (b"Z", b""),
        ]

    def _handle_metrics(self) -> list:
        metrics_text = getattr(self.database, "metrics_text", None)
        if metrics_text is None:  # rowstore engine: no metrics registry
            return self._error_frames("engine does not expose metrics")
        return [
            (b"M", metrics_text().encode("utf-8")),
            (b"Z", b""),
        ]

    def _handle_prepare(self, payload: bytes) -> list:
        try:
            name, _, sql = payload.decode("utf-8").partition("\x00")
            prepare = getattr(self.conn, "prepare", None)
            if prepare is None:
                raise DatabaseError(
                    "engine does not support prepared statements"
                )
            prepared = prepare(sql, name=name)
        except Exception as exc:
            return self._error_frames(exc)
        return [
            (b"C", f"0 nparams={prepared.nparams}".encode("utf-8")),
            (b"Z", b""),
        ]

    def _handle_execute_prepared(self, payload: bytes) -> list:
        started = time.perf_counter()
        try:
            name, sep, fields = payload.decode("utf-8").partition("\x00")
            params = (
                tuple(parse_field(f) for f in fields.split("\t"))
                if sep and fields
                else ()
            )
            runner = getattr(self.conn, "execute_prepared", None)
            if runner is None:
                raise DatabaseError(
                    "engine does not support prepared statements"
                )
            result = runner(name, params)
        except Exception as exc:
            return self._error_frames(exc)
        return self._result_frames(result, started)

    def _handle_deallocate(self, payload: bytes) -> list:
        try:
            deallocate = getattr(self.conn, "deallocate", None)
            if deallocate is None:
                raise DatabaseError(
                    "engine does not support prepared statements"
                )
            deallocate(payload.decode("utf-8"))
        except Exception as exc:
            return self._error_frames(exc)
        return [(b"C", b"0"), (b"Z", b"")]

    def _handle_trace_context(self, payload: bytes) -> list:
        context = None
        if payload:
            context = parse_traceparent(payload.decode("utf-8", "replace"))
            if context is None:
                return self._error_frames("malformed traceparent")
        self.trace_ctx = context
        return [(b"C", b"0"), (b"Z", b"")]

    def _handle_trace_fetch(self, payload: bytes) -> list:
        tracer = self._tracer
        if tracer is None:
            return self._error_frames("engine does not record spans")
        trace_id = payload.decode("utf-8", "replace").strip()
        spans = tracer.export_dicts(trace_id) if trace_id else []
        return [
            (b"t", json.dumps(spans).encode("utf-8")),
            (b"Z", b""),
        ]

    def _handle_query(
        self,
        sql: str,
        *,
        copy_data: bytes | None,
        copy_aborted: bool,
        queue_wait_us: float | None,
    ) -> list:
        started = time.perf_counter()
        tracer = self._tracer
        wire_span = None
        token = None
        if self.trace_ctx is not None and tracer is not None:
            trace_id, client_parent = self.trace_ctx
            now_ns = time.perf_counter_ns()
            if queue_wait_us:
                tracer.record_span(
                    Span(
                        trace_id, new_span_id(), client_parent, "queue.wait",
                        "wire", getattr(self.conn, "session_id", 0),
                        now_ns - int(queue_wait_us * 1000), end_ns=now_ns,
                    )
                )
            wire_span = Span(
                trace_id, new_span_id(), client_parent, "server.query",
                "wire", getattr(self.conn, "session_id", 0),
                now_ns, attrs={"sql": sql},
            )
            # statements executed on this thread now nest under the
            # client's span instead of opening their own trace
            token = tracer.set_wire_context(trace_id, wire_span.span_id)
        try:
            if copy_aborted:
                raise DatabaseError("COPY aborted by client")
            if copy_data is not None:
                result = self.conn.execute(sql, copy_data=copy_data)
            else:
                result = self.conn.execute(sql)
        except Exception as exc:  # errors travel the wire, never kill the server
            if wire_span is not None:
                wire_span.end_ns = time.perf_counter_ns()
                wire_span.status = "error"
                tracer.record_span(wire_span)
            return self._error_frames(exc)
        finally:
            if token is not None:
                tracer.reset_wire_context(token)
        if wire_span is None:
            return self._result_frames(result, started)
        serialize_start = time.perf_counter_ns()
        frames = self._result_frames(result, started)
        serialize_end = time.perf_counter_ns()
        tracer.record_span(Span(
            wire_span.trace_id, new_span_id(), wire_span.span_id,
            "serialize", "phase", wire_span.session, serialize_start,
            end_ns=serialize_end,
            attrs={"rows": result.nrows if result is not None else 0},
        ))
        wire_span.end_ns = serialize_end
        tracer.record_span(wire_span)
        return frames

    # -- result serialization ---------------------------------------------------------

    def _result_frames(self, result, started) -> list:
        frames: list = []
        copy_text = getattr(result, "copy_text", None)
        if copy_text is not None:
            # COPY ... TO STDOUT: stream the CSV payload ahead of the
            # ordinary result sequence (which carries the export row count)
            frames.append((b"H", b""))
            payload = copy_text.encode("utf-8")
            for start in range(0, len(payload), COPY_CHUNK_BYTES):
                frames.append(
                    (b"d", payload[start : start + COPY_CHUNK_BYTES])
                )
        if result is None:
            nrows = 0
        else:
            names = result.names
            types = [
                result._materialized.columns[i].type.name
                for i in range(result.ncols)
            ]
            description = "\t".join(
                f"{name}:{type_}" for name, type_ in zip(names, types)
            )
            frames.append((b"D", description.encode("utf-8")))
            nrows = result.nrows
            if self.binary:
                columns = result._materialized.columns
                count_exported = getattr(result, "_count_exported", None)
                if count_exported is not None:
                    count_exported(nrows)
                wire_bytes = 0
                for start in range(0, nrows, BINARY_BATCH_ROWS) or [0]:
                    block = encode_block(
                        columns,
                        start,
                        min(start + BINARY_BATCH_ROWS, nrows),
                    )
                    wire_bytes += len(block)
                    frames.append((b"B", block))
                self._incr("wire_results_binary")
                self._incr("wire_bytes_binary", wire_bytes)
            else:
                rows = result.fetchall()
                batch = self.config.rows_per_message
                wire_bytes = 0
                for start in range(0, len(rows), batch):
                    encoded = encode_rows(
                        rows[start : start + batch], self.config
                    )
                    wire_bytes += len(encoded)
                    frames.append((b"R", encoded))
                self._incr("wire_results_text")
                self._incr("wire_bytes_text", wire_bytes)
        elapsed_us = int((time.perf_counter() - started) * 1e6)
        # "C" payload: row count plus server-side execution time, so clients
        # can surface per-query stats without a second round trip.
        frames.append(
            (b"C", f"{nrows} time_us={elapsed_us}".encode("utf-8"))
        )
        frames.append((b"Z", b""))
        return frames
