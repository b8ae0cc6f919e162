"""``python -m repro.bench --trace``: per-query TPC-H trace summaries.

Loads TPC-H into a fresh in-memory embedded database and runs each query
through :meth:`~repro.core.connection.Connection.trace_query`, printing a
compact summary of its span tree per query (instruction count, wall time,
result size, hottest instruction spans with their tactical choices).  This is the profiling loop MonetDB exposes
via ``TRACE``: the same query plan annotated with what the engine
actually did.
"""

from __future__ import annotations

from repro.workloads.tpch import QUERIES, generate, load, query, schema_statements

__all__ = ["trace_report", "run_traced_queries"]


def run_traced_queries(
    scale_factor: float = 0.01,
    queries: list | None = None,
    seed: int = 42,
) -> dict:
    """Run TPC-H queries traced; returns ``{name: (Result, span dicts)}``."""
    from repro.core.database import Database

    names = list(queries) if queries else list(QUERIES)
    database = Database(None)
    try:
        conn = database.connect()
        for ddl in schema_statements():
            conn.execute(ddl)
        load(conn, generate(scale_factor, seed=seed))
        out = {}
        for name in names:
            out[name] = conn.trace_query(query(name))
        return out
    finally:
        database.shutdown()


def trace_report(
    scale_factor: float = 0.01,
    queries: list | None = None,
    seed: int = 42,
    top: int = 3,
) -> str:
    """Human-readable trace summaries for the selected TPC-H queries."""
    traced = run_traced_queries(scale_factor, queries=queries, seed=seed)
    lines = [f"TPC-H trace summaries (SF={scale_factor})", ""]
    for name, (result, spans) in traced.items():
        instructions = [s for s in spans if s["kind"] == "instruction"]
        execute = next(
            s for s in spans if s["kind"] == "phase" and s["name"] == "execute"
        )
        lines.append(
            f"Q{name}: {len(instructions)} instructions, "
            f"{execute['duration_us']:.0f} us, {result.nrows} rows"
        )
        hottest = sorted(
            enumerate(instructions), key=lambda item: -item[1]["duration_us"]
        )[:top]
        for index, span in hottest:
            attrs = span["attrs"]
            tactic = f" [{attrs['tactic']}]" if attrs.get("tactic") else ""
            lines.append(
                f"    #{index:<3} {span['duration_us']:9.1f} us  "
                f"{span['name']:<10}{tactic}  "
                f"rows {attrs['rows_in']} -> {attrs['rows_out']}"
            )
        lines.append("")
    return "\n".join(lines).rstrip() + "\n"
