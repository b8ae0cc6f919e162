"""Span-tracing overhead: TPC-H Q1/Q6 traced vs untraced.

The span tracer must be cheap enough to leave on in production: deep
(per-instruction) tracing adds one ``perf_counter_ns`` pair, one dict of
attributes, and one list append per executed MAL instruction.  This
benchmark runs Q1 (wide aggregation, few instructions doing much work)
and Q6 (selective scan) over SF 0.1 with ``trace_spans`` off and on and
reports the relative overhead.

Run under pytest-benchmark like the other ablations, or standalone for
the CI regression gate::

    PYTHONPATH=src python benchmarks/bench_trace_overhead.py --json out.json

The standalone mode loads one generated dataset into a traced and an
untraced database and alternates traced and untraced runs of each query
within every round, so host drift hits both sides alike.  It fails
(exit 1) when the traced median exceeds the untraced median by more than
``--max-overhead`` (default 10%).
"""

import argparse
import json
import statistics
import time

import pytest

SCALE_FACTOR = 0.1
QUERIES = (1, 6)


def _dataset():
    from repro.workloads.tpch import generate

    return generate(SCALE_FACTOR, seed=42)


def _open_connection(trace_spans: bool, data):
    from repro.core.database import Database
    from repro.workloads.tpch import load

    database = Database(None, trace_spans=trace_spans, result_cache=False)
    connection = database.connect()
    load(connection, data)
    return database, connection


def _sql(number: int) -> str:
    from repro.workloads.tpch import query

    return query(number)


# -- pytest-benchmark entry points --------------------------------------------------


@pytest.fixture(scope="module", params=[False, True],
                ids=["untraced", "traced"])
def trace_conn(request):
    database, connection = _open_connection(request.param, _dataset())
    yield connection
    database.shutdown()


@pytest.mark.parametrize("number", QUERIES)
def test_trace_overhead(benchmark, trace_conn, number):
    sql = _sql(number)
    benchmark(lambda: trace_conn.query(sql))


# -- standalone JSON mode (CI regression gate) --------------------------------------


def _timed(connection, sql: str) -> float:
    start = time.perf_counter()
    connection.query(sql)
    return time.perf_counter() - start


def _interleaved_medians(untraced, traced, sql: str, runs: int):
    """(untraced, traced) median seconds; each round times both, in an
    order that alternates between rounds."""
    connections = (untraced, traced)
    for connection in connections:
        connection.query(sql)  # warm up (first touch materializes columns)
    times = ([], [])
    for round_number in range(runs):
        for side in (0, 1) if round_number % 2 == 0 else (1, 0):
            times[side].append(_timed(connections[side], sql))
    return statistics.median(times[0]), statistics.median(times[1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--json", help="write results to this file")
    parser.add_argument("--runs", type=int, default=7)
    parser.add_argument(
        "--max-overhead", type=float, default=0.10,
        help="fail when traced/untraced - 1 exceeds this (default 0.10)",
    )
    args = parser.parse_args()

    data = _dataset()
    opened = []
    medians = {}
    try:
        for traced in (False, True):
            opened.append(_open_connection(traced, data))
        (_, untraced_conn), (_, traced_conn) = opened
        for number in QUERIES:
            medians[f"Q{number}"] = _interleaved_medians(
                untraced_conn, traced_conn, _sql(number), args.runs
            )
    finally:
        for database, _ in opened:
            database.shutdown()

    report = []
    failures = []
    for name, (untraced, traced) in medians.items():
        untraced, traced = round(untraced, 6), round(traced, 6)
        overhead = traced / untraced - 1.0 if untraced > 0 else 0.0
        report.append({
            "query": name,
            "untraced_s": untraced,
            "traced_s": traced,
            "overhead": round(overhead, 4),
        })
        print(
            f"{name}  untraced={untraced * 1e3:8.2f} ms"
            f"  traced={traced * 1e3:8.2f} ms"
            f"  overhead={overhead * 100:+6.2f}%"
        )
        if overhead > args.max_overhead:
            failures.append(name)

    payload = {
        "scale_factor": SCALE_FACTOR,
        "max_overhead": args.max_overhead,
        "results": report,
    }
    if args.json:
        with open(args.json, "w") as handle:
            json.dump(payload, handle, indent=2)
        print(f"wrote {args.json}")

    if failures:
        print(
            f"FAIL: tracing overhead above "
            f"{args.max_overhead * 100:.0f}% for {failures}"
        )
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
