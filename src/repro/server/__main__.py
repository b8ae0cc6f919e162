"""CLI entry point: ``python -m repro.server --engine columnar --port 0``.

Serves through :class:`repro.server.aio.AsyncServer` and prints
``READY <port>`` once the listener is bound.
"""

from __future__ import annotations

import argparse
import signal
import sys

from repro.server.aio import AsyncServer


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="repro database server")
    parser.add_argument("--engine", choices=["columnar", "rowstore"],
                        default="columnar")
    parser.add_argument("--protocol", default="pg",
                        choices=["pg", "mysql", "monetdb"])
    parser.add_argument("--directory", default=None)
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=0)
    parser.add_argument("--timeout", type=float, default=None)
    parser.add_argument("--max-sessions", type=int, default=256,
                        help="connection cap before shedding")
    parser.add_argument("--queue-depth", type=int, default=128,
                        help="global in-flight statement cap")
    parser.add_argument("--session-quota", type=int, default=8,
                        help="per-session in-flight statement cap")
    parser.add_argument("--workers", type=int, default=8,
                        help="execution worker threads")
    parser.add_argument("--no-binary", action="store_true",
                        help="refuse binary result negotiation")
    args = parser.parse_args(argv)

    server = AsyncServer(
        engine=args.engine,
        protocol=args.protocol,
        directory=args.directory,
        host=args.host,
        port=args.port,
        timeout=args.timeout,
        max_sessions=args.max_sessions,
        max_queue_depth=args.queue_depth,
        session_quota=args.session_quota,
        workers=args.workers,
        allow_binary=not args.no_binary,
    ).start()
    print(f"READY {server.port}", flush=True)

    stop = {"flag": False}

    def handle(signum, frame):
        stop["flag"] = True

    signal.signal(signal.SIGTERM, handle)
    signal.signal(signal.SIGINT, handle)
    try:
        while not stop["flag"]:
            signal.pause()
    except KeyboardInterrupt:
        pass
    server.stop()
    return 0


if __name__ == "__main__":
    sys.exit(main())
