"""Shared pieces of the benchmark: op timing, failure accounting, statistics.

Every workload runs one client in a closed loop: the next operation starts
only after the previous one returned.  An operation's latency covers the
engine call and the consumption of its result; output checks, model
bookkeeping and random choices happen outside the timed region.
"""

from __future__ import annotations

import math
import os
import platform
import resource
import statistics
import sys
import time
import traceback


class Runner:
    """Times operations, counts attempts and failures, and feeds the tracer.

    ``recorder`` is the traced run's span recorder (None when untraced):
    each operation becomes the root span its layer spans nest under, and
    the engine's own span buffers are drained after it, outside its timing.
    """

    def __init__(self, recorder=None):
        self.recorder = recorder
        self.ops: list = []  # (kind, seconds) of every successful op
        self.attempted = 0
        self.failed = 0
        #: whether the most recent op raised (its effects are not acknowledged)
        self.failed_last = False
        self.first_error: str | None = None

    def op(self, kind: str, fn):
        """Run ``fn`` as one timed operation; returns its value, or None."""
        self.attempted += 1
        self.failed_last = True
        recorder = self.recorder
        if recorder is not None:
            recorder.discard_engine()
        started = time.perf_counter()
        try:
            if recorder is None:
                value = fn()
            else:
                with recorder.op():
                    value = fn()
        except Exception:  # a failed op is counted and reported, not fatal
            self.fail(kind, traceback.format_exc())
            return None
        self.ops.append((kind, time.perf_counter() - started))
        self.failed_last = False
        if recorder is not None:
            recorder.drain_engine()
        return value

    def check(self, kind: str, ok: bool, detail: str) -> bool:
        """Record one output check; a failed check fails its operation."""
        if not ok:
            self.fail(kind, f"check failed: {detail}")
        return ok

    def fail(self, kind: str, detail: str) -> None:
        self.failed += 1
        if self.first_error is None:
            self.first_error = f"[{kind}] {detail}"
            print(f"# FAILED {self.first_error}", file=sys.stderr)


def percentile(values, q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..100) of a non-empty sequence."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def beyond(values, q: float) -> int:
    """How many samples lie beyond the nearest-rank ``q`` percentile."""
    return len(values) - max(1, math.ceil(q / 100.0 * len(values)))


def geomean(values) -> float:
    return math.exp(sum(math.log(v) for v in values) / len(values))


def by_kind(ops) -> dict:
    kinds: dict = {}
    for kind, seconds in ops:
        kinds.setdefault(kind, []).append(seconds)
    return kinds


def throughput(ops) -> float:
    """Operations per second of operation time."""
    return len(ops) / sum(seconds for _, seconds in ops)


def latency_metrics(ops) -> dict:
    """The generic latency and throughput metrics over warm operations."""
    seconds = [s for _, s in ops]
    kinds = by_kind(ops)
    return {
        "ops_per_s": throughput(ops),
        "p50_ms": statistics.median(seconds) * 1e3,
        "p90_ms": percentile(seconds, 90) * 1e3,
        "geomean_ms": geomean(
            [statistics.median(v) for v in kinds.values()]
        ) * 1e3,
    }


def peak_rss_mb() -> float:
    """Peak resident set size of this process so far, in MiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def machine_info() -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
    }


def user_bytes(columns: dict) -> int:
    """Bytes of user data in generated columns: fixed-width values at their
    array width, strings as UTF-8."""
    total = 0
    for array in columns.values():
        if array.dtype == object:
            total += sum(len(str(v).encode("utf-8")) for v in array)
        else:
            total += array.nbytes
    return total


def dir_bytes(path) -> int:
    """Total size of the regular files under ``path``."""
    total = 0
    for base, _, files in os.walk(path):
        for name in files:
            total += os.path.getsize(os.path.join(base, name))
    return total
