"""The repository benchmark: one command, three workloads, checked outputs.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload tpch_olap --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with no instrumentation.
``--trace 1`` makes a separate traced run that reports the per-layer
metrics and the tracing overhead.  Either way the workload's outputs are
checked and the last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the lines
before it (prefixed ``#``) record the seed, the machine and the workload's
own named metrics.  See ``perfbench/README.md``.

The engine is imported from ``src/`` of the checkout this file sits in;
without it the command fails before measuring anything.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import shutil
import statistics
import sys
import time
from pathlib import Path

from common import (
    Runner, latency_metrics, machine_info, peak_rss_mb, throughput,
)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

WORKLOADS = ("tpch_olap", "point_ops", "bulk_transfer")

#: End-to-end metrics, reported by every workload (see README.md).
END_TO_END = (
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ops_per_s", "1/s"),
    ("p50_ms", "ms"),
    ("p90_ms", "ms"),
    ("geomean_ms", "ms"),
)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def settle() -> None:
    """Collect set-up garbage and exempt the surviving set-up objects (the
    generated inputs, loaded tables, the workload's model) from later
    collections, so collector pauses scale with what operations allocate."""
    gc.unfreeze()
    gc.collect()
    gc.freeze()


def measure(workload, runner, seconds: float) -> list:
    """Whole rounds until ``seconds`` have passed; returns their ops."""
    first = len(runner.ops)
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        workload.round(runner)
    return runner.ops[first:]


def cold_round(workload, runner) -> float:
    """The first round after a set-up: its ops' summed latency."""
    first = len(runner.ops)
    workload.round(runner)
    return sum(seconds for _, seconds in runner.ops[first:])


def untraced(workload, seconds: float):
    runner = Runner()
    setups = []
    for index in range(workload.setups):
        if index:
            workload.teardown()
            settle()
        started = time.perf_counter()
        workload.setup()
        setups.append(time.perf_counter() - started)
    workload.begin()
    settle()
    cold = cold_round(workload, runner)
    warm = measure(workload, runner, seconds)
    rss = peak_rss_mb()
    workload.finish(runner)
    metrics = {
        "setup_s": statistics.median(setups),
        "peak_rss_mb": rss,
        **latency_metrics(warm),
    }
    units = dict(END_TO_END)
    named = workload.report(warm, cold)
    named["failed_ops_ratio"] = (
        runner.failed / runner.attempted, "ratio",
        f"{runner.failed}/{runner.attempted}",
    )
    return runner, {k: (metrics[k], units[k]) for k, _ in END_TO_END}, named


def traced(workload, seconds: float):
    from tracing import (
        PER_LAYER, SpanRecorder, counter_snapshot, per_layer_metrics,
        storage_bytes,
    )

    workload.setup()
    workload.begin()
    settle()
    recorder = SpanRecorder(workload.databases)
    before = counter_snapshot(workload.databases())
    written = workload.bytes_written
    runner = Runner(recorder)
    recorder.install()
    try:
        workload.round(runner)
        traced_warm = measure(workload, runner, seconds)
    finally:
        recorder.uninstall()
    after = counter_snapshot(workload.databases())
    live = workload.live_user_bytes()
    extra = {
        "user_bytes_written": workload.bytes_written - written,
        "bytes_per_user_byte": sum(
            storage_bytes(db) for db in workload.databases()
        ) / live,
        "disk_bytes_per_user_byte": workload.disk_bytes() / live,
        "export_ops": sum(
            1 for kind, _ in runner.ops if kind == "export_embedded"
        ),
    }
    plain = Runner()
    untraced_warm = measure(workload, plain, seconds)
    extra["overhead_pct"] = 100.0 * (
        1.0 - throughput(traced_warm) / throughput(untraced_warm)
    )
    workload.finish(runner)
    runner.attempted += plain.attempted
    runner.failed += plain.failed
    metrics = per_layer_metrics(recorder, before, after, extra)
    named = {
        "traced_ops_per_s": (throughput(traced_warm), "1/s", len(traced_warm)),
        "untraced_ops_per_s": (
            throughput(untraced_warm), "1/s", len(untraced_warm)
        ),
    }
    return runner, {k: (metrics[k], unit) for k, unit in PER_LAYER}, named


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: engine sources not found under {SRC}", file=sys.stderr)
        return 2
    # durable commits are part of what point_ops and bulk_transfer measure
    os.environ.pop("REPRO_NO_FSYNC", None)
    sys.path.insert(0, str(SRC))
    module = importlib.import_module(args.workload)
    workdir = WORK / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    workload = None
    try:
        workload = module.Workload(args.seed, workdir)
        run = traced if args.trace else untraced
        runner, metrics, named = run(workload, args.seconds)
    finally:
        if workload is not None:
            workload.teardown()
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass  # another run still uses it

    print(f"# perfbench workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print(f"# machine {json.dumps(machine_info(), sort_keys=True)}")
    for name, (value, unit, samples) in named.items():
        print(f"# {name} = {value:.6g} {unit} (n={samples})")
    correct = runner.failed == 0
    if runner.first_error is not None:
        print(f"# first failure: {runner.first_error.splitlines()[-1]}")
    print(json.dumps({
        "correct": correct,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
