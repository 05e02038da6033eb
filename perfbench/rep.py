"""One repetition of one workload, in a fresh interpreter.

``run.py`` starts this file once per repetition with a clean environment
and a fresh working directory, so the import of ``repro`` is part of every
set-up and the first call of the entry point is truly cold.  The result
(timings, output digest, checks, and with ``--trace`` the per-layer
metrics) is written as JSON to ``--out``.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path


def _children_done(timeout: float = 30.0) -> None:
    """Reap every finished pool worker, so their CPU time and peak RSS
    reach ``RUSAGE_CHILDREN`` (the executor shuts pools down without
    waiting)."""
    import multiprocessing

    deadline = time.monotonic() + timeout
    while multiprocessing.active_children() and time.monotonic() < deadline:
        time.sleep(0.01)


def _cpu(usage) -> float:
    return usage.ru_utime + usage.ru_stime


#: Seconds one calibration takes at the reference speed; timings are
#: scaled to it.  0.08 s is this loop's typical time on the 2-vCPU Xeon
#: (2.0 GHz) virtual machine the benchmark was sized on.
REFERENCE_CALIBRATION_S = 0.08


class _Item:
    __slots__ = ("a", "b")

    def __init__(self, a: int, b: int) -> None:
        self.a = a
        self.b = b

    def mix(self, x: int) -> int:
        return (self.a * x + self.b) & 1023


def _calibration_once() -> float:
    import numpy as np

    t0 = time.perf_counter()
    items = [_Item(i, i + 1) for i in range(256)]
    table: dict = {}
    acc = 0
    for i in range(120000):
        acc += items[i & 255].mix(i)
        table[i & 4095] = acc
        acc ^= table.get((i * 7) & 4095, 0) >> 3
    arr = np.arange(4096)
    for i in range(600):
        arr = (arr * 3 + i) % 1021
        acc += int(arr[arr > 500].sum() & 7)
    return time.perf_counter() - t0


def _host_speed() -> float:
    """How much slower than the reference this host runs right now.

    The benchmark shares its machine with other tenants, whose load
    changes its speed by up to 2x within minutes.  A fixed piece of
    interpreter and numpy work that does not touch ``repro`` (median of
    three) is timed next to every measured interval, and the interval is
    divided by the ratio, so timings compare across host phases."""
    return statistics.median(_calibration_once() for _ in range(3)) / REFERENCE_CALIBRATION_S


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--size", default="bench")
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--reruns", type=int, default=1)
    ap.add_argument("--spawned", type=float, required=True,
                    help="time.monotonic() in the parent just before this process started")
    ap.add_argument("--src", required=True, help="the checkout's src directory")
    ap.add_argument("--workdir", required=True, help="fresh, empty directory for this repetition")
    ap.add_argument("--out", required=True)
    args = ap.parse_args()

    out: dict = {"error": None}
    try:
        sys.path.insert(0, args.src)
        import repro

        if not Path(repro.__file__).resolve().is_relative_to(Path(args.src).resolve()):
            raise RuntimeError(f"imported repro from {repro.__file__}, not from {args.src}")
        sys.path.insert(0, str(Path(__file__).resolve().parent))
        from workloads import JOBS, SIZES, WORKLOADS

        workdir = Path(args.workdir)
        tracer = None
        if args.trace:
            import spans

            tracer = spans.install(f"{args.workload}-{args.seed}", workdir / "spans", jobs=JOBS)
        workload = WORKLOADS[args.workload]()
        workload.build(args.seed, SIZES[args.size][args.workload])
        setup_s = time.monotonic() - args.spawned
        speed_0 = _host_speed()

        first = []

        def progress(done, total, outcome):
            if not first:
                first.append(time.perf_counter())

        root = workdir / "run"
        self_0 = resource.getrusage(resource.RUSAGE_SELF)
        kids_0 = resource.getrusage(resource.RUSAGE_CHILDREN)
        t0 = time.perf_counter()
        workload.run(root, progress)
        t1 = time.perf_counter()
        _children_done()
        self_1 = resource.getrusage(resource.RUSAGE_SELF)
        kids_1 = resource.getrusage(resource.RUSAGE_CHILDREN)
        speed_1 = _host_speed()

        reruns = []
        for _ in range(args.reruns):
            r0 = time.perf_counter()
            workload.rerun()
            reruns.append(time.perf_counter() - r0)
        _children_done()
        speed_2 = _host_speed()

        # Raw host seconds, and the same scaled to the reference host speed
        # measured around each interval.
        raw = {
            "setup_s": setup_s,
            "wall_s": t1 - t0,
            "first_result_s": first[0] - t0,
            "rerun_s": statistics.median(reruns),
            "cpu_s": _cpu(self_1) - _cpu(self_0) + _cpu(kids_1) - _cpu(kids_0),
        }
        run_speed = (speed_0 + speed_1) / 2
        out["raw"] = raw
        out["host_speed"] = [speed_0, speed_1, speed_2]
        out["setup_s"] = setup_s / speed_0
        for name in ("wall_s", "first_result_s", "cpu_s"):
            out[name] = raw[name] / run_speed
        out["node_cycles_per_s"] = workload.node_cycles() / out["wall_s"]
        out["reruns"] = [r / ((speed_1 + speed_2) / 2) for r in reruns]
        out["rerun_s"] = statistics.median(out["reruns"])
        out["peak_rss_mb"] = max(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
            resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
        ) / 1024.0

        out["output"] = workload.output().decode()
        out["attempted"] = workload.attempted()
        out["failed"] = workload.failed()
        out["checks"] = workload.checks()
        out["model"] = workload.model()
        if tracer is not None:
            layers, records = spans.collect(tracer)
            out["layers"] = layers
            out["spans"] = records
    except Exception:
        out["error"] = traceback.format_exc()
    Path(args.out).write_text(json.dumps(out))
    return 0 if out["error"] is None else 1


if __name__ == "__main__":
    sys.exit(main())
