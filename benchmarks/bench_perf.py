#!/usr/bin/env python
"""Simulator-throughput benchmark: activity-scheduled vs dense stepping,
plus the vectorized (SoA) backend where a design has one.

Measures wall-clock cycles/sec of the same configuration under the two
bit-exact network walks (``Network.dense_step``) across a design x load
matrix — and, for designs with a vectorized kernel
(``backend="vector"``), a third bit-exact implementation — and writes a
machine-readable ``BENCH_sim_perf.json``.  Rows without a vector kernel
report ``null`` in the vector columns.

Unlike the ``bench_fig*`` suite (which reproduces the paper's figures),
this benchmark characterises the *simulator*, so it runs standalone:

    PYTHONPATH=src python benchmarks/bench_perf.py --quick

``--check`` exits non-zero when the activity-scheduled walk falls
materially behind the dense walk on any 0.1-offered-load row (the CI
perf-smoke gate).  The floor is 0.85x rather than 1.0x: the k=16
uniform-random showcase rows run near saturation, where the two walks
are legitimately at parity and machine noise would make a strict >= 1.0
gate flaky.
Each cell reports the median of ``--repeats`` interleaved runs; both
walks share every run's Python process, so the comparison cancels
machine-level drift.

Rows may carry a sixth column, the percentage of routers given a
whole-crossbar fault (default 0); the 100% row times the degraded
buffered step of the dual-crossbar designs.

``--compare BASELINE`` additionally regression-gates against a previous
run's JSON (typically the committed ``BENCH_sim_perf.json``): every
matched row's active-walk — and, where the baseline has one, vector —
cycles/sec must be at least ``--tolerance`` times the baseline's.  The tolerance is deliberately loose — absolute
cycles/sec varies wildly across machines, so this only catches
collapses, not percent-level drift (the dense-vs-active ratio gate above
stays the precise one).
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
import sys
import time
import warnings
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.registry import design_spec  # noqa: E402
from repro.sim.config import FaultConfig, SimConfig  # noqa: E402
from repro.sim.engine import Simulator  # noqa: E402

#: (design, pattern, k, offered load, packet size[, fault percent]) rows
#: of the full matrix; the fault percent defaults to 0.  The NB
#: (nearest-neighbour) rows characterise sparse-activity workloads: short
#: paths and multi-flit packets concentrate traffic on
#: few routers at a time, leaving most of the mesh idle — where activity
#: scheduling pays (the larger the mesh, the larger the idle fraction:
#: the k=16 NB row is the headline >2x case).  The UR rows with 2-flit
#: packets are the diffuse
#: worst case (independent flits scatter over many paths, so at 0.1
#: flits/node/cycle roughly half the routers see work each cycle).
FULL_MATRIX = [
    ("dxbar_dor", "NB", 8, 0.02, 4),
    ("dxbar_dor", "NB", 8, 0.1, 4),
    ("dxbar_dor", "NB", 16, 0.1, 4),
    ("dxbar_dor", "UR", 8, 0.02, 2),
    ("dxbar_dor", "UR", 8, 0.1, 2),
    ("dxbar_dor", "UR", 8, 0.3, 2),
    ("flit_bless", "UR", 8, 0.1, 2),
    ("buffered4", "UR", 8, 0.1, 2),
    ("scarab", "UR", 8, 0.05, 2),
    # Vector-backend showcase rows: large mesh, realistic load — where the
    # per-flit object walk is slowest and whole-population kernels shine.
    ("flit_bless", "UR", 16, 0.1, 2),
    ("buffered4", "UR", 16, 0.1, 2),
    ("unified_dor", "UR", 8, 0.1, 2),
    ("unified_dor", "UR", 16, 0.1, 2),
    # The paper's Fig 7/8/11/12 load: the dual-crossbar designs against
    # the baselines near saturation, where the active walk has the least
    # idle work to skip.
    ("dxbar_dor", "UR", 8, 0.5, 2),
    ("unified_dor", "UR", 8, 0.5, 2),
    ("buffered4", "UR", 8, 0.5, 2),
    ("flit_bless", "UR", 8, 0.5, 2),
    # Every router faulty (the right end of Figs 11-12): after detection
    # the whole mesh runs the degraded buffered step.
    ("dxbar_dor", "UR", 8, 0.3, 2, 100),
]

QUICK_MATRIX = [
    ("dxbar_dor", "NB", 16, 0.1, 4),
    ("dxbar_dor", "UR", 8, 0.1, 2),
    ("flit_bless", "UR", 8, 0.1, 2),
    ("unified_dor", "UR", 8, 0.1, 2),
    ("dxbar_dor", "UR", 8, 0.3, 2, 100),
]


def cell(entry: tuple) -> tuple:
    """A matrix entry as (design, pattern, k, load, packet size, fault
    percent), the fault percent defaulting to 0."""
    return tuple(entry) + (0,) * (6 - len(entry))


def row_key(row: dict) -> tuple:
    """The identity of a result row; rows written before the fault column
    existed read as fault-free."""
    return (row["design"], row["pattern"], row["k"], row["offered_load"],
            row["packet_size"], row.get("faults", 0))


def run_once(design: str, pattern: str, k: int, load: float, ps: int,
             cycles: int, dense: bool, seed: int,
             backend: str = "object", faults: float = 0) -> tuple:
    """One timed run; returns (cycles/sec, final_cycle)."""
    cfg = SimConfig(
        design=design,
        k=k,
        pattern=pattern,
        offered_load=load,
        warmup_cycles=100,
        measure_cycles=cycles,
        drain_cycles=2000,
        packet_size=ps,
        seed=seed,
        backend=backend,
        faults=FaultConfig(percent=faults),
    )
    sim = Simulator(cfg)
    # Meaningful for the object walk only; the vector network carries an
    # inert compatibility attribute.
    sim.network.dense_step = dense
    t0 = time.perf_counter()
    result = sim.run()
    elapsed = time.perf_counter() - t0
    return result.final_cycle / elapsed, result.final_cycle


def bench_row(design: str, pattern: str, k: int, load: float, ps: int,
              cycles: int, repeats: int, seed: int, faults: float = 0) -> dict:
    """Median cycles/sec for each implementation, runs interleaved
    (a,d[,v],a,d[,v],...) so machine-level drift cancels."""
    has_vector = design_spec(design).supports_vector
    active, dense, vector = [], [], []
    final_cycle = 0
    for _ in range(repeats):
        cps, final_cycle = run_once(design, pattern, k, load, ps, cycles, False, seed,
                                    faults=faults)
        active.append(cps)
        cps, _ = run_once(design, pattern, k, load, ps, cycles, True, seed,
                          faults=faults)
        dense.append(cps)
        if has_vector:
            cps, _ = run_once(design, pattern, k, load, ps, cycles, False, seed,
                              backend="vector", faults=faults)
            vector.append(cps)
    active_cps = statistics.median(active)
    dense_cps = statistics.median(dense)
    vector_cps = statistics.median(vector) if vector else None
    # What backend="auto" would run for this cell (the vector_min_work
    # heuristic plus capability gating); recorded so --compare can assert
    # the heuristic never picks the slower implementation.
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        auto_backend = SimConfig(
            design=design, k=k, pattern=pattern, offered_load=load,
            packet_size=ps, backend="auto", faults=FaultConfig(percent=faults),
        ).resolved_backend()
    return {
        "design": design,
        "pattern": pattern,
        "k": k,
        "offered_load": load,
        "packet_size": ps,
        "faults": faults,
        "simulated_cycles": final_cycle,
        "repeats": repeats,
        "active_cycles_per_sec": round(active_cps, 1),
        "dense_cycles_per_sec": round(dense_cps, 1),
        "speedup": round(active_cps / dense_cps, 3),
        "vector_cycles_per_sec": (
            round(vector_cps, 1) if vector_cps is not None else None
        ),
        # Vector speedup is quoted against the *active* walk — the fastest
        # object-model implementation, i.e. the honest baseline.
        "vector_speedup": (
            round(vector_cps / active_cps, 3) if vector_cps is not None else None
        ),
        "auto_backend": auto_backend,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--quick", action="store_true",
                    help="small matrix and short runs (CI smoke)")
    ap.add_argument("--out", default="BENCH_sim_perf.json",
                    help="output JSON path (default: %(default)s)")
    ap.add_argument("--cycles", type=int, default=None,
                    help="measurement cycles per run (default 4000, quick 1200)")
    ap.add_argument("--repeats", type=int, default=3,
                    help="runs per (config, walk) cell; median wins")
    ap.add_argument("--check", action="store_true",
                    help="exit 1 if the active walk falls below 0.85x dense "
                    "on any 0.1-offered-load row")
    ap.add_argument("--compare", metavar="BASELINE", default=None,
                    help="regression-gate against a previous run's JSON: "
                    "exit 1 when any matched row's active (or vector, "
                    "where the baseline has one) cycles/sec falls below "
                    "tolerance x baseline")
    ap.add_argument("--tolerance", type=float, default=0.5,
                    help="fraction of the baseline's active cycles/sec a "
                    "row must reach under --compare (default: %(default)s)")
    args = ap.parse_args(argv)

    matrix = QUICK_MATRIX if args.quick else FULL_MATRIX
    cycles = args.cycles if args.cycles is not None else (1200 if args.quick else 4000)

    # Load the baseline before any writing: the default --out path is the
    # baseline path, and comparing against a file we just overwrote would
    # gate nothing.
    baseline_rows = {}
    if args.compare:
        baseline = json.loads(Path(args.compare).read_text())
        baseline_rows = {row_key(r): r for r in baseline["results"]}

    rows = []
    for entry in matrix:
        design, pattern, k, load, ps, faults = cell(entry)
        row = bench_row(design, pattern, k, load, ps, cycles, args.repeats, seed=7,
                        faults=faults)
        rows.append(row)
        vec = (
            f" vector={row['vector_cycles_per_sec']:>10,.0f} c/s "
            f"({row['vector_speedup']:.1f}x active)"
            if row["vector_cycles_per_sec"] is not None
            else ""
        )
        print(
            f"{design:>11} {pattern:>3} k={k} load={load:<5} ps={ps} "
            + (f"faults={faults}% " if faults else "")
            + f"active={row['active_cycles_per_sec']:>10,.0f} c/s "
            f"dense={row['dense_cycles_per_sec']:>10,.0f} c/s "
            f"speedup={row['speedup']:.2f}x{vec}"
        )

    payload = {
        "benchmark": "sim_perf",
        "mode": "quick" if args.quick else "full",
        "python": platform.python_version(),
        "platform": platform.platform(),
        "measure_cycles": cycles,
        "results": rows,
    }
    out = Path(args.out)
    out.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {out}")

    if args.check:
        gated = [r for r in rows if r["offered_load"] == 0.1]
        if not gated:
            # A matrix edit (or a custom --quick variant) with no 0.1-load
            # rows must fail loudly, not pass a gate that matched nothing.
            print("FAIL: no 0.1-offered-load rows in this matrix; "
                  "the --check gate matched nothing", file=sys.stderr)
            return 1
        # 0.85 rather than 1.0: saturated rows (k=16 UR at 0.1) run the two
        # walks at parity, so strict >= 1.0 would gate on machine noise.
        bad = [r for r in gated if r["speedup"] < 0.85]
        if bad:
            for r in bad:
                print(
                    f"FAIL: {r['design']}/{r['pattern']} k={r['k']} at load 0.1: "
                    f"active walk is {r['speedup']:.2f}x dense (< 0.85)",
                    file=sys.stderr,
                )
            return 1
        print("check passed: active >= 0.85x dense on every 0.1-load row")

    if args.compare:
        # The auto-backend mis-selection gate: on every row that has both
        # implementations measured, backend="auto" must have resolved to
        # the one that is not slower.  Slack on both sides — 0.95 for a
        # chosen vector kernel, 1.15 for a forgone one — keeps machine
        # noise near the vector_min_work crossover from flapping the gate
        # (rows at the crossover run the two backends at parity; the bug
        # this catches is the 0.4x-speedup class of mis-selection).
        mispicks = []
        for row in rows:
            vs = row["vector_speedup"]
            if vs is None:
                continue
            if row["auto_backend"] == "vector" and vs < 0.95:
                mispicks.append((row, f"auto picked vector but it runs at "
                                 f"{vs:.2f}x the active walk"))
            elif row["auto_backend"] == "object" and vs > 1.15:
                mispicks.append((row, f"auto kept the object walk but the "
                                 f"vector kernel runs at {vs:.2f}x"))
        for row, why in mispicks:
            print(
                f"FAIL: {row['design']}/{row['pattern']} k={row['k']} "
                f"load={row['offered_load']}: {why}",
                file=sys.stderr,
            )
        if mispicks:
            return 1
        regressions = []
        matched = 0
        for row in rows:
            key = row_key(row)
            base = baseline_rows.get(key)
            if base is None:
                continue
            matched += 1
            floor = args.tolerance * base["active_cycles_per_sec"]
            if row["active_cycles_per_sec"] < floor:
                regressions.append((key, "active", row, base))
            # Gate the vector backend too; rows whose baseline predates
            # vectorization (null) are skipped, but a design that *had* a
            # vector kernel and lost it (row null, baseline not) is a
            # regression — exactly the silent fallback this gate exists
            # to catch.
            base_vec = base.get("vector_cycles_per_sec")
            if base_vec is not None:
                vec = row["vector_cycles_per_sec"]
                if vec is None or vec < args.tolerance * base_vec:
                    regressions.append((key, "vector", row, base))
        for key, kind, row, base in regressions:
            design, pattern, k, load, ps, faults = key
            have = row[f"{kind}_cycles_per_sec"]
            print(
                f"FAIL: {design}/{pattern} k={k} load={load} ps={ps} "
                f"faults={faults}%: {kind} "
                + (f"{have:,.0f} c/s" if have is not None else "backend lost (null)")
                + f" < {args.tolerance:.0%} of baseline "
                f"{base[f'{kind}_cycles_per_sec']:,.0f} c/s",
                file=sys.stderr,
            )
        if regressions:
            return 1
        if matched == 0:
            print(f"FAIL: no rows of this matrix appear in {args.compare}",
                  file=sys.stderr)
            return 1
        print(
            f"compare passed: {matched} row(s) within {args.tolerance:.0%} "
            f"of {args.compare}"
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
