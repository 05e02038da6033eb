#!/usr/bin/env python
"""Simulator-throughput benchmark: activity-scheduled vs dense stepping,
plus the vectorized (SoA) backend where a design has one.

Measures wall-clock cycles/sec of the same configuration under the
bit-exact network walks (chosen by the busy-switch thresholds
``BUSY_*_PER_ROUTER`` in ``repro.sim.network``) across a design x load
matrix — and, for designs with a vectorized kernel
(``backend="vector"``), a third bit-exact implementation — and writes a
machine-readable ``BENCH_sim_perf.json``.  Rows without a vector kernel
report ``null`` in the vector columns.

Unlike the ``bench_fig*`` suite (which reproduces the paper's figures),
this benchmark characterises the *simulator*, so it runs standalone:

    PYTHONPATH=src python benchmarks/bench_perf.py --quick

The "active" columns time the default walk: activity-scheduled while
the mesh is sparse, the node-ordered full walk while it is busy (the
``BUSY_*_PER_ROUTER`` switch in ``repro.sim.network``); the "sparse"
columns time the activity-scheduled walk alone (switch disabled), the
"dense" columns the full walk on every cycle (both thresholds 0).
``switch_speedup`` is active over sparse and ``busy_share`` the share of
cycles the default walk spent in the full walk, so each row shows what
the switch costs or saves.  A row the switch never engages on
(``busy_share`` 0) runs the same walk either way, so both columns are
null.  ``switch_speedup`` is reported, not gated: on a row the switch
barely touches it is run-to-run noise (a ``buffered4`` FFT row at 3%
busy has read 0.87x).

``--check`` exits non-zero when the default walk falls materially behind
the dense walk on any row (the CI perf-smoke gate).  The floor is 0.85x
rather than 1.0x: busy rows run the two walks at parity (the default
walk *is* the full walk there), so a strict >= 1.0 gate would fail on
machine noise.
Each cell reports the median of ``--repeats`` lockstep runs.  A lockstep
run builds every variant of the row (default, sparse and dense walks,
and the vector backend where there is a kernel) in one process and
steps them ``ROUND`` cycles at a time, in a shuffled order each round,
with the garbage collector paused, summing each variant's own step
time: drift on a shared host lands on every variant alike, so the
ratios cancel it.

Rows may carry a sixth column, the percentage of routers given a
whole-crossbar fault (default 0); the 100% row times the degraded
buffered step of the dual-crossbar designs.  ``TRACE_MATRIX`` rows replay
a SPLASH-2 trace as the quick-scale Fig. 9 cells do (``pattern`` names
the app, ``offered_load`` is null and ``trace_flits_per_cycle`` is the
rate the ``auto`` rule weighs), so the mis-selection gate below covers
the trace rule too.

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
import gc
import json
import math
import platform
import random
import statistics
import sys
import time
import warnings
from pathlib import Path
from unittest import mock

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.analysis.experiments import SCALES, splash_cell  # noqa: E402
from repro.registry import design_spec  # noqa: E402
from repro.sim import network as network_mod  # noqa: E402
from repro.runner.spec import materialize_workload  # noqa: E402
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
    ("unified_dor", "UR", 8, 0.3, 2, 100),
]

QUICK_MATRIX = [
    ("dxbar_dor", "NB", 16, 0.1, 4),
    ("dxbar_dor", "UR", 8, 0.1, 2),
    ("flit_bless", "UR", 8, 0.1, 2),
    ("unified_dor", "UR", 8, 0.1, 2),
    ("dxbar_dor", "UR", 8, 0.3, 2, 100),
    # Busy rows, where the default walk runs the full walk.
    ("dxbar_dor", "UR", 8, 0.5, 2),
    ("unified_dor", "UR", 8, 0.3, 2, 100),
]

#: (design, SPLASH-2 app) trace-replay rows of both matrices: the
#: quick-scale Fig. 9 cells.  FFT (about 3 flits/cycle) sits below
#: flit_bless's vector_min_work, Ocean (about 14) above it.
TRACE_MATRIX = [
    ("flit_bless", "FFT"),
    ("flit_bless", "Ocean"),
    ("buffered4", "FFT"),
    ("buffered4", "Ocean"),
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


def build(cfg: SimConfig, walk: str, workload_spec=None) -> Simulator:
    """A simulator on ``walk`` (``"active"``: the default walk;
    ``"sparse"``: the default walk with the busy switch disabled;
    ``"dense"``: the full walk on every cycle)."""
    enter = network_mod.BUSY_ENTER_PER_ROUTER
    exit_ = network_mod.BUSY_EXIT_PER_ROUTER
    if walk == "sparse":
        enter = math.inf
    elif walk == "dense":
        enter = exit_ = 0.0
    # The thresholds are read at network construction (the vector network
    # has one walk and ignores them).
    with mock.patch.object(network_mod, "BUSY_ENTER_PER_ROUTER", enter), \
            mock.patch.object(network_mod, "BUSY_EXIT_PER_ROUTER", exit_):
        return Simulator(cfg, materialize_workload(workload_spec, cfg))


def finished(sim: Simulator) -> bool:
    """``Simulator.run``'s stop rule, checked after each cycle."""
    cfg, cycle = sim.config, sim.network.cycle
    if cfg.max_cycles is None:
        return cycle >= cfg.total_cycles or (
            cycle >= cfg.warmup_cycles + cfg.measure_cycles
            and sim.stats.measured_pending == 0)
    return cycle >= cfg.max_cycles or (sim.workload.done() and sim.network.quiescent())


#: Cycles a variant steps per turn of a lockstep run.  One-cycle turns
#: refill each variant's caches after every switch, which on the
#: flit_bless Ocean row (the mis-selection gate's crossover) read the
#: vector kernel at 0.86-0.96x the active walk against 0.98-1.01x at 16
#: cycles.  A turn of 16 cycles lasts a few ms; a shared host's drift
#: moves over seconds, so it still lands on every variant alike.
ROUND = 16


def lockstep(sims: dict, rng: random.Random) -> dict:
    """Step every simulator ``ROUND`` cycles at a time, in a shuffled order
    each round, until all stop; returns each one's summed step seconds."""
    elapsed = dict.fromkeys(sims, 0.0)
    running = list(sims)
    while running:
        rng.shuffle(running)
        for name in running:
            sim = sims[name]
            network, workload = sim.network, sim.workload
            t0 = time.perf_counter()
            for _ in range(ROUND):
                workload.tick(network.cycle, network)
                network.step()
                if finished(sim):
                    break
            elapsed[name] += time.perf_counter() - t0
        running = [name for name in running if not finished(sims[name])]
    return elapsed


def measure(cfg: SimConfig, repeats: int, workload_spec=None) -> dict:
    """Median cycles/sec of each implementation over ``repeats`` lockstep
    runs of every variant (default, sparse and dense walks, and the vector
    backend where the design has one)."""
    variants = {walk: (cfg, walk) for walk in ("active", "sparse", "dense")}
    if design_spec(cfg.design).supports_vector:
        variants["vector"] = (cfg.with_(backend="vector"), "active")
    rng = random.Random(7)
    samples = {name: [] for name in variants}
    for _ in range(repeats):
        sims = {name: build(c, walk, workload_spec) for name, (c, walk) in variants.items()}
        # A collection walks every variant's heap but is charged to the one
        # whose allocation triggered it: on a 97%-busy row, where default
        # and dense run the same walk, that swung their ratio by 5-10%.
        gc.collect()
        gc.disable()
        try:
            elapsed = lockstep(sims, rng)
        finally:
            gc.enable()
        # Walks are bit-exact, so every variant stops at the same cycle.
        final_cycle = sims["dense"].network.cycle
        assert all(sim.network.cycle == final_cycle for sim in sims.values())
        for name, seconds in elapsed.items():
            samples[name].append(final_cycle / seconds)
    busy = sims["active"].network.busy_cycles
    cps = {name: statistics.median(values) for name, values in samples.items()}
    active_cps, dense_cps, vector_cps = cps["active"], cps["dense"], cps.get("vector")
    # With no busy cycle the default walk *is* the switch-off walk.
    sparse_cps = cps["sparse"] if busy else None
    # What backend="auto" would run for this cell (the vector_min_work
    # rule on the workload's rate, plus capability gating); recorded so
    # --compare can assert the rule never picks the slower implementation.
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        auto_backend = cfg.with_(backend="auto").resolved_backend(
            materialize_workload(workload_spec, cfg)
        )
    return {
        "simulated_cycles": final_cycle,
        "repeats": repeats,
        "active_cycles_per_sec": round(active_cps, 1),
        "sparse_cycles_per_sec": (
            round(sparse_cps, 1) if sparse_cps is not None else None
        ),
        "dense_cycles_per_sec": round(dense_cps, 1),
        "speedup": round(active_cps / dense_cps, 3),
        # The busy switch's own effect: the default walk against the
        # activity-scheduled walk alone (null when the switch never
        # engaged), and the share of cycles spent in the full walk.
        "switch_speedup": (
            round(active_cps / sparse_cps, 3) if sparse_cps is not None else None
        ),
        "busy_share": round(busy / final_cycle, 3),
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


def bench_row(design: str, pattern: str, k: int, load: float, ps: int,
              cycles: int, repeats: int, seed: int, faults: float = 0) -> dict:
    """One open-loop row of the matrix."""
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
        faults=FaultConfig(percent=faults),
    )
    return {
        "design": design,
        "pattern": pattern,
        "k": k,
        "offered_load": load,
        "packet_size": ps,
        "faults": faults,
        **measure(cfg, repeats),
    }


def bench_trace_row(design: str, app: str, repeats: int) -> dict:
    """One SPLASH-2 trace-replay row: the quick-scale Fig. 9 cell."""
    spec = splash_cell(SCALES["quick"], app, design)
    cfg = spec.config
    rate = materialize_workload(spec.workload, cfg).flits_per_cycle()
    return {
        "design": design,
        "pattern": app,
        "k": cfg.k,
        "offered_load": None,
        "packet_size": None,
        "faults": 0,
        "trace_flits_per_cycle": round(rate, 3),
        **measure(cfg, repeats, spec.workload),
    }


def _row_label(row: dict) -> str:
    if row["offered_load"] is None:
        return (f"{row['design']:>11} {row['pattern']:>5} k={row['k']} "
                f"trace ({row['trace_flits_per_cycle']:.2f} flits/cycle)")
    return (f"{row['design']:>11} {row['pattern']:>5} k={row['k']} "
            f"load={row['offered_load']:<5} ps={row['packet_size']}"
            + (f" faults={row['faults']}%" if row["faults"] else ""))


def _print_row(row: dict) -> None:
    switch = (
        f"switch {row['switch_speedup']:.2f}x, "
        if row["switch_speedup"] is not None
        else ""
    )
    vec = (
        f" vector={row['vector_cycles_per_sec']:>10,.0f} c/s "
        f"({row['vector_speedup']:.1f}x active)"
        if row["vector_cycles_per_sec"] is not None
        else ""
    )
    print(
        f"{_row_label(row)} "
        f"active={row['active_cycles_per_sec']:>10,.0f} c/s "
        f"dense={row['dense_cycles_per_sec']:>10,.0f} c/s "
        f"speedup={row['speedup']:.2f}x "
        f"({switch}busy {row['busy_share']:.0%}){vec}"
    )


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--quick", action="store_true",
                    help="small matrix and short runs (CI smoke)")
    ap.add_argument("--out", default="BENCH_sim_perf.json",
                    help="output JSON path (default: %(default)s)")
    ap.add_argument("--cycles", type=int, default=None,
                    help="measurement cycles per run (default 4000, quick 1200)")
    ap.add_argument("--repeats", type=int, default=3,
                    help="lockstep runs per row; median wins")
    ap.add_argument("--check", action="store_true",
                    help="exit 1 if the default walk falls below 0.85x dense "
                    "on any row")
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
        rows.append(bench_row(design, pattern, k, load, ps, cycles, args.repeats,
                              seed=7, faults=faults))
        _print_row(rows[-1])
    for design, app in TRACE_MATRIX:
        rows.append(bench_trace_row(design, app, args.repeats))
        _print_row(rows[-1])

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
        # 0.85 rather than 1.0: busy rows run the two walks at parity (the
        # default walk is the full walk there), so strict >= 1.0 would
        # gate on machine noise.
        bad = [r for r in rows if r["speedup"] < 0.85]
        if bad:
            for r in bad:
                print(
                    f"FAIL: {_row_label(r).strip()}: default walk is "
                    f"{r['speedup']:.2f}x dense (< 0.85)",
                    file=sys.stderr,
                )
            return 1
        print("check passed: default walk >= 0.85x dense on every row")

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
            print(f"FAIL: {_row_label(row).strip()}: {why}", file=sys.stderr)
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
            have = row[f"{kind}_cycles_per_sec"]
            print(
                f"FAIL: {_row_label(row).strip()}: {kind} "
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
