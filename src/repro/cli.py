"""Command-line interface.

Run as ``python -m repro <command>``:

* ``run`` — one simulation, printing the result summary;
* ``sweep`` — an offered-load sweep for one or more designs;
* ``figure`` — regenerate one registered table/figure (the paper's, or
  an ablation, extension or mesh-scaling figure);
* ``saturate`` — adaptive per-design saturation-point search;
* ``status`` / ``tail`` — inspect a fleet run journal (one-shot summary
  / live follow of a running campaign); on a campaign directory
  ``status`` also prints the manifest's completion line;
* ``designs`` / ``patterns`` — list what's available.

Every command that simulates goes through :func:`repro.runner.run_specs`,
and each keeps its state in one run directory, ``--root DIR``
(:func:`repro.runner.rundir.run_paths`): results are cached under
``DIR/cache`` (completed runs are skipped), events are journaled under
``DIR/journal`` (``repro status DIR``) and, with ``--checkpoint-every N``,
``run`` and ``sweep`` snapshot each job under ``DIR/checkpoints`` through
:mod:`repro.checkpoint`.  A killed run resumes bit-exactly from its
latest snapshot when the same command is run again.  Without ``--root``,
``run``, ``sweep`` and ``figure`` keep nothing.  ``sweep`` and ``figure``
accept ``--jobs N`` (process-parallel execution); ``run`` and ``sweep``
accept ``--audit`` (per-cycle invariant auditing through
:mod:`repro.audit`; ``--audit-report DIR`` writes any violation as a JSON
report).  Design and pattern choices come from the plugin registries; set
``REPRO_PLUGINS`` to a comma-separated list of importable modules to load
out-of-tree designs or patterns before the parser is built::

    REPRO_PLUGINS=my_designs python -m repro run --design my_dxbar

Examples::

    python -m repro run --design dxbar_dor --pattern UR --load 0.3
    python -m repro run --design dxbar_dor --load 0.1 --json
    python -m repro run --trace events.jsonl --metrics-out metrics.json --profile
    python -m repro run --checkpoint-every 500 --root runs --json
    python -m repro run --design unified_wf --faults 100 --audit
    python -m repro sweep --designs dxbar_dor buffered8 --loads 0.1 0.3 0.5 --jobs 4
    python -m repro sweep --jobs 4 --root runs
    python -m repro saturate --design dxbar_dor --pattern UR -k 8
    python -m repro saturate --root sat-all --design dxbar_dor unified_dor \
        --jobs 4 --speculation 3
    python -m repro status runs
    python -m repro tail runs --follow
    python -m repro figure fig5 --scale quick --jobs 4 --root figures
    python -m repro status figures
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import sys
from pathlib import Path
from typing import List, Optional

from .analysis.experiments import ALL_EXPERIMENTS, SCALES
from .analysis.report import render_figure, render_table
from .analysis.sweep import sweep_designs
from .audit import AuditConfig
from .designs import DESIGN_LABELS
from .registry import design_names, pattern_names
from .runner import RunSpec, run_specs
from .runner.rundir import MANIFEST_NAME, run_paths
from .sim.config import KNOWN_BACKENDS, FaultConfig, SimConfig, TelemetryConfig


def load_plugins(spec: Optional[str] = None) -> None:
    """Import the comma-separated modules named by ``spec`` (defaults to
    the ``REPRO_PLUGINS`` environment variable) so their registry entries
    exist before the argument parser computes its choices."""
    spec = spec if spec is not None else os.environ.get("REPRO_PLUGINS", "")
    for module in filter(None, (m.strip() for m in spec.split(","))):
        importlib.import_module(module)


def _add_sim_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--pattern", default="UR", choices=pattern_names())
    p.add_argument("--k", type=int, default=8, help="mesh radix")
    p.add_argument("--warmup", type=int, default=500)
    p.add_argument("--measure", type=int, default=2000)
    p.add_argument("--drain", type=int, default=500)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--packet-size", type=int, default=4)
    p.add_argument("--faults", type=float, default=0.0, help="crossbar fault percent")
    p.add_argument(
        "--backend", default="object", choices=list(KNOWN_BACKENDS),
        help="simulation backend: the object walk, the vectorized kernels "
             "(piloted designs only), or auto (vector when supported, "
             "object otherwise)",
    )


def _add_root_args(p: argparse.ArgumentParser) -> None:
    g = p.add_argument_group("run directory (repro.runner)")
    g.add_argument(
        "--root", metavar="DIR", default=None,
        help="keep the run's state in DIR: results cached under DIR/cache "
             "(completed runs are skipped), events journaled under "
             "DIR/journal ('repro status DIR' / 'repro tail DIR --follow'); "
             "without it nothing is kept",
    )
    g.add_argument(
        "--checkpoint-every", type=int, default=0, metavar="N",
        help="snapshot full simulator state every N cycles under "
             "DIR/checkpoints/<job id> (0 = off; needs --root); re-running "
             "a killed command resumes from its newest snapshot",
    )


def _add_audit_args(p: argparse.ArgumentParser) -> None:
    g = p.add_argument_group("invariant auditing (repro.audit; off by default)")
    g.add_argument(
        "--audit", action="store_true",
        help="re-verify flit/credit conservation, movement legality, "
             "progress and design postconditions every cycle; the first "
             "violation aborts the run with a localised report",
    )
    g.add_argument(
        "--audit-report", metavar="DIR", default=None,
        help="also write any violation as a JSON report under DIR "
             "(implies --audit)",
    )
    g.add_argument(
        "--audit-max-age", type=int, default=1000, metavar="N",
        help="in-network cycles a flit may age before the livelock "
             "watchdog fires (0 = off; default 1000)",
    )


def _audit_from(args):
    """False when auditing is off, else the AuditConfig for this run."""
    if not (getattr(args, "audit", False) or getattr(args, "audit_report", None)):
        return False
    return AuditConfig(
        max_age=getattr(args, "audit_max_age", 1000),
        report_dir=getattr(args, "audit_report", None),
    )


def _add_telemetry_args(p: argparse.ArgumentParser) -> None:
    g = p.add_argument_group("telemetry (repro.obs; all off by default)")
    g.add_argument(
        "--trace", metavar="FILE", default=None,
        help="write flit-lifecycle events to FILE as JSONL",
    )
    g.add_argument(
        "--metrics-interval", type=int, default=0, metavar="N",
        help="sample per-router metrics every N cycles (0 = off)",
    )
    g.add_argument(
        "--metrics-out", metavar="FILE", default=None,
        help="write the sampled metrics frame to FILE as JSON "
             "(defaults --metrics-interval to 100 when omitted)",
    )
    g.add_argument(
        "--profile", action="store_true",
        help="wall-clock-profile workload.tick / network.step / stats phases",
    )


def _telemetry_from(args) -> TelemetryConfig:
    interval = getattr(args, "metrics_interval", 0)
    metrics_out = getattr(args, "metrics_out", None)
    if metrics_out and not interval:
        interval = 100
    return TelemetryConfig(
        trace_path=getattr(args, "trace", None),
        metrics_interval=interval,
        metrics_path=metrics_out,
        profile=getattr(args, "profile", False),
    )


def _config_from(args, **fields) -> SimConfig:
    return SimConfig(
        pattern=args.pattern,
        k=args.k,
        warmup_cycles=args.warmup,
        measure_cycles=args.measure,
        drain_cycles=args.drain,
        seed=args.seed,
        packet_size=args.packet_size,
        faults=FaultConfig(percent=args.faults),
        telemetry=_telemetry_from(args),
        backend=getattr(args, "backend", "object"),
        **fields,
    )


def _checkpoints_need_root(args) -> bool:
    """Report ``--checkpoint-every`` without ``--root`` (the snapshots
    would have nowhere to go); True when the command must stop."""
    if args.checkpoint_every > 0 and args.root is None:
        print(f"repro {args.command}: --checkpoint-every needs --root DIR",
              file=sys.stderr)
        return True
    return False


def cmd_run(args) -> int:
    if _checkpoints_need_root(args):
        return 2
    config = _config_from(args, design=args.design, offered_load=args.load)
    outcome = run_specs(
        [RunSpec(config)],
        root=args.root,
        checkpoint_every=args.checkpoint_every,
        audit=_audit_from(args),
    )[0]
    if not outcome.ok:
        print(f"repro run: job failed: {outcome.error}", file=sys.stderr)
        return 1
    result = outcome.result
    if args.json:
        print(result.to_json())
        return 0
    rows = [
        ["accepted load", f"{result.accepted_load:.4f}"],
        ["avg flit latency (cycles)", f"{result.avg_flit_latency:.2f}"],
        ["avg packet latency (cycles)", f"{result.avg_packet_latency:.2f}"],
        ["avg hops", f"{result.avg_hops:.2f}"],
        ["energy (nJ/packet)", f"{result.energy_per_packet_nj:.3f}"],
        ["deflections/flit", f"{result.deflections_per_flit:.3f}"],
        ["buffered fraction of hops", f"{result.buffered_fraction:.3f}"],
        ["drops", result.drops],
        ["retransmissions", result.retransmissions],
        ["fairness flips", result.fairness_flips],
    ]
    suffix = " (cached)" if outcome.cached else ""
    label = DESIGN_LABELS.get(config.design, config.design)
    print(f"{label} | {config.pattern} @ {config.offered_load}{suffix}")
    print(render_table(["metric", "value"], rows))
    profile = result.extra.get("profile")
    if profile:
        named = list(profile.items()) + [
            (f"{ph}/{part}", p) for ph, d in profile.items()
            for part, p in d.get("parts", {}).items()
        ]
        prows = [
            [name, f"{d['seconds']:.3f}", d["calls"], f"{d['share']:.1%}"]
            for name, d in named
        ]
        print("\nprofile")
        print(render_table(["phase", "seconds", "calls", "share"], prows))
    return 0


def cmd_sweep(args) -> int:
    if _checkpoints_need_root(args):
        return 2
    out = sweep_designs(
        args.designs,
        args.loads,
        base=_config_from(args, design=args.designs[0]),
        jobs=args.jobs,
        root=args.root,
        checkpoint_every=args.checkpoint_every,
        audit=_audit_from(args),
    )
    if args.json:
        payload = {
            "loads": list(args.loads),
            "designs": list(args.designs),
            "results": {
                d: [r.to_dict() for r in out[d].results] for d in args.designs
            },
        }
        print(json.dumps(payload))
        return 0
    headers = ["offered"] + [DESIGN_LABELS[d] for d in args.designs]
    acc_rows, lat_rows, e_rows = [], [], []
    for i, load in enumerate(args.loads):
        acc_rows.append([load] + [out[d].accepted[i] for d in args.designs])
        lat_rows.append([load] + [out[d].latency[i] for d in args.designs])
        e_rows.append([load] + [out[d].energy_per_packet[i] for d in args.designs])
    print("accepted load")
    print(render_table(headers, acc_rows))
    print("\navg flit latency (cycles)")
    print(render_table(headers, lat_rows, floatfmt=".1f"))
    print("\nenergy (nJ/packet)")
    print(render_table(headers, e_rows))
    return 0


def cmd_figure(args) -> int:
    fig = ALL_EXPERIMENTS[args.name](SCALES[args.scale], jobs=args.jobs, root=args.root)
    print(render_figure(fig))
    return 0


def _journal_path(path: Path) -> Path:
    """Resolve a journal argument: a run directory (campaign, saturation
    search or figure root) with a ``journal/`` subdirectory means the
    journal inside it — so ``repro status <root>`` works on run
    directories directly."""
    journal = run_paths(path).journal
    return journal if journal.is_dir() else path


def _holds_campaign(root: Path) -> bool:
    """Whether ``root`` has a campaign manifest (one naming a
    ``campaign_id``; a saturation search's names a ``search_id``)."""
    try:
        manifest = json.loads((root / MANIFEST_NAME).read_text())
    except (OSError, ValueError):
        return False
    return isinstance(manifest, dict) and "campaign_id" in manifest


def cmd_status(args) -> int:
    from .obs import campaign_status, render_status

    root = Path(args.journal)
    progress = None
    if _holds_campaign(root):
        from .campaign import CampaignError, campaign_progress

        try:
            progress = campaign_progress(root)
        except CampaignError as exc:
            print(f"repro status: {exc}", file=sys.stderr)
            return 1
    path = _journal_path(root)
    if not path.exists() and progress is None:
        print(f"repro status: no journal at {path}", file=sys.stderr)
        return 1
    status = campaign_status(path if path.exists() else [])
    if args.json:
        payload = {"campaign": status.to_dict(), "metrics": status.metrics()}
        if progress is not None:
            payload["progress"] = progress
        print(json.dumps(payload))
        return 0
    if progress is not None:
        print(
            f"campaign {progress['campaign_id']} at {progress['root']}: "
            f"{progress['completed']}/{progress['total']} jobs complete "
            f"({progress['fraction']:.1%})"
        )
    print(render_status(status, max_rows=args.rows))
    return 0


def cmd_tail(args) -> int:
    import time as _time

    from .obs import campaign_status, merge_journal, render_tail

    path = _journal_path(Path(args.journal))
    if not path.exists() and not args.follow:
        print(f"repro tail: no journal at {path}", file=sys.stderr)
        return 1
    while True:
        events = merge_journal(path) if path.exists() else []
        status = campaign_status(events)
        print(render_tail(status, events, lines=args.lines))
        if not args.follow or status.finished:
            return 0
        _time.sleep(args.interval)
        print()


def cmd_saturate(args) -> int:
    from .analysis.saturation import render_saturation
    from .runner.saturation import SaturationError, SaturationSpec, run_saturation

    if args.resume:
        spec = None
    else:
        sim = {}
        if args.warmup is not None:
            sim["warmup_cycles"] = args.warmup
        if args.measure is not None:
            sim["measure_cycles"] = args.measure
        if args.drain is not None:
            sim["drain_cycles"] = args.drain
        if args.packet_size is not None:
            sim["packet_size"] = args.packet_size
        try:
            spec = SaturationSpec(
                designs=tuple(args.design),
                k=args.k,
                pattern=args.pattern,
                criterion=args.criterion,
                threshold=args.threshold,
                latency_factor=args.latency_factor,
                tolerance=args.tolerance,
                min_load=args.min_load,
                max_load=args.max_load,
                seed=args.seed,
                max_widenings=args.max_widenings,
                sim=sim,
            )
        except ValueError as exc:
            print(f"repro saturate: {exc}", file=sys.stderr)
            return 1

    progress = None
    if not args.quiet:
        def progress(done, total, outcome):
            if done == total:
                print(f"saturate: probe round finished ({total} probes)",
                      file=sys.stderr)

    try:
        run = run_saturation(
            args.root,
            spec,
            jobs=args.jobs,
            speculation=args.speculation,
            retries=args.retries,
            job_timeout=args.job_timeout,
            audit=_audit_from(args),
            progress=progress,
        )
    except SaturationError as exc:
        print(f"repro saturate: {exc}", file=sys.stderr)
        return 1
    if args.json:
        print(json.dumps(run.payload, sort_keys=True))
    else:
        print(render_saturation(run.payload))
        if run.failures:
            print(f"\n{len(run.failures)} design search(es) failed:",
                  file=sys.stderr)
            for design, error in run.failures:
                print(f"  {design}: {error}", file=sys.stderr)
    return 1 if run.failures else 0


def cmd_campaign_run(args) -> int:
    from .campaign import CampaignError, CampaignSpec, run_campaign

    if args.resume:
        spec = None
    else:
        sim = {}
        if args.warmup is not None:
            sim["warmup_cycles"] = args.warmup
        if args.measure is not None:
            sim["measure_cycles"] = args.measure
        if args.drain is not None:
            sim["drain_cycles"] = args.drain
        if args.sim_seed is not None:
            sim["seed"] = args.sim_seed
        try:
            spec = CampaignSpec(
                designs=tuple(args.designs),
                loads=tuple(args.loads),
                percents=tuple(args.percents),
                samples=args.samples,
                seed=args.seed,
                k=args.k,
                pattern=args.pattern,
                granularity=args.granularity,
                weighting=args.weighting,
                manifest_phase=args.manifest_phase,
                manifest_at=args.manifest_at,
                detection_cycles=args.detection_cycles,
                sim=sim,
            )
        except ValueError as exc:
            print(f"repro campaign run: {exc}", file=sys.stderr)
            return 1

    progress = None
    if not args.quiet:
        def progress(done, total, outcome):
            step = max(1, total // 20)
            if done % step == 0 or done == total:
                print(f"campaign: {done}/{total} jobs done", file=sys.stderr)

    try:
        result = run_campaign(
            args.root,
            spec,
            jobs=args.jobs,
            threshold=args.threshold,
            retries=args.retries,
            job_timeout=args.job_timeout,
            checkpoint_every=args.checkpoint_every,
            audit=_audit_from(args),
            progress=progress,
        )
    except CampaignError as exc:
        print(f"repro campaign run: {exc}", file=sys.stderr)
        return 1
    if args.json:
        print(json.dumps(result.payload, sort_keys=True))
    else:
        from .analysis.reliability import render_reliability

        print(render_reliability(result.report))
        if result.failures:
            print(f"\n{len(result.failures)} job(s) failed terminally:",
                  file=sys.stderr)
            for job_id, error in result.failures:
                print(f"  {job_id}: {error}", file=sys.stderr)
    return 1 if result.failures else 0


def cmd_campaign_report(args) -> int:
    from .analysis.reliability import render_reliability
    from .campaign import CampaignError, campaign_report

    try:
        result = campaign_report(args.root, threshold=args.threshold)
    except CampaignError as exc:
        print(f"repro campaign report: {exc}", file=sys.stderr)
        return 1
    if args.json:
        print(json.dumps(result.payload, sort_keys=True))
        return 0
    pending = result.payload["jobs_pending"]
    if pending:
        print(f"note: {pending} job(s) not yet in the cache; "
              f"the report covers completed cells only", file=sys.stderr)
    print(render_reliability(result.report))
    return 0


def cmd_designs(args) -> int:
    for d in design_names():
        print(f"{d:12s} {DESIGN_LABELS[d]}")
    return 0


def cmd_patterns(args) -> int:
    print(" ".join(pattern_names()))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="DXbar NoC reproduction toolkit"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # No abbreviated flags on run and sweep: ``sweep --design``/``--load``
    # would otherwise still parse, as prefixes of ``--designs``/``--loads``.
    p = sub.add_parser("run", help="run one simulation", allow_abbrev=False)
    p.add_argument("--design", default="dxbar_dor", choices=design_names())
    p.add_argument("--load", type=float, default=0.3,
                   help="offered load (flits/node/cycle)")
    _add_sim_args(p)
    _add_root_args(p)
    _add_telemetry_args(p)
    _add_audit_args(p)
    p.add_argument("--json", action="store_true",
                   help="print the SimResult as one JSON object")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("sweep", help="offered-load sweep", allow_abbrev=False)
    p.add_argument("--designs", nargs="+", default=["dxbar_dor", "buffered4"],
                   choices=design_names())
    p.add_argument("--loads", nargs="+", type=float, default=[0.1, 0.3, 0.5])
    _add_sim_args(p)
    p.add_argument("--jobs", type=int, default=1, metavar="N",
                   help="worker processes for the simulation grid (1 = serial)")
    _add_root_args(p)
    _add_audit_args(p)
    p.add_argument("--json", action="store_true",
                   help="print all SimResults as one JSON object")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("figure", help="regenerate a table/figure (the paper's, "
                                      "an ablation or an extension)")
    p.add_argument("name", choices=sorted(ALL_EXPERIMENTS))
    p.add_argument("--scale", default="quick", choices=sorted(SCALES),
                   help="run size of the paper's figures; table3 and the "
                        "ablation/extension/scaling figures pin their own")
    p.add_argument("--jobs", type=int, default=1, metavar="N",
                   help="worker processes for the simulation grid (1 = serial)")
    p.add_argument("--root", metavar="DIR", default=None,
                   help="figure run directory: cells are cached under "
                        "DIR/cache and journaled under DIR/journal ('repro "
                        "status DIR'); one root may serve every figure, "
                        "and re-running a killed figure resumes it")
    p.set_defaults(func=cmd_figure)

    p = sub.add_parser("status", help="summarise a fleet run journal")
    p.add_argument("journal", help="journal directory (or one shard file), or "
                                    "a run directory holding one")
    p.add_argument("--json", action="store_true",
                   help="print the campaign + fleet metrics (+ a campaign "
                        "directory's progress) as one JSON object")
    p.add_argument("--rows", type=int, default=40, metavar="N",
                   help="cap on per-job table rows (default 40)")
    p.set_defaults(func=cmd_status)

    p = sub.add_parser("tail", help="compact live view of a run journal")
    p.add_argument("journal", help="journal directory (or one shard file)")
    p.add_argument("--follow", "-f", action="store_true",
                   help="keep re-rendering until every job is terminal")
    p.add_argument("--interval", type=float, default=2.0, metavar="SEC",
                   help="seconds between --follow refreshes (default 2.0)")
    p.add_argument("--lines", type=int, default=10, metavar="N",
                   help="recent non-heartbeat events to show (default 10)")
    p.set_defaults(func=cmd_tail)

    p = sub.add_parser(
        "saturate",
        help="adaptive saturation-point search (repro.runner.saturation)",
    )
    p.add_argument("--root", default="saturation-run", metavar="DIR",
                   help="search directory (manifest/cache/journal/report; "
                        "default: %(default)s)")
    p.add_argument("--resume", action="store_true",
                   help="reload the spec from the directory's manifest, "
                        "ignoring the search flags below")
    g = p.add_argument_group("search")
    g.add_argument("--design", nargs="+", default=["dxbar_dor"],
                   choices=design_names(),
                   help="designs to search (default: dxbar_dor)")
    g.add_argument("-k", "--k", type=int, default=8, help="mesh radix")
    g.add_argument("--pattern", default="UR", choices=pattern_names())
    g.add_argument("--criterion", default="accepted",
                   choices=["accepted", "latency"],
                   help="stability criterion: accepted-vs-offered divergence "
                        "or latency blow-up past the bracket's low edge")
    g.add_argument("--threshold", type=float, default=0.95,
                   help="accepted criterion: stable while accepted >= "
                        "threshold * offered (default 0.95)")
    g.add_argument("--latency-factor", type=float, default=4.0,
                   help="latency criterion: stable while flit latency <= "
                        "factor * low-edge latency (default 4.0)")
    g.add_argument("--tolerance", type=float, default=0.02,
                   help="bracket width the search narrows to, in "
                        "flits/node/cycle (default 0.02)")
    g.add_argument("--min-load", type=float, default=0.02)
    g.add_argument("--max-load", type=float, default=1.0)
    g.add_argument("--seed", type=int, default=1, help="probe traffic seed")
    g.add_argument("--max-widenings", type=int, default=2, metavar="N",
                   help="bracket widenings to try against non-monotone "
                        "measurements before reporting the design failed")
    g.add_argument("--warmup", type=int, default=None)
    g.add_argument("--measure", type=int, default=None)
    g.add_argument("--drain", type=int, default=None)
    g.add_argument("--packet-size", type=int, default=None)
    g = p.add_argument_group("execution")
    g.add_argument("--jobs", type=int, default=1, metavar="N",
                   help="worker processes (1 = serial)")
    g.add_argument("--speculation", type=int, default=0, metavar="N",
                   help="extra speculative dyadic probes per bisection "
                        "round; keeps a pool of N+1 workers full without "
                        "changing the result (default 0)")
    g.add_argument("--retries", type=int, default=2, metavar="N")
    g.add_argument("--job-timeout", type=float, default=None, metavar="SEC")
    g.add_argument("--quiet", action="store_true",
                   help="suppress progress lines on stderr")
    _add_audit_args(p)
    p.add_argument("--json", action="store_true",
                   help="print the saturation.json payload as one JSON object")
    p.set_defaults(func=cmd_saturate)

    p = sub.add_parser(
        "campaign",
        help="Monte-Carlo fault-injection campaigns (repro.campaign)",
    )
    csub = p.add_subparsers(dest="campaign_command", required=True)

    c = csub.add_parser("run", help="run (or resume) a campaign directory")
    c.add_argument("root", help="campaign directory (manifest/cache/journal/report)")
    c.add_argument("--resume", action="store_true",
                   help="reload the spec from the directory's manifest, "
                        "ignoring the grid flags below")
    g = c.add_argument_group("campaign grid")
    g.add_argument("--designs", nargs="+", default=["dxbar_dor", "unified_dor"],
                   choices=design_names())
    g.add_argument("--loads", nargs="+", type=float, default=[0.5])
    g.add_argument("--percents", nargs="+", type=float,
                   default=[0.0, 25.0, 50.0, 75.0, 100.0],
                   help="fault-level axis (0 gives the analytics a baseline)")
    g.add_argument("--samples", type=int, default=32,
                   help="independent fault maps per nonzero level (default 32)")
    g.add_argument("--seed", type=int, default=1, help="fault-map sampling seed")
    g.add_argument("--k", type=int, default=8, help="mesh radix")
    g.add_argument("--pattern", default="UR", choices=pattern_names())
    g.add_argument("--granularity", default="crossbar",
                   choices=["crossbar", "crosspoint"])
    g.add_argument("--weighting", default="uniform",
                   choices=["uniform", "center", "edges"],
                   help="which routers are likelier to fail")
    g.add_argument("--manifest-phase", default="warmup",
                   choices=["warmup", "measure"],
                   help="when sampled faults manifest: during warmup (static "
                        "faults, the paper's setup) or mid-measurement "
                        "(transient faults)")
    g.add_argument("--manifest-at", type=int, default=None, metavar="CYCLE",
                   help="pin every fault to one exact manifest cycle")
    g.add_argument("--detection-cycles", type=int, default=5, metavar="N",
                   help="BIST detection latency (cycles from manifest to "
                        "reconfiguration; default 5)")
    g.add_argument("--warmup", type=int, default=None)
    g.add_argument("--measure", type=int, default=None)
    g.add_argument("--drain", type=int, default=None)
    g.add_argument("--sim-seed", type=int, default=None, metavar="N",
                   help="traffic RNG seed override for every job")
    g = c.add_argument_group("execution")
    g.add_argument("--jobs", type=int, default=1, metavar="N",
                   help="worker processes (1 = serial)")
    g.add_argument("--threshold", type=float, default=0.5,
                   help="yield threshold as a fraction of baseline "
                        "throughput (default 0.5)")
    g.add_argument("--retries", type=int, default=2, metavar="N")
    g.add_argument("--job-timeout", type=float, default=None, metavar="SEC")
    g.add_argument("--checkpoint-every", type=int, default=0, metavar="N",
                   help="snapshot each job every N cycles (0 = off)")
    g.add_argument("--quiet", action="store_true",
                   help="suppress progress lines on stderr")
    _add_audit_args(c)
    c.add_argument("--json", action="store_true",
                   help="print the report payload as one JSON object")
    c.set_defaults(func=cmd_campaign_run)

    c = csub.add_parser(
        "report", help="rebuild analytics from a campaign's result cache"
    )
    c.add_argument("root")
    c.add_argument("--threshold", type=float, default=0.5)
    c.add_argument("--json", action="store_true")
    c.set_defaults(func=cmd_campaign_report)

    p = sub.add_parser("designs", help="list router designs")
    p.set_defaults(func=cmd_designs)

    p = sub.add_parser("patterns", help="list traffic patterns")
    p.set_defaults(func=cmd_patterns)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    load_plugins()
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
