"""End-to-end benchmark of the three user paths of ``repro``.

Run from the root of a checkout::

    python3 perfbench/run.py --workload fault_campaign --seed 1 --seconds 30 --trace 0

Workloads (see ``BENCHMARK.json`` and ``perfbench/README.md``):

* ``fault_campaign``    -- ``repro.campaign.driver.run_campaign``
* ``saturation_search`` -- ``repro.runner.saturation.run_saturation``
* ``trace_replay``      -- ``repro.sim.engine.Simulator`` + ``TraceWorkload``

Each repetition runs in a fresh interpreter (``perfbench/rep.py``) with
the ``REPRO_*`` variables removed from its environment and a fresh
directory under ``.perfbench_tmp/``.  Repetitions are repeated until
``--seconds`` is spent (at least three, or one untraced/traced pair with
``--trace 1``) and every metric is the median over them.

Every repetition's output (``report.json``, ``saturation.json`` or the
ordered ``SimResult.to_dict()`` list) is hashed and compared with the
digest recorded in ``digests.json`` for that seed, where there is one,
and with the other repetitions of the run.  A mismatch, a failed output
check, a failed job or a crash counts the repetition's jobs as failed.

The last line of standard output is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones, measured with
tracing off; with ``--trace 1`` they are the per-layer ones from traced
repetitions, plus ``trace.overhead_s`` (traced minus untraced ``wall_s``).
The line before it carries the simulated statistics and the digest.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from spans import LAYER_METRICS  # noqa: E402
from workloads import SIZES, WORKLOADS  # noqa: E402

#: End-to-end metrics: name -> unit.
E2E_METRICS = {
    "wall_s": "s",
    "setup_s": "s",
    "first_result_s": "s",
    "rerun_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "node_cycles_per_s": "1/s",
}

#: Calls on the finished directory per repetition; ``rerun_s`` is the
#: median of all of them in the run.  A trace replay re-run repeats the
#: whole replay, so one.
RERUNS = {"fault_campaign": 9, "saturation_search": 9, "trace_replay": 1}

MIN_REPS = 3
HARD_LIMIT_S = 150.0  # stop starting repetitions past this; the run must end by 180 s
DIGESTS = HERE / "digests.json"


def _clean_env(tmp: Path) -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["TMPDIR"] = str(tmp)
    return env


def _rep(args, root: Path, tmp: Path, traced: bool, timeout: float) -> dict:
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=tmp))
    out = workdir / "rep.json"
    cmd = [
        sys.executable, "-I", str(HERE / "rep.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--size", args.size,
        "--trace", "1" if traced else "0",
        "--reruns", "1" if traced else str(RERUNS[args.workload]),
        "--src", str(root / "src"),
        "--workdir", str(workdir),
        "--out", str(out),
    ]
    spawned = time.monotonic()
    # Own session, so the repetition and any pool worker it leaves behind
    # can be stopped together.
    proc = subprocess.Popen(
        cmd + ["--spawned", repr(spawned)], env=_clean_env(tmp), cwd=workdir,
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        start_new_session=True,
    )
    try:
        log, _ = proc.communicate(timeout=max(1.0, timeout))
        if out.exists():
            rep = json.loads(out.read_text())
        else:
            rep = {"error": f"exit code {proc.returncode}:\n{log[-4000:]}"}
    except subprocess.TimeoutExpired:
        rep = {"error": "repetition timed out"}
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except (ProcessLookupError, PermissionError):
            pass
        proc.wait()
        shutil.rmtree(workdir, ignore_errors=True)
    rep["traced"] = traced
    rep["duration_s"] = time.monotonic() - spawned
    return rep


def _digest(rep: dict, perturb: bool) -> str:
    data = rep["output"].encode()
    if perturb:
        data += b" "
    return hashlib.sha256(data).hexdigest()


def _judge(reps, recorded, perturb: bool):
    """Digest and checks of every repetition -> (correct, attempted, failed, digest)."""
    sizes = [r["attempted"] for r in reps if r.get("error") is None]
    per_rep = max(sizes) if sizes else 1
    reference = recorded
    attempted = failed = 0
    for rep in reps:
        if rep.get("error") is not None:
            attempted += per_rep
            failed += per_rep
            print(f"repetition failed:\n{rep['error']}", file=sys.stderr)
            continue
        rep["digest"] = _digest(rep, perturb)
        if reference is None:
            reference = rep["digest"]
        problems = list(rep["checks"])
        if rep["digest"] != reference:
            problems.append(f"output digest {rep['digest'][:16]} != {reference[:16]}")
        attempted += rep["attempted"]
        if problems:
            failed += rep["attempted"]
            print("output check failed: " + "; ".join(problems), file=sys.stderr)
        else:
            failed += rep["failed"]
    return failed == 0, attempted, failed, reference


def _median(reps, key, source=None):
    values = [(r[source] if source else r)[key] for r in reps]
    return statistics.median(values)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=sorted(SIZES), default="bench",
                    help="tiny is the smallest size, for the self-test")
    ap.add_argument("--perturb", action="store_true",
                    help="append a byte to every output before hashing (self-test)")
    ap.add_argument("--record", action="store_true",
                    help="store this run's output digest for this seed in digests.json")
    args = ap.parse_args()
    # A terminated run still stops its repetition (see _rep's finally).
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro package under {root / 'src'}; "
              "run from the root of a checkout", file=sys.stderr)
        return 2

    tmp = root / ".perfbench_tmp"
    tmp.mkdir(exist_ok=True)
    start = time.monotonic()
    deadline = start + args.seconds
    reps = []
    while True:
        traced = bool(args.trace) and len(reps) % 2 == 1
        remaining = start + 175.0 - time.monotonic()
        reps.append(_rep(args, root, tmp, traced, remaining))
        rep = reps[-1]
        print(f"repetition {len(reps)}{' traced' if traced else ''}: "
              + (f"wall_s {rep['wall_s']:.4f} setup_s {rep['setup_s']:.4f} "
                 f"first_result_s {rep['first_result_s']:.4f} rerun_s {rep['rerun_s']:.4f} "
                 f"(raw wall_s {rep['raw']['wall_s']:.4f}, host speed "
                 + " ".join(f"{x:.3f}" for x in rep["host_speed"]) + ")"
                 if rep.get("error") is None else "failed"), file=sys.stderr, flush=True)
        now = time.monotonic()
        estimate = statistics.median(r["duration_s"] for r in reps)
        enough = len(reps) >= (2 if args.trace else MIN_REPS) and len(reps) % (1 + args.trace) == 0
        if enough and now + estimate * (1 + args.trace) > deadline:
            break
        if now + estimate > start + HARD_LIMIT_S:
            break
    try:
        tmp.rmdir()
    except OSError:
        pass

    recorded_all = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}
    recorded = recorded_all.get(args.size, {}).get(args.workload, {}).get(str(args.seed))
    correct, attempted, failed, digest = _judge(reps, recorded, args.perturb)
    ok = [r for r in reps if r.get("error") is None]
    plain = [r for r in ok if not r["traced"]]
    traced = [r for r in ok if r["traced"]]

    metrics = {}
    if ok and (traced or not args.trace):
        if args.trace:
            for name, unit in LAYER_METRICS.items():
                metrics[name] = {"value": _median(traced, name, "layers"), "unit": unit}
            overhead = _median(traced, "wall_s") - _median(plain, "wall_s") if plain else 0.0
            metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
            spans_out = root / ".perfbench_out" / f"spans-{args.workload}-seed{args.seed}.jsonl"
            spans_out.parent.mkdir(exist_ok=True)
            spans_out.write_text("".join(json.dumps(s) + "\n" for s in traced[-1]["spans"]))
        else:
            for name, unit in E2E_METRICS.items():
                if name == "rerun_s":  # several per repetition: the median of all
                    value = statistics.median(t for r in plain for t in r["reruns"])
                else:
                    value = _median(plain, name)
                metrics[name] = {"value": value, "unit": unit}
    else:
        correct = False

    if args.record and correct and not args.perturb:
        recorded_all.setdefault(args.size, {}).setdefault(args.workload, {})[str(args.seed)] = digest
        DIGESTS.write_text(json.dumps(recorded_all, indent=2, sort_keys=True) + "\n")

    for name, m in metrics.items():
        print(f"{args.workload:>18} {name:<28} {m['value']:14.6g} {m['unit']}", file=sys.stderr)
    print(json.dumps({
        "workload": args.workload,
        "seed": args.seed,
        "size": args.size,
        "repetitions": len(reps),
        "digest": digest,
        "digest_recorded": recorded is not None,
        "raw_host_seconds": {
            name: statistics.median(r["raw"][name] for r in plain)
            for name in plain[0]["raw"]
        } if plain else None,
        "model": ok[0]["model"] if ok else None,
        "model_note": "simulated statistics; the model is not validated against hardware",
    }))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
