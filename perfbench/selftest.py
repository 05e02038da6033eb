"""Self-test of the benchmark at the smallest size of each workload.

    python3 perfbench/selftest.py        # from the root of a checkout

Checks, for every workload:

* an untraced run prints every end-to-end metric of BENCHMARK.json with
  its unit, reads correct, and reproduces the recorded digest;
* the digest check fails when the output is perturbed;
* a traced run prints every per-layer metric of BENCHMARK.json, and the
  layers the prediction table marks as bypassed read zero;

and that the benchmark exits non-zero without a result line in a
directory that holds only BENCHMARK.json and the benchmark's files.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path.cwd()
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SEED = 1

#: Layer metrics that must read zero (bypassed) or be positive (used) per workload.
BYPASSED = {
    "fault_campaign": ["saturation.rounds", "saturation.probes_executed",
                       "traffic.trace_gen_s", "router.steps", "network.steps"],
    "saturation_search": ["batch.run_s", "batch.sims", "campaign.jobs",
                          "reliability.report_s", "vector.steps", "vector.step_s"],
    "trace_replay": ["executor.pool_starts", "executor.calls", "executor.jobs_executed",
                     "cache.gets", "journal.writes", "batch.sims", "saturation.rounds",
                     "reliability.report_s", "network.steps", "router.steps"],
}
USED = {
    "fault_campaign": ["batch.sims", "campaign.jobs", "reliability.report_s", "vector.steps",
                       "cache.puts", "journal.writes"],
    "saturation_search": ["executor.pool_starts", "executor.jobs_executed", "saturation.rounds",
                          "router.steps", "network.self_s", "link.steps", "cache.hit_ratio"],
    "trace_replay": ["vector.steps", "traffic.trace_gen_s", "traffic.ticks", "engine.run_s"],
}


def bench(*extra: str, cwd: Path = ROOT):
    cmd = [sys.executable, str(cwd / "perfbench" / "run.py"), "--seed", str(SEED),
           "--seconds", "1", "--size", "tiny", *extra]
    proc = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    return proc.returncode, result, proc


def expect(cond: bool, what: str, failures: list) -> None:
    print(("ok    " if cond else "FAIL  ") + what, flush=True)
    if not cond:
        failures.append(what)


def check_metrics(result, wanted, failures, label):
    for m in wanted:
        got = result["metrics"].get(m["name"])
        expect(
            got is not None and got["unit"] == m["unit"]
            and isinstance(got["value"], (int, float)),
            f"{label}: {m['name']} printed in {m['unit']}", failures,
        )


def main() -> int:
    failures: list = []
    for w in (w["name"] for w in SPEC["workloads"]):
        code, result, proc = bench("--workload", w, "--trace", "0")
        expect(code == 0 and result is not None and result["correct"]
               and result["failed"] == 0, f"{w}: untraced run correct", failures)
        if result is None:
            print(proc.stdout, proc.stderr)
            continue
        check_metrics(result, SPEC["end_to_end"], failures, w)
        expect(all(result["metrics"][m["name"]]["value"] > 0 for m in SPEC["end_to_end"]),
               f"{w}: every end-to-end metric is positive", failures)
        model = json.loads(proc.stdout.strip().splitlines()[-2])
        expect(model["digest_recorded"], f"{w}: a digest is recorded for seed {SEED}", failures)

        code, result, _ = bench("--workload", w, "--trace", "0", "--perturb")
        expect(code != 0 and result is not None and not result["correct"]
               and result["failed"] > 0, f"{w}: perturbed output fails the digest check", failures)

        code, result, _ = bench("--workload", w, "--trace", "1")
        expect(code == 0 and result is not None and result["correct"],
               f"{w}: traced run correct", failures)
        if result is None:
            continue
        check_metrics(result, SPEC["per_layer"], failures, f"{w} traced")
        values = {k: v["value"] for k, v in result["metrics"].items()}
        for name in BYPASSED[w]:
            expect(values.get(name) == 0, f"{w}: bypassed {name} reads 0", failures)
        for name in USED[w]:
            expect((values.get(name) or 0) > 0, f"{w}: used {name} reads > 0", failures)

    # Without the program the benchmark must refuse to run.
    scratch = ROOT / ".perfbench_tmp"
    scratch.mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(prefix="bare-", dir=scratch))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        code, result, _ = bench("--workload", SPEC["workloads"][0]["name"], "--trace", "0",
                                cwd=bare)
        expect(code != 0 and result is None, "no program: non-zero exit, no result", failures)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass

    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
