"""The three benchmark workloads, each driven through its public entry point.

Every workload is a closed batch run: the user starts it and waits for it
to finish.  A workload object builds its inputs from the derived seeds
(:meth:`build`, timed as set-up), runs the entry point once on a fresh
directory (:meth:`run`), calls it again on the finished directory
(:meth:`rerun`) and then exposes the output bytes that are hashed, the
simulated router-cycles it executed, a few simulated statistics and a
list of failed output checks.

Sizes: ``bench`` is what the benchmark measures; ``tiny`` is the smallest
size, used by ``selftest.py``.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional

JOBS = 2  # pool size of the directory workloads: the CI machines have two cores

SIZES: Dict[str, Dict[str, Dict[str, Any]]] = {
    "bench": {
        "fault_campaign": {"samples": 2, "percents": (0.0, 50.0, 100.0),
                           "cycles": (80, 240, 160)},
        "saturation_search": {"tolerance": 0.1, "cycles": (100, 500, 200)},
        "trace_replay": {"txns_per_core": 20},
    },
    "tiny": {
        "fault_campaign": {"samples": 1, "percents": (0.0, 100.0),
                           "cycles": (20, 60, 60)},
        "saturation_search": {"tolerance": 0.3, "cycles": (20, 60, 60)},
        "trace_replay": {"txns_per_core": 2},
    },
}


def derive_seed(seed: int, role: str) -> int:
    """Independent 31-bit seed for one input of the workload."""
    digest = hashlib.sha256(f"perfbench:{seed}:{role}".encode()).digest()
    return int.from_bytes(digest[:4], "big") % (2**31 - 1) + 1


def _cycles(size: Dict[str, Any]) -> Dict[str, int]:
    warmup, measure, drain = size["cycles"]
    return {"warmup_cycles": warmup, "measure_cycles": measure, "drain_cycles": drain}


def _cache_node_cycles(root: Path, k: int) -> int:
    """k^2 x final_cycle summed over the result cache: on a fresh directory
    every entry is one simulation that was executed."""
    total = 0
    for path in (root / "cache").glob("*.json"):
        total += k * k * json.loads(path.read_text())["result"]["final_cycle"]
    return total


class FaultCampaign:
    """``run_campaign`` at ``jobs=2`` with defaults otherwise (batch
    prewarm on, journal on): dxbar_dor + unified_dor, k=8 UR @0.3, fault
    levels 0/50/100%, sampled crossbar fault maps."""

    name = "fault_campaign"
    K = 8
    DESIGNS = ("dxbar_dor", "unified_dor")
    LOAD = 0.3

    def build(self, seed: int, size: Dict[str, Any]) -> None:
        from repro.campaign.spec import CampaignSpec

        self.spec = CampaignSpec(
            designs=self.DESIGNS,
            loads=(self.LOAD,),
            percents=size["percents"],
            samples=size["samples"],
            seed=derive_seed(seed, "fault_maps"),
            k=self.K,
            pattern="UR",
            sim={**_cycles(size), "seed": derive_seed(seed, "traffic")},
        )
        self.jobs = self.spec.jobs()  # the fault-map sampling

    def run(self, root: Path, progress: Callable) -> None:
        from repro.campaign.driver import run_campaign

        self.root = root
        self.result = run_campaign(root, self.spec, jobs=JOBS, progress=progress)
        self.first_report = (root / "report.json").read_bytes()

    def rerun(self) -> None:
        from repro.campaign.driver import run_campaign

        self.rerun_result = run_campaign(self.root, self.spec, jobs=JOBS)

    def output(self) -> bytes:
        return self.first_report

    def attempted(self) -> int:
        return len(self.jobs)

    def failed(self) -> int:
        return len(self.result.failures)

    def node_cycles(self) -> int:
        return _cache_node_cycles(self.root, self.K)

    def model(self) -> Dict[str, Any]:
        report = self.result.report
        top = max(self.spec.percents)
        return {
            f"yield_at_{top:g}pct": {
                d: report.yield_curve(d, self.LOAD).get(top) for d in self.DESIGNS
            }
        }

    def checks(self) -> List[str]:
        bad = []
        payload = self.result.payload
        if payload["jobs_completed"] != payload["jobs_total"]:
            bad.append(f"{payload['jobs_completed']}/{payload['jobs_total']} jobs completed")
        if (self.root / "report.json").read_bytes() != self.first_report:
            bad.append("report.json changed on the re-run")
        if self.rerun_result.failures:
            bad.append("the re-run reported failures")
        for d in self.DESIGNS:
            if self.result.report.yield_curve(d, self.LOAD).get(0.0) != 1.0:
                bad.append(f"{d}: fault-free yield is not 1")
        return bad


class SaturationSearch:
    """``run_saturation`` at ``jobs=2``, ``speculation=2``, default (object)
    backend: flit_bless, buffered4 and dxbar_dor at k=8 UR."""

    name = "saturation_search"
    K = 8
    # buffered4 first: its first-round probes are the longest, so the
    # first result is not mostly pool start-up.
    DESIGNS = ("buffered4", "flit_bless", "dxbar_dor")

    def build(self, seed: int, size: Dict[str, Any]) -> None:
        from repro.runner.saturation import SaturationSpec

        self.spec = SaturationSpec(
            designs=self.DESIGNS,
            k=self.K,
            pattern="UR",
            tolerance=size["tolerance"],
            seed=derive_seed(seed, "probe_traffic"),
            sim=_cycles(size),
        )

    def run(self, root: Path, progress: Callable) -> None:
        from repro.runner.saturation import run_saturation

        self.root = root
        self.result = run_saturation(
            root, self.spec, jobs=JOBS, speculation=2, progress=progress
        )
        self.first_report = (root / "saturation.json").read_bytes()

    def rerun(self) -> None:
        from repro.runner.saturation import run_saturation

        self.rerun_result = run_saturation(self.root, self.spec, jobs=JOBS, speculation=2)

    def output(self) -> bytes:
        return self.first_report

    def attempted(self) -> int:
        return self.result.probes_total

    def failed(self) -> int:
        # A failed probe job raises SaturationError out of run_saturation.
        return 0

    def node_cycles(self) -> int:
        return _cache_node_cycles(self.root, self.K)

    def model(self) -> Dict[str, Any]:
        return {"saturation_load": {e["design"]: e["saturation_load"] for e in self.result.results}}

    def checks(self) -> List[str]:
        # below_range / unsaturated are findings; pending or failed (noise
        # the search could not resolve) mean no saturation load was found.
        bad = [
            f"{e['design']}: search {e['status']}"
            for e in self.result.results
            if e["status"] in ("pending", "failed")
        ]
        if (self.root / "saturation.json").read_bytes() != self.first_report:
            bad.append("saturation.json changed on the re-run")
        if self.rerun_result.probes_executed:
            bad.append(f"the re-run executed {self.rerun_result.probes_executed} probes")
        return bad


class TraceReplay:
    """``Simulator(cfg, workload=TraceWorkload(trace)).run()`` in this
    process with ``backend="auto"``: four designs over the FFT and Ocean
    SPLASH-2 traces at k=8.  No runner layer, cache or journal.  There is no
    directory to re-run on, so the re-run replays everything again in the
    same (warm) interpreter and must reproduce the first results."""

    name = "trace_replay"
    K = 8
    DESIGNS = ("flit_bless", "buffered4", "dxbar_dor", "unified_dor")
    APPS = ("FFT", "Ocean")

    def build(self, seed: int, size: Dict[str, Any]) -> None:
        from repro.sim.topology import Mesh
        from repro.traffic.splash2 import generate_app_trace

        self.seed = derive_seed(seed, "trace")
        mesh = Mesh(self.K)
        self.traces = {
            app: generate_app_trace(
                app, mesh, txns_per_core=size["txns_per_core"], seed=self.seed
            )
            for app in self.APPS
        }

    def _replay(self, progress: Optional[Callable]) -> List[Any]:
        from repro.sim.config import SimConfig
        from repro.sim.engine import Simulator
        from repro.traffic.trace import TraceWorkload

        results = []
        for app in self.APPS:
            for design in self.DESIGNS:
                cfg = SimConfig(
                    design=design, k=self.K, warmup_cycles=0, measure_cycles=1,
                    drain_cycles=0, seed=self.seed, max_cycles=1_000_000, backend="auto",
                )
                results.append(Simulator(cfg, workload=TraceWorkload(self.traces[app])).run())
                if progress is not None:
                    progress(len(results), len(self.APPS) * len(self.DESIGNS), None)
        return results

    @staticmethod
    def _encode(results) -> bytes:
        return json.dumps(
            [r.to_dict() for r in results], sort_keys=True, separators=(",", ":")
        ).encode()

    def run(self, root: Path, progress: Callable) -> None:
        self.results = self._replay(progress)

    def rerun(self) -> None:
        self.rerun_results = self._replay(None)

    def output(self) -> bytes:
        return self._encode(self.results)

    def attempted(self) -> int:
        return len(self.results)

    def failed(self) -> int:
        return 0

    def node_cycles(self) -> int:
        return sum(self.K * self.K * r.final_cycle for r in self.results)

    def model(self) -> Dict[str, Any]:
        it = iter(self.results)
        return {
            "execution_cycles": {
                app: {design: next(it).final_cycle for design in self.DESIGNS}
                for app in self.APPS
            }
        }

    def checks(self) -> List[str]:
        bad = []
        it = iter(self.results)
        for app in self.APPS:
            packets = len(self.traces[app])
            for design in self.DESIGNS:
                r = next(it)
                if r.measured_packets_completed != packets or r.injected_flits != r.ejected_flits:
                    bad.append(f"{app}/{design}: not every trace packet was delivered")
        if self._encode(self.rerun_results) != self.output():
            bad.append("the in-process re-run gave different results")
        return bad


WORKLOADS = {w.name: w for w in (FaultCampaign, SaturationSearch, TraceReplay)}
