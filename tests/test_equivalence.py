"""One differential oracle for every path that claims bit-exactness.

:func:`assert_paths_agree` runs one :class:`Case` on the dense walk and
requires the same canonical ``SimResult.to_dict()`` JSON (less the
wall-clock ``extra.profile``) from: the default walk, audited (checks
run, no violation); the active walk alone, journaled by ``run_specs``;
a busy switch that flips the walk many times per run, checkpointed; the
vector backend where the design has a kernel, checkpointed at the same
cycles (equal state trees at every snapshot); and every snapshot
resumed (by default one in warmup and one in measurement), across
backends where there is a kernel.  Walks are busy-switch thresholds
(``tests.conftest.WALKS``).  The fixed cases keep their test ids in the
per-topic files; ``hypothesis`` draws more here, and the closed-loop
cases whose ``on_eject`` injects mid-step live here too.
"""

from __future__ import annotations

import json
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import List, Optional, Tuple

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.checkpoint import CheckpointPolicy, cycle_of, list_checkpoints, read_checkpoint
from repro.obs.journal import EV_COMPLETED, merge_journal
from repro.registry import design_spec, pattern_names, register_workload
from repro.runner import RunSpec, run_specs
from repro.runner.rundir import run_paths
from repro.runner.spec import materialize_workload
from repro.sim.config import FaultConfig, SimConfig
from repro.sim.engine import Simulator
from repro.sim.topology import Mesh
from repro.traffic.generator import Workload
from repro.traffic.patterns import make_pattern
from repro.traffic.splash2 import SPLASH2_PROFILES, make_splash2_workload
from tests.conftest import ALL_DESIGNS, on_walk

#: The window of every Bernoulli case; runs last past its injection.
WINDOW = dict(warmup_cycles=20, measure_cycles=80, drain_cycles=200)
INJECTION_CYCLES = WINDOW["warmup_cycles"] + WINDOW["measure_cycles"]


register_workload("splash2_closed_loop", lambda spec, config: make_splash2_workload(
    spec["app"], Mesh(config.k), spec["txns_per_core"], spec["seed"]))


def splash2(app: str, txns_per_core: int, seed: int, closed_loop=False) -> Tuple:
    """A trace replay, or the request/response engine (its responses are
    queued from ``on_eject`` and injected on the next ``tick``)."""
    kind = "splash2_closed_loop" if closed_loop else "splash2"
    return (("kind", kind), ("app", app), ("txns_per_core", txns_per_core), ("seed", seed))


class OneOutstanding(Workload):
    """Closed-loop traffic that injects from inside the step phase.

    Each node keeps one packet outstanding.  When the last flit of a
    node's packet ejects, ``on_eject`` injects that node's next packet in
    the same cycle, at the source, to a random destination.  The source
    can be any node, ahead of the ejecting router in the walk's ascending
    order or behind it, so this is the traffic the active walk's mid-step
    wake rule exists for.
    """

    def __init__(self, k: int, packets_per_node: int, packet_size: int, seed: int) -> None:
        self.nodes = k * k
        self.packet_size = packet_size
        self.rng = np.random.default_rng(seed)
        self.left = [packets_per_node] * self.nodes  # packets not yet injected
        self.in_flight = [0] * self.nodes  # flits of the outstanding packet
        self.started = False

    def _send(self, src: int, cycle: int, network) -> None:
        if self.left[src]:
            self.left[src] -= 1
            self.in_flight[src] = self.packet_size
            dst = int(self.rng.integers(self.nodes - 1))
            network.inject_packet(src, dst + (dst >= src), cycle, num_flits=self.packet_size)

    def tick(self, cycle: int, network) -> None:
        if not self.started:
            self.started = True
            for src in range(self.nodes):
                self._send(src, cycle, network)

    def on_eject(self, flit, cycle: int, network) -> None:
        self.in_flight[flit.src] -= 1
        if not self.in_flight[flit.src]:
            self._send(flit.src, cycle, network)

    def done(self) -> bool:
        return self.started and not any(self.left) and not any(self.in_flight)

    def state_dict(self) -> dict:
        return {"rng": self.rng.bit_generator.state, "left": list(self.left),
                "in_flight": list(self.in_flight), "started": self.started}

    def load_state_dict(self, state: dict) -> None:
        self.rng.bit_generator.state = state["rng"]
        self.left = list(state["left"])
        self.in_flight = list(state["in_flight"])
        self.started = state["started"]


register_workload("one_outstanding", lambda spec, config: OneOutstanding(
    config.k, spec["packets_per_node"], config.packet_size, spec["seed"]))


def one_outstanding(packets_per_node: int, seed: int) -> Tuple:
    """:class:`OneOutstanding` traffic: ``packets_per_node`` packets per node."""
    return (("kind", "one_outstanding"), ("packets_per_node", packets_per_node), ("seed", seed))


def faults(percent: float, granularity: str = "crossbar", **kwargs) -> FaultConfig:
    """A fault plan whose faults all manifest while a case injects."""
    return FaultConfig(percent=percent, granularity=granularity,
                       manifest_window=INJECTION_CYCLES, **kwargs)


@dataclass(frozen=True)
class Case:
    """``workload`` is a ``RunSpec`` workload spec as items, empty for
    Bernoulli traffic; a workload runs closed-loop to its end.  The
    checkpointed runs snapshot after each of ``snapshots``, by default
    once in warmup and once in measurement; ``audit_vector`` also audits
    the vector run from cycle 0."""

    design: str
    k: int = 4
    pattern: str = "UR"
    load: float = 0.3
    packet_size: int = 2
    seed: int = 11
    faults: FaultConfig = field(default_factory=FaultConfig)
    workload: Tuple = ()
    max_cycles: Optional[int] = None
    snapshots: Tuple[int, ...] = (15, 60)
    audit_vector: bool = False

    def config(self, backend: str = "object") -> SimConfig:
        window = dict(warmup_cycles=0, measure_cycles=1, drain_cycles=0)
        return SimConfig(
            design=self.design, k=self.k, pattern=self.pattern,
            offered_load=self.load, packet_size=self.packet_size,
            seed=self.seed, faults=self.faults, backend=backend,
            max_cycles=self.max_cycles or (50_000 if self.workload else None),
            **(window if self.workload else WINDOW),
        )

    @property
    def workload_spec(self) -> Optional[dict]:
        return dict(self.workload) or None

    def simulator(self, config: SimConfig, **kwargs) -> Simulator:
        return Simulator(config, materialize_workload(self.workload_spec, config), **kwargs)


class SnapshotAt(CheckpointPolicy):
    """A checkpoint policy that snapshots after the given cycles only."""

    def __init__(self, root: Path, cycles: Tuple[int, ...]) -> None:
        super().__init__(root, every=1, keep=0)
        object.__setattr__(self, "due", frozenset(cycles).__contains__)


def canonical(result) -> str:
    """The result's canonical JSON."""
    d = result.to_dict()
    d.get("extra", {}).pop("profile", None)
    return json.dumps(d, sort_keys=True)


def run_checked(sim: Simulator) -> str:
    """Run with invariant checks; an audited run must check and pass."""
    out = canonical(sim.run(check_invariants=True))
    if sim.auditor is not None:
        assert sim.auditor.checks_run > 0
        assert sim.auditor.violations == 0
    return out


def checkpointed(case: Case, backend: str, root: Path, audit=False) -> Tuple[str, List[Path]]:
    """A run snapshotting after each of ``case.snapshots``: its bytes, its snapshots."""
    sim = case.simulator(case.config(backend), checkpoint=SnapshotAt(root, case.snapshots),
                         audit=audit)
    out = run_checked(sim)
    snapshots = list_checkpoints(root)
    assert [cycle_of(p) for p in snapshots] == sorted(case.snapshots), "run ended early"
    return out, snapshots


def resume(case: Case, snapshot: Path, backend: str, audit=False) -> Simulator:
    """``snapshot`` resumed on ``backend``, on the active walk alone."""
    config = case.config(backend)
    with on_walk("sparse"):
        return Simulator.resume_from(snapshot, config=config, audit=audit,
                                     workload=materialize_workload(case.workload_spec, config))


def assert_paths_agree(case: Case) -> None:
    """Every path of ``case`` gives the dense walk's bytes (module docstring)."""
    config = case.config()
    with on_walk("dense"):
        dense = case.simulator(config)
    expected = run_checked(dense)
    runs = {"audited default walk": run_checked(case.simulator(config, audit=True))}
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        with on_walk("sparse"):
            # A heartbeat every cycle: the journal writes as often as it can.
            (outcome,) = run_specs([RunSpec(config, case.workload_spec)], root=root / "run",
                                   retries=0, heartbeat_interval=0.0)
        assert outcome.ok, outcome.error
        runs["journaled active walk"] = canonical(outcome.result)
        events = [e["event"] for e in merge_journal(run_paths(root / "run").journal)]
        assert events.count(EV_COMPLETED) == 1

        with on_walk("flip"):
            runs["checkpointed flip walk"], snapshots = checkpointed(case, "object", root / "obj")
        resumes = [(snapshot, "object") for snapshot in snapshots]
        if design_spec(case.design).supports_vector:
            runs["checkpointed vector backend"], vector_snapshots = checkpointed(
                case, "vector", root / "vector", audit=case.audit_vector)
            for obj, vec in zip(snapshots, vector_snapshots):
                assert read_checkpoint(obj)["state"] == read_checkpoint(vec)["state"], obj.name
            # Across backends: an object snapshot on the vector backend, then
            # a vector snapshot on the object walk, and so on.
            resumes = [(vec, "object") if i % 2 else (obj, "vector")
                       for i, (obj, vec) in enumerate(zip(snapshots, vector_snapshots))]
        plan = dense.network.fault_plan
        for snapshot, backend in resumes:
            sim = resume(case, snapshot, backend)
            if plan is not None:  # rebuilt from the config
                assert sim.network.fault_plan.faulty_nodes == plan.faulty_nodes
            path = f"{snapshot.parent.name} snapshot at cycle {cycle_of(snapshot)} on {backend}"
            runs[path] = run_checked(sim)

    for path, result in runs.items():
        assert result == expected, f"{path} diverged from the dense walk"


def _defined(pattern: str, k: int) -> bool:
    """Bit permutations need a power-of-two node count."""
    try:
        make_pattern(pattern, Mesh(k))
    except ValueError:
        return False
    return True


PATTERNS = {k: [p for p in pattern_names() if _defined(p, k)] for k in (3, 4, 5)}
KERNEL_DESIGNS = tuple(d for d in ALL_DESIGNS if design_spec(d).supports_vector)


@st.composite
def cases(draw, designs=ALL_DESIGNS) -> Case:
    design = draw(st.sampled_from(designs))
    k = draw(st.integers(3, 5))
    plan = FaultConfig()
    percent = draw(st.sampled_from([0, 25, 50, 100]))
    if percent and design_spec(design).supports_faults:
        plan = FaultConfig(percent=percent, manifest_window=draw(st.integers(1, INJECTION_CYCLES)),
                           granularity=draw(st.sampled_from(["crossbar", "crosspoint"])))
    workload = ()
    # A 3x3 mesh has one memory controller: the trace generator needs two.
    if k > 3 and draw(st.booleans()):
        workload = splash2(draw(st.sampled_from(sorted(SPLASH2_PROFILES))),
                           draw(st.integers(2, 6)), draw(st.integers(0, 99)))
    return Case(
        design, k=k, pattern=draw(st.sampled_from(PATTERNS[k])),
        load=draw(st.integers(1, 10)) / 20, packet_size=draw(st.integers(1, 5)),
        seed=draw(st.integers(0, 999)), faults=plan, workload=workload,
        snapshots=tuple(sorted(draw(st.sets(st.integers(1, INJECTION_CYCLES),
                                            min_size=1, max_size=2)))),
        audit_vector=draw(st.booleans()),
    )


DRAWN = settings(derandomize=True, deadline=None, database=None,
                 suppress_health_check=[HealthCheck.too_slow])


@settings(DRAWN, max_examples=4)
@given(cases())
def test_drawn_cases_agree(case):
    assert_paths_agree(case)


@settings(DRAWN, max_examples=2)
@given(cases(KERNEL_DESIGNS))
def test_drawn_vector_cases_agree(case):
    assert_paths_agree(case)


@pytest.mark.parametrize("design", ALL_DESIGNS)
def test_injection_from_on_eject_agrees(design):
    """A packet injected from ``on_eject`` is stepped in the same cycle
    when its source comes later in the walk, as the dense walk does."""
    packet_size = 3 if ALL_DESIGNS.index(design) % 2 else 1
    # Runs last 44-110 cycles: snapshot while every node has a packet out.
    assert_paths_agree(Case(design, packet_size=packet_size, snapshots=(10, 30),
                            workload=one_outstanding(6, seed=1)))
