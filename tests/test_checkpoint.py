"""Checkpoint/restore: on-disk format, and the bit-exact resume guarantee
(interrupt a run at cycle k, restore, finish — identical SimResult) for
every registered design, both routing functions, faulty networks and
closed-loop workloads.  Single resumes run through the one oracle in
``tests/test_equivalence.py``, which checkpoints every case."""

import json

import pytest

from repro.checkpoint import (
    CheckpointError,
    CheckpointMismatch,
    CheckpointPolicy,
    checkpoint_path,
    cycle_of,
    latest_checkpoint,
    list_checkpoints,
    prune_checkpoints,
    read_checkpoint,
    write_checkpoint,
)
from repro.registry import design_names
from repro.sim.config import FaultConfig, SimConfig
from repro.sim.engine import Simulator
from tests.test_equivalence import (Case, assert_paths_agree, checkpointed, faults,
                                    run_checked, splash2)

TINY = dict(
    k=4,
    warmup_cycles=60,
    measure_cycles=200,
    drain_cycles=400,
    offered_load=0.30,
    seed=11,
)


def tiny(**kw):
    return SimConfig(**{**TINY, **kw})


# ----------------------------------------------------------------------
# the tentpole guarantee
# ----------------------------------------------------------------------
class TestBitExactResume:
    @pytest.mark.parametrize("design", design_names())
    def test_resume_matches_uninterrupted(self, design):
        """Checkpointing never perturbs a run; mid-warmup and
        mid-measurement resumes of 4-flit packets match it."""
        assert_paths_agree(Case(design, packet_size=4))

    def test_resume_from_every_checkpoint(self):
        """Every snapshot of one run is a valid resume point (unified_wf
        exercises the buffered/bufferless hybrid and west-first routing)."""
        assert_paths_agree(Case("unified_wf", packet_size=4, snapshots=(20, 40, 60, 80, 100)))

    @pytest.mark.parametrize("granularity", ["crossbar", "crosspoint"])
    def test_resume_with_faults(self, granularity):
        """The fault plan is rebuilt and the detection latches restored."""
        plan = faults(50.0, granularity)
        assert_paths_agree(Case("dxbar_dor", packet_size=4, faults=plan))

    def test_resume_closed_loop(self):
        """The workload's RNG, transactions and event heaps are snapshotted."""
        assert_paths_agree(Case("dxbar_dor", workload=splash2("FFT", 2, 5, closed_loop=True)))

    def test_resume_is_restartable(self, tmp_path):
        """A resumed run with its own policy writes further checkpoints
        that are themselves valid resume points (crash -> resume -> crash
        -> resume, as a retried worker would)."""
        case = Case("dxbar_wf", packet_size=4, snapshots=(30,))
        base, (first,) = checkpointed(case, "object", tmp_path / "first")
        second = tmp_path / "second"
        sim = Simulator.resume_from(first, checkpoint=CheckpointPolicy(second, every=30, keep=0))
        assert run_checked(sim) == base
        later = list_checkpoints(second)
        assert later and all(cycle_of(p) > 30 for p in later)
        assert run_checked(Simulator.resume_from(later[-1])) == base


# ----------------------------------------------------------------------
# on-disk format
# ----------------------------------------------------------------------
class TestFormat:
    def _save_one(self, tmp_path, **overrides):
        cfg = tiny(design="flit_bless", **overrides)
        sim = Simulator(cfg, checkpoint=CheckpointPolicy(tmp_path, every=0))
        sim.run()
        return cfg, sim.save_checkpoint(tmp_path / "final.json")

    def test_explicit_path_round_trip(self, tmp_path):
        cfg, path = self._save_one(tmp_path)
        payload = read_checkpoint(path)
        assert payload["config"] == cfg.to_dict()
        assert payload["config_hash"] == cfg.config_hash()
        assert payload["cycle"] > 0

    def test_identity_mismatch_refused(self, tmp_path):
        _, path = self._save_one(tmp_path)
        other = tiny(design="flit_bless", seed=999)
        with pytest.raises(CheckpointMismatch):
            Simulator.resume_from(path, config=other)

    def test_corrupt_file_refused(self, tmp_path):
        path = tmp_path / "ckpt_000000000010.json"
        path.write_text("{torn write")
        with pytest.raises(CheckpointError):
            read_checkpoint(path)

    def test_wrong_schema_refused(self, tmp_path):
        _, path = self._save_one(tmp_path)
        payload = json.loads(path.read_text())
        payload["schema_version"] = 999
        path.write_text(json.dumps(payload))
        with pytest.raises(CheckpointError, match="schema"):
            read_checkpoint(path)

    def test_latest_checkpoint_selection(self, tmp_path):
        for cycle in (10, 200, 30):
            write_checkpoint(
                checkpoint_path(tmp_path, cycle),
                config=tiny(),
                state={},
                cycle=cycle,
            )
        assert cycle_of(latest_checkpoint(tmp_path)) == 200
        assert [cycle_of(p) for p in list_checkpoints(tmp_path)] == [10, 30, 200]

    def test_latest_checkpoint_searches_subdirs(self, tmp_path):
        # A campaign root holds one subdirectory per job.
        sub = tmp_path / "job"
        write_checkpoint(
            checkpoint_path(sub, 40), config=tiny(), state={}, cycle=40
        )
        assert cycle_of(latest_checkpoint(tmp_path)) == 40

    def test_pruning_keeps_newest(self, tmp_path):
        for cycle in (10, 20, 30, 40):
            write_checkpoint(
                checkpoint_path(tmp_path, cycle),
                config=tiny(),
                state={},
                cycle=cycle,
            )
        prune_checkpoints(tmp_path, keep=2)
        assert [cycle_of(p) for p in list_checkpoints(tmp_path)] == [30, 40]

    def test_policy_prunes_during_run(self, tmp_path):
        cfg = tiny(design="dxbar_dor")
        Simulator(cfg, checkpoint=CheckpointPolicy(tmp_path, every=10, keep=2)).run()
        assert len(list_checkpoints(tmp_path)) <= 2

    def test_policy_validation(self, tmp_path):
        with pytest.raises(ValueError):
            CheckpointPolicy(tmp_path, every=-1)
        with pytest.raises(ValueError):
            CheckpointPolicy(tmp_path, keep=-1)

    def test_save_without_policy_or_path(self):
        sim = Simulator(tiny(design="flit_bless"))
        with pytest.raises(CheckpointError):
            sim.save_checkpoint()

    def test_resume_from_empty_dir(self, tmp_path):
        with pytest.raises(CheckpointError, match="no checkpoints"):
            Simulator.resume_from(tmp_path)

    def test_drifted_fault_signature_refused(self, tmp_path):
        """A checkpoint taken under one fault plan must not resume into a
        network whose deterministically rebuilt plan differs (e.g. a numpy
        RNG behaviour change): the stored ``fault_signature`` is compared
        on load and a drift raises a clear error instead of silently
        diverging."""
        cfg = tiny(design="dxbar_dor", faults=FaultConfig(percent=50.0))
        sim = Simulator(cfg, checkpoint=CheckpointPolicy(tmp_path, every=0))
        sim.run()
        path = sim.save_checkpoint(tmp_path / "final.json")
        payload = json.loads(path.read_text())
        sig = payload["state"]["network"]["fault_signature"]
        assert sig, "fault plan should be non-empty at 50%"
        # Tamper with one router's fault record: same config hash (the
        # config is untouched), drifted realised plan.
        first = next(iter(sig.values()))
        first["manifest_cycle"] += 1
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match="fault plan does not match"):
            Simulator.resume_from(path)


class TestApplyFaultsEdges:
    """Satellite: ``Network._apply_faults`` edge cases — empty plans,
    saturation at 100% on both mesh sizes, and explicit sampled maps
    surviving checkpoint resume bit-exactly."""

    def test_empty_plan_installs_nothing(self):
        sim = Simulator(tiny(design="dxbar_dor"))
        assert sim.network.fault_plan is None

    def test_entryless_active_config_installs_plan(self):
        sim = Simulator(
            tiny(design="dxbar_dor", faults=FaultConfig(percent=25.0))
        )
        assert len(sim.network.fault_plan) == 4

    @pytest.mark.parametrize("k,expected", [(4, 16), (8, 64)])
    def test_hundred_percent_saturates(self, k, expected):
        cfg = tiny(design="unified_dor", k=k, faults=FaultConfig(percent=100.0))
        sim = Simulator(cfg)
        plan = sim.network.fault_plan
        assert len(plan) == expected
        assert plan.faulty_nodes == tuple(range(expected))

    def test_hundred_percent_still_delivers(self):
        cfg = tiny(design="dxbar_dor", faults=FaultConfig(percent=100.0))
        result = Simulator(cfg).run()
        assert result.accepted_load > 0.0  # graceful degradation, not collapse

    def test_explicit_entries_resume_bit_exactly(self):
        """A sampled fault map (explicit entries, some manifesting inside
        the measurement window) is part of config identity: every resume
        rebuilds the identical plan and completes bit-exactly."""
        from repro.sim.config import FaultMapEntry

        entries = (
            FaultMapEntry(node=2, crossbar="primary", manifest_cycle=30),
            FaultMapEntry(node=7, crossbar="secondary", manifest_cycle=60),
            FaultMapEntry(node=11, crossbar="primary", manifest_cycle=90),
        )
        case = Case("unified_dor", packet_size=4, faults=FaultConfig(entries=entries),
                    snapshots=(25, 50, 75, 100))
        assert Simulator(case.config()).network.fault_plan.faulty_nodes == (2, 7, 11)
        assert_paths_agree(case)
