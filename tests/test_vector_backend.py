"""Tests for the vectorized (SoA) backend.

A vector run is *bit-exact* with the object walk, floats included, and
checkpoints round-trip across backends in both directions: the
differential cases run through ``tests/test_equivalence.py``.  This
file also holds the backend-selection rules.
"""

from __future__ import annotations

import warnings

import pytest

from repro.registry import DESIGNS
from repro.sim.config import ConfigError, FaultConfig, SimConfig, _FALLBACK_WARNED
from repro.sim.engine import Simulator
from tests.test_equivalence import (INJECTION_CYCLES, Case, assert_paths_agree, canonical,
                                    checkpointed, resume, run_checked, splash2)

PILOTED = ["flit_bless", "buffered4"]

#: The paper's dual-crossbar family: no vector kernel, the object routers
#: are the one implementation of its semantics.
DUAL_XBAR = ["dxbar_dor", "dxbar_wf", "unified_dor", "unified_wf"]


class TestBitExactness:
    """Vector vs object: identical results across the differential grid."""

    @pytest.mark.parametrize("design", PILOTED)
    @pytest.mark.parametrize("seed", [1, 7, 23])
    def test_seeds(self, design, seed):
        assert_paths_agree(Case(design, seed=seed))

    @pytest.mark.parametrize("design", PILOTED)
    @pytest.mark.parametrize("load", [0.05, 0.35, 0.7])
    def test_loads(self, design, load):
        assert_paths_agree(Case(design, load=load))

    @pytest.mark.parametrize("design", PILOTED)
    @pytest.mark.parametrize("k", [2, 3, 8])
    def test_radices(self, design, k):
        assert_paths_agree(Case(design, k=k))

    @pytest.mark.parametrize("design", PILOTED)
    @pytest.mark.parametrize("pattern", ["BR", "TOR", "NB"])
    def test_patterns(self, design, pattern):
        assert_paths_agree(Case(design, pattern=pattern))

    @pytest.mark.parametrize("design", PILOTED)
    def test_multi_flit_packets(self, design):
        assert_paths_agree(Case(design, packet_size=5))

    @pytest.mark.parametrize("design", PILOTED)
    def test_closed_loop_splash2(self, design):
        """The request/response engine: responses queued from on_eject and
        injected on the next tick.  Injection from inside the step phase is
        ``test_equivalence.py::test_injection_from_on_eject_agrees``."""
        assert_paths_agree(Case(design, workload=splash2("FFT", 5, 5, closed_loop=True)))

    @pytest.mark.parametrize("design", PILOTED)
    def test_audited_vector_run_is_bit_exact(self, design):
        """The per-cycle auditor reads the SoA state through adapter views;
        it must pass and must not perturb the simulation."""
        assert_paths_agree(Case(design, audit_vector=True))


class TestCheckpointAcrossBackends:
    """Checkpoints are backend-neutral: save on one backend, resume on the
    other, land on the uninterrupted run's exact result."""

    @pytest.mark.parametrize("design", PILOTED)
    @pytest.mark.parametrize(
        "src,dst",
        [("object", "vector"), ("vector", "object"), ("vector", "vector")],
    )
    def test_cross_backend_resume(self, design, src, dst, tmp_path):
        """A snapshot in drain (the oracle's default ones are in warmup and
        measurement)."""
        case = Case(design, snapshots=(INJECTION_CYCLES + 5,))
        expected, (snapshot,) = checkpointed(case, src, tmp_path)
        assert run_checked(resume(case, snapshot, dst)) == expected

    @pytest.mark.parametrize("design", PILOTED)
    def test_vector_state_dict_matches_object(self, design):
        """Identical histories produce identical state trees, field for
        field (the oracle compares the backends' snapshots)."""
        assert_paths_agree(Case(design, snapshots=(80, INJECTION_CYCLES)))


class TestBatchedStepping:
    """``run_batch`` steps N same-shape simulations in lockstep; each
    member's SimResult must be byte-identical to running it alone."""

    @pytest.mark.parametrize("design", PILOTED)
    def test_batch_matches_solo_over_seeds(self, design):
        from repro.sim.vector.batch import run_batch

        configs = [
            Case(design, seed=seed).config("vector").with_(measure_cycles=60, drain_cycles=40)
            for seed in (1, 2, 3, 5, 8)
        ]
        batched = run_batch(configs, check_invariants=True)
        for cfg, res in zip(configs, batched):
            assert canonical(res) == canonical(Simulator(cfg).run()), cfg.seed

    def test_mixed_shapes_rejected(self):
        from repro.sim.vector.batch import run_batch

        a = Case("flit_bless").config("vector")
        b = Case("buffered4").config("vector")
        with pytest.raises(ValueError, match="shape"):
            run_batch([a, b])

    def test_object_backend_rejected(self):
        from repro.sim.vector.batch import run_batch

        with pytest.raises(ValueError, match="vector kernels"):
            run_batch([Case("scarab").config()])

    def test_closed_loop_rejected(self):
        from repro.sim.vector.batch import run_batch

        with pytest.raises(ValueError, match="open-loop"):
            run_batch([Case("buffered4", max_cycles=1000).config("vector")])

    def test_empty_batch_rejected(self):
        from repro.sim.vector.batch import run_batch

        with pytest.raises(ValueError, match="empty"):
            run_batch([])


class TestBackendSelection:
    def test_explicit_vector_on_unsupported_design_raises(self):
        with pytest.raises(ConfigError, match="auto"):
            SimConfig(design="scarab", backend="vector")

    def test_unknown_backend_rejected(self):
        with pytest.raises(ConfigError):
            SimConfig(design="flit_bless", backend="jit")

    def test_auto_resolves_to_vector_on_piloted_design(self):
        cfg = SimConfig(design="buffered4", backend="auto")
        assert cfg.resolved_backend() == "vector"

    def test_auto_falls_back_with_warning_once(self):
        _FALLBACK_WARNED.clear()
        cfg = SimConfig(design="scarab", backend="auto")
        with pytest.warns(RuntimeWarning, match="falling back"):
            assert cfg.resolved_backend() == "object"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cfg.resolved_backend() == "object"

    def test_engine_dispatches_vector_network(self):
        from repro.sim.vector import VectorNetwork

        sim = Simulator(Case("flit_bless").config("vector"))
        assert isinstance(sim.network, VectorNetwork)

    def test_trace_sink_forces_object_fallback(self, tmp_path):
        from repro.sim.config import TelemetryConfig

        _FALLBACK_WARNED.clear()
        telemetry = TelemetryConfig(trace_path=str(tmp_path / "t.jsonl"))
        cfg = Case("flit_bless").config("auto").with_(telemetry=telemetry)
        with pytest.warns(RuntimeWarning, match="falling back"):
            assert cfg.resolved_backend() == "object"


class TestAutoBackendWorkHeuristic:
    """backend='auto' must pick the *faster* backend, not merely a legal
    one: below a design's ``vector_min_work`` (k^2 x offered load, the
    expected flits in flight per cycle) the object walk wins and auto
    must take it — silently, because nothing is missing, this is a pure
    performance choice."""

    def test_low_work_resolves_to_object_without_warning(self):
        # flit_bless: vector_min_work=10; k=4 @ 0.3 -> work 4.8.
        cfg = Case("flit_bless", k=4, load=0.3).config("auto")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cfg.resolved_backend() == "object"

    def test_high_work_resolves_to_vector(self):
        # k=8 @ 0.3 -> work 19.2, above flit_bless's threshold.
        cfg = Case("flit_bless", k=8, load=0.3).config("auto")
        assert cfg.resolved_backend() == "vector"

    def test_threshold_is_strict(self):
        # Exactly at the threshold the vector kernel already pays off.
        spec_min = 10.0  # flit_bless's registered vector_min_work
        load = spec_min / 16  # k=4 -> work == threshold
        cfg = Case("flit_bless", k=4, load=load).config("auto")
        assert cfg.resolved_backend() == "vector"

    def test_explicit_vector_bypasses_heuristic(self):
        cfg = Case("flit_bless", k=4, load=0.05).config("vector")
        assert cfg.resolved_backend() == "vector"

    def test_design_without_threshold_always_vectorizes(self):
        # buffered4 registers no vector_min_work: auto -> vector at any load.
        cfg = Case("buffered4", k=4, load=0.05).config("auto")
        assert cfg.resolved_backend() == "vector"

    @pytest.mark.parametrize("design", DESIGNS.names())
    def test_fastest_backend_is_the_auto_choice(self, design):
        """``fastest_backend()`` is ``auto``'s choice, whatever the
        requested backend, and never warns."""
        for k, load in ((4, 0.05), (4, 0.8), (8, 0.3)):
            cfg = Case(design, k=k, load=load).config("auto")
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                resolved = cfg.resolved_backend()
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                assert cfg.fastest_backend() == resolved, (k, load)
                assert cfg.with_(backend="object").fastest_backend() == resolved

    def test_tracing_makes_object_the_fastest(self):
        from repro.sim.config import TelemetryConfig

        cfg = Case("buffered4").config().with_(telemetry=TelemetryConfig(trace_buffer=64))
        assert cfg.fastest_backend() == "object"

    def test_backend_choice_reasons(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            # A concrete backend that overrides the auto rule.
            assert Case("buffered4").config("object").backend_choice() == (
                "object", "requested explicitly")
            assert Case("flit_bless").config("vector").backend_choice() == (
                "vector", "requested explicitly")
            # ``auto``, or a concrete backend equal to its choice (what the
            # sweep drivers stamp), journals the rule's reason.
            for backend in ("auto", "vector"):
                assert Case("buffered4").config(backend).backend_choice() == (
                    "vector", "auto: kernel")
            for backend in ("auto", "object"):
                low = Case("flit_bless", k=4, load=0.3).config(backend)
                # The reason names the rate the rule weighed (k**2 x load).
                assert low.backend_choice() == (
                    "object", "auto: below vector_min_work (4.80 flits/cycle < 10)")
                high = Case("flit_bless", k=8, load=0.3).config(backend)
                assert high.backend_choice() == (
                    ("vector", "auto: kernel (19.20 flits/cycle >= 10)")
                    if backend == "auto" else ("object", "requested explicitly"))
                resolved, reason = Case("scarab").config(backend).backend_choice()
                assert resolved == "object"
                assert reason.startswith(
                    "auto: design 'scarab' has no vectorized kernel")


class TestDualCrossbarRunsTheObjectWalk:
    """The dual-crossbar designs have no vector kernel: an explicit vector
    request is a config error, and auto falls back to the object walk with
    the one-time capability warning, exactly as any kernel-less design."""

    @pytest.mark.parametrize("design", DUAL_XBAR)
    def test_explicit_vector_raises_naming_the_design(self, design):
        with pytest.raises(ConfigError, match=f"design '{design}'"):
            Case(design).config("vector")

    @pytest.mark.parametrize("design", DUAL_XBAR)
    def test_auto_warns_once_and_resolves_to_object(self, design):
        _FALLBACK_WARNED.clear()
        cfg = Case(design, k=8, faults=FaultConfig(percent=50)).config("auto")
        with pytest.warns(RuntimeWarning, match=f"design '{design}'"):
            assert cfg.resolved_backend() == "object"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cfg.resolved_backend() == "object"
