"""Differential and unit tests for the vectorized (SoA) backend.

The hard requirement: a vector-backend run must be *bit-exact* with the
object walk — identical ``SimResult.to_dict()`` (including the float
energy accumulators and per-packet latency/energy lists) for every
piloted design, pattern, load, seed, and workload, and checkpoints must
round-trip across backends in both directions.
"""

from __future__ import annotations

import warnings

import pytest

from repro.sim.config import ConfigError, FaultConfig, SimConfig, _FALLBACK_WARNED
from repro.sim.engine import Simulator
from repro.sim.topology import Mesh
from repro.traffic.splash2 import make_splash2_workload

PILOTED = ["flit_bless", "buffered4"]

#: The paper's dual-crossbar family: no vector kernel, the object routers
#: are the one implementation of its semantics.
DUAL_XBAR = ["dxbar_dor", "dxbar_wf", "unified_dor", "unified_wf"]


def _config(design: str, **overrides) -> SimConfig:
    defaults = dict(
        design=design,
        k=4,
        pattern="UR",
        offered_load=0.3,
        warmup_cycles=50,
        measure_cycles=300,
        drain_cycles=400,
        packet_size=2,
        seed=11,
    )
    defaults.update(overrides)
    return SimConfig(**defaults)


def _run(config: SimConfig, workload=None, audit=False) -> dict:
    result = Simulator(config, workload=workload, audit=audit).run(
        check_invariants=True
    )
    d = result.to_dict()
    # Wall-clock profile timings are the one legitimately nondeterministic
    # field.
    d.get("extra", {}).pop("profile", None)
    return d


def _pair(design: str, **overrides):
    obj = _run(_config(design, backend="object", **overrides))
    vec = _run(_config(design, backend="vector", **overrides))
    return obj, vec


class TestBitExactness:
    """Vector vs object: identical results across the differential grid."""

    @pytest.mark.parametrize("design", PILOTED)
    @pytest.mark.parametrize("seed", [1, 7, 23])
    def test_seeds(self, design, seed):
        obj, vec = _pair(design, seed=seed)
        assert obj == vec

    @pytest.mark.parametrize("design", PILOTED)
    @pytest.mark.parametrize("load", [0.05, 0.35, 0.7])
    def test_loads(self, design, load):
        obj, vec = _pair(design, offered_load=load)
        assert obj == vec

    @pytest.mark.parametrize("design", PILOTED)
    @pytest.mark.parametrize("k", [2, 3, 8])
    def test_radices(self, design, k):
        obj, vec = _pair(design, k=k)
        assert obj == vec

    @pytest.mark.parametrize("design", PILOTED)
    @pytest.mark.parametrize("pattern", ["BR", "TOR", "NB"])
    def test_patterns(self, design, pattern):
        obj, vec = _pair(design, pattern=pattern)
        assert obj == vec

    @pytest.mark.parametrize("design", PILOTED)
    def test_multi_flit_packets(self, design):
        obj, vec = _pair(design, packet_size=5)
        assert obj == vec

    @pytest.mark.parametrize("design", PILOTED)
    def test_closed_loop_splash2(self, design):
        """Replies injected from on_eject mid-step must honour the object
        walk's node-order visibility rules."""
        results = []
        for backend in ("object", "vector"):
            cfg = _config(design, backend=backend, max_cycles=30000)
            wl = make_splash2_workload("FFT", Mesh(cfg.k), txns_per_core=30, seed=5)
            results.append(_run(cfg, workload=wl))
        assert results[0] == results[1]

    @pytest.mark.parametrize("design", PILOTED)
    def test_audited_vector_run_is_bit_exact(self, design):
        """The per-cycle auditor reads the SoA state through adapter views;
        it must pass and must not perturb the simulation."""
        cfg = _config(design, backend="vector")
        assert _run(cfg, audit=True) == _run(cfg)


class TestCheckpointAcrossBackends:
    """Checkpoints are backend-neutral: save on one backend, resume on the
    other, land on the uninterrupted run's exact result."""

    @pytest.mark.parametrize("design", PILOTED)
    @pytest.mark.parametrize(
        "src,dst",
        [("object", "vector"), ("vector", "object"), ("vector", "vector")],
    )
    def test_cross_backend_resume(self, design, src, dst, tmp_path):
        golden = _run(_config(design, backend="object"))
        sim = Simulator(_config(design, backend=src))
        for cycle in range(120):
            sim.workload.tick(cycle, sim.network)
            sim.network.step()
        path = tmp_path / "ckpt.json"
        sim.save_checkpoint(path)
        resumed = Simulator.resume_from(path, config=_config(design, backend=dst))
        result = resumed.run(check_invariants=True).to_dict()
        result.get("extra", {}).pop("profile", None)
        assert result == golden

    @pytest.mark.parametrize("design", PILOTED)
    def test_vector_state_dict_matches_object(self, design):
        """Identical histories produce identical state trees, field for
        field — the strongest form of the bit-exactness claim."""
        sims = []
        for backend in ("object", "vector"):
            sim = Simulator(_config(design, backend=backend))
            for cycle in range(150):
                sim.workload.tick(cycle, sim.network)
                sim.network.step()
            sims.append(sim)
        assert sims[0].state_dict() == sims[1].state_dict()


class TestBatchedStepping:
    """``run_batch`` steps N same-shape simulations in lockstep; each
    member's SimResult must be byte-identical to running it alone."""

    @pytest.mark.parametrize("design", PILOTED)
    def test_batch_matches_solo_over_seeds(self, design):
        from repro.sim.vector.batch import run_batch

        configs = [
            _config(design, backend="vector", seed=seed, warmup_cycles=20,
                    measure_cycles=60, drain_cycles=40)
            for seed in (1, 2, 3, 5, 8)
        ]
        batched = run_batch(configs, check_invariants=True)
        for cfg, res in zip(configs, batched):
            solo = Simulator(cfg).run().to_dict()
            solo.get("extra", {}).pop("profile", None)
            got = res.to_dict()
            got.get("extra", {}).pop("profile", None)
            assert got == solo, cfg.seed

    def test_mixed_shapes_rejected(self):
        from repro.sim.vector.batch import run_batch

        a = _config("flit_bless", backend="vector")
        b = _config("buffered4", backend="vector")
        with pytest.raises(ValueError, match="shape"):
            run_batch([a, b])

    def test_object_backend_rejected(self):
        from repro.sim.vector.batch import run_batch

        with pytest.raises(ValueError, match="vector kernels"):
            run_batch([_config("scarab")])

    def test_closed_loop_rejected(self):
        from repro.sim.vector.batch import run_batch

        with pytest.raises(ValueError, match="open-loop"):
            run_batch([_config("buffered4", backend="vector", max_cycles=1000)])

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

        sim = Simulator(_config("flit_bless", backend="vector"))
        assert isinstance(sim.network, VectorNetwork)

    def test_trace_sink_forces_object_fallback(self, tmp_path):
        from repro.sim.config import TelemetryConfig

        _FALLBACK_WARNED.clear()
        cfg = _config(
            "flit_bless",
            backend="auto",
            telemetry=TelemetryConfig(trace_path=str(tmp_path / "t.jsonl")),
        )
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
        cfg = _config("flit_bless", backend="auto", k=4, offered_load=0.3)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cfg.resolved_backend() == "object"

    def test_high_work_resolves_to_vector(self):
        # k=8 @ 0.3 -> work 19.2, above flit_bless's threshold.
        cfg = _config("flit_bless", backend="auto", k=8, offered_load=0.3)
        assert cfg.resolved_backend() == "vector"

    def test_threshold_is_strict(self):
        # Exactly at the threshold the vector kernel already pays off.
        spec_min = 10.0  # flit_bless's registered vector_min_work
        load = spec_min / 16  # k=4 -> work == threshold
        cfg = _config("flit_bless", backend="auto", k=4, offered_load=load)
        assert cfg.resolved_backend() == "vector"

    def test_explicit_vector_bypasses_heuristic(self):
        cfg = _config("flit_bless", backend="vector", k=4, offered_load=0.05)
        assert cfg.resolved_backend() == "vector"

    def test_design_without_threshold_always_vectorizes(self):
        # buffered4 registers no vector_min_work: auto -> vector at any load.
        cfg = _config("buffered4", backend="auto", k=4, offered_load=0.05)
        assert cfg.resolved_backend() == "vector"


class TestDualCrossbarRunsTheObjectWalk:
    """The dual-crossbar designs have no vector kernel: an explicit vector
    request is a config error, and auto falls back to the object walk with
    the one-time capability warning, exactly as any kernel-less design."""

    @pytest.mark.parametrize("design", DUAL_XBAR)
    def test_explicit_vector_raises_naming_the_design(self, design):
        with pytest.raises(ConfigError, match=f"design '{design}'"):
            _config(design, backend="vector")

    @pytest.mark.parametrize("design", DUAL_XBAR)
    def test_auto_warns_once_and_resolves_to_object(self, design):
        _FALLBACK_WARNED.clear()
        cfg = _config(design, backend="auto", k=8, faults=FaultConfig(percent=50))
        with pytest.warns(RuntimeWarning, match=f"design '{design}'"):
            assert cfg.resolved_backend() == "object"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cfg.resolved_backend() == "object"
