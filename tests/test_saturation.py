"""Tests for the adaptive saturation-search service."""

import json
import math

import pytest

from repro.analysis.saturation import render_saturation, saturation_summary
from repro.registry import DESIGNS, ROUTING
from repro.routing.capacity import channel_capacity
from repro.runner import ResultCache, SaturationError, SaturationSpec, run_saturation
from repro.runner.executor import RunOutcome
from repro.runner.rundir import run_paths
from repro.runner.saturation import _Search, load_manifest, load_report
from repro.sim.stats import SimResult
from repro.sim.topology import Mesh
from repro.traffic.patterns import make_pattern

#: Short cycle counts for the (few) tests that run real simulations.
FAST_SIM = {"warmup_cycles": 20, "measure_cycles": 60, "drain_cycles": 40}


def analytic_capacity(design: str, k: int, pattern: str = "UR") -> float:
    mesh = Mesh(k)
    routing = ROUTING.get(DESIGNS.get(design).routing)(mesh)
    return channel_capacity(make_pattern(pattern, mesh), mesh, routing)


def fake_result(cfg, accepted: float, latency: float) -> SimResult:
    """A complete synthetic SimResult carrying just the fields the
    saturation criteria read (accepted load and flit latency)."""
    return SimResult(
        design=cfg.design,
        offered_load=cfg.offered_load,
        capacity=1.0,
        cycles=100,
        final_cycle=100,
        injected_flits=1000,
        ejected_flits=1000,
        accepted_flits_per_node_cycle=accepted,
        accepted_load=accepted,
        avg_flit_latency=latency,
        avg_network_latency=latency,
        avg_hops=2.0,
        avg_packet_latency=latency,
        avg_packet_energy_nj=1.0,
        measured_packets_completed=100,
        packets_completed=100,
        deflections_per_flit=0.0,
        buffered_fraction=0.0,
        retransmissions=0,
        drops=0,
        fairness_flips=0,
        allocator_swaps=0,
        fault_reconfigurations=0,
        energy_buffer_nj=0.0,
        energy_xbar_nj=0.0,
        energy_link_nj=0.0,
        energy_nack_nj=0.0,
    )


def make_runner(measure, calls=None):
    """A run_specs stand-in: same keyword surface, same cache protocol,
    but measurements come from ``measure(config) -> SimResult``."""

    def runner(specs, *, jobs=1, root=None, progress=None, plugins=(),
               retries=2, retry_backoff=0.5, job_timeout=None, audit=False):
        cache = ResultCache(run_paths(root).cache) if root is not None else None
        outcomes = []
        for spec in specs:
            hit = cache.get(spec) if cache is not None else None
            if hit is not None:
                outcomes.append(
                    RunOutcome(spec, SimResult.from_dict(hit), cached=True)
                )
                continue
            result = measure(spec.config)
            if calls is not None:
                calls.append(spec.config)
            if cache is not None:
                cache.put(spec, result.to_dict())
            outcomes.append(RunOutcome(spec, result, attempts=1))
        return outcomes

    return runner


def cliff_runner(cliffs, calls=None):
    """Ideal saturation physics: below the design's cliff the network
    accepts everything at low latency; at or above it, throughput tops
    out below the acceptance threshold and latency explodes."""

    def measure(cfg):
        cliff = cliffs[cfg.design]
        if cfg.offered_load < cliff:
            return fake_result(cfg, accepted=cfg.offered_load, latency=10.0)
        return fake_result(cfg, accepted=0.8 * cliff, latency=400.0)

    return make_runner(measure, calls)


def spec_for(design: str, k: int, **overrides) -> SaturationSpec:
    kw = dict(designs=(design,), k=k, tolerance=0.01, seed=7)
    kw.update(overrides)
    return SaturationSpec(**kw)


# ----------------------------------------------------------------------
# spec
# ----------------------------------------------------------------------
class TestSaturationSpec:
    def test_round_trip_and_hash(self):
        spec = SaturationSpec(
            designs=("dxbar_dor", "unified_wf"), k=4, criterion="latency",
            sim={"packet_size": 4},
        )
        again = SaturationSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
        assert again == spec
        assert again.search_hash() == spec.search_hash()

    def test_hash_sensitive_to_tolerance(self):
        a = SaturationSpec(tolerance=0.02).search_hash()
        b = SaturationSpec(tolerance=0.01).search_hash()
        assert a != b

    def test_unknown_design_rejected(self):
        with pytest.raises(ValueError, match="unknown design"):
            SaturationSpec(designs=("warp",))

    def test_duplicate_designs_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            SaturationSpec(designs=("dxbar_dor", "dxbar_dor"))

    def test_bad_criterion_rejected(self):
        with pytest.raises(ValueError, match="criterion"):
            SaturationSpec(criterion="deflections")

    def test_range_must_exceed_tolerance(self):
        with pytest.raises(ValueError, match="wider than"):
            SaturationSpec(min_load=0.4, max_load=0.5, tolerance=0.2)

    def test_reserved_sim_key_rejected(self):
        with pytest.raises(ValueError, match="owned by the search"):
            SaturationSpec(sim={"offered_load": 0.5})

    def test_bad_sim_override_fails_eagerly(self):
        with pytest.raises(TypeError):
            SaturationSpec(sim={"warp_factor": 9})

    def test_unknown_fields_rejected(self):
        with pytest.raises(ValueError, match="unknown SaturationSpec"):
            SaturationSpec.from_dict({"designs": ["dxbar_dor"], "fleet": 2})


# ----------------------------------------------------------------------
# convergence (synthetic measurements)
# ----------------------------------------------------------------------
class TestConvergence:
    @pytest.mark.parametrize("k", [4, 8])
    def test_dor_uniform_converges_to_analytic_cliff(self, tmp_path, k):
        """The ISSUE acceptance case: DOR/UR at k=4 and k=8 must find a
        cliff placed at a known fraction of the analytic channel capacity
        to within the configured tolerance."""
        cap = analytic_capacity("dxbar_dor", k)
        cliff = 0.75 * cap
        spec = spec_for("dxbar_dor", k)
        res = run_saturation(
            tmp_path / "s", spec, runner=cliff_runner({"dxbar_dor": cliff})
        )
        (entry,) = res.results
        assert entry["status"] == "converged"
        assert abs(entry["saturation_load"] - cliff) <= spec.tolerance
        assert entry["latency_at_knee"] == 10.0

    def test_fewer_probes_than_fixed_grid(self, tmp_path):
        """The adaptive search's reason to exist: it must beat a fixed
        grid scanning the same range at the same resolution."""
        spec = spec_for("dxbar_dor", 8)
        cliff = 0.75 * analytic_capacity("dxbar_dor", 8)
        res = run_saturation(
            tmp_path / "s", spec, runner=cliff_runner({"dxbar_dor": cliff})
        )
        grid_points = (
            math.ceil((spec.max_load - spec.min_load) / spec.tolerance) + 1
        )
        assert res.probes_executed < grid_points
        assert res.probes_executed == res.probes_total  # cold cache

    def test_all_designs_converge(self, tmp_path):
        designs = tuple(sorted(DESIGNS.names()))
        cliffs = {d: 0.7 * analytic_capacity(d, 4) for d in designs}
        spec = SaturationSpec(designs=designs, k=4, tolerance=0.01, seed=3)
        res = run_saturation(tmp_path / "s", spec, runner=cliff_runner(cliffs))
        assert not res.failures
        for entry in res.results:
            assert entry["status"] == "converged"
            assert (
                abs(entry["saturation_load"] - cliffs[entry["design"]])
                <= spec.tolerance
            )

    def test_capacity_is_computed_once_per_routing_function(self, tmp_path, monkeypatch):
        """Designs that share a routing function share one path walk, and
        each still reports its own routing function's capacity."""
        import repro.routing.capacity as capacity

        designs = ("dxbar_dor", "dxbar_wf", "unified_dor", "flit_bless", "unified_wf")
        cliffs = {d: 0.7 * analytic_capacity(d, 4) for d in designs}
        capacity.mesh_capacity.cache_clear()  # count this search's walks
        walks = []
        real = capacity.channel_loads
        monkeypatch.setattr(
            capacity, "channel_loads", lambda *a: walks.append(a) or real(*a)
        )
        spec = SaturationSpec(designs=designs, k=4, tolerance=0.05, seed=3)
        res = run_saturation(tmp_path / "s", spec, runner=cliff_runner(cliffs))
        assert len(walks) == 3  # dor, wf, adaptive
        assert {e["design"]: e["capacity"] for e in res.results} == {
            d: round(analytic_capacity(d, 4), 9) for d in designs
        }

    def test_latency_criterion_finds_latency_cliff(self, tmp_path):
        """With accepted throughput always keeping up, only the latency
        criterion can see this cliff."""
        cap = analytic_capacity("dxbar_dor", 8)
        cliff = 0.8 * cap

        def measure(cfg):
            lat = 10.0 if cfg.offered_load < cliff else 100.0
            return fake_result(cfg, accepted=cfg.offered_load, latency=lat)

        spec = spec_for("dxbar_dor", 8, criterion="latency", latency_factor=4.0)
        res = run_saturation(tmp_path / "s", spec, runner=make_runner(measure))
        (entry,) = res.results
        assert entry["status"] == "converged"
        assert abs(entry["saturation_load"] - cliff) <= spec.tolerance

    def test_saturated_below_range_detected(self, tmp_path):
        def measure(cfg):  # congested at any load
            return fake_result(cfg, accepted=0.0, latency=500.0)

        res = run_saturation(
            tmp_path / "s", spec_for("dxbar_dor", 8),
            runner=make_runner(measure),
        )
        assert res.results[0]["status"] == "below_range"

    def test_unsaturated_range_detected(self, tmp_path):
        def measure(cfg):  # ideal up to any load
            return fake_result(cfg, accepted=cfg.offered_load, latency=10.0)

        res = run_saturation(
            tmp_path / "s", spec_for("dxbar_dor", 8),
            runner=make_runner(measure),
        )
        (entry,) = res.results
        assert entry["status"] == "unsaturated"
        assert entry["saturation_load"] == pytest.approx(1.0)


# ----------------------------------------------------------------------
# speculative probing
# ----------------------------------------------------------------------
class TestSpeculation:
    def test_speculative_report_byte_identical_to_serial(self, tmp_path):
        designs = ("dxbar_dor", "unified_wf", "buffered4")
        cliffs = {d: 0.7 * analytic_capacity(d, 8) for d in designs}
        spec = SaturationSpec(designs=designs, k=8, tolerance=0.005, seed=5)
        serial = run_saturation(
            tmp_path / "ser", spec, runner=cliff_runner(cliffs), speculation=0
        )
        spec_run = run_saturation(
            tmp_path / "spc", spec, runner=cliff_runner(cliffs), speculation=6
        )
        assert (tmp_path / "ser" / "saturation.json").read_bytes() == (
            tmp_path / "spc" / "saturation.json"
        ).read_bytes()
        # Speculation trades extra probes for fewer service rounds.
        assert spec_run.rounds < serial.rounds
        assert spec_run.probes_executed >= serial.probes_executed


# ----------------------------------------------------------------------
# resume
# ----------------------------------------------------------------------
class TestResume:
    def test_resume_is_pure_cache_hits_and_byte_identical(self, tmp_path):
        root = tmp_path / "s"
        cliffs = {"dxbar_dor": 0.7 * analytic_capacity("dxbar_dor", 8)}
        spec = spec_for("dxbar_dor", 8)
        run_saturation(root, spec, runner=cliff_runner(cliffs))
        report = (root / "saturation.json").read_bytes()
        manifest = (root / "manifest.json").read_bytes()
        res = run_saturation(root, runner=cliff_runner(cliffs))  # from manifest
        assert res.probes_executed == 0
        assert res.probes_total > 0
        assert (root / "saturation.json").read_bytes() == report
        assert (root / "manifest.json").read_bytes() == manifest

    def test_finished_rerun_walks_nothing_and_leaves_the_report(
        self, tmp_path, monkeypatch
    ):
        """A same-process re-run of a finished search walks no channel
        loads, executes no probe and does not replace ``saturation.json``
        (same inode and mtime)."""
        import repro.routing.capacity as capacity

        root = tmp_path / "s"
        designs = ("buffered4", "flit_bless", "dxbar_dor")
        cliffs = {d: 0.7 * analytic_capacity(d, 8) for d in designs}
        spec = SaturationSpec(designs=designs, k=8, tolerance=0.05, seed=5)
        run_saturation(root, spec, runner=cliff_runner(cliffs))
        report = root / "saturation.json"
        first, before = report.read_bytes(), report.stat()
        walks = []
        real = capacity.channel_loads
        monkeypatch.setattr(
            capacity, "channel_loads", lambda *a: walks.append(a) or real(*a)
        )
        res = run_saturation(root, runner=cliff_runner(cliffs))
        assert walks == []
        assert res.probes_executed == 0 and res.probes_total > 0
        after = report.stat()
        assert (after.st_ino, after.st_mtime_ns) == (before.st_ino, before.st_mtime_ns)
        assert report.read_bytes() == first

    @pytest.mark.parametrize("interrupt_at", [1, 2, 3])
    def test_interrupted_warm_rerun_keeps_the_finished_report(
        self, tmp_path, interrupt_at
    ):
        """A re-run of a finished search replays its rounds from the cache;
        stopped after any of them, it must not have replaced the finished
        report with its own partial (all ``pending``) one."""

        class Stop(Exception):
            pass

        root = tmp_path / "s"
        designs = ("buffered4", "flit_bless", "dxbar_dor")
        cliffs = {d: 0.7 * analytic_capacity(d, 8) for d in designs}
        spec = SaturationSpec(designs=designs, k=8, tolerance=0.05, seed=5)
        done = run_saturation(root, spec, runner=cliff_runner(cliffs))
        assert done.rounds > interrupt_at
        first = (root / "saturation.json").read_bytes()
        replay = cliff_runner(cliffs)
        calls = []

        def interrupted(specs, **kw):
            calls.append(len(specs))
            if len(calls) == interrupt_at:
                raise Stop()
            return replay(specs, **kw)

        with pytest.raises(Stop):
            run_saturation(root, runner=interrupted)
        assert (root / "saturation.json").read_bytes() == first
        assert all(e["status"] == "converged" for e in load_report(root)["designs"])

    def test_partial_cache_resume_executes_only_the_missing(self, tmp_path):
        """A killed search = a directory whose cache holds a strict subset
        of the probe sequence; the re-run replays the same decisions and
        fills in exactly the holes."""
        root = tmp_path / "s"
        cliffs = {"dxbar_dor": 0.7 * analytic_capacity("dxbar_dor", 8)}
        run_saturation(root, spec_for("dxbar_dor", 8), runner=cliff_runner(cliffs))
        want = (root / "saturation.json").read_bytes()
        victims = sorted((root / "cache").glob("*.json"))[::2]
        assert victims
        for path in victims:
            path.unlink()
        (root / "saturation.json").unlink()  # crash before the last write
        res = run_saturation(root, runner=cliff_runner(cliffs))
        assert res.probes_executed == len(victims)
        assert (root / "saturation.json").read_bytes() == want

    def test_mismatched_spec_refused(self, tmp_path):
        root = tmp_path / "s"
        cliffs = {"dxbar_dor": 0.3}
        run_saturation(root, spec_for("dxbar_dor", 8), runner=cliff_runner(cliffs))
        with pytest.raises(SaturationError, match="refusing"):
            run_saturation(
                root, spec_for("dxbar_dor", 8, seed=99),
                runner=cliff_runner(cliffs),
            )

    def test_missing_manifest_and_spec_refused(self, tmp_path):
        with pytest.raises(SaturationError, match="no saturation manifest"):
            run_saturation(tmp_path / "nowhere")

    def test_corrupt_manifest_refused(self, tmp_path):
        root = tmp_path / "s"
        root.mkdir()
        (root / "manifest.json").write_text("{not json")
        with pytest.raises(SaturationError, match="corrupt"):
            run_saturation(root, spec_for("dxbar_dor", 8))

    def test_schema_version_checked(self, tmp_path):
        root = tmp_path / "s"
        root.mkdir()
        spec = spec_for("dxbar_dor", 8)
        (root / "manifest.json").write_text(json.dumps({
            "schema_version": 99,
            "search_id": spec.search_hash(),
            "spec": spec.to_dict(),
        }))
        with pytest.raises(SaturationError, match="schema_version"):
            load_manifest(root)

    @pytest.mark.parametrize("bad", [{"fleet": 2}, {"tolerance": -1}])
    def test_invalid_manifest_spec_is_a_saturation_error(self, tmp_path, bad):
        root = tmp_path / "s"
        spec = spec_for("dxbar_dor", 8)
        run_saturation(root, spec, runner=cliff_runner({"dxbar_dor": 0.3}))
        manifest = json.loads((root / "manifest.json").read_text())
        manifest["spec"].update(bad)
        (root / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(SaturationError, match="invalid spec in saturation manifest"):
            load_manifest(root)
        with pytest.raises(SaturationError, match="invalid spec"):
            run_saturation(root, runner=cliff_runner({"dxbar_dor": 0.3}))


# ----------------------------------------------------------------------
# non-monotone refusal
# ----------------------------------------------------------------------
class TestNonMonotone:
    def contradict(self, search):
        """Plant a stable measurement above an unstable one."""
        cfg = search.spec.base_config()
        search.bracketed = True
        search.measured = {
            0.2: fake_result(cfg.with_(offered_load=0.2), 0.05, 400.0),
            0.4: fake_result(cfg.with_(offered_load=0.4), 0.4, 10.0),
        }

    def test_contradiction_widens_and_reseeds(self):
        s = _Search(
            spec_for("dxbar_dor", 8, max_widenings=2),
            "dxbar_dor",
            analytic_capacity("dxbar_dor", 8),
        )
        seed0 = s.seed()
        self.contradict(s)
        s.integrate()
        assert s.status == "pending"
        assert s.generation == 1
        assert s.measured == {}  # the tainted generation is discarded
        assert s.lo <= 0.2 * 0.5 + 1e-9 or s.lo == s.spec.min_load
        assert s.hi >= min(1.5 * 0.4, s.spec.max_load) - 1e-9
        assert s.seed() != seed0

    def test_contradiction_fails_after_max_widenings(self):
        s = _Search(
            spec_for("dxbar_dor", 8, max_widenings=1),
            "dxbar_dor",
            analytic_capacity("dxbar_dor", 8),
        )
        self.contradict(s)
        s.integrate()
        assert s.status == "pending" and s.generation == 1
        self.contradict(s)
        s.integrate()
        assert s.status == "failed"
        assert "non-monotone" in s.error and "1 bracket widening" in s.error

    def test_noisy_generation_recovers_end_to_end(self, tmp_path):
        """Speculative probes straddle a seed-dependent noise window in
        one round, exposing the contradiction; the widened generation
        re-probes under fresh seeds and converges on the true cliff."""
        cap = analytic_capacity("dxbar_dor", 8)
        cliff = 0.95 * cap
        spec = spec_for("dxbar_dor", 8, max_widenings=2)
        lo0, hi0 = 0.5 * cap, 1.05 * cap
        mid = 0.5 * (lo0 + hi0)  # the round-2 midpoint probe

        def measure(cfg):
            noisy = (
                cfg.seed == spec.seed
                and abs(cfg.offered_load - mid) < 1e-3
            )
            if cfg.offered_load < cliff and not noisy:
                return fake_result(cfg, accepted=cfg.offered_load, latency=10.0)
            return fake_result(cfg, accepted=0.5 * cfg.offered_load, latency=400.0)

        res = run_saturation(
            tmp_path / "s", spec, runner=make_runner(measure), speculation=2
        )
        (entry,) = res.results
        assert entry["status"] == "converged"
        assert entry["generation"] == 1
        assert abs(entry["saturation_load"] - cliff) <= spec.tolerance

    def test_persistent_contradiction_fails_without_discarding_others(
        self, tmp_path
    ):
        """Inverted physics (stable only at high load) contradicts every
        generation; the design must report failed while its clean sibling
        still converges."""
        clean_cliff = 0.7 * analytic_capacity("dxbar_dor", 8)
        inversion = 0.75 * analytic_capacity("scarab", 8)

        def measure(cfg):
            if cfg.design == "scarab":  # inverted: stable above the line
                stable = cfg.offered_load > inversion
            else:
                stable = cfg.offered_load < clean_cliff
            if stable:
                return fake_result(cfg, accepted=cfg.offered_load, latency=10.0)
            return fake_result(cfg, accepted=0.0, latency=400.0)

        spec = SaturationSpec(
            designs=("dxbar_dor", "scarab"), k=8, tolerance=0.01,
            seed=7, max_widenings=1,
        )
        res = run_saturation(tmp_path / "s", spec, runner=make_runner(measure))
        by_design = {e["design"]: e for e in res.results}
        assert by_design["scarab"]["status"] == "failed"
        assert "non-monotone" in by_design["scarab"]["error"]
        assert by_design["dxbar_dor"]["status"] == "converged"
        assert res.failures == [
            ("scarab", by_design["scarab"]["error"])
        ]


# ----------------------------------------------------------------------
# probe failures
# ----------------------------------------------------------------------
class TestProbeFailures:
    def test_terminal_probe_failure_lists_job_ids(self, tmp_path):
        def runner(specs, **kwargs):
            return [
                RunOutcome(s, None, error="RuntimeError: boom", attempts=3)
                for s in specs
            ]

        spec = spec_for("dxbar_dor", 8)
        with pytest.raises(SaturationError, match="failed terminally") as exc:
            run_saturation(tmp_path / "s", spec, runner=runner)
        assert "RuntimeError: boom" in str(exc.value)

    def test_sweep_results_failure_path_lists_every_job(self):
        """The analysis-layer twin of the probe-failure guard: results_of
        must name every terminally-failed sweep job, not just the first."""
        from repro.runner.executor import results_of
        from repro.runner import RunSpec
        from repro.sim.config import SimConfig

        specs = [
            RunSpec(SimConfig(design="dxbar_dor", offered_load=l, k=4))
            for l in (0.1, 0.2, 0.3)
        ]
        ok = fake_result(specs[1].config, 0.2, 10.0)
        outcomes = [
            RunOutcome(specs[0], None, error="TimeoutError: too slow"),
            RunOutcome(specs[1], ok),
            RunOutcome(specs[2], None, error="ValueError: nan latency"),
        ]
        with pytest.raises(RuntimeError, match="sweep jobs failed") as exc:
            results_of(outcomes, "sweep jobs")
        msg = str(exc.value)
        assert specs[0].job_id() in msg and specs[2].job_id() in msg
        assert "TimeoutError: too slow" in msg
        assert "ValueError: nan latency" in msg
        assert specs[1].job_id() not in msg


# ----------------------------------------------------------------------
# report, analytics
# ----------------------------------------------------------------------
class TestReporting:
    def finished_root(self, tmp_path):
        root = tmp_path / "s"
        cliffs = {"dxbar_dor": 0.7 * analytic_capacity("dxbar_dor", 8)}
        run_saturation(root, spec_for("dxbar_dor", 8), runner=cliff_runner(cliffs))
        return root

    def test_report_payload_deterministic_fields_only(self, tmp_path):
        root = self.finished_root(tmp_path)
        payload = load_report(root)
        assert payload["search_id"] == load_manifest(root).search_hash()
        (entry,) = payload["designs"]
        assert "probes" not in entry  # execution stats stay off the report
        assert entry["bracket"][1] - entry["bracket"][0] <= 0.01 + 1e-9

    def test_summary_and_render(self, tmp_path):
        root = self.finished_root(tmp_path)
        (row,) = saturation_summary(root)
        assert row["design"] == "dxbar_dor"
        assert row["status"] == "converged"
        assert 0.0 < row["capacity_fraction"] < 1.0
        text = render_saturation(root)
        assert "saturation search" in text
        assert "1/1 designs done" in text
        assert "DXbar DOR" in text


# ----------------------------------------------------------------------
# real simulations
# ----------------------------------------------------------------------
class TestPaperOrdering:
    def test_dxbar_saturates_at_or_above_buffered4(self, tmp_path):
        """The paper's throughput claim at smoke scale: at k=4 UR the
        dual-crossbar router saturates no earlier than Buffered 4."""
        spec = SaturationSpec(
            designs=("buffered4", "dxbar_dor"), k=4, tolerance=0.05,
            min_load=0.05, max_load=0.9, seed=5,
            sim={"warmup_cycles": 80, "measure_cycles": 300,
                 "drain_cycles": 100, "packet_size": 1},
        )
        res = run_saturation(tmp_path / "s", spec)
        sat = {e["design"]: e for e in res.results}
        assert all(e["status"] == "converged" for e in sat.values())
        assert (
            sat["dxbar_dor"]["saturation_load"]
            >= sat["buffered4"]["saturation_load"] - spec.tolerance
        )


# ----------------------------------------------------------------------
# probe backends
# ----------------------------------------------------------------------
class TestProbeBackends:
    """Probes run on the fastest bit-exact backend unless ``spec.sim``
    names one; the report does not depend on the choice."""

    TINY_SIM = {"warmup_cycles": 20, "measure_cycles": 80, "drain_cycles": 40}

    def test_probe_configs_carry_concrete_backends(self, tmp_path):
        designs = ("buffered4", "dxbar_dor", "flit_bless")
        cliffs = {d: 0.6 * analytic_capacity(d, 4) for d in designs}
        calls = []
        spec = SaturationSpec(designs=designs, k=4, tolerance=0.02, seed=7)
        run_saturation(tmp_path / "s", spec, runner=cliff_runner(cliffs, calls))
        by_design = {d: [c for c in calls if c.design == d] for d in designs}
        assert all(by_design.values())
        assert {c.backend for c in by_design["buffered4"]} == {"vector"}
        assert {c.backend for c in by_design["dxbar_dor"]} == {"object"}
        # flit_bless follows its vector_min_work threshold (k**2 * load).
        min_work = DESIGNS.get("flit_bless").vector_min_work
        for c in by_design["flit_bless"]:
            want = "vector" if 16 * c.offered_load >= min_work else "object"
            assert c.backend == want, c.offered_load
        assert {c.backend for c in by_design["flit_bless"]} == {"object", "vector"}

    def test_sim_backend_override_is_honoured(self, tmp_path):
        """``sim={"backend": "object"}`` forces the reference walk, and
        its report rows equal those of the default (stamped) search."""
        common = dict(designs=("buffered4", "flit_bless"), k=4, tolerance=0.1,
                      min_load=0.05, seed=5)
        fast = run_saturation(
            tmp_path / "fast", SaturationSpec(**common, sim=self.TINY_SIM)
        )
        ref_spec = SaturationSpec(**common, sim={**self.TINY_SIM, "backend": "object"})
        ref = run_saturation(tmp_path / "ref", ref_spec)
        assert fast.payload["designs"] == ref.payload["designs"]

        def cached_backends(root):
            return {
                json.loads(p.read_text())["identity"]["config"]["backend"]
                for p in (root / "cache").glob("*.json")
            }

        assert cached_backends(tmp_path / "ref") == {"object"}
        assert "vector" in cached_backends(tmp_path / "fast")

    def test_kernel_less_design_warns_nothing_and_journals_backends(self, tmp_path):
        import warnings

        from repro.obs import campaign_status, merge_journal
        from repro.sim.config import _FALLBACK_WARNED

        _FALLBACK_WARNED.clear()
        spec = SaturationSpec(
            designs=("buffered4", "dxbar_dor", "flit_bless"), k=4, tolerance=0.2,
            min_load=0.1, seed=5, sim=self.TINY_SIM,
        )
        root = tmp_path / "s"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            run_saturation(root, spec)
        events = merge_journal(root / "journal")
        design_of = {
            e["job"]: e["design"] for e in events if e["event"] == "job_submitted"
        }
        # Stamped probes journal the auto rule's reason, not an explicit
        # request: nobody named a backend.
        choices = {}
        for e in events:
            if e["event"] == "backend_resolved":
                assert e["requested"] == e["resolved"]
                choices.setdefault(design_of[e["job"]], set()).add(
                    (e["resolved"], e["reason"])
                )
        assert choices["buffered4"] == {("vector", "auto: kernel")}
        [(backend, reason)] = choices["dxbar_dor"]
        assert backend == "object"
        assert reason.startswith("auto: design 'dxbar_dor' has no vectorized kernel")
        # flit_bless's reasons name each probe's k**2 x load.
        min_work = DESIGNS.get("flit_bless").vector_min_work
        assert {b for b, _ in choices["flit_bless"]} == {"object", "vector"}
        for backend, reason in choices["flit_bless"]:
            rate = float(reason.split("(")[1].split()[0])
            if backend == "object":
                assert reason.startswith("auto: below vector_min_work (")
                assert rate < min_work
            else:
                assert reason.startswith("auto: kernel (")
                assert rate >= min_work
        counts = campaign_status(root / "journal").to_dict()["backends"]
        assert set(counts) == {"object", "vector"}
        assert sum(counts.values()) == len(design_of)


# ----------------------------------------------------------------------
# CLI (one tiny real-simulation search)
# ----------------------------------------------------------------------
class TestCli:
    def test_saturate_end_to_end(self, tmp_path, capsys):
        from repro.cli import main

        root = tmp_path / "cli"
        argv = [
            "saturate", "--root", str(root),
            "--design", "dxbar_dor", "-k", "4",
            "--min-load", "0.1", "--tolerance", "0.2",
            "--warmup", "20", "--measure", "60", "--drain", "40",
            "--quiet",
        ]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "saturation search" in out
        assert (root / "manifest.json").exists()
        assert (root / "saturation.json").exists()
        # Resume of a finished search is a pure cache replay.
        assert main(argv + ["--resume", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["completed"] == payload["total"] == 1

    def test_bad_spec_is_a_clean_error(self, capsys, tmp_path):
        from repro.cli import main

        rc = main([
            "saturate", "--root", str(tmp_path / "x"),
            "--min-load", "0.5", "--max-load", "0.4",
        ])
        assert rc == 1
        assert "min_load" in capsys.readouterr().err
