"""Tests for the orchestration layer: RunSpec identity, serial/parallel
executor determinism, result-cache hit/miss/resume, derived seeds."""

import json

import pytest

from repro.runner import (
    ResultCache,
    RunSpec,
    derived_seed,
    execute_spec,
    run_specs,
)
from repro.runner.executor import results_of
from repro.sim.config import SimConfig
from repro.sim.engine import run_simulation

TINY = dict(k=4, warmup_cycles=40, measure_cycles=160, drain_cycles=400)


def tiny(**kw):
    return SimConfig(**{**TINY, **kw})


def grid():
    return [
        RunSpec(tiny(design=d, offered_load=load))
        for d in ("dxbar_dor", "buffered4")
        for load in (0.1, 0.3)
    ]


class TestRunSpec:
    def test_job_id_stable(self):
        a = RunSpec(tiny())
        b = RunSpec(tiny())
        assert a.job_id() == b.job_id()

    def test_job_id_differs_by_config(self):
        assert RunSpec(tiny(seed=1)).job_id() != RunSpec(tiny(seed=2)).job_id()

    def test_job_id_differs_by_workload(self):
        cfg = tiny(max_cycles=1000)
        open_loop = RunSpec(cfg)
        closed = RunSpec(cfg, workload={"kind": "splash2", "app": "FFT"})
        assert open_loop.job_id() != closed.job_id()

    def test_tag_does_not_affect_job_id(self):
        assert RunSpec(tiny(), tag="a").job_id() == RunSpec(tiny(), tag="b").job_id()

    def test_workload_requires_kind(self):
        with pytest.raises(ValueError, match="kind"):
            RunSpec(tiny(), workload={"app": "FFT"})

    def test_round_trip(self):
        spec = RunSpec(tiny(), workload={"kind": "splash2", "app": "FFT"}, tag="t")
        again = RunSpec.from_dict(json.loads(json.dumps(spec.describe())))
        assert again.config == spec.config
        assert again.workload == spec.workload
        assert again.job_id() == spec.job_id()

    def test_replicated_seeds_deterministic(self):
        spec = RunSpec(tiny(seed=5))
        reps1 = spec.replicated(4)
        reps2 = spec.replicated(4)
        seeds = [r.config.seed for r in reps1]
        assert seeds == [r.config.seed for r in reps2]
        assert seeds[0] == 5  # replicate 0 keeps the base seed
        assert len(set(seeds)) == 4

    def test_derived_seed_stable_and_bounded(self):
        s = derived_seed(3, "dxbar_dor", 1)
        assert s == derived_seed(3, "dxbar_dor", 1)
        assert s != derived_seed(3, "dxbar_dor", 2)
        assert 0 <= s < 2**31


class TestExecutorDeterminism:
    def test_execute_spec_matches_run_simulation(self):
        cfg = tiny(design="dxbar_dor", offered_load=0.2)
        assert execute_spec(RunSpec(cfg)).to_dict() == run_simulation(cfg).to_dict()

    def test_serial_vs_parallel_identical(self):
        specs = grid()
        serial = run_specs(specs, jobs=1)
        parallel = run_specs(specs, jobs=2)
        assert [o.result.to_dict() for o in serial] == [
            o.result.to_dict() for o in parallel
        ]

    def test_results_in_spec_order(self):
        specs = grid()
        outcomes = run_specs(specs, jobs=2)
        assert [o.spec for o in outcomes] == specs
        for o in outcomes:
            assert o.result.design == o.spec.config.design
            assert o.result.offered_load == o.spec.config.offered_load

    def test_run_configs_wrapper(self):
        results = results_of(run_specs([RunSpec(tiny(offered_load=0.1))]), "jobs")
        assert results[0].ejected_flits > 0

    def test_duplicate_specs_share_one_execution(self):
        spec = RunSpec(tiny(offered_load=0.1))
        executed = []
        outcomes = run_specs(
            [spec, spec], progress=lambda d, t, o: executed.append(o.cached)
        )
        assert len(outcomes) == 2
        assert outcomes[0].result.to_dict() == outcomes[1].result.to_dict()
        assert executed.count(False) == 1  # only one fresh simulation

    def test_negative_jobs_rejected(self):
        with pytest.raises(ValueError):
            run_specs(grid(), jobs=-1)

    def test_progress_callback(self):
        calls = []
        run_specs(grid(), progress=lambda done, total, o: calls.append((done, total)))
        assert calls == [(1, 4), (2, 4), (3, 4), (4, 4)]


class TestResultCache:
    def test_miss_then_hit(self, tmp_path):
        cache = ResultCache(tmp_path)
        spec = RunSpec(tiny(offered_load=0.1))
        assert cache.get(spec) is None
        result = execute_spec(spec)
        cache.put(spec, result.to_dict())
        assert cache.get(spec) == result.to_dict()
        assert cache.hits == 1 and cache.misses == 1
        assert len(cache) == 1

    def test_in_memory_mode(self):
        cache = ResultCache(None)
        spec = RunSpec(tiny(offered_load=0.1))
        cache.put(spec, {"design": "dxbar_dor"})
        assert cache.get(spec) == {"design": "dxbar_dor"}
        cache.clear()
        assert cache.get(spec) is None

    def test_identity_mismatch_is_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        spec = RunSpec(tiny(offered_load=0.1))
        cache.put(spec, {"x": 1})
        # Corrupt the stored identity: the loader must refuse it.
        path = tmp_path / f"{spec.job_id()}.json"
        payload = json.loads(path.read_text())
        payload["identity"]["config"]["seed"] = 999
        path.write_text(json.dumps(payload))
        fresh = ResultCache(tmp_path)
        assert fresh.get(spec) is None

    def test_corrupt_json_is_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        spec = RunSpec(tiny(offered_load=0.1))
        (tmp_path / f"{spec.job_id()}.json").write_text("{not json")
        assert cache.get(spec) is None

    def test_resume_skips_completed(self, tmp_path):
        specs = grid()
        cache = ResultCache(tmp_path)
        first = run_specs(specs, cache=cache)
        assert not any(o.cached for o in first)
        assert cache.misses == len(specs)

        resumed = run_specs(specs, cache=ResultCache(tmp_path))
        assert all(o.cached for o in resumed)
        assert [o.result.to_dict() for o in first] == [
            o.result.to_dict() for o in resumed
        ]

    def test_partial_resume_runs_only_missing(self, tmp_path):
        specs = grid()
        cache = ResultCache(tmp_path)
        run_specs(specs[:2], cache=cache)

        fresh_runs = []
        out = run_specs(
            specs,
            cache=ResultCache(tmp_path),
            progress=lambda d, t, o: fresh_runs.append(o) if not o.cached else None,
        )
        assert len(out) == 4
        assert len(fresh_runs) == 2
        assert {o.spec.job_id() for o in fresh_runs} == {
            s.job_id() for s in specs[2:]
        }

    def test_parallel_populates_cache(self, tmp_path):
        cache = ResultCache(tmp_path)
        run_specs(grid(), jobs=2, cache=cache)
        assert len(cache) == 4
        again = run_specs(grid(), jobs=2, cache=ResultCache(tmp_path))
        assert all(o.cached for o in again)


class TestWorkloadSpecs:
    def test_splash2_workload_runs(self):
        spec = RunSpec(
            SimConfig(
                design="dxbar_dor", warmup_cycles=0, measure_cycles=1,
                drain_cycles=0, max_cycles=50_000,
            ),
            workload={"kind": "splash2", "app": "FFT", "txns_per_core": 3, "seed": 9},
        )
        out = run_specs([spec])[0]
        assert 0 < out.result.final_cycle <= 50_000
        assert out.result.packets_completed > 0

    def test_splash2_deterministic_across_executors(self):
        spec = RunSpec(
            SimConfig(
                design="dxbar_dor", warmup_cycles=0, measure_cycles=1,
                drain_cycles=0, max_cycles=50_000,
            ),
            workload={"kind": "splash2", "app": "LU", "txns_per_core": 3, "seed": 9},
        )
        serial = run_specs([spec, spec.replicated(2)[1]], jobs=1)
        parallel = run_specs([spec, spec.replicated(2)[1]], jobs=2)
        assert [o.result.to_dict() for o in serial] == [
            o.result.to_dict() for o in parallel
        ]

    def test_unknown_workload_kind(self):
        spec = RunSpec(tiny(), workload={"kind": "nope"})
        out = run_specs([spec], retries=0)[0]
        assert not out.ok and out.result is None
        assert "unknown workload kind" in out.error
