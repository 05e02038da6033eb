"""Tests for the Monte-Carlo fault-injection campaign subsystem."""

import json

import pytest

from repro.campaign import (
    CampaignError,
    CampaignSpec,
    FaultMapSampler,
    campaign_progress,
    campaign_report,
    load_manifest,
    resolve_weights,
    run_campaign,
)
from repro.core.faults import PRIMARY, SECONDARY
from repro.runner import ResultCache

#: Short cycle counts so a whole campaign runs in well under a second/job.
FAST_SIM = {"warmup_cycles": 20, "measure_cycles": 60, "drain_cycles": 40}


def small_spec(**overrides):
    kw = dict(
        designs=("dxbar_dor",),
        loads=(0.3,),
        percents=(0.0, 50.0, 100.0),
        samples=2,
        seed=11,
        k=4,
        sim=dict(FAST_SIM),
    )
    kw.update(overrides)
    return CampaignSpec(**kw)


# ----------------------------------------------------------------------
# sampler
# ----------------------------------------------------------------------
class TestFaultMapSampler:
    def test_deterministic(self):
        a = FaultMapSampler(16, seed=3)
        b = FaultMapSampler(16, seed=3)
        assert a.order(5) == b.order(5)
        assert a.sample(5, 8) == b.sample(5, 8)

    def test_samples_differ(self):
        s = FaultMapSampler(16, seed=3)
        assert s.order(0) != s.order(1)

    def test_seeds_differ(self):
        assert FaultMapSampler(16, seed=1).order(0) != FaultMapSampler(16, seed=2).order(0)

    def test_prefix_nested_within_sample(self):
        s = FaultMapSampler(16, seed=9)
        small = {e.node for e in s.sample(4, 4)}
        large = {e.node for e in s.sample(4, 12)}
        assert small < large

    def test_entry_stable_across_counts(self):
        """A router's fault identity does not depend on how many other
        routers failed — the paired-comparison property."""
        s = FaultMapSampler(16, seed=9)
        by_node_small = {e.node: e for e in s.sample(4, 4)}
        by_node_large = {e.node: e for e in s.sample(4, 16)}
        for node, entry in by_node_small.items():
            assert by_node_large[node] == entry

    def test_entries_sorted_by_node(self):
        s = FaultMapSampler(16, seed=2)
        nodes = [e.node for e in s.sample(0, 10)]
        assert nodes == sorted(nodes)

    def test_manifest_bounds_respected(self):
        s = FaultMapSampler(16, seed=5, manifest_lo=40, manifest_hi=60)
        for e in s.sample(0, 16):
            assert 40 <= e.manifest_cycle <= 60

    def test_manifest_pinned_when_lo_equals_hi(self):
        s = FaultMapSampler(16, seed=5, manifest_lo=25, manifest_hi=25)
        assert {e.manifest_cycle for e in s.sample(0, 16)} == {25}

    def test_crossbar_granularity_has_no_ports(self):
        s = FaultMapSampler(16, seed=5)
        assert all(not e.is_crosspoint for e in s.sample(0, 16))

    def test_crosspoint_port_arity(self):
        """Primary crossbars have 4 inputs, the secondary adds the
        injection lane (5); outputs are 5 either way."""
        s = FaultMapSampler(64, seed=1, granularity="crosspoint")
        entries = s.sample(0, 64)
        assert any(e.crossbar == PRIMARY for e in entries)
        assert any(e.crossbar == SECONDARY for e in entries)
        for e in entries:
            assert e.is_crosspoint
            n_inputs = 4 if e.crossbar == PRIMARY else 5
            assert 0 <= e.input_port < n_inputs
            assert 0 <= e.output_port < 5

    def test_weighted_sampling_still_nested(self):
        w = resolve_weights("center", 4)
        s = FaultMapSampler(16, seed=7, weights=w)
        prev = set()
        for count in (2, 5, 9, 16):
            nodes = {e.node for e in s.sample(3, count)}
            assert prev <= nodes
            prev = nodes

    def test_center_weighting_prefers_center(self):
        """Over many samples the first-failing router should be a central
        node far more often than under the uniform profile."""
        k = 4
        w = resolve_weights("center", k)
        s = FaultMapSampler(k * k, seed=13, weights=w)
        center = {5, 6, 9, 10}
        hits = sum(s.order(i)[0] in center for i in range(200))
        # Center weight is 3x a corner's: P(center first) = 12/32 = 0.375,
        # vs 0.25 uniform.  65 sits > 2 sigma above the uniform mean of 50.
        assert hits > 65

    def test_bad_weights_rejected(self):
        with pytest.raises(ValueError, match="length"):
            FaultMapSampler(16, seed=1, weights=[1.0] * 4)
        with pytest.raises(ValueError, match="non-negative"):
            FaultMapSampler(4, seed=1, weights=[1, 1, -1, 1])

    def test_count_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="count"):
            FaultMapSampler(16, seed=1).sample(0, 17)

    def test_zero_weight_tail_varies_across_samples(self):
        """Zero-weight routers all carry log(0) = -inf Gumbel keys; the
        tied tail must still be randomized per sample, not appended in a
        fixed low-node-first sequence shared by every map."""
        w = [1.0] * 4 + [0.0] * 12
        s = FaultMapSampler(16, seed=3, weights=w)
        for i in range(8):
            # Positive-weight routers always exhaust the leading slots.
            assert set(s.order(i)[:4]) == {0, 1, 2, 3}
        tails = {s.order(i)[4:] for i in range(8)}
        assert len(tails) > 1
        # Still a pure function of (seed, sample).
        assert s.order(0) == FaultMapSampler(16, seed=3, weights=w).order(0)

    def test_zero_weight_tail_keeps_prefix_nesting(self):
        w = [1.0, 1.0] + [0.0] * 14
        s = FaultMapSampler(16, seed=5, weights=w)
        prev = set()
        for count in (1, 4, 9, 16):
            nodes = {e.node for e in s.sample(2, count)}
            assert prev <= nodes
            prev = nodes

    def test_unknown_weighting_rejected(self):
        with pytest.raises(ValueError, match="unknown weighting"):
            resolve_weights("corners", 4)


# ----------------------------------------------------------------------
# spec
# ----------------------------------------------------------------------
class TestCampaignSpec:
    def test_job_grid_size(self):
        spec = small_spec(designs=("dxbar_dor", "unified_dor"), samples=3)
        # percent 0 collapses onto sample 0: (1 + 3*2 nonzero cells) * 2 designs
        assert len(spec.jobs()) == (1 + 3 * 2) * 2

    def test_baseline_only_on_sample_zero(self):
        jobs = small_spec(samples=3).jobs()
        baselines = [j for j in jobs if j.percent == 0.0]
        assert len(baselines) == 1
        assert baselines[0].sample == 0
        assert baselines[0].count == 0
        assert baselines[0].faulty_nodes == ()

    def test_jobs_deterministic(self):
        a = [j.spec.job_id() for j in small_spec().jobs()]
        b = [j.spec.job_id() for j in small_spec().jobs()]
        assert a == b

    def test_sampled_maps_reach_configs(self):
        jobs = small_spec().jobs()
        full = [j for j in jobs if j.percent == 100.0]
        assert all(len(j.spec.config.faults.entries) == 16 for j in full)
        assert all(len(j.faulty_nodes) == 16 for j in full)

    def test_distinct_samples_distinct_configs(self):
        jobs = small_spec().jobs()
        at50 = [j for j in jobs if j.percent == 50.0]
        hashes = {j.spec.config.config_hash() for j in at50}
        assert len(hashes) == len(at50)

    def test_round_trip_and_hash(self):
        spec = small_spec(weighting="center", granularity="crosspoint")
        again = CampaignSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
        assert again == spec
        assert again.campaign_hash() == spec.campaign_hash()

    def test_hash_sensitive_to_seed(self):
        assert small_spec(seed=1).campaign_hash() != small_spec(seed=2).campaign_hash()

    def test_unknown_fields_rejected(self):
        with pytest.raises(ValueError, match="unknown CampaignSpec"):
            CampaignSpec.from_dict({"designs": ["dxbar_dor"], "fleet": 9})

    def test_reserved_sim_key_rejected(self):
        with pytest.raises(ValueError, match="owned by the campaign grid"):
            small_spec(sim={"offered_load": 0.9})

    def test_unsupported_design_rejected(self):
        with pytest.raises(ValueError, match="does not support crossbar faults"):
            small_spec(designs=("flit_bless",))

    def test_unsupported_design_allowed_at_zero_percent(self):
        spec = small_spec(designs=("flit_bless",), percents=(0.0,))
        assert len(spec.jobs()) == 1

    def test_unknown_design_rejected_at_zero_percent(self, tmp_path):
        """Design names are checked even when no job injects faults: an
        unknown name used to pass the spec, get ``manifest.json`` written
        and only then crash ``jobs()``, leaving a directory that neither
        ``campaign status`` nor ``--resume`` could read."""
        root = tmp_path / "c"
        with pytest.raises(ValueError, match="unknown design 'bogus'"):
            run_campaign(
                root, small_spec(designs=("dxbar_dor", "bogus"), percents=(0.0,))
            )
        assert not (root / "manifest.json").exists()

    def test_manifest_phase_measure_lands_in_window(self):
        spec = small_spec(manifest_phase="measure")
        lo, hi = spec.manifest_bounds()
        warmup = FAST_SIM["warmup_cycles"]
        assert lo == warmup + 1
        assert hi == warmup + FAST_SIM["measure_cycles"]
        for j in spec.jobs():
            for e in j.spec.config.faults.entries or ():
                assert lo <= e.manifest_cycle <= hi

    def test_manifest_at_pins_cycle(self):
        spec = small_spec(manifest_at=33)
        for j in spec.jobs():
            for e in j.spec.config.faults.entries or ():
                assert e.manifest_cycle == 33

    def test_detection_cycles_flow_to_configs(self):
        spec = small_spec(detection_cycles=9)
        for j in spec.jobs():
            assert j.spec.config.faults.detection_cycles == 9


# ----------------------------------------------------------------------
# driver
# ----------------------------------------------------------------------
class TestCampaignDriver:
    def test_run_writes_manifest_and_report(self, tmp_path):
        spec = small_spec(samples=1)
        res = run_campaign(tmp_path / "c", spec)
        assert not res.failures
        assert load_manifest(tmp_path / "c") == spec
        payload = json.loads((tmp_path / "c" / "report.json").read_text())
        assert payload["campaign_id"] == spec.campaign_hash()
        assert payload["jobs_total"] == len(res.jobs)
        assert payload["jobs_failed"] == 0

    def test_resume_is_pure_cache_hits_and_byte_identical(self, tmp_path):
        root = tmp_path / "c"
        run_campaign(root, small_spec())
        first = (root / "report.json").read_bytes()
        res = run_campaign(root)  # spec reloaded from the manifest
        assert all(o.cached for o in res.outcomes)
        assert (root / "report.json").read_bytes() == first

    def test_serial_parallel_bit_identical(self, tmp_path):
        spec = small_spec()
        run_campaign(tmp_path / "ser", spec, jobs=1)
        run_campaign(tmp_path / "par", spec, jobs=2)
        a = json.loads((tmp_path / "ser" / "report.json").read_text())
        b = json.loads((tmp_path / "par" / "report.json").read_text())
        assert a == b

    def test_partial_cache_resume_completes_the_rest(self, tmp_path):
        """A crashed campaign = a directory whose cache holds a strict
        subset of the grid.  Simulate the crash by dropping half the cache
        entries; the re-run must execute exactly the missing cells and
        converge to the same report."""
        root = tmp_path / "c"
        spec = small_spec()
        run_campaign(root, spec)
        want = (root / "report.json").read_bytes()
        victims = sorted((root / "cache").glob("*.json"))[::2]
        for path in victims:
            path.unlink()
        res = run_campaign(root)
        assert not res.failures
        executed = [o for o in res.outcomes if not o.cached]
        assert len(executed) == len(victims)
        assert (root / "report.json").read_bytes() == want

    def test_mismatched_spec_refused(self, tmp_path):
        root = tmp_path / "c"
        run_campaign(root, small_spec(samples=1))
        with pytest.raises(CampaignError, match="refusing"):
            run_campaign(root, small_spec(samples=2))

    def test_missing_manifest_and_spec_refused(self, tmp_path):
        with pytest.raises(CampaignError, match="no campaign manifest"):
            run_campaign(tmp_path / "nowhere")

    def test_corrupt_manifest_refused(self, tmp_path):
        root = tmp_path / "c"
        root.mkdir()
        (root / "manifest.json").write_text("{not json")
        with pytest.raises(CampaignError, match="corrupt"):
            run_campaign(root, small_spec())

    def test_schema_version_checked(self, tmp_path):
        root = tmp_path / "c"
        root.mkdir()
        spec = small_spec()
        (root / "manifest.json").write_text(json.dumps({
            "schema_version": 99,
            "campaign_id": spec.campaign_hash(),
            "spec": spec.to_dict(),
        }))
        with pytest.raises(CampaignError, match="schema_version"):
            load_manifest(root)

    @pytest.mark.parametrize("bad", [{"fleet": 9}, {"samples": -1}])
    def test_invalid_manifest_spec_is_a_campaign_error(self, tmp_path, bad):
        root = tmp_path / "c"
        run_campaign(root, small_spec(samples=1))
        manifest = json.loads((root / "manifest.json").read_text())
        manifest["spec"].update(bad)
        (root / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(CampaignError, match="invalid spec in campaign manifest"):
            load_manifest(root)

    def test_progress_counts_cache(self, tmp_path):
        root = tmp_path / "c"
        spec = small_spec(samples=1)
        res = run_campaign(root, spec)
        prog = campaign_progress(root)
        assert prog["total"] == len(res.jobs)
        assert prog["completed"] == len(res.jobs)
        assert prog["pending"] == 0
        (sorted((root / "cache").glob("*.json"))[0]).unlink()
        assert campaign_progress(root)["pending"] == 1

    def test_report_verb_reads_cache_only(self, tmp_path):
        root = tmp_path / "c"
        run_campaign(root, small_spec(samples=1))
        cache_before = {p.name for p in (root / "cache").glob("*.json")}
        rr = campaign_report(root)
        assert rr.payload["jobs_pending"] == 0
        assert {p.name for p in (root / "cache").glob("*.json")} == cache_before

    def test_journal_events_written(self, tmp_path):
        root = tmp_path / "c"
        run_campaign(root, small_spec(samples=1))
        shards = list((root / "journal").glob("*.jsonl"))
        assert shards
        events = [
            json.loads(line)
            for shard in shards
            for line in shard.read_text().splitlines()
        ]
        kinds = {e["event"] for e in events}
        assert "campaign" in kinds
        assert "completed" in kinds

    def test_no_journal_flag(self, tmp_path):
        root = tmp_path / "c"
        run_campaign(root, small_spec(samples=1), journal=False)
        assert not (root / "journal").exists()

    def test_every_cell_runs_through_the_executor(self, tmp_path):
        """A fresh campaign executes each job in the executor (one
        ``completed`` journal event apiece); its re-run is all cache hits."""
        root = tmp_path / "c"
        res = run_campaign(root, small_spec())
        assert res.outcomes and not any(o.cached for o in res.outcomes)
        events = [
            json.loads(line)
            for shard in (root / "journal").glob("*.jsonl")
            for line in shard.read_text().splitlines()
        ]
        completed = [e for e in events if e["event"] == "completed"]
        assert len(completed) == len(res.outcomes)
        assert all(o.cached for o in run_campaign(root).outcomes)


class TestCampaignPhysics:
    """The acceptance-level claims, at smoke scale: degradation responds
    to the fault axis and 100% faults never collapse throughput to zero
    (graceful degradation, the paper's central claim)."""

    def test_nonzero_yield_and_throughput_at_full_faults(self, tmp_path):
        spec = small_spec(
            designs=("dxbar_dor", "unified_dor"), samples=2,
            percents=(0.0, 100.0), granularity="crosspoint",
        )
        res = run_campaign(tmp_path / "c", spec)
        assert not res.failures
        for design in spec.designs:
            g = res.report.group(design, 0.3, 100.0)
            assert g.throughput.min > 0.0
            assert g.yield_fraction is not None and g.yield_fraction > 0.0

    def test_transient_midmeasure_faults_run_clean_under_audit(self, tmp_path):
        spec = small_spec(
            samples=1, percents=(0.0, 100.0), manifest_phase="measure",
        )
        res = run_campaign(tmp_path / "c", spec, audit=True)
        assert not res.failures
        full = [r for r in res.records if r.percent == 100.0]
        assert full and all(
            r.result.extra["fault_count"] == 16 for r in full
        )


class TestCacheIdentityRoundTrip:
    def test_entries_config_survives_disk_round_trip(self, tmp_path):
        """Regression: the cache identity dict must equal its own JSON
        round trip, or every entries-carrying job re-runs on resume."""
        job = small_spec().jobs()[-1]
        assert job.spec.config.faults.entries  # meaningful only with a map
        cache = ResultCache(tmp_path)
        cache.put(job.spec, {"design": "dxbar_dor"})
        fresh = ResultCache(tmp_path)
        assert fresh.contains(job.spec)
