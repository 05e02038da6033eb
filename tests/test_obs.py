"""Tests for the repro.obs telemetry subsystem.

Covers the acceptance criteria of the observability PR: complete
inject->eject trace chains for every ejected flit, metrics frames that
round-trip the StatsCollector aggregates, zero-perturbation when enabled,
profiling, uniform router counters, sinks, CLI ``--json``, and the heatmap
renderer.
"""

import json

import pytest

from repro.cli import main
from repro.analysis import render_heatmap
from repro.obs import (
    COUNTER_FIELDS,
    EV_EJECT,
    EV_FAULT_RECONFIG,
    EV_INJECT,
    EV_ROUTE,
    IntervalMetrics,
    MetricsFrame,
    NullSink,
    PhaseProfiler,
    RingBufferSink,
    Telemetry,
    Tracer,
    lifecycle,
    load_metrics,
    merge_counters,
    read_trace,
)
from repro.sim.config import FaultConfig, SimConfig, TelemetryConfig
from repro.sim.engine import Simulator, run_simulation


def tiny_config(**kw):
    defaults = dict(
        design="dxbar_dor",
        k=4,
        pattern="UR",
        offered_load=0.1,
        warmup_cycles=50,
        measure_cycles=200,
        drain_cycles=100,
        packet_size=1,
        seed=2,
    )
    defaults.update(kw)
    return SimConfig(**defaults)


# ----------------------------------------------------------------------
# config
# ----------------------------------------------------------------------
class TestTelemetryConfig:
    def test_default_disabled(self):
        tcfg = TelemetryConfig()
        assert not tcfg.enabled
        assert not SimConfig().telemetry.enabled

    def test_trace_path_and_buffer_exclusive(self):
        with pytest.raises(ValueError):
            TelemetryConfig(trace_path="a.jsonl", trace_buffer=100)

    def test_metrics_path_requires_interval(self):
        with pytest.raises(ValueError):
            TelemetryConfig(metrics_path="m.json")

    def test_negative_values_rejected(self):
        with pytest.raises(ValueError):
            TelemetryConfig(trace_buffer=-1)
        with pytest.raises(ValueError):
            TelemetryConfig(metrics_interval=-5)

    def test_enabled_forms(self):
        assert TelemetryConfig(trace_buffer=10).enabled
        assert TelemetryConfig(metrics_interval=10).enabled
        assert TelemetryConfig(profile=True).enabled


class TestFacade:
    def test_disabled_is_all_none(self):
        t = Telemetry.disabled()
        assert t.trace is None and t.metrics is None and t.profiler is None
        assert not t.enabled

    def test_default_run_has_no_tracer_on_routers(self):
        sim = Simulator(tiny_config())
        assert all(r.trace is None for r in sim.network.routers)

    def test_from_config_builds_layers(self):
        t = Telemetry.from_config(
            TelemetryConfig(trace_buffer=64, metrics_interval=10, profile=True),
            k=4,
        )
        assert isinstance(t.trace.sink, RingBufferSink)
        assert t.metrics.interval == 10
        assert isinstance(t.profiler, PhaseProfiler)


# ----------------------------------------------------------------------
# sinks / tracer plumbing
# ----------------------------------------------------------------------
class TestSinks:
    def test_ring_buffer_keeps_tail(self):
        sink = RingBufferSink(capacity=3)
        for i in range(10):
            sink.write({"i": i})
        assert sink.total_written == 10
        assert len(sink) == 3
        assert [r["i"] for r in sink.records()] == [7, 8, 9]

    def test_ring_buffer_rejects_bad_capacity(self):
        with pytest.raises(ValueError):
            RingBufferSink(capacity=0)

    def test_null_sink_swallows(self):
        tracer = Tracer(NullSink())
        tracer.emit(1, EV_ROUTE, 0)
        assert tracer.emitted == 1

    def test_tracer_record_shape(self):
        sink = RingBufferSink()
        tracer = Tracer(sink)
        tracer.emit(5, EV_ROUTE, 3, extra_field=7)
        rec = sink.records()[0]
        assert rec == {"cycle": 5, "event": EV_ROUTE, "node": 3, "extra_field": 7}


# ----------------------------------------------------------------------
# acceptance: complete lifecycle chains in a JSONL trace
# ----------------------------------------------------------------------
class TestLifecycleTrace:
    def test_every_ejected_flit_has_complete_chain(self, tmp_path):
        """100-cycle dxbar_dor run: the JSONL trace must contain a complete
        inject -> ... -> eject chain for every ejected flit."""
        path = tmp_path / "events.jsonl"
        cfg = tiny_config(
            warmup_cycles=0,
            measure_cycles=100,
            drain_cycles=400,
            offered_load=0.15,
            telemetry=TelemetryConfig(trace_path=str(path)),
        )
        result = run_simulation(cfg)
        assert result.ejected_flits > 0
        assert result.extra["active_flits_at_end"] == 0

        records = list(read_trace(str(path)))
        chains = lifecycle(records)
        ejected_fids = [r["fid"] for r in records if r["event"] == EV_EJECT]
        assert len(ejected_fids) == result.injected_flits == result.ejected_flits
        for fid in ejected_fids:
            chain = chains[fid]
            events = [r["event"] for r in chain]
            assert events[0] == EV_INJECT, f"flit {fid} chain starts {events[:3]}"
            assert events[1] == EV_ROUTE
            assert events[-1] == EV_EJECT
            assert events.count(EV_EJECT) == 1
            # Emission order is chronological.
            cycles = [r["cycle"] for r in chain]
            assert cycles == sorted(cycles)

    def test_eject_records_carry_hops(self, tmp_path):
        path = tmp_path / "events.jsonl"
        cfg = tiny_config(
            warmup_cycles=0,
            measure_cycles=60,
            drain_cycles=300,
            telemetry=TelemetryConfig(trace_path=str(path)),
        )
        run_simulation(cfg)
        ejects = [r for r in read_trace(str(path)) if r["event"] == EV_EJECT]
        assert ejects and all(r["hops"] >= 1 for r in ejects)

    def test_fault_reconfig_events_emitted(self):
        cfg = tiny_config(
            design="dxbar_dor",
            warmup_cycles=100,
            measure_cycles=100,
            drain_cycles=100,
            faults=FaultConfig(percent=100.0, manifest_window=50),
            telemetry=TelemetryConfig(trace_buffer=200_000),
        )
        sim = Simulator(cfg)
        sim.run()
        recs = [
            r
            for r in sim.telemetry.trace.sink.records()
            if r["event"] == EV_FAULT_RECONFIG
        ]
        # percent=100: one fault per router, hence one reconfiguration each.
        assert len(recs) == cfg.num_nodes
        assert all("crossbar" in r and r["detected_cycle"] >= 0 for r in recs)

    def test_tracing_does_not_perturb_simulation(self):
        plain = run_simulation(tiny_config(seed=9, offered_load=0.3))
        traced = run_simulation(
            tiny_config(
                seed=9,
                offered_load=0.3,
                telemetry=TelemetryConfig(
                    trace_buffer=500_000, metrics_interval=13, profile=True
                ),
            )
        )
        assert traced.accepted_load == plain.accepted_load
        assert traced.avg_flit_latency == plain.avg_flit_latency
        assert traced.total_energy_nj == plain.total_energy_nj
        assert traced.fairness_flips == plain.fairness_flips


# ----------------------------------------------------------------------
# router counters (uniform across designs)
# ----------------------------------------------------------------------
class TestRouterCounters:
    @pytest.mark.parametrize(
        "design",
        ["dxbar_dor", "unified_dor", "flit_bless", "scarab", "buffered4", "afc"],
    )
    def test_uniform_keys(self, design):
        sim = Simulator(tiny_config(design=design, measure_cycles=60))
        sim.run()
        for snap in sim.network.router_counters():
            assert tuple(snap) == COUNTER_FIELDS

    def test_totals_match_stats(self):
        cfg = tiny_config(warmup_cycles=0, drain_cycles=2000, offered_load=0.2)
        sim = Simulator(cfg)
        r = sim.run()
        assert r.extra["active_flits_at_end"] == 0
        totals = r.extra["router_counter_totals"]
        assert totals["injected"] == sim.stats.total_injected_flits
        assert totals["ejected"] == sim.stats.total_ejected_flits
        assert totals["deflections"] == sim.stats.deflections
        assert totals["buffered_events"] == sim.stats.buffered_flit_events
        assert totals["fairness_flips"] == r.fairness_flips

    def test_merge_counters(self):
        merged = merge_counters([{"a": 1, "b": 2}, {"a": 3, "b": 4}])
        assert merged == {"a": 4, "b": 6}

    def test_per_router_in_result(self):
        r = run_simulation(tiny_config(measure_cycles=60))
        assert len(r.per_router) == 16
        assert sum(s["ejected"] for s in r.per_router) == r.extra[
            "router_counter_totals"
        ]["ejected"]


# ----------------------------------------------------------------------
# interval metrics
# ----------------------------------------------------------------------
class TestIntervalMetrics:
    def _run(self, tmp_path, interval=7, **kw):
        path = tmp_path / "metrics.json"
        cfg = tiny_config(
            warmup_cycles=0,
            measure_cycles=200,
            drain_cycles=2000,
            offered_load=0.25,
            telemetry=TelemetryConfig(
                metrics_interval=interval, metrics_path=str(path)
            ),
            **kw,
        )
        sim = Simulator(cfg)
        result = sim.run()
        assert result.extra["active_flits_at_end"] == 0
        return sim, result, path

    def test_saved_frame_reproduces_stats_totals(self, tmp_path):
        """Acceptance: the --metrics-out file reloads into a frame whose
        counter-column sums equal the StatsCollector aggregates."""
        sim, result, path = self._run(tmp_path)
        frame = load_metrics(str(path))
        assert frame.total("deflections") == sim.stats.deflections
        assert frame.total("fairness_flips") == result.fairness_flips
        assert frame.total("buffered_events") == sim.stats.buffered_flit_events
        assert frame.total("injected") == sim.stats.total_injected_flits
        assert frame.total("ejected") == sim.stats.total_ejected_flits

    def test_trailing_partial_interval_flushed(self, tmp_path):
        # interval=7 never divides the final cycle exactly in this setup;
        # finalize() must still capture the tail so the sums match.
        sim, result, path = self._run(tmp_path, interval=7)
        frame = load_metrics(str(path))
        assert frame.sample_cycles()[-1] == result.final_cycle

    def test_per_router_totals_match_counters(self, tmp_path):
        sim, result, path = self._run(tmp_path)
        frame = load_metrics(str(path))
        per_router = frame.per_router_totals("ejected")
        assert per_router == [s["ejected"] for s in sim.network.router_counters()]

    def test_router_series_and_heatmap_shape(self, tmp_path):
        sim, result, path = self._run(tmp_path)
        frame = load_metrics(str(path))
        n = len(frame.sample_cycles())
        assert len(frame.router_series(0, "occupancy")) == n
        grid = frame.heatmap("occupancy", reduce="mean")
        assert len(grid) == 4 and all(len(row) == 4 for row in grid)
        with pytest.raises(ValueError):
            frame.heatmap("occupancy", reduce="median")

    def test_schema_version_checked(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"schema_version": 99, "interval": 1, "k": 4}))
        with pytest.raises(ValueError):
            load_metrics(str(bad))

    def test_duplicate_cycle_sampled_once(self):
        m = IntervalMetrics(5, 2)

        class _Router:
            out_links = {}
            source_queue_len = 0

            def occupancy(self):
                return 0

            def telemetry_counters(self):
                return dict.fromkeys(COUNTER_FIELDS, 0)

        class _Net:
            routers = [_Router() for _ in range(4)]

        m.sample(_Net(), 5)
        m.sample(_Net(), 5)  # finalize() landing on a sample cycle
        assert m.frame().num_rows == 4

    def test_ragged_columns_rejected(self):
        with pytest.raises(ValueError):
            MetricsFrame(1, 2, {"cycle": [1, 2], "node": [0]})


# ----------------------------------------------------------------------
# profiling
# ----------------------------------------------------------------------
class TestProfiler:
    def test_report_phases_and_shares(self):
        cfg = tiny_config(telemetry=TelemetryConfig(profile=True))
        sim = Simulator(cfg)
        result = sim.run()
        prof = result.extra["profile"]
        assert set(prof) == {"workload.tick", "network.step", "stats.finalize"}
        assert prof["network.step"]["calls"] == result.final_cycle
        assert prof["workload.tick"]["calls"] == result.final_cycle
        assert sum(d["share"] for d in prof.values()) == pytest.approx(1.0)
        assert all(d["seconds"] >= 0 for d in prof.values())

    def test_network_step_parts(self):
        """The object walk splits ``network.step`` into its three parts,
        timed once per cycle, without adding top-level phases."""
        cfg = tiny_config(telemetry=TelemetryConfig(profile=True))
        result = Simulator(cfg).run()
        prof = result.extra["profile"]
        parts = prof["network.step"]["parts"]
        assert set(parts) == {"latch", "routers", "links"}
        assert all(p["calls"] == result.final_cycle for p in parts.values())
        assert sum(p["seconds"] for p in parts.values()) <= prof["network.step"]["seconds"]
        assert sum(p["share"] for p in parts.values()) == pytest.approx(1.0)
        assert all("parts" not in prof[phase] for phase in ("workload.tick", "stats.finalize"))

    def test_no_profile_key_when_disabled(self):
        result = run_simulation(tiny_config())
        assert "profile" not in result.extra

    def test_unit_add(self):
        p = PhaseProfiler()
        p.add("a", 0.25)
        p.add("a", 0.25)
        p.add("b", 0.5)
        rep = p.report()
        assert rep["a"]["calls"] == 2
        assert rep["a"]["seconds"] == pytest.approx(0.5)
        assert rep["a"]["share"] == pytest.approx(0.5)


# ----------------------------------------------------------------------
# CLI --json
# ----------------------------------------------------------------------
class TestCliJson:
    SIM = ["--k", "4", "--warmup", "20", "--measure", "60", "--drain", "50"]
    ARGS = [*SIM, "--load", "0.1"]  # sweep takes its loads from --loads

    def test_run_json(self, capsys):
        assert main(["run", *self.ARGS, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["design"] == "dxbar_dor"
        assert payload["ejected_flits"] > 0
        assert len(payload["per_router"]) == 16
        assert "router_counter_totals" in payload["extra"]
        assert "total_energy_nj" in payload

    def test_sweep_json(self, capsys):
        assert (
            main(
                [
                    "sweep", *self.SIM, "--json",
                    "--designs", "dxbar_dor", "buffered4",
                    "--loads", "0.05", "0.1",
                ]
            )
            == 0
        )
        payload = json.loads(capsys.readouterr().out)
        assert payload["loads"] == [0.05, 0.1]
        assert set(payload["results"]) == {"dxbar_dor", "buffered4"}
        assert len(payload["results"]["dxbar_dor"]) == 2
        assert all(
            r["design"] == "buffered4" for r in payload["results"]["buffered4"]
        )

    def test_run_trace_and_metrics_flags(self, tmp_path, capsys):
        trace = tmp_path / "t.jsonl"
        metrics = tmp_path / "m.json"
        rc = main(
            [
                "run", *self.ARGS, "--json",
                "--trace", str(trace),
                "--metrics-interval", "25",
                "--metrics-out", str(metrics),
            ]
        )
        assert rc == 0
        json.loads(capsys.readouterr().out)
        assert any(read_trace(str(trace)))
        assert load_metrics(str(metrics)).num_rows > 0

    def test_metrics_out_defaults_interval(self, tmp_path, capsys):
        metrics = tmp_path / "m.json"
        assert main(["run", *self.ARGS, "--metrics-out", str(metrics)]) == 0
        capsys.readouterr()
        assert load_metrics(str(metrics)).interval == 100

    def test_profile_table_printed(self, capsys):
        assert main(["run", *self.ARGS, "--profile"]) == 0
        out = capsys.readouterr().out
        assert "network.step" in out and "share" in out


# ----------------------------------------------------------------------
# heatmap renderer
# ----------------------------------------------------------------------
class TestRenderHeatmap:
    def test_renders_grid_with_legend(self):
        out = render_heatmap([[0.0, 1.0], [2.0, 4.0]], title="demo")
        lines = out.splitlines()
        assert lines[0] == "== demo =="
        assert len(lines) == 4  # title + 2 rows + legend
        assert "min=0.0 max=4.0" in lines[-1]
        assert "@@" in out  # the max cell gets the densest shade

    def test_flat_grid_no_division_by_zero(self):
        out = render_heatmap([[1.0, 1.0]], annotate=False)
        assert "min=1.0 max=1.0" in out

    def test_empty_grid(self):
        assert render_heatmap([]) == "(empty heatmap)"
