"""Unit tests for the reliability analytics (yield curves, degradation
distributions, criticality/hotspot heatmaps) over synthetic records."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.reliability import (
    PERCENTILES,
    DistStats,
    ReliabilityRecord,
    build_report,
    render_reliability,
)
from repro.sim.stats import SimResult

K = 4
N = K * K


def result(accepted=0.5, latency=10.0, energy=2.0, per_router=None) -> SimResult:
    """A minimal SimResult carrying just what the analytics read."""
    return SimResult(
        design="dxbar_dor",
        offered_load=0.5,
        capacity=1.0,
        cycles=100,
        final_cycle=100,
        injected_flits=100,
        ejected_flits=100,
        accepted_flits_per_node_cycle=accepted,
        accepted_load=accepted,
        avg_flit_latency=latency,
        avg_network_latency=latency,
        avg_hops=3.0,
        avg_packet_latency=latency,
        avg_packet_energy_nj=energy,
        measured_packets_completed=25,
        packets_completed=25,
        deflections_per_flit=0.1,
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
        per_router=per_router or [],
    )


def record(sample, percent, accepted, nodes=(), **kw) -> ReliabilityRecord:
    return ReliabilityRecord(
        sample=sample,
        percent=percent,
        count=len(nodes),
        design="dxbar_dor",
        load=0.5,
        faulty_nodes=tuple(nodes),
        result=result(accepted=accepted, **kw),
    )


def report(records, threshold=0.5):
    return build_report(records, k=K, threshold=threshold)


class TestDistStats:
    def test_percentiles_of_known_values(self):
        d = DistStats.from_values([1, 2, 3, 4, 5])
        assert d.n == 5
        assert d.mean == 3.0
        assert d.min == 1.0 and d.max == 5.0
        assert d.p50 == 3.0

    def test_single_value(self):
        d = DistStats.from_values([7.0])
        assert d.p5 == d.p50 == d.p95 == 7.0


def one_metric_at_a_time(values):
    """The summary as it was computed before the cells were batched: one
    sort, one ``np.percentile`` call and one mean per metric."""
    arr = np.asarray(sorted(values), dtype=float)
    ps = np.percentile(arr, PERCENTILES)
    return {
        "n": len(arr), "mean": float(arr.mean()), "min": float(arr[0]),
        "p5": float(ps[0]), "p25": float(ps[1]), "p50": float(ps[2]),
        "p75": float(ps[3]), "p95": float(ps[4]), "max": float(arr[-1]),
    }


def one_group_at_a_time(rep, design, load, percent):
    """A cell's ``to_dict`` computed metric by metric, as before."""
    rs = [r for r in rep.records if (r.design, r.load, r.percent) == (design, load, percent)]
    tput = [r.result.accepted_load for r in rs]
    lat = [r.result.avg_flit_latency for r in rs]
    energy = [r.result.energy_per_packet_nj for r in rs]
    base = rep.baseline(design, load)
    ratios = {"throughput_ratio": None, "latency_ratio": None, "energy_ratio": None}
    yield_fraction = None
    if base is not None and base["throughput"] > 0:
        tr = [v / base["throughput"] for v in tput]
        ratios["throughput_ratio"] = one_metric_at_a_time(tr)
        yield_fraction = sum(v >= rep.threshold for v in tr) / len(tr)
        if base["latency"] > 0:
            ratios["latency_ratio"] = one_metric_at_a_time([v / base["latency"] for v in lat])
        if base["energy"] > 0:
            ratios["energy_ratio"] = one_metric_at_a_time([v / base["energy"] for v in energy])
    return {
        "design": design, "load": load, "percent": percent, "maps": len(rs),
        "throughput": one_metric_at_a_time(tput),
        "latency": one_metric_at_a_time(lat),
        "energy": one_metric_at_a_time(energy),
        **ratios, "yield": yield_fraction,
    }


finite = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)
positive = st.floats(min_value=0.0, max_value=1e3, allow_nan=False)


class TestBatchedSummaryIsExact:
    """Batching a cell's metrics into one ``np.percentile`` call changes no
    bit of any summary."""

    @settings(max_examples=150, deadline=None)
    @given(st.lists(finite, min_size=1, max_size=130))
    def test_dist_stats(self, values):
        got = DistStats.from_values(values).to_dict()
        assert json.dumps(got) == json.dumps(one_metric_at_a_time(values))

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(st.tuples(positive, positive, positive), min_size=1, max_size=130),
        st.tuples(positive, positive, positive),
    )
    def test_report_groups(self, cells, base):
        recs = [record(0, 0.0, base[0], latency=base[1], energy=base[2])]
        recs += [
            record(i, 50.0, a, latency=lat, energy=e)
            for i, (a, lat, e) in enumerate(cells)
        ]
        rep = report(recs)
        got = rep.to_dict()["groups"]
        want = [one_group_at_a_time(rep, *cell) for cell in rep.cells]
        # repr round-trips floats, and NaN (an infinite ratio's
        # percentiles) prints as itself, so equal text is equal bits.
        assert json.dumps(got) == json.dumps(want)

    def test_group_is_computed_once(self):
        rep = report([record(0, 0.0, 0.8), record(0, 50.0, 0.4)])
        assert rep.group("dxbar_dor", 0.5, 50.0) is rep.group("dxbar_dor", 0.5, 50.0)


class TestYieldAndRatios:
    def test_yield_counts_threshold_survivors(self):
        recs = [record(0, 0.0, 0.8)]
        recs += [record(i, 50.0, a) for i, a in enumerate([0.8, 0.5, 0.3, 0.2])]
        g = report(recs).group("dxbar_dor", 0.5, 50.0)
        # ratios: 1.0, 0.625, 0.375, 0.25 against threshold 0.5
        assert g.yield_fraction == 0.5
        assert g.throughput_ratio.max == 1.0
        assert g.throughput_ratio.min == 0.25

    def test_yield_curve_ordered_by_percent(self):
        recs = [record(0, 0.0, 0.8)]
        recs += [record(0, p, 0.8 * (1 - p / 200)) for p in (25.0, 50.0, 75.0)]
        curve = report(recs).yield_curve("dxbar_dor", 0.5)
        assert list(curve) == [0.0, 25.0, 50.0, 75.0]
        assert all(v == 1.0 for v in curve.values())

    def test_no_baseline_means_no_ratios(self):
        g = report([record(0, 50.0, 0.4)]).group("dxbar_dor", 0.5, 50.0)
        assert g.throughput_ratio is None
        assert g.yield_fraction is None
        assert g.throughput.mean == 0.4

    def test_latency_and_energy_ratios(self):
        recs = [
            record(0, 0.0, 0.8, latency=10.0, energy=2.0),
            record(0, 100.0, 0.4, latency=25.0, energy=3.0),
        ]
        g = report(recs).group("dxbar_dor", 0.5, 100.0)
        assert g.latency_ratio.p50 == pytest.approx(2.5)
        assert g.energy_ratio.p50 == pytest.approx(1.5)

    def test_bad_threshold_rejected(self):
        with pytest.raises(ValueError, match="threshold"):
            report([record(0, 0.0, 0.5)], threshold=0.0)


class TestCriticality:
    def test_harmful_router_stands_out(self):
        """Maps containing node 5 degrade hard; maps without it barely
        degrade — node 5's criticality cell must dominate the grid."""
        recs = [record(0, 0.0, 0.8)]
        for i in range(8):
            recs.append(record(i + 1, 25.0, 0.2, nodes=(5, (i % 3) + 8)))
            recs.append(record(i + 20, 25.0, 0.78, nodes=(1, (i % 3) + 12)))
        grid = report(recs).criticality("dxbar_dor", 0.5)
        flat = {y * K + x: grid[y][x] for y in range(K) for x in range(K)}
        assert max(flat, key=flat.get) == 5
        assert flat[5] > 0.5

    def test_full_and_zero_fault_maps_contribute_nothing(self):
        recs = [
            record(0, 0.0, 0.8),
            record(0, 100.0, 0.1, nodes=tuple(range(N))),
        ]
        grid = report(recs).criticality("dxbar_dor", 0.5)
        assert all(v == 0.0 for row in grid for v in row)

    def test_without_baseline_grid_is_flat(self):
        grid = report([record(0, 50.0, 0.4, nodes=(1, 2))]).criticality(
            "dxbar_dor", 0.5
        )
        assert all(v == 0.0 for row in grid for v in row)


class TestHotspots:
    def test_mean_counter_grid(self):
        per_router = [{"deflections": n} for n in range(N)]
        recs = [record(0, 50.0, 0.4, nodes=(1,), per_router=per_router)] * 2
        grid = report(recs).hotspots("dxbar_dor", 0.5, 50.0)
        assert grid[0][1] == 1.0
        assert grid[3][3] == float(N - 1)

    def test_missing_cell_is_flat(self):
        grid = report([record(0, 0.0, 0.8)]).hotspots("dxbar_dor", 0.5, 99.0)
        assert all(v == 0.0 for row in grid for v in row)


class TestSerializationAndRendering:
    def _records(self):
        recs = [record(0, 0.0, 0.8)]
        recs += [record(i, 50.0, 0.6 - 0.05 * i, nodes=(i, i + 4)) for i in range(3)]
        return recs

    def test_to_dict_is_json_stable(self):
        d = report(self._records()).to_dict()
        assert json.loads(json.dumps(d)) == json.loads(json.dumps(d))
        assert d["records"] == 4
        assert {g["percent"] for g in d["groups"]} == {0.0, 50.0}
        assert "dxbar_dor@0.5" in d["criticality"]
        assert d["yield_curves"]["dxbar_dor@0.5"]["50"] == 1.0

    def test_render_contains_table_and_heatmap(self):
        text = render_reliability(report(self._records()))
        assert "dxbar_dor @ load 0.5" in text
        assert "fault%" in text
        assert "criticality" in text

    def test_render_without_heatmaps(self):
        text = render_reliability(report(self._records()), heatmaps=False)
        assert "criticality" not in text
