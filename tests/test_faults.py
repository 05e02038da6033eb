"""Unit tests for the fault plan and RouterFault semantics."""

import json

import pytest

from repro.campaign import FaultMapSampler, resolve_weights
from repro.core.faults import PRIMARY, SECONDARY, FaultPlan, RouterFault
from repro.sim.config import FaultConfig, FaultMapEntry
from repro.sim.ports import Port


class TestRouterFault:
    def test_healthy_before_manifest(self):
        f = RouterFault(PRIMARY, manifest_cycle=100, detected_cycle=105)
        assert f.primary_ok(99)
        assert not f.primary_ok(100)
        assert f.secondary_ok(100)

    def test_secondary_fault(self):
        f = RouterFault(SECONDARY, manifest_cycle=10, detected_cycle=15)
        assert f.primary_ok(50)
        assert not f.secondary_ok(10)

    def test_detection_window(self):
        f = RouterFault(PRIMARY, manifest_cycle=10, detected_cycle=15)
        assert not f.detected(14)
        assert f.detected(15)


class TestFaultPlan:
    def test_zero_percent_is_empty(self):
        plan = FaultPlan(FaultConfig(percent=0), 64)
        assert len(plan) == 0
        assert plan.fault_for(0) is None

    def test_hundred_percent_covers_all(self):
        plan = FaultPlan(FaultConfig(percent=100), 64)
        assert len(plan) == 64
        assert all(plan.fault_for(n) is not None for n in range(64))

    @pytest.mark.parametrize("pct,expected", [(25, 16), (50, 32), (75, 48)])
    def test_percent_to_count(self, pct, expected):
        plan = FaultPlan(FaultConfig(percent=pct), 64)
        assert len(plan) == expected

    def test_nested_subsets_across_percentages(self):
        """The paper injects faults 'with the same random seed but varying
        percentages': the faulty sets must be nested."""
        cfg25 = FaultConfig(percent=25, seed=99)
        cfg75 = FaultConfig(percent=75, seed=99)
        small = set(FaultPlan(cfg25, 64).faulty_nodes)
        large = set(FaultPlan(cfg75, 64).faulty_nodes)
        assert small < large

    def test_same_router_same_fault_across_percentages(self):
        cfg25 = FaultConfig(percent=25, seed=99)
        cfg100 = FaultConfig(percent=100, seed=99)
        p25 = FaultPlan(cfg25, 64)
        p100 = FaultPlan(cfg100, 64)
        for node in p25.faulty_nodes:
            assert p25.fault_for(node) == p100.fault_for(node)

    def test_detection_delay_applied(self):
        plan = FaultPlan(FaultConfig(percent=100, detection_cycles=5), 16)
        for node in plan.faulty_nodes:
            f = plan.fault_for(node)
            assert f.detected_cycle == f.manifest_cycle + 5

    def test_manifest_within_window(self):
        plan = FaultPlan(FaultConfig(percent=100, manifest_window=50), 64)
        for node in plan.faulty_nodes:
            assert 1 <= plan.fault_for(node).manifest_cycle <= 50

    def test_both_crossbars_appear(self):
        plan = FaultPlan(FaultConfig(percent=100, seed=5), 64)
        kinds = {plan.fault_for(n).crossbar for n in plan.faulty_nodes}
        assert kinds == {PRIMARY, SECONDARY}

    def test_different_seeds_differ(self):
        a = FaultPlan(FaultConfig(percent=50, seed=1), 64).faulty_nodes
        b = FaultPlan(FaultConfig(percent=50, seed=2), 64).faulty_nodes
        assert a != b

    @pytest.mark.parametrize(
        "num_routers,expected",
        [(9, 5), (3, 2), (64, 32), (16, 8), (25, 13)],
    )
    def test_half_up_rounding(self, num_routers, expected):
        """50% always rounds half *up*.  The old ``int(round(...))`` used
        banker's rounding: 50% of 9 routers gave 4 while 50% of 3 gave 2 —
        the even/odd parity of the product decided the direction."""
        plan = FaultPlan(FaultConfig(percent=50), num_routers)
        assert len(plan) == expected

    def test_explicit_entries_install_verbatim(self):
        cfg = FaultConfig(
            detection_cycles=4,
            entries=(
                FaultMapEntry(node=3, crossbar="secondary", manifest_cycle=7),
                FaultMapEntry(node=9, crossbar="primary", manifest_cycle=2),
            ),
        )
        plan = FaultPlan(cfg, 16)
        assert plan.faulty_nodes == (3, 9)
        f = plan.fault_for(3)
        assert f.crossbar == SECONDARY
        assert f.manifest_cycle == 7
        assert f.detected_cycle == 11  # manifest + detection_cycles
        assert not f.is_crosspoint

    def test_explicit_crosspoint_entries_become_ports(self):
        cfg = FaultConfig(
            granularity="crosspoint",
            entries=(
                FaultMapEntry(node=0, crossbar="secondary", input_port=4, output_port=2),
            ),
        )
        f = FaultPlan(cfg, 16).fault_for(0)
        assert f.is_crosspoint
        assert f.input_port == Port(4)
        assert f.output_port == Port(2)

    def test_explicit_entry_node_out_of_range(self):
        cfg = FaultConfig(entries=(FaultMapEntry(node=16),))
        with pytest.raises(ValueError, match="out of range"):
            FaultPlan(cfg, 16)

    def test_primary_crossbar_has_no_injection_input(self):
        """Input 4 is the injection lane, which only the secondary
        crossbar has; the mesh-level build must reject it on the primary."""
        cfg = FaultConfig(
            granularity="crosspoint",
            entries=(
                FaultMapEntry(node=0, crossbar="primary", input_port=4, output_port=0),
            ),
        )
        with pytest.raises(ValueError, match="4 inputs"):
            FaultPlan(cfg, 16)

    def test_counts_monotone_in_percent(self):
        """With half-up rounding the faulty-set size never decreases as the
        percentage grows, on any mesh size — so nestedness (prefix of one
        fixed ordering) extends across the whole percentage axis."""
        for num_routers in (3, 9, 16, 25, 64):
            sizes = [
                len(FaultPlan(FaultConfig(percent=p, seed=3), num_routers))
                for p in range(0, 101, 5)
            ]
            assert sizes == sorted(sizes)
            prev: set = set()
            for p in (10, 30, 50, 70, 90):
                nodes = set(
                    FaultPlan(FaultConfig(percent=p, seed=3), num_routers).faulty_nodes
                )
                assert prev <= nodes
                prev = nodes


def _signature(granularity, rows):
    """Expand ``{node: (crossbar, manifest, detected, in, out)}`` into the
    exact dict :meth:`FaultPlan.signature` returns."""
    names = {"p": PRIMARY, "s": SECONDARY}
    return {
        str(node): {
            "crossbar": names[xbar],
            "granularity": granularity,
            "manifest_cycle": manifest,
            "detected_cycle": detected,
            "input_port": in_port,
            "output_port": out_port,
        }
        for node, (xbar, manifest, detected, in_port, out_port) in rows.items()
    }


class TestGoldenFaultMaps:
    """Exact fault maps pinned for fixed seeds.  The other tests check
    counts and nesting; these catch any change to the draw itself
    (ordering, per-router streams, coin, manifest cycle, port choice)."""

    def test_percent_crossbar(self):
        plan = FaultPlan(FaultConfig(percent=50, seed=4), 16)
        assert plan.signature() == _signature("crossbar", {
            0: ("s", 441, 446, None, None),
            1: ("s", 18, 23, None, None),
            2: ("s", 407, 412, None, None),
            7: ("s", 389, 394, None, None),
            8: ("s", 50, 55, None, None),
            9: ("p", 112, 117, None, None),
            10: ("s", 224, 229, None, None),
            13: ("s", 331, 336, None, None),
        })

    def test_percent_crosspoint(self):
        cfg = FaultConfig(percent=50, seed=4, granularity="crosspoint")
        assert FaultPlan(cfg, 16).signature() == _signature("crosspoint", {
            0: ("s", 441, 446, "SOUTH", "LOCAL"),
            1: ("s", 18, 23, "SOUTH", "LOCAL"),
            2: ("s", 407, 412, "WEST", "EAST"),
            7: ("s", 389, 394, "EAST", "EAST"),
            8: ("s", 50, 55, "LOCAL", "NORTH"),
            9: ("p", 112, 117, "EAST", "SOUTH"),
            10: ("s", 224, 229, "NORTH", "SOUTH"),
            13: ("s", 331, 336, "EAST", "SOUTH"),
        })

    def test_percent_manifest_window(self):
        cfg = FaultConfig(percent=50, seed=4, manifest_window=50)
        assert FaultPlan(cfg, 16).signature() == _signature("crossbar", {
            0: ("s", 45, 50, None, None),
            1: ("s", 2, 7, None, None),
            2: ("s", 41, 46, None, None),
            7: ("s", 39, 44, None, None),
            8: ("s", 5, 10, None, None),
            9: ("p", 12, 17, None, None),
            10: ("s", 23, 28, None, None),
            13: ("s", 34, 39, None, None),
        })

    def test_half_up_count(self):
        assert len(FaultPlan(FaultConfig(percent=50, seed=1), 9)) == 5

    def test_weighted_sample(self):
        sampler = FaultMapSampler(16, seed=3, weights=resolve_weights("center", 4))
        assert sampler.sample(2, 5) == (
            FaultMapEntry(node=0, crossbar="primary", manifest_cycle=284),
            FaultMapEntry(node=4, crossbar="primary", manifest_cycle=298),
            FaultMapEntry(node=5, crossbar="primary", manifest_cycle=154),
            FaultMapEntry(node=8, crossbar="secondary", manifest_cycle=377),
            FaultMapEntry(node=10, crossbar="secondary", manifest_cycle=130),
        )

    def test_crosspoint_sample(self):
        sampler = FaultMapSampler(16, seed=3, granularity="crosspoint")
        assert sampler.sample(1, 4) == (
            FaultMapEntry(node=2, crossbar="primary", manifest_cycle=11,
                          input_port=2, output_port=3),
            FaultMapEntry(node=4, crossbar="secondary", manifest_cycle=137,
                          input_port=4, output_port=1),
            FaultMapEntry(node=9, crossbar="secondary", manifest_cycle=334,
                          input_port=3, output_port=0),
            FaultMapEntry(node=14, crossbar="secondary", manifest_cycle=473,
                          input_port=1, output_port=2),
        )


class TestFaultPlanSerialization:
    """A plan is a pure function of its :class:`FaultConfig`, so a plan
    rebuilt from the serialized config is identical — the contract
    sampled campaign maps and checkpoint resume ride on."""

    @staticmethod
    def _rebuild(cfg):
        return FaultConfig.from_dict(json.loads(json.dumps(cfg.to_dict())))

    @pytest.mark.parametrize(
        "cfg",
        [
            FaultConfig(percent=50, seed=9),
            FaultConfig(percent=75, seed=2, granularity="crosspoint"),
            FaultConfig(percent=50, seed=3, detection_cycles=9, manifest_window=40),
            FaultConfig(
                entries=(
                    FaultMapEntry(node=1, crossbar="secondary", manifest_cycle=120),
                    FaultMapEntry(node=9, crossbar="primary", manifest_cycle=3),
                ),
            ),
            FaultConfig(
                granularity="crosspoint",
                entries=(
                    FaultMapEntry(
                        node=6, crossbar="primary", manifest_cycle=3,
                        input_port=2, output_port=4,
                    ),
                    FaultMapEntry(
                        node=7, crossbar="secondary", manifest_cycle=40,
                        input_port=4, output_port=0,
                    ),
                ),
            ),
        ],
        ids=[
            "crossbar-percent", "crosspoint-percent", "bist-window",
            "entries", "crosspoint-entries",
        ],
    )
    def test_round_trip(self, cfg):
        plan = FaultPlan(cfg, 16)
        again = FaultPlan(self._rebuild(cfg), 16)
        assert again.signature() == plan.signature()
        for node in plan.faulty_nodes:
            assert again.fault_for(node) == plan.fault_for(node)

    def test_half_up_rounding_survives_round_trip(self):
        cfg = FaultConfig(percent=50, seed=1)
        assert len(FaultPlan(cfg, 9)) == 5  # half-up, not banker's 4
        assert len(FaultPlan(self._rebuild(cfg), 9)) == 5


class TestFaultMapEntryValidation:
    def test_ports_must_pair(self):
        with pytest.raises(ValueError, match="together"):
            FaultMapEntry(node=0, input_port=1)

    def test_port_range(self):
        with pytest.raises(ValueError, match="out of range"):
            FaultMapEntry(node=0, input_port=5, output_port=0)

    def test_bad_crossbar(self):
        with pytest.raises(ValueError, match="crossbar"):
            FaultMapEntry(node=0, crossbar="tertiary")

    def test_percent_and_entries_exclusive(self):
        with pytest.raises(ValueError, match="mutually exclusive"):
            FaultConfig(percent=25, entries=(FaultMapEntry(node=0),))

    def test_empty_entries_rejected(self):
        with pytest.raises(ValueError, match="non-empty"):
            FaultConfig(entries=())

    def test_duplicate_nodes_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            FaultConfig(entries=(FaultMapEntry(node=2), FaultMapEntry(node=2)))

    def test_granularity_coherence(self):
        with pytest.raises(ValueError, match="crosspoint"):
            FaultConfig(
                granularity="crosspoint", entries=(FaultMapEntry(node=0),)
            )
        with pytest.raises(ValueError, match="crossbar"):
            FaultConfig(
                granularity="crossbar",
                entries=(FaultMapEntry(node=0, input_port=1, output_port=1),),
            )
