"""Tests for the plugin registries: registration, errors, and end-to-end
use of out-of-tree designs/patterns without editing core files."""

import pytest

from repro.cli import main
from repro.core.dxbar import DXbarRouter
from repro.registry import (
    DESIGNS,
    PATTERNS,
    ROUTING,
    DuplicateEntryError,
    UnknownEntryError,
    derive_design,
    design_labels,
    design_names,
    pattern_names,
    register_design,
    register_pattern,
    routing_names,
)
from repro.sim.config import SimConfig
from repro.sim.engine import run_simulation
from repro.traffic.patterns import UniformRandom, make_pattern
from repro.sim.topology import Mesh


class TestBuiltins:
    def test_builtin_designs_registered(self):
        names = design_names()
        assert "dxbar_dor" in names and "flit_bless" in names
        assert len(names) == 9

    def test_builtin_routing_registered(self):
        assert set(routing_names()) == {"dor", "wf", "adaptive"}

    def test_builtin_patterns_in_paper_order(self):
        assert pattern_names()[:9] == (
            "UR", "NUR", "BR", "BF", "CP", "MT", "PS", "NB", "TOR",
        )

    def test_design_spec_fields(self):
        spec = DESIGNS.get("dxbar_wf")
        assert spec.router_cls is DXbarRouter
        assert spec.routing == "wf"
        assert spec.base == "dxbar"
        assert spec.supports_faults

    def test_labels_view(self):
        labels = design_labels()
        assert labels["dxbar_dor"] == "DXbar DOR"


class TestErrors:
    def test_unknown_design_lookup(self):
        with pytest.raises(UnknownEntryError, match="unknown design 'warp'"):
            DESIGNS.get("warp")

    def test_unknown_lookup_lists_registered_names(self):
        with pytest.raises(ValueError, match="dxbar_dor"):
            DESIGNS.get("warp")

    def test_unknown_entry_is_value_error(self):
        # SimConfig validation surfaces these as plain ValueErrors.
        assert issubclass(UnknownEntryError, ValueError)

    def test_duplicate_design_rejected(self):
        with DESIGNS.temporary():
            with pytest.raises(DuplicateEntryError, match="already registered"):
                register_design("dxbar_dor", DXbarRouter)

    def test_duplicate_replace_allowed(self):
        with DESIGNS.temporary():
            register_design("dxbar_dor", DXbarRouter, replace=True, label="X")
            assert DESIGNS.get("dxbar_dor").label == "X"

    def test_duplicate_pattern_rejected(self):
        with PATTERNS.temporary():
            with pytest.raises(DuplicateEntryError):
                register_pattern(UniformRandom)

    def test_pattern_without_name_rejected(self):
        class Anon:
            name = ""

        with pytest.raises(ValueError, match="name"):
            register_pattern(Anon)

    def test_error_message_tracks_dynamic_registrations(self):
        with DESIGNS.temporary():
            register_design("zz_custom", DXbarRouter, base="dxbar")
            with pytest.raises(UnknownEntryError, match="zz_custom"):
                DESIGNS.get("nope")


class TestTemporary:
    def test_temporary_restores_entries(self):
        before = design_names()
        with DESIGNS.temporary():
            register_design("ephemeral", DXbarRouter, base="dxbar")
            assert "ephemeral" in DESIGNS
        assert design_names() == before
        assert "ephemeral" not in DESIGNS


class TestPluginDesignEndToEnd:
    """The acceptance scenario: a new router design registered from a test
    file — no edits to designs.py or config.py — runs end-to-end."""

    def test_config_validation_accepts_plugin(self):
        with DESIGNS.temporary():
            register_design(
                "my_dxbar", DXbarRouter, routing="wf", base="dxbar",
                supports_faults=True, label="My DXbar",
            )
            cfg = SimConfig(design="my_dxbar")
            assert cfg.base_design == "dxbar"
            assert cfg.routing == "wf"

    def test_run_simulation_end_to_end(self):
        with DESIGNS.temporary():

            @register_design(
                "my_dxbar", routing="dor", base="dxbar", label="My DXbar"
            )
            class MyRouter(DXbarRouter):
                pass

            cfg = SimConfig(
                design="my_dxbar", k=4, warmup_cycles=50,
                measure_cycles=200, drain_cycles=500, offered_load=0.2,
            )
            result = run_simulation(cfg)
            assert result.design == "my_dxbar"
            assert result.ejected_flits > 0

    def test_cli_end_to_end(self, capsys):
        with DESIGNS.temporary():
            register_design("my_dxbar", DXbarRouter, base="dxbar", label="My DXbar")
            rc = main([
                "run", "--design", "my_dxbar", "--k", "4", "--load", "0.1",
                "--warmup", "50", "--measure", "200", "--drain", "500", "--json",
            ])
            assert rc == 0
            out = capsys.readouterr().out
            assert '"design": "my_dxbar"' in out

    def test_cli_designs_lists_plugin(self, capsys):
        with DESIGNS.temporary():
            register_design("my_dxbar", DXbarRouter, base="dxbar", label="My DXbar")
            assert main(["designs"]) == 0
            assert "my_dxbar" in capsys.readouterr().out

    def test_derive_design_variant(self):
        with DESIGNS.temporary():
            spec = derive_design("dxbar_dor", "dxbar_dor_v2")
            assert spec.router_cls is DXbarRouter
            assert SimConfig(design="dxbar_dor_v2").design == "dxbar_dor_v2"

    def test_unknown_design_error_still_raised(self):
        with pytest.raises(ValueError, match="unknown design"):
            SimConfig(design="not_registered")

    def test_fault_validation_uses_spec_flag(self):
        from repro.sim.config import FaultConfig

        with DESIGNS.temporary():
            register_design("no_faults", DXbarRouter, base="dxbar")
            with pytest.raises(ValueError, match="fault injection"):
                SimConfig(design="no_faults", faults=FaultConfig(percent=50))


class TestPluginPattern:
    def test_register_and_run_pattern(self):
        with PATTERNS.temporary():

            @register_pattern
            class EveryoneToZero(UniformRandom):
                name = "Z0"

                def sample_dest(self, src, rng):
                    return 0 if src != 0 else 1

                def weights(self, src):
                    return {0: 1.0} if src != 0 else {1: 1.0}

            assert "Z0" in pattern_names()
            pattern = make_pattern("Z0", Mesh(4))
            assert pattern.weights(5) == {0: 1.0}
            cfg = SimConfig(
                pattern="Z0", k=4, warmup_cycles=20, measure_cycles=100,
                drain_cycles=500, offered_load=0.05,
            )
            result = run_simulation(cfg)
            assert result.ejected_flits > 0

    def test_unknown_pattern(self):
        with pytest.raises(ValueError, match="unknown pattern"):
            make_pattern("ZZ", Mesh(4))


class TestLegacySurface:
    def test_known_designs_view_is_live(self):
        with DESIGNS.temporary():
            register_design("live_view", DXbarRouter, base="dxbar")
            assert "live_view" in DESIGNS.names()
        assert "live_view" not in DESIGNS.names()

    def test_design_labels_view_is_live(self):
        from repro.designs import DESIGN_LABELS

        with DESIGNS.temporary():
            register_design("labelled", DXbarRouter, base="dxbar", label="L!")
            assert DESIGN_LABELS["labelled"] == "L!"
        with pytest.raises(KeyError):
            DESIGN_LABELS["labelled"]

    def test_routing_registry_builds(self):
        fn = ROUTING.get("dor")(Mesh(4))
        assert fn.name == "dor"
