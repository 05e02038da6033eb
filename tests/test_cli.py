"""Tests for the command-line interface."""

import json
import shutil

import pytest

from repro.analysis.experiments import SCALES, ExperimentScale
from repro.checkpoint import list_checkpoints
from repro.cli import build_parser, main
from repro.obs import merge_journal


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_defaults(self):
        args = build_parser().parse_args(["run"])
        assert args.design == "dxbar_dor"
        assert args.pattern == "UR"

    def test_unknown_design_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--design", "warp"])

    def test_figure_names_constrained(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["figure", "fig99"])

    @pytest.mark.parametrize("argv", [
        # run never read --jobs; sweep's --design/--load lost to --designs/--loads
        ["run", "--jobs", "7"],
        ["sweep", "--design", "scarab"],
        ["sweep", "--load", "1.5"],
        # one --root replaces the separate cache, journal and checkpoint flags
        *([cmd, *flag] for cmd in ("run", "sweep") for flag in (
            ["--cache-dir", "c"], ["--journal", "j"], ["--checkpoint-dir", "k"],
            ["--heartbeat-interval", "2"],
        )),
        ["campaign", "run", "c", "--no-journal"],
        ["saturate", "--no-journal"],
    ])
    def test_removed_flags_rejected(self, argv):
        with pytest.raises(SystemExit):
            build_parser().parse_args(argv)


class TestCommands:
    def test_designs_lists_everything(self, capsys):
        assert main(["designs"]) == 0
        out = capsys.readouterr().out
        assert "dxbar_dor" in out and "afc" in out

    def test_patterns(self, capsys):
        assert main(["patterns"]) == 0
        assert "TOR" in capsys.readouterr().out

    def test_run_prints_metrics(self, capsys):
        rc = main(
            [
                "run",
                "--design", "dxbar_dor",
                "--load", "0.1",
                "--k", "4",
                "--warmup", "50",
                "--measure", "200",
                "--drain", "400",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "accepted load" in out
        assert "energy (nJ/packet)" in out

    def test_sweep_prints_tables(self, capsys):
        rc = main(
            [
                "sweep",
                "--designs", "dxbar_dor", "flit_bless",
                "--loads", "0.05", "0.1",
                "--k", "4",
                "--warmup", "50",
                "--measure", "150",
                "--drain", "300",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "accepted load" in out
        assert "Flit-Bless" in out

    def test_figure_table3(self, capsys):
        assert main(["figure", "table3"]) == 0
        assert "Area and energy" in capsys.readouterr().out


TINY_FAULTS = ExperimentScale(
    warmup=60, measure=240, drain=60, fault_loads=(0.3,),
    fault_percents=(0.0, 100.0), seed=1,
)


class TestFigureRoot:
    def test_figure_root_is_seen_by_status(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setitem(SCALES, "quick", TINY_FAULTS)
        root = str(tmp_path / "figs")
        assert main(["figure", "fig11", "--root", root]) == 0
        journaled = capsys.readouterr().out
        assert main(["status", root, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        cells = 2 * len(TINY_FAULTS.fault_percents) * len(TINY_FAULTS.fault_loads)
        counts = payload["campaign"]["counts"]
        assert counts["completed"] == cells
        assert sum(counts.values()) == cells
        assert payload["metrics"]["counters"]["jobs_completed"] == cells
        assert payload["campaign"]["backends"] == {"object": cells}
        # The journal is a pure observer: no root, same figure.
        assert main(["figure", "fig11"]) == 0
        assert capsys.readouterr().out == journaled


class TestCheckpointResume:
    ARGS = [
        "run", "--design", "dxbar_dor", "--load", "0.3", "--k", "4",
        "--warmup", "100", "--measure", "400", "--drain", "400",
        "--checkpoint-every", "100", "--json",
    ]

    def test_rerun_resumes_from_the_newest_checkpoint(self, tmp_path, capsys):
        """Re-running the same command in its root resumes from the
        newest snapshot instead of restarting, and ends where the first
        run did.  The cache entry is removed first: a run killed before
        it finished leaves none."""
        argv = self.ARGS + ["--root", str(tmp_path)]
        assert main(argv) == 0
        straight = json.loads(capsys.readouterr().out)
        shutil.rmtree(tmp_path / "cache")
        assert main(argv) == 0
        resumed = json.loads(capsys.readouterr().out)
        assert resumed == straight
        events = merge_journal(tmp_path / "journal")
        started = [e for e in events if e["event"] == "job_started"]
        assert [s["cycle"] > 0 for s in started] == [False, True]

    def test_snapshots_live_under_the_roots_checkpoints(self, tmp_path, capsys):
        assert main(self.ARGS + ["--root", str(tmp_path)]) == 0
        [job_dir] = (tmp_path / "checkpoints").iterdir()
        [done] = [e for e in merge_journal(tmp_path / "journal")
                  if e["event"] == "completed"]
        assert job_dir.name == done["job"]
        assert list_checkpoints(job_dir)

    def test_checkpoints_need_a_root(self, capsys):
        assert main(self.ARGS) == 2
        assert "--checkpoint-every needs --root" in capsys.readouterr().err


class TestRunRoot:
    RUN = ["run", "--design", "dxbar_dor", "--load", "0.1", "--k", "4",
           "--warmup", "20", "--measure", "60", "--drain", "200"]

    def test_second_run_is_cached_and_status_counts_it(self, tmp_path, capsys):
        root = str(tmp_path)
        assert main(self.RUN + ["--root", root]) == 0
        assert "(cached)" not in capsys.readouterr().out
        assert main(self.RUN + ["--root", root]) == 0
        assert "(cached)" in capsys.readouterr().out.splitlines()[0]
        assert main(["status", root, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["campaign"]["counts"]["completed"] == 1
        assert sum(payload["campaign"]["counts"].values()) == 1
        assert payload["metrics"]["counters"]["cache_hits"] == 1


class TestCampaignCLI:
    CAMPAIGN_FLAGS = [
        "--designs", "dxbar_dor",
        "--loads", "0.3",
        "--percents", "0", "100",
        "--samples", "2",
        "--seed", "7",
        "--k", "4",
        "--warmup", "20",
        "--measure", "60",
        "--drain", "40",
        "--quiet",
    ]

    def test_run_status_report_cycle(self, tmp_path, capsys):
        root = str(tmp_path / "camp")
        assert main(["campaign", "run", root, *self.CAMPAIGN_FLAGS]) == 0
        out = capsys.readouterr().out
        assert "dxbar_dor @ load 0.3" in out
        assert (tmp_path / "camp" / "report.json").exists()

        assert main(["status", root]) == 0
        assert "3/3 jobs complete" in capsys.readouterr().out
        assert main(["status", root, "--json"]) == 0
        progress = json.loads(capsys.readouterr().out)["progress"]
        assert (progress["completed"], progress["total"]) == (3, 3)

        assert main(["campaign", "report", root, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["jobs_completed"] == 3
        assert payload["jobs_pending"] == 0

    def test_resume_reuses_the_cache(self, tmp_path, capsys):
        root = str(tmp_path / "camp")
        assert main(["campaign", "run", root, *self.CAMPAIGN_FLAGS]) == 0
        first = (tmp_path / "camp" / "report.json").read_bytes()
        capsys.readouterr()
        assert main(["campaign", "run", root, "--resume", "--quiet"]) == 0
        assert (tmp_path / "camp" / "report.json").read_bytes() == first

    def test_resume_without_manifest_fails(self, tmp_path, capsys):
        rc = main(["campaign", "run", str(tmp_path / "nope"), "--resume"])
        assert rc == 1
        assert "no campaign manifest" in capsys.readouterr().err

    def test_unknown_granularity_rejected(self, tmp_path):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["campaign", "run", str(tmp_path), "--granularity", "wire"]
            )

    def test_invalid_spec_reported_without_traceback(self, tmp_path, capsys):
        root = str(tmp_path / "camp")
        rc = main(["campaign", "run", root, *self.CAMPAIGN_FLAGS, "--samples", "0"])
        assert rc == 1
        assert "repro campaign run: samples must be >= 1" in capsys.readouterr().err

    def test_status_on_invalid_manifest_spec(self, tmp_path, capsys):
        root = tmp_path / "camp"
        assert main(["campaign", "run", str(root), *self.CAMPAIGN_FLAGS]) == 0
        manifest = json.loads((root / "manifest.json").read_text())
        manifest["spec"]["samples"] = 0
        (root / "manifest.json").write_text(json.dumps(manifest))
        capsys.readouterr()
        assert main(["status", str(root)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("repro status: invalid spec")
        assert "Traceback" not in err and err.count("\n") == 1
