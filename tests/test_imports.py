"""The runtime import boundary: ``repro`` needs numpy and nothing else.

scipy is a ``dev`` extra, used only by :func:`repro.analysis.compare`.
Each check runs in a fresh interpreter, since this test process may
already have scipy loaded.
"""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

RUNTIME_MODULES = (
    "repro",
    "repro.cli",
    "repro.campaign",
    "repro.runner.saturation",
    "repro.analysis",
)


def run_python(code, cwd):
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    return subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code)],
        cwd=cwd,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )


def test_runtime_modules_do_not_import_scipy(tmp_path):
    proc = run_python(
        f"""
        import importlib, sys
        for name in {RUNTIME_MODULES!r}:
            importlib.import_module(name)
        loaded = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
        print(loaded)
        """,
        tmp_path,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_cli_runs_with_scipy_blocked(tmp_path):
    proc = run_python(
        """
        import sys
        sys.modules["scipy"] = None  # any `import scipy` now raises
        from repro.cli import main

        tiny = ["--k", "4", "--warmup", "20", "--measure", "60", "--drain", "40"]
        assert main(["run", "--json", "--load", "0.1", *tiny]) == 0
        assert main(
            ["campaign", "run", "camp", "--designs", "dxbar_dor",
             "--loads", "0.3", "--percents", "0", "100", "--samples", "1",
             "--quiet", *tiny]
        ) == 0
        assert main(["campaign", "status", "camp"]) == 0
        """,
        tmp_path,
    )
    assert proc.returncode == 0, proc.stderr
    assert '"accepted_load"' in proc.stdout
    assert "2/2 jobs" in proc.stdout
    assert (tmp_path / "camp" / "report.json").exists()
