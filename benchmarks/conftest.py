"""Benchmark harness support.

Every benchmark regenerates one table/figure of the paper via the drivers
in :mod:`repro.analysis.experiments`, at the scale selected by the
``REPRO_SCALE`` environment variable (``quick`` by default; use
``REPRO_SCALE=default`` or ``full`` for publication-grade runs).

Rendered results are written to ``benchmarks/results/<exp>.txt`` so a run
leaves the reproduced artifacts on disk (EXPERIMENTS.md records them).
Every figure benchmark runs its cells in one session-wide figure root
(``figure_root``), so figures that share simulations (5/6, 7/8, 9/10,
11/12) simulate them once and the second benchmark of each pair measures
only cache reads and rendering.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.analysis.report import FigureResult, render_figure

RESULTS_DIR = Path(__file__).parent / "results"


def save_and_render(fig: FigureResult) -> str:
    """Render a figure, persist it, and return the text."""
    RESULTS_DIR.mkdir(exist_ok=True)
    text = render_figure(fig)
    (RESULTS_DIR / f"{fig.exp_id}.txt").write_text(text + "\n")
    return text


@pytest.fixture(scope="session")
def figure_root(tmp_path_factory) -> Path:
    """One figure run directory (cache + journal) for the whole session."""
    return tmp_path_factory.mktemp("figures")


@pytest.fixture
def record_figure():
    def _record(fig: FigureResult) -> FigureResult:
        text = save_and_render(fig)
        print("\n" + text)
        return fig

    return _record
