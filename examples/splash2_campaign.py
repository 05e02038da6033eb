#!/usr/bin/env python
"""SPLASH-2 campaign (Figs 9 and 10 of the paper).

Generates a synthetic cache-coherence trace for each SPLASH-2 application
(the full-system-simulator substitution described in DESIGN.md), replays it
on every router design, and reports normalized execution time and energy.
Both figures come from the same figure drivers as ``repro figure fig9`` /
``fig10``, run in one temporary figure root so Fig 10 reuses Fig 9's
replays.

Usage::

    python examples/splash2_campaign.py [--txns 40] [--seed 11]

``REPRO_JOBS=N`` replays on N worker processes.
"""

import argparse
import tempfile

from repro.analysis import ExperimentScale, fig9, fig10, render_figure


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--txns", type=int, default=40, help="transactions per core")
    parser.add_argument("--seed", type=int, default=11)
    args = parser.parse_args()

    scale = ExperimentScale(txns_per_core=args.txns, seed=args.seed)
    with tempfile.TemporaryDirectory() as root:
        time_fig = fig9(scale, root=root)
        energy_fig = fig10(scale, root=root)

    print(render_figure(time_fig))
    print()
    print(render_figure(energy_fig))
    print(
        "\nDXbar finishes the traces fastest among the non-deflecting designs "
        "and at the lowest\nenergy; Flit-BLESS keeps up on time but pays for "
        "its deflections, SCARAB for its\nretransmissions."
    )


if __name__ == "__main__":
    main()
