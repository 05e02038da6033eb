"""Batched lockstep driver for same-shape vector simulations.

Steps N independent open-loop vector simulations that share one design,
mesh, traffic and measurement protocol through a single driver loop,
with a per-simulation completion mask: a finished simulation is
finalized and dropped from the stepping set while the rest keep going.

Kept only because the end-to-end benchmark's traced run
(``perfbench/spans.py``) imports :class:`VectorBatchRunner`; nothing in
the package calls it.

Bit-exactness: each batch member owns its normal
:class:`~repro.sim.vector.base.VectorNetwork` state and is advanced by
exactly the ``workload.tick``/``network.step`` sequence of
``Simulator._run_loop``, with the same stop condition and the same
``Simulator._finalize`` epilogue — so every per-simulation
:class:`~repro.sim.stats.SimResult` is byte-identical to the result of
running that configuration alone (guaranteed by
``tests/test_vector_backend.py``).

Eligibility (enforced here): open loop only (``max_cycles is None``),
vector backend, default workload.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from ..config import SimConfig
from ..stats import SimResult


def _shape_key(config: SimConfig) -> tuple:
    """The fields every member of one batch must share — anything that
    changes the horizon, topology or traffic shape.  Seed and fault plan
    are deliberately absent: they are the axes a campaign varies."""
    return (
        config.design,
        config.k,
        config.pattern,
        config.offered_load,
        config.packet_size,
        config.warmup_cycles,
        config.measure_cycles,
        config.drain_cycles,
        config.routing,
    )


class VectorBatchRunner:
    """Run N same-shape open-loop vector simulations in lockstep."""

    def __init__(
        self, configs: Sequence[SimConfig], check_invariants: bool = False
    ) -> None:
        if not configs:
            raise ValueError("empty batch")
        for cfg in configs:
            if cfg.max_cycles is not None:
                raise ValueError(
                    "batched stepping is defined for open-loop runs only"
                )
            if cfg.resolved_backend() != "vector":
                raise ValueError(
                    f"design {cfg.design!r} resolves to the object backend; "
                    "batched stepping needs vector kernels"
                )
        shapes = {_shape_key(cfg) for cfg in configs}
        if len(shapes) > 1:
            raise ValueError(
                "batch members must share design/topology/traffic shape "
                f"(got {len(shapes)} distinct shapes)"
            )
        from ..engine import Simulator

        self.check_invariants = check_invariants
        self.sims = [Simulator(cfg) for cfg in configs]

    def run(self) -> List[SimResult]:
        """Step every member to completion; results in input order."""
        sims = self.sims
        results: List[Optional[SimResult]] = [None] * len(sims)
        inject_until = [
            s.config.warmup_cycles + s.config.measure_cycles for s in sims
        ]
        horizon = [s.config.total_cycles for s in sims]
        check = self.check_invariants
        live = list(range(len(sims)))
        while live:
            still: List[int] = []
            for i in live:
                sim = sims[i]
                network = sim.network
                cycle = network.cycle
                sim.workload.tick(cycle, network)
                network.step()
                cycle += 1
                metrics = sim.telemetry.metrics
                if (
                    metrics is not None
                    and metrics.interval
                    and cycle % metrics.interval == 0
                ):
                    metrics.sample(network, cycle)
                if check and cycle % 100 == 0:
                    network.check_conservation()
                if cycle >= horizon[i] or (
                    cycle >= inject_until[i] and sim.stats.measured_pending == 0
                ):
                    results[i] = sim._finalize(cycle)
                else:
                    still.append(i)
            live = still
        return results  # type: ignore[return-value]


def run_batch(
    configs: Sequence[SimConfig], check_invariants: bool = False
) -> List[SimResult]:
    """Convenience wrapper: one lockstep batch, results in input order."""
    return VectorBatchRunner(configs, check_invariants=check_invariants).run()
