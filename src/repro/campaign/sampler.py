"""Deterministic Monte-Carlo fault-map sampling.

The paper evaluates hand-picked static fault plans ("the same random seed
with varying percentages"); asking its real question at scale — *what is
the distribution of degradation over random fault maps, and which routers
matter most?* — needs many independent maps per fault level.  Sample
``i`` of a campaign seeded ``seed`` is
:func:`~repro.core.faults.draw_fault_map` under the key ``(seed, i)``,
the same draw a percent-driven :class:`~repro.core.faults.FaultPlan` makes
under ``(seed,)``.  That gives the properties the rest of the stack
depends on:

* **Determinism** — a map is a pure function of ``(seed, sample_index)``;
  per-node fault attributes are keyed by ``(seed, sample_index, node)``.
  No process-global RNG state, so serial, parallel and resumed campaigns
  sample identical maps.
* **Nestedness within a sample** — one sample index owns one router
  ordering; a fault level takes its prefix (the paper's methodology), so
  degradation is monotone in the fault count *per map* and paired
  comparisons across levels are meaningful.
* **Serializability** — maps come out as
  :class:`~repro.sim.config.FaultMapEntry` tuples, i.e. plain config
  data: they ride inside ``SimConfig`` through ``config_hash`` caching,
  checkpoint identity and process boundaries unchanged.

This module adds the argument checks and the named weighting profiles;
weighted orderings use Gumbel keys (see ``draw_fault_map``).
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional, Sequence, Tuple

import numpy as np

from ..core.faults import draw_fault_map
from ..sim.config import FaultMapEntry

#: Built-in weighting profiles (resolved against a k x k mesh).
WEIGHTINGS = ("uniform", "center", "edges")


def resolve_weights(weighting: str, k: int) -> Optional[np.ndarray]:
    """Per-node sampling weights for a named profile on a ``k x k`` mesh.

    ``uniform`` returns None (every router equally likely); ``center``
    biases towards the mesh middle (where DOR concentrates traffic, the
    natural "criticality prior"); ``edges`` inverts that.
    """
    if weighting == "uniform":
        return None
    nodes = np.arange(k * k)
    x, y = nodes % k, nodes // k
    c = (k - 1) / 2.0
    dist = np.abs(x - c) + np.abs(y - c)
    if weighting == "center":
        w = 1.0 + dist.max() - dist
    elif weighting == "edges":
        w = 1.0 + dist
    else:
        raise ValueError(f"unknown weighting {weighting!r}; expected {WEIGHTINGS}")
    return w / w.sum()


class FaultMapSampler:
    """Samples fault maps over ``num_routers`` routers.

    ``granularity`` is ``"crossbar"`` or ``"crosspoint"`` (see
    :class:`~repro.sim.config.FaultConfig`).  ``manifest_lo``/
    ``manifest_hi`` bound the uniformly-random manifest cycle of each
    fault (inclusive): spanning warmup reproduces the paper's setup,
    spanning the measurement window is the transient fault-during-run
    scenario, and ``lo == hi`` schedules every fault at one exact cycle.
    ``weights`` (length ``num_routers``, need not be normalised) biases
    which routers fail; None samples uniformly.
    """

    def __init__(
        self,
        num_routers: int,
        *,
        seed: int,
        granularity: str = "crossbar",
        manifest_lo: int = 1,
        manifest_hi: int = 500,
        weights: Optional[Sequence[float]] = None,
    ) -> None:
        if num_routers < 1:
            raise ValueError("num_routers must be >= 1")
        if granularity not in ("crossbar", "crosspoint"):
            raise ValueError(f"unknown granularity {granularity!r}")
        if not (0 <= manifest_lo <= manifest_hi):
            raise ValueError(
                f"need 0 <= manifest_lo <= manifest_hi, got "
                f"[{manifest_lo}, {manifest_hi}]"
            )
        self.num_routers = num_routers
        self.seed = seed
        self.granularity = granularity
        self.manifest_lo = manifest_lo
        self.manifest_hi = manifest_hi
        if weights is not None:
            w = np.asarray(list(weights), dtype=float)
            if w.shape != (num_routers,):
                raise ValueError(
                    f"weights must have length {num_routers}, got {w.shape}"
                )
            if (w < 0).any() or w.sum() <= 0:
                raise ValueError("weights must be non-negative with a positive sum")
            weights = w
        self.weights = weights

    # ------------------------------------------------------------------
    def _draw(self, sample_index: int, count: int) -> Tuple[FaultMapEntry, ...]:
        return draw_fault_map(
            (self.seed, int(sample_index)),
            count,
            self.num_routers,
            self.granularity,
            self.manifest_lo,
            self.manifest_hi,
            self.weights,
        )

    def order(self, sample_index: int) -> Tuple[int, ...]:
        """The router failure ordering of one sample: element 0 fails
        first; a fault level of ``n`` routers takes the first ``n``."""
        return tuple(e.node for e in self._draw(sample_index, self.num_routers))

    def sample(self, sample_index: int, count: int) -> Tuple[FaultMapEntry, ...]:
        """One fault map: ``count`` faulty routers drawn for
        ``sample_index``, in ascending node order (entry order carries no
        semantics; sorting keeps the serialized form canonical)."""
        return self.sample_levels(sample_index, (count,))[count]

    def sample_levels(
        self, sample_index: int, counts: Iterable[int]
    ) -> Dict[int, Tuple[FaultMapEntry, ...]]:
        """The fault maps of one sample at several levels, from one draw.

        The ordering is drawn once, up to the largest count; every level
        takes its prefix.  Each map equals :meth:`sample` at that count,
        because a router's fault comes from its own stream and does not
        depend on how many routers were drawn.
        """
        counts = tuple(counts)
        for count in counts:
            if not (0 <= count <= self.num_routers):
                raise ValueError(
                    f"count must be in [0, {self.num_routers}], got {count}"
                )
        top = max(counts, default=0)
        drawn = self._draw(sample_index, top) if top else ()
        return {
            count: tuple(sorted(drawn[:count], key=lambda e: e.node))
            for count in counts
        }
