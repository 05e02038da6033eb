"""Crossbar fault injection (Sections II.C and III.E).

The paper injects permanent faults at router crossbars: a percentage knob
selects how many routers develop one dead crossbar ("100% faults i.e. there
is a fault in almost every router").  Faults are "randomly generated at
different crossbars with the same random seed but varying percentages" — we
realise that by drawing a fixed random router ordering from the seed and
taking its prefix, so the faulty sets are *nested* as the percentage grows.

:func:`draw_fault_map` is the only code that draws a fault map.  A
percent-driven :class:`FaultPlan` draws under the key ``(seed,)``; the
Monte-Carlo campaign sampler (:mod:`repro.campaign.sampler`) draws sample
``i`` under ``(seed, i)``.  :class:`FaultPlan` itself only installs maps.

Two granularities are supported:

* ``crossbar`` (the paper's evaluation): the whole crossbar dies; after
  BIST detection the router reconfigures into degraded buffered mode on
  the surviving crossbar via its 2x2 steering switches;
* ``crosspoint`` (the paper names this fault origin — "faults ... could
  occur at the crosspoints connecting any input to output" — but evaluates
  only whole-crossbar failures; we provide it as an extension): one
  (input, output) crosspoint dies.  Before detection a flit blindly
  attempting the broken crosspoint loses its cycle; after detection the
  switch allocator masks the crosspoint and routes around it — which
  adaptive routing exploits better than DOR.

Detection is BIST-based with an assumed fixed latency (paper: five router
clock cycles).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from ..sim.config import FaultConfig, FaultMapEntry
from ..sim.ports import Port

#: Which crossbar died.
PRIMARY = "primary"
SECONDARY = "secondary"

#: Fault granularities.
CROSSBAR = "crossbar"
CROSSPOINT = "crosspoint"


def fault_count(percent: float, num_routers: int) -> int:
    """Faulty-router count for a percentage, with deterministic half-up
    rounding.  Python's ``round()`` rounds half to even, so e.g. 50% of a
    3x3 mesh gave 4 faults while 50% of 3 routers gave 2 — the faulty-set
    size jumped inconsistently with the percentage and broke nestedness
    expectations.  Shared by :class:`FaultPlan` and the Monte-Carlo
    campaign grid (:mod:`repro.campaign`), so a sampled campaign's count
    axis lines up exactly with the percent-driven plans."""
    return int(math.floor(percent / 100.0 * num_routers + 0.5))


def _crossbar_inputs(crossbar: str) -> int:
    """Input rows of one crossbar: the primary has the four direction
    inputs, the secondary adds the injection lane."""
    return 4 if crossbar == PRIMARY else 5


def draw_fault_map(
    key: Tuple[int, ...],
    count: int,
    num_routers: int,
    granularity: str,
    manifest_lo: int,
    manifest_hi: int,
    weights: Optional[np.ndarray] = None,
) -> Tuple[FaultMapEntry, ...]:
    """Draw the faults of the first ``count`` routers to fail under
    ``key``, in failure order.

    The stream keyed ``key`` orders the routers: a uniform permutation,
    or, with ``weights``, a weighted one.  A map of ``count`` faults is
    the ordering's prefix, so maps drawn under one key nest as ``count``
    grows.  Each failing router's fault (crossbar coin, manifest cycle in
    ``[manifest_lo, manifest_hi]``, crosspoint ports) comes from its own
    stream keyed ``key + (node,)``, so it does not depend on ``count``.
    """
    rng = np.random.default_rng(key)
    if weights is None:
        perm = rng.permutation(num_routers)
    else:
        # Gumbel keys: argsort(log w + G) descending == weighted sampling
        # without replacement (successive draws), and prefixes stay
        # nested across fault levels, which plain ``rng.choice`` without
        # replacement would not give.
        with np.errstate(divide="ignore"):
            keys = np.log(weights) + rng.gumbel(size=num_routers)
        perm = np.argsort(-keys, kind="stable")
        # Zero-weight routers all carry a log(0) = -inf key, and the
        # stable argsort would leave that tied tail in ascending node
        # order, so every key would fill counts beyond the positive-weight
        # population with the same low-node-first sequence.  Re-permute
        # the tied tail with a draw taken *after* the Gumbel keys, so
        # positive-weight orderings are unchanged and prefixes still nest.
        tied = np.isneginf(keys[perm])
        if int(tied.sum()) > 1:
            tail = perm[tied]
            perm[tied] = tail[rng.permutation(len(tail))]
    entries = []
    for node in perm[:count]:
        node = int(node)
        r = np.random.default_rng(key + (node,))
        crossbar = PRIMARY if r.random() < 0.5 else SECONDARY
        manifest = int(r.integers(manifest_lo, manifest_hi + 1))
        in_port = out_port = None
        if granularity == CROSSPOINT:
            # The broken crosspoint connects one input row to one output
            # column of the failed crossbar.
            in_port = int(r.integers(_crossbar_inputs(crossbar)))
            out_port = int(r.integers(5))
        entries.append(FaultMapEntry(node, crossbar, manifest, in_port, out_port))
    return tuple(entries)


@dataclass(frozen=True)
class RouterFault:
    """One permanent fault at one router.

    ``input_port``/``output_port`` are None for a whole-crossbar fault and
    set for a crosspoint fault.
    """

    crossbar: str  # PRIMARY or SECONDARY
    manifest_cycle: int
    detected_cycle: int
    input_port: Optional[Port] = None
    output_port: Optional[Port] = None

    @property
    def is_crosspoint(self) -> bool:
        return self.input_port is not None

    def primary_ok(self, cycle: int) -> bool:
        """Is the whole primary crossbar usable at ``cycle``?  Crosspoint
        faults never disable a whole crossbar."""
        if self.is_crosspoint:
            return True
        return self.crossbar != PRIMARY or cycle < self.manifest_cycle

    def secondary_ok(self, cycle: int) -> bool:
        if self.is_crosspoint:
            return True
        return self.crossbar != SECONDARY or cycle < self.manifest_cycle

    def detected(self, cycle: int) -> bool:
        return cycle >= self.detected_cycle

    # ------------------------------------------------------------------
    # crosspoint queries (no-ops for whole-crossbar faults)
    # ------------------------------------------------------------------
    def blocks(self, crossbar: str, in_port: Port, out_port: Port, cycle: int) -> bool:
        """True when the (in, out) crosspoint of ``crossbar`` is broken and
        the fault has manifested."""
        return (
            self.is_crosspoint
            and self.crossbar == crossbar
            and cycle >= self.manifest_cycle
            and self.input_port == in_port
            and self.output_port == out_port
        )

    def masks(self, crossbar: str, in_port: Port, out_port: Port, cycle: int) -> bool:
        """True when the allocator *knows* (post-detection) to avoid the
        crosspoint."""
        return self.blocks(crossbar, in_port, out_port, cycle) and self.detected(cycle)

    def as_event(self) -> dict:
        """JSON-serialisable payload for ``fault_reconfig`` trace records."""
        return {
            "crossbar": self.crossbar,
            "granularity": CROSSPOINT if self.is_crosspoint else CROSSBAR,
            "manifest_cycle": self.manifest_cycle,
            "detected_cycle": self.detected_cycle,
            "input_port": self.input_port.name if self.input_port is not None else None,
            "output_port": (
                self.output_port.name if self.output_port is not None else None
            ),
        }


class FaultPlan:
    """The faults installed on one mesh.

    ``plan.fault_for(node)`` returns the :class:`RouterFault` for ``node``
    or None.  A percent-driven config is first expanded by
    :func:`draw_fault_map` under the key ``(seed,)``; explicit
    :attr:`FaultConfig.entries` are installed as given.
    """

    def __init__(self, config: FaultConfig, num_routers: int) -> None:
        entries = config.entries
        if entries is None:
            entries = draw_fault_map(
                (config.seed,),
                fault_count(config.percent, num_routers),
                num_routers,
                config.granularity,
                1,
                config.manifest_window,
            )
        # What remains to check is what only the instantiated mesh knows
        # (entry-level validation already happened in ``FaultConfig``):
        # node range and the per-crossbar input arity.
        self._faults: Dict[int, RouterFault] = {}
        for e in entries:
            if e.node >= num_routers:
                raise ValueError(
                    f"fault entry node {e.node} out of range for "
                    f"{num_routers} routers"
                )
            in_port: Optional[Port] = None
            out_port: Optional[Port] = None
            if e.is_crosspoint:
                n_inputs = _crossbar_inputs(e.crossbar)
                if e.input_port >= n_inputs:
                    raise ValueError(
                        f"fault entry node {e.node}: input_port "
                        f"{e.input_port} out of range for the {e.crossbar} "
                        f"crossbar ({n_inputs} inputs)"
                    )
                in_port = Port(e.input_port)
                out_port = Port(e.output_port)
            self._faults[e.node] = RouterFault(
                crossbar=e.crossbar,
                manifest_cycle=e.manifest_cycle,
                detected_cycle=e.manifest_cycle + config.detection_cycles,
                input_port=in_port,
                output_port=out_port,
            )

    def fault_for(self, node: int) -> Optional[RouterFault]:
        return self._faults.get(node)

    @property
    def faulty_nodes(self) -> tuple:
        return tuple(sorted(self._faults))

    def signature(self) -> Dict[str, dict]:
        """JSON-able fingerprint of the whole plan.  The plan is rebuilt
        deterministically from :class:`FaultConfig` on resume; a checkpoint
        stores this signature so a drifted rebuild (e.g. a numpy behaviour
        change) is detected instead of silently diverging."""
        return {str(node): fault.as_event() for node, fault in sorted(self._faults.items())}

    def __len__(self) -> int:
        return len(self._faults)
