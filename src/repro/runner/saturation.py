"""Adaptive saturation-point search service.

The paper's headline comparisons (Figs. 5-11) hinge on where each
design's latency curve saturates.  A fixed offered-load grid wastes jobs
on the flat region and brackets the knee only as finely as its spacing;
this module instead binary-searches the injection rate per design,
seeding the bracket from the analytic channel capacity
(:func:`repro.routing.capacity.channel_capacity`, the ``1/max_channel_load``
bound) and narrowing to a configurable tolerance in
``O(log(span/tolerance))`` simulations.

A search lives in one run directory, like a :mod:`repro.campaign`
(:mod:`repro.runner.rundir` owns its manifest)::

    <root>/manifest.json     what the search *is* (spec + content hash)
    <root>/cache/            ResultCache, one JSON per completed probe
    <root>/journal/          run journal shards (``repro status``/``tail``)
    <root>/saturation.json   incremental per-design results (crash-safe)

Every probe goes through :func:`repro.runner.run_specs`, so the search
inherits caching, retries and journal telemetry for free.  Crash-safe
resume falls out of determinism: the probe sequence is a pure function of
the measurements, measurements are a pure function of the probe configs,
and completed probes are cache hits — re-running a killed search replays
the same decisions and fills in only what is missing, ending in a
byte-identical ``saturation.json``.

Speculative parallel probing: with ``speculation=N`` each bisection round
measures whole *levels* of the dyadic subdivision of the current bracket
(up to ``N+1`` probes) instead of a single midpoint, keeping a process
pool full while the search narrows.  Because the probes stay on the
dyadic grid and each round resolves complete levels, the final bracket —
and therefore the reported saturation load — is identical to the serial
bisection's.

Measurement noise cannot silently corrupt a search: a *non-monotone*
round (some load measured stable above a load measured unstable) discards
the generation, widens the bracket around the contradiction and re-probes
with fresh derived seeds; if the contradiction survives
``max_widenings`` generations the design is reported ``failed`` instead
of converging on noise.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple, Union

from ..registry import DESIGNS, ROUTING
from ..routing.capacity import channel_capacity
from ..sim.config import SimConfig, check_fields, content_hash
from ..sim.stats import SimResult
from ..sim.topology import Mesh
from ..traffic.patterns import make_pattern
from .cache import ResultCache
from .executor import results_of, run_specs
from .rundir import RunDir, run_paths, write_json
from .spec import RunSpec, derived_seed

REPORT_NAME = "saturation.json"

#: Stability criteria: ``accepted`` (accepted >= threshold * offered) or
#: ``latency`` (flit latency <= latency_factor * the latency at the
#: bracket's low edge).
CRITERIA = ("accepted", "latency")

#: SimConfig fields the search owns; a ``sim`` override naming one of
#: these would silently fight the probe expansion, so it is rejected.
_RESERVED_SIM_KEYS = ("design", "offered_load", "k", "pattern", "seed")

#: Hard ceiling on service rounds — only reachable through a bug in the
#: state machine, never through a legitimate search (bracket expansion
#: and bisection are both logarithmically bounded).
_MAX_ROUNDS = 1000

_EPS = 1e-12


class SaturationError(RuntimeError):
    """A search directory problem or terminally-failed probe jobs."""


def _round_load(x: float) -> float:
    """Canonical probe-load rounding: stabilises config hashes (and cache
    keys) against float noise far below any meaningful tolerance."""
    return round(x, 9)


# ----------------------------------------------------------------------
# spec
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SaturationSpec:
    """All knobs of one saturation search.

    ``criterion`` selects stability: ``accepted`` calls a load stable
    while accepted throughput keeps up with offered
    (``accepted >= threshold * offered``); ``latency`` calls it stable
    while average flit latency stays under ``latency_factor`` times the
    latency at the bracket's low edge.  ``tolerance`` is the absolute
    width (flits/node/cycle) the bracket is narrowed to.  ``sim`` carries
    further :class:`~repro.sim.config.SimConfig` overrides (cycle counts,
    packet size, ...) applied verbatim to every probe.  Without a
    ``backend`` override each probe runs on
    :meth:`~repro.sim.config.SimConfig.fastest_backend`; the backends are
    bit-exact, so only the probe cache keys depend on it.

    Execution knobs (``jobs``, ``speculation``) deliberately live on
    :func:`run_saturation`, not here: they affect how the search runs,
    never what it finds, so they must not enter the search identity hash.
    """

    designs: Tuple[str, ...] = ("dxbar_dor",)
    k: int = 8
    pattern: str = "UR"
    criterion: str = "accepted"
    threshold: float = 0.95
    latency_factor: float = 4.0
    tolerance: float = 0.02
    min_load: float = 0.02
    max_load: float = 1.0
    seed: int = 1
    max_widenings: int = 2
    sim: Dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(self, "designs", tuple(self.designs))
        object.__setattr__(self, "sim", dict(self.sim))
        if not self.designs:
            raise ValueError("saturation search needs at least one design")
        if len(set(self.designs)) != len(self.designs):
            raise ValueError(f"duplicate designs: {self.designs}")
        for d in self.designs:
            if d not in DESIGNS:
                raise ValueError(f"unknown design {d!r}")
        if self.criterion not in CRITERIA:
            raise ValueError(
                f"criterion must be one of {CRITERIA}, got {self.criterion!r}"
            )
        if not (0.0 < self.threshold <= 1.0):
            raise ValueError("threshold must be in (0, 1]")
        if self.latency_factor <= 1.0:
            raise ValueError("latency_factor must be > 1")
        if self.tolerance < 1e-6:
            raise ValueError("tolerance must be >= 1e-6")
        if not (0.0 < self.min_load < self.max_load <= 2.0):
            raise ValueError("need 0 < min_load < max_load <= 2.0")
        if self.max_load - self.min_load <= self.tolerance:
            raise ValueError("search range must be wider than the tolerance")
        if self.max_widenings < 0:
            raise ValueError("max_widenings must be >= 0")
        for key in _RESERVED_SIM_KEYS:
            if key in self.sim:
                raise ValueError(
                    f"sim override {key!r} is owned by the search; "
                    f"set it through the SaturationSpec field instead"
                )
        # Validate the base config eagerly (bad sim overrides, unknown
        # pattern, ...): a search should fail before its first probe does.
        self.base_config()

    # ------------------------------------------------------------------
    def base_config(self) -> SimConfig:
        """The template every probe derives from."""
        return SimConfig(
            design=self.designs[0],
            k=self.k,
            pattern=self.pattern,
            offered_load=self.min_load,
            seed=self.seed,
            **self.sim,
        )

    # ------------------------------------------------------------------
    # serialization
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "SaturationSpec":
        check_fields(cls, data)
        return cls(**data)

    def search_hash(self) -> str:
        """Stable content hash (hex, 16 chars) identifying the search;
        written to the manifest so a directory refuses probes from a
        different search."""
        return content_hash(self.to_dict())


_RUN_DIR = RunDir(
    SaturationSpec, "search_id", SaturationError, kind="saturation", run="search"
)
write_manifest = _RUN_DIR.write_manifest
load_manifest = _RUN_DIR.load_manifest


# ----------------------------------------------------------------------
# per-design search state machine
# ----------------------------------------------------------------------
class _Search:
    """One design's adaptive search.

    The machine is deliberately *memoryless beyond its measurements*:
    :meth:`next_loads` and :meth:`integrate` are pure functions of the
    ``measured`` dict (plus the immutable spec), so replaying a search
    against a warm result cache reproduces every decision — the property
    kill -9 resume and speculative/serial identity both rest on.
    """

    def __init__(self, spec: SaturationSpec, design: str) -> None:
        self.spec = spec
        self.design = design
        mesh = Mesh(spec.k)
        pattern = make_pattern(spec.pattern, mesh)
        routing = ROUTING.get(DESIGNS.get(design).routing)(mesh)
        self.capacity = channel_capacity(pattern, mesh, routing)
        self.generation = 0
        self.status = "pending"
        self.error: Optional[str] = None
        self.saturation_load: Optional[float] = None
        self.knee_load: Optional[float] = None
        # Seed the bracket from the analytic capacity: the true saturation
        # point of any real router sits below the channel bound, usually
        # not far below it.
        self._begin(0.5 * self.capacity, 1.05 * self.capacity)

    # -- lifecycle -----------------------------------------------------
    def _begin(self, lo: float, hi: float) -> None:
        self.lo = _round_load(max(self.spec.min_load, lo))
        self.hi = _round_load(min(self.spec.max_load, hi))
        if self.hi <= self.lo + self.spec.tolerance:
            # Degenerate analytic seed (tiny or huge capacity): fall back
            # to the full configured range.
            self.lo = _round_load(self.spec.min_load)
            self.hi = _round_load(self.spec.max_load)
        self.ref_load = self.lo  # latency-criterion reference probe
        self.measured: Dict[float, SimResult] = {}
        self.bracketed = False

    @property
    def done(self) -> bool:
        return self.status != "pending"

    def seed(self) -> int:
        """Traffic seed of the current generation: the spec's seed for
        generation 0, a derived seed after each widening — so re-probes
        see fresh noise rather than replaying the contradiction."""
        if self.generation == 0:
            return self.spec.seed
        return derived_seed(self.spec.seed, self.design, self.generation)

    # -- probe selection ----------------------------------------------
    def next_loads(self, speculation: int) -> List[float]:
        """Loads to measure this round.

        Bracket phase: the (unmeasured) bracket edges.  Bisection phase:
        whole levels of the dyadic subdivision of ``[lo, hi]`` — one level
        (the classic midpoint) plus as many further complete levels as
        ``speculation`` extra probes afford, capped at the depth still
        needed to reach the tolerance.  Whole levels keep the final
        bracket identical to the serial search's: each round resolves the
        bracket by exactly the levels it measured.
        """
        if self.done:
            return []
        if not self.bracketed:
            return [
                x for x in dict.fromkeys((self.lo, self.hi))
                if x not in self.measured
            ]
        budget = 1 + max(0, speculation)
        levels = 1
        while 2 ** (levels + 1) - 1 <= budget:
            levels += 1
        remaining = max(
            1,
            math.ceil(math.log2((self.hi - self.lo) / self.spec.tolerance - _EPS)),
        )
        levels = min(levels, remaining)
        points: List[float] = []
        frontier = [(self.lo, self.hi)]
        for _ in range(levels):
            nxt = []
            for a, b in frontier:
                m = _round_load(0.5 * (a + b))
                points.append(m)
                nxt.append((a, m))
                nxt.append((m, b))
            frontier = nxt
        return [x for x in dict.fromkeys(points) if x not in self.measured]

    # -- stability -----------------------------------------------------
    def _stable(self, load: float) -> bool:
        r = self.measured[load]
        if self.spec.criterion == "accepted":
            return r.accepted_load >= self.spec.threshold * load
        ref = self.measured[self.ref_load]
        limit = self.spec.latency_factor * max(ref.avg_flit_latency, _EPS)
        return r.avg_flit_latency <= limit

    # -- bracket update ------------------------------------------------
    def integrate(self) -> None:
        """Fold all measurements into the bracket (idempotent: a pure
        function of ``measured``, so resumed and speculative searches make
        the same moves)."""
        if self.done or not self.measured:
            return
        stables = sorted(x for x in self.measured if self._stable(x))
        unstables = sorted(x for x in self.measured if not self._stable(x))
        lo_meas = stables[-1] if stables else None
        hi_meas = unstables[0] if unstables else None
        if lo_meas is not None and hi_meas is not None and lo_meas > hi_meas:
            # Non-monotone: stable *above* unstable.  Converging on either
            # edge would encode noise as a saturation point — refuse,
            # widen around the contradiction and re-probe fresh.
            self._widen(lo_meas, hi_meas)
            return
        if hi_meas is not None and hi_meas <= self.spec.min_load + _EPS:
            # Already saturated at the search floor.
            self._finish(
                "below_range",
                lo=_round_load(self.spec.min_load), hi=hi_meas,
                saturation=_round_load(self.spec.min_load), knee=None,
            )
            return
        if lo_meas is not None and lo_meas >= self.spec.max_load - _EPS:
            # Still stable at the search ceiling.
            self._finish(
                "unsaturated",
                lo=lo_meas, hi=_round_load(self.spec.max_load),
                saturation=_round_load(self.spec.max_load), knee=lo_meas,
            )
            return
        if lo_meas is None:
            # No stable point yet: halve toward the floor.
            assert hi_meas is not None
            self.lo = _round_load(max(self.spec.min_load, 0.5 * hi_meas))
            self.hi = hi_meas
            return
        if hi_meas is None:
            # No unstable point yet: expand toward the ceiling.
            self.lo = lo_meas
            self.hi = _round_load(min(self.spec.max_load, 1.5 * lo_meas))
            return
        self.lo, self.hi = lo_meas, hi_meas
        self.bracketed = True
        if self.hi - self.lo <= self.spec.tolerance + _EPS:
            self._finish(
                "converged",
                lo=self.lo, hi=self.hi,
                saturation=_round_load(0.5 * (self.lo + self.hi)),
                knee=self.lo,
            )

    def _widen(self, max_stable: float, min_unstable: float) -> None:
        self.generation += 1
        if self.generation > self.spec.max_widenings:
            self.status = "failed"
            self.error = (
                f"non-monotone measurements persist after "
                f"{self.spec.max_widenings} bracket widening(s): stable at "
                f"load {max_stable:g} but unstable at {min_unstable:g}"
            )
            return
        # Cover the contradiction region with margin and start over under
        # this generation's fresh seeds.
        self._begin(0.5 * min_unstable, 1.5 * max_stable)

    def _finish(
        self,
        status: str,
        *,
        lo: float,
        hi: float,
        saturation: float,
        knee: Optional[float],
    ) -> None:
        self.status = status
        self.lo, self.hi = lo, hi
        self.saturation_load = saturation
        self.knee_load = knee

    # -- reporting -----------------------------------------------------
    def entry(self) -> Dict[str, Any]:
        """The design's deterministic report row: independent of ``jobs``,
        ``speculation`` and resume history, so serial, parallel,
        speculative and resumed searches write byte-identical reports."""
        knee = (
            self.measured.get(self.knee_load)
            if self.knee_load is not None
            else None
        )
        return {
            "design": self.design,
            "status": self.status,
            "capacity": _round_load(self.capacity),
            "saturation_load": self.saturation_load,
            "bracket": (
                [self.lo, self.hi] if self.status != "pending" else None
            ),
            "capacity_fraction": (
                round(self.saturation_load / self.capacity, 6)
                if self.saturation_load is not None and self.capacity > 0
                else None
            ),
            "latency_at_knee": (
                round(knee.avg_flit_latency, 6) if knee is not None else None
            ),
            "accepted_at_knee": (
                round(knee.accepted_load, 6) if knee is not None else None
            ),
            "generation": self.generation,
            "error": self.error,
        }


# ----------------------------------------------------------------------
# results
# ----------------------------------------------------------------------
@dataclass
class SaturationRun:
    """Everything :func:`run_saturation` produced: the resolved spec, the
    per-design report rows (spec order), the payload written to
    ``saturation.json``, and execution statistics (the statistics are
    *not* in the payload — they depend on ``speculation`` and cache
    warmth, and the report must not)."""

    root: Path
    spec: SaturationSpec
    results: List[Dict[str, Any]]
    payload: Dict[str, Any] = field(default_factory=dict)
    rounds: int = 0
    probes_total: int = 0
    probes_executed: int = 0

    @property
    def failures(self) -> List[Tuple[str, str]]:
        """(design, error) for every design whose search failed."""
        return [
            (e["design"], e["error"] or "unknown")
            for e in self.results
            if e["status"] == "failed"
        ]


def _report_payload(
    spec: SaturationSpec, searches: List[_Search]
) -> Dict[str, Any]:
    return {
        **_RUN_DIR.identity(spec),
        "total": len(searches),
        "completed": sum(1 for s in searches if s.done),
        "designs": [s.entry() for s in searches],
    }


# ----------------------------------------------------------------------
# driver entry points
# ----------------------------------------------------------------------
def run_saturation(
    root: Union[str, Path],
    spec: Optional[SaturationSpec] = None,
    *,
    jobs: int = 1,
    speculation: int = 0,
    progress=None,
    retries: int = 2,
    retry_backoff: float = 0.5,
    job_timeout: Optional[float] = None,
    plugins=(),
    audit: Any = False,
    journal: bool = True,
    runner=None,
) -> SaturationRun:
    """Run (or resume) the saturation search living in ``root``.

    ``spec`` is required the first time and optional afterwards (it is
    reloaded from the manifest); passing a different spec for an existing
    directory is an error.  ``jobs`` and ``speculation`` are execution
    knobs: ``jobs`` sizes the process pool, ``speculation`` adds up to
    that many extra dyadic probes per bisection round to keep the pool
    full (``speculation=jobs-1`` is a sensible pairing).  Neither changes
    what the search finds.  ``runner`` substitutes the probe executor
    (tests inject synthetic measurements through it); it must accept the
    same keyword surface as :func:`repro.runner.run_specs`.

    Writes ``saturation.json`` incrementally after every round — a killed
    search leaves a valid partial report, and re-running the directory
    finishes it byte-identically.  Probe-job failures raise
    :class:`SaturationError`; per-design *search* failures (persistent
    non-monotone measurements) are recorded in the report instead, so one
    noisy design cannot discard the others' results.
    """
    root = Path(root)
    spec = _RUN_DIR.resolve(root, spec)
    execute = runner if runner is not None else run_specs
    paths = run_paths(root)
    cache = ResultCache(paths.cache)
    base = spec.base_config()
    # Probes run on the fastest bit-exact backend unless ``spec.sim``
    # names one (``sim={"backend": "object"}`` forces the reference walk).
    stamp = "backend" not in spec.sim
    searches = [_Search(spec, d) for d in spec.designs]
    rounds = probes_total = probes_executed = 0
    write_json(root / REPORT_NAME, _report_payload(spec, searches))
    while any(not s.done for s in searches):
        rounds += 1
        if rounds > _MAX_ROUNDS:
            raise SaturationError(
                f"saturation search exceeded {_MAX_ROUNDS} rounds without "
                f"converging; this is a driver bug"
            )
        batch: List[RunSpec] = []
        owners: List[Tuple[_Search, float]] = []
        for s in searches:
            for load in s.next_loads(speculation):
                cfg = base.with_(
                    design=s.design, offered_load=load, seed=s.seed()
                )
                if stamp:
                    cfg = cfg.with_(backend=cfg.fastest_backend())
                batch.append(
                    RunSpec(cfg, tag=f"{s.design}@{load:g}#g{s.generation}")
                )
                owners.append((s, load))
        if not batch:
            raise SaturationError(
                "saturation search made no progress: no design is done and "
                "no probes are wanted; this is a driver bug"
            )
        outcomes = execute(
            batch,
            jobs=jobs,
            cache=cache,
            progress=progress,
            plugins=plugins,
            retries=retries,
            retry_backoff=retry_backoff,
            job_timeout=job_timeout,
            audit=audit,
            journal=paths.journal if journal else None,
        )
        results = results_of(outcomes, "saturation probes", SaturationError)
        for (s, load), outcome, result in zip(owners, outcomes, results):
            s.measured[load] = result
            probes_total += 1
            if not outcome.cached:
                probes_executed += 1
        for s in searches:
            s.integrate()
        write_json(root / REPORT_NAME, _report_payload(spec, searches))
    payload = _report_payload(spec, searches)
    return SaturationRun(
        root=root,
        spec=spec,
        results=payload["designs"],
        payload=payload,
        rounds=rounds,
        probes_total=probes_total,
        probes_executed=probes_executed,
    )


def load_report(root: Union[str, Path]) -> Dict[str, Any]:
    """Read ``<root>/saturation.json`` (partial during a run, final after)."""
    return _RUN_DIR.read_json(Path(root) / REPORT_NAME, "saturation report", "designs")

