"""Decorator-based plugin registries for designs, routing functions,
traffic patterns and workload kinds.

The registries are the single source of truth for "what exists": config
validation (:class:`repro.sim.config.SimConfig`), the construction helpers
in :mod:`repro.designs`, the CLI's ``choices`` lists and the energy model
all query them instead of hard-coded tuples.  A new out-of-tree router
design or traffic pattern therefore needs exactly one file::

    from repro.registry import register_design, register_pattern
    from repro.core.dxbar import DXbarRouter

    @register_design("my_dxbar", routing="wf", label="My DXbar",
                     base="dxbar", supports_faults=True)
    class MyRouter(DXbarRouter):
        ...

after which ``SimConfig(design="my_dxbar")`` validates, ``run_simulation``
builds it, and ``python -m repro run --design my_dxbar`` works (set
``REPRO_PLUGINS=my_module`` so the CLI imports the file first).

Built-in entries live in :mod:`repro.designs`, :mod:`repro.routing` and
:mod:`repro.traffic.patterns`; they are imported lazily on the first
lookup so that importing this module never creates a cycle.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Dict, Iterator, Optional, Tuple


class RegistryError(ValueError):
    """Base class for registration/lookup failures."""


class UnknownEntryError(RegistryError, KeyError):
    """Lookup of a name that was never registered."""


class DuplicateEntryError(RegistryError):
    """Registration of a name that is already taken."""


# ----------------------------------------------------------------------
# built-in population (lazy, to avoid import cycles)
# ----------------------------------------------------------------------
_builtins_loaded = False


def _ensure_builtins() -> None:
    """Import the modules whose import side-effects register the paper's
    designs, routing functions and patterns.  Reentrancy-safe: the flag is
    set before importing so registrations performed mid-import are final.
    """
    global _builtins_loaded
    if _builtins_loaded:
        return
    _builtins_loaded = True
    from . import designs  # noqa: F401  (registers designs + routing)
    from .traffic import patterns  # noqa: F401  (registers patterns)


class Registry:
    """An ordered name -> entry mapping with decorator registration.

    ``kind`` is the human name used in error messages ("design",
    "pattern", ...).  Iteration order is registration order, which the
    built-in modules use to preserve the paper's plotting order.
    """

    def __init__(self, kind: str) -> None:
        self.kind = kind
        self._entries: Dict[str, Any] = {}

    # -- registration --------------------------------------------------
    def add(self, name: str, entry: Any, *, replace: bool = False) -> None:
        if not name or not isinstance(name, str):
            raise RegistryError(f"{self.kind} name must be a non-empty string")
        if not replace and name in self._entries:
            raise DuplicateEntryError(
                f"{self.kind} {name!r} is already registered; "
                f"pass replace=True to override"
            )
        self._entries[name] = entry

    def remove(self, name: str) -> None:
        self._entries.pop(name, None)

    # -- lookup --------------------------------------------------------
    def get(self, name: str) -> Any:
        _ensure_builtins()
        try:
            return self._entries[name]
        except KeyError:
            raise UnknownEntryError(
                f"unknown {self.kind} {name!r}; expected one of {self.names()}"
            ) from None

    def names(self) -> Tuple[str, ...]:
        _ensure_builtins()
        return tuple(self._entries)

    def __contains__(self, name: str) -> bool:
        _ensure_builtins()
        return name in self._entries

    def __iter__(self) -> Iterator[str]:
        return iter(self.names())

    def __len__(self) -> int:
        _ensure_builtins()
        return len(self._entries)

    # -- test support --------------------------------------------------
    @contextmanager
    def temporary(self):
        """Context manager that restores the registry on exit (tests
        register throwaway entries inside it)."""
        saved = dict(self._entries)
        try:
            yield self
        finally:
            self._entries.clear()
            self._entries.update(saved)


#: Router designs (entries are :class:`DesignSpec`).
DESIGNS = Registry("design")
#: Routing functions (entries are RoutingFunction subclasses).
ROUTING = Registry("routing function")
#: Traffic patterns (entries are TrafficPattern subclasses).
PATTERNS = Registry("pattern")
#: Workload factories for the runner (entries are callables
#: ``factory(spec_dict, config) -> Workload``).
WORKLOADS = Registry("workload kind")


# ----------------------------------------------------------------------
# design specs
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class DesignSpec:
    """Everything needed to build one named router design.

    ``base`` is the design family (``dxbar_wf`` -> ``dxbar``): it keys the
    Table III energy/area tables.
    ``energy`` optionally carries explicit
    :class:`~repro.energy.constants.EnergyConstants` for out-of-tree
    designs that have no Table III row.
    """

    name: str
    router_cls: type
    routing: str = "dor"
    label: Optional[str] = None
    base: Optional[str] = None
    supports_faults: bool = False
    supports_vector: bool = False
    #: Minimum injected flits per cycle for the whole network (the
    #: workload's ``flits_per_cycle()``: ``k**2 * offered_load`` for
    #: Bernoulli traffic, flits over issue span for a trace) below which
    #: the design's vector kernel is *slower* than the active object walk;
    #: ``backend="auto"`` resolves to ``object`` under it.  ``None`` means
    #: the kernel wins at any rate (or was never profiled).
    vector_min_work: Optional[float] = None
    #: The same crossover for trace replays (``Workload.is_trace``), whose
    #: traffic converges on a few memory-controller tiles and leaves more
    #: of the mesh idle than Bernoulli traffic of the same rate.  ``None``
    #: means ``vector_min_work`` holds for traces too.
    vector_min_trace_work: Optional[float] = None
    energy: Any = None
    metadata: Dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.label is None:
            object.__setattr__(self, "label", self.name)
        if self.base is None:
            object.__setattr__(self, "base", self.name)


def register_design(
    name: str,
    router_cls: Optional[type] = None,
    *,
    routing: str = "dor",
    label: Optional[str] = None,
    base: Optional[str] = None,
    supports_faults: bool = False,
    supports_vector: bool = False,
    vector_min_work: Optional[float] = None,
    vector_min_trace_work: Optional[float] = None,
    energy: Any = None,
    replace: bool = False,
    **metadata: Any,
) -> Any:
    """Register a router design, as a call or a class decorator.

    Call form (one class can serve several designs)::

        register_design("dxbar_dor", DXbarRouter, routing="dor", ...)

    Decorator form::

        @register_design("my_design", routing="wf")
        class MyRouter(BaseRouter): ...
    """

    def _register(cls: type) -> type:
        spec = DesignSpec(
            name=name,
            router_cls=cls,
            routing=routing,
            label=label,
            base=base,
            supports_faults=supports_faults,
            supports_vector=supports_vector,
            vector_min_work=vector_min_work,
            vector_min_trace_work=vector_min_trace_work,
            energy=energy,
            metadata=dict(metadata),
        )
        DESIGNS.add(name, spec, replace=replace)
        return cls

    if router_cls is not None:
        return _register(router_cls)
    return _register


def design_spec(name: str) -> DesignSpec:
    """The :class:`DesignSpec` registered under ``name``."""
    return DESIGNS.get(name)


def design_names() -> Tuple[str, ...]:
    """All registered design names, in registration order."""
    return DESIGNS.names()


def design_labels() -> Dict[str, str]:
    """Mapping of design name -> pretty label for every registered design."""
    return {n: DESIGNS.get(n).label for n in DESIGNS.names()}


# ----------------------------------------------------------------------
# routing functions
# ----------------------------------------------------------------------
def register_routing(
    name: str, routing_cls: Optional[type] = None, *, replace: bool = False
) -> Any:
    """Register a routing function class under ``name`` (call or decorator)."""

    def _register(cls: type) -> type:
        ROUTING.add(name, cls, replace=replace)
        return cls

    if routing_cls is not None:
        return _register(routing_cls)
    return _register


def routing_names() -> Tuple[str, ...]:
    return ROUTING.names()


# ----------------------------------------------------------------------
# traffic patterns
# ----------------------------------------------------------------------
def register_pattern(
    pattern_cls: Optional[type] = None,
    *,
    name: Optional[str] = None,
    replace: bool = False,
) -> Any:
    """Register a traffic pattern class (decorator; the class's ``name``
    attribute is the registry key unless ``name`` overrides it)."""

    def _register(cls: type) -> type:
        key = name if name is not None else getattr(cls, "name", None)
        if not key:
            raise RegistryError(
                "pattern classes must define a non-empty `name` attribute"
            )
        PATTERNS.add(key, cls, replace=replace)
        return cls

    if pattern_cls is not None:
        return _register(pattern_cls)
    return _register


def pattern_names() -> Tuple[str, ...]:
    return PATTERNS.names()


# ----------------------------------------------------------------------
# workload kinds (used by repro.runner for closed-loop jobs)
# ----------------------------------------------------------------------
def register_workload(
    kind: str, factory: Optional[Callable] = None, *, replace: bool = False
) -> Any:
    """Register a workload factory ``factory(spec_dict, config) -> Workload``."""

    def _register(fn: Callable) -> Callable:
        WORKLOADS.add(kind, fn, replace=replace)
        return fn

    if factory is not None:
        return _register(factory)
    return _register


def derive_design(name: str, new_name: str, **overrides: Any) -> DesignSpec:
    """Register ``new_name`` as a variant of an existing design (same
    router class unless overridden).  Returns the new spec."""
    spec = design_spec(name)
    if "label" not in overrides:
        overrides["label"] = new_name
    new = replace(spec, name=new_name, **overrides)
    DESIGNS.add(new_name, new)
    return new
