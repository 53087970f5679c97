"""Scenario specs: declarative, picklable (layout, fleet, workload) bundles.

A :class:`ScenarioSpec` is *plain data* — grid dimensions, entity counts
and a named arrival-process spec — so it can cross a process boundary (the
parallel experiment matrix ships specs to ``ProcessPoolExecutor`` workers)
and every materialisation is reproducible from the embedded seeds alone.
:meth:`ScenarioSpec.build` returns a fresh
:class:`~repro.warehouse.state.WarehouseState` plus the item stream every
time it is called, so each planner in a comparison starts from an
identical, untouched world and two builds never share mutable state.

Arrival processes are referenced by *name* into the registry in
:mod:`repro.workloads.arrivals` (``items_factory`` callables of the old
``Scenario`` class are gone — callables capture closures which neither
pickle nor diff).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, replace
from operator import attrgetter
from typing import Any, Dict, List, Optional, Tuple

from ..config import SEED, Domain, declare
from ..errors import ConfigurationError
from ..warehouse.entities import Item
from ..warehouse.layout import WarehouseLayout, build_layout, obstruct_layout
from ..warehouse.state import WarehouseState


def _freeze(value: Any) -> Any:
    """Recursively convert lists/dicts to tuples so params stay hashable."""
    if isinstance(value, (list, tuple)):
        return tuple(_freeze(v) for v in value)
    if isinstance(value, dict):
        return tuple(sorted((k, _freeze(v)) for k, v in value.items()))
    return value


@dataclass(frozen=True)
class ItemStreamSpec:
    """A named arrival process plus its parameters, as immutable data.

    Attributes
    ----------
    generator:
        Key into :data:`repro.workloads.arrivals.GENERATORS`
        (e.g. ``"poisson"``, ``"surge"``, ``"deterministic"``).
    params:
        Keyword arguments for the generator, stored as a sorted tuple of
        ``(name, value)`` pairs so the spec is hashable and picklable.
    """

    generator: str
    params: Tuple[Tuple[str, Any], ...] = ()

    @classmethod
    def of(cls, generator: str, **params: Any) -> "ItemStreamSpec":
        """Build a spec from keyword arguments (lists become tuples)."""
        return cls(generator=generator,
                   params=tuple(sorted((k, _freeze(v))
                                       for k, v in params.items())))

    def kwargs(self) -> Dict[str, Any]:
        """The generator keyword arguments as a fresh dict."""
        return dict(self.params)

    def materialise(self) -> List[Item]:
        """Run the named generator; identical output on every call."""
        from .arrivals import resolve_generator
        return resolve_generator(self.generator)(**self.kwargs())


@declare(n_pillars=Domain(int, 1), seed=SEED)
@dataclass(frozen=True)
class ObstructionSpec:
    """Structural obstacles scattered over the storage area.

    ``n_pillars`` cells are blocked, chosen deterministically from
    ``seed`` while preserving reachability of every rack home and picker
    (see :func:`repro.warehouse.layout.obstruct_layout`).
    """

    n_pillars: int
    seed: int = 0


#: Tag marking scenarios whose floors the paper's slow baselines (LEF,
#: ILP) cannot finish in reasonable time; the matrix skips them there.
TAG_SKIP_SLOW_PLANNERS = "skip-slow-planners"


@dataclass(frozen=True)
class ScenarioSpec:
    """A named, reproducible experiment input — pure data.

    Attributes
    ----------
    name:
        Dataset name as reported in tables (e.g. ``"Syn-A"``).
    width, height:
        Grid dimensions.
    n_racks, n_pickers, n_robots:
        Entity counts.
    items:
        The arrival-process spec; must be deterministic (seeded) so
        planners compare on identical inputs.
    obstructions:
        Optional pillar scatter for obstructed-floor scenarios.
    description:
        One-line provenance note for reports.
    tags:
        Free-form markers the harness keys behaviour on (e.g.
        :data:`TAG_SKIP_SLOW_PLANNERS`).
    """

    name: str
    width: int
    height: int
    n_racks: int
    n_pickers: int
    n_robots: int
    items: ItemStreamSpec
    obstructions: Optional[ObstructionSpec] = None
    description: str = ""
    tags: Tuple[str, ...] = ()

    def layout(self) -> WarehouseLayout:
        """Build the floor plan for this scenario."""
        layout = build_layout(self.width, self.height,
                              n_racks=self.n_racks, n_pickers=self.n_pickers)
        if self.obstructions is not None:
            layout = obstruct_layout(layout,
                                     n_pillars=self.obstructions.n_pillars,
                                     seed=self.obstructions.seed)
        return layout

    def build(self) -> Tuple[WarehouseState, List[Item]]:
        """Materialise a fresh world and its workload."""
        state = WarehouseState.from_layout(self.layout(), self.n_robots)
        items = self.items.materialise()
        if not items:
            raise ConfigurationError(
                f"scenario {self.name} produced no items")
        rack_ids = set(map(attrgetter("rack_id"), items))
        for rack_id in (min(rack_ids), max(rack_ids)):
            if not 0 <= rack_id < self.n_racks:
                raise ConfigurationError(
                    f"scenario {self.name}: item references rack {rack_id} "
                    f"but only racks 0..{self.n_racks - 1} exist")
        return state, items

    def with_(self, **changes: Any) -> "ScenarioSpec":
        """Return a copy with ``changes`` applied (sweep convenience)."""
        return replace(self, **changes)

    @property
    def n_items(self) -> int:
        """Workload size (materialises the stream once)."""
        return len(self.items.materialise())

    def spec_dict(self) -> Dict[str, Any]:
        """The whole spec as a JSON-serialisable dict (result provenance)."""
        return {
            "name": self.name,
            "width": self.width, "height": self.height,
            "n_racks": self.n_racks, "n_pickers": self.n_pickers,
            "n_robots": self.n_robots,
            "items": {"generator": self.items.generator,
                      "params": self.items.kwargs()},
            "obstructions": (None if self.obstructions is None
                             else {"n_pillars": self.obstructions.n_pillars,
                                   "seed": self.obstructions.seed}),
            "description": self.description,
            "tags": list(self.tags),
        }


def workload_fingerprint(spec: ScenarioSpec) -> str:
    """SHA-256 over the materialised item stream.

    A module-level function (not a method) so it can be shipped to a
    ``spawn``-started worker; the process-safety tests compare parent and
    child fingerprints byte for byte.
    """
    items = spec.items.materialise()
    payload = json.dumps(
        [(i.item_id, i.rack_id, i.arrival, i.processing_time)
         for i in items], separators=(",", ":"))
    return hashlib.sha256(payload.encode("ascii")).hexdigest()
