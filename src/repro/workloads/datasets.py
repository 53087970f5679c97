"""The scenario registry: Table II datasets plus the scaling families.

Paper scale (Table II) versus the default scale here:

    ============  ===========  ========  ========  =======  ==============
    dataset       paper grid   items     robots    racks    ours (default)
    ============  ===========  ========  ========  =======  ==============
    Syn-A         233 × 104    10⁵       500       5 000    40×26, 1 200 items, 10 robots, 72 racks
    Syn-B         426 × 146    5 × 10⁵   1 000     1 300    56×30, 2 000 items, 14 robots, 48 racks
    Real-Norm     240 × 206    5.6 × 10⁵ 1 000     10 000   48×32, 1 600 items, 12 robots, 120 racks
    Real-Large    541 × 302    10⁶       3 000     34 000   64×40, 2 600 items, 20 robots, 200 racks
    ============  ===========  ========  ========  =======  ==============

Every generator takes a ``scale`` multiplier (linear dimensions and counts
grow together), so paper-scale instances remain constructible; the default
``scale=1.0`` drains in seconds per planner.  The two "real" datasets
substitute the proprietary Geekplus traces with bursty surge arrivals and
Zipf rack popularity (:mod:`repro.workloads.arrivals`): what the
experiments need from them is high-variance throughput on a larger floor,
which the surge preserves.

The per-dataset proportions mirror the paper: Syn-B has *fewer racks but
far more items* than Syn-A (high per-rack throughput — batching country),
while the real datasets have *many racks* (transport-heavy tails).

Beyond the four paper datasets, :data:`SCENARIO_FAMILIES` registers the
sweep families the experiment matrix fans out over:

* ``surge-sweep`` — the Real-Norm floor under increasingly violent
  arrival surges (peak-rate ladder);
* ``fleet-ladder`` — fleets from 10 to 200 robots on the scaled-down
  Real-Large floor, then 500 to 3 000 on the paper-true 541×302 floor
  (congestion scaling; see :func:`fleet_ladder` for the floor switch);
* ``real-large`` — the single paper-true Real-Large scenario
  (:func:`make_real_large_paper`), the paper's excluded regime;
* ``obstructed`` — the Syn-A floor with growing pillar counts
  (detour-heavy transport).

A family is one registry entry: ``name -> callable(scale) ->
[ScenarioSpec, ...]``.  Adding a workload means registering one function
that returns specs — no harness changes.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, List, Sequence

from ..config import POSITIVE, declare
from ..errors import ConfigurationError
from .scenario import (TAG_SKIP_SLOW_PLANNERS, ItemStreamSpec,
                       ObstructionSpec, ScenarioSpec)

#: Seeds fixed per dataset so that all planners (and all reruns) see the
#: identical workload.
_SEEDS = {"Syn-A": 101, "Syn-B": 202, "Real-Norm": 303, "Real-Large": 404,
          "Surge": 505, "Fleet": 606, "Pillars": 707,
          "Real-Large-Paper": 808}


@declare("datasets", scale=POSITIVE)  # every maker sizes its racks first
def _scaled(value: int, scale: float, minimum: int = 1) -> int:
    return max(minimum, int(round(value * scale)))


def make_syn_a(scale: float = 1.0) -> ScenarioSpec:
    """Syn-A: moderate Poisson throughput on the smaller synthetic floor."""
    n_racks = _scaled(72, scale)
    return ScenarioSpec(
        name="Syn-A",
        width=_scaled(40, math.sqrt(scale), minimum=16),
        height=_scaled(26, math.sqrt(scale), minimum=12),
        n_racks=n_racks,
        n_pickers=_scaled(12, scale),
        n_robots=_scaled(10, scale),
        items=ItemStreamSpec.of(
            "poisson", n_items=_scaled(1200, scale), n_racks=n_racks,
            rate=0.5 * scale, seed=_SEEDS["Syn-A"]),
        description="synthetic, homogeneous Poisson arrivals",
    )


def make_syn_b(scale: float = 1.0) -> ScenarioSpec:
    """Syn-B: high per-rack throughput (few racks, many items)."""
    n_racks = _scaled(48, scale)
    return ScenarioSpec(
        name="Syn-B",
        width=_scaled(56, math.sqrt(scale), minimum=20),
        height=_scaled(30, math.sqrt(scale), minimum=14),
        n_racks=n_racks,
        n_pickers=_scaled(16, scale),
        n_robots=_scaled(14, scale),
        items=ItemStreamSpec.of(
            "poisson", n_items=_scaled(2000, scale), n_racks=n_racks,
            rate=0.8 * scale, seed=_SEEDS["Syn-B"]),
        description="synthetic, dense Poisson arrivals on few racks",
    )


def make_real_norm(scale: float = 1.0) -> ScenarioSpec:
    """Real-Norm: bursty surge arrivals standing in for the Geekplus trace."""
    n_racks = _scaled(120, scale)
    return ScenarioSpec(
        name="Real-Norm",
        width=_scaled(48, math.sqrt(scale), minimum=20),
        height=_scaled(32, math.sqrt(scale), minimum=14),
        n_racks=n_racks,
        n_pickers=_scaled(12, scale),
        n_robots=_scaled(12, scale),
        items=ItemStreamSpec.of(
            "surge", n_items=_scaled(1600, scale), n_racks=n_racks,
            base_rate=0.3 * scale, peak_rate=1.2 * scale,
            ramp_fraction=0.25, seed=_SEEDS["Real-Norm"]),
        description="surge trace substitute (ramp-peak-tail, Zipf racks)",
    )


def make_real_large(scale: float = 1.0) -> ScenarioSpec:
    """Real-Large: the scalability dataset (largest floor and workload)."""
    n_racks = _scaled(200, scale)
    return ScenarioSpec(
        name="Real-Large",
        width=_scaled(64, math.sqrt(scale), minimum=24),
        height=_scaled(40, math.sqrt(scale), minimum=16),
        n_racks=n_racks,
        n_pickers=_scaled(16, scale),
        n_robots=_scaled(20, scale),
        items=ItemStreamSpec.of(
            "surge", n_items=_scaled(2600, scale), n_racks=n_racks,
            base_rate=0.4 * scale, peak_rate=1.6 * scale,
            ramp_fraction=0.25, seed=_SEEDS["Real-Large"]),
        description="large surge trace substitute",
    )


def make_real_large_paper(scale: float = 1.0) -> ScenarioSpec:
    """Real-Large at the paper's **true** floor dimensions (541 × 302).

    This is the regime Table II lists and Sec. VII excludes as "too slow
    to execute" for the baseline planners — the whole reason the
    scalability machinery (the tiled ST graph, the wait-following
    rescue, the paper-scale gate in
    :class:`~repro.planners.base.Planner`) exists.  At ``scale=1.0`` the
    floor is exactly the paper's 541 × 302 with a 3 000-robot fleet;
    rack, picker and item counts are *documented scale-downs* (4 000
    racks vs. the paper's 34 000, 18 000 surge items vs. 10⁶) so a
    single-process pure-python run drains in minutes rather than days —
    the floor size and fleet, which drive every per-leg and per-structure
    cost, are the paper-true parts.  Tagged
    :data:`~repro.workloads.scenario.TAG_SKIP_SLOW_PLANNERS`: LEF/ILP
    keep the paper's exclusion here.
    """
    n_racks = _scaled(4000, scale)
    return ScenarioSpec(
        name="Real-Large-Paper",
        width=_scaled(541, math.sqrt(scale), minimum=64),
        height=_scaled(302, math.sqrt(scale), minimum=40),
        n_racks=n_racks,
        n_pickers=_scaled(120, scale),
        n_robots=_scaled(3000, scale),
        items=ItemStreamSpec.of(
            "surge", n_items=_scaled(18000, scale), n_racks=n_racks,
            base_rate=2.8 * scale, peak_rate=11.2 * scale,
            ramp_fraction=0.25, seed=_SEEDS["Real-Large-Paper"]),
        description="paper-true 541x302 floor, 3000 robots; racks/items "
                    "scaled down ~8.5x/~55x (documented) for tractability",
        tags=(TAG_SKIP_SLOW_PLANNERS,),
    )


def make_mini(seed: int = 1, n_items: int = 60) -> ScenarioSpec:
    """A seconds-fast scenario for tests and micro-benchmarks."""
    n_racks = 12
    return ScenarioSpec(
        name="Mini",
        width=18, height=14, n_racks=n_racks, n_pickers=3, n_robots=3,
        items=ItemStreamSpec.of(
            "poisson", n_items=n_items, n_racks=n_racks, rate=0.4,
            seed=seed, processing_low=5, processing_high=12),
        description="tiny smoke-test scenario",
    )


def all_datasets(scale: float = 1.0) -> Dict[str, ScenarioSpec]:
    """The four Table II datasets, in the paper's column order."""
    return {
        "Syn-A": make_syn_a(scale),
        "Syn-B": make_syn_b(scale),
        "Real-Norm": make_real_norm(scale),
        "Real-Large": make_real_large(scale),
    }


# -- sweep families beyond the paper ----------------------------------------

#: Peak-rate multipliers of the surge sweep (1.2·scale is Real-Norm's peak).
SURGE_PEAKS = (0.6, 1.2, 2.4, 4.8)

#: Fleet sizes of the robot ladder (the paper runs 500–3 000 at full scale).
FLEET_SIZES = (10, 25, 50, 100, 200)

#: The ladder's paper-floor rungs: the fleet sizes the paper actually
#: evaluates on Real-Large, run on the true 541×302 floor of
#: :func:`make_real_large_paper`.
FLEET_SIZES_LARGE = (500, 1000, 3000)

#: Pillar counts of the obstructed-floor ladder.
PILLAR_COUNTS = (8, 24, 48)


def surge_sweep(scale: float = 1.0,
                peaks: Sequence[float] = SURGE_PEAKS) -> List[ScenarioSpec]:
    """Bursty-arrival intensity ladder on the Real-Norm floor.

    Each step keeps the floor, fleet and item budget fixed and multiplies
    the surge's peak arrival rate, so the matrix isolates how each planner
    degrades as the midnight-carnival spike sharpens.
    """
    base = make_real_norm(scale)
    specs = []
    for peak in peaks:
        items = ItemStreamSpec.of(
            "surge", n_items=base.items.kwargs()["n_items"],
            n_racks=base.n_racks,
            base_rate=0.3 * scale, peak_rate=max(1.2 * peak * scale,
                                                 0.31 * scale),
            ramp_fraction=0.25, seed=_SEEDS["Surge"])
        specs.append(base.with_(
            name=f"Surge-x{peak:g}", items=items,
            description=f"Real-Norm floor, surge peak x{peak:g}"))
    return specs


def fleet_ladder(scale: float = 1.0,
                 fleets: Sequence[int] = FLEET_SIZES,
                 large_fleets: Sequence[int] = FLEET_SIZES_LARGE
                 ) -> List[ScenarioSpec]:
    """Robot-count ladder (10 → 3 000 at full scale), in two floor regimes.

    The small rungs (``fleets``, 10 → 200) run on the scaled-down
    Real-Large floor exactly as they always have — their specs, seeds and
    results are byte-identical to the pre-ladder-extension registry.  The
    large rungs (``large_fleets``, 500 → 3 000) are the fleet sizes the
    paper actually evaluates, and they only make sense on the paper-true
    541×302 floor of :func:`make_real_large_paper`: 500 robots on the
    64×40 scaled floor would exceed its rack count, and congestion at
    those fleet sizes is precisely the paper's excluded regime.  The
    ladder therefore *switches floors* between rung 200 and rung 500 —
    a deliberate, documented discontinuity (per-rung metrics are
    comparable within a regime, not across the switch).

    Large rungs carry a reduced 6 000-item surge stream (vs. the full
    Real-Large-Paper 18 000): the ladder measures congestion scaling, not
    workload endurance, and 3 000 robots drain 6 000 items while the
    fleet is still saturated.  They keep
    :data:`TAG_SKIP_SLOW_PLANNERS` (inherited from the paper-floor
    spec): LEF/ILP retain the paper's exclusion there, while the small
    rungs continue to run all five planners.

    Robot counts scale with ``scale`` but never collapse below 1; the rack
    count bounds the fleet (robots park beneath racks), so oversized rungs
    are rejected rather than silently clamped.
    """
    base = make_real_large(scale)
    specs = []
    for fleet in fleets:
        n_robots = _scaled(fleet, scale)
        if n_robots > base.n_racks:
            raise ConfigurationError(
                f"fleet rung {fleet}: {n_robots} robots exceed "
                f"{base.n_racks} racks at scale {scale}")
        specs.append(base.with_(
            name=f"Fleet-{fleet}", n_robots=n_robots,
            description=f"Real-Large floor, {n_robots} robots"))
    paper = make_real_large_paper(scale)
    large_items = ItemStreamSpec.of(
        "surge", n_items=_scaled(6000, scale), n_racks=paper.n_racks,
        base_rate=2.8 * scale, peak_rate=11.2 * scale,
        ramp_fraction=0.25, seed=_SEEDS["Fleet"])
    for fleet in large_fleets:
        n_robots = _scaled(fleet, scale)
        if n_robots > paper.n_racks:
            raise ConfigurationError(
                f"fleet rung {fleet}: {n_robots} robots exceed "
                f"{paper.n_racks} racks at scale {scale}")
        specs.append(paper.with_(
            name=f"Fleet-{fleet}", n_robots=n_robots, items=large_items,
            description=f"paper-true Real-Large floor, {n_robots} robots"))
    return specs


def obstructed_floor(scale: float = 1.0,
                     pillar_counts: Sequence[int] = PILLAR_COUNTS
                     ) -> List[ScenarioSpec]:
    """Pillar-count ladder on the Syn-A floor (detour-heavy transport)."""
    base = make_syn_a(scale)
    specs = []
    for count in pillar_counts:
        n_pillars = _scaled(count, scale)
        specs.append(base.with_(
            name=f"Pillars-{count}",
            obstructions=ObstructionSpec(n_pillars=n_pillars,
                                         seed=_SEEDS["Pillars"]),
            description=f"Syn-A floor with {n_pillars} pillars"))
    return specs


#: Registered scenario families: ``name -> callable(scale) -> [spec, ...]``.
SCENARIO_FAMILIES: Dict[str, Callable[[float], List[ScenarioSpec]]] = {
    "table2": lambda scale: list(all_datasets(scale).values()),
    "surge-sweep": surge_sweep,
    "fleet-ladder": fleet_ladder,
    "real-large": lambda scale: [make_real_large_paper(scale)],
    "obstructed": obstructed_floor,
    "mini": lambda scale: [make_mini(n_items=max(20, int(60 * scale)))],
}


def scenario_family(name: str, scale: float = 1.0) -> List[ScenarioSpec]:
    """Materialise a registered scenario family at ``scale``."""
    try:
        family = SCENARIO_FAMILIES[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown scenario family {name!r}; "
            f"choose from {sorted(SCENARIO_FAMILIES)}") from None
    _scaled(1, scale)  # refuses a scale that sizes no world, mini too
    return family(scale)
