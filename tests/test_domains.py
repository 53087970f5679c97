"""Every declared parameter domain, probed from both sides.

Each public parameter declares its domain once (``repro.config.declare``)
and one check refuses a value outside it.  The property test walks every
declaration: each probe the domain refuses must raise
``ConfigurationError`` at construction (or at a stream's first ``take``),
and each probe it admits must build.
"""

import math
from math import inf, nan

import pytest
from hypothesis import given, settings, strategies as st

from repro.config import (DECLARED, Domain, PlannerConfig, QLearningConfig,
                          SimulationConfig)
from repro.errors import ConfigurationError
from repro.experiments.harness import run_matrix
from repro.experiments.soak import SoakSpec
from repro.pathfinding.cache import ShortestPathCache
from repro.sim.metrics import MetricsRecorder, SteadyStateTracker
from repro.warehouse.knn import StaticRackKNN
from repro.workloads.arrivals import (RATE, CycleStream, PoissonStream,
                                      deterministic_arrivals,
                                      poisson_arrivals, surge_arrivals)
from repro.workloads.datasets import make_syn_a, scenario_family
from repro.workloads.scenario import ObstructionSpec


def taken(stream_type):
    """A stream factory that also takes the stream's first items."""
    return lambda **kwargs: stream_type(**kwargs).take(3)


NARROW_RANGE = dict(processing_low=1, processing_high=3)

#: ``owner -> (call, in-domain keyword arguments)``: one entry per
#: declaration.  The arguments let every boundary of every other
#: parameter build (a processing range from 1, a one-tick window).
CALLS = {
    "QLearningConfig": (QLearningConfig, {}),
    "PlannerConfig": (PlannerConfig, {}),
    "SimulationConfig": (SimulationConfig, {}),
    "poisson_arrivals": (poisson_arrivals, dict(
        n_items=3, n_racks=5, rate=0.5, seed=1, **NARROW_RANGE)),
    "surge_arrivals": (surge_arrivals, dict(
        n_items=3, n_racks=5, base_rate=0.5, peak_rate=1.0,
        ramp_fraction=0.25, seed=1, **NARROW_RANGE)),
    "deterministic_arrivals": (deterministic_arrivals,
                               dict(schedule=[(0, 1)])),
    "ItemStream.take": (lambda **kwargs: PoissonStream(5, 0.5, 1).take(
        **kwargs), dict(n=3)),
    "PoissonStream": (taken(PoissonStream), dict(
        n_racks=5, rate=0.5, seed=1, **NARROW_RANGE)),
    "CycleStream": (taken(CycleStream), dict(
        n_racks=5, rates=[0.5], period=1, seed=1, **NARROW_RANGE)),
    "SoakSpec": (SoakSpec, dict(duration=1, window_ticks=1)),
    "ObstructionSpec": (ObstructionSpec, dict(n_pillars=3)),
    "StaticRackKNN": (lambda **kwargs: StaticRackKNN(
        [(0, 0), (2, 1)], 4, 3, **kwargs), dict(k=1)),
    "run_matrix": (lambda **kwargs: run_matrix([], **kwargs),
                   dict(workers=0)),
    "datasets": (lambda scale: (make_syn_a(scale),
                                scenario_family("mini", scale)),
                 dict(scale=1.0)),
    "ShortestPathCache": (ShortestPathCache, dict(threshold=0)),
    "MetricsRecorder": (MetricsRecorder, dict(total_items=1)),
    "SteadyStateTracker": (SteadyStateTracker, dict(window_ticks=1)),
}


def fitted(owner, name, kwargs):
    """Keep the one cross-parameter rule a probe could break where it
    can be kept: the surge peak stays above its base rate."""
    value = kwargs[name]
    if (owner == "surge_arrivals" and name in ("base_rate", "peak_rate")
            and RATE.admits(value)):
        if name == "base_rate":
            kwargs["peak_rate"] = value * 2
        else:
            kwargs["base_rate"] = max(value / 2, RATE.low)
    return kwargs


def probes(domain: Domain):
    """0, −1, NaN, ±inf and 2.5, and each finite bound with the values a
    hair either side of it."""
    values = [0, -1, nan, inf, -inf, 2.5]
    for bound in (domain.low, domain.high):
        if math.isfinite(bound):
            values += [bound, math.nextafter(bound, -inf),
                       math.nextafter(bound, inf)]
    if domain.each:
        return [[]] + [[value] for value in values]
    return values


DECLARATIONS = sorted((owner, name) for owner, domains in DECLARED.items()
                      for name in domains)


def test_every_declaration_has_a_probe_call():
    assert set(CALLS) == set(DECLARED)


@pytest.mark.parametrize("owner, name", DECLARATIONS)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_every_probe_is_refused_or_builds(owner, name, data):
    call, kwargs = CALLS[owner]
    domain = DECLARED[owner][name]
    value = data.draw(st.sampled_from(probes(domain)), label=name)
    kwargs = fitted(owner, name, {**kwargs, name: value})
    if not domain.admits(value):
        with pytest.raises(ConfigurationError,
                           match=f"{owner}.{name} must be"):
            call(**kwargs)
    elif owner == "surge_arrivals" and kwargs["peak_rate"] <= kwargs[
            "base_rate"]:  # a peak at the floor: no base rate lies below
        with pytest.raises(ConfigurationError, match="peak_rate must exceed"):
            call(**kwargs)
    else:
        call(**kwargs)


CYCLE = dict(n_racks=5, rates=[1.0], period=10, seed=1)
POISSON = dict(n_items=5, n_racks=5, rate=1.0, seed=1)
SURGE = dict(n_items=5, n_racks=5, base_rate=0.5, peak_rate=1.0,
             ramp_fraction=0.25, seed=1)

#: ``(call, base arguments, parameter, value)``: each of these was
#: accepted without an error, or refused with a bare exception, before
#: its domain was declared.
FORMER_HOLES = [
    (QLearningConfig, {}, "state_bin_width", 1.5),
    (QLearningConfig, {}, "state_bin_width", inf),
    (QLearningConfig, {}, "deferral_weight", inf),
    (PlannerConfig, {}, "knn_k", 2.5),
    (PlannerConfig, {}, "knn_k", inf),
    (PlannerConfig, {}, "max_search_expansions", inf),
    (PlannerConfig, {}, "reservation_horizon", 2.5),
    (SimulationConfig, {}, "max_ticks", inf),
    (SimulationConfig, {}, "metrics_checkpoints", 2.5),
    (SoakSpec, {}, "flat_factor", inf),
    (SoakSpec, {}, "window_ticks", 1.5),
    (SoakSpec, {}, "duration", 20000.5),
    (ObstructionSpec, {}, "n_pillars", 2.5),
    (taken(CycleStream), CYCLE, "period", inf),
    (taken(CycleStream), CYCLE, "zipf_s", nan),
    (taken(CycleStream), CYCLE, "zipf_s", inf),
    (poisson_arrivals, POISSON, "n_items", 2.5),
    (poisson_arrivals, POISSON, "n_racks", 2.5),
    (CALLS["ItemStream.take"][0], {}, "n", 2.5),
    (make_syn_a, {}, "scale", inf),
    (lambda scale: scenario_family("table2", scale), {}, "scale", inf),
    (ShortestPathCache, {}, "threshold", -1),
    (MetricsRecorder, {}, "total_items", 0),
    (MetricsRecorder, dict(total_items=5), "n_checkpoints", 0),
    (SteadyStateTracker, {}, "window_ticks", 0),
] + [
    (call, base, "processing_low", low)
    for call, base in ((poisson_arrivals, POISSON), (surge_arrivals, SURGE),
                       (taken(PoissonStream),
                        dict(n_racks=5, rate=1.0, seed=1)),
                       (taken(CycleStream), CYCLE))
    for low in (0, -5)
]


@pytest.mark.parametrize("call, base, name, value", FORMER_HOLES)
def test_a_former_hole_is_refused_naming_its_parameter(call, base, name,
                                                       value):
    with pytest.raises(ConfigurationError, match=rf"\.{name} must be"):
        call(**{**base, name: value})


@pytest.mark.parametrize("schedule", [
    [(nan, 1), (2.5, 0)], [(2.5, 0)], [(inf, 0)], [(-1, 0)], [(0, -1)],
    [(3, 1.5)], [(0, 1), (4, nan)],
    # Malformed entries, once a bare ValueError or TypeError.
    [(1,)], [(1, 2, 3)], [5], None,
], ids=repr)
def test_a_schedule_out_of_its_domain_is_refused(schedule):
    with pytest.raises(ConfigurationError,
                       match=r"deterministic_arrivals\.schedule"):
        deterministic_arrivals(schedule)


@pytest.mark.parametrize("call", [
    lambda: surge_arrivals(5, 5000, 0.5, 1.0, 0.25, 1, zipf_s=100.0),
    lambda: CycleStream(5, [1.0], 10, 1, zipf_s=-500.0).take(3),
    lambda: CycleStream(5000, [1.0], 10, 1, zipf_s=-85.0).take(3),
], ids=["surge-overflow", "cycle-underflow", "cycle-infinite-weight"])
def test_a_zipf_exponent_past_the_floats_is_refused(call):
    # A rule over n_racks and zipf_s together: each weight 1 / k ** s and
    # their sum must be finite floats.
    with pytest.raises(ConfigurationError, match="zipf_s"):
        call()
