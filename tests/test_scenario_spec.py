"""Property tests: ``ScenarioSpec`` is declarative, deterministic, and
process-safe.

The parallel experiment matrix rests on three guarantees:

* a spec is plain picklable data (it must cross process boundaries);
* ``build()`` is a pure function of the spec — same spec, same world and
  byte-identical item stream, in the parent or in a spawned worker;
* two builds never share mutable state (a planner mutating one world
  cannot leak into another planner's comparison run).
"""

from __future__ import annotations

import multiprocessing
import pickle

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ConfigurationError
from repro.workloads.datasets import (SCENARIO_FAMILIES, all_datasets,
                                      make_mini, make_real_large,
                                      make_real_large_paper, make_real_norm,
                                      make_syn_a, make_syn_b,
                                      obstructed_floor, scenario_family)
from repro.workloads.scenario import (ItemStreamSpec, ScenarioSpec,
                                      workload_fingerprint)

ALL_SPECS = sorted(all_datasets(0.18).values(), key=lambda s: s.name)


def spec_strategy():
    """Small random specs over the registered stochastic generators."""
    poisson = st.builds(
        lambda n, racks, rate, seed: ItemStreamSpec.of(
            "poisson", n_items=n, n_racks=racks, rate=rate, seed=seed),
        st.integers(1, 60), st.integers(8, 16),
        st.floats(0.1, 2.0, allow_nan=False), st.integers(0, 2**31))
    surge = st.builds(
        lambda n, racks, seed: ItemStreamSpec.of(
            "surge", n_items=n, n_racks=racks, base_rate=0.2, peak_rate=1.0,
            ramp_fraction=0.25, seed=seed),
        st.integers(1, 60), st.integers(8, 16), st.integers(0, 2**31))
    return st.builds(
        lambda items, seed: ScenarioSpec(
            name="prop", width=18, height=14, n_racks=16, n_pickers=2,
            n_robots=2, items=items),
        st.one_of(poisson, surge), st.integers())


class TestDeterminism:
    @given(spec=spec_strategy())
    @settings(max_examples=40, deadline=None)
    def test_same_spec_same_stream(self, spec):
        assert spec.items.materialise() == spec.items.materialise()
        assert workload_fingerprint(spec) == workload_fingerprint(spec)

    @given(spec=spec_strategy())
    @settings(max_examples=20, deadline=None)
    def test_pickle_roundtrip_preserves_stream(self, spec):
        clone = pickle.loads(pickle.dumps(spec))
        assert clone == spec
        assert workload_fingerprint(clone) == workload_fingerprint(spec)

    @pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.name)
    def test_dataset_builds_are_reproducible(self, spec):
        __, items_a = spec.build()
        __, items_b = spec.build()
        assert items_a == items_b

    def test_obstructed_layouts_are_reproducible(self):
        spec = obstructed_floor(scale=0.2)[-1]
        assert (spec.layout().grid.blocked_cells
                == spec.layout().grid.blocked_cells)


class TestProcessSafety:
    @pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.name)
    def test_spawned_worker_sees_identical_stream(self, spec):
        # ``spawn`` (not fork) so the child re-imports everything from
        # scratch: nothing about the stream may depend on parent memory.
        ctx = multiprocessing.get_context("spawn")
        with ctx.Pool(1) as pool:
            child = pool.apply(workload_fingerprint, (spec,))
        assert child == workload_fingerprint(spec)

    def test_family_specs_are_picklable(self):
        for family in ("table2", "surge-sweep", "fleet-ladder",
                       "obstructed", "mini"):
            for spec in scenario_family(family, scale=0.2):
                assert pickle.loads(pickle.dumps(spec)) == spec


class TestScale:
    @pytest.mark.parametrize("scale", [0, -1, float("nan")])
    def test_makers_and_families_refuse_a_scale_that_sizes_no_world(
            self, scale):
        # -1 used to die in math.sqrt, 0 on "rate must be positive"
        makers = (make_syn_a, make_syn_b, make_real_norm, make_real_large,
                  make_real_large_paper)
        families = [lambda scale, name=name: scenario_family(name, scale)
                    for name in SCENARIO_FAMILIES]
        for make in makers + tuple(families):
            with pytest.raises(ConfigurationError, match="scale"):
                make(scale)


class TestIsolation:
    def test_builds_never_share_mutable_state(self):
        spec = make_mini(n_items=30)
        state_a, items_a = spec.build()
        state_b, items_b = spec.build()
        assert state_a is not state_b
        assert items_a is not items_b
        assert all(ra is not rb for ra, rb in zip(state_a.racks, state_b.racks))
        assert all(pa is not pb for pa, pb in zip(state_a.pickers, state_b.pickers))
        assert all(ta is not tb for ta, tb in zip(state_a.robots, state_b.robots))

    def test_mutating_one_build_leaves_the_other_untouched(self):
        spec = make_mini(n_items=30)
        state_a, items_a = spec.build()
        state_b, items_b = spec.build()
        state_a.deliver_item(items_a[0])
        state_a.robots[0].busy_ticks = 999
        items_a.clear()
        assert state_b.total_pending_items() == 0
        assert state_b.robots[0].busy_ticks == 0
        assert len(items_b) == 30

    def test_spec_itself_is_immutable(self):
        spec = make_mini(n_items=10)
        with pytest.raises(AttributeError):
            spec.n_robots = 99
        with pytest.raises(AttributeError):
            spec.items.generator = "surge"
