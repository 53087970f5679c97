"""Unit tests for the arrival processes and dataset generators."""

import bisect
import copy
import pickle
import random
from typing import List

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.warehouse.entities import Item
from repro.workloads.arrivals import (PROCESSING_TIME_RANGE, CycleStream,
                                      PoissonStream, deterministic_arrivals,
                                      poisson_arrivals, register_stream,
                                      resolve_stream, surge_arrivals,
                                      uniform_processing_time)
from repro.workloads.datasets import (all_datasets, make_mini,
                                      make_real_large, make_real_norm,
                                      make_syn_a, make_syn_b)


class TestPoissonArrivals:
    def test_count_and_fields(self):
        items = poisson_arrivals(n_items=200, n_racks=10, rate=0.5, seed=1)
        assert len(items) == 200
        assert all(0 <= item.rack_id < 10 for item in items)
        low, high = PROCESSING_TIME_RANGE
        assert all(low <= item.processing_time <= high for item in items)

    def test_arrivals_non_decreasing(self):
        items = poisson_arrivals(n_items=200, n_racks=10, rate=0.5, seed=1)
        arrivals = [item.arrival for item in items]
        assert arrivals == sorted(arrivals)

    def test_deterministic_per_seed(self):
        a = poisson_arrivals(100, 5, 0.5, seed=7)
        b = poisson_arrivals(100, 5, 0.5, seed=7)
        assert a == b
        c = poisson_arrivals(100, 5, 0.5, seed=8)
        assert a != c

    def test_rate_controls_span(self):
        slow = poisson_arrivals(500, 5, rate=0.2, seed=1)
        fast = poisson_arrivals(500, 5, rate=2.0, seed=1)
        assert fast[-1].arrival < slow[-1].arrival

    @pytest.mark.parametrize("kwargs", [
        dict(n_items=0, n_racks=5, rate=0.5, seed=1),
        dict(n_items=5, n_racks=0, rate=0.5, seed=1),
        dict(n_items=5, n_racks=5, rate=0.0, seed=1),
    ])
    def test_rejects_bad_arguments(self, kwargs):
        with pytest.raises(ConfigurationError):
            poisson_arrivals(**kwargs)


class TestSurgeArrivals:
    def test_count(self):
        items = surge_arrivals(300, 20, base_rate=0.2, peak_rate=1.5,
                               ramp_fraction=0.25, seed=2)
        assert len(items) == 300

    def test_peak_is_denser_than_tails(self):
        items = surge_arrivals(900, 20, base_rate=0.2, peak_rate=2.0,
                               ramp_fraction=0.25, seed=2)
        warm = items[224].arrival - items[0].arrival
        peak = items[674].arrival - items[225].arrival
        # Twice the items in the peak window, far less time per item.
        assert peak / 450 < warm / 225

    def test_zipf_concentrates_load(self):
        items = surge_arrivals(2000, 50, base_rate=0.5, peak_rate=2.0,
                               ramp_fraction=0.25, seed=3)
        counts = {}
        for item in items:
            counts[item.rack_id] = counts.get(item.rack_id, 0) + 1
        top = max(counts.values())
        assert top > 2000 / 50  # hottest rack above uniform share

    def test_rejects_bad_ramp(self):
        with pytest.raises(ConfigurationError):
            surge_arrivals(10, 5, 0.5, 1.0, ramp_fraction=0.6, seed=1)

    def test_rejects_peak_below_base(self):
        with pytest.raises(ConfigurationError):
            surge_arrivals(10, 5, 1.0, 0.5, ramp_fraction=0.25, seed=1)

    def test_rejects_no_racks(self):
        with pytest.raises(ConfigurationError, match="n_racks"):
            surge_arrivals(10, 0, 0.5, 1.0, ramp_fraction=0.25, seed=1)

    def test_rejects_zero_base_rate(self):
        # A negative rate is refused too (TestStreamsMatchReferenceBodies).
        with pytest.raises(ConfigurationError, match="base_rate"):
            surge_arrivals(10, 5, 0.0, 1.0, ramp_fraction=0.25, seed=1)

    @pytest.mark.parametrize("zipf_s", [float("nan"), float("inf"),
                                        float("-inf")])
    def test_rejects_non_finite_zipf_exponent(self, zipf_s):
        # NaN weights, or all weight on one rank, would put every item on
        # one rack.
        with pytest.raises(ConfigurationError, match="zipf_s"):
            surge_arrivals(200, 5, 0.5, 1.0, 0.25, 1, zipf_s=zipf_s)

    def test_rejects_negative_item_count(self):
        with pytest.raises(ConfigurationError, match="n_items"):
            surge_arrivals(-5, 5, 0.5, 1.0, 0.25, 1)


class TestDeterministicArrivals:
    def test_schedule_respected(self):
        items = deterministic_arrivals([(5, 2), (9, 0)], processing_time=7)
        assert items[0].arrival == 5 and items[0].rack_id == 2
        assert items[1].processing_time == 7
        assert [i.item_id for i in items] == [0, 1]


class TestDatasets:
    @pytest.mark.parametrize("factory", [make_syn_a, make_syn_b,
                                         make_real_norm, make_real_large,
                                         make_mini])
    def test_scenarios_build(self, factory):
        scenario = factory() if factory is not make_mini else factory(n_items=20)
        state, items = scenario.build()
        assert len(state.racks) == scenario.n_racks
        assert len(state.robots) == scenario.n_robots
        assert items

    def test_all_datasets_has_paper_names(self):
        names = list(all_datasets())
        assert names == ["Syn-A", "Syn-B", "Real-Norm", "Real-Large"]

    def test_scale_shrinks_items(self):
        full = make_syn_a(1.0)
        half = make_syn_a(0.5)
        assert half.n_items < full.n_items

    def test_workload_identical_across_builds(self):
        scenario = make_syn_a(0.2)
        _, items_a = scenario.build()
        _, items_b = scenario.build()
        assert items_a == items_b

    def test_syn_b_denser_than_syn_a(self):
        # The paper's Syn-B: more items on fewer racks.
        a, b = make_syn_a(), make_syn_b()
        assert b.n_items / b.n_racks > a.n_items / a.n_racks


class TestGeneratorRegistry:
    def test_named_generators_resolve(self):
        from repro.workloads.arrivals import resolve_generator
        assert resolve_generator("poisson") is poisson_arrivals
        assert resolve_generator("surge") is surge_arrivals

    def test_unknown_generator_rejected(self):
        from repro.workloads.arrivals import resolve_generator
        with pytest.raises(ConfigurationError):
            resolve_generator("lognormal")

    def test_reregistration_rejected(self):
        from repro.workloads.arrivals import register_generator
        with pytest.raises(ConfigurationError):
            register_generator("poisson", poisson_arrivals)


class TestScenarioValidation:
    def test_rejects_item_referencing_missing_rack(self):
        from repro.workloads.scenario import ItemStreamSpec, ScenarioSpec
        scenario = ScenarioSpec(
            name="bad", width=16, height=12, n_racks=2, n_pickers=1,
            n_robots=1,
            items=ItemStreamSpec.of("deterministic", schedule=[(0, 5)]))
        with pytest.raises(ConfigurationError):
            scenario.build()

    def test_rejects_item_referencing_negative_rack(self):
        from repro.workloads.scenario import ItemStreamSpec
        scenario = make_mini(seed=1).with_(items=ItemStreamSpec.of(
            "deterministic", schedule=((0, -1), (3, 2))))
        with pytest.raises(ConfigurationError, match="rack -1"):
            scenario.build()

    def test_rejects_empty_workload(self):
        from repro.workloads.scenario import ItemStreamSpec, ScenarioSpec
        scenario = ScenarioSpec(
            name="empty", width=16, height=12, n_racks=2, n_pickers=1,
            n_robots=1, items=ItemStreamSpec.of("deterministic", schedule=[]))
        with pytest.raises(ConfigurationError):
            scenario.build()


class TestItemStreams:
    """Open-ended streams: chunk invariance, picklability, registry."""

    def test_chunked_take_equals_one_big_take(self):
        whole = PoissonStream(n_racks=10, rate=0.5, seed=3).take(50)
        chunked = PoissonStream(n_racks=10, rate=0.5, seed=3)
        assert chunked.take(7) + chunked.take(0) + chunked.take(43) == whole

    def test_poisson_stream_prefix_matches_batch_generator(self):
        stream = PoissonStream(n_racks=10, rate=0.5, seed=1)
        assert stream.take(200) == poisson_arrivals(
            n_items=200, n_racks=10, rate=0.5, seed=1)

    def test_item_ids_are_sequential(self):
        stream = PoissonStream(n_racks=4, rate=1.0, seed=9)
        stream.take(5)
        items = stream.take(5)
        assert [item.item_id for item in items] == [5, 6, 7, 8, 9]
        assert stream.emitted == 10

    def test_pickle_preserves_the_exact_continuation(self):
        stream = PoissonStream(n_racks=10, rate=0.5, seed=3)
        stream.take(20)
        clone = pickle.loads(pickle.dumps(stream))
        assert clone.take(30) == stream.take(30)

    def test_cycle_stream_pickles_mid_run(self):
        stream = CycleStream(n_racks=10, rates=[0.1, 0.8, 0.3],
                             period=600, seed=5)
        stream.take(40)
        clone = pickle.loads(pickle.dumps(stream))
        assert clone.take(40) == stream.take(40)

    def test_cycle_stream_rates_shape_the_arrivals(self):
        # Segment rates 0.05 vs 1.0: the dense segment must pack far
        # more arrivals per tick than the sparse one.
        stream = CycleStream(n_racks=6, rates=[0.05, 1.0], period=1000,
                             seed=11)
        items = stream.take(400)
        per_segment = [0, 0]
        for item in items:
            per_segment[(item.arrival % 1000) * 2 // 1000] += 1
        assert per_segment[1] > per_segment[0] * 2

    def test_arrivals_non_decreasing(self):
        for stream in (PoissonStream(n_racks=3, rate=0.2, seed=2),
                       CycleStream(n_racks=3, rates=[0.2, 0.6],
                                   period=100, seed=2)):
            items = stream.take(100)
            assert all(a.arrival <= b.arrival
                       for a, b in zip(items, items[1:]))

    def test_negative_take_rejected(self):
        with pytest.raises(ConfigurationError):
            PoissonStream(n_racks=3, rate=0.2, seed=2).take(-1)

    @pytest.mark.parametrize("kwargs", [
        dict(n_racks=0, rate=0.5, seed=1),
        dict(n_racks=3, rate=0.0, seed=1),
    ])
    def test_poisson_stream_rejects_bad_arguments(self, kwargs):
        with pytest.raises(ConfigurationError):
            PoissonStream(**kwargs)

    @pytest.mark.parametrize("kwargs", [
        dict(n_racks=3, rates=[], period=10, seed=1),
        dict(n_racks=3, rates=[0.5, -0.1], period=10, seed=1),
        dict(n_racks=3, rates=[0.5, 0.5, 0.5], period=2, seed=1),
    ])
    def test_cycle_stream_rejects_bad_arguments(self, kwargs):
        with pytest.raises(ConfigurationError):
            CycleStream(**kwargs)


NON_FINITE = [pytest.param(float("nan"), id="nan"),
              pytest.param(float("inf"), id="inf"),
              pytest.param(float("-inf"), id="-inf")]


class TestNonFiniteRates:
    """Every arrival rate must be finite and positive: NaN used to escape
    as a bare ValueError from the draw, and an infinite rate put every
    item at tick 0."""

    @pytest.mark.parametrize("rate", NON_FINITE)
    def test_poisson_arrivals(self, rate):
        with pytest.raises(ConfigurationError, match="rate"):
            poisson_arrivals(20, 5, rate, seed=1)

    @pytest.mark.parametrize("rate", NON_FINITE)
    def test_poisson_stream(self, rate):
        with pytest.raises(ConfigurationError, match="rate"):
            PoissonStream(n_racks=3, rate=rate, seed=1)

    @pytest.mark.parametrize("rate", NON_FINITE)
    def test_cycle_stream(self, rate):
        with pytest.raises(ConfigurationError, match="rates"):
            CycleStream(n_racks=3, rates=[0.5, rate], period=10, seed=1)

    @pytest.mark.parametrize("rate", NON_FINITE)
    def test_surge_base_rate(self, rate):
        with pytest.raises(ConfigurationError, match="base_rate"):
            surge_arrivals(20, 5, rate, 1.0, 0.25, 1)

    @pytest.mark.parametrize("rate", NON_FINITE)
    def test_surge_peak_rate(self, rate):
        with pytest.raises(ConfigurationError, match="peak_rate"):
            surge_arrivals(20, 5, 0.5, rate, 0.25, 1)


class TestStreamRegistry:
    def test_named_streams_resolve(self):
        assert resolve_stream("poisson") is PoissonStream
        assert resolve_stream("cycle") is CycleStream

    def test_unknown_stream_rejected(self):
        with pytest.raises(ConfigurationError):
            resolve_stream("lognormal")

    def test_reregistration_rejected(self):
        with pytest.raises(ConfigurationError):
            register_stream("poisson", PoissonStream)


# -- the reference bodies -----------------------------------------------------
#
# The generators draw straight from ``random()`` / ``getrandbits()``; these
# are the bodies they replaced, which call the ``random.Random`` wrappers
# (``expovariate``, ``randrange``, ``randint``) and numpy's
# ``searchsorted`` per item.  Every stream must equal them item for item,
# under whichever interpreter runs the suite.


def reference_surge_arrivals(n_items: int, n_racks: int, base_rate: float,
                             peak_rate: float, ramp_fraction: float,
                             seed: int, zipf_s: float = 0.7,
                             processing_low: int = PROCESSING_TIME_RANGE[0],
                             processing_high: int = PROCESSING_TIME_RANGE[1]
                             ) -> List[Item]:
    if not 0.0 < ramp_fraction < 0.5:
        raise ConfigurationError("ramp_fraction must be in (0, 0.5)")
    if peak_rate <= base_rate:
        raise ConfigurationError("peak_rate must exceed base_rate")
    rng = random.Random(seed)

    weights = np.array([1.0 / (k ** zipf_s) for k in range(1, n_racks + 1)])
    weights /= weights.sum()
    cumulative = np.cumsum(weights)
    # Shuffle rack identities so hot racks are spread over the floor.
    rack_order = list(range(n_racks))
    rng.shuffle(rack_order)

    warm_end = int(n_items * ramp_fraction)
    surge_end = int(n_items * (1.0 - ramp_fraction))

    items: List[Item] = []
    t = 0.0
    for item_id in range(n_items):
        rate = peak_rate if warm_end <= item_id < surge_end else base_rate
        t += rng.expovariate(rate)
        rank = int(np.searchsorted(cumulative, rng.random()))
        items.append(Item(
            item_id=item_id,
            rack_id=rack_order[min(rank, n_racks - 1)],
            arrival=int(t),
            processing_time=uniform_processing_time(
                rng, processing_low, processing_high)))
    return items


class ReferenceEmit:
    """Drives ``_emit`` once per item, as ``ItemStream.take`` did."""

    def _draw(self, first_id, n):
        return [self._emit(first_id + i) for i in range(n)]


class ReferencePoissonStream(ReferenceEmit, PoissonStream):
    def _emit(self, item_id: int) -> Item:
        self._t += self._rng.expovariate(self.rate)
        return Item(item_id=item_id,
                    rack_id=self._rng.randrange(self.n_racks),
                    arrival=int(self._t),
                    processing_time=uniform_processing_time(
                        self._rng, self.processing_low,
                        self.processing_high))


class ReferenceCycleStream(ReferenceEmit, CycleStream):
    def _current_rate(self) -> float:
        phase = self._t % self.period
        segment = int(phase * len(self.rates) / self.period)
        return self.rates[min(segment, len(self.rates) - 1)]

    def _emit(self, item_id: int) -> Item:
        self._t += self._rng.expovariate(self._current_rate())
        rank = min(bisect.bisect_left(self._cumulative, self._rng.random()),
                   self.n_racks - 1)
        return Item(item_id=item_id,
                    rack_id=self._rack_order[rank],
                    arrival=int(self._t),
                    processing_time=uniform_processing_time(
                        self._rng, self.processing_low,
                        self.processing_high))


def outcome(draw):
    """The item tuples ``draw()`` returns, or the type and text of what
    it raises."""
    try:
        return [(item.item_id, item.rack_id, item.arrival,
                 item.processing_time) for item in draw()]
    except Exception as error:  # compared with the reference, not handled
        return type(error), str(error)


SEEDS = range(50)
#: Processing ranges of width 1, 2**3 and 2**3 + 1, and the paper's 21.
PROCESSING_RANGES = ((7, 7), (5, 12), (5, 13), PROCESSING_TIME_RANGE)
#: Rack counts 1, 2**4 and 2**4 + 1.
RACK_COUNTS = (1, 16, 17)
RANGE_GRID = [(low, high, n_racks) for low, high in PROCESSING_RANGES
              for n_racks in RACK_COUNTS]


class TestStreamsMatchReferenceBodies:
    @pytest.mark.parametrize("low, high, n_racks", RANGE_GRID)
    def test_surge(self, low, high, n_racks):
        for seed in SEEDS:
            args = (80, n_racks, 0.3, 1.7, 0.25, seed, 0.7, low, high)
            assert (outcome(lambda: surge_arrivals(*args))
                    == outcome(lambda: reference_surge_arrivals(*args))), seed

    @pytest.mark.parametrize("low, high, n_racks", RANGE_GRID)
    def test_poisson(self, low, high, n_racks):
        for seed in SEEDS:
            reference = ReferencePoissonStream(n_racks, 0.6, seed, low, high)
            assert (outcome(lambda: poisson_arrivals(80, n_racks, 0.6, seed,
                                                     low, high))
                    == outcome(lambda: reference.take(80))), seed

    @pytest.mark.parametrize("low, high, n_racks", RANGE_GRID)
    def test_cycle(self, low, high, n_racks):
        for seed in SEEDS:
            args = (n_racks, (0.1, 0.9, 0.4), 300, seed, 0.8, low, high)
            assert (outcome(lambda: CycleStream(*args).take(80))
                    == outcome(lambda: ReferenceCycleStream(*args).take(80))
                    ), seed

    @pytest.mark.parametrize("kind, reference_kind, args", [
        (PoissonStream, ReferencePoissonStream, (17, 0.4)),
        (CycleStream, ReferenceCycleStream, (17, (0.2, 1.1), 400)),
    ])
    def test_chunked_and_pickled_mid_run(self, kind, reference_kind, args):
        for seed in SEEDS:
            reference = reference_kind(*args, seed).take(372 + 100)
            stream = kind(*args, seed)
            chunks = [stream.take(n) for n in (1, 64, 7, 300)]
            assert [len(chunk) for chunk in chunks] == [1, 64, 7, 300]
            assert sum(chunks, []) == reference[:372], seed
            clone = pickle.loads(pickle.dumps(stream))
            assert clone.take(100) == reference[372:], seed
            assert clone.emitted == 472

    @pytest.mark.parametrize("kind, reference_kind, args", [
        (PoissonStream, ReferencePoissonStream, (16, 0.4)),
        (CycleStream, ReferenceCycleStream, (16, (0.2, 1.1), 400)),
    ])
    def test_a_reference_stream_continues_under_the_new_loop(
            self, kind, reference_kind, args):
        for seed in SEEDS[:10]:
            reference = reference_kind(*args, seed)
            reference.take(45)
            stream = object.__new__(kind)
            stream.__dict__.update(copy.deepcopy(reference.__dict__))
            assert stream.take(60) == reference.take(60), seed

    def test_table2_datasets_at_scale_2(self):
        for spec in all_datasets(2.0).values():
            params = spec.items.kwargs()
            if spec.items.generator == "surge":
                expected = reference_surge_arrivals(**params)
            else:
                n_items = params.pop("n_items")
                expected = ReferencePoissonStream(**params).take(n_items)
            assert spec.items.materialise() == expected, spec.name

    @pytest.mark.parametrize("draw", [
        lambda low, high: surge_arrivals(30, 9, 0.3, 1.7, 0.25, 1, 0.7,
                                         low, high),
        lambda low, high: surge_arrivals(0, 9, 0.3, 1.7, 0.25, 1, 0.7,
                                         low, high),
        lambda low, high: poisson_arrivals(30, 9, 0.6, 1, low, high),
        lambda low, high: PoissonStream(9, 0.6, 1, low, high),
        lambda low, high: CycleStream(9, (0.5,), 10, 1, 0.7, low, high),
    ], ids=["surge", "surge-empty", "poisson", "poisson-stream", "cycle"])
    def test_an_empty_processing_range_is_refused(self, draw):
        # The reference body raises randint's bare ValueError at its
        # first draw; the generators refuse the range before drawing,
        # even when they would draw nothing.
        reference = outcome(lambda: reference_surge_arrivals(
            30, 9, 0.3, 1.7, 0.25, 1, 0.7, 20, 19))
        assert reference[0] is ValueError and "empty range" in reference[1]
        with pytest.raises(ConfigurationError, match="processing_high"):
            draw(20, 19)
        assert draw(19, 19) is not None

    @pytest.mark.parametrize("seed", range(5))
    def test_a_negative_base_rate_is_refused(self, seed):
        # The reference body fails late, in Item's arrival check; the
        # generator refuses the argument before it draws.
        args = (200, 20, -0.5, 1.0, 0.25, seed)
        reference = outcome(lambda: reference_surge_arrivals(*args))
        assert reference[0] is ValueError
        with pytest.raises(ConfigurationError, match="base_rate"):
            surge_arrivals(*args)
