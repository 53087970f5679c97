"""Item arrival processes.

The synthetic datasets emerge items "following Poisson distribution"
(Sec. VII-A); the real Geekplus traces are high-variance and bursty — we
model them with a piecewise-rate (surge) Poisson process plus Zipf rack
popularity, which reproduces the bottleneck migration of Fig. 13 without
the proprietary data.

Every generator is a pure function of its RNG seed, so workloads are
reproducible across planners — all five algorithms see byte-identical item
streams in every experiment.
"""

from __future__ import annotations

import bisect
import math
import random
from typing import Callable, List, Optional, Sequence

import numpy as np

from ..errors import ConfigurationError
from ..warehouse.entities import Item

#: Item processing times are "distributed uniformly between 20 and 40
#: seconds, close to the real situation" (Sec. VII-A).
PROCESSING_TIME_RANGE = (20, 40)


def uniform_processing_time(rng: random.Random,
                            low: int = PROCESSING_TIME_RANGE[0],
                            high: int = PROCESSING_TIME_RANGE[1]) -> int:
    """Draw one item's processing time (inclusive uniform)."""
    return rng.randint(low, high)


def poisson_arrivals(n_items: int, n_racks: int, rate: float, seed: int,
                     processing_low: int = PROCESSING_TIME_RANGE[0],
                     processing_high: int = PROCESSING_TIME_RANGE[1]) -> List[Item]:
    """Homogeneous Poisson item stream over uniformly random racks.

    Parameters
    ----------
    n_items:
        Total items to generate.
    n_racks:
        Racks to spread them over (uniformly).
    rate:
        Expected arrivals per tick (λ of the Poisson process).
    seed:
        RNG seed; identical seeds give identical workloads.
    """
    if n_items < 1:
        raise ConfigurationError("n_items must be >= 1")
    if n_racks < 1:
        raise ConfigurationError("n_racks must be >= 1")
    if rate <= 0:
        raise ConfigurationError("rate must be positive")
    return PoissonStream(n_racks, rate, seed, processing_low,
                         processing_high).take(n_items)


def surge_arrivals(n_items: int, n_racks: int, base_rate: float,
                   peak_rate: float, ramp_fraction: float, seed: int,
                   zipf_s: float = 0.7,
                   processing_low: int = PROCESSING_TIME_RANGE[0],
                   processing_high: int = PROCESSING_TIME_RANGE[1]) -> List[Item]:
    """Bursty stream standing in for the Geekplus traces.

    Three phases over the items: a ``base_rate`` warm-up, a ``peak_rate``
    surge (the midnight-carnival spike of the paper's introduction), and a
    ``base_rate`` tail; phase boundaries at ``ramp_fraction`` and
    ``1 - ramp_fraction`` of the item budget.  Rack popularity is Zipf —
    hot racks accumulate items quickly, which is what makes batching (and
    thus adaptivity) matter.

    Parameters
    ----------
    zipf_s:
        Zipf exponent for rack popularity.  The 0.7 default concentrates
        load on hot racks without letting a single picker's queue
        serialise the whole run.
    """
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


def deterministic_arrivals(schedule: Sequence[tuple],
                           processing_time: int = 20) -> List[Item]:
    """Hand-written workloads for tests: ``[(arrival, rack_id), ...]``."""
    return [Item(item_id=i, rack_id=rack_id, arrival=arrival,
                 processing_time=processing_time)
            for i, (arrival, rack_id) in enumerate(schedule)]


# -- the named generator registry -------------------------------------------
#
# Scenario specs reference arrival processes *by name* so a spec is plain,
# picklable data that any worker process can materialise (see
# :mod:`repro.workloads.scenario`).  Third-party generators register here.

GENERATORS: dict = {
    "poisson": poisson_arrivals,
    "surge": surge_arrivals,
    "deterministic": deterministic_arrivals,
}


def register_generator(name: str,
                       generator: Callable[..., List[Item]]) -> None:
    """Add an arrival generator to the registry.

    The generator must be a pure function of its keyword arguments
    (deterministic for a fixed seed) so scenario builds stay reproducible
    across processes.
    """
    if name in GENERATORS:
        raise ConfigurationError(f"arrival generator {name!r} already registered")
    GENERATORS[name] = generator


def resolve_generator(name: str) -> Callable[..., List[Item]]:
    """Look up a registered arrival generator by name."""
    try:
        return GENERATORS[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown arrival generator {name!r}; "
            f"choose from {sorted(GENERATORS)}") from None


# -- open-ended streams (service mode) ---------------------------------------
#
# The batch generators above materialise a fixed item count; an always-on
# run has no item count.  A *stream* is a stateful, picklable iterator
# over the same arrival processes: ``take(n)`` yields the next ``n``
# items, and chunked consumption is byte-identical to one big draw
# (``take(a); take(b)`` ≡ ``take(a + b)``) because the RNG state lives in
# the stream.  Picklability is a hard requirement — the soak harness
# checkpoints the stream next to the engine so a restored run replays
# the exact item sequence.


class ItemStream:
    """Base open-ended item source: deterministic, chunked, picklable."""

    def __init__(self) -> None:
        self._next_id = 0

    @property
    def emitted(self) -> int:
        """Items produced so far (also the next item id)."""
        return self._next_id

    def take(self, n: int) -> List[Item]:
        """The next ``n`` items of the stream, in arrival order."""
        if n < 0:
            raise ConfigurationError(f"take(n) needs n >= 0, got {n}")
        items = [self._emit(self._next_id + i) for i in range(n)]
        self._next_id += n
        return items

    def _emit(self, item_id: int) -> Item:
        raise NotImplementedError


class PoissonStream(ItemStream):
    """Unbounded homogeneous Poisson stream (the open-ended ``poisson``).

    Draws gap, rack, processing time per item; :func:`poisson_arrivals`
    is the first ``n`` items of this stream for the same seed.
    """

    def __init__(self, n_racks: int, rate: float, seed: int,
                 processing_low: int = PROCESSING_TIME_RANGE[0],
                 processing_high: int = PROCESSING_TIME_RANGE[1]) -> None:
        if n_racks < 1:
            raise ConfigurationError("n_racks must be >= 1")
        if rate <= 0:
            raise ConfigurationError("rate must be positive")
        super().__init__()
        self.n_racks = n_racks
        self.rate = rate
        self.processing_low = processing_low
        self.processing_high = processing_high
        self._rng = random.Random(seed)
        self._t = 0.0

    def _emit(self, item_id: int) -> Item:
        self._t += self._rng.expovariate(self.rate)
        return Item(item_id=item_id,
                    rack_id=self._rng.randrange(self.n_racks),
                    arrival=int(self._t),
                    processing_time=uniform_processing_time(
                        self._rng, self.processing_low,
                        self.processing_high))


class CycleStream(ItemStream):
    """Shift-shaped demand: rates cycling over a fixed period of ticks.

    Models the day-curve arrival profiles of staffed-warehouse traces (a
    quiet night shift, a morning ramp, an afternoon peak) without any
    proprietary data: ``rates[k]`` is the Poisson rate in force during
    segment ``k`` of each ``period``-tick cycle, segments of equal
    length.  Each inter-arrival gap is drawn at the rate of the segment
    containing the *current* stream time — a piecewise approximation
    (a gap spanning a boundary uses the departing segment's rate) that
    is deterministic, picklable, and keeps the chunk-invariance
    contract.  Rack popularity is Zipf like :func:`surge_arrivals`.
    """

    def __init__(self, n_racks: int, rates: Sequence[float], period: int,
                 seed: int, zipf_s: float = 0.7,
                 processing_low: int = PROCESSING_TIME_RANGE[0],
                 processing_high: int = PROCESSING_TIME_RANGE[1]) -> None:
        if n_racks < 1:
            raise ConfigurationError("n_racks must be >= 1")
        if not rates or any(rate <= 0 for rate in rates):
            raise ConfigurationError("rates must be non-empty and positive")
        if period < len(rates):
            raise ConfigurationError(
                f"period ({period}) must cover the {len(rates)} segments")
        super().__init__()
        self.n_racks = n_racks
        self.rates = tuple(float(rate) for rate in rates)
        self.period = period
        self.processing_low = processing_low
        self.processing_high = processing_high
        self._rng = random.Random(seed)
        self._t = 0.0
        weights = [1.0 / (k ** zipf_s) for k in range(1, n_racks + 1)]
        total = sum(weights)
        cumulative, acc = [], 0.0
        for weight in weights:
            acc += weight / total
            cumulative.append(acc)
        self._cumulative = cumulative
        rack_order = list(range(n_racks))
        self._rng.shuffle(rack_order)
        self._rack_order = rack_order

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


STREAMS: dict = {
    "poisson": PoissonStream,
    "cycle": CycleStream,
}


def register_stream(name: str, stream: Callable[..., ItemStream]) -> None:
    """Add an open-ended stream factory to the registry.

    The factory must return a picklable :class:`ItemStream` whose output
    is a pure function of its arguments and draw count.
    """
    if name in STREAMS:
        raise ConfigurationError(f"item stream {name!r} already registered")
    STREAMS[name] = stream


def resolve_stream(name: str) -> Callable[..., ItemStream]:
    """Look up a registered open-ended stream factory by name."""
    try:
        return STREAMS[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown item stream {name!r}; "
            f"choose from {sorted(STREAMS)}") from None
