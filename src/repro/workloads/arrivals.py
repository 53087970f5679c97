"""Item arrival processes.

The synthetic datasets emerge items "following Poisson distribution"
(Sec. VII-A); the real Geekplus traces are high-variance and bursty — we
model them with a piecewise-rate (surge) Poisson process plus Zipf rack
popularity, which reproduces the bottleneck migration of Fig. 13 without
the proprietary data.

Every generator is a pure function of its RNG seed, so workloads are
reproducible across planners — all five algorithms see byte-identical item
streams in every experiment.

The draw contract: each generator is one flat loop over its own
``random.Random``'s two primitives, ``random()`` and ``getrandbits()``,
applying CPython's own wrapper arithmetic to them — ``expovariate(r)`` is
``-log(1.0 - random()) / r``, and ``randrange(n)`` / ``randint(a, b)``
draw ``getrandbits(n.bit_length())`` until the result is below the range
width ``n`` (``_randbelow_with_getrandbits``).  The streams are therefore
the ones the library wrappers would draw, without a call tower per item;
``tests/test_arrivals.py`` keeps the wrapper-based bodies as an oracle
and compares the two item for item.
"""

from __future__ import annotations

import random
from bisect import bisect_left
from math import isfinite, log
from typing import Callable, List, Sequence

import numpy as np

from ..config import SEED, Domain, declare
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


#: Domains shared by the generators and streams.  A rate's floor keeps
#: the longest gap a draw can make (about 37 / rate) a finite float.
RATE = Domain(float, 1e-300)
RACKS = Domain(int, 1)
PROCESSING = Domain(int, 1)
#: An arrival tick or a rack id of a hand-written schedule.
TICK = Domain(int, 0)


def _zipf_weights(n_racks: int, zipf_s: float) -> List[float]:
    """``1 / k ** zipf_s`` for ranks 1 to ``n_racks``, refusing a
    ``zipf_s`` whose weights or their sum overflow for this many racks
    (a rule over two parameters, so not a declared domain)."""
    try:
        weights = [1.0 / (k ** zipf_s) for k in range(1, n_racks + 1)]
        if isfinite(sum(weights)):
            return weights
    except (OverflowError, ZeroDivisionError):
        pass
    raise ConfigurationError(f"zipf_s {zipf_s} overflows the Zipf weights "
                             f"of {n_racks} racks")


def _check_processing_range(low: int, high: int) -> None:
    """Refuse an empty inclusive processing range ``[low, high]``."""
    if high < low:
        raise ConfigurationError(f"processing_high ({high}) must be >= "
                                 f"processing_low ({low})")


@declare(n_items=Domain(int, 1), n_racks=RACKS, rate=RATE, seed=SEED,
         processing_low=PROCESSING, processing_high=PROCESSING)
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
    return PoissonStream(n_racks, rate, seed, processing_low,
                         processing_high).take(n_items)


@declare(n_items=Domain(int, 0), n_racks=RACKS, base_rate=RATE,
         peak_rate=RATE, seed=SEED, zipf_s=Domain(float),
         ramp_fraction=Domain(float, 0, 0.5, open_low=True, open_high=True),
         processing_low=PROCESSING, processing_high=PROCESSING)
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
    n_items:
        Stream length; 0 gives an empty stream, a negative count is
        refused.
    zipf_s:
        Zipf exponent for rack popularity, finite.  The 0.7 default
        concentrates load on hot racks without letting a single picker's
        queue serialise the whole run.
    """
    if peak_rate <= base_rate:
        raise ConfigurationError("peak_rate must exceed base_rate")
    _check_processing_range(processing_low, processing_high)
    rng = random.Random(seed)

    weights = np.array(_zipf_weights(n_racks, zipf_s))
    weights /= weights.sum()
    cumulative = np.cumsum(weights)
    # Shuffle rack identities so hot racks are spread over the floor.
    rack_order = list(range(n_racks))
    rng.shuffle(rack_order)

    warm_end = int(n_items * ramp_fraction)
    surge_end = int(n_items * (1.0 - ramp_fraction))

    items: List[Item] = []
    width = processing_high - processing_low + 1
    width_bits = width.bit_length()
    uniform, getrandbits = rng.random, rng.getrandbits
    cumulative = cumulative.tolist()
    last_rank = n_racks - 1
    append = items.append
    t = 0.0
    for item_id in range(n_items):
        rate = peak_rate if warm_end <= item_id < surge_end else base_rate
        t += -log(1.0 - uniform()) / rate
        rank = bisect_left(cumulative, uniform())
        processing = getrandbits(width_bits)
        while processing >= width:
            processing = getrandbits(width_bits)
        append(Item(item_id, rack_order[min(rank, last_rank)], int(t),
                    processing_low + processing))
    return items


@declare(processing_time=PROCESSING)
def deterministic_arrivals(schedule: Sequence[tuple],
                           processing_time: int = 20) -> List[Item]:
    """Hand-written workloads for tests: ``[(arrival, rack_id), ...]``,
    each a non-negative integer (:data:`TICK`)."""
    try:
        entries = enumerate(schedule)
    except TypeError:
        raise ConfigurationError(
            "deterministic_arrivals.schedule must be an iterable of "
            f"(arrival, rack_id) pairs, not {schedule!r}") from None
    items = []
    for i, entry in entries:
        try:
            arrival, rack_id = entry
        except (TypeError, ValueError):
            raise ConfigurationError(
                f"deterministic_arrivals.schedule[{i}]: {entry!r} must "
                "be an (arrival, rack_id) pair") from None
        if not (TICK.admits(arrival) and TICK.admits(rack_id)):
            raise ConfigurationError(
                f"deterministic_arrivals.schedule[{i}]: arrival "
                f"{arrival!r} and rack {rack_id!r} must each be {TICK}")
        items.append(Item(item_id=i, rack_id=rack_id, arrival=arrival,
                          processing_time=processing_time))
    return items


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

    @declare(n=Domain(int, 0))
    def take(self, n: int) -> List[Item]:
        """The next ``n`` items of the stream, in arrival order."""
        items = self._draw(self._next_id, n) if n else []
        self._next_id += n
        return items

    def _draw(self, first_id: int, n: int) -> List[Item]:
        """The next ``n >= 1`` items, ids counting from ``first_id``."""
        raise NotImplementedError


class PoissonStream(ItemStream):
    """Unbounded homogeneous Poisson stream (the open-ended ``poisson``).

    Draws gap, rack, processing time per item; :func:`poisson_arrivals`
    is the first ``n`` items of this stream for the same seed.
    """

    @declare(n_racks=RACKS, rate=RATE, seed=SEED,
             processing_low=PROCESSING, processing_high=PROCESSING)
    def __init__(self, n_racks: int, rate: float, seed: int,
                 processing_low: int = PROCESSING_TIME_RANGE[0],
                 processing_high: int = PROCESSING_TIME_RANGE[1]) -> None:
        _check_processing_range(processing_low, processing_high)
        super().__init__()
        self.n_racks = n_racks
        self.rate = rate
        self.processing_low = processing_low
        self.processing_high = processing_high
        self._rng = random.Random(seed)
        self._t = 0.0

    def _draw(self, first_id: int, n: int) -> List[Item]:
        low = self.processing_low
        width = self.processing_high - low + 1
        width_bits = width.bit_length()
        n_racks, rate = self.n_racks, self.rate
        rack_bits = n_racks.bit_length()
        uniform, getrandbits = self._rng.random, self._rng.getrandbits
        items: List[Item] = []
        append = items.append
        t = self._t
        for item_id in range(first_id, first_id + n):
            t += -log(1.0 - uniform()) / rate
            rack = getrandbits(rack_bits)
            while rack >= n_racks:
                rack = getrandbits(rack_bits)
            processing = getrandbits(width_bits)
            while processing >= width:
                processing = getrandbits(width_bits)
            append(Item(item_id, rack, int(t), low + processing))
        self._t = t
        return items


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

    @declare(n_racks=RACKS, rates=RATE._replace(each=True),
             period=Domain(int, 1), seed=SEED, zipf_s=Domain(float),
             processing_low=PROCESSING, processing_high=PROCESSING)
    def __init__(self, n_racks: int, rates: Sequence[float], period: int,
                 seed: int, zipf_s: float = 0.7,
                 processing_low: int = PROCESSING_TIME_RANGE[0],
                 processing_high: int = PROCESSING_TIME_RANGE[1]) -> None:
        _check_processing_range(processing_low, processing_high)
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
        weights = _zipf_weights(n_racks, zipf_s)
        total = sum(weights)
        cumulative, acc = [], 0.0
        for weight in weights:
            acc += weight / total
            cumulative.append(acc)
        self._cumulative = cumulative
        rack_order = list(range(n_racks))
        self._rng.shuffle(rack_order)
        self._rack_order = rack_order

    def _draw(self, first_id: int, n: int) -> List[Item]:
        low = self.processing_low
        width = self.processing_high - low + 1
        width_bits = width.bit_length()
        rates, period = self.rates, self.period
        n_segments = len(rates)
        last_segment, last_rank = n_segments - 1, self.n_racks - 1
        cumulative, rack_order = self._cumulative, self._rack_order
        uniform, getrandbits = self._rng.random, self._rng.getrandbits
        items: List[Item] = []
        append = items.append
        t = self._t
        for item_id in range(first_id, first_id + n):
            segment = int(t % period * n_segments / period)
            t += -log(1.0 - uniform()) / rates[min(segment, last_segment)]
            rank = bisect_left(cumulative, uniform())
            processing = getrandbits(width_bits)
            while processing >= width:
                processing = getrandbits(width_bits)
            append(Item(item_id, rack_order[min(rank, last_rank)], int(t),
                        low + processing))
        self._t = t
        return items


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
