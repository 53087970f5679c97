"""Configuration objects for planners and simulations.

All the knobs the paper exposes (Sec. VII-A defaults) live here as frozen
dataclasses so experiments can be described declaratively and compared
field-by-field.  The library's numeric parameters declare their domains
once, with :func:`declare`, and one check refuses a value outside its
domain at construction time, not three minutes into a simulation.
"""

from __future__ import annotations

import inspect
import os
from dataclasses import dataclass, field, replace
from functools import wraps
from math import inf, isfinite
from numbers import Integral, Real
from typing import Any, Dict, NamedTuple

from .errors import ConfigurationError


class Domain(NamedTuple):
    """The values one parameter admits: integers (``kind`` int) or finite
    reals (float) from ``low`` to ``high``, each bound closed unless
    marked open, or else instances of ``kind``.  ``each`` asks for a
    non-empty list or tuple of such values."""

    kind: type = float
    low: float = -inf
    high: float = inf
    open_low: bool = False
    open_high: bool = False
    each: bool = False

    def admits(self, value: Any) -> bool:
        if self.each:
            return (isinstance(value, (list, tuple)) and len(value) > 0
                    and all(map(self._replace(each=False).admits, value)))
        if self.kind not in (int, float):
            return isinstance(value, self.kind)
        if not (isinstance(value, Integral) if self.kind is int
                else isinstance(value, Real) and isfinite(value)):
            return False
        return ((self.low < value if self.open_low else self.low <= value)
                and (value < self.high if self.open_high
                     else value <= self.high))

    def __str__(self) -> str:
        if self.kind not in (int, float):
            return f"a {self.kind.__name__}"
        text = (f"{'an integer' if self.kind is int else 'a finite real'} "
                f"in {'(' if self.open_low or self.low == -inf else '['}"
                f"{self.low:g}, {self.high:g}"
                f"{')' if self.open_high or self.high == inf else ']'}")
        return f"a non-empty list, each {text}" if self.each else text


#: Shared domains: a positive finite real, any integer (a seed).
POSITIVE = Domain(float, 0, open_low=True)
SEED = Domain(int)

#: Every declaration, ``{owner: {parameter: Domain}}``.
DECLARED: Dict[str, Dict[str, Domain]] = {}


def declare(owner: str = "", /, **domains: Domain):
    """Declare the domains of a function's parameters, or of a class's
    constructor's.  Each call refuses an argument outside its domain (a
    default is inside) with a :class:`ConfigurationError` naming
    ``<owner>.<parameter>``; the owner defaults to the target's name."""

    def decorate(target):
        function = target.__init__ if isinstance(target, type) else target
        label = owner or target.__qualname__.replace(".__init__", "")
        bind = inspect.signature(function).bind
        DECLARED[label] = domains

        @wraps(function)
        def checked(*args, **kwargs):
            for name, value in bind(*args, **kwargs).arguments.items():
                if name in domains and not domains[name].admits(value):
                    raise ConfigurationError(f"{label}.{name} must be "
                                             f"{domains[name]}, got {value!r}")
            return function(*args, **kwargs)

        if function is target:
            return checked
        target.__init__ = checked
        return target

    return decorate


#: Valid values of the ``REPRO_KERNEL`` environment variable.
SEARCH_KERNEL_CHOICES = ("auto", "compiled", "python")


def search_kernel_choice() -> str:
    """Resolve the ``REPRO_KERNEL`` search-kernel override.

    ``auto`` (the default) uses the compiled C expansion loop when a built
    artefact is importable and falls back to the pure-python core silently
    otherwise.  ``compiled`` demands the native kernel (selection fails
    loudly when it is absent — see
    :func:`repro.pathfinding.st_astar.set_search_kernel`); ``python``
    forces the pure-python core even when the extension is available.  The
    two cores are pinned bit-identical by the equivalence suite, so the
    knob is a pure performance control.
    """
    choice = os.environ.get("REPRO_KERNEL", "auto").strip().lower()
    if choice not in SEARCH_KERNEL_CHOICES:
        raise ConfigurationError(f"REPRO_KERNEL must be one of "
                                 f"{SEARCH_KERNEL_CHOICES}, got {choice!r}")
    return choice


#: Floor size (in cells) past which the "paper-scale" machinery switches on.
#: It is compared once, into ``Grid.paper_scale``, which decides the tiled
#: ST graph, the wait-following rescue, the deep-tie search order and the
#: lazy Manhattan fields.  Every historical scenario (the scaled-down
#: Table II floors, the small fleet rungs, the golden-trace mini floor)
#: sits far below this threshold, so their behaviour — and their goldens —
#: stays byte-identical; the paper-true 541×302 floor (163 382 cells) lands
#: far above it.
PAPER_SCALE_MIN_CELLS = 16_384


@declare(delta=Domain(float, 0, 1), epsilon=Domain(float, 0, 1),
         learning_rate=Domain(float, 0, 1, open_low=True),
         discount=Domain(float, 0, 1, open_high=True),
         state_bin_width=Domain(int, 1), deferral_weight=POSITIVE)
@dataclass(frozen=True)
class QLearningConfig:
    """Hyper-parameters of the rack-selection learner (Sec. V, Table I).

    Attributes
    ----------
    delta:
        Bootstrap degree δ — per-timestamp probability of using the greedy
        "most slack picker first" approximation instead of the learned
        policy.  The paper finds δ < 0.4 effective and defaults to 0.2.
    epsilon:
        ε of the ε-greedy action policy (paper default 0.1).
    learning_rate:
        β in the Q-learning update, Eq. 5 (paper default 0.1).
    discount:
        γ in Eq. 5.  The paper does not state its value; 0.9 is the
        conventional choice and is exposed here as a knob.
    state_bin_width:
        Width of the buckets used to discretise the unbounded accumulated
        processing times ``⟨ap_r, ar_r⟩`` into a tabular state.  The paper
        uses the raw counters; a tabular learner needs finitely many states
        to generalise at all, so we bucket (documented deviation).
    deferral_weight:
        Exchange rate between per-item deferral cost and per-selection
        overhead cost (see
        :meth:`repro.rl.qlearning.QLearningAgent.lookahead`).  Defaults to
        the decision horizon 1/(1 − γ).
    """

    delta: float = 0.2
    epsilon: float = 0.1
    learning_rate: float = 0.1
    discount: float = 0.9
    state_bin_width: int = 60
    deferral_weight: float = 10.0


@declare(knn_k=Domain(int, 1), cache_threshold=Domain(int, 0),
         max_search_expansions=Domain(int, 1),
         reservation_horizon=Domain(int, 1),
         qlearning=Domain(QLearningConfig), seed=SEED)
@dataclass(frozen=True)
class PlannerConfig:
    """Knobs shared by the planners (Secs. V–VI, Table I).

    Attributes
    ----------
    knn_k:
        K — how many closest racks each robot probes under flip requesting
        (EATP, Sec. VI-A).  The paper leaves K unstated on its 5 000+ rack
        floors.  K = 8 does not reach the paper's trade-off (EATP within
        ~1% of ATP's makespan): over four arrival seeds at scale 2 the
        median EATP ÷ ATP makespan reads 1.028 to 1.119 across the four
        Table II datasets, and a larger K closes the gap.  Choosing K per
        floor is ROADMAP item 2 (a).
    cache_threshold:
        L — Manhattan-distance threshold below which the cache-aided
        finisher takes over from spatiotemporal A* (EATP, Sec. VI-B).
        ``0`` disables the cache.  The paper's default of 50 is tuned to
        its 233×104-and-larger floors; our default of 12 is the same
        fraction of the scaled-down layouts (the ~1/6 linear scale-down
        tabulated in :mod:`repro.workloads.datasets`).
    max_search_expansions:
        Safety valve for a single spatiotemporal A* run; prevents an
        accidentally unreachable goal from hanging an experiment.
    reservation_horizon:
        How many ticks into the past the reservation structure keeps before
        its periodic purge (the CDT "update" operation, Sec. VI-B).
    qlearning:
        Nested learner configuration, used by ATP and EATP only.
    seed:
        Seed for the planner's private RNG (Bernoulli(δ) draws and
        ε-greedy exploration), so runs are reproducible.
    """

    knn_k: int = 8
    cache_threshold: int = 12
    max_search_expansions: int = 200_000
    reservation_horizon: int = 64
    qlearning: QLearningConfig = field(default_factory=QLearningConfig)
    seed: int = 7

    def with_(self, **changes) -> "PlannerConfig":
        """Return a copy with ``changes`` applied (ablation convenience)."""
        return replace(self, **changes)


@declare(max_ticks=Domain(int, 1), metrics_checkpoints=Domain(int, 1),
         record_bottleneck_trace=Domain(bool), collect_paths=Domain(bool))
@dataclass(frozen=True)
class SimulationConfig:
    """Controls for the validation system (Sec. VII-A).

    Attributes
    ----------
    max_ticks:
        Hard stop for a run; a simulation that has not drained by then
        raises, which in practice flags a livelocked planner.
    metrics_checkpoints:
        How many evenly spaced item-count checkpoints to record for the
        Fig. 10–12 series (the paper uses 10).
    record_bottleneck_trace:
        Whether to record the per-tick transport/queuing/processing cost
        decomposition used by the Fig. 13 case study (small overhead).
    collect_paths:
        Whether to keep every planned leg path in the result, so tests
        can audit global conflict-freedom (memory-heavy on big runs).
    """

    max_ticks: int = 500_000
    metrics_checkpoints: int = 10
    record_bottleneck_trace: bool = False
    collect_paths: bool = False
