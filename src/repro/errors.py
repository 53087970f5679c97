"""Exception hierarchy for the :mod:`repro` package.

Every error raised deliberately by this library derives from
:class:`ReproError`, so callers can catch the whole family with one clause
while still distinguishing configuration mistakes from runtime planning
failures.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the :mod:`repro` package."""


class LayoutError(ReproError):
    """A warehouse layout is malformed or impossible to build.

    Raised, for example, when a storage block would overlap the picking
    area, when dimensions are non-positive, or when the requested number
    of racks does not fit into the storage area.
    """


class InvalidLocationError(ReproError):
    """A coordinate is outside the grid or on an impassable cell."""


class PathNotFoundError(ReproError):
    """No conflict-free path exists (or the search budget was exhausted).

    Attributes
    ----------
    source, goal:
        The endpoints of the failed search, kept for diagnostics.
    stats:
        The :class:`~repro.pathfinding.st_astar.SearchStats` of the failed
        search when the raiser had them (the packed core always attaches
        them; the frozen seed core predates the field and leaves ``None``).
        Carrying the counters on the exception means exhaustion
        diagnostics — expansions spent, peak open size, the budget in
        force — survive into logs and test failures instead of being lost
        at raise time.
    """

    def __init__(self, source, goal, reason: str = "", stats=None) -> None:
        self.source = source
        self.goal = goal
        self.stats = stats
        detail = f" ({reason})" if reason else ""
        if stats is not None:
            detail += (f" [expansions={stats.expansions}, "
                       f"generated={stats.generated}, "
                       f"peak_open={stats.peak_open}, "
                       f"budget={stats.budget}]")
        super().__init__(f"no path from {source} to {goal}{detail}")


class ConflictError(ReproError):
    """A planning scheme violates the conflict-freedom constraint."""


class PlanningError(ReproError):
    """A planner produced an inconsistent scheme (duplicate robot, etc.)."""


class SimulationError(ReproError):
    """The simulation reached an inconsistent state.

    This always indicates a bug (a broken invariant), never a legitimate
    workload condition, so it is *not* caught anywhere inside the library.
    """


class ConfigurationError(ReproError):
    """A configuration value is out of its documented domain."""


class CheckpointError(ReproError):
    """A checkpoint payload cannot be saved or restored.

    Raised when a checkpoint file is missing its envelope, was written by
    an incompatible payload version, or does not contain a simulation —
    conditions a service-mode operator can hit with a stale file, so they
    are reported as a catchable error rather than an assertion.
    """


class WorkerLostError(ReproError):
    """A matrix worker died; ``unrun`` names the cells left without a
    result (every finished one was saved: a rerun resumes)."""

    def __init__(self, unrun) -> None:
        self.unrun = tuple(unrun)
        super().__init__("a matrix worker died; unrun: "
                         + ", ".join(self.unrun))
