"""Path representation and helpers.

A path is the unit the TPRW problem asks planners to emit: ``u_a``, a
timed sequence of cells for one robot.  We store it as an immutable list of
``(t, x, y)`` triples with consecutive integer timestamps; between
consecutive entries the robot either moves to a cardinal neighbour or waits
in place.  This is the exact structure the conflict definitions of Sec. II
are stated over.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Sequence, Tuple

from ..errors import ConflictError
from ..types import Cell, TimedCell, Tick


@dataclass(frozen=True)
class Path:
    """An immutable timed path for a single robot.

    Attributes
    ----------
    steps:
        Tuple of ``(t, x, y)`` with strictly consecutive ``t`` and each
        spatial step being a wait or a unit cardinal move.
    """

    steps: Tuple[TimedCell, ...]

    def __post_init__(self) -> None:
        if not self.steps:
            raise ConflictError("a path must contain at least one step")
        for (t0, x0, y0), (t1, x1, y1) in zip(self.steps, self.steps[1:]):
            if t1 != t0 + 1:
                raise ConflictError(
                    f"non-consecutive timestamps {t0} -> {t1} in path")
            # abs-form of ``manhattan`` inlined: this validation runs on
            # every constructed path step and the call overhead alone is
            # measurable at fleet scale.
            if abs(x1 - x0) + abs(y1 - y0) > 1:
                raise ConflictError(
                    f"illegal jump ({x0},{y0}) -> ({x1},{y1}) in one tick")

    # -- constructors --------------------------------------------------------

    @classmethod
    def from_cells(cls, cells: Sequence[Cell], start_time: Tick) -> "Path":
        """Build a path from a cell sequence starting at ``start_time``."""
        steps = tuple((start_time + i, x, y) for i, (x, y) in enumerate(cells))
        return cls(steps)

    @classmethod
    def waiting(cls, cell: Cell, start_time: Tick, duration: int) -> "Path":
        """A path that waits in ``cell`` for ``duration`` ticks."""
        if duration < 0:
            raise ConflictError("wait duration must be >= 0")
        x, y = cell
        steps = tuple((start_time + i, x, y) for i in range(duration + 1))
        return cls(steps)

    # -- accessors -----------------------------------------------------------

    @property
    def start_time(self) -> Tick:
        """Timestamp of the first step."""
        return self.steps[0][0]

    @property
    def end_time(self) -> Tick:
        """Timestamp at which the robot occupies the final cell."""
        return self.steps[-1][0]

    @property
    def source(self) -> Cell:
        """First cell of the path."""
        __, x, y = self.steps[0]
        return (x, y)

    @property
    def goal(self) -> Cell:
        """Final cell of the path."""
        __, x, y = self.steps[-1]
        return (x, y)

    @property
    def duration(self) -> int:
        """Number of ticks the path spans (0 for a single-step path)."""
        return self.end_time - self.start_time

    def cell_at(self, t: Tick) -> Cell:
        """The cell occupied at time ``t`` (clamped to the endpoints).

        Before ``start_time`` the robot is at the source; after
        ``end_time`` it stays at the goal — matching how the simulator
        treats a robot that has finished a leg and is waiting for the next.
        """
        if t <= self.start_time:
            return self.source
        if t >= self.end_time:
            return self.goal
        __, x, y = self.steps[t - self.start_time]
        return (x, y)

    def cells_between(self, t_from: Tick, t_to: Tick) -> List[Cell]:
        """The cells occupied over ``[t_from, t_to]`` inclusive, clamped.

        One vectorised slice instead of a ``cell_at`` call per tick: the
        event-driven simulator materialises a robot's motion per *leg*
        (or per processed span), so consumers that still need the
        tick-by-tick trail — renderers, conflict audits, tests — expand
        it here in one call.  Ticks outside the path clamp to the
        endpoints, mirroring :meth:`cell_at`.
        """
        if t_to < t_from:
            raise ConflictError(
                f"cells_between span [{t_from}, {t_to}] is empty")
        start, end = self.start_time, self.end_time
        cells: List[Cell] = []
        if t_from < start:
            cells.extend([self.source] * (min(start, t_to + 1) - t_from))
        lo, hi = max(t_from, start), min(t_to, end)
        if lo <= hi:
            cells.extend((x, y) for __, x, y in
                         self.steps[lo - start:hi - start + 1])
        if t_to > end:
            cells.extend([self.goal] * (t_to - max(end, t_from - 1)))
        return cells

    def __len__(self) -> int:
        return len(self.steps)

    def __iter__(self) -> Iterator[TimedCell]:
        return iter(self.steps)

    def concat(self, other: "Path") -> "Path":
        """Join two paths where ``other`` starts when ``self`` ends.

        ``other`` must begin at ``self``'s goal with timestamp
        ``self.end_time`` (the shared step is de-duplicated).
        """
        if other.start_time != self.end_time or other.source != self.goal:
            raise ConflictError(
                f"cannot concat: {self.goal}@{self.end_time} vs "
                f"{other.source}@{other.start_time}")
        return _trusted(self.steps + other.steps[1:])

    def spatial_cells(self) -> List[Cell]:
        """The cell sequence without timestamps (useful in tests)."""
        return [(x, y) for __, x, y in self.steps]


def _trusted(steps: Tuple[TimedCell, ...]) -> Path:
    """A :class:`Path` over steps already validated, skipping the walk.

    A join whose seam was checked is valid; re-walking every step there
    made leg assembly quadratic.
    """
    path = object.__new__(Path)
    object.__setattr__(path, "steps", steps)
    return path
