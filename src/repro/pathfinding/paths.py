"""Path representation and helpers.

A path is the unit the TPRW problem asks planners to emit: ``u_a``, a
timed sequence of cells for one robot — ``(t, x, y)`` triples with
consecutive integer timestamps; between consecutive entries the robot
either moves to a cardinal neighbour or waits in place.  This is the
exact structure the conflict definitions of Sec. II are stated over.

Because the ticks are consecutive by construction, a path is stored as
its start tick plus one ``array('q')`` of packed cell keys (``x << 16 |
y``, the :mod:`repro.types` packing): the buffer the native kernel hands
out and takes back, eight bytes a step.  The ``(t, x, y)`` tuples are
derived on the first python read of :attr:`Path.steps`.
"""

from __future__ import annotations

from array import array
from typing import Iterable, Iterator, List, Sequence, Tuple

from ..errors import ConflictError
from ..types import CELL_KEY_MASK, CELL_KEY_SHIFT, Cell, TimedCell, Tick


class Path:
    """An immutable timed path for a single robot.

    ``Path(steps)`` validates and packs ``(t, x, y)`` triples with
    strictly consecutive ``t``, each spatial step a wait or a unit
    cardinal move, every coordinate an integer in ``[0, 65 535]``.

    Attributes
    ----------
    start_time:
        Timestamp of the first step.
    keys:
        ``array('q')`` of packed cell keys, one per tick from
        ``start_time``.  Shared with the native kernel; never mutate it.
    """

    __slots__ = ("start_time", "keys", "_steps")

    def __init__(self, steps: Iterable[TimedCell]) -> None:
        ticks, xs, ys = _columns(steps, 3)
        start = ticks[0]
        if not isinstance(start, int):
            raise ConflictError("path timestamps must be integers")
        if ticks != tuple(range(start, start + len(ticks))):
            t0, t1 = next((t0, t1) for t0, t1 in zip(ticks, ticks[1:])
                          if t1 != t0 + 1)
            raise ConflictError(
                f"non-consecutive timestamps {t0} -> {t1} in path")
        _init(self, start, _pack(xs, ys))

    def __setattr__(self, name, value=None):
        raise AttributeError(f"cannot assign to field {name!r}")

    __delattr__ = __setattr__

    # -- constructors --------------------------------------------------------

    @classmethod
    def from_cells(cls, cells: Sequence[Cell], start_time: Tick) -> "Path":
        """Build a path from a cell sequence starting at ``start_time``."""
        return packed_path(start_time, _pack(*_columns(cells, 2)))

    @classmethod
    def waiting(cls, cell: Cell, start_time: Tick, duration: int) -> "Path":
        """A path that waits in ``cell`` for ``duration`` ticks."""
        if duration < 0:
            raise ConflictError("wait duration must be >= 0")
        x, y = cell
        return packed_path(start_time, _pack((x,), (y,)) * (duration + 1))

    # -- accessors -----------------------------------------------------------

    @property
    def steps(self) -> Tuple[TimedCell, ...]:
        """The ``(t, x, y)`` triples, derived from the keys on first read."""
        steps = self._steps
        if steps is None:
            steps = tuple([(t, key >> CELL_KEY_SHIFT, key & CELL_KEY_MASK)
                           for t, key in enumerate(self.keys,
                                                   self.start_time)])
            object.__setattr__(self, "_steps", steps)
        return steps

    @property
    def end_time(self) -> Tick:
        """Timestamp at which the robot occupies the final cell."""
        return self.start_time + len(self.keys) - 1

    @property
    def source(self) -> Cell:
        """First cell of the path."""
        key = self.keys[0]
        return (key >> CELL_KEY_SHIFT, key & CELL_KEY_MASK)

    @property
    def goal(self) -> Cell:
        """Final cell of the path."""
        key = self.keys[-1]
        return (key >> CELL_KEY_SHIFT, key & CELL_KEY_MASK)

    @property
    def duration(self) -> int:
        """Number of ticks the path spans (0 for a single-step path)."""
        return len(self.keys) - 1

    def cell_at(self, t: Tick) -> Cell:
        """The cell occupied at time ``t`` (clamped to the endpoints).

        Before ``start_time`` the robot is at the source; after
        ``end_time`` it stays at the goal — matching how the simulator
        treats a robot that has finished a leg and is waiting for the next.
        """
        keys = self.keys
        key = keys[min(max(t - self.start_time, 0), len(keys) - 1)]
        return (key >> CELL_KEY_SHIFT, key & CELL_KEY_MASK)

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
            cells.extend(_cells(self.keys[lo - start:hi - start + 1]))
        if t_to > end:
            cells.extend([self.goal] * (t_to - max(end, t_from - 1)))
        return cells

    def __len__(self) -> int:
        return len(self.keys)

    def __iter__(self) -> Iterator[TimedCell]:
        return iter(self.steps)

    def __eq__(self, other) -> bool:
        if other.__class__ is not Path:
            return NotImplemented
        return (self.start_time == other.start_time
                and self.keys == other.keys)

    def __hash__(self) -> int:
        return hash((self.start_time, self.keys.tobytes()))

    def __repr__(self) -> str:
        return f"Path(steps={self.steps!r})"

    def concat(self, other: "Path") -> "Path":
        """Join two paths where ``other`` starts when ``self`` ends.

        ``other`` must begin at ``self``'s goal with timestamp
        ``self.end_time`` (the shared step is de-duplicated).  Both
        halves are validated paths and the seam is checked here, so the
        join is valid without re-walking every step — which made leg
        assembly quadratic.
        """
        if other.start_time != self.end_time or other.keys[0] != self.keys[-1]:
            raise ConflictError(
                f"cannot concat: {self.goal}@{self.end_time} vs "
                f"{other.source}@{other.start_time}")
        return packed_path(self.start_time, self.keys + other.keys[1:])

    def spatial_cells(self) -> List[Cell]:
        """The cell sequence without timestamps (useful in tests)."""
        return _cells(self.keys)

    # -- pickling ------------------------------------------------------------

    def __getstate__(self):
        # A key fits 32 bits (two 16-bit halves), so a checkpoint holds
        # four bytes a step, native order like the mission ledger.
        return self.start_time, array("I", self.keys).tobytes()

    def __setstate__(self, state) -> None:
        start_time, blob = state
        narrow = array("I")
        narrow.frombytes(blob)
        _init(self, start_time, array("q", narrow))


#: The slots' own setters, which ``object.__setattr__`` reaches after a
#: lookup (``Path`` itself refuses assignment).
_SET_START, _SET_KEYS, _SET_STEPS = (
    Path.start_time.__set__, Path.keys.__set__, Path._steps.__set__)


def _init(path: Path, start_time: Tick, keys: array) -> None:
    _SET_START(path, start_time)
    _SET_KEYS(path, keys)
    _SET_STEPS(path, None)


def packed_path(start_time: Tick, keys: array) -> Path:
    """A :class:`Path` over keys already checked, skipping the walk.

    For buffers the native kernel made (it applies the same rule before
    it returns one) and for joins and slices of validated paths.
    """
    path = object.__new__(Path)
    _init(path, start_time, keys)
    return path


def _columns(rows: Iterable[Sequence[int]], width: int) -> tuple:
    """``rows`` (at least one, ``width`` fields each) as columns."""
    try:
        columns = tuple(zip(*rows, strict=True))
    except (TypeError, ValueError):
        columns = None
    if columns == ():
        raise ConflictError("a path must contain at least one step")
    if columns is None or len(columns) != width:
        raise ConflictError(f"every path step must have {width} fields")
    return columns


def _cells(keys: Iterable[int]) -> List[Cell]:
    return [(key >> CELL_KEY_SHIFT, key & CELL_KEY_MASK) for key in keys]


def _pack(xs: Sequence[int], ys: Sequence[int]) -> array:
    """Packed keys of a cell sequence, checked against the path rule:
    integer coordinates that fit a key half, waits and unit moves only."""
    try:
        if (min(xs) < 0 or max(xs) > CELL_KEY_MASK
                or min(ys) < 0 or max(ys) > CELL_KEY_MASK):
            raise ConflictError(
                f"path coordinate outside [0, {CELL_KEY_MASK}]")
        keys = array("q", [(x << CELL_KEY_SHIFT) | y
                           for x, y in zip(xs, ys)])
    except TypeError:
        raise ConflictError("path coordinates must be integers")
    for x0, y0, x1, y1 in zip(xs, ys, xs[1:], ys[1:]):
        if abs(x1 - x0) + abs(y1 - y0) > 1:
            raise ConflictError(
                f"illegal jump ({x0},{y0}) -> ({x1},{y1}) in one tick")
    return keys
