"""The mission ledger: completed fulfilment cycles as packed columns.

A finished mission can never change again, so the engine does not keep
it as an object.  :meth:`MissionLedger.append` copies the fields every
reader uses into flat ``array('q')`` columns — one row per mission
(robot, rack, dispatch tick, completion tick, end of its batch in the
item columns) and one row per item (id, rack, arrival, processing time)
— and the :class:`~repro.sim.missions.Mission` with its
:class:`~repro.warehouse.entities.Item` batch is dropped.  The ledger is
the one structure of a service run that is *meant* to grow; everything
else the engine holds is proportional to what is live.

Columns are plain integers, so history is enumerable without walking
objects (:func:`~repro.sim.serialize.result_to_dict` reads them
directly), a checkpoint writes them as raw buffers beside the pickle of
the live graph (:mod:`repro.sim.checkpoint`), and ``Mission`` objects
exist again only for a reader that asks (:meth:`MissionLedger.missions`).
"""

from __future__ import annotations

import struct
from array import array
from typing import List, Sequence, Union

from ..warehouse.entities import Item
from .missions import Mission, MissionStage

#: Column names, in the order :meth:`MissionLedger.buffers` writes them.
_MISSION_COLUMNS = ("robot", "rack", "dispatched_at", "completed_at",
                    "batch_end")
_ITEM_COLUMNS = ("item_id", "item_rack", "item_arrival", "item_processing")

#: Mission and item row counts, ahead of the columns.  Counts and columns
#: are int64 in the writer's byte order: bytes from a machine of the other
#: order read as absurd counts and fail the size check below.
_COUNTS = struct.Struct("=qq")


def _packed_size(n_missions: int, n_items: int) -> int:
    return _COUNTS.size + 8 * (len(_MISSION_COLUMNS) * n_missions
                               + len(_ITEM_COLUMNS) * n_items)


class MissionLedger:
    """Append-only record of every mission that reached ``DONE``."""

    __slots__ = _MISSION_COLUMNS + _ITEM_COLUMNS

    def __init__(self, missions: Sequence[Mission] = ()) -> None:
        for name in self.__slots__:
            setattr(self, name, array("q"))
        for mission in missions:
            self.append(mission)

    def __len__(self) -> int:
        return len(self.robot)

    @property
    def n_items(self) -> int:
        """Items fulfilled by the recorded missions."""
        return len(self.item_id)

    @property
    def nbytes(self) -> int:
        """Size of the packed form (what a checkpoint writes)."""
        return _packed_size(len(self), self.n_items)

    def append(self, mission: Mission) -> None:
        """Record a mission that just entered ``DONE``."""
        self.robot.append(mission.robot_id)
        self.rack.append(mission.rack_id)
        self.dispatched_at.append(mission.dispatched_at)
        self.completed_at.append(mission.stage_entered_at)
        for item in mission.batch:
            self.item_id.append(item.item_id)
            self.item_rack.append(item.rack_id)
            self.item_arrival.append(item.arrival)
            self.item_processing.append(item.processing_time)
        self.batch_end.append(len(self.item_id))

    def missions(self) -> List[Mission]:
        """The recorded missions as objects, in completion order.

        Each equals the mission that was appended as it stood at
        ``DONE``: no path, ``stage_entered_at`` the completion tick.
        """
        items = [Item(*row) for row in zip(
            self.item_id, self.item_rack, self.item_arrival,
            self.item_processing)]
        out: List[Mission] = []
        start = 0
        for robot, rack, dispatched, completed, end in zip(
                self.robot, self.rack, self.dispatched_at,
                self.completed_at, self.batch_end):
            out.append(Mission(robot_id=robot, rack_id=rack,
                               batch=items[start:end], path=None,
                               stage=MissionStage.DONE,
                               dispatched_at=dispatched,
                               stage_entered_at=completed))
            start = end
        return out

    # -- the packed form ---------------------------------------------------

    def buffers(self) -> List[Union[bytes, array]]:
        """The packed form as a list of buffers (counts, then columns).

        The columns themselves, not copies: joining or writing them is
        the only copy a dump makes of history.
        """
        return ([_COUNTS.pack(len(self), self.n_items)]
                + [getattr(self, name) for name in self.__slots__])

    def to_bytes(self) -> bytes:
        """The packed form: the row counts, then the int64 columns."""
        return b"".join(self.buffers())

    @classmethod
    def from_bytes(cls, blob: bytes) -> "MissionLedger":
        """Rebuild a ledger from :meth:`to_bytes` output.

        Raises :class:`ValueError` for bytes that are not a whole ledger
        (short, long, or with batch offsets that do not partition the
        item columns).
        """
        view = memoryview(blob)
        n_missions, n_items = (_COUNTS.unpack_from(view)
                               if len(view) >= _COUNTS.size else (-1, -1))
        if (n_missions < 0 or n_items < 0
                or len(view) != _packed_size(n_missions, n_items)):
            raise ValueError(
                f"ledger section is {len(view)} bytes, which is not what "
                f"its row counts ({n_missions} missions, {n_items} items) "
                f"pack to")
        ledger = cls()
        offset = _COUNTS.size
        for name in cls.__slots__:
            size = 8 * (n_missions if name in _MISSION_COLUMNS else n_items)
            column = array("q")
            column.frombytes(view[offset:offset + size])
            setattr(ledger, name, column)
            offset += size
        ends = ledger.batch_end
        if (any(b <= a for a, b in zip([0] + ends.tolist(), ends))
                or (ends[-1] if ends else 0) != n_items):
            raise ValueError(
                "ledger batch offsets do not partition its item columns")
        return ledger
