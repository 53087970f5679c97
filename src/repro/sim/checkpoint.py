"""Checkpoint/restore of a live simulation (service mode).

A checkpoint captures a :class:`~repro.sim.engine.Simulation` mid-run —
the event calendar, every robot/picker/rack entity, live reservations,
the metrics recorder, the bottleneck trace, and the planner including its
RNG and learner state — so an open-ended run can stop and resume exactly
where it was.  Restore is *bit-identical*: draining a restored run
produces the same :func:`~repro.sim.serialize.deterministic_view` as the
uninterrupted run (the checkpoint round-trip tests pin this for all five
planners).

The payload is a versioned envelope of three sections after the magic:

1. a plain **header** (version, clock, planner, counts), readable
   without touching the rest, so stale or foreign files fail fast with a
   :class:`~repro.errors.CheckpointError` instead of an unpickling crash;
2. a pickle of the **live graph** — the simulation with its calendar,
   entities, reservations, planner and RNG, plus the caller's ``extra``.
   Pickle (not JSON) because the point is to resurrect live heaps, shared
   :class:`~repro.sim.missions.Mission` references and RNG state, none of
   which have a faithful JSON form.  An in-flight leg pickles as its
   start tick and packed key buffer (four bytes a step);
3. the **ledger** of completed missions, as the raw int64 columns of
   :class:`~repro.sim.ledger.MissionLedger` — history is data, copied,
   never walked.

So a dump costs what is live plus a memcpy of what has happened, and its
time does not grow with the length of the run.  What the live graph
leaves out lives with its owners: ``Simulation.__getstate__`` (the
ledger) and ``Planner.__getstate__`` (:mod:`repro.planners.base`,
structures rebuilt rather than stored).

The envelope version is the only compatibility rule: a change to the
pickled layout bumps :data:`CHECKPOINT_VERSION`, and files of any other
version are refused at the header, never converted.

Only trust checkpoints you produced: section 2 is a pickle, with
pickle's usual code-execution caveat for hostile files.
"""

from __future__ import annotations

import io
import os
import pickle
import platform
from pathlib import Path
from typing import Any, Dict, Optional, Tuple

from ..errors import CheckpointError
from .engine import Simulation
from .ledger import MissionLedger

#: First bytes of every checkpoint file (version-independent).
CHECKPOINT_MAGIC = b"repro-checkpoint"

#: Bump on any change to the envelope layout or to the pickled object
#: graph; restore refuses every other version and converts no older
#: layout.
CHECKPOINT_VERSION = 5

#: Pickle protocol pinned explicitly so checkpoints written on newer
#: interpreters stay readable on the oldest supported one.
_PICKLE_PROTOCOL = 4


def checkpoint_header(sim: Simulation,
                      extra: Optional[Dict[str, Any]] = None
                      ) -> Dict[str, Any]:
    """The plain-data header describing one checkpoint."""
    return {
        "version": CHECKPOINT_VERSION,
        "tick": sim.tick,
        "planner": sim.planner.name,
        "items_total": sim.items_total,
        "items_processed": sim.items_processed,
        "events_processed": sim.events_processed,
        "missions_completed": len(sim.ledger),
        "python": platform.python_version(),
        "has_extra": extra is not None,
    }


def dump_checkpoint(sim: Simulation,
                    extra: Optional[Dict[str, Any]] = None) -> bytes:
    """Serialise ``sim`` (plus optional harness state) to bytes.

    ``extra`` carries picklable harness-side state that must survive
    alongside the engine — the soak loop stores its arrival stream and
    feed cursor there, so a restored soak replays the exact item
    sequence the uninterrupted run saw.
    """
    return b"".join([
        CHECKPOINT_MAGIC,
        pickle.dumps(checkpoint_header(sim, extra), _PICKLE_PROTOCOL),
        pickle.dumps((sim, extra), _PICKLE_PROTOCOL),
        *sim.ledger.buffers()])


def load_checkpoint_bytes(blob: bytes
                          ) -> Tuple[Simulation, Optional[Dict[str, Any]]]:
    """Rebuild ``(simulation, extra)`` from :func:`dump_checkpoint` bytes."""
    if not blob.startswith(CHECKPOINT_MAGIC):
        raise CheckpointError(
            "not a repro checkpoint (missing envelope magic)")
    buffer = io.BytesIO(blob)
    buffer.seek(len(CHECKPOINT_MAGIC))
    header = _load_header(buffer, "checkpoint")
    if header["version"] != CHECKPOINT_VERSION:
        raise CheckpointError(
            f"checkpoint version {header['version']!r} is not supported "
            f"(this build reads version {CHECKPOINT_VERSION} only)")
    try:
        sim, extra = pickle.Unpickler(buffer).load()
    except Exception as exc:
        # E.g. the graph names a class this build no longer has.
        raise CheckpointError(
            f"checkpoint body is unreadable by this build: {exc}") from exc
    if not isinstance(sim, Simulation):
        raise CheckpointError(
            f"checkpoint body holds {type(sim).__name__}, not a Simulation")
    try:
        sim.ledger = MissionLedger.from_bytes(
            memoryview(blob)[buffer.tell():])
    except ValueError as exc:
        raise CheckpointError(f"checkpoint ledger is damaged: {exc}") from exc
    return sim, extra


def _load_header(fh, source) -> Dict[str, Any]:
    """Unpickle and shape-check the plain header at ``fh``'s position."""
    try:
        header = pickle.Unpickler(fh).load()
    except Exception as exc:  # truncated or garbled: any unpickling error
        raise CheckpointError(
            f"{source}: header is unreadable: {exc}") from exc
    if not isinstance(header, dict) or "version" not in header:
        raise CheckpointError(f"{source}: malformed checkpoint header")
    return header


def read_checkpoint_header(path: os.PathLike) -> Dict[str, Any]:
    """Read only the plain header of a checkpoint file (cheap probe)."""
    with Path(path).open("rb") as fh:
        magic = fh.read(len(CHECKPOINT_MAGIC))
        if magic != CHECKPOINT_MAGIC:
            raise CheckpointError(
                f"{path}: not a repro checkpoint (missing envelope magic)")
        return _load_header(fh, path)


def save_checkpoint(sim: Simulation, path: os.PathLike,
                    extra: Optional[Dict[str, Any]] = None) -> Path:
    """Atomically write a checkpoint file; returns its path.

    Same temp-file + ``os.replace`` discipline as the result store, so a
    crash mid-write never leaves a half-checkpoint a restart would trust.
    """
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    tmp = target.with_name(target.name + ".tmp")
    tmp.write_bytes(dump_checkpoint(sim, extra))
    os.replace(tmp, target)
    return target


def load_checkpoint(path: os.PathLike
                    ) -> Tuple[Simulation, Optional[Dict[str, Any]]]:
    """Restore ``(simulation, extra)`` from a checkpoint file."""
    return load_checkpoint_bytes(Path(path).read_bytes())
