"""Optional native search kernel for the spatiotemporal A* core.

``load_compiled()`` is a pure import probe: it returns the compiled
``_stsearch`` module when an artefact built from the C source on disk is
importable and ``None`` otherwise — it never invokes a compiler.
Building is always an explicit act (``scripts/build_kernel.py``, the
test/bench harnesses, or CI) via
:func:`repro.pathfinding._kernel.build.build_extension`, so importing the
library on a machine without a toolchain stays side-effect free and the
pure-python core remains the always-working fallback.

Whether native code serves is decided once: :data:`active` holds the
loaded module, or ``None``, and only
:func:`repro.pathfinding.st_astar.set_search_kernel` sets it (from
``REPRO_KERNEL`` at import).  Every plane reads it at call time — the
search, the reservation table's operations, the field flood and tier 0
— and one rule serves them all: with the switch on native code serves,
with it off the python body does, bit-identically.  The search and tier
0 take only the library's table and fields, so nothing declines.
EATP's K-nearest-racks table (:class:`repro.warehouse.knn.StaticRackKNN`)
is built by ``knn_fill`` under the same switch; a selection wake of
ATP or EATP — the ranked pass, EATP's flip over that table, or the
greedy branch both share — is one ``learned_select`` call, which ranks
the candidates and steps the learner; and the ILP baseline's
assignment (:class:`repro.planners.ilp.IlpPlanner`) is solved by
``lsap``, which returns ``scipy.optimize.linear_sum_assignment``'s answer
tie for tie (SciPy serves the python switch).

The entry points — ``prepare_grid``, ``run``, ``leg``, ``bfs_fill``,
``knn_fill``, ``learned_select``, ``lsap`` and the reservation store's
``store_new``, ``store_reserve``, ``store_purge``, ``store_probe``,
``store_counts``, ``store_export`` — carry their signatures as docstrings
(``help(_stsearch.leg)``).  A leg crosses the boundary as ``keys``: one
``array('q')`` of packed cell keys (``x << 16 | y``), one per
consecutive tick, which :class:`repro.pathfinding.paths.Path` wraps as
it came; ``run`` and ``leg`` return it, ``store_reserve`` takes
``(store, start_time, keys)``, and each checks it against the path rule.
``leg`` is the one call a compiled leg makes: tier 0, ``run``'s search
where tier 0 made no leg, then the insert of the keys it has just
checked (see :mod:`repro.pathfinding.pipeline`).

The store is one capsule per table, owned by the kernel: per-tick blocks
of open-addressed int64 keys in a ring indexed by ``tick - floor``, each
key a vertex with the edges that arrive on it as bits, allocated through
``PyMem_*``.  It holds its table weakly; a store whose table is gone, or
any other object in a store slot, is refused.

Inside ``run`` a seen state is one ``{key, parent, next}`` record; its
cost is its time layer, read off the key.  The records, a stamp per
cell (the seen-set of the cursor's f level) and the open lists are a
workspace the grid's capsule keeps up to a 1 MB arena (a warm ``run`` allocates only its leg; one a python signal
handler starts while another waits borrows a second workspace).

The search calls no python code: EATP's finisher is its trigger L, and
``run`` and ``leg`` walk it themselves (the rescue's descent and wait
walk), returning the whole leg and the cells the walks started from.
The one python code the kernel calls is the planner's RNG, from
``learned_select``: its ``random`` for each step's coin and its
``choice`` on an explored step, so the draws are python's own, in
python's order.  The build passes ``-ffp-contract=off``, so the
learner's floats are python's expressions, unfused.
"""

from __future__ import annotations

import importlib
from typing import Optional

from .build import build_extension, is_stale

#: Result of the last probe: ``False`` = not probed yet, ``None`` =
#: probed and absent, module = probed and loaded.
_probed = False
_module = None

#: The module every compiled plane calls, or ``None`` for the python
#: bodies (see the module docstring).
active = None


def load_compiled(refresh: bool = False):
    """Import-probe the compiled kernel; ``None`` when unavailable.

    ``refresh=True`` re-probes after an explicit build (the module is
    cached after the first successful import; a failed probe is retried
    only on refresh so steady-state callers pay one cached lookup).
    """
    global _probed, _module
    if _probed and not refresh:
        return _module
    if _module is None and not is_stale():
        # A binary compiled from some other ``_stsearchmodule.c`` may take
        # different arguments than this tree passes: never import it.
        try:
            _module = importlib.import_module(
                "repro.pathfinding._kernel._stsearch")
        except ImportError:
            _module = None
    _probed = True
    return _module


def build_and_load(force: bool = False):
    """Best-effort build then probe; ``None`` when either step fails."""
    if build_extension(force=force) is None:
        return None
    return load_compiled(refresh=True)


__all__ = ["load_compiled", "build_and_load"]
