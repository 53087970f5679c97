#!/usr/bin/env python
"""Service-mode soak runner — thin wrapper over ``repro.experiments.soak``.

Streams open-ended arrivals through a fixed fleet, closing steady-state
metric windows, checkpointing periodically, and proving that a mid-run
checkpoint→restore→continue is bit-identical to the uninterrupted run.
Run from the repo root (no PYTHONPATH needed)::

    python scripts/soak.py --planner EATP --duration 20000 --out soak.json
    python scripts/soak.py --smoke

See ``python scripts/soak.py --help`` for every knob; the timed
service-mode workload is ``bench/run.py --workload service-eatp``.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.experiments.soak import main  # noqa: E402

if __name__ == "__main__":
    main()
