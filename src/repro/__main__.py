"""Command-line entry point: ``python -m repro <experiment> [options]``.

A thin dispatcher over the experiment regenerators, so the whole
evaluation can be driven without writing Python:

    python -m repro table3 --scale 0.5 --workers 4
    python -m repro fig10 --dataset Syn-A
    python -m repro matrix --family table2 --workers 4 --results-dir results
    python -m repro fig11 --results-dir results
    python -m repro fig13
    python -m repro badcase --k 10
    python -m repro ablations --which a4
    python -m repro matrix --family fleet-ladder --workers 4 --results-dir results
    python -m repro soak --planner EATP --duration 20000

``table3`` and ``fig10``–``fig12`` render the ``table2`` matrix: with
``--results-dir`` they read the cells ``matrix --family table2`` stored
there and run only the missing ones.
"""

from __future__ import annotations

import sys
from functools import partial

from .errors import ReproError
from .experiments import ablations, badcase, fig13, matrix, soak, table2

_COMMANDS = {
    **{name: partial(table2.main, name) for name in table2.RENDERERS},
    "fig13": fig13.main,
    "badcase": badcase.main,
    "ablations": ablations.main,
    "matrix": matrix.main,
    "soak": soak.main,
}


def main(argv=None) -> int:
    args = list(sys.argv[1:] if argv is None else argv)
    if not args or args[0] in ("-h", "--help") or args[0] not in _COMMANDS:
        names = ", ".join(sorted(_COMMANDS))
        print(f"usage: python -m repro <experiment> [options]\n"
              f"experiments: {names}")
        return 0 if args and args[0] in ("-h", "--help") else 2
    command, rest = args[0], args[1:]
    try:
        _COMMANDS[command](rest)
    except ReproError as error:  # a refused input, not a fault
        print(f"repro: {type(error).__name__}: {error}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
