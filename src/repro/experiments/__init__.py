"""Experiment regenerators for every table and figure of the paper.

Table III and Figs. 10–12 are four projections of one matrix, the
``table2`` family's cells (:mod:`.table2`), so one stored run renders all
four; Fig. 13, the bad case, the ablations and the soak run their own.
"""

from .ablations import (sweep_cache_threshold, sweep_delta, sweep_knn,
                        sweep_reservation)
from .badcase import BadCaseResult, build_bad_case, run_bad_case
from .fig13 import BottleneckReport, render_fig13, run_fig13
from .harness import (DEFAULT_PLANNERS, SLOW_PLANNERS, MatrixCell,
                      execute_cell, plan_cells, run_matrix, run_planner)
from .matrix import render_matrix_summary
from .reporting import format_series, format_table, percent_improvement
from .store import ResultStore, open_store
from .table2 import (CheckpointSeries, checkpoint_series, makespans,
                     render_fig10, render_fig11, render_fig12, render_table3,
                     run_table2)

__all__ = [
    "BadCaseResult",
    "BottleneckReport",
    "CheckpointSeries",
    "DEFAULT_PLANNERS",
    "MatrixCell",
    "ResultStore",
    "SLOW_PLANNERS",
    "build_bad_case",
    "checkpoint_series",
    "execute_cell",
    "format_series",
    "format_table",
    "makespans",
    "open_store",
    "percent_improvement",
    "plan_cells",
    "render_fig10",
    "render_fig11",
    "render_fig12",
    "render_fig13",
    "render_matrix_summary",
    "render_table3",
    "run_bad_case",
    "run_matrix",
    "run_fig13",
    "run_planner",
    "run_table2",
    "sweep_cache_threshold",
    "sweep_delta",
    "sweep_knn",
    "sweep_reservation",
]
