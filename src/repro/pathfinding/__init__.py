"""Conflict-free path finding: spatiotemporal A*, reservations, cache."""

from .cache import ShortestPathCache, follow_with_waits
from .cdt import ConflictDetectionTable
from .conflicts import (Conflict, ConflictKind, find_conflicts,
                        is_conflict_free, paths_conflict)
from .free_flow import FreeFlowPathCache
from .heuristics import (HeuristicField, HeuristicFieldCache,
                         manhattan_heuristic)
from .paths import Path
from .pipeline import (FASTPATH_AUDIT_REJECT, FASTPATH_HIT, FASTPATH_MISS,
                       FASTPATH_OFF, TIER_FREE_FLOW, TIER_FULL, TIER_WAIT,
                       TIERS, FallbackChain, LegPlan)
from .reservation import ReservationTable
from .spatiotemporal_graph import SpatiotemporalGraph
from .st_astar import (SEARCH_BUDGET, SEARCH_COMPLETE, SEARCH_EXHAUSTED,
                       SearchOutcome, SearchRequest, SearchStats, find_path,
                       search)

__all__ = [
    "Conflict",
    "ConflictDetectionTable",
    "ConflictKind",
    "FASTPATH_AUDIT_REJECT",
    "FASTPATH_HIT",
    "FASTPATH_MISS",
    "FASTPATH_OFF",
    "FallbackChain",
    "FreeFlowPathCache",
    "HeuristicField",
    "HeuristicFieldCache",
    "LegPlan",
    "Path",
    "ReservationTable",
    "SEARCH_BUDGET",
    "SEARCH_COMPLETE",
    "SEARCH_EXHAUSTED",
    "SearchOutcome",
    "SearchRequest",
    "SearchStats",
    "ShortestPathCache",
    "SpatiotemporalGraph",
    "TIERS",
    "TIER_FREE_FLOW",
    "TIER_FULL",
    "TIER_WAIT",
    "find_conflicts",
    "find_path",
    "search",
    "follow_with_waits",
    "is_conflict_free",
    "manhattan_heuristic",
    "paths_conflict",
]
