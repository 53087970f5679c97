"""The validation system: simulator, missions, queueing, metrics, trace."""

from .engine import Simulation, SimulationResult
from .ledger import MissionLedger
from .metrics import (CheckpointSample, MetricsRecorder, RunMetrics,
                      picker_processing_rate, robot_working_rate)
from .missions import Mission, MissionStage
from .queueing import ProcessingCompletion, enqueue_rack, process_picker_tick
from .serialize import (deterministic_view, metrics_from_dict,
                        metrics_to_dict, result_to_dict, trace_from_dict,
                        trace_to_dict)
from .trace import BottleneckSample, BottleneckTrace

__all__ = [
    "BottleneckSample",
    "BottleneckTrace",
    "CheckpointSample",
    "MetricsRecorder",
    "Mission",
    "MissionLedger",
    "MissionStage",
    "ProcessingCompletion",
    "RunMetrics",
    "Simulation",
    "SimulationResult",
    "deterministic_view",
    "enqueue_rack",
    "metrics_from_dict",
    "metrics_to_dict",
    "picker_processing_rate",
    "process_picker_tick",
    "result_to_dict",
    "robot_working_rate",
    "trace_from_dict",
    "trace_to_dict",
]
