"""Golden-trace regression suite.

One small, fully deterministic run per planner — metrics, the bottleneck
trace, and the completed mission order — is frozen as JSON under
``tests/golden/``.  The suite replays each run and diffs the serialised
result field by field, so *any* behavioural drift in selection, routing,
queueing or accounting shows up as a named-field diff rather than a
mysteriously shifted makespan three experiments later.

Wall-clock timing fields are excluded (see
:func:`repro.sim.serialize.deterministic_view`); everything else must
match exactly.

After an *intentional* behaviour change, regenerate with::

    PYTHONPATH=src python -m pytest tests/test_golden_traces.py --update-golden
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, List

import pytest

from repro.config import SimulationConfig
from repro.planners import PLANNERS
from repro.sim.missions import MissionStage
from repro.sim.serialize import deterministic_view, result_to_dict
from repro.workloads.datasets import make_mini
from repro.experiments.harness import run_planner

GOLDEN_DIR = Path(__file__).parent / "golden"

#: The frozen workload: small enough to run all five planners in seconds,
#: large enough that batching, queueing and return legs all occur.
GOLDEN_SEED = 20220513
GOLDEN_ITEMS = 48

#: Purely additive accounting keys introduced *after* a golden may have
#: been frozen.  A stored file that predates such a key simply never
#: recorded it; every behavioural field (makespan, missions, trace,
#: checkpoints, fallback tiers) still compares exactly, so the comparison
#: ignores the key rather than forcing a regeneration that would change
#: no behaviour.  Freshly written goldens include the key and pin it.
ADDITIVE_METRIC_KEYS = ("fastpath",)


def comparable(golden: Dict[str, Any], actual: Dict[str, Any]) -> Dict[str, Any]:
    """``actual`` restricted to the keys ``golden`` was frozen with."""
    trimmed = dict(actual)
    trimmed["metrics"] = dict(actual["metrics"])
    for key in ADDITIVE_METRIC_KEYS:
        if key not in golden.get("metrics", {}):
            trimmed["metrics"].pop(key, None)
    return trimmed


def golden_payload(planner: str) -> Dict[str, Any]:
    """Run one planner on the frozen workload; deterministic fields only."""
    scenario = make_mini(seed=GOLDEN_SEED, n_items=GOLDEN_ITEMS)
    result = run_planner(
        scenario, planner,
        sim_config=SimulationConfig(record_bottleneck_trace=True))
    return deterministic_view(result_to_dict(result))


def _flatten(payload: Any, prefix: str = "") -> Dict[str, Any]:
    """``{"metrics.makespan": 812, "missions[3].rack_id": 7, ...}``."""
    flat: Dict[str, Any] = {}
    if isinstance(payload, dict):
        for key, value in payload.items():
            flat.update(_flatten(value, f"{prefix}.{key}" if prefix else key))
    elif isinstance(payload, list):
        for i, value in enumerate(payload):
            flat.update(_flatten(value, f"{prefix}[{i}]"))
    else:
        flat[prefix] = payload
    return flat


def field_diff(expected: Any, actual: Any, limit: int = 12) -> List[str]:
    """Human-readable per-field differences between two payloads."""
    exp, act = _flatten(expected), _flatten(actual)
    lines = []
    for key in sorted(set(exp) | set(act)):
        if exp.get(key, "<absent>") != act.get(key, "<absent>"):
            lines.append(f"  {key}: golden={exp.get(key, '<absent>')!r} "
                         f"current={act.get(key, '<absent>')!r}")
        if len(lines) >= limit:
            lines.append("  ... (diff truncated)")
            break
    return lines


@pytest.mark.parametrize("planner", sorted(PLANNERS))
def test_golden_trace(planner, update_golden):
    path = GOLDEN_DIR / f"{planner.lower()}.json"
    actual = golden_payload(planner)
    if update_golden:
        GOLDEN_DIR.mkdir(exist_ok=True)
        path.write_text(json.dumps(actual, indent=2, sort_keys=True) + "\n",
                        encoding="utf-8")
        pytest.skip(f"rewrote {path.name}")
    assert path.is_file(), (
        f"missing golden file {path}; run pytest with --update-golden")
    golden = json.loads(path.read_text(encoding="utf-8"))
    actual = comparable(golden, actual)
    if golden != actual:
        diff = "\n".join(field_diff(golden, actual))
        pytest.fail(f"{planner} diverged from its golden trace:\n{diff}")


@pytest.mark.parametrize("planner", sorted(PLANNERS))
def test_result_missions_match_the_golden_mission_order(planner):
    """``result.missions`` — built from the ledger on first access — shows
    readers what the golden files froze when it was a list of objects."""
    result = run_planner(make_mini(seed=GOLDEN_SEED, n_items=GOLDEN_ITEMS),
                         planner)
    assert result._missions is None  # the run itself built no objects
    golden = json.loads(
        (GOLDEN_DIR / f"{planner.lower()}.json").read_text(encoding="utf-8"))
    missions = result.missions
    assert missions is result.missions  # built once
    assert [{"robot_id": m.robot_id, "rack_id": m.rack_id,
             "item_ids": [item.item_id for item in m.batch],
             "dispatched_at": m.dispatched_at}
            for m in missions] == golden["missions"]
    assert all(m.stage is MissionStage.DONE and m.path is None
               and m.stage_entered_at > m.dispatched_at for m in missions)
    assert all(item.rack_id == m.rack_id for m in missions
               for item in m.batch)


def test_golden_files_have_no_timing_fields():
    # Goldens must stay comparable across machines: wall-clock keys are
    # stripped at write time and must never sneak back in.
    for path in sorted(GOLDEN_DIR.glob("*.json")):
        payload = json.loads(path.read_text(encoding="utf-8"))
        assert payload == deterministic_view(payload), (
            f"{path.name} contains wall-clock timing fields")


def test_golden_covers_every_planner():
    missing = [name for name in PLANNERS
               if not (GOLDEN_DIR / f"{name.lower()}.json").is_file()]
    assert not missing, (
        f"planners without golden traces: {missing}; run --update-golden")
