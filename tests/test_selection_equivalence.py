"""Rescan twins of the rewritten selectors.

Every planner's selection reads maintained or static per-rack facts — the
batch sum and oldest arrival kept on the rack, d(l_r, l_p) computed once,
the learner core over a rack's facts (ATP's ranking, EATP's flip, the
greedy updates), ILP's numpy cost matrix.  Each test here holds
the straightforward form in the test file (``_scan_*``: observe
everything, loop over every pair, one sort of the concatenated groups)
and demands the production selector agree with it exactly: same keys,
same order, same matrix, same entries, same learner afterwards.  The
greedy walk reads the world's per-picker index, so its twin is fed the
flat selectable list after random deliveries, dispatches and returns.
The last test pins every planner's full run on one Table II scenario.
"""

from __future__ import annotations

import copy
import hashlib
import json
from typing import Dict, List

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.config import PlannerConfig, QLearningConfig
from repro.experiments.harness import run_planner
from repro.planners import PLANNERS, most_slack_first
from repro.planners.atp import AdaptiveTaskPlanner
from repro.planners.base import SelectionEntry
from repro.planners.eatp import EfficientAdaptiveTaskPlanner
from repro.planners.ilp import IlpPlanner
from repro.rl.mdp import ACTION_REQUEST, ACTION_WAIT, RackObservation
from repro.sim.serialize import deterministic_view, result_to_dict
from repro.types import manhattan
from repro.warehouse.entities import Item, Rack
from repro.warehouse.layout import build_layout
from repro.warehouse.state import WarehouseState
from repro.workloads.datasets import make_syn_a

SETTINGS = settings(max_examples=60, deadline=None)

N_RACKS, N_PICKERS, WIDTH, HEIGHT = 12, 3, 24, 16


def draw_world(data, n_robots: int = 4) -> WarehouseState:
    """A small floor with random picker load, rack history and batches."""
    state = WarehouseState.from_layout(
        build_layout(WIDTH, HEIGHT, n_racks=N_RACKS, n_pickers=N_PICKERS),
        n_robots)
    small = st.integers(0, 400)
    for picker in state.pickers:
        picker.accumulated_processing = data.draw(small)
        # Few distinct values, so f_p ties between pickers happen.
        picker.remaining_current = data.draw(st.sampled_from([0, 5, 40]))
        picker.queued_processing = data.draw(st.sampled_from([0, 60, 200]))
    item_id = 0
    for rack in state.racks:
        rack.accumulated_processing = data.draw(small)
        for __ in range(data.draw(st.integers(0, 4))):
            state.deliver_item(Item(item_id, rack.rack_id,
                                    data.draw(st.integers(0, 50)),
                                    data.draw(st.integers(1, 90))))
            item_id += 1
    for robot in state.robots:
        robot.location = (data.draw(st.integers(0, WIDTH - 1)),
                          data.draw(st.integers(0, HEIGHT - 1)))
    state.check_invariants()
    return state


def _scan_observe(state: WarehouseState, rack: Rack) -> RackObservation:
    """Sec. V-A's observation, every field rescanned from the entities."""
    picker = state.pickers[rack.picker_id]
    return RackObservation(
        picker_accumulated=picker.accumulated_processing,
        rack_accumulated=rack.accumulated_processing,
        picker_finish_time=picker.remaining_current + picker.queued_processing,
        distance_to_picker=manhattan(rack.home, picker.location),
        batch_processing_time=sum(item.processing_time
                                  for item in rack.pending_items),
        n_pending=len(rack.pending_items))


def _scan_select_learned(planner: AdaptiveTaskPlanner, racks: List[Rack],
                         budget: int) -> List[SelectionEntry]:
    """Alg. 2 lines 11–19 with every selectable rack observed up front."""
    agent = planner.agent
    observations: Dict[int, RackObservation] = {
        rack.rack_id: _scan_observe(planner.state, rack) for rack in racks}
    ordered = sorted(racks, key=lambda rack: (
        agent.priority(observations[rack.rack_id]), rack.rack_id))
    entries: List[SelectionEntry] = []
    for rack in ordered:
        observation = observations[rack.rack_id]
        if agent.choose_action(observation) == ACTION_REQUEST:
            entries.append(SelectionEntry(rack=rack))
            agent.update(observation, ACTION_REQUEST)
            if len(entries) == budget:
                break
        else:
            agent.update(observation, ACTION_WAIT)
    return entries


def _scan_select_flipped(planner: EfficientAdaptiveTaskPlanner,
                         robots) -> List[SelectionEntry]:
    """Alg. 3 lines 10–13 with every candidate observed: each robot's K
    nearest homes by (distance, id), its selectable racks ordered by
    ``agent.priority``, robots by their best priority, then ε-greedy."""
    agent, state = planner.agent, planner.state
    per_robot = []
    for robot in robots:
        nearest = sorted(state.racks, key=lambda rack: (
            manhattan(robot.location, rack.home), rack.rack_id))
        observed = [(_scan_observe(state, rack), rack)
                    for rack in nearest[:planner.config.knn_k]
                    if rack.selectable]
        observed.sort(key=lambda pair: (agent.priority(pair[0]),
                                        pair[1].rack_id))
        best = (agent.priority(observed[0][0]) if observed
                else float("inf"))
        per_robot.append((best, robot.robot_id, robot, observed))
    per_robot.sort(key=lambda entry: entry[:2])
    claimed = set()
    entries: List[SelectionEntry] = []
    for __, __, robot, observed in per_robot:
        for observation, rack in observed:
            if rack.rack_id in claimed:
                continue
            action = agent.choose_action(observation)
            agent.update(observation, action)
            if action == ACTION_REQUEST:
                entries.append(SelectionEntry(rack=rack, robot=robot))
                claimed.add(rack.rack_id)
                break
    return entries


def _scan_cost_matrix(state: WarehouseState, racks: List[Rack],
                      robots) -> np.ndarray:
    """The ILP cost matrix, one python evaluation of Eq. 2 per pair."""
    cost = np.zeros((len(robots), len(racks)), dtype=np.float64)
    for i, robot in enumerate(robots):
        for j, rack in enumerate(racks):
            picker = state.pickers[rack.picker_id]
            d_rp = manhattan(rack.home, picker.location)
            f_p = picker.remaining_current + picker.queued_processing
            batch = sum(item.processing_time for item in rack.pending_items)
            transport = manhattan(robot.location, rack.home) + d_rp
            cost[i, j] = (transport + max(f_p - transport, 0) + batch
                          + d_rp)
    return cost


def _scan_most_slack_first(racks: List[Rack], budget: int,
                           finish_time) -> List[SelectionEntry]:
    """Group by picker, pickers by (f_p, id), racks by id, concatenate."""
    by_picker: Dict[int, List[Rack]] = {}
    for rack in racks:
        by_picker.setdefault(rack.picker_id, []).append(rack)
    ordered = [rack
               for pid in sorted(by_picker,
                                 key=lambda pid: (finish_time(pid), pid))
               for rack in sorted(by_picker[pid], key=lambda r: r.rack_id)]
    return [SelectionEntry(rack=rack) for rack in ordered[:max(budget, 0)]]


def by_picker(racks: List[Rack]) -> Dict[int, List[Rack]]:
    """``selectable_by_picker``'s shape: racks by id under their picker,
    pickers 0-4 present with or without racks."""
    index: Dict[int, List[Rack]] = {pid: [] for pid in range(5)}
    for rack in sorted(racks, key=lambda r: r.rack_id):
        index[rack.picker_id].append(rack)
    return index


def seed_table(planner: AdaptiveTaskPlanner, data) -> None:
    """Random Q-values over the buckets the drawn worlds reach; a small
    value set, so equal priorities (ties broken by rack id) occur."""
    value = st.sampled_from([-300.0, -120.5, -40.0, -7.25, 0.0])
    for key in data.draw(st.lists(
            st.tuples(st.integers(0, 8), st.integers(0, 8)),
            max_size=30)):
        for action in (ACTION_WAIT, ACTION_REQUEST):
            planner.agent.table.set(key, action, data.draw(value))


def ids(entries) -> List[int]:
    return [getattr(entry, "rack", entry).rack_id for entry in entries]


class TestAtpRanking:
    @SETTINGS
    @given(st.data())
    def test_ranking_is_priority_of_the_observation(self, data):
        state = draw_world(data)
        planner = AdaptiveTaskPlanner(state)
        seed_table(planner, data)
        racks = state.selectable_racks()
        agent = planner.agent
        for rack in racks:
            assert planner.facts(rack) == agent.facts(
                _scan_observe(state, rack))
        expected = sorted((agent.priority(_scan_observe(state, rack)),
                           rack.rack_id) for rack in racks)
        assert [key[:2] for key in planner._ranked(racks)] == expected

    @SETTINGS
    @given(st.data())
    def test_learned_selection_matches_the_observe_everything_twin(self,
                                                                   data):
        planner = AdaptiveTaskPlanner(draw_world(data))
        seed_table(planner, data)
        twin = copy.deepcopy(planner)
        budget = data.draw(st.integers(1, N_RACKS + 1))
        got = planner._select_learned(planner.state.selectable_racks(),
                                      budget)
        want = _scan_select_learned(twin, twin.state.selectable_racks(),
                                    budget)
        assert ids(got) == ids(want)
        assert dict(planner.agent.table) == dict(twin.agent.table)
        assert planner.agent._rng.getstate() == twin.agent._rng.getstate()

    @SETTINGS
    @given(st.data())
    def test_greedy_updates_match_the_observation_updates(self, data):
        planner = AdaptiveTaskPlanner(draw_world(data))
        seed_table(planner, data)
        twin = copy.deepcopy(planner)
        racks = planner.state.selectable_racks()
        if not racks:  # the planner never selects from an empty list
            return
        budget = data.draw(st.integers(1, N_RACKS + 1))
        got = planner._select_greedy(racks, budget)
        for entry in got:
            twin.agent.update(_scan_observe(twin.state, entry.rack),
                              ACTION_REQUEST, greedy=True)
        assert dict(planner.agent.table) == dict(twin.agent.table)
        assert vars(planner.agent.stats) == vars(twin.agent.stats)


class TestEatpFlip:
    @SETTINGS
    @given(st.data())
    def test_flip_matches_the_observe_everything_twin(self, data):
        state = draw_world(data, n_robots=data.draw(st.integers(1, 6)))
        config = PlannerConfig(
            knn_k=data.draw(st.integers(1, N_RACKS + 2)),
            qlearning=QLearningConfig(
                epsilon=data.draw(st.sampled_from([0.0, 0.1, 0.5]))))
        planner = EfficientAdaptiveTaskPlanner(state, config)
        seed_table(planner, data)
        twin = copy.deepcopy(planner)
        robots = planner.state.idle_robots()
        got = planner._select_flipped(planner.state.selectable_racks(),
                                      robots)
        want = _scan_select_flipped(twin, twin.state.idle_robots())
        assert ids(got) == ids(want)
        assert ([entry.robot.robot_id for entry in got]
                == [entry.robot.robot_id for entry in want])
        assert dict(planner.agent.table) == dict(twin.agent.table)
        assert vars(planner.agent.stats) == vars(twin.agent.stats)
        assert planner.agent._rng.getstate() == twin.agent._rng.getstate()


class TestIlpCostMatrix:
    @SETTINGS
    @given(st.data())
    def test_numpy_matrix_equals_the_double_loop(self, data):
        state = draw_world(data, n_robots=data.draw(st.integers(1, 6)))
        planner = IlpPlanner(state)
        # Any order and subset of racks: columns follow the caller's list.
        racks = data.draw(st.permutations(state.racks))[
            :data.draw(st.integers(1, N_RACKS))]
        robots = state.idle_robots()
        cost = planner._cost_matrix(racks, robots)
        assert cost.dtype == np.float64
        assert np.array_equal(cost, _scan_cost_matrix(state, racks, robots))


class TestMostSlackFirst:
    @SETTINGS
    @given(picker_of=st.lists(st.integers(0, 4), max_size=14),
           finish=st.lists(st.integers(0, 3), min_size=5, max_size=5),
           budget=st.integers(0, 17))
    def test_equals_group_and_sort(self, picker_of, finish, budget):
        racks = [Rack(rack_id=i, home=(0, i), picker_id=pid)
                 for i, pid in enumerate(picker_of)]
        got = most_slack_first(by_picker(racks), budget, finish.__getitem__)
        assert ids(got) == ids(
            _scan_most_slack_first(racks, budget, finish.__getitem__))

    @pytest.mark.parametrize("budget", [0, 3, 99])
    def test_edges_budget_and_tied_finish_times(self, budget):
        # Pickers 2 and 0 tie on f_p; the picker id breaks it.
        racks = [Rack(rack_id=i, home=(0, i), picker_id=pid)
                 for i, pid in enumerate([2, 1, 0, 2, 0, 1])]
        finish = {0: 7, 1: 9, 2: 7}.__getitem__
        got = most_slack_first(by_picker(racks), budget, finish)
        assert ids(got) == [2, 4, 0, 3, 1, 5][:budget]
        assert ids(got) == ids(_scan_most_slack_first(racks, budget, finish))

    @SETTINGS
    @given(st.data())
    def test_kept_index_equals_the_flat_rescan(self, data):
        # Deliveries, dispatches (an idle robot takes the batch and the
        # rack) and returns in any order: the index the walk reads stays
        # the grouping of the flat selectable list.
        state = draw_world(data)
        carrier = {}
        item_id = 1_000
        for op, rack_id in data.draw(st.lists(st.tuples(
                st.sampled_from(["deliver", "dispatch", "return"]),
                st.integers(0, N_RACKS - 1)), max_size=40)):
            rack = state.racks[rack_id]
            if op == "deliver":
                state.deliver_item(Item(item_id, rack_id, 0,
                                        data.draw(st.integers(1, 90))))
                item_id += 1
            elif op == "dispatch" and rack.selectable and state.idle_robots():
                robot = carrier[rack_id] = state.idle_robots()[0]
                state.dispatch(robot, rack)
            elif op == "return" and rack_id in carrier:
                state.return_home(carrier.pop(rack_id), rack, 0)
            state.check_invariants()
            budget = data.draw(st.integers(0, N_RACKS + 1))
            finish = data.draw(st.lists(st.integers(0, 3),
                                        min_size=N_PICKERS,
                                        max_size=N_PICKERS)).__getitem__
            assert ids(most_slack_first(state.selectable_by_picker(),
                                        budget, finish)) == ids(
                _scan_most_slack_first(state.selectable_racks(), budget,
                                       finish))


#: sha256 of each planner's deterministic view on Syn-A (scale 1): the
#: runs before the selectors were rewritten, unchanged by it.
SYN_A_DIGESTS = {
    "ATP": "5e8e96f2024071fece9edde5d5ff2fe326c4b9975f458237261d9d2dd7bfd15a",
    "EATP": "2f320330259226cdc366b0cd81d22b7baf30245ef8b45e12effa2dddd110c8b7",
    "ILP": "cfabf76b173653ade11053f1513749ee194fdb9ecdbae012acd62ffa23aaeca0",
    "LEF": "71f50ad532f5d41f152a09266c8200b141e2c219fa8a260e558e78ade74157af",
    "NTP": "13eeaebcf87ceda3c94b9bd857687131d2294e3a762e699a45d5b3c27ca69990",
}


@pytest.mark.parametrize("planner", sorted(PLANNERS))
def test_table2_run_keeps_its_digest(planner):
    view = deterministic_view(result_to_dict(run_planner(make_syn_a(),
                                                         planner)))
    blob = json.dumps(view, sort_keys=True, separators=(",", ":"))
    assert (hashlib.sha256(blob.encode("utf-8")).hexdigest()
            == SYN_A_DIGESTS[planner])
