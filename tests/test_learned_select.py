"""The kernel's ``learned_select``: one call per selection wake.

Under the compiled switch ATP's ranked pass (Alg. 2 lines 11–19),
EATP's flip (Alg. 3 lines 10–13) and the greedy branch both share
(Alg. 2 lines 6–9) are each one ``learned_select`` call: the
candidates, their Sec. V-A facts, the lookahead keys, the order and the
learner steps, with the planner's own RNG drawn in python's order.
The python pass — ``_ranked`` then ``_requests``, the flip over
``StaticRackKNN.select``, ``most_slack_first`` then ``learn`` — is the
oracle: on deep copies of random
worlds and Q tables both must leave the same entries, the same rows and
masks, the same ``LearnerStats`` and the same RNG state.  A malformed
argument is refused before the first draw, so it leaves all of that as
it was.
"""

from __future__ import annotations

import copy

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.config import PlannerConfig, QLearningConfig
from repro.pathfinding._kernel import build_and_load
from repro.planners.atp import AdaptiveTaskPlanner
from repro.planners.eatp import EfficientAdaptiveTaskPlanner
from repro.rl.mdp import ACTION_REQUEST, ACTION_WAIT
from repro.warehouse.entities import Item
from repro.warehouse.layout import build_layout
from repro.warehouse.state import WarehouseState
from tests.conftest import count_kernel_calls, kernel_switch

COMPILED = build_and_load()

pytestmark = pytest.mark.skipif(
    COMPILED is None,
    reason="native kernel unavailable (no compiler or REPRO_KERNEL_BUILD=0)")

N_RACKS, N_PICKERS, WIDTH, HEIGHT = 12, 3, 24, 16


def draw_world(data, n_robots: int) -> WarehouseState:
    """A small floor with random picker load, rack history and batches;
    robots stand on a few cells, so they share candidates."""
    state = WarehouseState.from_layout(
        build_layout(WIDTH, HEIGHT, n_racks=N_RACKS, n_pickers=N_PICKERS),
        n_robots)
    small = st.integers(0, 400)
    for picker in state.pickers:
        picker.accumulated_processing = data.draw(small)
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
    cells = data.draw(st.lists(
        st.tuples(st.integers(0, WIDTH - 1), st.integers(0, HEIGHT - 1)),
        min_size=1, max_size=3))
    for robot in state.robots:
        robot.location = data.draw(st.sampled_from(cells))
    return state


def draw_config(data) -> PlannerConfig:
    return PlannerConfig(
        knn_k=data.draw(st.integers(1, N_RACKS)),
        qlearning=QLearningConfig(
            epsilon=data.draw(st.sampled_from([0.0, 0.1, 1.0])),
            learning_rate=data.draw(st.sampled_from([0.1, 0.37, 1.0])),
            discount=data.draw(st.sampled_from([0.0, 0.9, 0.99])),
            state_bin_width=data.draw(st.sampled_from([1, 7, 60])),
            deferral_weight=data.draw(st.sampled_from([0.5, 10.0, 3.3]))))


def seed_table(planner, data) -> None:
    """Q values over some of the states the drawn worlds reach, one
    action or both: the rest of the rows, or of a row, stay missing."""
    value = st.one_of(st.sampled_from([-300.0, -40.0, 0.0]),
                      st.floats(-1e4, 1e3, allow_nan=False))
    width = planner.agent.config.state_bin_width
    span = 400 // width + 6
    for key in data.draw(st.lists(
            st.tuples(st.integers(0, span), st.integers(0, span)),
            max_size=40)):
        for action in data.draw(st.sampled_from(
                [(ACTION_WAIT,), (ACTION_REQUEST,),
                 (ACTION_WAIT, ACTION_REQUEST)])):
            planner.agent.table.set(key, action, data.draw(value))


def learner_view(planner):
    """What a wake may change: the rows (masks included), the entry
    count, the stats and the RNG."""
    agent = planner.agent
    return (copy.deepcopy(agent.table.rows), agent.table._entries,
            vars(agent.stats).copy(), agent._rng.getstate())


def picks(entries):
    return [(entry.rack.rack_id,
             None if entry.robot is None else entry.robot.robot_id)
            for entry in entries]


def both_ways(planner, select):
    """``select`` on ``planner`` under the compiled switch and on a deep
    copy under the python switch: ``(ours, theirs, twin)``."""
    twin = copy.deepcopy(planner)
    with kernel_switch("python"):
        theirs = select(twin)
    with kernel_switch("compiled"):
        with count_kernel_calls(COMPILED, ["learned_select"]) as calls:
            ours = select(planner)
    assert calls["learned_select"] == 1
    return ours, theirs, twin


class TestEqualsThePythonPass:
    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_atp_pass(self, data):
        state = draw_world(data, n_robots=data.draw(st.integers(1, 6)))
        planner = AdaptiveTaskPlanner(state, draw_config(data))
        seed_table(planner, data)
        budget = data.draw(st.integers(1, N_RACKS + 1))
        ours, theirs, twin = both_ways(
            planner, lambda side: side._select_learned(budget))
        assert picks(ours) == picks(theirs)
        assert learner_view(planner) == learner_view(twin)

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_eatp_flip(self, data):
        state = draw_world(data, n_robots=data.draw(st.integers(1, 6)))
        planner = EfficientAdaptiveTaskPlanner(state, draw_config(data))
        seed_table(planner, data)
        ours, theirs, twin = both_ways(
            planner, lambda side: side._select_flipped(
                side.state.idle_robots()))
        assert picks(ours) == picks(theirs)
        assert learner_view(planner) == learner_view(twin)

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_greedy_branch(self, data):
        state = draw_world(data, n_robots=data.draw(st.integers(1, 6)))
        planner = AdaptiveTaskPlanner(state, draw_config(data))
        seed_table(planner, data)
        budget = data.draw(st.integers(-1, N_RACKS + 1))
        draws = planner.agent._rng.getstate()
        ours, theirs, twin = both_ways(
            planner, lambda side: side._select_greedy(budget))
        assert picks(ours) == picks(theirs)
        assert learner_view(planner) == learner_view(twin)
        assert planner.agent._rng.getstate() == draws  # it draws nothing

    @pytest.mark.parametrize("flip", [False, True], ids=["atp", "eatp"])
    def test_a_wake_past_the_stack_buffers(self, flip):
        # More pickers, candidates, robots and distinct states than the
        # call keeps on the C stack: its heap buffers and a memo that
        # grows serve the same wake.
        state = WarehouseState.from_layout(
            build_layout(90, 40, n_racks=150, n_pickers=70), 80)
        for rack in state.racks:
            for i in range(rack.rack_id % 4 + 1):
                state.deliver_item(Item(4 * rack.rack_id + i, rack.rack_id,
                                        0, 7 * rack.rack_id % 90 + 1))
            rack.accumulated_processing = 13 * rack.rack_id % 400
        for picker in state.pickers:
            picker.accumulated_processing = 29 * picker.picker_id % 400
        config = PlannerConfig(knn_k=8, qlearning=QLearningConfig(
            epsilon=0.3, state_bin_width=1))
        cls = EfficientAdaptiveTaskPlanner if flip else AdaptiveTaskPlanner
        planner = cls(state, config)
        if flip:
            select = lambda side: side._select_flipped(  # noqa: E731
                side.state.idle_robots())
        else:
            select = lambda side: side._select_learned(80)  # noqa: E731
        ours, theirs, twin = both_ways(planner, select)
        assert picks(ours) == picks(theirs) and len(ours) > 10
        assert learner_view(planner) == learner_view(twin)
        # the greedy walk over the same floor
        ours, theirs, twin = both_ways(
            planner, lambda side: side._select_greedy(80))
        assert picks(ours) == picks(theirs) and len(ours) > 10
        assert learner_view(planner) == learner_view(twin)

    def test_an_int32_table_gathers_the_same(self):
        # knn_fill writes int32 ids from 2**15 racks on; the same ids in
        # the wide dtype must select the same racks.
        layout = build_layout(WIDTH, HEIGHT, n_racks=N_RACKS,
                              n_pickers=N_PICKERS)
        state = WarehouseState.from_layout(layout, 4)
        for rack in state.racks:
            state.deliver_item(Item(rack.rack_id, rack.rack_id, 0, 30))
        config = PlannerConfig(knn_k=5,
                               qlearning=QLearningConfig(epsilon=0.5))
        planner = EfficientAdaptiveTaskPlanner(state, config)
        twin = copy.deepcopy(planner)
        robots = state.idle_robots()
        narrow = planner._learned_select(COMPILED, planner.knn.table,
                                         robots, len(robots))
        wide = twin._learned_select(
            COMPILED, twin.knn.table.astype(np.int32),
            twin.state.idle_robots(), len(robots))
        assert narrow and picks(narrow) == picks(wide)
        assert learner_view(planner) == learner_view(twin)


# -- refusals --------------------------------------------------------------


def loaded_eatp() -> EfficientAdaptiveTaskPlanner:
    """An EATP planner whose every rack is selectable, with Q rows."""
    state = WarehouseState.from_layout(
        build_layout(WIDTH, HEIGHT, n_racks=N_RACKS, n_pickers=N_PICKERS), 4)
    for rack in state.racks:
        state.deliver_item(Item(rack.rack_id, rack.rack_id, 0, 30))
    planner = EfficientAdaptiveTaskPlanner(
        state, PlannerConfig(knn_k=4, qlearning=QLearningConfig(epsilon=1.0)))
    planner.agent.table.set((0, 0), ACTION_WAIT, -5.0)
    return planner


def arguments(planner, flip=True, **changes):
    """A lawful ``learned_select`` call over ``planner`` (EATP's flip,
    else ATP's pass), with ``changes``."""
    agent, state = planner.agent, planner.state
    cfg = agent.config
    args = dict(
        racks=state.racks, pickers=state.pickers,
        distance=planner._rack_distance, column=state.selectable_column(),
        index=planner.knn.table if flip else None,
        robots=state.idle_robots() if flip else None, budget=4,
        params=(cfg.state_bin_width, cfg.epsilon, cfg.discount,
                cfg.deferral_weight, cfg.learning_rate),
        rows=agent.table.rows, table=agent.table, stats=agent.stats,
        draw=agent._rng.random, choose=agent._rng.choice)
    args.update(changes)
    return tuple(args.values())


def bad_table(planner):
    """The KNN table with robot 0's nearest rack one past the last."""
    table = planner.knn.table.copy()
    x, y = planner.state.robots[0].location
    table[x, y, 0] = len(planner.state.racks)
    return table


REFUSALS = {
    "column-short": (lambda p: dict(column=bytearray(N_RACKS - 1)),
                     ValueError),
    "column-long": (lambda p: dict(column=bytearray(N_RACKS + 1)),
                    ValueError),
    "column-a-list": (lambda p: dict(column=[1] * N_RACKS), TypeError),
    "column-a-str": (lambda p: dict(column="x" * N_RACKS), TypeError),
    "index-id-past-the-racks": (lambda p: dict(
        index=bad_table(p), robots=[p.state.robots[0]]), ValueError),
    "index-negative-id": (lambda p: dict(
        index=-np.ones_like(p.knn.table)), ValueError),
    "index-float-table": (lambda p: dict(
        index=p.knn.table.astype(np.float32)), TypeError),
    "index-flat-table": (lambda p: dict(index=p.knn.table.reshape(-1)),
                         TypeError),
    "index-strided-table": (lambda p: dict(index=p.knn.table[:, ::2]),
                            ValueError),
    "robot-off-the-table": (lambda p: dict(robots=[
        type("R", (), dict(location=(WIDTH, 0), robot_id=0))()]),
        ValueError),
    "robot-location-a-list": (lambda p: dict(robots=[
        type("R", (), dict(location=[0, 0], robot_id=0))()]), TypeError),
    "rows-not-a-dict": (lambda p: dict(
        rows=list(p.agent.table.rows.items())), TypeError),
    "rows-none": (lambda p: dict(rows=None), TypeError),
    "row-malformed": (lambda p: dict(rows={(0, 0): (1.0, 2.0, 1)}),
                      TypeError),
    "draw-not-callable": (lambda p: dict(draw=0.5), TypeError),
    "choose-not-callable": (lambda p: dict(choose="heads"), TypeError),
    # both None is the greedy branch; one of them is a mistake
    "draw-alone-none": (lambda p: dict(draw=None), TypeError),
    "choose-alone-none": (lambda p: dict(choose=None), TypeError),
    "params-short": (lambda p: dict(params=(60, 0.1)), TypeError),
    "params-bin-width-zero": (lambda p: dict(params=(0, 0.1, 0.9, 10.0,
                                                     0.1)), ValueError),
    "distance-short": (lambda p: dict(distance=p._rack_distance[:-1]),
                       ValueError),
    "racks-a-tuple": (lambda p: dict(racks=tuple(p.state.racks)),
                      TypeError),
}


@pytest.mark.parametrize("name, flip", [
    pytest.param(name, flip, id=f"{name}-{'eatp' if flip else 'atp'}")
    for name in sorted(REFUSALS) for flip in (True, False)
    # ATP's pass reads no KNN table and no robots
    if flip or not name.startswith(("index-", "robot-"))])
def test_a_malformed_argument_is_refused_untouched(name, flip):
    planner = loaded_eatp()
    change, error = REFUSALS[name]
    before = learner_view(planner)
    with pytest.raises(error):
        COMPILED.learned_select(*arguments(planner, flip,
                                           **change(planner)))
    assert learner_view(planner) == before


def test_the_lawful_call_steps_the_learner():
    # The refusals' base call is lawful: it draws and writes.
    for flip in (True, False):
        planner = loaded_eatp()
        before = learner_view(planner)
        assert COMPILED.learned_select(*arguments(planner, flip))
        assert learner_view(planner) != before


def greedy_arguments(planner, **changes):
    """A lawful call of the greedy branch over ``planner``."""
    changes = dict(dict(index=planner.state.picker_index(), draw=None,
                        choose=None), **changes)
    return arguments(planner, False, **changes)


def test_the_lawful_greedy_call_learns_without_a_draw():
    planner = loaded_eatp()
    rows, entries, stats, draws = learner_view(planner)
    assert COMPILED.learned_select(*greedy_arguments(planner, budget=3))
    assert planner.agent._rng.getstate() == draws
    assert planner.agent.stats.greedy_updates == stats["greedy_updates"] + 3


def malformed_index(planner):
    by_picker, counts = planner.state.picker_index()
    yield "index-none", None, TypeError
    yield "index-a-list", [by_picker, counts], TypeError
    yield "index-short", (by_picker[:-1], counts[:-1]), ValueError
    yield "ids-a-tuple", ([tuple(ids) for ids in by_picker], counts), \
        TypeError
    yield "id-past-the-racks", ([ids + [N_RACKS] for ids in by_picker],
                                counts), ValueError
    yield "count-a-str", (by_picker, ["1"] * len(counts)), TypeError


@pytest.mark.parametrize("name", sorted(
    ["column-short", "rows-not-a-dict", "params-short", "distance-short"]
    + [case[0] for case in malformed_index(loaded_eatp())]))
def test_greedy_refusals_leave_the_learner_untouched(name):
    planner = loaded_eatp()
    if name in REFUSALS:
        change, error = REFUSALS[name]
        changes = change(planner)
    else:
        index, error = next((index, error) for case, index, error
                            in malformed_index(planner) if case == name)
        changes = dict(index=index)
    before = learner_view(planner)
    with pytest.raises(error):
        COMPILED.learned_select(*greedy_arguments(planner, **changes))
    assert learner_view(planner) == before


def test_a_draw_that_raises_keeps_the_steps_before_it():
    # Python's pass stands where an RNG call raises; so does the call's.
    planner = loaded_eatp()
    twin = copy.deepcopy(planner)
    draws = []

    def failing(random):
        def draw():
            if len(draws) == 3:
                raise RuntimeError("no more draws")
            draws.append(None)
            return random()
        return draw

    with pytest.raises(RuntimeError):
        COMPILED.learned_select(*arguments(
            planner, False, budget=N_RACKS,
            draw=failing(planner.agent._rng.random)))
    draws.clear()
    twin.agent._rng.random = failing(twin.agent._rng.random)
    with kernel_switch("python"), pytest.raises(RuntimeError):
        twin._select_learned(N_RACKS)
    del twin.agent._rng.random
    assert len(draws) == 3
    assert learner_view(planner) == learner_view(twin)
