"""The ILP baseline's assignment solver: the kernel's ``lsap`` and SciPy.

The switch picks the solver ``IlpPlanner._select`` calls: the native
``lsap``, or ``scipy.optimize.linear_sum_assignment``, which is its
specification and the oracle here.  Integer-valued costs tie constantly,
so ``lsap`` must return SciPy's assignment itself, tie for tie — not just
one of equal cost — on wide and tall matrices alike, raise where SciPy
raises, and refuse malformed buffers before reading them.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as hyp
from scipy.optimize import linear_sum_assignment

from repro.pathfinding._kernel import build_and_load
from repro.pathfinding.st_astar import search_kernel_name, set_search_kernel
from repro.planners import IlpPlanner
from repro.warehouse.entities import Item
from tests.conftest import count_kernel_calls, make_two_picker_state

COMPILED = build_and_load()

needs_compiled = pytest.mark.skipif(COMPILED is None,
                                    reason="native kernel unavailable")


@pytest.fixture(params=["python",
                        pytest.param("compiled", marks=needs_compiled)])
def kernel(request):
    previous = search_kernel_name()
    set_search_kernel(request.param)
    yield request.param
    set_search_kernel(previous)


def solved(solve, cost):
    """``solve(cost)`` as two lists, or the ``ValueError`` it raised."""
    try:
        rows, cols = solve(cost)
    except ValueError as error:
        return str(error)
    return [int(r) for r in rows], [int(c) for c in cols]


@hyp.composite
def cost_matrices(draw):
    """Integer-valued costs in {0..1, 0..4, 0..999}, 0-12 x 0-40 and the
    transpose, some cells +inf (an all-inf row can make it infeasible)."""
    rows, cols = draw(hyp.integers(0, 12)), draw(hyp.integers(0, 40))
    if draw(hyp.booleans()):
        rows, cols = cols, rows
    rng = np.random.default_rng(draw(hyp.integers(0, 2 ** 32 - 1)))
    cost = rng.integers(0, draw(hyp.sampled_from([1, 4, 999])) + 1,
                        (rows, cols)).astype(np.float64)
    if draw(hyp.integers(0, 3)) == 0:
        cost[rng.random((rows, cols)) < draw(hyp.sampled_from([0.1, 0.5]))] \
            = np.inf
    return cost


@needs_compiled
@settings(max_examples=400, deadline=None)
@given(cost=cost_matrices())
def test_lsap_is_scipys_assignment_tie_for_tie(cost):
    assert solved(COMPILED.lsap, cost) == solved(linear_sum_assignment, cost)


@needs_compiled
@pytest.mark.parametrize("shape", [(0, 0), (0, 5), (5, 0), (1, 1), (7, 7),
                                   (3, 30), (30, 3)])
def test_lsap_on_constant_and_edge_shapes(shape):
    # A constant matrix ties everywhere: SciPy's answer is the identity.
    for cost in (np.zeros(shape), np.full(shape, 3.0)):
        assert solved(COMPILED.lsap, cost) == \
            solved(linear_sum_assignment, cost)


def ilp_world(n_robots, loaded_racks):
    state = make_two_picker_state(n_racks=6, n_robots=n_robots)
    for n, rack_id in enumerate(loaded_racks):
        state.deliver_item(Item(item_id=n, rack_id=rack_id, arrival=0,
                                processing_time=5))
    return state


@needs_compiled
def test_the_switch_picks_the_solver(kernel):
    planner = IlpPlanner(ilp_world(2, [0, 3, 5]))
    with count_kernel_calls(COMPILED, ["lsap"]) as calls:
        assert len(planner.plan(0)) == 2
    assert calls["lsap"] == (kernel == "compiled")


def test_an_ilp_wake_with_more_idle_robots_than_racks(kernel):
    # Five idle robots, two selectable racks: a tall matrix, solved
    # transposed, and every rack goes to the robot SciPy picks.
    state = ilp_world(5, [1, 4])
    planner = IlpPlanner(state)
    racks, robots = state.selectable_racks(), state.idle_robots()
    cost = planner._cost_matrix(racks, robots)
    assert cost.shape == (5, 2)
    rows, cols = linear_sum_assignment(cost)
    expected = {(robots[r].robot_id, racks[c].rack_id)
                for r, c in zip(rows, cols)}
    entries = planner._select(0, robots)
    assert {(e.robot.robot_id, e.rack.rack_id) for e in entries} == expected
    assert sorted(planner.plan(0).rack_ids) == [1, 4]


def malformed_costs():
    """``(name, cost, error)`` — each refused by ``lsap``."""
    square = np.arange(12, dtype=np.float64).reshape(3, 4)
    with_nan = square.copy()
    with_nan[1, 2] = np.nan
    minus_inf = square.copy()
    minus_inf[2, 0] = -np.inf
    inf_row = square.copy()
    inf_row[1] = np.inf
    yield "one-dimensional", square.reshape(-1), ValueError
    yield "three-dimensional", square.reshape(1, 3, 4), ValueError
    yield "int64", square.astype(np.int64), TypeError
    yield "float32", square.astype(np.float32), TypeError
    yield "not-a-buffer", [[1.0, 2.0], [3.0, 4.0]], TypeError
    yield "strided", np.zeros((3, 8))[:, ::2], ValueError
    yield "fortran", np.asfortranarray(square), ValueError
    yield "nan", with_nan, ValueError
    yield "minus-inf", minus_inf, ValueError
    yield "all-inf-row", inf_row, ValueError


@needs_compiled
@pytest.mark.parametrize("name,cost,error",
                         [pytest.param(*case, id=case[0])
                          for case in malformed_costs()])
def test_lsap_refuses_malformed_costs(name, cost, error):
    with pytest.raises(error):
        COMPILED.lsap(cost)
