"""Differential test: the improvement pass against its naive version.

``reference_polish`` re-assembles the schedule for every candidate drop
and reads activity, switch-ons, uncovered demand and energies from the
assignments.  ``wsnsched.solve._polish`` prices the same drops from cover
counts, per-(sensor, period) use counts and running energies.  The two
must make the same drops, in the same order, from the greedy
construction and from exact-search incumbents, and the result must be
feasible, no costlier than its input, and cover the same demand.

The crafted instance at the end is where a drop creates a switch-on:
activation costs more than maintenance, and the relay of the dropped
stream is on in the periods before and after.  With room in its battery
the drop is taken; without, it is refused.
"""

import json
import math

import pytest

import wsnsched as w
from wsnsched.solve import _assemble, _ExactSearch, _greedy, _polish, _Structures, solution_to_json
from helpers import HEURISTIC_LAYOUTS, SENSING_SEEDS, make_instance, tiny_instance
import reference_polish as ref


def _uncovered(solution):
    return {key.indices for key in solution.values if key.kind == "h"}


def _assert_same(inst, arcs, flows):
    """Polish the schedule ``flows`` both ways; returns the package's result."""
    s = _Structures(inst, arcs)
    got = _polish(s, flows)
    want = ref.polish(s, flows)
    assert list(got.items()) == list(want.items())
    before = _assemble(s, flows, "test", 0.0)
    after = _assemble(s, got, "test", 0.0)
    assert w.check_feasibility(inst, arcs, after) == []
    assert after.objective <= before.objective
    assert _uncovered(after) == _uncovered(before)
    return got


def _incumbent(inst, arcs, node_limit):
    search = _ExactSearch(inst, arcs, w.SolveConfig(time_limit_s=math.inf,
                                                    node_limit=node_limit))
    search.run()
    return search.best_flows


def _text(solution):
    doc = solution_to_json(solution)
    del doc["wall_time_s"]
    return json.dumps(doc, indent=2)


@pytest.mark.parametrize("layout", HEURISTIC_LAYOUTS, ids=lambda lay: "-".join(map(str, lay)))
def test_polish_matches_reference_on_layouts(layout):
    scenario, kind, periods, seed = layout
    inst = w.scenario_instance(scenario, kind=kind, periods=periods, seed=seed)
    arcs = w.build_arcs(inst)
    s = _Structures(inst, arcs)
    construction = _greedy(s)
    _assert_same(inst, arcs, construction)
    polished = _assemble(s, ref.polish(s, construction), "heuristic", 0.0)
    assert _text(w.solve_heuristic(inst, arcs)) == _text(polished)


# The benchmark's exact_budget layouts: default random T=1, seeds 1-6.
@pytest.mark.parametrize("nodes", [500, 5000])
@pytest.mark.parametrize("seed", range(1, 7))
def test_polish_matches_reference_on_exact_incumbents(seed, nodes):
    inst = w.scenario_instance("default", kind="random", periods=1, seed=seed)
    arcs = w.build_arcs(inst)
    _assert_same(inst, arcs, _incumbent(inst, arcs, nodes))


@pytest.mark.parametrize("seed", [*range(50), *SENSING_SEEDS])
def test_polish_matches_reference_on_tiny(seed):
    inst, arcs = tiny_instance(seed)
    _assert_same(inst, arcs, _greedy(_Structures(inst, arcs)))
    _assert_same(inst, arcs, _incumbent(inst, arcs, 0))


def _relay_switch(battery, activation=1.5, early=False):
    """Three sensors over three periods; activation > maintenance 0.5.

    Sensor 0 covers point P and reaches the sink only through sensor 1.
    Sensor 1 covers Q and reaches the sink directly; sensor 2 covers P
    and R and reaches it directly.  The schedule: sensor 1 senses Q in
    periods 0 and 2, sensor 0 senses P in period 1 over sensor 1, and
    sensor 2 senses P and R in period 1.  Sensor 0's period-1 sensing is
    the only redundant triple; dropping it idles sensor 1 in period 1, so
    sensor 1 switches on again in period 2.  With ``early`` sensor 0 also
    senses P in period 0, so the drop removes no switch-on of its own."""
    inst = make_instance(
        sensors=[(4.0, 2.0), (7.0, 2.0), (5.5, 3.2)],
        demand_points=[(4.5, 2.0), (7.5, 2.0), (5.5, 4.5)],
        sinks=[(9.0, 2.0)], radii=(1.6,), periods=3, comm_radius=4.0,
        battery=battery, activation=activation, maintenance=0.5)
    sink = 3
    flows = {(1, 0, 0): ((1, sink),), (0, 1, 0): ((0, 1), (1, sink)),
             (2, 1, 0): ((2, sink),), (1, 2, 0): ((1, sink),)}
    if early:
        flows[(0, 0, 0)] = ((0, 1), (1, sink))
    return inst, w.build_arcs(inst), flows


def _energy(solution, i):
    return solution.values.get(w.VarRef("e", (i,)), 0.0)


def test_polish_drop_creates_a_switch_on():
    inst, arcs, flows = _relay_switch(battery=6.0)
    s = _Structures(inst, arcs)
    before = _assemble(s, flows, "test", 0.0)
    assert w.check_feasibility(inst, arcs, before) == []
    got = _assert_same(inst, arcs, flows)
    assert set(got) == set(flows) - {(0, 1, 0)}
    after = _assemble(s, got, "test", 0.0)
    assert w.VarRef("w", (1, 2)) in after.values
    assert w.VarRef("w", (1, 2)) not in before.values
    assert _energy(after, 1) > _energy(before, 1)  # the switch-on costs more than it saves


def test_polish_refuses_a_drop_that_overdraws_a_relay():
    inst, arcs, flows = _relay_switch(battery=4.8)
    s = _Structures(inst, arcs)
    assert w.check_feasibility(inst, arcs, _assemble(s, flows, "test", 0.0)) == []
    dropped = {key: path for key, path in flows.items() if key != (0, 1, 0)}
    overdrawn = _assemble(s, dropped, "test", 0.0)
    assert _energy(overdrawn, 1) > s.tables.eb + 1e-6
    got = _assert_same(inst, arcs, flows)
    assert got == flows


def test_polish_keeps_a_drop_whose_switch_on_costs_more():
    # Dropping sensor 0's period-1 sensing saves its stream, the penalty
    # and two periods of maintenance (2.21), but sensor 1 must then switch
    # on again in period 2 for 3.0.
    inst, arcs, flows = _relay_switch(battery=10.0, activation=3.0, early=True)
    s = _Structures(inst, arcs)
    assert w.check_feasibility(inst, arcs, _assemble(s, flows, "test", 0.0)) == []
    assert _assert_same(inst, arcs, flows) == flows
