"""Differential test: the exact search against its frozen earlier version.

``reference_exact`` kept the sensing bound's parts as running counters of
its own, priced each sensor's cheapest route with a forward search, and
computed every node's bound in full.  The package keeps other counters
(each sensing triple's count of open demand triples beside the cover
counts, and the committed cost carried down the recursion), keeps only
the triples decided 1, on a stack, takes the routes' prices from one
backward search per phenomenon, and prices a sensing node and both its
children in one pass.  That must change the work and nothing else: the
two searches must end with the same incumbent after the same number of
nodes, and the certificate must be the same flag, whether the search
completes or stops at its node budget.

``solve_exact`` then treats a search that ends without a certificate
as a heuristic: it polishes the incumbent with the package's ``_polish``
(pinned by ``test_polish_reference``), and puts a floor under it, the
polished greedy schedule, returned when that is strictly cheaper.  Its
solution JSON, apart from its wall time, must be the same text as the
reference's result with both steps applied.

The benchmark's layouts have one period, so they cannot tell apart the
periods of a sensor's share of the open demand; the two- and three-period
layouts do.  The distance-dependent grids are where a backward route price
can differ from the forward one by rounding.  Most tiny instances have the
all-penalty schedule as their optimum; the seeds whose optimum senses
something must also agree with the exhaustive oracle.
"""

import dataclasses
import json
import math

import pytest

import wsnsched as w
from wsnsched.solve import (_assemble, _ExactSearch, _polish, _route_costs, _Structures,
                            solution_to_json)
from helpers import SENSING_SEEDS, distance_grid, tiny_instance
import reference_exact as ref


def _text(solution):
    doc = solution_to_json(solution)
    del doc["wall_time_s"]
    return json.dumps(doc, indent=2)


def _assert_same(inst, arcs, node_limit=0):
    config = w.SolveConfig(time_limit_s=math.inf, node_limit=node_limit)
    got_search = _ExactSearch(inst, arcs, config)
    want_search = ref._ExactSearch(inst, arcs, config)
    assert got_search.run() == want_search.run()
    for field in ("best_obj", "best_flows", "nodes"):
        assert getattr(got_search, field) == getattr(want_search, field), field
    # The package keeps only the triples decided 1; the reference, every decision.
    assert set(got_search.best_flows) == {key for key, val in want_search.best_r.items() if val}

    got, got_cert = w.solve_exact(inst, arcs, config=config)
    want, want_cert = ref.solve_exact(inst, arcs, config=config)
    if not want_cert:
        polished = _polish(want_search.s, want_search.best_flows)
        want = _assemble(want_search.s, polished, "exact", 0.0)
        greedy = w.solve_heuristic(inst, arcs)
        if greedy.objective < want.objective:
            want = dataclasses.replace(greedy, provenance="exact")
    assert _text(got) == _text(want)
    assert got_cert == want_cert
    return got, got_cert


@pytest.mark.parametrize("seed", range(50))
def test_exact_matches_reference_on_tiny(seed):
    _assert_same(*tiny_instance(seed))


# The benchmark's exact_budget layouts: default random T=1, seeds 1-6.
@pytest.mark.parametrize("nodes", [500, 5000])
@pytest.mark.parametrize("seed", range(1, 7))
def test_exact_matches_reference_on_layouts(seed, nodes):
    inst = w.scenario_instance("default", kind="random", periods=1, seed=seed)
    _assert_same(inst, w.build_arcs(inst), nodes)


def test_exact_matches_reference_over_two_periods():
    inst = w.scenario_instance("default", kind="random", periods=2, seed=1)
    _assert_same(inst, w.build_arcs(inst), 20000)


def test_exact_matches_reference_over_three_periods():
    inst = w.scenario_instance("default", kind="random", periods=3, seed=1)
    _assert_same(inst, w.build_arcs(inst), 5000)


@pytest.mark.parametrize("seed", SENSING_SEEDS)
def test_exact_matches_reference_and_oracle_when_sensing(seed):
    inst, arcs = tiny_instance(seed)
    oracle = w.brute_force_oracle(inst, arcs)
    assert any(ref.kind == "r" and val for ref, val in oracle.values.items())
    exact, certificate = _assert_same(inst, arcs)
    assert certificate
    assert w.evaluate(inst, exact, arcs).objective == pytest.approx(
        w.evaluate(inst, oracle, arcs).objective, rel=1e-9)


@pytest.mark.parametrize("battery, comm_radius", [(8.0, 6.0), (20.0, 4.0)])
def test_exact_matches_reference_on_distance_grids(battery, comm_radius):
    inst = distance_grid(battery, comm_radius)
    arcs = w.build_arcs(inst)
    s = _Structures(inst, arcs)
    # Some backward route prices differ from the forward ones by rounding.
    assert any(_route_costs(s, g, [s.tables.er[g]] * s.n)[i] != ref.route_min(s, i, g)
               for g in range(s.G) for i in range(s.n))
    _assert_same(inst, arcs, 3000)
