"""Differential test: the greedy construction against its frozen
full-routing version.

``reference_heuristic`` routes every candidate of every round in full.  The
package prices the candidates with one backward search per round and routes
only those that can still win, which must change the work and nothing else:
the assembled construction's solution JSON, apart from its wall time, must
be the same text.  ``solve_heuristic`` then polishes that construction;
``test_polish_reference`` pins that pass and the function's result.

The benchmark layouts and the generated instances price every route
exactly, because their transmit energy does not depend on distance.  The
crafted instance at the end is where the backward price lies above the
routed cost by rounding, so it is the one that needs the slack.
"""

import json

import pytest

import wsnsched as w
from wsnsched.solve import _assemble, _greedy, _route, _route_costs, _Structures, solution_to_json
from helpers import HEURISTIC_LAYOUTS, make_instance, tiny_instance
import reference_heuristic as ref


def _text(solution):
    doc = solution_to_json(solution)
    del doc["wall_time_s"]
    return json.dumps(doc, indent=2)


def _assert_same(inst, arcs):
    s = _Structures(inst, arcs)
    want = ref.solve_heuristic(inst, arcs)
    assert _text(_assemble(s, _greedy(s), "heuristic", 0.0)) == _text(want)


@pytest.mark.parametrize("layout", HEURISTIC_LAYOUTS, ids=lambda lay: "-".join(map(str, lay)))
def test_heuristic_matches_reference_on_layouts(layout):
    scenario, kind, periods, seed = layout
    inst = w.scenario_instance(scenario, kind=kind, periods=periods, seed=seed)
    _assert_same(inst, w.build_arcs(inst))


@pytest.mark.parametrize("seed", range(50))
def test_heuristic_matches_reference_on_tiny(seed):
    _assert_same(*tiny_instance(seed))


def _rounding_tie():
    """Two mirror-image sensors, 0 and 1, cover the one g0 point between
    them, each over its own two-relay chain to the sink.  In period 0
    sensor 0 wins that point on index and sensor 1 senses the cheaper g1
    point, so in period 1 they tie again and sensor 1, with more battery
    left, must win.  With distance-dependent transmit the backward price
    of that chain rounds one ulp above its forward cost."""
    sensors = [(7.0, 10.0), (13.0, 10.0), (5.5, 7.0), (7.5, 4.0), (14.5, 7.0), (12.5, 4.0)]
    points = [((10.0, 10.0), (0,)), ((15.0, 10.0), (1,))]
    return make_instance(sensors, points, [(10.0, 2.0)], radii=(3.1, 2.1),
                         rates=(2.0, 1.0), periods=2, comm_radius=3.9,
                         area=(20.0, 20.0), transmit_coef=1e-5)


def test_heuristic_matches_reference_on_rounding_tie():
    inst = _rounding_tie()
    arcs = w.build_arcs(inst)
    s = _Structures(inst, arcs)
    enter = [s.tables.er[0] + s.tables.em] * s.n  # period 1: every sensor was on in 0
    assert _route_costs(s, 0, enter)[1] > _route(s, 1, 0, enter)[1]
    _assert_same(inst, arcs)
    r = _greedy(s)
    assert (1, 1, 0) in r and (0, 1, 0) not in r
