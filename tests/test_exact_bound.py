"""The exact search's sensing bounds against the same bounds derived from
scratch.

``_ExactSearch`` keeps the bound's parts up to date as it sets and undoes
decisions, and prices both children of a sensing node in one pass.
``derived_bound`` below recomputes a node's bound from the decisions
alone, recounting which demand triples are covered, with the same float
operands in the same order.  Wherever the search computes a bound
(``_bound_r``, at the root and at each 1-child it builds) and wherever it
prices a 0-child (``_price_children``), the two must be equal to the last
bit: not close, equal, since a bound that moves by one ulp can prune a
different node and change the schedule.  The 1-child's price is a lower
bound, computed before the child is built: it must not exceed the derived
bound, so it prunes only what the exact bound would prune.  The search's
own bookkeeping is checked at the same nodes: its open list must be
ascending and hold exactly the uncovered demand triples, and each sensing
triple's open count must match a recount.
"""

import math

import pytest

import wsnsched as w
from wsnsched.solve import _ExactSearch
from helpers import distance_grid


def covered_triples(search) -> set[tuple[int, int, int]]:
    """The demand triples (j, t, g) with a coverer decided 1, from ``r_val``
    and ``sensor_cover`` alone."""
    return {(j, t, g)
            for (i, t, g), val in search.r_val.items() if val
            for j in search.s.sensor_cover.get((i, g), ())}


def derived_bound(search, covered) -> float:
    """The sensing bound of the search's current node, from ``r_val`` and
    its covered triples only."""
    commit = 0.0
    active: set[tuple[int, int]] = set()
    for (i, t, g), val in search.r_val.items():
        if val:
            commit += search.eg + search.route_lb[(i, g)]
            active.add((i, t))
    bound = (commit + search.em * len(active)
             + search.ea * sum(1 for (_, t) in active if t == 0))
    share: dict[tuple[int, int, int], float] = {}  # per undecided (i, t, g)
    for (j, t, g) in search.s.demanded:
        if (j, t, g) in covered:
            continue
        cheapest = search.eh
        for i in search.s.arcs.covering[g][j]:
            key = (i, t, g)
            if key in search.r_val:
                continue
            if key not in share:
                k = sum(1 for jj in search.s.sensor_cover[(i, g)]
                        if (jj, t, g) not in covered)
                share[key] = (search.eg + search.route_lb[(i, g)]) / k
            if share[key] < cheapest:
                cheapest = share[key]
        bound += cheapest
    return bound


def check_bookkeeping(search, covered):
    """The open list, open set and open counts against a recount."""
    open_list = search.open
    assert all(a < b for a, b in zip(open_list, open_list[1:])), "open list out of order"
    want = [q for q, key in enumerate(search.s.demanded) if key not in covered]
    assert open_list == want
    assert search.open_set == set(want)
    # Each uncovered triple counts once for each sensor covering it then.
    recount: dict[tuple[int, int, int], int] = {}
    for (j, t, g) in search.s.demanded:
        if (j, t, g) not in covered:
            for i in search.s.arcs.covering[g][j]:
                recount[(i, t, g)] = recount.get((i, t, g), 0) + 1
    assert search.open_count == [recount.get(key, 0) for key in search.r_list]


def _check_every_node(monkeypatch, inst, node_limit) -> int:
    """Solve with every bound and price checked; returns how many nodes'
    bounds were checked."""
    package_bound = _ExactSearch._bound_r
    package_price = _ExactSearch._price_children
    checked = 0

    def bound(search, d, commit, on, on0):
        nonlocal checked
        got = package_bound(search, d, commit, on, on0)
        assert len(search.r_val) == d
        covered = covered_triples(search)
        check_bookkeeping(search, covered)
        assert got == derived_bound(search, covered), f"node {search.nodes}, depth {d}"
        checked += 1
        return got

    def price(search, d, commit, on, on0, one):
        nonlocal checked
        bound0, low1 = package_price(search, d, commit, on, on0, one)
        assert len(search.r_val) == d
        check_bookkeeping(search, covered_triples(search))
        key = search.r_list[d]
        search.r_val[key] = 0
        assert bound0 == derived_bound(search, covered_triples(search)), (
            f"0-child of node {search.nodes}, depth {d}")
        search.r_val[key] = 1
        want1 = derived_bound(search, covered_triples(search))
        del search.r_val[key]
        assert low1 <= want1, f"1-child of node {search.nodes}, depth {d}"
        assert (low1 >= search.cutoff) <= (want1 >= search.cutoff)
        checked += 2
        return bound0, low1

    monkeypatch.setattr(_ExactSearch, "_bound_r", bound)
    monkeypatch.setattr(_ExactSearch, "_price_children", price)
    config = w.SolveConfig(time_limit_s=math.inf, node_limit=node_limit)
    w.solve_exact(inst, config=config)
    return checked


# The benchmark's exact_budget layouts: default random T=1, seeds 1-6.
@pytest.mark.parametrize("seed", range(1, 7))
def test_bound_is_derived_bound_on_layouts(monkeypatch, seed):
    inst = w.scenario_instance("default", kind="random", periods=1, seed=seed)
    assert _check_every_node(monkeypatch, inst, 500) > 100


# More than one period: only here can period-0 activation go wrong.
@pytest.mark.parametrize("periods", [2, 3])
def test_bound_is_derived_bound_over_periods(monkeypatch, periods):
    inst = w.scenario_instance("default", kind="random", periods=periods, seed=1)
    assert _check_every_node(monkeypatch, inst, 10000) > 3000


def test_bound_is_derived_bound_on_distance_grid(monkeypatch):
    assert _check_every_node(monkeypatch, distance_grid(8.0, 6.0), 3000) > 2000
