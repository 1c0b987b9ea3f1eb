"""The exact search's sensing bounds against the same bounds derived from
scratch.

``_ExactSearch`` keeps the bound's parts up to date as it sets and undoes
decisions, keeps the triples decided 1 on a stack, ``ones``, and prices
each sensing node in one pass, ``_price``: the node's own bound, its
0-child's bound and a lower bound on its 1-child's.  ``derived_bound``
below recomputes a node's bound from its depth and its triples decided 1
alone, recounting which demand triples are covered, with the same float
operands in the same order.  At every call of the pass, the node's own
bound and its 0-child's must equal the derived ones to the last bit: not
close, equal, since a bound that moves by one ulp can prune a different
node and change the schedule.  The 1-child's price is computed before the
child is built: it must not exceed the derived bound, so it prunes only
what the exact bound would prune.  The search's own bookkeeping is
checked at the same nodes: the stack must hold triples decided before the
node, in decision order; the open list must be ascending and hold exactly
the uncovered demand triples; and each sensing triple's open count must
match a recount.
"""

import math

import pytest

import wsnsched as w
from wsnsched.solve import _ExactSearch
from helpers import distance_grid


def position(search, key) -> int:
    """A sensing triple's depth: its position in ``r_list``."""
    i, t, g = key
    return (i * search.s.T + t) * search.s.G + g


def covered_triples(search, ones) -> set[tuple[int, int, int]]:
    """The demand triples (j, t, g) with a coverer in ``ones``, from
    ``sensor_cover`` alone."""
    return {(j, t, g) for (i, t, g) in ones for j in search.s.sensor_cover.get((i, g), ())}


def derived_bound(search, depth, ones) -> float:
    """The sensing bound of a node at ``depth`` whose triples decided 1
    are ``ones``: the triples before ``depth`` are decided, the rest open."""
    covered = covered_triples(search, ones)
    commit = 0.0
    active: set[tuple[int, int]] = set()
    for (i, t, g) in ones:
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
            if position(search, key) < depth:
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
    """Solve with every pass checked; returns how many bounds were checked."""
    package_price = _ExactSearch._price
    checked = 0

    def price(search, d, base, base1):
        nonlocal checked
        own, zero, low1 = package_price(search, d, base, base1)
        ones = list(search.ones)
        depths = [position(search, key) for key in ones]
        assert depths == sorted(set(depths)) and all(p < d for p in depths)
        check_bookkeeping(search, covered_triples(search, ones))
        where = f"node {search.nodes}, depth {d}"
        assert own == derived_bound(search, d, ones), where
        checked += 1
        if d < len(search.r_list):
            assert zero == derived_bound(search, d + 1, ones), f"0-child of {where}"
            want1 = derived_bound(search, d + 1, ones + [search.r_list[d]])
            assert low1 <= want1, f"1-child of {where}"
            assert (low1 >= search.cutoff) <= (want1 >= search.cutoff)
            checked += 2
        return own, zero, low1

    monkeypatch.setattr(_ExactSearch, "_price", price)
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
