"""The greedy heuristic as it was before its rounds priced candidates with
one backward search: every candidate is routed in full, every round.

``_route`` and ``solve_heuristic`` below are verbatim copies of that
version; ``_route`` then searched on past the first sink it settled.  They
share the unchanged index structures and schedule assembler with the
package, so the differential test in ``test_heuristic_reference`` compares
the candidate loop and the route search.
"""

from __future__ import annotations

import heapq
import math
import time

from wsnsched.instance import ArcSets, Instance, arcs_match, build_arcs
from wsnsched.solve import SolveConfig, Solution, _assemble, _Structures


def _route(s: _Structures, src: int, g: int, enter: list[float]):
    """Cheapest path from sensor src to any sink for phenomenon g.

    An arc costs its tail's transmit energy; entering sensor v adds
    ``enter[v]``, its receive energy plus any surcharge (inf bans it), while
    sinks receive for free.  Returns (arcs in path order, cost), or None
    when no sink is reachable.
    """
    et = s.tables.et
    n = s.n
    dist = {src: 0.0}
    prev: dict[int, tuple[int, int]] = {}
    heap = [(0.0, src)]
    best_sink, best_cost = None, math.inf
    while heap:
        d, u = heapq.heappop(heap)
        if d > dist.get(u, math.inf):
            continue
        if u >= n:
            if d < best_cost:
                best_sink, best_cost = u, d
            continue
        for (a, b) in s.out_arcs[u]:
            if b == src:
                continue
            nd = d + et[(a, b)][g]
            if b < n:
                nd += enter[b]
            if nd < dist.get(b, math.inf):
                dist[b] = nd
                prev[b] = (a, b)
                heapq.heappush(heap, (nd, b))
    if best_sink is None:
        return None
    path = []
    node = best_sink
    while node != src:
        arc = prev[node]
        path.append(arc)
        node = arc[0]
    path.reverse()
    return tuple(path), best_cost


def solve_heuristic(
    instance: Instance,
    arcs: ArcSets | None = None,
    config: SolveConfig | None = None,
) -> Solution:
    """Greedy weighted set cover with shortest-path routing.

    Periods are processed in order; within a period, phenomena in order.
    Each round activates the sensor with the cheapest marginal cost per
    newly covered demand point (sensors already active this period are
    naturally preferred, their fixed cost being sunk), immediately routes
    its stream to a sink with relay activation surcharges included in the
    path cost, and debits every battery the route touched.  Demand points
    whose every remaining cover-and-route option would overdraw a battery,
    or cost more than the uncovered penalty, take the penalty.
    """
    if arcs is None:
        arcs = build_arcs(instance)
    if not arcs_match(instance, arcs):
        raise ValueError("arc sets were not built from this instance")
    t0 = time.perf_counter()
    s = _Structures(instance, arcs)
    tb = s.tables
    n, T, G = s.n, s.T, s.G

    residual = [tb.eb] * n
    y = [[False] * T for _ in range(n)]
    r_set: set[tuple[int, int, int]] = set()
    flows: dict[tuple[int, int, int], tuple[tuple[int, int], ...]] = {}

    def surcharge(v: int, t: int) -> float:
        if y[v][t]:
            return 0.0
        fresh = t == 0 or not y[v][t - 1]
        return tb.em + (tb.ea if fresh else 0.0)

    def find_route(src: int, t: int, g: int):
        """Cheapest battery-feasible route from src; None if there is none.

        Entering a sensor costs its receive energy plus its activation
        surcharge.  Relays whose battery cannot take their share are banned
        and the search reruns, at most once per sensor.
        """
        extra = [surcharge(v, t) for v in range(n)]
        enter = [tb.er[g] + x for x in extra]
        for _ in range(n + 1):
            path = _route(s, src, g, enter)
            if path is None:
                return None
            arcs_p, cost = path
            deltas: dict[int, float] = {}
            for (a, b) in arcs_p:
                deltas[a] = deltas.get(a, 0.0) + tb.et[(a, b)][g]
                if b < n:
                    deltas[b] = deltas.get(b, 0.0) + tb.er[g]
            for v in list(deltas):
                if v != src:
                    deltas[v] += extra[v]
            bad = None
            for v in sorted(deltas):
                if v != src and residual[v] < deltas[v] - 1e-12:
                    bad = v
                    break
            if bad is None:
                return arcs_p, deltas, cost
            enter[bad] = math.inf
        return None

    for t in range(T):
        for g in range(G):
            open_points = set(instance.demand_indices(g))
            while open_points:
                best = None
                for i in range(n):
                    if (i, t, g) in r_set or (i, g) not in s.sensor_cover:
                        continue
                    newly = [j for j in s.sensor_cover[(i, g)] if j in open_points]
                    if not newly:
                        continue
                    own = surcharge(i, t)
                    route = find_route(i, t, g)
                    if route is None:
                        continue
                    arcs_p, deltas, route_cost = route
                    if residual[i] < own + deltas.get(i, 0.0) - 1e-12:
                        continue
                    marginal = tb.eg + own + route_cost
                    if marginal > tb.eh * len(newly):
                        continue  # paying the penalty is cheaper
                    score = (marginal / len(newly), -residual[i], i)
                    if best is None or score < best[0]:
                        best = (score, i, newly, arcs_p, deltas, own)
                if best is None:
                    break  # leftovers take the penalty via h
                _, i, newly, arcs_p, deltas, own = best
                r_set.add((i, t, g))
                flows[(i, t, g)] = arcs_p
                y[i][t] = True
                residual[i] -= own
                for v, delta in sorted(deltas.items()):
                    if v != i:
                        y[v][t] = True
                    residual[v] -= delta
                for j in newly:
                    open_points.discard(j)

    return _assemble(s, flows, "heuristic", t0)
