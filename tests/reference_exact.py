"""The exact branch and bound as it was before its sensing phase derived
the bound from the decisions at each node.

That version kept six pieces of state in step at every sensing branch
(``r_val``, ``cover_count``, ``cand_left``, ``em_active``, ``em_count``,
``ea0_count`` and ``commit_cost``), and priced each sensor's cheapest
route with a forward search of its own, ``route_min``.  ``_ExactSearch``
and ``solve_exact`` below are verbatim copies of it, apart from
``route_min`` being a function here rather than a method of
``_Structures``.  They share the index structures, the route search, the
flow enumeration and the schedule assembler with the package, so the
differential test in ``test_exact_reference`` compares the search alone.
"""

from __future__ import annotations

import math
import time

from wsnsched.instance import ArcSets, Instance, arcs_for
from wsnsched.solve import (
    BATTERY_TOL,
    Solution,
    SolveConfig,
    _assemble,
    _enumerate_flows,
    _Flow,
    _route,
    _SearchLimit,
    _Structures,
)


def route_min(s: _Structures, l: int, g: int) -> float:
    """Cheapest route cost from sensor l to any sink for phenomenon g;
    inf when no sink is reachable."""
    route = _route(s, l, g, [s.tables.er[g]] * s.n)
    return math.inf if route is None else route[1]


class _ExactSearch:
    """DFS branch-and-bound: sensing decisions first, then each sensed
    stream is routed over one of its simple paths to a sink.

    The lower bound amortizes each candidate sensor's sensing cost (the
    activation penalty plus its cheapest route) over the open demand
    triples it could still cover, and counts maintenance and activation
    energy only once they are certain, so it never exceeds the cost of
    any completion of the current partial assignment.
    """

    def __init__(self, instance: Instance, arcs: ArcSets, config: SolveConfig):
        self.s = _Structures(instance, arcs)
        self.cfg = config
        s = self.s
        t = s.tables
        self.em, self.ea, self.eb = t.em, t.ea, t.eb
        self.eh, self.eg = t.eh, t.eg
        self.r_list = [
            (i, tt, g) for i in range(s.n) for tt in range(s.T) for g in range(s.G)
        ]
        self.route_lb = {
            (i, g): route_min(s, i, g) if (i, g) in s.sensor_cover else math.inf
            for i in range(s.n)
            for g in range(s.G)
        }
        self.r_val: dict[tuple[int, int, int], int] = {}
        self.cover_count = {key: 0 for key in s.demanded}
        self.cand_left = {
            (j, tt, g): len(s.arcs.covering[g][j]) for (j, tt, g) in s.demanded
        }
        self.em_active: dict[tuple[int, int], int] = {}
        self.commit_cost = 0.0
        self.em_count = 0
        self.ea0_count = 0
        # Incumbent: the all-off schedule, always feasible.
        self.best_obj = self.eh * len(s.demanded)
        self.best_r: dict[tuple[int, int, int], int] = {}
        self.best_flows: dict = {}
        self.nodes = 0
        self.truncated = False
        self.deadline = time.perf_counter() + config.time_limit_s
        self._flow_cache: dict[tuple[int, int], tuple[list[_Flow], bool]] = {}
        # routing-phase state
        self.en = [0.0] * s.n
        self.y_state: set[tuple[int, int]] = set()
        self.active: list[tuple[int, int, int]] = []
        self.obj_base = 0.0
        self.flow_choice: dict = {}

    def _slack(self) -> float:
        return max(1e-12, self.cfg.gap * abs(self.best_obj))

    def _tick(self):
        self.nodes += 1
        if self.cfg.node_limit and self.nodes > self.cfg.node_limit:
            raise _SearchLimit()
        if self.nodes % 128 == 0 and time.perf_counter() > self.deadline:
            raise _SearchLimit()

    def flows_for(self, l: int, g: int):
        key = (l, g)
        if key not in self._flow_cache:
            self._flow_cache[key] = _enumerate_flows(self.s, l, g)
        return self._flow_cache[key]

    def run(self) -> bool:
        completed = True
        try:
            self._branch_r(0)
        except _SearchLimit:
            completed = False
        # The search keeps each sensor on only where it senses or carries a
        # stream.  When switching on costs more than staying on, keeping a
        # sensor on through an idle period between two active ones can be
        # cheaper, and the search never tries that.
        minimal_activity = self.ea <= self.em or self.s.T < 3
        return (completed and not self.truncated and self.cfg.gap == 0.0
                and minimal_activity)

    # -- sensing phase --

    def _branch_r(self, d: int):
        self._tick()
        if self._bound_r() >= self.best_obj - self._slack():
            return
        if d == len(self.r_list):
            self._start_routing()
            return
        i, t, g = self.r_list[d]
        covers = self.s.sensor_cover.get((i, g), ())
        for val in (1, 0):
            if val and math.isinf(self.route_lb[(i, g)]):
                continue  # sensing with no route to any sink is infeasible
            self.r_val[(i, t, g)] = val
            if val:
                self.commit_cost += self.eg + self.route_lb[(i, g)]
                cnt = self.em_active.get((i, t), 0)
                self.em_active[(i, t)] = cnt + 1
                if cnt == 0:
                    self.em_count += 1
                    if t == 0:
                        self.ea0_count += 1
                for j in covers:
                    self.cover_count[(j, t, g)] += 1
            for j in covers:
                self.cand_left[(j, t, g)] -= 1
            self._branch_r(d + 1)
            for j in covers:
                self.cand_left[(j, t, g)] += 1
            if val:
                self.commit_cost -= self.eg + self.route_lb[(i, g)]
                cnt = self.em_active[(i, t)] - 1
                self.em_active[(i, t)] = cnt
                if cnt == 0:
                    self.em_count -= 1
                    if t == 0:
                        self.ea0_count -= 1
                for j in covers:
                    self.cover_count[(j, t, g)] -= 1
            del self.r_val[(i, t, g)]

    def _bound_r(self) -> float:
        bound = self.commit_cost + self.em * self.em_count + self.ea * self.ea0_count
        for (j, t, g), cc in self.cover_count.items():
            if cc > 0:
                continue
            if self.cand_left[(j, t, g)] == 0:
                bound += self.eh
                continue
            cheapest = self.eh
            for i in self.s.arcs.covering[g][j]:
                if (i, t, g) in self.r_val:
                    continue
                k = sum(
                    1
                    for jj in self.s.sensor_cover[(i, g)]
                    if self.cover_count[(jj, t, g)] == 0
                )
                share = (self.eg + self.route_lb[(i, g)]) / k
                if share < cheapest:
                    cheapest = share
            bound += cheapest
        return bound

    # -- routing phase --

    def _start_routing(self):
        uncovered = sum(1 for cc in self.cover_count.values() if cc == 0)
        self.active = sorted(key for key, val in self.r_val.items() if val)
        self.obj_base = self.eh * uncovered + self.eg * len(self.active)
        self.en = [0.0] * self.s.n
        self.y_state = set()
        for (i, t), cnt in self.em_active.items():
            if cnt > 0:
                self.y_state.add((i, t))
                self.en[i] += self.em
        self.flow_choice = {}
        self._branch_flows(0)

    def _branch_flows(self, q: int):
        self._tick()
        ea_lb = self.ea * sum(1 for (i, t) in self.y_state if t == 0)
        remaining = sum(self.route_lb[(l, g)] for (l, t, g) in self.active[q:])
        base = sum(self.en) + ea_lb + self.obj_base
        if base + remaining >= self.best_obj - self._slack():
            return
        if q == len(self.active):
            self._leaf()
            return
        l, t, g = self.active[q]
        flows, complete = self.flows_for(l, g)
        if not complete:
            self.truncated = True
        rest = remaining - self.route_lb[(l, g)]
        for flow in flows:
            if base + rest + flow.cost >= self.best_obj - self._slack():
                break  # flows are cost-sorted; the rest only cost more
            undo = self._apply_flow(flow, t)
            if undo is None:
                continue
            self.flow_choice[(l, t, g)] = flow.arcs
            self._branch_flows(q + 1)
            del self.flow_choice[(l, t, g)]
            self._undo_flow(undo)

    def _apply_flow(self, flow: _Flow, t: int):
        deltas: list[tuple[int, float]] = []
        activated: list[tuple[int, int]] = []
        cap = self.eb + BATTERY_TOL
        for (u, energy) in flow.energy:
            self.en[u] += energy
            deltas.append((u, energy))
            if (u, t) not in self.y_state:
                self.y_state.add((u, t))
                activated.append((u, t))
                self.en[u] += self.em
            if self.en[u] + (self.ea if (u, 0) in self.y_state else 0.0) > cap:
                self._undo_flow((deltas, activated))
                return None
        return (deltas, activated)

    def _undo_flow(self, undo):
        deltas, activated = undo
        for (u, energy) in deltas:
            self.en[u] -= energy
        for (u, t) in activated:
            self.y_state.discard((u, t))
            self.en[u] -= self.em

    def _leaf(self):
        s = self.s
        total = self.obj_base
        for i in range(s.n):
            trans = 0
            prev = False
            for t in range(s.T):
                cur = (i, t) in self.y_state
                if cur and not prev:
                    trans += 1
                prev = cur
            ei = self.en[i] + self.ea * trans
            if ei > self.eb + BATTERY_TOL:
                return
            total += ei
        if total < self.best_obj - 1e-12:
            self.best_obj = total
            self.best_r = dict(self.r_val)
            self.best_flows = dict(self.flow_choice)


def solve_exact(
    instance: Instance,
    arcs: ArcSets | None = None,
    config: SolveConfig | None = None,
) -> tuple[Solution, bool]:
    """Minimize the objective by branch and bound.

    Returns (solution, certificate); the certificate is True only when the
    search completed with gap 0, in which case the solution is optimal.  It
    is never True when activation energy exceeds maintenance energy and
    there are at least three periods: there a sensor kept on through an
    idle period can save a switch-on, and the search does not explore that.
    """
    arcs = arcs_for(instance, arcs)
    t0 = time.perf_counter()
    search = _ExactSearch(instance, arcs, config or SolveConfig())
    certificate = search.run()
    return _assemble(search.s, search.best_flows, "exact", t0), certificate
