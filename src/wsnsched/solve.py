"""Solvers for the scheduling ILP.

Three methods with very different trust stories.  Each yields a schedule,
the arcs of each sensing triple's stream by triple, for :func:`_assemble`:

* :func:`brute_force_oracle` enumerates every assignment of the routing
  and sensing binaries (z, r) outright, and completes its winner with the
  schedule assembler the other two use, checking the completed objective
  against its own.  Slow and deliberately simple; it shares no search or
  bounding machinery with the branch-and-bound solver, so the two can
  check each other.
* :func:`solve_exact` is a depth-first branch-and-bound over the sensing
  decisions; each sensed stream is then routed by choosing among that
  commodity's simple paths to a sink.  Returns a certificate flag that is
  True only when the schedule is proven optimal (see :func:`solve_exact`);
  without one, the schedule is never worse than the heuristic's.
* :func:`solve_heuristic` is a greedy weighted set cover per period and
  phenomenon with shortest-path routing and running battery accounting.
  Each round prices every candidate with one backward search from the
  sinks, a lower bound on its routed cost, and routes candidates in
  order of that bound only until none left can win.  An improvement pass
  then drops redundant sensing, the most saving drop first.

All three are deterministic: ties are broken by fixed orderings, never by
hash order or a clock.
"""

from __future__ import annotations

import bisect
import heapq
import json
import math
import sys
import time
from dataclasses import dataclass, replace

from .instance import ArcSets, Instance, arcs_for
from .model import VarRef, parse_var_name, universe_size, variable_universe
from .validate import _Universe

SOLUTION_FORMAT = "wsn-solution/1"
# How far any schedule a solver emits may draw past a battery.  The
# validator accepts up to its looser ENERGY_TOL, meant for external solvers.
BATTERY_TOL = 1e-9
# Relative room between a heuristic round's backward price and a forward
# route cost: far above the few ulps by which summation order moves them.
PRICE_SLACK = 1e-9
ORACLE_CAP_DEFAULT = 40
# Above this many stream arcs outside a commodity's source, the exact
# search takes only its cheapest route instead of every simple path.
FLOW_ARC_CAP = 18


@dataclass(frozen=True)
class SolveConfig:
    """Limits for :func:`solve_exact`.

    ``time_limit_s`` must be positive (``inf`` means no limit),
    ``node_limit`` a nonnegative int (0 means unlimited) and ``gap`` a
    finite nonnegative relative gap; anything else is a ValueError.
    """

    time_limit_s: float = 60.0
    node_limit: int = 0
    gap: float = 0.0

    def __post_init__(self):
        if not self.time_limit_s > 0:
            raise ValueError(f"time limit must be positive, got {self.time_limit_s!r}")
        if (isinstance(self.node_limit, bool) or not isinstance(self.node_limit, int)
                or self.node_limit < 0):
            raise ValueError(f"node limit must be a nonnegative integer, got {self.node_limit!r}")
        if not (math.isfinite(self.gap) and self.gap >= 0):
            raise ValueError(f"gap must be finite and nonnegative, got {self.gap!r}")


@dataclass(frozen=True)
class Solution:
    """A variable assignment plus provenance.

    ``values`` maps each nonzero variable of the instance's model to its
    value (ints for binaries, float for energies); a variable it leaves
    out is 0, in memory as in solution files.  ``objective`` is the cost
    the producer claims; the validator recomputes it independently.
    """

    values: dict
    provenance: str  # "exact" | "heuristic" | "oracle" | "external"
    wall_time_s: float
    objective: float | None = None


class OracleCapExceeded(ValueError):
    """The instance has more binary variables than the oracle will accept."""


# -- shared index structures ----------------------------------------------------


class _Structures:
    """The solvers' view of (instance, arcs): the arcs' stream network and
    energy tables, and which demanded points each sensor covers."""

    def __init__(self, instance: Instance, arcs: ArcSets):
        self.instance = instance
        self.arcs = arcs
        self.tables = arcs.tables
        self.n = len(instance.sensors)
        self.T = instance.periods
        self.G = len(instance.phenomena)
        self.out_arcs = arcs.out_arcs
        self.in_arcs = arcs.in_arcs
        # Per (sensor, phenomenon): every point it covers, as its x
        # variables do, and the demanded ones only, which the solvers aim
        # at: sensing a point nobody asked about never helps.
        self.coverage: dict[tuple[int, int], list[int]] = {}
        self.sensor_cover: dict[tuple[int, int], list[int]] = {}
        for g in range(self.G):
            demanded = set(instance.demand_indices(g))
            for (i, j) in arcs.coverage[g]:
                self.coverage.setdefault((i, g), []).append(j)
                if j in demanded:
                    self.sensor_cover.setdefault((i, g), []).append(j)
        self.demanded = [
            (j, t, g)
            for g in range(self.G)
            for j in instance.demand_indices(g)
            for t in range(self.T)
        ]


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
    while heap:
        d, u = heapq.heappop(heap)
        if d > dist.get(u, math.inf):
            continue
        if u >= n:
            break  # costs are nonnegative, so the first sink settled is the cheapest
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
    else:
        return None  # no sink is reachable
    path = []
    node = u
    while node != src:
        arc = prev[node]
        path.append(arc)
        node = arc[0]
    path.reverse()
    return tuple(path), d


def _route_costs(s: _Structures, g: int, enter: list[float]) -> list[float]:
    """Every sensor's cheapest route cost to a sink, priced as :func:`_route`
    prices it; inf where no sink is reachable.

    One Dijkstra backwards from all sinks over the incoming stream arcs.
    It sums the same terms as :func:`_route` in another order, so a cost
    may differ from the forward one by a few ulps.
    """
    et = s.tables.et
    n = s.n
    dist = [math.inf] * n + [0.0] * (len(s.in_arcs) - n)
    heap = [(0.0, b) for b in range(n, len(s.in_arcs))]
    while heap:
        d, b = heapq.heappop(heap)
        if d > dist[b]:
            continue
        if b < n:
            d += enter[b]
        for (a, _) in s.in_arcs[b]:
            nd = d + et[(a, b)][g]
            if nd < dist[a]:
                dist[a] = nd
                heapq.heappush(heap, (nd, a))
    return dist[:n]


@dataclass(frozen=True)
class _Flow:
    """One feasible routing of a single stream: arcs and per-sensor energy."""

    arcs: tuple[tuple[int, int], ...]
    energy: tuple[tuple[int, float], ...]
    cost: float


def _charges(s: _Structures, g: int, arcs) -> dict[int, float]:
    """Energy each sensor spends carrying one stream of phenomenon g over
    ``arcs``: each arc's transmit energy to its tail, and the receive energy
    to its head unless the head is a sink."""
    et, er, n = s.tables.et, s.tables.er[g], s.n
    charge: dict[int, float] = {}
    for (a, b) in arcs:
        charge[a] = charge.get(a, 0.0) + et[(a, b)][g]
        if b < n:
            charge[b] = charge.get(b, 0.0) + er
    return charge


def _make_flow(s: _Structures, g: int, chosen: tuple[tuple[int, int], ...]) -> _Flow:
    energy = _charges(s, g, chosen)
    return _Flow(arcs=chosen, energy=tuple(sorted(energy.items())),
                 cost=sum(energy.values()))


def _enumerate_flows(s: _Structures, l: int, g: int):
    """Every simple path that routes one stream from l into a sink.

    A depth-first walk over the stream arcs that never re-enters l or a
    sensor already on the path; a sink ends the path.  Any other unit flow
    out of l is such a path plus cycles.  A cycle adds energy and turns its
    sensors on, which can only pay by keeping a sensor on through an idle
    period when activation costs more than maintenance; the search does
    not certify that case (see :meth:`_ExactSearch.run`).  Returns
    (flows sorted by (cost, arcs), complete); each flow's arcs are sorted.
    complete is False when the commodity has more than ``FLOW_ARC_CAP``
    arcs and only the cheapest route was produced.
    """
    n = s.n
    if len(s.arcs.stream) - len(s.in_arcs[l]) > FLOW_ARC_CAP:
        route = _route(s, l, g, [s.tables.er[g]] * n)
        return ([] if route is None else [_make_flow(s, g, tuple(sorted(route[0])))]), False

    flows: list[_Flow] = []
    path: list[tuple[int, int]] = []
    on_path = {l}

    def walk(u: int):
        for arc in s.out_arcs[u]:
            b = arc[1]
            if b in on_path:
                continue
            path.append(arc)
            if b >= n:
                flows.append(_make_flow(s, g, tuple(sorted(path))))
            else:
                on_path.add(b)
                walk(b)
                on_path.discard(b)
            path.pop()

    walk(l)
    flows.sort(key=lambda f: (f.cost, f.arcs))
    return flows, True


# -- exact branch and bound ------------------------------------------------------


class _SearchLimit(Exception):
    pass


class _ExactSearch:
    """DFS branch-and-bound: sensing decisions first, then each sensed
    stream is routed over one of its simple paths to a sink.

    The sensing bound counts the sensing cost (the activation penalty plus
    the cheapest route, from one backward search per phenomenon) of each
    triple decided 1, and maintenance and activation energy once they are
    certain.  Each open demand triple adds the least of its penalty and its
    undecided coverers' sensing costs amortized over the open triples they
    cover, so the bound never exceeds the cost of any completion of the
    node.  Its parts are kept up to date as decisions are set and undone:
    the committed cost and active-pair counts travel down the recursion;
    the triples decided 1 are a stack, in decision order, which routing
    starts from; the open demand triples are a list in ``s.demanded``
    order, the only triples the bound visits; and each sensing triple keeps
    its count of open demand triples.  Sensing a triple closes the open
    triples it covers and pushes them on a stack; undoing it pops them,
    puts each back in order and restores the counts, as in Knuth's dancing
    links.  Each node makes one pass over its open triples (:meth:`_price`)
    for three sums: its own bound, its 0-child's exact bound, which is
    handed down, and a lower bound for its 1-child from the node's own
    counts, which prunes that child before sensing is applied.  A 0-child
    at the last depth needs no pass.
    The prune cutoff is priced once per incumbent, and the routing phase
    keeps its period-0 activity count and its suffix sums of route lower
    bounds instead of recounting them at every node; each suffix is summed
    when the routing first reaches its depth.
    """

    def __init__(self, instance: Instance, arcs: ArcSets, config: SolveConfig):
        self.s = _Structures(instance, arcs)
        self.cfg = config
        s = self.s
        t = s.tables
        self.em, self.ea, self.eb = t.em, t.ea, t.eb
        self.eh, self.eg = t.eh, t.eg
        # Sensing triple (i, t, g) sits at position (i*T + t)*G + g.
        self.r_list = [
            (i, tt, g) for i in range(s.n) for tt in range(s.T) for g in range(s.G)
        ]
        lowest = [_route_costs(s, g, [t.er[g]] * s.n) for g in range(s.G)]
        self.route_lb = {
            (i, g): lowest[g][i] if (i, g) in s.sensor_cover else math.inf
            for i in range(s.n)
            for g in range(s.G)
        }
        # Per sensing position: its cost and the demand triples it covers.
        self.sense_cost = [self.eg + self.route_lb[(i, g)] for (i, _, g) in self.r_list]
        slot = {key: q for q, key in enumerate(s.demanded)}
        self.covers = [[slot[(j, tt, g)] for j in s.sensor_cover.get((i, g), ())]
                       for (i, tt, g) in self.r_list]
        # Per demand triple: its coverers' positions, last position first.
        self.coverers = [
            [(i * s.T + tt) * s.G + g for i in reversed(arcs.covering[g][j])]
            for (j, tt, g) in s.demanded
        ]
        # Demand positions with no coverer decided 1, ascending, with a set
        # beside the list; each sensing decision's closed positions.
        self.open = list(range(len(s.demanded)))
        self.open_set = set(self.open)
        self.closed: list[list[int]] = []
        self.open_count = [len(q) for q in self.covers]  # in r_list order
        self.ones: list[tuple[int, int, int]] = []  # the triples decided 1, in order
        # Incumbent: the all-off schedule, always feasible.
        self._incumbent(self.eh * len(s.demanded), {})
        self.nodes = 0
        self.truncated = False
        self.deadline = time.perf_counter() + config.time_limit_s
        self._flow_cache: dict[tuple[int, int], tuple[list[_Flow], bool]] = {}

    def _incumbent(self, obj: float, flows: dict):
        """Take (obj, flows) as the best schedule so far; a node is pruned
        once its bound reaches ``cutoff``."""
        self.best_obj = obj
        self.best_flows = flows
        self.cutoff = obj - max(1e-12, self.cfg.gap * abs(obj))

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
            self._branch_r(0, 0.0, 0, 0)
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

    def _branch_r(self, d: int, commit: float, on: int, on0: int, bound=None):
        """Node at depth d: ``commit`` is the decided-1 triples' sensing
        cost, summed in decision order; ``on`` and ``on0`` count the
        active (sensor, period) pairs, in all periods and in period 0.
        ``bound`` is the node's sensing bound when its parent priced it."""
        self._tick()
        if bound is not None and bound >= self.cutoff:
            return
        base = commit + self.em * on + self.ea * on0
        if d == len(self.r_list):
            if bound is None:
                bound = self._price(d, base, base)[0]
            if bound < self.cutoff:
                self._start_routing(on0)
            return
        key = self.r_list[d]
        i, t, _ = key
        cost = self.sense_cost[d]
        # r_list varies g fastest: (i, t) has a sensing 1 only on top.
        fresh = not self.ones or self.ones[-1][:2] != (i, t)
        one = (commit + cost, on + fresh, on0 + (fresh and t == 0))
        bound, bound0, low1 = self._price(
            d, base, one[0] + self.em * one[1] + self.ea * one[2])
        if bound >= self.cutoff:
            return
        if not math.isinf(cost):  # sensing with no route to any sink is infeasible
            if low1 >= self.cutoff:
                self._tick()  # the 1-child, pruned without being built
            else:
                self.ones.append(key)
                self._cover(d, 1)
                self._branch_r(d + 1, *one)
                self._cover(d, -1)
                self.ones.pop()
        self._branch_r(d + 1, commit, on, on0, bound0)

    def _price(self, d: int, base: float, base1: float):
        """One pass over the open demand triples of a node at depth d,
        whose committed part is ``base`` and whose 1-child's is ``base1``.

        Returns the node's bound, its 0-child's bound and a lower bound on
        its 1-child's.  Each open triple adds the least of its penalty and
        its undecided coverers' shares: for the 0-child the coverers after
        r_list[d], for the node r_list[d] too.  The 1-child's sum skips the
        triples that r_list[d] covers.  Its own shares are those of the
        0-child, up to its open counts, which are at most the node's, and a
        smaller count only raises a share; so its sum adds terms no larger
        than its bound adds, in the same order, and cannot exceed it.
        """
        own = zero = base
        one = base1
        open_count, cost, coverers, eh = self.open_count, self.sense_cost, self.coverers, self.eh
        for q in self.open:
            cheapest = eh
            p = -1
            for p in coverers[q]:
                if p <= d:
                    break  # this coverer and the rest are decided, or r_list[d]
                share = cost[p] / open_count[p]
                if share < cheapest:
                    cheapest = share
            zero += cheapest
            if p == d:  # sensing r_list[d] covers q
                share = cost[d] / open_count[d]
                own += share if share < cheapest else cheapest
            else:
                own += cheapest
                one += cheapest
        return own, zero, one

    def _cover(self, d: int, step: int):
        """Sense (step 1) or undo sensing (step -1) r_list[d].  Sensing
        closes the open demand triples it covers, and their coverers each
        lose an open triple; undoing reopens the same triples."""
        open_list, open_set, open_count = self.open, self.open_set, self.open_count
        if step > 0:
            closed = [q for q in self.covers[d] if q in open_set]
            for q in closed:
                open_set.discard(q)
                del open_list[bisect.bisect_left(open_list, q)]
            self.closed.append(closed)
        else:
            closed = self.closed.pop()
            for q in closed:
                open_set.add(q)
                bisect.insort(open_list, q)
        for q in closed:
            for p in self.coverers[q]:
                open_count[p] -= step

    # -- routing phase --

    def _start_routing(self, on0: int):
        """Route ``ones``, the decided-1 triples; ``on0`` counts their period-0 pairs."""
        # route_lb summed over ones[q:], filled by _branch_flows as it first
        # reaches each depth q: most routing starts are pruned at depth 0.
        self.remaining: list[float | None] = [None] * (len(self.ones) + 1)
        self.obj_base = self.eh * len(self.open) + self.eg * len(self.ones)
        self.y_state = {(i, t) for (i, t, _) in self.ones}  # active (sensor, period) pairs
        self.on0 = on0  # pairs in y_state with period 0
        self.en = [0.0] * self.s.n  # each sensor's energy so far
        for (i, _) in self.y_state:
            self.en[i] += self.em
        self.flow_choice = {}
        self._branch_flows(0)

    def _branch_flows(self, q: int):
        self._tick()
        remaining = self.remaining[q]
        if remaining is None:
            # Each suffix is summed left to right from its own start; a
            # running total taken from the end would round differently.
            remaining = self.remaining[q] = sum(
                self.route_lb[(l, g)] for (l, _, g) in self.ones[q:])
        base = sum(self.en) + self.ea * self.on0 + self.obj_base
        if base + remaining >= self.cutoff:
            return
        if q == len(self.ones):
            self._leaf()
            return
        l, t, g = self.ones[q]
        flows, complete = self.flows_for(l, g)
        if not complete:
            self.truncated = True
        rest = remaining - self.route_lb[(l, g)]
        for flow in flows:
            if base + rest + flow.cost >= self.cutoff:
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
                self.on0 += t == 0
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
            self.on0 -= t == 0
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
            self._incumbent(total, dict(self.flow_choice))


def solve_exact(
    instance: Instance,
    arcs: ArcSets | None = None,
    config: SolveConfig | None = None,
) -> tuple[Solution, bool]:
    """Minimize the objective by branch and bound.

    Returns (solution, certificate); the certificate is True only when the
    solution is proven optimal.  It is False when the search hit its time
    or node limit or ran with a nonzero gap, and also without any limit
    hit: when some sensed commodity has more than ``FLOW_ARC_CAP`` stream
    arcs outside its source, so only its cheapest route was tried; and
    when activation energy exceeds maintenance energy and there are at
    least three periods, where a sensor kept on through an idle period can
    save a switch-on, which the search does not explore.

    Without a certificate the search's best schedule is only a heuristic
    one, so it is polished (:func:`_polish`) as the greedy's is, and the
    schedule of :func:`solve_heuristic` is assembled too and returned (as
    provenance "exact") when its objective is strictly lower; so such a
    run is never worse than the heuristic.  A certified run does neither.
    """
    arcs = arcs_for(instance, arcs)
    t0 = time.perf_counter()
    search = _ExactSearch(instance, arcs, config or SolveConfig())
    certificate = search.run()
    s = search.s
    if certificate:
        solution = _assemble(s, search.best_flows, "exact", t0)
    else:
        solution = _assemble(s, _polish(s, search.best_flows), "exact", t0)
        greedy = _assemble(s, _polish(s, _greedy(s)), "exact", t0)
        if greedy.objective < solution.objective:
            solution = greedy
    return replace(solution, wall_time_s=time.perf_counter() - t0), certificate


# -- exhaustive oracle -----------------------------------------------------------


def brute_force_oracle(
    instance: Instance,
    arcs: ArcSets | None = None,
    cap: int = ORACLE_CAP_DEFAULT,
) -> Solution:
    """Optimal solution by exhaustive enumeration.

    Enumerates every assignment of the routing and sensing binaries (z, r)
    and derives the rest as :func:`_assemble` does: x on every coverage
    pair of a sensing triple, which only lowers h since x appears in no
    other constraint; y the minimal activity pattern consistent with the
    assignment, w its transitions, h the uncovered indicators, e the
    accounted energy.  When activation energy does not exceed maintenance
    energy, or there are fewer than three periods, some optimal solution
    always has this shape, so the enumeration loses nothing.  Otherwise
    keeping a sensor on through an idle period can save a switch-on, and the
    result is optimal only among schedules with minimal activity.  Ties go
    to the smallest (z, r) assignment in model variable order.

    The winner's streams, read off its z bits, are completed by
    :func:`_assemble` as the other solvers' schedules are, and an
    AssertionError is raised when the completed objective differs from the
    enumeration's by more than 1e-9 relative.  A stream whose source does
    not sense, a cycle, would fail that check; it pays only where an idle
    period can (above), and the smallest such case known has 63 columns.

    Raises :class:`OracleCapExceeded` when the model has more than ``cap``
    binary variables (enumeration time grows as 2^free).
    """
    import numpy as np

    arcs = arcs_for(instance, arcs)
    t0 = time.perf_counter()
    n_binary = universe_size(instance, arcs) - len(instance.sensors)  # all but e
    if n_binary > cap:
        raise OracleCapExceeded(
            f"instance has {n_binary} binary variables, oracle cap is {cap}"
        )
    s = _Structures(instance, arcs)
    tb, n = s.tables, s.n

    # One pass over the free columns: the (sensor, period) pairs each keeps
    # on, each sensor's energy per column, the stream balance of each
    # (source, sensor, t, g) as (inflow, outflow) columns, with the sensing
    # column as the source's inflow (C5 and C6), and the sensing columns
    # covering each demanded triple.
    free = [ref for ref in variable_universe(instance, arcs) if ref.kind in ("z", "r")]
    on: dict[tuple[int, int], list[int]] = {}
    coef: list[list[tuple[int, float]]] = [[] for _ in range(n)]
    balance: dict[tuple[int, int, int, int], tuple[list[int], list[int]]] = {}
    covers: dict[tuple[int, int, int], list[int]] = {key: [] for key in s.demanded}
    sensing = []
    for c, ref in enumerate(free):
        if ref.kind == "r":
            i, t, g = ref.indices
            on.setdefault((i, t), []).append(c)
            balance.setdefault((i, i, t, g), ([], []))[0].append(c)
            for j in s.sensor_cover.get((i, g), ()):
                covers[(j, t, g)].append(c)
            sensing.append(c)
        else:
            l, a, b, t, g = ref.indices
            on.setdefault((a, t), []).append(c)
            coef[a].append((c, tb.et[(a, b)][g]))
            balance.setdefault((l, a, t, g), ([], []))[1].append(c)
            if b < n:
                on.setdefault((b, t), []).append(c)
                coef[b].append((c, tb.er[g]))
                balance.setdefault((l, b, t, g), ([], []))[0].append(c)

    nf = len(free)
    best_code, best_obj = 0, math.inf
    step = 1 << min(nf, 16)
    for start in range(0, 1 << nf, step):
        codes = np.arange(start, min(start + step, 1 << nf), dtype=np.uint64)
        # Column c is bit nf-1-c of the code: codes ascend in model order.
        bits = [(codes >> np.uint64(nf - 1 - c) & np.uint64(1)).astype(np.uint8)
                for c in range(nf)]
        feas = np.ones(len(codes), dtype=bool)
        for ins, outs in balance.values():
            feas &= sum(bits[c] for c in ins) == sum(bits[c] for c in outs)
        codes = codes[feas]
        if not len(codes):
            continue
        bits = [col[feas] for col in bits]

        # Completion: activity, switch-ons, energy and its battery (C10), cover.
        feas = np.ones(len(codes), dtype=bool)
        obj = np.zeros(len(codes))
        for i in range(n):
            active = starts = prev = 0
            for t in range(s.T):
                cur = 0
                for c in on.get((i, t), ()):
                    cur = cur | bits[c]
                active = active + cur
                starts = starts + (cur > prev)
                prev = cur
            e = tb.em * active + tb.ea * starts + sum(k * bits[c] for c, k in coef[i])
            feas &= e <= tb.eb + BATTERY_TOL
            obj += e
        for key in s.demanded:
            covered = 0
            for c in covers[key]:
                covered = covered | bits[c]
            obj += tb.eh * (covered == 0)
        obj += tb.eg * sum(bits[c] for c in sensing)

        obj[~feas] = math.inf
        k = int(np.argmin(obj))
        if obj[k] < best_obj:
            best_obj = float(obj[k])
            best_code = int(codes[k])

    flows = {}
    for c, ref in enumerate(free):
        if ref.kind == "z" and best_code >> (nf - 1 - c) & 1:
            l, a, b, t, g = ref.indices
            flows.setdefault((l, t, g), []).append((a, b))
    solution = _assemble(s, flows, "oracle", t0)
    if not math.isclose(solution.objective, best_obj, rel_tol=1e-9):
        raise AssertionError(f"assembled objective {solution.objective} differs "
                             f"from the enumerated optimum {best_obj}")
    return solution


# -- greedy heuristic -------------------------------------------------------------


def solve_heuristic(instance: Instance, arcs: ArcSets | None = None) -> Solution:
    """Greedy weighted set cover with shortest-path routing.

    Periods are processed in order; within a period, phenomena in order.
    Each round activates the sensor with the cheapest marginal cost per
    newly covered demand point (sensors already active this period are
    naturally preferred, their fixed cost being sunk), immediately routes
    its stream to a sink with relay activation surcharges included in the
    path cost, and debits every battery the route touched.  Demand points
    whose every remaining cover-and-route option would overdraw a battery,
    or cost more than the uncovered penalty, take the penalty.

    A round prices every candidate at once with one backward search from
    the sinks (:func:`_route_costs`).  That price ignores battery bans, so
    it never exceeds the candidate's routed cost, up to the few ulps that
    summation order moves it (``PRICE_SLACK`` covers them).  Candidates
    are then routed by :func:`_route`, with bans, in order of their price
    per new point; the round stops at the first whose price exceeds the
    best routed ratio, or the uncovered penalty, by more than the slack.
    No candidate after it can win or tie, so the schedule is the one that
    routing every candidate would give.

    That construction is then polished by :func:`_polish`, which drops
    sensing whose demand other sensors already cover while a drop saves;
    the result is never costlier and covers the same demand.
    """
    arcs = arcs_for(instance, arcs)
    t0 = time.perf_counter()
    s = _Structures(instance, arcs)
    return _assemble(s, _polish(s, _greedy(s)), "heuristic", t0)


def _greedy(s: _Structures):
    """The schedule :func:`solve_heuristic` describes, before polishing."""
    instance, tb = s.instance, s.tables
    n, T, G = s.n, s.T, s.G

    residual = [tb.eb] * n
    y = [[False] * T for _ in range(n)]
    flows: dict[tuple[int, int, int], tuple[tuple[int, int], ...]] = {}

    def surcharge(v: int, t: int) -> float:
        if y[v][t]:
            return 0.0
        fresh = t == 0 or not y[v][t - 1]
        return tb.em + (tb.ea if fresh else 0.0)

    def find_route(src: int, g: int, extra: list[float], enter: list[float]):
        """Cheapest battery-feasible route from src; None if there is none.

        Entering sensor v costs ``enter[v]``, its receive energy plus its
        activation surcharge ``extra[v]``.  Relays whose battery cannot
        take their share are banned and the search reruns, at most once
        per sensor.
        """
        enter = list(enter)
        for _ in range(n + 1):
            path = _route(s, src, g, enter)
            if path is None:
                return None
            arcs_p, cost = path
            deltas = _charges(s, g, arcs_p)
            for v in deltas:
                if v != src:
                    deltas[v] += extra[v]
            bad = None
            for v in sorted(deltas):
                if v != src and residual[v] < deltas[v] - BATTERY_TOL:
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
                extra = [surcharge(v, t) for v in range(n)]
                enter = [tb.er[g] + x for x in extra]
                lower = _route_costs(s, g, enter)
                priced = []
                for i in range(n):
                    if (i, t, g) in flows or (i, g) not in s.sensor_cover:
                        continue
                    newly = [j for j in s.sensor_cover[(i, g)] if j in open_points]
                    if newly and lower[i] < math.inf:
                        price = (tb.eg + extra[i] + lower[i]) / len(newly)
                        priced.append((price, i, newly))
                priced.sort()
                best = None
                for price, i, newly in priced:
                    if price > tb.eh * (1 + PRICE_SLACK):
                        break  # this and every later one costs more than the penalty
                    if best is not None and price > best[0][0] * (1 + PRICE_SLACK):
                        break  # no later candidate can reach the best ratio
                    own = extra[i]
                    route = find_route(i, g, extra, enter)
                    if route is None:
                        continue
                    arcs_p, deltas, route_cost = route
                    if residual[i] < own + deltas.get(i, 0.0) - BATTERY_TOL:
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
                flows[(i, t, g)] = arcs_p
                y[i][t] = True
                residual[i] -= own
                for v, delta in sorted(deltas.items()):
                    y[v][t] = True
                    residual[v] -= delta
                for j in newly:
                    open_points.discard(j)
    return flows


def _polish(s: _Structures, flows):
    """Drop the sensing that other sensors' sensing makes redundant.

    A best-first reverse delete, the redundancy elimination of connected
    sensor cover (Gupta, Das & Gu, 2003).  A sensing triple (i, t, g) is a
    candidate when each demanded point it covers has a second coverer
    sensing in (t, g).  Dropping it also drops its stream, and saves the
    activation penalty, the stream's energy, maintenance for each (sensor,
    period) pair left idle, and activation for each switch-on that idle
    pair removes, less one for each it creates (a sensor on just before
    and just after switches on again).  A drop that would raise a sensor
    above its battery is refused.  Each round drops the candidate with the
    largest positive saving, the smallest triple on ties, until none saves.

    Savings are priced from counts kept beside the schedule: the sensing
    triples that cover each demand triple, the uses (sensing, or an end of
    a stream arc) that keep each pair on, and each sensor's energy.
    Returns a new schedule; every demand triple stays covered.
    """
    tb = s.tables
    n, T = s.n, s.T
    flows = dict(flows)
    cover: dict[tuple[int, int, int], int] = {}
    uses: dict[tuple[int, int], int] = {}

    def count(key, step):
        i, t, g = key
        for j in s.sensor_cover.get((i, g), ()):
            cover[(j, t, g)] = cover.get((j, t, g), 0) + step
        uses[(i, t)] = uses.get((i, t), 0) + step
        for (a, b) in flows[key]:
            uses[(a, t)] = uses.get((a, t), 0) + step
            if b < n:
                uses[(b, t)] = uses.get((b, t), 0) + step

    for key in sorted(flows):
        count(key, 1)
    energy = _energies(s, [[uses.get((v, t), 0) > 0 for t in range(T)]
                           for v in range(n)], flows)
    cap = tb.eb + BATTERY_TOL

    def price(key):
        """(saving, each sensor's energy change) of dropping key, or None
        when the drop would raise some sensor above its battery."""
        i, t, g = key
        path = flows[key]
        charges = _charges(s, g, path)
        change = {v: -c for v, c in charges.items()}
        drop = {i: 1}  # the uses of each (v, t) that the drop ends
        for (a, b) in path:
            drop[a] = drop.get(a, 0) + 1
            if b < n:
                drop[b] = drop.get(b, 0) + 1
        idle = removed = created = 0
        for v in sorted(drop):
            if uses[(v, t)] > drop[v]:
                continue
            before = t > 0 and uses.get((v, t - 1), 0) > 0
            after = t + 1 < T and uses.get((v, t + 1), 0) > 0
            idle += 1
            removed += not before
            created += after
            change[v] = change.get(v, 0.0) - tb.em + tb.ea * (after - (not before))
            if change[v] > 0 and energy[v] + change[v] > cap:
                return None
        saving = tb.eg + sum(charges.values()) + tb.em * idle + tb.ea * (removed - created)
        return saving, change

    while True:
        best = None
        for key in sorted(flows):
            i, t, g = key
            if any(cover[(j, t, g)] < 2 for j in s.sensor_cover.get((i, g), ())):
                continue
            priced = price(key)
            if priced is not None and priced[0] > (0.0 if best is None else best[0]):
                best = (priced[0], key, priced[1])
        if best is None:
            return flows
        _, key, change = best
        count(key, -1)
        del flows[key]
        for v, c in change.items():
            energy[v] += c


# -- schedule assembly ------------------------------------------------------------


def _assemble(s: _Structures, flows, provenance: str, t0: float) -> Solution:
    """Complete a schedule into its nonzero assignment.

    ``flows``, the schedule, maps each sensing triple (i, t, g) to the arcs
    of its stream: a key sets r, and x from coverage; its arcs set z.  Then
    y wherever a sensor senses or carries a stream, w at each start of
    activity, h for every demanded triple left uncovered, and e accounted
    exactly as the energy constraint does.  ``t0`` is the solve's start.
    """
    tb = s.tables
    n, T = s.n, s.T
    values = {}
    y = [[False] * T for _ in range(n)]
    covered = set()  # (j, t, g) with some x set
    for (i, t, g), path in flows.items():
        values[VarRef("r", (i, t, g))] = 1
        y[i][t] = True
        for j in s.coverage.get((i, g), ()):
            values[VarRef("x", (i, j, t, g))] = 1
            covered.add((j, t, g))
        for (a, b) in path:
            values[VarRef("z", (i, a, b, t, g))] = 1
            y[a][t] = True
            if b < n:
                y[b][t] = True

    for i in range(n):
        prev = False
        for t in range(T):
            if y[i][t]:
                values[VarRef("y", (i, t))] = 1
                if not prev:
                    values[VarRef("w", (i, t))] = 1
            prev = y[i][t]
    energy = _energies(s, y, flows)
    objective = 0.0
    for i in range(n):
        if energy[i]:
            values[VarRef("e", (i,))] = energy[i]
        objective += energy[i]
    for key in s.demanded:
        if key not in covered:
            values[VarRef("h", key)] = 1
            objective += tb.eh
    objective += tb.eg * len(flows)
    return Solution(values=values, provenance=provenance,
                    wall_time_s=time.perf_counter() - t0, objective=objective)


def _energies(s: _Structures, y, flows) -> list[float]:
    """Each sensor's energy, accounted as the energy constraint does:
    maintenance for each period ``y[i][t]`` holds it on and activation for
    each switch-on, then every stream's charges, in ``flows`` order."""
    tb = s.tables
    energy = [0.0] * s.n
    for i, row in enumerate(y):
        prev = False
        for on in row:
            if on:
                energy[i] += tb.em
                if not prev:
                    energy[i] += tb.ea
            prev = on
    for (_, _, g), path in flows.items():
        for (a, b) in path:
            energy[a] += tb.et[(a, b)][g]
            if b < s.n:
                energy[b] += tb.er[g]
    return energy


# -- solution files ---------------------------------------------------------------


def solution_to_json(solution: Solution) -> dict:
    nonzero = {
        ref.name: val
        for ref, val in sorted(solution.values.items(), key=lambda kv: kv[0].sort_key())
        if val
    }
    return {
        "format": SOLUTION_FORMAT,
        "provenance": solution.provenance,
        "wall_time_s": solution.wall_time_s,
        "objective": solution.objective,
        "values": nonzero,
    }


def save_solution(solution: Solution, path) -> None:
    from .ioutil import atomic_write_text

    atomic_write_text(path, json.dumps(solution_to_json(solution), indent=2) + "\n")


def _snap(ref: VarRef, val):
    """A finite binary within 1e-6 of an integer becomes that int; any
    other value is kept as-is for the validator to reject."""
    if ref.kind == "e" or isinstance(val, int) or not math.isfinite(val):
        return val
    near = round(val)
    return near if abs(val - near) <= 1e-6 else val


def _json_number(what: str, val):
    """``val`` if it is a JSON number (not a bool) that fits a float."""
    if isinstance(val, bool) or not isinstance(val, (int, float)):
        raise ValueError(f"{what} has non-numeric value {val!r}")
    if isinstance(val, int) and abs(val) > sys.float_info.max:
        raise ValueError(f"{what} is out of range")
    return val


def _nonzero(instance: Instance, arcs, what: str, pairs) -> dict:
    """The nonzero values of a solution file's (VarRef, number) ``pairs``, each
    a variable of the instance's model; binaries are snapped by :func:`_snap`."""
    member = _Universe(instance, arcs_for(instance, arcs)).member
    values = {}
    for ref, val in pairs:
        if not member[ref.kind](ref.indices):
            raise ValueError(f"{what} {ref.name} does not belong to this instance")
        val = _snap(ref, val)
        if val:
            values[ref] = val
    return values


def _json_object(pairs) -> dict:
    """A JSON object as a dict; a key it repeats is an error."""
    out = dict(pairs)
    if len(out) < len(pairs):
        seen: set[str] = set()
        key = next(k for k, _ in pairs if k in seen or seen.add(k))
        raise ValueError(f"solution file repeats the key {key!r}")
    return out


def load_solution(path, instance: Instance, arcs: ArcSets | None = None) -> Solution:
    """Load a solution JSON; variables the file omits, or sets to 0, are 0.

    Every value must be a JSON number; binaries are snapped by :func:`_snap`.
    A key repeated in any object is an error.
    """
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh, object_pairs_hook=_json_object)
    fmt = data.get("format") if isinstance(data, dict) else None
    if fmt != SOLUTION_FORMAT:
        raise ValueError(f"unsupported solution format {fmt!r}")
    if not isinstance(data.get("values"), dict):
        raise ValueError("solution file has no 'values' object")
    pairs = ((parse_var_name(name), _json_number(f"solution variable {name}", val))
             for name, val in data["values"].items())
    return Solution(
        values=_nonzero(instance, arcs, "solution variable", pairs),
        provenance=data.get("provenance", "external"),
        wall_time_s=float(_json_number("wall_time_s", data.get("wall_time_s", 0.0))),
        objective=data.get("objective"),
    )


def parse_external_solution(text: str) -> dict[VarRef, float]:
    """Parse ``name = value`` lines as emitted by LP solvers.

    Blank lines and ``#`` comments are skipped; malformed names or values,
    and a variable set on two lines, are an error.  Variables not mentioned
    default to 0 at import time.
    """
    out: dict[VarRef, float] = {}
    first: dict[VarRef, int] = {}  # the line that set each variable
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"line {lineno}: expected 'name = value'")
        name, _, val = line.partition("=")
        try:
            ref = parse_var_name(name.strip())
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {exc}") from exc
        try:
            number = float(val.strip())
        except ValueError:
            raise ValueError(f"line {lineno}: malformed value {val.strip()!r}")
        if ref in first:
            raise ValueError(f"line {lineno}: {ref.name} was already set on line {first[ref]}")
        first[ref] = lineno
        out[ref] = number
    return out


def load_external_solution(path, instance: Instance, arcs: ArcSets | None = None) -> Solution:
    """Import an external solver's assignment; omitted variables are 0.

    Binary values are snapped to integers by :func:`_snap`.
    """
    with open(path, "r", encoding="utf-8") as fh:
        parsed = parse_external_solution(fh.read())
    values = _nonzero(instance, arcs, "variable", parsed.items())
    return Solution(values=values, provenance="external", wall_time_s=0.0)
