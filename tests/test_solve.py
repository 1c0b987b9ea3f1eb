"""Exact search, enumeration oracle, heuristic, and solution files."""

import math

import pytest

import wsnsched as w
from wsnsched.solve import (
    FLOW_ARC_CAP,
    OracleCapExceeded,
    _assemble,
    _enumerate_flows,
    _ExactSearch,
    _greedy,
    _polish,
    _route,
    _route_costs,
    _Structures,
    parse_external_solution,
)
from helpers import (
    POOL_LAYOUTS,
    SENSING_SEEDS,
    make_instance,
    relay_chain,
    tiny_instance,
    trivial_instance,
    values_by_kind,
    assert_routes_reach_sinks,
)


def test_trivial_optimum_all_three_solvers():
    inst = trivial_instance()
    arcs = w.build_arcs(inst)

    exact, certificate = w.solve_exact(inst, arcs)
    assert certificate
    oracle = w.brute_force_oracle(inst, arcs)
    heuristic = w.solve_heuristic(inst, arcs)

    # EM + EA + ET = 1.23 energy, plus EG for the one sensing period.
    for sol in (exact, oracle, heuristic):
        assert w.check_feasibility(inst, arcs, sol) == []
        metrics = w.evaluate(inst, sol, arcs)
        assert metrics.objective == pytest.approx(1.24, rel=1e-12)
        assert sol.values[w.VarRef("e", (0,))] == pytest.approx(1.23, rel=1e-12)
        assert sol.values[w.VarRef("x", (0, 0, 0, 0))] == 1.0
        assert sol.values[w.VarRef("z", (0, 0, 1, 0, 0))] == 1.0
        assert sol.objective == pytest.approx(metrics.objective, rel=1e-12)
    assert exact.provenance == "exact"
    assert oracle.provenance == "oracle"
    assert heuristic.provenance == "heuristic"
    assert exact.wall_time_s >= 0.0


def test_relay_chain_optimum():
    # e0 = EM+EA+ET = 1.23, e1 = EM+EA+ER+ET = 1.47, objective 2.70 + EG.
    inst = relay_chain()
    arcs = w.build_arcs(inst)
    exact, certificate = w.solve_exact(inst, arcs)
    assert certificate
    metrics = w.evaluate(inst, exact, arcs)
    assert metrics.objective == pytest.approx(2.71, rel=1e-12)
    assert exact.values[w.VarRef("z", (0, 0, 1, 0, 0))] == 1.0
    assert exact.values[w.VarRef("z", (0, 1, 2, 0, 0))] == 1.0
    assert exact.values[w.VarRef("y", (1, 0))] == 1.0
    assert exact.values[w.VarRef("e", (1,))] == pytest.approx(1.47, rel=1e-12)

    oracle = w.brute_force_oracle(inst, arcs)
    heuristic = w.solve_heuristic(inst, arcs)
    assert w.evaluate(inst, oracle, arcs).objective == pytest.approx(2.71, rel=1e-12)
    assert w.evaluate(inst, heuristic, arcs).objective == pytest.approx(2.71, rel=1e-12)


def test_exact_matches_oracle_on_tiny_instances():
    for seed in range(12):
        inst, arcs = tiny_instance(seed)
        exact, certificate = w.solve_exact(inst, arcs)
        assert certificate, f"seed {seed} hit limits"
        oracle = w.brute_force_oracle(inst, arcs)
        me = w.evaluate(inst, exact, arcs).objective
        mo = w.evaluate(inst, oracle, arcs).objective
        assert me == pytest.approx(mo, rel=1e-9), f"seed {seed}"


def test_oracle_breaks_ties_lexicographically():
    # Perfectly symmetric twins; the lexicographically first optimal
    # assignment zeroes the earliest variables, so sensor 1 does the work.
    inst = make_instance(
        sensors=[(4.0, 5.0), (6.0, 5.0)], demand_points=[(5.0, 5.0)],
        sinks=[(5.0, 5.0)], radii=(1.0,), comm_radius=2.0)
    arcs = w.build_arcs(inst)
    oracle = w.brute_force_oracle(inst, arcs)
    rs = values_by_kind(oracle, "r")
    assert rs.get((0, 0, 0), 0) == 0
    assert rs[(1, 0, 0)] == 1.0
    exact, certificate = w.solve_exact(inst, arcs)
    assert certificate
    assert w.evaluate(inst, exact, arcs).objective == pytest.approx(
        w.evaluate(inst, oracle, arcs).objective, rel=1e-12)


def test_unroutable_coverage_forces_penalty():
    # The sensor covers the point but cannot reach any sink.
    inst = make_instance(
        sensors=[(1.0, 5.0)], demand_points=[(1.0, 6.0)], sinks=[(9.0, 5.0)],
        radii=(2.0,), comm_radius=3.0)
    arcs = w.build_arcs(inst)
    for sol in (w.solve_exact(inst, arcs)[0], w.brute_force_oracle(inst, arcs),
                w.solve_heuristic(inst, arcs)):
        metrics = w.evaluate(inst, sol, arcs)
        assert metrics.objective == pytest.approx(inst.penalty_uncovered, rel=1e-12)
        assert metrics.real_objective == 0.0
        assert metrics.uncovered_rate == 1.0


def test_zero_battery_forces_all_penalty():
    inst = trivial_instance(battery=0.0, periods=2)
    arcs = w.build_arcs(inst)
    for sol in (w.solve_exact(inst, arcs)[0], w.brute_force_oracle(inst, arcs),
                w.solve_heuristic(inst, arcs)):
        assert w.check_feasibility(inst, arcs, sol) == []
        metrics = w.evaluate(inst, sol, arcs)
        assert metrics.objective == pytest.approx(2 * inst.penalty_uncovered, rel=1e-12)
        assert all(val == 0.0 for ref, val in sol.values.items() if ref.kind == "y")


def test_small_battery_limits_sensing_periods():
    # Two periods cost 2.21 > 1.3; the optimum covers exactly one period.
    inst = trivial_instance(battery=1.3, periods=2)
    arcs = w.build_arcs(inst)
    exact, certificate = w.solve_exact(inst, arcs)
    assert certificate
    oracle = w.brute_force_oracle(inst, arcs)
    expect = inst.penalty_uncovered + 1.24
    for sol in (exact, oracle):
        metrics = w.evaluate(inst, sol, arcs)
        assert metrics.objective == pytest.approx(expect, rel=1e-12)
        assert sum(values_by_kind(sol, "r").values()) == 1.0
    heuristic = w.solve_heuristic(inst, arcs)
    assert w.check_feasibility(inst, arcs, heuristic) == []
    assert w.evaluate(inst, heuristic, arcs).objective == pytest.approx(
        expect, rel=1e-12)


def test_node_limit_drops_certificate_but_stays_feasible():
    inst, arcs = tiny_instance(3)
    solution, certificate = w.solve_exact(
        inst, arcs, config=w.SolveConfig(node_limit=1))
    assert not certificate
    assert w.check_feasibility(inst, arcs, solution) == []


def test_budgeted_exact_never_returns_all_penalty_below_the_greedy():
    # Trying sensing first, the search spends its whole budget under an
    # all-on branch whose routes overdraw the batteries; its incumbent is
    # still the all-penalty schedule (objective 1 913 328) when it stops.
    device = w.DeviceProfile(transmit=w.TransmitModel(distance_coef=1e-5))
    inst = w.gen_grid(5, 5, 3, 3, config=w.ScenarioConfig(periods=2, device=device))
    arcs = w.build_arcs(inst)
    s = _Structures(inst, arcs)
    assert _assemble(s, _greedy(s), "heuristic", 0.0).objective == pytest.approx(
        22.49, rel=1e-12)
    heuristic = w.solve_heuristic(inst, arcs)  # the greedy, polished
    assert heuristic.objective == pytest.approx(22.18, rel=1e-12)
    solution, certificate = w.solve_exact(
        inst, arcs, config=w.SolveConfig(time_limit_s=math.inf, node_limit=3000))
    assert not certificate
    assert solution.provenance == "exact"
    assert w.check_feasibility(inst, arcs, solution) == []
    assert solution.objective <= heuristic.objective


@pytest.mark.parametrize("kwargs, needle", [
    ({"node_limit": -1}, "node limit"),
    ({"node_limit": True}, "node limit"),
    ({"node_limit": 2.5}, "node limit"),
    ({"time_limit_s": 0.0}, "time limit"),
    ({"time_limit_s": -1.0}, "time limit"),
    ({"time_limit_s": math.nan}, "time limit"),
    ({"gap": -1.0}, "gap"),
    ({"gap": math.nan}, "gap"),
    ({"gap": math.inf}, "gap"),
])
def test_solve_config_rejects_meaningless_limits(kwargs, needle):
    with pytest.raises(ValueError, match=needle):
        w.SolveConfig(**kwargs)


def test_solve_config_boundaries():
    # 0 nodes and an infinite time mean no limit; a zero gap is exact.
    config = w.SolveConfig(time_limit_s=math.inf, node_limit=0, gap=0.0)
    inst, arcs = tiny_instance(3)
    assert w.solve_exact(inst, arcs, config=config)[1]


def test_time_limit_on_large_instance():
    inst = w.scenario_instance("bench1", kind="grid", periods=2)
    arcs = w.build_arcs(inst)
    solution, certificate = w.solve_exact(
        inst, arcs, config=w.SolveConfig(time_limit_s=0.2))
    assert not certificate
    assert w.check_feasibility(inst, arcs, solution) == []


def test_nonzero_gap_never_certifies():
    inst = trivial_instance()
    arcs = w.build_arcs(inst)
    solution, certificate = w.solve_exact(
        inst, arcs, config=w.SolveConfig(gap=0.5))
    assert not certificate
    assert w.check_feasibility(inst, arcs, solution) == []


def _triangle(**kw):
    # Three sensors pairwise share the three demand points, so two must
    # sense in every period; sensor 2 reaches the sink only through a relay.
    kw.setdefault("periods", 3)
    return make_instance(
        sensors=[(4.0, 5.0), (6.0, 5.0), (5.0, 6.7)],
        demand_points=[(5.0, 5.0), (5.5, 5.85), (4.5, 5.85)],
        sinks=[(5.0, 1.0)],
        radii=(1.05,),
        comm_radius=5.0,
        battery=3.6,
        **kw,
    )


def test_no_certificate_when_an_idle_period_can_pay():
    # Sensing all three periods draws EM 1.5 + EA 0.8 + ET 1.44 = 3.74 > 3.6,
    # so some sensor senses in periods 0 and 2 only.  With activation 0.8
    # above maintenance 0.5, keeping it on through period 1 is feasible and
    # saves 0.3, but the search keeps activity minimal: no certificate.
    inst = _triangle(activation=0.8)
    arcs = w.build_arcs(inst)
    exact, certificate = w.solve_exact(inst, arcs)
    assert not certificate
    y = values_by_kind(exact, "y")
    gaps = [(i, t) for (i, t) in sorted(y)
            if (i, t + 1) not in y and (i, t + 2) in y]
    assert gaps
    i, t = gaps[0]
    bridged = dict(exact.values)
    bridged[w.VarRef("y", (i, t + 1))] = 1
    del bridged[w.VarRef("w", (i, t + 2))]
    bridged[w.VarRef("e", (i,))] += 0.5 - 0.8
    assert w.check_feasibility(inst, arcs, bridged) == []
    assert w.evaluate(inst, bridged, arcs).objective == pytest.approx(
        w.evaluate(inst, exact, arcs).objective - 0.3, rel=1e-12)
    # Minimal activity is optimal again at activation <= maintenance, or
    # with no room for an idle period between two active ones.
    for kw in (dict(activation=0.5), dict(activation=0.8, periods=2)):
        assert w.solve_exact(_triangle(**kw))[1], kw


def test_solvers_are_deterministic():
    inst, arcs = tiny_instance(7)
    assert w.solve_exact(inst, arcs)[0].values == w.solve_exact(inst, arcs)[0].values
    assert (w.brute_force_oracle(inst, arcs).values
            == w.brute_force_oracle(inst, arcs).values)
    assert (w.solve_heuristic(inst, arcs).values
            == w.solve_heuristic(inst, arcs).values)


def test_heuristic_never_beats_exact():
    worse = 0
    for seed in range(10):
        inst, arcs = tiny_instance(seed + 100)
        exact, certificate = w.solve_exact(inst, arcs)
        assert certificate
        opt = w.evaluate(inst, exact, arcs).objective
        heur = w.evaluate(inst, w.solve_heuristic(inst, arcs), arcs).objective
        assert heur >= opt - 1e-9
        if heur > 2 * opt + 1e-9:
            worse += 1
    assert worse <= 1  # the greedy may lose badly only rarely


def test_heuristic_routes_reach_sinks_multi_sink():
    inst = w.scenario_instance("bench2", kind="grid", periods=2)
    arcs = w.build_arcs(inst)
    solution = w.solve_heuristic(inst, arcs)
    assert w.check_feasibility(inst, arcs, solution) == []
    assert_routes_reach_sinks(inst, arcs, solution)


def test_oracle_cap_is_enforced():
    inst = w.scenario_instance("bench1", kind="grid", periods=1)
    arcs = w.build_arcs(inst)
    with pytest.raises(OracleCapExceeded):
        w.brute_force_oracle(inst, arcs)
    small, small_arcs = tiny_instance(2)
    with pytest.raises(OracleCapExceeded):
        w.brute_force_oracle(small, small_arcs, cap=1)


def test_oracle_refuses_before_building_anything(monkeypatch):
    inst = w.scenario_instance("bench2", kind="grid", periods=3)
    arcs = w.build_arcs(inst)

    def refuse(*args):
        raise AssertionError("the oracle built the variable universe")

    monkeypatch.setattr("wsnsched.solve.variable_universe", refuse)
    with pytest.raises(OracleCapExceeded, match="oracle cap is 40"):
        w.brute_force_oracle(inst, arcs)


def test_oracle_memory_stays_small():
    import tracemalloc

    inst, arcs = tiny_instance(7)
    w.brute_force_oracle(inst, arcs)  # fill the arcs' cached tables first
    tracemalloc.start()
    try:
        w.brute_force_oracle(inst, arcs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2e6  # 9.97 MB when the oracle enumerated x too


def test_solution_json_roundtrip(tmp_path):
    inst, arcs = tiny_instance(5)
    solution, _ = w.solve_exact(inst, arcs)
    path = tmp_path / "sol.json"
    w.save_solution(solution, path)
    back = w.load_solution(path, inst, arcs)
    assert back.values == solution.values
    assert back.provenance == solution.provenance
    assert back.objective == pytest.approx(solution.objective, rel=1e-12)
    # The file and the solution in memory both hold only nonzeros.
    assert back.values and all(back.values.values())


def test_load_solution_rejects_unknown_names(tmp_path):
    inst, arcs = tiny_instance(5)
    solution, _ = w.solve_exact(inst, arcs)
    path = tmp_path / "sol.json"
    w.save_solution(solution, path)
    import json
    doc = json.loads(path.read_text())
    doc["values"]["y_i999_t0"] = 1.0
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError):
        w.load_solution(path, inst, arcs)


def test_external_solution_import(tmp_path):
    inst = trivial_instance()
    arcs = w.build_arcs(inst)
    solution, _ = w.solve_exact(inst, arcs)
    lines = ["# external solver dump"]
    for ref, val in solution.values.items():
        noisy = val
        if ref.kind != "e" and val == 1.0:
            noisy = 0.9999995  # within snapping tolerance
        lines.append(f"{ref.name} = {noisy}")
    path = tmp_path / "ext.sol"
    path.write_text("\n".join(lines) + "\n")
    ext = w.load_external_solution(path, inst, arcs)
    assert ext.provenance == "external"
    assert ext.values == solution.values
    assert w.check_feasibility(inst, arcs, ext) == []

    with pytest.raises(ValueError):
        parse_external_solution("nonsense without equals\n")
    with pytest.raises(ValueError):
        parse_external_solution("q_i0 = 1\n")


def test_exact_respects_battery_in_routing():
    # The relay's battery cannot carry both periods of traffic; the exact
    # solver must drop one period rather than overdraw sensor 1.
    # Relay load per period: EM 0.5 + ER 0.24 + ET 0.48 = 1.22, activation
    # 0.25; two periods need 2.69 > 2.5.
    inst = relay_chain(battery=2.5, periods=2)
    arcs = w.build_arcs(inst)
    exact, certificate = w.solve_exact(inst, arcs)
    assert certificate
    metrics = w.evaluate(inst, exact, arcs)
    assert metrics.objective == pytest.approx(inst.penalty_uncovered + 2.71, rel=1e-12)
    oracle = w.brute_force_oracle(inst, arcs)
    assert w.evaluate(inst, oracle, arcs).objective == pytest.approx(
        metrics.objective, rel=1e-12)
    for i in range(2):
        assert exact.values[w.VarRef("e", (i,))] <= inst.device.battery_capacity + 1e-9


@pytest.mark.parametrize("offset", [-5e-7, -5e-10, 0.0, 5e-7])
@pytest.mark.parametrize("build, draw, optimum", [
    (trivial_instance, 1.23, 1.24),  # the sensor's own draw binds
    (relay_chain, 1.47, 2.71),       # the relay's draw binds
])
def test_battery_boundary_all_solvers(build, draw, optimum, offset):
    # With the battery at the binding sensor's draw plus ``offset``, every
    # solver covers the point exactly when the draw fits within the 1e-9
    # of README guarantee 10, and none emits an energy past battery + 1e-9.
    inst = build(battery=draw + offset)
    arcs = w.build_arcs(inst)
    covered = offset > -1e-9
    expect = optimum if covered else inst.penalty_uncovered
    for sol in (w.solve_exact(inst, arcs)[0], w.brute_force_oracle(inst, arcs),
                w.solve_heuristic(inst, arcs)):
        assert w.check_feasibility(inst, arcs, sol) == [], sol.provenance
        assert w.evaluate(inst, sol, arcs).objective == pytest.approx(
            expect, rel=1e-12), sol.provenance
        energies = values_by_kind(sol, "e")
        assert all(e <= inst.device.battery_capacity + 1e-9 for e in energies.values())
        if covered:
            assert max(energies.values()) == pytest.approx(draw, rel=1e-12)


def test_wall_time_is_recorded():
    inst, arcs = tiny_instance(1)
    for sol in (w.solve_exact(inst, arcs)[0], w.brute_force_oracle(inst, arcs),
                w.solve_heuristic(inst, arcs)):
        assert sol.wall_time_s >= 0.0
        assert math.isfinite(sol.wall_time_s)


def _simple_paths(s, src, g, enter, keep=lambda cost: True):
    """Yield (arcs in path order, cost) for every simple path from src to
    any sink, by depth-first enumeration.  A partial path whose cost fails
    ``keep`` is dropped with every extension of it."""
    et, n = s.tables.et, s.n

    def walk(u, path, cost, seen):
        if not keep(cost):
            return
        if u >= n:
            yield tuple(path), cost
            return
        for (a, b) in s.out_arcs[u]:
            if b not in seen:
                yield from walk(b, path + [(a, b)],
                                cost + et[(a, b)][g] + (enter[b] if b < n else 0.0),
                                seen | {b})

    yield from walk(src, [], 0.0, {src})


def _simple_path_min(s, src, g, enter):
    """Minimum cost over the simple paths from src to any sink.  A partial
    path is dropped once it costs at least the best complete one, which
    loses nothing: no cost is negative."""
    best = math.inf
    for _, cost in _simple_paths(s, src, g, enter, keep=lambda cost: cost < best):
        best = cost
    return best


def _check_route(s, src, g, enter):
    """_route's answer against the enumeration; returns its path."""
    expected = _simple_path_min(s, src, g, enter)
    route = _route(s, src, g, enter)
    if math.isinf(expected):
        assert route is None
        return None
    path, cost = route
    assert cost == pytest.approx(expected, rel=1e-12)
    # The arcs chain from src to a sink, and their own cost is the cost.
    assert path[0][0] == src and path[-1][1] >= s.n
    assert all(path[k][1] == path[k + 1][0] for k in range(len(path) - 1))
    again = sum(s.tables.et[arc][g] + (enter[arc[1]] if arc[1] < s.n else 0.0)
                for arc in path)
    assert again == pytest.approx(cost, rel=1e-12)
    return path


def _assert_lower_bound(lower, route, equal):
    """A backward route cost against a forward _route result: unreachable
    exactly when there is no route, and never above the forward cost by
    more than summation order can explain (equal to it when ``equal``)."""
    if route is None:
        assert not equal or math.isinf(lower)
        return
    cost = route[1]
    assert lower <= cost * (1 + 1e-9)
    if equal:
        assert lower == pytest.approx(cost, rel=1e-9)


def _check_routes(inst, arcs):
    """Every source and phenomenon, with plain receive costs, with
    per-sensor surcharges, and with one relay banned; returns how many
    bans hit a relay of the unbanned optimum.  The backward search from
    the sinks prices each case once, with no relay banned."""
    s = _Structures(inst, arcs)
    tb = s.tables
    hits = 0
    for g in range(s.G):
        plain = [tb.er[g]] * s.n
        # Surcharges differ per sensor, as activation surcharges do.
        surcharged = [tb.er[g] + (v % 3) * tb.em + (tb.ea if v % 2 else 0.0)
                      for v in range(s.n)]
        priced = [(enter, _route_costs(s, g, enter)) for enter in (plain, surcharged)]
        for src in range(s.n):
            for enter, lowers in priced:
                lower = lowers[src]
                _assert_lower_bound(lower, _route(s, src, g, enter), equal=True)
                path = _check_route(s, src, g, enter)
                relays = [] if path is None else [b for (_, b) in path[:-1]]
                relay = relays[0] if relays else (src + 1) % s.n
                hits += bool(relays)
                banned = list(enter)
                banned[relay] = math.inf
                detour = _check_route(s, src, g, banned)
                assert detour is None or all(b != relay for (_, b) in detour)
                _assert_lower_bound(lower, _route(s, src, g, banned), equal=False)
    return hits


def test_route_matches_simple_path_enumeration_tiny():
    hits = sum(_check_routes(*tiny_instance(seed)) for seed in range(30))
    assert hits > 0  # some bans remove a relay the optimum used


def test_route_matches_simple_path_enumeration_grids():
    # Every bench1 grid sensor reaches the sink directly; the larger bench2
    # grid needs relays, so there the bans change routes.
    inst = w.scenario_instance("bench1", kind="grid", periods=1)
    _check_routes(inst, w.build_arcs(inst))
    inst = w.scenario_instance("bench2", kind="grid", periods=1)
    assert _check_routes(inst, w.build_arcs(inst)) > 0


def test_route_none_when_every_relay_is_banned():
    inst = relay_chain()
    s = _Structures(inst, w.build_arcs(inst))
    er = s.tables.er[0]
    assert _check_route(s, 0, 0, [er, er]) == ((0, 1), (1, 2))
    assert _route(s, 0, 0, [er, math.inf]) is None


def _check_flows(inst, arcs):
    """_enumerate_flows on every commodity against the path enumeration:
    exactly the simple paths, each once with its arcs sorted, in
    (cost, arcs) order, each with its own cost and per-sensor energies.
    Returns how many paths there are."""
    s = _Structures(inst, arcs)
    total = 0
    for g in range(s.G):
        plain = [s.tables.er[g]] * s.n
        for l in range(s.n):
            flows, complete = _enumerate_flows(s, l, g)
            assert complete
            paths = {tuple(sorted(path)): cost
                     for path, cost in _simple_paths(s, l, g, plain)}
            assert sorted(f.arcs for f in flows) == sorted(paths)
            assert flows == sorted(flows, key=lambda f: (f.cost, f.arcs))
            for f in flows:
                assert f.cost == pytest.approx(paths[f.arcs], rel=1e-12)
                assert f.cost == pytest.approx(sum(e for _, e in f.energy), rel=1e-12)
                assert [v for v, _ in f.energy] == sorted(
                    {a for a, _ in f.arcs} | {b for _, b in f.arcs if b < s.n})
            total += len(flows)
    return total


def test_enumerate_flows_lists_simple_paths():
    assert sum(_check_flows(*tiny_instance(seed)) for seed in range(30)) > 0
    inst = relay_chain()
    arcs = w.build_arcs(inst)
    # 0 -> 1 -> sink from sensor 0, and 1 -> sink from sensor 1.
    assert _check_flows(inst, arcs) == 2
    flows, _ = _enumerate_flows(_Structures(inst, arcs), 0, 0)
    assert [f.arcs for f in flows] == [((0, 1), (1, 2))]


def test_enumerate_flows_falls_back_to_cheapest_route():
    # bench2 grid has 236 stream arcs, far above the cap; sensor 2 has no
    # sink in range, so its cheapest route takes a relay.
    inst = w.scenario_instance("bench2", kind="grid", periods=1)
    arcs = w.build_arcs(inst)
    s = _Structures(inst, arcs)
    assert len(arcs.stream) > FLOW_ARC_CAP
    plain = [s.tables.er[0]] * s.n
    flows, complete = _enumerate_flows(s, 2, 0)
    assert not complete
    assert [f.arcs for f in flows] == [tuple(sorted(_route(s, 2, 0, plain)[0]))]
    assert len(flows[0].arcs) == 2
    assert flows[0].cost == pytest.approx(_simple_path_min(s, 2, 0, plain), rel=1e-12)


def _derived_binaries(s, r_set, flows) -> set:
    """Every nonzero binary of a schedule, (kind, indices), from its
    sensing triples, the arcs' coverage pairs and its flows alone."""
    n = s.n
    out = {("r", key) for key in r_set}
    out |= {("x", (i, j, t, g)) for (i, t, g) in r_set
            for (c, j) in s.arcs.coverage[g] if c == i}
    out |= {("z", (l, a, b, t, g)) for (l, t, g), arcs in flows.items() for (a, b) in arcs}
    active = {(i, t) for (i, t, _) in r_set}
    active |= {(v, t) for (_, t, _), arcs in flows.items() for arc in arcs
               for v in arc if v < n}
    out |= {("y", key) for key in active}
    out |= {("w", (i, t)) for (i, t) in active if t == 0 or (i, t - 1) not in active}
    out |= {("h", (j, t, g)) for (j, t, g) in s.demanded
            if not any((i, t, g) in r_set for i in s.arcs.covering[g][j])}
    return out


def _check_assembled(inst, arcs, node_limit, oracle=False):
    s = _Structures(inst, arcs)
    config = w.SolveConfig(time_limit_s=math.inf, node_limit=node_limit)
    search = _ExactSearch(inst, arcs, config)
    search.run()
    for flows in (_greedy(s), search.best_flows):
        solution = _assemble(s, flows, "test", 0.0)
        got = {(ref.kind, ref.indices) for ref, val in solution.values.items()
               if ref.kind != "e"}
        assert all(val == 1 for ref, val in solution.values.items() if ref.kind != "e")
        assert got == _derived_binaries(s, set(flows), flows)
    assert _assemble(s, _polish(s, _greedy(s)), "heuristic", 0.0).values == (
        w.solve_heuristic(inst, arcs).values)
    # Each solver's result has a stream for exactly its sensing triples.  The
    # validator cannot tell: a cycle away from a source that does not sense
    # passes C5 and C6.
    solutions = [w.solve_heuristic(inst, arcs), w.solve_exact(inst, arcs, config=config)[0]]
    if oracle:
        solutions.append(w.brute_force_oracle(inst, arcs))
    for solution in solutions:
        sensing = {key for key, val in values_by_kind(solution, "r").items() if val}
        streams = {(l, t, g) for (l, _, _, t, g), val in values_by_kind(solution, "z").items()
                   if val}
        assert streams == sensing, solution.provenance


@pytest.mark.parametrize("layout", POOL_LAYOUTS, ids=lambda lay: "-".join(map(str, lay)))
def test_assemble_derives_binaries_from_the_schedule_on_pool(layout):
    scenario, kind, periods, seed = layout
    inst = w.scenario_instance(scenario, kind=kind, periods=periods, seed=seed)
    _check_assembled(inst, w.build_arcs(inst), 500)


# The benchmark's exact_budget layouts (default random T=1, seeds 1-6, in
# the pool above at 500 nodes) at its 5000-node budget.
@pytest.mark.parametrize("seed", range(1, 7))
def test_assemble_derives_binaries_from_the_schedule_at_the_benchmark_budget(seed):
    inst = w.scenario_instance("default", kind="random", periods=1, seed=seed)
    _check_assembled(inst, w.build_arcs(inst), 5000)


def test_assemble_derives_binaries_from_the_schedule_with_dropped_demand():
    # A point that does not demand a phenomenon is still covered by x.
    config = w.ScenarioConfig(periods=2, demand_drop_fraction=0.5)
    inst = w.gen_random(16, 40, seed=3, config=config)
    arcs = w.build_arcs(inst)
    s = _Structures(inst, arcs)
    assert any(len(s.coverage[key]) > len(s.sensor_cover.get(key, ())) for key in s.coverage)
    _check_assembled(inst, arcs, 500)


def test_assemble_derives_binaries_from_the_schedule_on_tiny():
    for seed in [*range(50), *SENSING_SEEDS]:
        _check_assembled(*tiny_instance(seed), 0, oracle=True)
