"""Acceptance suite: one test per end-to-end behavioral guarantee.

Each test is self-contained and states its tolerance inline.  Together
they pin down solver correctness (exact == oracle), universal solution
feasibility, benchmark coverage rates, objective accounting, scaling
behavior, routing soundness, LP round-trips, battery caps, the
heuristic as a floor under budgeted exact runs, and the heuristic's
improvement pass never costing more than its construction.
"""

import math
import statistics
from dataclasses import replace

import pytest

import wsnsched as w
from wsnsched.solve import _assemble, _greedy, _Structures
from helpers import (HEURISTIC_LAYOUTS, POOL_LAYOUTS, tiny_instance, trivial_instance,
                     assert_routes_reach_sinks)


def _tiny_grid(periods):
    # Four corner sensors on a 14 m square: every sensor reaches the
    # center sink (9.9 m < 11 m) and covers its own corner demand point.
    cfg, _ = w.scenario_config("bench1", periods=periods)
    return w.gen_grid(2, 2, 2, 2, (14.0, 14.0), cfg)


def test_oracle_equivalence():
    """Exact search with certificate matches exhaustive enumeration.

    50 random instances with at most 40 binaries and T <= 2; objectives
    agree within 1e-9 relative.
    """
    for seed in range(50):
        inst, arcs = tiny_instance(seed)
        assert inst.periods <= 2
        exact, certificate = w.solve_exact(inst, arcs)
        assert certificate, f"seed {seed}: search hit a limit"
        oracle = w.brute_force_oracle(inst, arcs)
        a = w.evaluate(inst, exact, arcs).objective
        b = w.evaluate(inst, oracle, arcs).objective
        assert a == pytest.approx(b, rel=1e-9), f"seed {seed}: {a} != {b}"


def test_universal_feasibility():
    """Every solver output on 200 randomized instances validates cleanly.

    150 tiny instances are solved by all three solvers, 50 mid-size
    random layouts by the heuristic; zero violations are tolerated.
    """
    for seed in range(150):
        inst, arcs = tiny_instance(seed)
        for sol in (w.solve_exact(inst, arcs)[0],
                    w.brute_force_oracle(inst, arcs),
                    w.solve_heuristic(inst, arcs)):
            assert w.check_feasibility(inst, arcs, sol) == [], (
                f"tiny seed {seed}, {sol.provenance}")
    for seed in range(50):
        inst = w.scenario_instance("default", kind="random",
                                   periods=1 + seed % 3, seed=seed)
        arcs = w.build_arcs(inst)
        sol = w.solve_heuristic(inst, arcs)
        assert w.check_feasibility(inst, arcs, sol) == [], f"random seed {seed}"


def test_grid_full_coverage():
    """The 16-sensor benchmark grid is fully covered for T = 1, 2, 3.

    Heuristic solutions must reach an uncovered rate of exactly 0%.
    """
    for periods in (1, 2, 3):
        inst = w.scenario_instance("bench1", kind="grid", periods=periods)
        arcs = w.build_arcs(inst)
        sol = w.solve_heuristic(inst, arcs)
        assert w.check_feasibility(inst, arcs, sol) == []
        metrics = w.evaluate(inst, sol, arcs)
        assert metrics.uncovered_rate == 0.0, f"T={periods}"
        assert metrics.penalty_total < 1.0  # activation pennies only


def test_random_penalty_band():
    """Random layouts leave a small but nonzero fraction uncovered.

    Ten seeded instances per T in {1,2,3}; the mean uncovered rate per T
    must land strictly inside (0%, 10%).
    """
    for periods in (1, 2, 3):
        rates = []
        for seed in range(1, 11):
            inst = w.scenario_instance("default", kind="random",
                                       periods=periods, seed=seed)
            arcs = w.build_arcs(inst)
            sol = w.solve_heuristic(inst, arcs)
            assert w.check_feasibility(inst, arcs, sol) == []
            rates.append(w.evaluate(inst, sol, arcs).uncovered_rate)
        mean = statistics.fmean(rates)
        assert 0.0 < mean < 0.10, f"T={periods}: mean uncovered {mean:.4f}"


def test_objective_accounting():
    """objective == real_objective + penalty_total, bit for bit.

    Holds on every run; with zero activation penalty and full coverage
    the two objective columns coincide exactly.
    """
    for periods in (1, 2, 3):
        inst = w.scenario_instance("bench1", kind="grid", periods=periods)
        arcs = w.build_arcs(inst)
        for sol in (w.solve_heuristic(inst, arcs),):
            m = w.evaluate(inst, sol, arcs)
            assert m.objective == m.real_objective + m.penalty_total
    for seed in range(20):
        inst, arcs = tiny_instance(seed)
        for sol in (w.solve_exact(inst, arcs)[0],
                    w.brute_force_oracle(inst, arcs),
                    w.solve_heuristic(inst, arcs)):
            m = w.evaluate(inst, sol, arcs)
            assert m.objective == m.real_objective + m.penalty_total

    cfg, layout = w.scenario_config("bench1", periods=1)
    cfg = replace(cfg, penalty_activation=0.0)
    inst = w.gen_grid(*layout["sensor_grid"], *layout["dp_grid"],
                      layout["area"], cfg)
    arcs = w.build_arcs(inst)
    sol = w.solve_heuristic(inst, arcs)
    m = w.evaluate(inst, sol, arcs)
    assert m.uncovered_rate == 0.0
    assert m.objective == m.real_objective


def test_objective_monotonic_in_periods():
    """Objectives never decrease when the horizon grows.

    Checked for heuristic solutions on the benchmark grid and exact
    optima on a four-sensor variant with the same constants.
    """
    heuristic_objs = []
    for periods in (1, 2, 3):
        inst = w.scenario_instance("bench1", kind="grid", periods=periods)
        arcs = w.build_arcs(inst)
        sol = w.solve_heuristic(inst, arcs)
        heuristic_objs.append(w.evaluate(inst, sol, arcs).objective)
    assert heuristic_objs == sorted(heuristic_objs)

    exact_objs = []
    for periods in (1, 2, 3):
        inst = _tiny_grid(periods)
        arcs = w.build_arcs(inst)
        sol, certificate = w.solve_exact(inst, arcs)
        assert certificate
        metrics = w.evaluate(inst, sol, arcs)
        assert metrics.uncovered_rate == 0.0
        exact_objs.append(metrics.objective)
    assert exact_objs == sorted(exact_objs)


def test_energy_scale_invariance():
    """Scaling all energy and penalty constants by 7.3 scales optima by 7.3.

    On ten tiny instances the exact objective scales within 1e-9 relative
    and the optimal binary assignment is identical.
    """
    for seed in range(10):
        inst, arcs = tiny_instance(seed)
        scaled = w.scale_energy(inst, 7.3)
        scaled_arcs = w.build_arcs(scaled)
        base, cert_a = w.solve_exact(inst, arcs)
        up, cert_b = w.solve_exact(scaled, scaled_arcs)
        assert cert_a and cert_b, f"seed {seed}"
        ob = w.evaluate(inst, base, arcs).objective
        ou = w.evaluate(scaled, up, scaled_arcs).objective
        assert ou == pytest.approx(7.3 * ob, rel=1e-9), f"seed {seed}"
        bin_base = {ref: val for ref, val in base.values.items() if ref.kind != "e"}
        bin_up = {ref: val for ref, val in up.values.items() if ref.kind != "e"}
        assert bin_base == bin_up, f"seed {seed}: assignment changed"


def test_routing_soundness():
    """Every sensing assignment is backed by a live path to a sink.

    Graph search over each commodity's chosen arcs, visiting only active
    sensors, must reach a sink; checked across solvers and benchmarks.
    """
    for seed in range(40):
        inst, arcs = tiny_instance(seed)
        for sol in (w.solve_exact(inst, arcs)[0],
                    w.brute_force_oracle(inst, arcs),
                    w.solve_heuristic(inst, arcs)):
            assert_routes_reach_sinks(inst, arcs, sol)
    for scenario in ("bench1", "bench2"):
        inst = w.scenario_instance(scenario, kind="grid", periods=2)
        arcs = w.build_arcs(inst)
        assert_routes_reach_sinks(inst, arcs, w.solve_heuristic(inst, arcs))


def test_lp_roundtrip_byte_stable():
    """export -> parse -> export is byte-identical on 100 random models.

    Also pins the golden LP file for the one-sensor instance.
    """
    for seed in range(100):
        inst, arcs = tiny_instance(seed)
        model = w.build_model(inst, arcs)
        text = w.export_lp(model)
        assert w.export_lp(w.parse_lp(text)) == text, f"seed {seed}"

    import pathlib
    golden = pathlib.Path(__file__).parent / "data" / "trivial_model.lp"
    inst = trivial_instance()
    model = w.build_model(inst, w.build_arcs(inst))
    assert w.export_lp(model) == golden.read_text()


def test_battery_caps():
    """No emitted solution ever draws past the battery; EB = 0 idles all.

    Energy totals stay within capacity + 1e-9 across 30 instances and
    three solvers; a zero-capacity battery forces the all-penalty plan.
    """
    for seed in range(30):
        inst, arcs = tiny_instance(seed)
        cap = inst.device.battery_capacity
        for sol in (w.solve_exact(inst, arcs)[0],
                    w.brute_force_oracle(inst, arcs),
                    w.solve_heuristic(inst, arcs)):
            for ref, val in sol.values.items():
                if ref.kind == "e":
                    assert val <= cap + 1e-9, f"seed {seed}, {sol.provenance}"

    inst = trivial_instance(battery=0.0, periods=2)
    arcs = w.build_arcs(inst)
    for sol in (w.solve_exact(inst, arcs)[0],
                w.brute_force_oracle(inst, arcs),
                w.solve_heuristic(inst, arcs)):
        metrics = w.evaluate(inst, sol, arcs)
        assert metrics.objective == 2 * inst.penalty_uncovered
        assert metrics.uncovered_rate == 1.0
        assert all(val == 0.0 for ref, val in sol.values.items()
                   if ref.kind in ("x", "y", "z", "r"))


def test_budgeted_exact_never_worse_than_heuristic():
    """An exact run that ends without a certificate never loses to the greedy.

    The benchmark's six budgeted layouts (default random T=1, seeds 1-6)
    and default random T=2 and T=3 (seeds 1-3), at 500 and 5000 nodes:
    the validated exact objective is at most the heuristic's, within 1e-9
    relative.
    """
    layouts = [(1, seed) for seed in range(1, 7)]
    layouts += [(periods, seed) for periods in (2, 3) for seed in range(1, 4)]
    for periods, seed in layouts:
        inst = w.scenario_instance("default", kind="random", periods=periods, seed=seed)
        arcs = w.build_arcs(inst)
        heuristic = w.evaluate(inst, w.solve_heuristic(inst, arcs), arcs).objective
        for nodes in (500, 5000):
            config = w.SolveConfig(time_limit_s=math.inf, node_limit=nodes)
            exact, certificate = w.solve_exact(inst, arcs, config=config)
            assert not certificate, f"T={periods} seed {seed}: certified"
            objective = w.evaluate(inst, exact, arcs).objective
            assert objective <= heuristic * (1 + 1e-9), (
                f"T={periods} seed {seed}, {nodes} nodes: {objective} > {heuristic}")


def test_polish_never_worse_than_construction():
    """The heuristic's improvement pass never costs more and never uncovers.

    On the benchmark's pool, every `default` layout with 1-3 periods and
    seeds 1-5, and 50 tiny instances: the validated objective of
    ``solve_heuristic`` is at most that of its greedy construction, and
    both leave exactly the same demand uncovered.
    """
    instances = [(f"tiny seed {seed}", *tiny_instance(seed)) for seed in range(50)]
    for layout in dict.fromkeys(POOL_LAYOUTS + HEURISTIC_LAYOUTS):
        scenario, kind, periods, seed = layout
        inst = w.scenario_instance(scenario, kind=kind, periods=periods, seed=seed)
        instances.append((layout, inst, w.build_arcs(inst)))
    for label, inst, arcs in instances:
        s = _Structures(inst, arcs)
        construction = _assemble(s, _greedy(s), "heuristic", 0.0)
        polished = w.solve_heuristic(inst, arcs)
        assert (w.evaluate(inst, polished, arcs).objective
                <= w.evaluate(inst, construction, arcs).objective), label
        uncovered = [{ref for ref in sol.values if ref.kind == "h"}
                     for sol in (construction, polished)]
        assert uncovered[0] == uncovered[1], label
