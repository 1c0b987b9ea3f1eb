"""Feasibility checking, mutation detection, tolerances and metrics."""

import pytest

import wsnsched as w
from wsnsched.validate import SolutionIndexError, InfeasibleSolutionError
from helpers import make_instance, trivial_instance
import reference_validate as ref


def zero_values(instance, arcs, with_penalties=True):
    values = {ref: 0.0 for ref in w.variable_universe(instance, arcs)}
    if with_penalties:
        for ref in values:
            if ref.kind == "h":
                values[ref] = 1.0
    return values


def chain_instance():
    """Sensor 0 covers the point and must relay through sensor 1."""
    return make_instance(
        sensors=[(1.0, 5.0), (4.0, 5.0)], demand_points=[(1.0, 6.0)],
        sinks=[(7.0, 5.0)], radii=(2.0,), comm_radius=3.0)


def test_penalty_only_solution_is_feasible():
    inst = trivial_instance(periods=2)
    arcs = w.build_arcs(inst)
    values = zero_values(inst, arcs)
    assert w.check_feasibility(inst, arcs, values) == []
    metrics = w.evaluate(inst, values, arcs)
    assert metrics.real_objective == 0.0
    assert metrics.objective == pytest.approx(2 * inst.penalty_uncovered, rel=1e-12)
    assert metrics.uncovered_rate == 1.0
    assert metrics.activations == 0
    assert metrics.per_sensor_energy == (0.0,)


def test_all_zero_without_penalty_flags_every_triple():
    inst = make_instance(
        sensors=[(5.0, 5.0)], demand_points=[(5.0, 6.0), ((4.0, 5.0), (0,))],
        sinks=[(5.0, 3.0)], radii=(2.0, 3.0), periods=2)
    arcs = w.build_arcs(inst)
    values = zero_values(inst, arcs, with_penalties=False)
    violations = w.check_feasibility(inst, arcs, values)
    assert len(violations) == inst.demanded_triples() == 6
    assert all(vio.tag.startswith("C2") for vio in violations)
    assert all(vio.slack < 0 for vio in violations)
    with pytest.raises(InfeasibleSolutionError):
        w.evaluate(inst, values, arcs)


def assert_absent_reads_as_zero(inst, arcs, values, absent):
    """Without ``absent`` the report is the reference's with it set to 0."""
    missing = dict(values)
    del missing[absent]
    twin = dict(values)
    twin[absent] = 0
    assert (w.violations_to_json(w.check_feasibility(inst, arcs, missing))
            == w.violations_to_json(ref.check_feasibility(inst, arcs, twin)))


def test_index_mismatch_is_not_a_violation():
    inst = trivial_instance()
    arcs = w.build_arcs(inst)
    values = zero_values(inst, arcs)
    assert_absent_reads_as_zero(inst, arcs, values, w.VarRef("y", (0, 0)))
    assert_absent_reads_as_zero(inst, arcs, values, w.VarRef("h", (0, 0, 0)))
    foreign = dict(values)
    foreign[w.VarRef("y", (99, 0))] = 0.0
    with pytest.raises(SolutionIndexError):
        w.check_feasibility(inst, arcs, foreign)
    # One absent and one foreign: the foreign one is named.
    swapped = dict(foreign)
    del swapped[w.VarRef("y", (0, 0))]
    with pytest.raises(SolutionIndexError, match="foreign variable y_i99_t0$"):
        w.check_feasibility(inst, arcs, swapped)


def two_phenomena_instance():
    """Sources differ by phenomenon, and one point demands only g = 0.

    Point 0 lies in sensor 0's g = 0 range only and demands only g = 0;
    point 1 lies in sensor 1's range for both.  So sources are {0, 1} for
    g = 0 and {1} for g = 1, and the arc 1 -> 0 leads into a source.
    """
    return make_instance(
        sensors=[(1.0, 5.0), (4.0, 5.0)],
        demand_points=[((1.0, 6.5), (0,)), (4.0, 5.5)],
        sinks=[(7.0, 5.0)], radii=(2.0, 1.0), comm_radius=3.0)


@pytest.mark.parametrize("kind, indices", [
    pytest.param("z", (0, 1, 0, 0, 0), id="z-arc-into-own-source"),
    pytest.param("z", (0, 0, 1, 0, 1), id="z-source-of-other-g"),
    pytest.param("x", (0, 1, 0, 0), id="x-not-a-coverage-pair"),
    pytest.param("x", (0, 0, 0, 1), id="x-coverage-pair-of-other-g"),
    pytest.param("h", (0, 0, 1), id="h-point-not-demanding-g"),
    pytest.param("y", (0, 1), id="y-t-equals-T"),
    pytest.param("z", (1, 1, 2, 1, 0), id="z-t-equals-T"),
    pytest.param("r", (0, 0, 2), id="r-g-equals-G"),
    pytest.param("e", (2,), id="e-sink-is-not-a-sensor"),
    pytest.param("y", (0,), id="y-short-arity"),
    pytest.param("e", (0, 0), id="e-long-arity"),
    pytest.param("q", (0, 0), id="unknown-kind"),
])
def test_foreign_key_is_rejected(kind, indices):
    inst = two_phenomena_instance()
    arcs = w.build_arcs(inst)
    assert (0, 0) in arcs.coverage[0] and (0, 0) not in arcs.coverage[1]
    assert (1, 0) in arcs.comm and inst.demand_points[0].demands == (0,)
    values = zero_values(inst, arcs)
    foreign_ref = w.VarRef(kind, indices)
    assert foreign_ref not in values
    added = dict(values)
    added[foreign_ref] = 0.0
    with pytest.raises(SolutionIndexError, match="foreign variable"):
        w.check_feasibility(inst, arcs, added)
    # With another variable absent, the foreign one is still named.
    swapped = dict(added)
    del swapped[w.VarRef("e", (1,))]
    with pytest.raises(SolutionIndexError, match="foreign variable"):
        w.check_feasibility(inst, arcs, swapped)
    assert_absent_reads_as_zero(inst, arcs, values, w.VarRef("e", (1,)))


def violated_families(inst, arcs, values):
    return {vio.tag.split("_", 1)[0] for vio in w.check_feasibility(inst, arcs, values)}


def test_mutations_are_detected():
    inst = chain_instance()
    arcs = w.build_arcs(inst)
    solution, certificate = w.solve_exact(inst, arcs)
    assert certificate
    base = solution.values
    assert w.check_feasibility(inst, arcs, base) == []

    # The optimum senses with 0 and relays through 1; verify the handles
    # the mutations below rely on.
    assert base[w.VarRef("r", (0, 0, 0))] == 1.0
    assert base[w.VarRef("y", (1, 0))] == 1.0

    flip_relay = dict(base)
    flip_relay[w.VarRef("y", (1, 0))] = 0.0
    fams = violated_families(inst, arcs, flip_relay)
    assert fams & {"C7", "C8"}

    flip_source = dict(base)
    flip_source[w.VarRef("y", (0, 0))] = 0.0
    assert violated_families(inst, arcs, flip_source) & {"C4", "C7"}

    uncover = dict(base)
    uncover[w.VarRef("x", (0, 0, 0, 0))] = 0.0
    assert violated_families(inst, arcs, uncover) == {"C2"}

    cover_without_sensing = dict(base)
    cover_without_sensing[w.VarRef("r", (0, 0, 0))] = 0.0
    assert violated_families(inst, arcs, cover_without_sensing) >= {"C3", "C6"}

    broken_balance = dict(base)
    broken_balance[w.VarRef("z", (0, 1, 2, 0, 0))] = 0.0
    assert violated_families(inst, arcs, broken_balance) >= {"C5"}

    without_switch_on = dict(base)
    without_switch_on[w.VarRef("w", (0, 0))] = 0.0
    assert violated_families(inst, arcs, without_switch_on) == {"C11"}

    underpaid = dict(base)
    underpaid[w.VarRef("e", (1,))] = base[w.VarRef("e", (1,))] - 1e-3
    assert violated_families(inst, arcs, underpaid) == {"C9"}

    overdrawn = dict(base)
    overdrawn[w.VarRef("e", (0,))] = inst.device.battery_capacity + 1e-3
    assert violated_families(inst, arcs, overdrawn) == {"C10"}

    fractional = dict(base)
    fractional[w.VarRef("h", (0, 0, 0))] = 0.5
    vios = w.check_feasibility(inst, arcs, fractional)
    assert any(vio.sense == "bin" and vio.tag.startswith("C13") for vio in vios)
    binvio = next(vio for vio in vios if vio.sense == "bin")
    assert binvio.slack == -0.5


def test_stray_stream_arc_detected():
    # Wider comm range: the optimum goes straight to the sink, leaving the
    # 0 -> 1 arc unused.  Turning it on breaks balance at 1 and the source
    # outflow count at 0.
    inst = make_instance(
        sensors=[(1.0, 5.0), (4.0, 5.0)], demand_points=[(1.0, 6.0)],
        sinks=[(7.0, 5.0)], radii=(2.0,), comm_radius=7.0)
    arcs = w.build_arcs(inst)
    solution, certificate = w.solve_exact(inst, arcs)
    assert certificate
    assert solution.values[w.VarRef("z", (0, 0, 2, 0, 0))] == 1.0
    stray = dict(solution.values)
    stray[w.VarRef("z", (0, 0, 1, 0, 0))] = 1.0
    assert violated_families(inst, arcs, stray) >= {"C5", "C6"}


def test_transition_counting_second_period():
    inst = trivial_instance(periods=2)
    arcs = w.build_arcs(inst)
    universe = w.variable_universe(inst, arcs)
    # Off in period 0, on in period 1, but w never set: C12 must fire.
    values = {ref: 0.0 for ref in universe}
    values[w.VarRef("h", (0, 0, 0))] = 1.0
    values[w.VarRef("y", (0, 1))] = 1.0
    values[w.VarRef("r", (0, 1, 0))] = 1.0
    values[w.VarRef("x", (0, 0, 1, 0))] = 1.0
    values[w.VarRef("z", (0, 0, 1, 1, 0))] = 1.0
    values[w.VarRef("e", (0,))] = 0.98  # EM + ET, activation unpaid
    assert violated_families(inst, arcs, values) == {"C12"}
    values[w.VarRef("w", (0, 1))] = 1.0
    assert violated_families(inst, arcs, values) == {"C9"}
    values[w.VarRef("e", (0,))] = 1.23
    assert w.check_feasibility(inst, arcs, values) == []


def test_energy_tolerances():
    inst = trivial_instance()
    arcs = w.build_arcs(inst)
    solution, _ = w.solve_exact(inst, arcs)
    base = solution.values
    e0 = w.VarRef("e", (0,))

    slightly_low = dict(base)
    slightly_low[e0] = base[e0] - 5e-7
    assert w.check_feasibility(inst, arcs, slightly_low) == []

    too_low = dict(base)
    too_low[e0] = base[e0] - 1e-5
    assert violated_families(inst, arcs, too_low) == {"C9"}

    # Battery headroom: within tolerance above EB passes, beyond fails.
    at_cap = dict(base)
    at_cap[e0] = inst.device.battery_capacity + 5e-7
    assert w.check_feasibility(inst, arcs, at_cap) == []
    above_cap = dict(base)
    above_cap[e0] = inst.device.battery_capacity + 1e-5
    assert violated_families(inst, arcs, above_cap) == {"C10"}


def test_non_finite_energy_is_a_violation():
    inst = trivial_instance()
    arcs = w.build_arcs(inst)
    solution, _ = w.solve_exact(inst, arcs)
    values = dict(solution.values)
    values[w.VarRef("e", (0,))] = float("nan")
    vios = w.check_feasibility(inst, arcs, values)
    assert {vio.tag for vio in vios} == {"C9_i0", "C10_i0"}
    assert all(vio.slack < 0 for vio in vios)
    with pytest.raises(InfeasibleSolutionError):
        w.evaluate(inst, values, arcs)
    for bad in (float("inf"), float("-inf")):
        values[w.VarRef("e", (0,))] = bad
        assert violated_families(inst, arcs, values) & {"C9", "C10"}


def test_uncovered_rate_fraction():
    inst = w.scenario_instance("bench1", kind="grid", periods=1)
    arcs = w.build_arcs(inst)
    solution = w.solve_heuristic(inst, arcs)
    metrics = w.evaluate(inst, solution, arcs)
    assert metrics.uncovered_rate == 0.0
    assert inst.demanded_triples() == 200
    # Marking one covered triple as also paying the penalty stays feasible
    # (C2 is one-sided) and moves the rate to exactly 1/200.
    values = dict(solution.values)
    some_h = next(ref for ref in w.variable_universe(inst, arcs) if ref.kind == "h")
    assert some_h not in values
    values[some_h] = 1.0
    bumped = w.evaluate(inst, values, arcs)
    assert bumped.uncovered_rate == 0.005
    assert bumped.objective == pytest.approx(
        metrics.objective + inst.penalty_uncovered, rel=1e-12)


def test_metrics_do_not_depend_on_value_order():
    # Both penalty kinds occur; summed in dict order, the reversed dict
    # rounds the penalty total differently.
    inst = w.scenario_instance("default", kind="random", periods=2, seed=2)
    arcs = w.build_arcs(inst)
    solution = w.solve_heuristic(inst, arcs)
    metrics = w.evaluate(inst, solution, arcs)
    assert metrics.uncovered_rate > 0 and metrics.activations > 0
    reversed_values = dict(reversed(list(solution.values.items())))
    assert w.evaluate(inst, reversed_values, arcs) == metrics


def test_accounting_identity_exact():
    for name, kind, T, seed in (
        ("bench1", "grid", 2, 0),
        ("default", "random", 1, 6),
        ("default", "random", 3, 2),
    ):
        inst = w.scenario_instance(name, kind=kind, periods=T, seed=seed)
        arcs = w.build_arcs(inst)
        metrics = w.evaluate(inst, w.solve_heuristic(inst, arcs), arcs)
        assert metrics.objective == metrics.real_objective + metrics.penalty_total
        assert metrics.objective >= metrics.real_objective


def test_checker_is_total_on_garbage():
    import random

    inst = make_instance(
        sensors=[(2.0, 2.0), (5.0, 5.0), (8.0, 8.0)],
        demand_points=[(2.0, 3.0), (8.0, 7.0)],
        sinks=[(5.0, 2.0)], radii=(2.0,), periods=2, comm_radius=5.0)
    arcs = w.build_arcs(inst)
    universe = w.variable_universe(inst, arcs)

    all_ones = {ref: (1.0 if ref.kind != "e" else inst.device.battery_capacity)
                for ref in universe}
    violations = w.check_feasibility(inst, arcs, all_ones)
    assert violations, "all-ones cannot satisfy flow conservation here"
    assert all(vio.slack < 0 for vio in violations)

    rng = random.Random(123)
    for _ in range(20):
        values = {ref: (float(rng.random() < 0.4) if ref.kind != "e"
                        else rng.uniform(0, inst.device.battery_capacity))
                  for ref in universe}
        vios = w.check_feasibility(inst, arcs, values)
        assert all(vio.slack < 0 for vio in vios)
        for doc in w.violations_to_json(vios):
            assert set(doc) == {"tag", "lhs", "sense", "rhs", "slack"}


def test_metrics_fields_trivial_optimum():
    inst = trivial_instance()
    arcs = w.build_arcs(inst)
    solution, certificate = w.solve_exact(inst, arcs)
    assert certificate
    metrics = w.evaluate(inst, solution, arcs)
    assert metrics.real_objective == pytest.approx(1.23, rel=1e-12)
    assert metrics.objective == pytest.approx(1.24, rel=1e-12)
    assert metrics.penalty_total == pytest.approx(0.01, rel=1e-12)
    assert metrics.uncovered_rate == 0.0
    assert metrics.activations == 1
    assert metrics.per_sensor_energy == (pytest.approx(1.23, rel=1e-12),)
