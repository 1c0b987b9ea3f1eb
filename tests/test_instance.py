"""Geometry, generators, energy arithmetic and the instance file format."""

import dataclasses
import hashlib
import json
import math
from pathlib import Path

import numpy as np
import pytest

import wsnsched as w
from wsnsched.cli import main
from helpers import (
    POOL_LAYOUTS,
    make_instance,
    tiny_instance,
    trivial_instance,
    two_sink_instance,
)

DEVICE = w.DeviceProfile()


def test_point_distance():
    assert w.Point2D(0.0, 0.0).distance_to(w.Point2D(3.0, 4.0)) == 5.0
    assert w.Point2D(1.5, 2.5).distance_to(w.Point2D(1.5, 2.5)) == 0.0


def test_data_volume_arithmetic():
    # 2 samples/min for 60 min at 16 bits each.
    ph = w.Phenomenon(id=0, coverage_radius=3.0, sampling_rate=2.0, bits_per_sample=16)
    assert w.data_volume_bits(ph, 60.0) == 1920.0
    assert w.data_volume_bits(ph, 30.0) == 960.0


def test_energy_constants_default_device():
    ph = w.Phenomenon(id=0, coverage_radius=3.0, sampling_rate=2.0)
    et, er = w.derive_energy_constants(DEVICE, ph, 60.0, 5.0)
    # 1920 bits * 2.5e-4 and 1920 bits * 1.25e-4.
    assert et == pytest.approx(0.48, rel=1e-12)
    assert er == pytest.approx(0.24, rel=1e-12)
    # The default transmit model ignores distance.
    assert w.transmit_energy(DEVICE, ph, 60.0, 0.0) == et
    assert w.transmit_energy(DEVICE, ph, 60.0, 11.0) == et


def test_energy_linear_in_rate_period_and_bits():
    base = w.Phenomenon(id=0, coverage_radius=3.0, sampling_rate=2.0, bits_per_sample=16)
    doubled_rate = w.Phenomenon(id=0, coverage_radius=3.0, sampling_rate=4.0, bits_per_sample=16)
    doubled_bits = w.Phenomenon(id=0, coverage_radius=3.0, sampling_rate=2.0, bits_per_sample=32)
    for dist in (0.0, 2.0, 7.5):
        et0, er0 = w.derive_energy_constants(DEVICE, base, 60.0, dist)
        assert w.derive_energy_constants(DEVICE, doubled_rate, 60.0, dist) == (
            pytest.approx(2 * et0, rel=1e-12), pytest.approx(2 * er0, rel=1e-12))
        assert w.derive_energy_constants(DEVICE, doubled_bits, 60.0, dist) == (
            pytest.approx(2 * et0, rel=1e-12), pytest.approx(2 * er0, rel=1e-12))
        assert w.derive_energy_constants(DEVICE, base, 120.0, dist) == (
            pytest.approx(2 * et0, rel=1e-12), pytest.approx(2 * er0, rel=1e-12))


def test_transmit_distance_term():
    device = w.DeviceProfile(transmit=w.TransmitModel(base=1e-4, distance_coef=1e-6))
    ph = w.Phenomenon(id=0, coverage_radius=3.0, sampling_rate=1.0)
    near = w.transmit_energy(device, ph, 60.0, 1.0)
    far = w.transmit_energy(device, ph, 60.0, 3.0)
    volume = 960.0
    assert near == pytest.approx(volume * (1e-4 + 1e-6), rel=1e-12)
    assert far == pytest.approx(volume * (1e-4 + 9e-6), rel=1e-12)


def test_zero_receive_energy():
    device = w.DeviceProfile(receive_energy_per_bit=0.0)
    ph = w.Phenomenon(id=0, coverage_radius=3.0, sampling_rate=2.0)
    assert w.receive_energy(device, ph, 60.0) == 0.0


def test_default_uncovered_penalty():
    # Draw = EM + EA + sum over both default phenomena of ET + ER:
    # 0.5 + 0.25 + (0.48 + 0.24) + (0.24 + 0.12) = 1.83, scaled by 1e4.
    phenomena = w.default_phenomena()
    draw = w.max_period_draw(DEVICE, phenomena, 60.0, 11.0)
    assert draw == pytest.approx(1.83, rel=1e-12)
    assert w.default_penalty_uncovered(DEVICE, phenomena, 60.0, 11.0) == pytest.approx(
        18300.0, rel=1e-12)


# -- generators ---------------------------------------------------------------


def test_grid_positions_span_area():
    inst = w.scenario_instance("bench1", kind="grid", periods=1)
    assert len(inst.sensors) == 16
    assert len(inst.demand_points) == 100
    assert inst.sinks == (w.Point2D(5.0, 5.0),)
    xs = sorted({p.x for p in inst.sensors})
    ys = sorted({p.y for p in inst.sensors})
    expected = [k * 10.0 / 3 for k in range(4)]
    assert xs == pytest.approx(expected, abs=1e-12)
    assert ys == pytest.approx(expected, abs=1e-12)
    dp_xs = sorted({dp.position.x for dp in inst.demand_points})
    assert dp_xs == pytest.approx([k * 10.0 / 9 for k in range(10)], abs=1e-12)
    assert all(dp.demands == (0, 1) for dp in inst.demand_points)


def test_grid_degenerate_single_point():
    cfg = w.ScenarioConfig(periods=1)
    inst = w.gen_grid(1, 1, 1, 1, (10.0, 10.0), cfg)
    assert inst.sensors == (w.Point2D(5.0, 5.0),)
    assert inst.demand_points[0].position == w.Point2D(5.0, 5.0)


def test_grid_corner_lattice():
    cfg = w.ScenarioConfig(periods=1, grid_margin=0.0)
    inst = w.gen_grid(2, 2, 2, 2, (10.0, 10.0), cfg)
    corners = {(0.0, 0.0), (0.0, 10.0), (10.0, 0.0), (10.0, 10.0)}
    assert {(p.x, p.y) for p in inst.sensors} == corners


def test_grid_margin():
    cfg = w.ScenarioConfig(periods=1, grid_margin=1.0)
    inst = w.gen_grid(2, 2, 2, 2, (10.0, 10.0), cfg)
    assert {(p.x, p.y) for p in inst.sensors} == {
        (1.0, 1.0), (1.0, 9.0), (9.0, 1.0), (9.0, 9.0)}


def test_grid_rejects_bad_counts():
    cfg = w.ScenarioConfig(periods=1)
    with pytest.raises(ValueError):
        w.gen_grid(0, 4, 10, 10, (10.0, 10.0), cfg)
    with pytest.raises(ValueError):
        w.gen_grid(4, 4, 10, 10, (0.0, 10.0), cfg)


def test_random_determinism_and_seed_sensitivity():
    cfg = w.ScenarioConfig(periods=1)
    a = w.gen_random(16, 100, (10.0, 10.0), 42, cfg)
    b = w.gen_random(16, 100, (10.0, 10.0), 42, cfg)
    c = w.gen_random(16, 100, (10.0, 10.0), 43, cfg)
    assert a == b
    assert w.instance_to_json(a) == w.instance_to_json(b)
    assert a.sensors != c.sensors


def test_random_rejects_bad_counts():
    cfg = w.ScenarioConfig(periods=1)
    with pytest.raises(ValueError):
        w.gen_random(0, 10, (10.0, 10.0), 1, cfg)


def test_random_positions_inside_area():
    cfg = w.ScenarioConfig(periods=1)
    for seed in range(1000):
        inst = w.gen_random(5, 5, (10.0, 4.0), seed, cfg)
        for p in list(inst.sensors) + [dp.position for dp in inst.demand_points]:
            assert 0.0 <= p.x <= 10.0 and 0.0 <= p.y <= 4.0


def test_demand_drop_fraction():
    cfg = w.ScenarioConfig(periods=1, demand_drop_fraction=0.5)
    inst = w.gen_random(8, 40, (10.0, 10.0), 7, cfg)
    again = w.gen_random(8, 40, (10.0, 10.0), 7, cfg)
    assert inst == again
    sizes = {len(dp.demands) for dp in inst.demand_points}
    assert sizes == {1, 2}  # never empty, not all full at 40 points
    for dp in inst.demand_points:
        assert set(dp.demands) <= {0, 1}


def test_the_seed_is_a_generator_argument_not_a_config_field():
    with pytest.raises(TypeError):
        w.ScenarioConfig(seed=1)
    with pytest.raises(TypeError):
        w.scenario_config("default", seed=1)
    with pytest.raises(TypeError):  # keyword-only
        w.gen_grid(2, 2, 4, 4, (10.0, 10.0), None, 1)


@pytest.mark.parametrize("seed", [0, 1, 7])
def test_grid_seed_draws_the_drop_and_is_recorded(tmp_path, seed):
    cfg = w.ScenarioConfig(demand_drop_fraction=0.5)
    inst = w.gen_grid(2, 2, 4, 4, config=cfg, seed=seed)
    assert inst.seed == seed
    assert inst != w.gen_grid(2, 2, 4, 4, config=cfg, seed=seed + 1)
    path = tmp_path / "grid.json"
    assert main(["gen", "grid", "--out", str(path), "--sensor-grid", "2", "2",
                 "--dp-grid", "4", "4", "--drop-fraction", "0.5", "--seed", str(seed)]) == 0
    assert w.load_instance(path) == inst


def _instance_key(instance) -> str:
    text = json.dumps(w.instance_to_json(instance), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def test_reference_optima_keys_are_the_pool_layouts():
    # The benchmark looks its reference optima up by this content key, so
    # a generator that writes anything else for a pool layout loses them.
    path = Path(__file__).resolve().parents[1] / "perfbench" / "reference_optima.json"
    optima = json.loads(path.read_text())["optima"]
    by_label = {f"{name}-{kind}-T{periods}-s{seed}": (name, kind, periods, seed)
                for name, kind, periods, seed in POOL_LAYOUTS}
    assert len(optima) >= 9
    for key, entry in optima.items():
        name, kind, periods, seed = by_label[entry["label"]]
        inst = w.scenario_instance(name, kind=kind, periods=periods, seed=seed)
        assert _instance_key(inst) == key, entry["label"]


# -- arcs ---------------------------------------------------------------------


def test_arc_boundary_inclusion():
    inst = make_instance(
        sensors=[(0.0, 0.0)], demand_points=[(0.0, 8.8)], sinks=[(0.0, 1.0)],
        radii=(8.8,), comm_radius=11.0, area=(20.0, 20.0))
    arcs = w.build_arcs(inst)
    assert arcs.coverage[0] == ((0, 0),)

    just_out = make_instance(
        sensors=[(0.0, 0.0), (0.0, 11.000001)], demand_points=[(0.0, 1.0)],
        sinks=[(1.0, 1.0)], radii=(2.0,), comm_radius=11.0, area=(20.0, 20.0))
    arcs = w.build_arcs(just_out)
    assert arcs.comm == ()

    at_radius = make_instance(
        sensors=[(0.0, 0.0), (0.0, 11.0)], demand_points=[(0.0, 1.0)],
        sinks=[(1.0, 1.0)], radii=(2.0,), comm_radius=11.0, area=(20.0, 20.0))
    arcs = w.build_arcs(at_radius)
    assert set(arcs.comm) == {(0, 1), (1, 0)}


def test_long_radius_covers_everything():
    # Radius 16 exceeds the 10x10 diagonal, so coverage for g=1 is complete.
    inst = w.scenario_instance("bench1", kind="grid", periods=1)
    arcs = w.build_arcs(inst)
    assert len(arcs.coverage[1]) == 16 * 100


def test_arcs_match_bruteforce_recomputation():
    cfg = w.ScenarioConfig(periods=1)
    for seed in (3, 11, 27):
        inst = w.gen_random(12, 30, (10.0, 10.0), seed, cfg)
        arcs = w.build_arcs(inst)
        for g, ph in enumerate(inst.phenomena):
            expect = set()
            for i, s in enumerate(inst.sensors):
                for j, dp in enumerate(inst.demand_points):
                    if math.dist((s.x, s.y), (dp.position.x, dp.position.y)) <= ph.coverage_radius:
                        expect.add((i, j))
            assert set(arcs.coverage[g]) == expect
        comm = set()
        for i, a in enumerate(inst.sensors):
            for j, b in enumerate(inst.sensors):
                if i != j and math.dist((a.x, a.y), (b.x, b.y)) <= inst.comm_radius:
                    comm.add((i, j))
        assert set(arcs.comm) == comm
        to_sink = set()
        for i, a in enumerate(inst.sensors):
            for k, m in enumerate(inst.sinks):
                if math.dist((a.x, a.y), (m.x, m.y)) <= inst.comm_radius:
                    to_sink.add((i, k))
        assert set(arcs.to_sink) == to_sink


def _numpy_arcs(inst):
    """(coverage, comm, to_sink) by the numpy formula: np.hypot of the
    coordinate differences at most the radius, pairs in sorted order."""
    def pos(points):
        return np.array([[p.x, p.y] for p in points], dtype=float).reshape(-1, 2)

    def within(a, b, radius):
        d = np.hypot(a[:, None, 0] - b[None, :, 0], a[:, None, 1] - b[None, :, 1])
        ii, jj = np.nonzero(d <= radius)
        return tuple(sorted(zip(ii.tolist(), jj.tolist())))

    sp, mp = pos(inst.sensors), pos(inst.sinks)
    dp = pos([d.position for d in inst.demand_points])
    with np.errstate(over="ignore"):
        coverage = tuple(within(sp, dp, ph.coverage_radius) for ph in inst.phenomena)
        comm = tuple((i, j) for i, j in within(sp, sp, inst.comm_radius) if i != j)
        return coverage, comm, within(sp, mp, inst.comm_radius)


def _assert_numpy_arcs(inst):
    arcs = w.build_arcs(inst)
    assert (arcs.coverage, arcs.comm, arcs.to_sink) == _numpy_arcs(inst)
    return arcs


@pytest.mark.parametrize("scenario", ["default", "bench1", "bench2"])
def test_arcs_equal_numpy_on_the_scenarios(scenario):
    _assert_numpy_arcs(w.scenario_instance(scenario, "grid"))
    for seed in range(100):
        _assert_numpy_arcs(w.scenario_instance(scenario, "random", seed=seed))


def test_arcs_equal_numpy_where_distance_is_the_radius():
    # On a 3 x 4 lattice diagonal neighbours are exactly 5 apart.
    lattice = [(3.0 * i, 4.0 * j) for i in range(4) for j in range(4)]
    inst = make_instance(sensors=lattice, demand_points=lattice, sinks=[(0.0, 0.0)],
                         radii=(5.0, 10.0), comm_radius=5.0, area=(9.0, 12.0))
    arcs = _assert_numpy_arcs(inst)
    assert {(0, 5), (5, 0)} <= set(arcs.comm)  # (0, 0) and (3, 4)
    assert (0, 5) in arcs.coverage[0]

    # On a 0.1-step lattice the differences are rounded, and for some sensor
    # pairs about 0.5 apart math.hypot and the C library's hypot fall on
    # opposite sides of the radius: only the latter is the numpy rule.
    lattice = [(i * 0.1, j * 0.1) for i in range(12) for j in range(12)]
    assert any((math.hypot(ax - bx, ay - by) <= 0.5) != (abs(complex(ax - bx, ay - by)) <= 0.5)
               for ax, ay in lattice for bx, by in lattice)
    inst = make_instance(sensors=lattice, demand_points=lattice[::5],
                         sinks=[(0.0, 0.0), (0.5, 0.5)],
                         radii=(0.5, 0.3), comm_radius=0.5, area=(1.1, 1.1))
    _assert_numpy_arcs(inst)


def test_arcs_equal_numpy_without_sinks():
    inst = make_instance(sensors=[(0.0, 0.0), (1.0, 1.0)], demand_points=[(0.5, 0.5)],
                         sinks=[(1.0, 0.0)])
    object.__setattr__(inst, "sinks", ())  # the constructor refuses this
    assert _assert_numpy_arcs(inst).to_sink == ()


def test_arcs_where_hypot_overflows(tmp_path, capsys):
    # hypot(big, big) overflows: the numpy formula reads inf, so no arc,
    # where a bare abs() of the complex difference raises.
    big = 1.7e308
    inst = make_instance(sensors=[(0.0, 0.0), (big, big), (big, 0.0)],
                         demand_points=[(big, big), (0.0, 0.0)], sinks=[(0.0, big)],
                         radii=(big,), area=(big, big))
    arcs = _assert_numpy_arcs(inst)
    assert arcs.coverage == (((0, 1), (1, 0), (2, 0), (2, 1)),)
    assert arcs.comm == () and arcs.to_sink == ()
    path = tmp_path / "inst.json"
    w.save_instance(inst, path)
    assert main(["build", "--instance", str(path), "--lp", str(tmp_path / "m.lp")]) == 0
    assert "Traceback" not in capsys.readouterr().err

    # Past the area check, a difference of 2 * big is inf and one of
    # (big, big) overflows again.
    object.__setattr__(inst, "sensors", inst.sensors + (w.Point2D(-big, -big),))
    assert _assert_numpy_arcs(inst).coverage == (((0, 1), (1, 0), (2, 0), (2, 1)),)


def test_comm_arcs_symmetric():
    cfg = w.ScenarioConfig(periods=1)
    inst = w.gen_random(15, 5, (10.0, 10.0), 5, cfg)
    arcs = w.build_arcs(inst)
    pairs = set(arcs.comm)
    assert {(j, i) for i, j in pairs} == pairs


def test_arcs_monotone_in_radius():
    rng = np.random.default_rng(0)
    for _ in range(20):
        seed = int(rng.integers(0, 10_000))
        small_r = float(rng.uniform(1.0, 4.0))
        cfg_small = w.ScenarioConfig(
            periods=1,
            phenomena=(w.Phenomenon(id=0, coverage_radius=small_r, sampling_rate=1.0),),
            comm_radius=3.0)
        cfg_big = w.ScenarioConfig(
            periods=1,
            phenomena=(w.Phenomenon(id=0, coverage_radius=small_r + 1.5, sampling_rate=1.0),),
            comm_radius=4.5)
        small = w.build_arcs(w.gen_random(8, 12, (10.0, 10.0), seed, cfg_small))
        big = w.build_arcs(w.gen_random(8, 12, (10.0, 10.0), seed, cfg_big))
        assert set(small.coverage[0]) <= set(big.coverage[0])
        assert set(small.comm) <= set(big.comm)
        assert set(small.to_sink) <= set(big.to_sink)


def test_energy_tables_match_pointwise_formulas():
    inst = w.scenario_instance("default", kind="random", periods=2, seed=9)
    arcs = w.build_arcs(inst)
    tables = w.EnergyTables(inst, arcs)
    assert tables.em == inst.device.maintenance_energy
    assert tables.eb == inst.device.battery_capacity
    n = len(inst.sensors)
    for (i, j), per_g in list(tables.et.items())[:40]:
        if j < n:
            b = inst.sensors[j]
        else:
            b = inst.sinks[j - n]
        d = inst.sensors[i].distance_to(b)
        for g, ph in enumerate(inst.phenomena):
            assert per_g[g] == pytest.approx(
                w.transmit_energy(inst.device, ph, inst.period_length, d), rel=1e-12)
    for g, ph in enumerate(inst.phenomena):
        assert tables.er[g] == pytest.approx(
            w.receive_energy(inst.device, ph, inst.period_length), rel=1e-12)


# -- the stream network ---------------------------------------------------------


def _assert_network(inst, arcs):
    """The derived network against a naive derivation from comm, to_sink and
    coverage: per-node lists filtered out of the whole arc list, sorted."""
    n, m, dps = len(inst.sensors), len(inst.sinks), len(inst.demand_points)
    sink_arcs = [(i, n + k) for i, k in arcs.to_sink]
    # Comm arcs first, then sink arcs: the validator's reports depend on it.
    assert arcs.stream == tuple(arcs.comm) + tuple(sink_arcs)
    assert arcs.out_arcs == tuple(
        tuple(sorted(a for a in arcs.comm + tuple(sink_arcs) if a[0] == i))
        for i in range(n))
    assert arcs.in_arcs == tuple(
        tuple(sorted(a for a in arcs.comm + tuple(sink_arcs) if a[1] == v))
        for v in range(n + m))
    assert arcs.sources == tuple(
        tuple(i for i in range(n) if any(a == i for a, _ in pairs))
        for pairs in arcs.coverage)
    assert arcs.covering == tuple(
        tuple(tuple(sorted(i for i, jj in pairs if jj == j)) for j in range(dps))
        for pairs in arcs.coverage)


@pytest.mark.parametrize("layout", POOL_LAYOUTS, ids=lambda lay: "-".join(map(str, lay)))
def test_stream_network_of_the_pool(layout):
    scenario, kind, periods, seed = layout
    inst = w.scenario_instance(scenario, kind=kind, periods=periods, seed=seed)
    _assert_network(inst, w.build_arcs(inst))


def test_stream_network_of_small_instances():
    for seed in range(20):
        _assert_network(*tiny_instance(seed))
    inst = two_sink_instance()
    arcs = w.build_arcs(inst)
    _assert_network(inst, arcs)
    assert arcs.in_arcs[3] and arcs.in_arcs[4]  # both sinks are reachable


def test_arcs_hold_one_energy_table():
    inst = two_sink_instance()
    arcs = w.build_arcs(inst)
    assert arcs.tables is arcs.tables
    fresh = w.EnergyTables(inst, arcs)
    assert arcs.tables.et == fresh.et and arcs.tables.er == fresh.er
    assert list(arcs.tables.et) == list(arcs.stream)
    assert w.build_arcs(inst).tables is not arcs.tables


# Every public function that takes an instance with its arcs, called with a
# solution of the instance and a directory holding it as sol.json and sol.txt.
ENTRY_POINTS = {
    "variable_universe": lambda inst, arcs, sol, d: w.variable_universe(inst, arcs),
    "universe_size": lambda inst, arcs, sol, d: w.universe_size(inst, arcs),
    "build_model": lambda inst, arcs, sol, d: w.build_model(inst, arcs),
    "EnergyTables": lambda inst, arcs, sol, d: w.EnergyTables(inst, arcs),
    "solve_exact": lambda inst, arcs, sol, d: w.solve_exact(inst, arcs),
    "brute_force_oracle": lambda inst, arcs, sol, d: w.brute_force_oracle(inst, arcs),
    "solve_heuristic": lambda inst, arcs, sol, d: w.solve_heuristic(inst, arcs),
    "check_feasibility_empty": lambda inst, arcs, sol, d: w.check_feasibility(inst, arcs, {}),
    "check_feasibility": lambda inst, arcs, sol, d: w.check_feasibility(inst, arcs, sol),
    "evaluate": lambda inst, arcs, sol, d: w.evaluate(inst, sol, arcs),
    "load_solution": lambda inst, arcs, sol, d: w.load_solution(d / "sol.json", inst, arcs),
    "load_external_solution":
        lambda inst, arcs, sol, d: w.load_external_solution(d / "sol.txt", inst, arcs),
}


@pytest.mark.parametrize("entry", list(ENTRY_POINTS))
def test_arcs_of_another_instance_are_refused(tmp_path, entry):
    # The same geometry with another battery: every variable of the solution
    # belongs to both universes, so only the arcs' source differs.
    inst = trivial_instance()
    sol = w.solve_heuristic(inst)
    w.save_solution(sol, tmp_path / "sol.json")
    (tmp_path / "sol.txt").write_text(
        "".join(f"{ref.name} = {val}\n" for ref, val in sol.values.items()))
    call = ENTRY_POINTS[entry]
    call(inst, w.build_arcs(inst), sol, tmp_path)
    with pytest.raises(ValueError, match="arc sets were not built from this instance"):
        call(inst, w.build_arcs(trivial_instance(battery=3.0)), sol, tmp_path)


# -- instance invariants ------------------------------------------------------


def test_instance_rejects_bad_inputs():
    good = dict(
        sensors=[(1.0, 1.0)], demand_points=[(2.0, 2.0)], sinks=[(3.0, 3.0)])
    with pytest.raises(ValueError):
        make_instance(**good, area=(0.0, 10.0))
    with pytest.raises(ValueError):
        make_instance(**good, periods=0)
    with pytest.raises(ValueError):
        make_instance(**good, comm_radius=0.0)
    with pytest.raises(ValueError):
        make_instance(sensors=[(11.0, 1.0)], demand_points=[(2.0, 2.0)],
                      sinks=[(3.0, 3.0)])
    with pytest.raises(ValueError):
        make_instance(sensors=[(1.0, 1.0)], demand_points=[((2.0, 2.0), ())],
                      sinks=[(3.0, 3.0)])
    with pytest.raises(ValueError):
        make_instance(sensors=[(1.0, 1.0)], demand_points=[((2.0, 2.0), (5,))],
                      sinks=[(3.0, 3.0)])
    with pytest.raises(ValueError):
        make_instance(**good, battery=-1.0)
    with pytest.raises(ValueError):
        # Penalty below the worst-case draw defeats the coverage incentive.
        make_instance(**good, penalty_uncovered=0.5)
    with pytest.raises(ValueError):
        w.Instance(
            area=(10.0, 10.0), sensors=(w.Point2D(1, 1),),
            demand_points=(w.DemandPoint(w.Point2D(2, 2), (0,)),),
            sinks=(), phenomena=w.default_phenomena(), periods=1,
            period_length=60.0, comm_radius=4.0, device=DEVICE,
            penalty_uncovered=1e6, penalty_activation=0.01)


def test_demanded_triples_counts_only_demands():
    inst = make_instance(
        sensors=[(1.0, 1.0)],
        demand_points=[((2.0, 2.0), (0,)), ((3.0, 3.0), (0, 1))],
        sinks=[(4.0, 4.0)], radii=(2.0, 3.0), periods=3)
    assert inst.demanded_triples() == 9
    assert inst.demand_indices(0) == (0, 1)
    assert inst.demand_indices(1) == (1,)


def test_scale_energy():
    inst = w.scenario_instance("default", kind="random", periods=2, seed=4)
    scaled = w.scale_energy(inst, 7.3)
    assert scaled.sensors == inst.sensors
    assert scaled.device.battery_capacity == pytest.approx(
        7.3 * inst.device.battery_capacity, rel=1e-12)
    assert scaled.penalty_uncovered == pytest.approx(
        7.3 * inst.penalty_uncovered, rel=1e-12)
    assert scaled.penalty_activation == pytest.approx(
        7.3 * inst.penalty_activation, rel=1e-12)
    ph = inst.phenomena[0]
    assert w.transmit_energy(scaled.device, ph, 60.0, 3.0) == pytest.approx(
        7.3 * w.transmit_energy(inst.device, ph, 60.0, 3.0), rel=1e-12)
    assert w.receive_energy(scaled.device, ph, 60.0) == pytest.approx(
        7.3 * w.receive_energy(inst.device, ph, 60.0), rel=1e-12)


def test_scenario_bench2_shape_and_connectivity():
    inst = w.scenario_instance("bench2", kind="grid", periods=1)
    assert inst.area == (20.0, 20.0)
    assert len(inst.sensors) == 36
    assert len(inst.sinks) == 4
    assert {(p.x, p.y) for p in inst.sinks} == {
        (0.0, 0.0), (0.0, 20.0), (20.0, 0.0), (20.0, 20.0)}
    # Every sensor must have a multi-hop route to some sink.
    arcs = w.build_arcs(inst)
    n = len(inst.sensors)
    adj = {i: set() for i in range(n)}
    for i, j in arcs.comm:
        adj[i].add(j)
    reach = {i for i, _k in arcs.to_sink}
    frontier = list(reach)
    while frontier:
        node = frontier.pop()
        for i in range(n):
            if i not in reach and node in adj[i]:
                reach.add(i)
                frontier.append(i)
    assert reach == set(range(n))


# -- JSON format --------------------------------------------------------------


def test_json_roundtrip_exact():
    for inst in (
        w.scenario_instance("bench1", kind="grid", periods=2),
        w.scenario_instance("default", kind="random", periods=3, seed=11),
        make_instance(sensors=[(1.0, 2.0)], demand_points=[((3.0, 4.0), (0,))],
                      sinks=[(5.0, 6.0)], radii=(2.5,), transmit_coef=1e-6),
    ):
        data = w.instance_to_json(inst)
        assert data["format"] == "wsn-instance/1"
        back = w.instance_from_json(data)
        assert back == inst
        assert json.dumps(data) == json.dumps(w.instance_to_json(back))


@pytest.mark.parametrize("field", [
    "periods", "period_length", "comm_radius", "penalty_activation",
    "coverage_radius", "sampling_rate", "battery_capacity", "bit_rate",
])
def test_nan_fails_the_range_checks(field):
    inst = w.scenario_instance("default", kind="grid", periods=1)
    nan = float("nan")
    with pytest.raises(ValueError):
        if field in ("coverage_radius", "sampling_rate"):
            ph = dataclasses.replace(inst.phenomena[0], **{field: nan})
            dataclasses.replace(inst, phenomena=(ph,) + inst.phenomena[1:])
        elif field in ("battery_capacity", "bit_rate"):
            dataclasses.replace(inst, device=dataclasses.replace(inst.device, **{field: nan}))
        else:
            dataclasses.replace(inst, **{field: nan})


def test_json_rejects_bad_documents():
    inst = w.scenario_instance("default", kind="grid", periods=1)
    data = w.instance_to_json(inst)
    broken = dict(data)
    broken["format"] = "wsn-instance/999"
    with pytest.raises(ValueError):
        w.instance_from_json(broken)
    missing = dict(data)
    del missing["sensors"]
    with pytest.raises((ValueError, KeyError)):
        w.instance_from_json(missing)


def test_save_load_file(tmp_path):
    inst = w.scenario_instance("default", kind="random", periods=2, seed=3)
    path = tmp_path / "inst.json"
    w.save_instance(inst, path)
    assert w.load_instance(path) == inst
    text = path.read_text()
    w.save_instance(inst, path)
    assert path.read_text() == text
