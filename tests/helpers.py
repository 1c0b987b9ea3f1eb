"""Builders for the small instances the test suite leans on."""

from __future__ import annotations

import numpy as np

import wsnsched as w

# The benchmark's pool: every (scenario, kind, periods, seed) it lays out.
POOL_LAYOUTS = [("bench1", "grid", 1, 0), ("bench1", "grid", 3, 0), ("bench2", "grid", 3, 0),
                ("default", "random", 2, 2), ("bench2", "random", 2, 1)] + [
                ("default", "random", 1, s) for s in range(1, 7)]
# The benchmark's plan layouts, then every other `default` layout with
# 1-3 periods and seeds 1-5.
PLAN_POOL = POOL_LAYOUTS[:5]
HEURISTIC_LAYOUTS = PLAN_POOL + [
    ("default", kind, periods, seed)
    for kind in ("grid", "random")
    for periods in (1, 2, 3)
    for seed in range(1, 6)
    if ("default", kind, periods, seed) not in PLAN_POOL
]


def make_instance(
    sensors,
    demand_points,
    sinks,
    *,
    radii=(2.0,),
    rates=None,
    bits=16,
    periods=1,
    comm_radius=4.0,
    area=(10.0, 10.0),
    battery=4.0,
    activation=0.25,
    maintenance=0.5,
    receive=1.25e-4,
    transmit_base=2.5e-4,
    transmit_coef=0.0,
    period_length=60.0,
    penalty_uncovered=None,
    penalty_activation=0.01,
    seed=0,
):
    """Build an Instance from bare coordinate tuples.

    ``demand_points`` entries are either plain ``(x, y)`` positions, which
    demand every phenomenon, or ``((x, y), ids)`` pairs.  When
    ``penalty_uncovered`` is omitted it falls back to the library default
    derived from the worst-case per-period draw.
    """
    if rates is None:
        rates = tuple(2.0 for _ in radii)
    phenomena = tuple(
        w.Phenomenon(id=k, coverage_radius=radii[k], sampling_rate=rates[k],
                     bits_per_sample=bits)
        for k in range(len(radii))
    )
    device = w.DeviceProfile(
        battery_capacity=battery,
        activation_energy=activation,
        maintenance_energy=maintenance,
        receive_energy_per_bit=receive,
        transmit=w.TransmitModel(base=transmit_base, distance_coef=transmit_coef),
    )
    all_ids = tuple(range(len(phenomena)))
    dps = []
    for entry in demand_points:
        if len(entry) == 2 and isinstance(entry[0], (tuple, list)):
            pos, ids = entry
        else:
            pos, ids = entry, all_ids
        dps.append(w.DemandPoint(position=w.Point2D(*pos), demands=tuple(ids)))
    if penalty_uncovered is None:
        penalty_uncovered = w.default_penalty_uncovered(
            device, phenomena, period_length, comm_radius)
    return w.Instance(
        area=tuple(area),
        sensors=tuple(w.Point2D(*p) for p in sensors),
        demand_points=tuple(dps),
        sinks=tuple(w.Point2D(*p) for p in sinks),
        phenomena=phenomena,
        periods=periods,
        period_length=period_length,
        comm_radius=comm_radius,
        device=device,
        penalty_uncovered=penalty_uncovered,
        penalty_activation=penalty_activation,
        seed=seed,
    )


def trivial_instance(**kw):
    """One sensor in coverage range of one demand point and one sink.

    The optimum activates the sensor every period and routes straight to
    the sink: e = T*(EM + ET) + EA, objective adds EG per sensing period.
    """
    return make_instance(
        sensors=[(5.0, 5.0)],
        demand_points=[(5.0, 6.0)],
        sinks=[(5.0, 3.0)],
        **kw,
    )


def relay_chain(**kw):
    """Coverage at sensor 0, whose only way to the sink is through sensor 1.

    The optimum relays through sensor 1: e0 = EM+EA+ET = 1.23 and
    e1 = EM+EA+ER+ET = 1.47 per period, objective adds EG.
    """
    return make_instance(
        sensors=[(1.0, 5.0), (4.0, 5.0)],
        demand_points=[(1.0, 6.0)],
        sinks=[(7.0, 5.0)],
        radii=(2.0,),
        comm_radius=3.0,
        **kw,
    )


def two_sink_instance():
    """Three sensors, two phenomena (one point demands both) and two sinks,
    over three periods."""
    return make_instance(
        sensors=[(2.0, 2.0), (5.0, 5.0), (8.0, 2.0)],
        demand_points=[((2.0, 3.0), (0,)), ((5.0, 6.0), (0, 1))],
        sinks=[(0.0, 0.0), (10.0, 0.0)],
        radii=(2.0, 3.0), periods=3, comm_radius=5.0, transmit_coef=1e-6)


def tiny_instance(seed, max_free=16, max_binaries=40):
    """Random instance small enough for exhaustive oracle enumeration.

    Resamples deterministically (the attempt loop is part of the seed
    stream) until the model has at most ``max_free`` x/z/r variables and
    ``max_binaries`` binaries in total.  Returns ``(instance, arcs)``.
    """
    rng = np.random.default_rng(seed)
    for _ in range(64):
        n_sensors = int(rng.integers(2, 4))
        n_dp = int(rng.integers(1, 4))
        periods = int(rng.integers(1, 3))
        extent = 8.0
        sensors = [tuple(rng.uniform(0, extent, 2)) for _ in range(n_sensors)]
        dps = [tuple(rng.uniform(0, extent, 2)) for _ in range(n_dp)]
        sink = [tuple(rng.uniform(0, extent, 2))]
        # An occasional small battery makes the cap constraint bind.
        battery = 1.3 if rng.random() < 0.3 else 4.0
        instance = make_instance(
            sensors, dps, sink,
            radii=(float(rng.uniform(1.5, 3.0)),),
            periods=periods,
            comm_radius=float(rng.uniform(2.5, 4.0)),
            area=(extent, extent),
            battery=battery,
            seed=seed,
        )
        arcs = w.build_arcs(instance)
        refs = w.variable_universe(instance, arcs)
        free = sum(1 for ref in refs if ref.kind in ("x", "z", "r"))
        binaries = sum(1 for ref in refs if ref.kind != "e")
        if free <= max_free and binaries <= max_binaries:
            return instance, arcs
    raise AssertionError(f"no tiny instance found for seed {seed}")


# The tiny_instance seeds in 50-199 whose oracle optimum senses at least
# one triple; in the rest the all-penalty schedule is optimal.
SENSING_SEEDS = [55, 56, 62, 66, 71, 76, 78, 80, 84, 86, 87, 89, 97, 102, 106, 109,
                 110, 115, 116, 128, 132, 133, 137, 143, 144, 145, 146, 148, 155,
                 159, 160, 167, 178, 180, 186, 188, 190, 191, 194, 196]


def distance_grid(battery, comm_radius):
    """The default scenario's phenomena on a 4x4 sensor grid over two
    periods, with transmit energy that grows with distance."""
    device = w.DeviceProfile(battery_capacity=battery,
                             transmit=w.TransmitModel(distance_coef=1e-5))
    config = w.ScenarioConfig(periods=2, comm_radius=comm_radius, device=device)
    return w.gen_grid(4, 4, 4, 4, (10.0, 10.0), config)


def values_by_kind(solution, kind):
    """Map index tuple -> value for one variable kind of a solution."""
    return {ref.indices: val for ref, val in solution.values.items()
            if ref.kind == kind}


def assert_routes_reach_sinks(instance, arcs, solution):
    """Every sensing (l,t,g) must reach a sink over its own active z-arcs.

    Walks the chosen arcs of each commodity; a sensing source with no
    path to any sink is a routing bug even if flow balance holds.
    """
    n = len(instance.sensors)
    sinks = set(range(n, n + len(instance.sinks)))
    active = {ref.indices for ref, val in solution.values.items()
              if ref.kind == "y" and val == 1.0}
    for (i, t, g), val in values_by_kind(solution, "r").items():
        if val != 1.0:
            continue
        edges = {}
        for ref, zval in solution.values.items():
            if zval != 1.0 or ref.kind != "z":
                continue
            l, a, b, tt, gg = ref.indices
            if (l, tt, gg) == (i, t, g):
                edges.setdefault(a, []).append(b)
        seen = {i}
        frontier = [i]
        reached = False
        while frontier:
            node = frontier.pop()
            if node in sinks:
                reached = True
                break
            assert (node, t) in active, (
                f"commodity {(i, t, g)} routed through inactive sensor {node}")
            for nxt in edges.get(node, ()):
                if nxt not in seen:
                    seen.add(nxt)
                    frontier.append(nxt)
        assert reached, f"commodity {(i, t, g)} never reaches a sink"
