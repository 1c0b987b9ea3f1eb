"""Problem instances for multi-period sensor-network scheduling.

An :class:`Instance` bundles the geometry (sensor, demand-point and sink
positions), the phenomena being sensed, the device energy profile and the
penalty weights.  Instances are immutable; generators are pure functions of
their parameters and seed, so the same call always yields the same instance
byte for byte.  Each generator takes the layout seed as an argument and
records it in the instance; a :class:`ScenarioConfig` holds none.

All lengths are in meters, all times in minutes, and energy is in abstract
units fixed by the device profile.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import TYPE_CHECKING, Sequence

if TYPE_CHECKING:
    import numpy as np

INSTANCE_FORMAT = "wsn-instance/1"

# Library defaults.  With these numbers one sensor sensing one phenomenon for
# one period draws on the order of one energy unit, and the stock battery
# sustains three periods of dual sensing but not four.
DEFAULT_PERIOD_LENGTH_MIN = 60.0
DEFAULT_BIT_RATE_BPS = 250_000.0
DEFAULT_TRANSMIT_PER_BIT = 2.5e-4
DEFAULT_RECEIVE_PER_BIT = 1.25e-4
DEFAULT_MAINTENANCE_ENERGY = 0.5
DEFAULT_ACTIVATION_ENERGY = 0.25
DEFAULT_BATTERY_CAPACITY = 4.0
DEFAULT_PENALTY_ACTIVATION = 0.01
DEFAULT_COMM_RADIUS = 11.0

# The uncovered-coverage penalty defaults to this multiple of the worst-case
# per-period draw of a single sensor, so dropping coverage is never the cheap
# way out unless the geometry leaves no alternative.
UNCOVERED_PENALTY_FACTOR = 1e4


@dataclass(frozen=True)
class Point2D:
    x: float
    y: float

    def distance_to(self, other: "Point2D") -> float:
        return math.hypot(self.x - other.x, self.y - other.y)


@dataclass(frozen=True)
class Phenomenon:
    """One observable phenomenon.

    ``coverage_radius`` is the maximum sensing distance, ``sampling_rate``
    the samples taken per minute, and ``bits_per_sample`` the payload size
    of a single sample.
    """

    id: int
    coverage_radius: float
    sampling_rate: float
    bits_per_sample: int = 16


@dataclass(frozen=True)
class TransmitModel:
    """Per-bit transmit energy as an affine function of squared distance.

    energy_per_bit(d) = base + distance_coef * d**2.  The default model is
    distance independent (distance_coef = 0).
    """

    base: float = DEFAULT_TRANSMIT_PER_BIT
    distance_coef: float = 0.0

    def energy_per_bit(self, distance: float) -> float:
        return self.base + self.distance_coef * distance * distance


@dataclass(frozen=True)
class DeviceProfile:
    """Energy characteristics shared by every sensor in an instance."""

    battery_capacity: float = DEFAULT_BATTERY_CAPACITY
    activation_energy: float = DEFAULT_ACTIVATION_ENERGY
    maintenance_energy: float = DEFAULT_MAINTENANCE_ENERGY
    receive_energy_per_bit: float = DEFAULT_RECEIVE_PER_BIT
    transmit: TransmitModel = field(default_factory=TransmitModel)
    bit_rate: float = DEFAULT_BIT_RATE_BPS


@dataclass(frozen=True)
class DemandPoint:
    position: Point2D
    demands: tuple[int, ...]  # phenomenon ids, sorted, nonempty


def default_phenomena() -> tuple[Phenomenon, ...]:
    return (
        Phenomenon(id=0, coverage_radius=3.0, sampling_rate=2.0, bits_per_sample=16),
        Phenomenon(id=1, coverage_radius=5.0, sampling_rate=1.0, bits_per_sample=16),
    )


def data_volume_bits(phenomenon: Phenomenon, period_length: float) -> float:
    """Bits produced by one sensor for one phenomenon in one period."""
    return phenomenon.sampling_rate * period_length * phenomenon.bits_per_sample


def transmit_energy(
    device: DeviceProfile, phenomenon: Phenomenon, period_length: float, distance: float
) -> float:
    """Energy to transmit one period's volume of a phenomenon over one hop."""
    volume = data_volume_bits(phenomenon, period_length)
    return volume * device.transmit.energy_per_bit(distance)


def receive_energy(
    device: DeviceProfile, phenomenon: Phenomenon, period_length: float
) -> float:
    """Energy to receive one period's volume of a phenomenon."""
    volume = data_volume_bits(phenomenon, period_length)
    return volume * device.receive_energy_per_bit


def derive_energy_constants(
    device: DeviceProfile, phenomenon: Phenomenon, period_length: float, distance: float
) -> tuple[float, float]:
    """(transmit, receive) energy for one period's volume at a hop distance."""
    return (
        transmit_energy(device, phenomenon, period_length, distance),
        receive_energy(device, phenomenon, period_length),
    )


def max_period_draw(
    device: DeviceProfile,
    phenomena: Sequence[Phenomenon],
    period_length: float,
    comm_radius: float,
) -> float:
    """Worst-case one-period energy draw of a single sensor.

    Staying on, activating, and for every phenomenon both relaying one
    stream in and transmitting one stream out at the maximum hop distance.
    """
    draw = device.maintenance_energy + device.activation_energy
    for ph in phenomena:
        et, er = derive_energy_constants(device, ph, period_length, comm_radius)
        draw += et + er
    return draw


def default_penalty_uncovered(
    device: DeviceProfile,
    phenomena: Sequence[Phenomenon],
    period_length: float,
    comm_radius: float,
) -> float:
    return UNCOVERED_PENALTY_FACTOR * max_period_draw(
        device, phenomena, period_length, comm_radius
    )


@dataclass(frozen=True)
class Instance:
    """A complete scheduling problem.

    Invariants are checked on construction: positive area and periods,
    positions inside the area, nonempty demands referring to known
    phenomena, nonnegative energies, and an uncovered-coverage penalty
    strictly above the worst-case per-period draw of one sensor.
    """

    area: tuple[float, float]
    sensors: tuple[Point2D, ...]
    demand_points: tuple[DemandPoint, ...]
    sinks: tuple[Point2D, ...]
    phenomena: tuple[Phenomenon, ...]
    periods: int
    period_length: float
    comm_radius: float
    device: DeviceProfile
    penalty_uncovered: float
    penalty_activation: float
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "area", tuple(self.area))
        object.__setattr__(self, "sensors", tuple(self.sensors))
        object.__setattr__(self, "demand_points", tuple(self.demand_points))
        object.__setattr__(self, "sinks", tuple(self.sinks))
        object.__setattr__(self, "phenomena", tuple(self.phenomena))
        self._check()

    def _check(self):
        w, h = self.area
        if not (w > 0 and h > 0):
            raise ValueError("area dimensions must be positive")
        # Every range test is written so that NaN fails it.
        if not self.periods >= 1:
            raise ValueError("periods must be >= 1")
        if not self.period_length > 0:
            raise ValueError("period_length must be positive")
        if not self.comm_radius > 0:
            raise ValueError("comm_radius must be positive")
        if not self.phenomena:
            raise ValueError("at least one phenomenon is required")
        ids = [ph.id for ph in self.phenomena]
        if len(set(ids)) != len(ids):
            raise ValueError("phenomenon ids must be unique")
        for ph in self.phenomena:
            if not (ph.coverage_radius > 0 and ph.sampling_rate > 0 and ph.bits_per_sample > 0):
                raise ValueError(f"phenomenon {ph.id} has nonpositive parameters")
        if not self.sinks:
            raise ValueError("at least one sink is required")
        for p in list(self.sensors) + [dp.position for dp in self.demand_points] + list(self.sinks):
            if not (0.0 <= p.x <= w and 0.0 <= p.y <= h):
                raise ValueError(f"position ({p.x}, {p.y}) outside area {self.area}")
        known = set(ids)
        for j, dp in enumerate(self.demand_points):
            if not dp.demands:
                raise ValueError(f"demand point {j} demands nothing")
            if list(dp.demands) != sorted(set(dp.demands)):
                raise ValueError(f"demand point {j} has unsorted or repeated demands")
            if not set(dp.demands) <= known:
                raise ValueError(f"demand point {j} demands unknown phenomena")
        dev = self.device
        if not all(x >= 0 for x in (dev.battery_capacity, dev.activation_energy,
                                    dev.maintenance_energy, dev.receive_energy_per_bit,
                                    dev.transmit.base, dev.transmit.distance_coef)):
            raise ValueError("device energies must be nonnegative")
        if not dev.bit_rate > 0:
            raise ValueError("bit_rate must be positive")
        if not self.penalty_activation >= 0:
            raise ValueError("penalty_activation must be nonnegative")
        draw = max_period_draw(dev, self.phenomena, self.period_length, self.comm_radius)
        if not self.penalty_uncovered > draw:
            raise ValueError(
                f"penalty_uncovered ({self.penalty_uncovered}) must exceed the "
                f"worst-case per-period sensor draw ({draw})"
            )

    # -- convenience lookups -------------------------------------------------

    def demand_indices(self, g: int) -> tuple[int, ...]:
        """Indices of demand points that demand phenomenon index ``g``."""
        gid = self.phenomena[g].id
        return tuple(j for j, dp in enumerate(self.demand_points) if gid in dp.demands)

    def demanded_triples(self) -> int:
        """Number of (demand point, period, phenomenon) coverage obligations."""
        per_period = sum(len(dp.demands) for dp in self.demand_points)
        return per_period * self.periods


@dataclass(frozen=True)
class ArcSets:
    """Directed arcs derived from an instance's geometry.

    ``coverage[g]`` holds (sensor, demand point) pairs within the coverage
    radius of phenomenon index ``g``; ``comm`` holds ordered sensor pairs
    within communication range (both directions present); ``to_sink`` holds
    (sensor, sink) pairs within communication range.  A distance exactly
    equal to the radius produces an arc.  All tuples are sorted so iteration
    order is deterministic.

    The stream network every consumer routes over is derived from these
    fields on first use and cached: ``stream`` lists the comm arcs, then
    the sink arcs with sink k as node n + k; ``out_arcs[i]`` and
    ``in_arcs[v]`` hold the stream arcs out of sensor i and into node v
    (a sensor or a sink), in ``stream`` order; ``sources[g]`` lists the
    sensors with a coverage arc for phenomenon index g, and
    ``covering[g][j]`` those covering demand point j; ``tables`` is the
    one :class:`EnergyTables` of these arcs.
    """

    coverage: tuple[tuple[tuple[int, int], ...], ...]
    comm: tuple[tuple[int, int], ...]
    to_sink: tuple[tuple[int, int], ...]
    source: Instance

    @cached_property
    def stream(self) -> tuple[tuple[int, int], ...]:
        n = len(self.source.sensors)
        return tuple(self.comm) + tuple((i, n + k) for i, k in self.to_sink)

    def _by_node(self, end: int, count: int) -> tuple[tuple[tuple[int, int], ...], ...]:
        nodes: list[list[tuple[int, int]]] = [[] for _ in range(count)]
        for arc in self.stream:
            nodes[arc[end]].append(arc)
        return tuple(map(tuple, nodes))

    @cached_property
    def out_arcs(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        return self._by_node(0, len(self.source.sensors))

    @cached_property
    def in_arcs(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        return self._by_node(1, len(self.source.sensors) + len(self.source.sinks))

    @cached_property
    def sources(self) -> tuple[tuple[int, ...], ...]:
        return tuple(tuple(sorted({i for i, _ in pairs})) for pairs in self.coverage)

    @cached_property
    def covering(self) -> tuple[tuple[tuple[int, ...], ...], ...]:
        out = []
        for pairs in self.coverage:
            cover: list[list[int]] = [[] for _ in self.source.demand_points]
            for i, j in pairs:
                cover[j].append(i)
            out.append(tuple(map(tuple, cover)))
        return tuple(out)

    @cached_property
    def tables(self) -> "EnergyTables":
        return EnergyTables(self.source, self)


def _points(points: Sequence[Point2D]) -> list[complex]:
    return [complex(p.x, p.y) for p in points]


def _pairs_within(a: list[complex], b: list[complex], radius: float) -> list[tuple[int, int]]:
    # Boundary inclusive: distance == radius yields an arc.
    pairs = []
    for i, p in enumerate(a):
        for j, q in enumerate(b):
            try:
                if abs(p - q) <= radius:
                    pairs.append((i, j))
            except OverflowError:  # hypot is inf: beyond any finite radius
                pass
    return pairs


def build_arcs(instance: Instance) -> ArcSets:
    """Derive coverage, sensor-sensor and sensor-sink arcs from geometry.

    A pair is an arc when the C library's ``hypot`` of its coordinate
    differences, which ``abs`` of a complex number calls (as ``np.hypot``
    does), is at most the radius; where ``hypot`` overflows there is no
    arc.  ``math.hypot`` is correctly rounded and differs from it in the
    last ulp, so it would move arcs whose length rounds to the radius.
    """
    sp = _points(instance.sensors)
    dp = _points([d.position for d in instance.demand_points])
    mp = _points(instance.sinks)

    coverage = tuple(tuple(_pairs_within(sp, dp, ph.coverage_radius))
                     for ph in instance.phenomena)
    comm = [(i, j) for i, j in _pairs_within(sp, sp, instance.comm_radius) if i != j]
    to_sink = _pairs_within(sp, mp, instance.comm_radius)

    return ArcSets(
        coverage=coverage,
        comm=tuple(comm),
        to_sink=tuple(to_sink),
        source=instance,
    )


def arcs_match(instance: Instance, arcs: ArcSets) -> bool:
    return arcs.source == instance


def arcs_for(instance: Instance, arcs: ArcSets | None = None) -> ArcSets:
    """``arcs``, or the instance's arc sets when it is None; a ValueError
    when ``arcs`` was built from another instance."""
    if arcs is None:
        return build_arcs(instance)
    if not arcs_match(instance, arcs):
        raise ValueError("arc sets were not built from this instance")
    return arcs


class EnergyTables:
    """Per-arc and per-phenomenon energy constants for one instance.

    ``et[(i, j)][g]`` is the transmit energy on arc (i, j) for phenomenon g,
    with j a global node id (sinks follow sensors), and ``er[g]`` the
    receive energy.  ``ArcSets.tables`` holds the one instance the model
    builder, the solvers and the validator share, so every component
    prices an arc identically.
    """

    def __init__(self, instance: Instance, arcs: ArcSets):
        arcs_for(instance, arcs)
        dev = instance.device
        plen = instance.period_length
        self.em = dev.maintenance_energy
        self.ea = dev.activation_energy
        self.eb = dev.battery_capacity
        self.eh = instance.penalty_uncovered
        self.eg = instance.penalty_activation
        self.er = tuple(receive_energy(dev, ph, plen) for ph in instance.phenomena)
        nodes = list(instance.sensors) + list(instance.sinks)
        self.et: dict[tuple[int, int], tuple[float, ...]] = {}
        for i, j in arcs.stream:
            d = nodes[i].distance_to(nodes[j])
            self.et[(i, j)] = tuple(
                transmit_energy(dev, ph, plen, d) for ph in instance.phenomena
            )


# -- generators ---------------------------------------------------------------


@dataclass(frozen=True)
class ScenarioConfig:
    """Tunable knobs shared by the instance generators.  The layout seed is
    not one of them: :func:`gen_grid` and :func:`gen_random` take it."""

    phenomena: tuple[Phenomenon, ...] = field(default_factory=default_phenomena)
    comm_radius: float = DEFAULT_COMM_RADIUS
    periods: int = 1
    period_length: float = DEFAULT_PERIOD_LENGTH_MIN
    device: DeviceProfile = field(default_factory=DeviceProfile)
    sink_mode: str = "center"  # "center" | "corners" | "coords"
    sink_coords: tuple[Point2D, ...] = ()
    penalty_uncovered: float | None = None  # None derives the default
    penalty_activation: float = DEFAULT_PENALTY_ACTIVATION
    demand_drop_fraction: float = 0.0
    grid_margin: float = 0.0


def _make_sinks(config: ScenarioConfig, area: tuple[float, float]) -> tuple[Point2D, ...]:
    w, h = area
    if config.sink_mode == "center":
        return (Point2D(w / 2.0, h / 2.0),)
    if config.sink_mode == "corners":
        return (Point2D(0.0, 0.0), Point2D(0.0, h), Point2D(w, 0.0), Point2D(w, h))
    if config.sink_mode == "coords":
        if not config.sink_coords:
            raise ValueError("sink_mode 'coords' requires sink_coords")
        return tuple(config.sink_coords)
    raise ValueError(f"unknown sink_mode {config.sink_mode!r}")


def _demand_tuples(
    n_points: int, phenomena: Sequence[Phenomenon], drop_fraction: float, rng: np.random.Generator
) -> list[tuple[int, ...]]:
    ids = sorted(ph.id for ph in phenomena)
    if drop_fraction <= 0.0:
        return [tuple(ids)] * n_points
    out = []
    for _ in range(n_points):
        kept = [g for g in ids if rng.random() >= drop_fraction]
        if not kept:  # every point must demand something
            kept = [ids[int(rng.integers(len(ids)))]]
        out.append(tuple(kept))
    return out


def _finish(
    area: tuple[float, float],
    sensors: Sequence[Point2D],
    dp_positions: Sequence[Point2D],
    config: ScenarioConfig,
    seed: int,
    rng: np.random.Generator,
) -> Instance:
    demands = _demand_tuples(len(dp_positions), config.phenomena, config.demand_drop_fraction, rng)
    dps = tuple(DemandPoint(p, d) for p, d in zip(dp_positions, demands))
    penalty = config.penalty_uncovered
    if penalty is None:
        penalty = default_penalty_uncovered(
            config.device, config.phenomena, config.period_length, config.comm_radius
        )
    return Instance(
        area=area,
        sensors=tuple(sensors),
        demand_points=dps,
        sinks=_make_sinks(config, area),
        phenomena=tuple(config.phenomena),
        periods=config.periods,
        period_length=config.period_length,
        comm_radius=config.comm_radius,
        device=config.device,
        penalty_uncovered=penalty,
        penalty_activation=config.penalty_activation,
        seed=seed,
    )


def _lattice(count: int, extent: float, margin: float) -> list[float]:
    if count < 1:
        raise ValueError("lattice count must be >= 1")
    if count == 1:
        return [extent / 2.0]
    span = extent - 2.0 * margin
    if span < 0:
        raise ValueError("grid margin exceeds area")
    return [margin + k * span / (count - 1) for k in range(count)]


def gen_grid(
    sensor_rows: int,
    sensor_cols: int,
    dp_rows: int,
    dp_cols: int,
    area: tuple[float, float] = (10.0, 10.0),
    config: ScenarioConfig | None = None,
    *,
    seed: int = 0,
) -> Instance:
    """Regular lattices of sensors and demand points.

    With the default zero margin the lattice spans the full area, corners
    included; a single row or column collapses to the center line.
    ``seed`` draws only the demand drop, and is recorded in the instance.
    """
    import numpy as np

    config = config or ScenarioConfig()
    w, h = area
    m = config.grid_margin
    sensors = [
        Point2D(x, y) for y in _lattice(sensor_rows, h, m) for x in _lattice(sensor_cols, w, m)
    ]
    dpp = [
        Point2D(x, y) for y in _lattice(dp_rows, h, m) for x in _lattice(dp_cols, w, m)
    ]
    rng = np.random.default_rng(seed)
    return _finish((float(w), float(h)), sensors, dpp, config, seed, rng)


def gen_random(
    n_sensors: int,
    n_demand_points: int,
    area: tuple[float, float] = (10.0, 10.0),
    seed: int = 0,
    config: ScenarioConfig | None = None,
) -> Instance:
    """Uniformly random sensor and demand-point positions."""
    import numpy as np

    if n_sensors < 1 or n_demand_points < 1:
        raise ValueError("need at least one sensor and one demand point")
    config = config or ScenarioConfig()
    w, h = float(area[0]), float(area[1])
    rng = np.random.default_rng(seed)
    sp = rng.uniform((0.0, 0.0), (w, h), size=(n_sensors, 2))
    dp = rng.uniform((0.0, 0.0), (w, h), size=(n_demand_points, 2))
    sensors = [Point2D(float(x), float(y)) for x, y in sp]
    dpp = [Point2D(float(x), float(y)) for x, y in dp]
    return _finish((w, h), sensors, dpp, config, seed, rng)


def bench_phenomena() -> tuple[Phenomenon, ...]:
    """Long-range phenomena pair used by the benchmark grid scenario."""
    return (
        Phenomenon(id=0, coverage_radius=8.8, sampling_rate=2.0, bits_per_sample=16),
        Phenomenon(id=1, coverage_radius=16.0, sampling_rate=1.0, bits_per_sample=16),
    )


def scenario_config(name: str, periods: int = 1) -> tuple[ScenarioConfig, dict]:
    """Named parameter presets.

    ``default``   small-radius phenomena on a 10 x 10 area, center sink.
    ``bench1``    16 sensors / 100 demand points on 10 x 10, radii 8.8 and
                  16, communication radius 11, one center sink.
    ``bench2``    36 sensors / 100 demand points on 20 x 20, radii 5 and 8,
                  communication radius 7, four corner sinks.

    Returns the config plus a layout dict with suggested counts and area.
    The layout seed is not part of either; pass it to the generator.
    """
    if name == "default":
        cfg = ScenarioConfig(periods=periods)
        layout = {"area": (10.0, 10.0), "sensor_grid": (4, 4), "dp_grid": (10, 10),
                  "n_sensors": 16, "n_demand_points": 100}
    elif name == "bench1":
        cfg = ScenarioConfig(
            phenomena=bench_phenomena(), comm_radius=11.0, periods=periods,
            sink_mode="center",
        )
        layout = {"area": (10.0, 10.0), "sensor_grid": (4, 4), "dp_grid": (10, 10),
                  "n_sensors": 16, "n_demand_points": 100}
    elif name == "bench2":
        cfg = ScenarioConfig(
            phenomena=(
                Phenomenon(id=0, coverage_radius=5.0, sampling_rate=2.0, bits_per_sample=16),
                Phenomenon(id=1, coverage_radius=8.0, sampling_rate=1.0, bits_per_sample=16),
            ),
            comm_radius=7.0, periods=periods, sink_mode="corners",
        )
        layout = {"area": (20.0, 20.0), "sensor_grid": (6, 6), "dp_grid": (10, 10),
                  "n_sensors": 36, "n_demand_points": 100}
    else:
        raise ValueError(f"unknown scenario {name!r}")
    return cfg, layout


def scenario_instance(name: str, kind: str = "grid", periods: int = 1, seed: int = 0) -> Instance:
    """Instantiate a named scenario as a grid or random layout."""
    cfg, layout = scenario_config(name, periods=periods)
    if kind == "grid":
        sr, sc = layout["sensor_grid"]
        dr, dc = layout["dp_grid"]
        return gen_grid(sr, sc, dr, dc, layout["area"], cfg, seed=seed)
    if kind == "random":
        return gen_random(layout["n_sensors"], layout["n_demand_points"],
                          layout["area"], seed, cfg)
    raise ValueError(f"unknown layout kind {kind!r}")


def scale_energy(instance: Instance, factor: float) -> Instance:
    """Scale every energy-dimensioned constant by ``factor``.

    Batteries, activation, maintenance, per-bit energies and both penalty
    weights all scale together, so the optimal schedule is unchanged and
    the optimal objective scales by exactly ``factor``.
    """
    if factor <= 0:
        raise ValueError("scale factor must be positive")
    dev = instance.device
    scaled = replace(
        dev,
        battery_capacity=dev.battery_capacity * factor,
        activation_energy=dev.activation_energy * factor,
        maintenance_energy=dev.maintenance_energy * factor,
        receive_energy_per_bit=dev.receive_energy_per_bit * factor,
        transmit=TransmitModel(dev.transmit.base * factor, dev.transmit.distance_coef * factor),
    )
    return replace(
        instance,
        device=scaled,
        penalty_uncovered=instance.penalty_uncovered * factor,
        penalty_activation=instance.penalty_activation * factor,
    )


# -- JSON serialization --------------------------------------------------------


def instance_to_json(instance: Instance) -> dict:
    return {
        "format": INSTANCE_FORMAT,
        "area": {"width": instance.area[0], "height": instance.area[1]},
        "sensors": [[p.x, p.y] for p in instance.sensors],
        "demand_points": [
            {"position": [dp.position.x, dp.position.y], "demands": list(dp.demands)}
            for dp in instance.demand_points
        ],
        "sinks": [[p.x, p.y] for p in instance.sinks],
        "phenomena": [
            {
                "id": ph.id,
                "coverage_radius_m": ph.coverage_radius,
                "sampling_rate_per_min": ph.sampling_rate,
                "bits_per_sample": ph.bits_per_sample,
            }
            for ph in instance.phenomena
        ],
        "periods": instance.periods,
        "period_length_min": instance.period_length,
        "comm_radius_m": instance.comm_radius,
        "device": {
            "battery_capacity": instance.device.battery_capacity,
            "activation_energy": instance.device.activation_energy,
            "maintenance_energy": instance.device.maintenance_energy,
            "receive_energy_per_bit": instance.device.receive_energy_per_bit,
            "transmit_energy_per_bit": {
                "base": instance.device.transmit.base,
                "distance_coef": instance.device.transmit.distance_coef,
            },
            "bit_rate_bps": instance.device.bit_rate,
        },
        "penalties": {
            "uncovered": instance.penalty_uncovered,
            "activation": instance.penalty_activation,
        },
        "seed": instance.seed,
    }


def _integer(val, what: str) -> int:
    """A JSON integer; a bool or a float is refused."""
    if isinstance(val, bool) or not isinstance(val, int):
        raise ValueError(f"field {what} must be an integer, got {val!r}")
    return val


def _real(val, what: str) -> float:
    """A finite JSON number (an integer is accepted), as a float."""
    if isinstance(val, bool) or not isinstance(val, (int, float)):
        raise ValueError(f"field {what} must be a number, got {val!r}")
    if (isinstance(val, int) and abs(val) > sys.float_info.max) or not math.isfinite(val):
        raise ValueError(f"field {what} must be finite, got {val!r}")
    return float(val)


def instance_from_json(data: dict) -> Instance:
    """Read an instance document.  Integer fields must hold JSON integers
    and real fields finite JSON numbers; anything else is a ValueError."""
    fmt = data.get("format") if isinstance(data, dict) else None
    if fmt != INSTANCE_FORMAT:
        raise ValueError(f"unsupported instance format {fmt!r}")
    try:
        dev = data["device"]
        tx = dev["transmit_energy_per_bit"]
        area = data["area"]
        pen = data["penalties"]
        return Instance(
            area=(_real(area["width"], "area.width"), _real(area["height"], "area.height")),
            sensors=tuple(Point2D(_real(x, "sensors"), _real(y, "sensors"))
                          for x, y in data["sensors"]),
            demand_points=tuple(
                DemandPoint(
                    Point2D(_real(d["position"][0], "demand_points.position"),
                            _real(d["position"][1], "demand_points.position")),
                    tuple(_integer(g, "demand_points.demands") for g in d["demands"]),
                )
                for d in data["demand_points"]
            ),
            sinks=tuple(Point2D(_real(x, "sinks"), _real(y, "sinks"))
                        for x, y in data["sinks"]),
            phenomena=tuple(
                Phenomenon(
                    id=_integer(p["id"], "phenomena.id"),
                    coverage_radius=_real(p["coverage_radius_m"], "phenomena.coverage_radius_m"),
                    sampling_rate=_real(p["sampling_rate_per_min"],
                                        "phenomena.sampling_rate_per_min"),
                    bits_per_sample=_integer(p["bits_per_sample"], "phenomena.bits_per_sample"),
                )
                for p in data["phenomena"]
            ),
            periods=_integer(data["periods"], "periods"),
            period_length=_real(data["period_length_min"], "period_length_min"),
            comm_radius=_real(data["comm_radius_m"], "comm_radius_m"),
            device=DeviceProfile(
                battery_capacity=_real(dev["battery_capacity"], "device.battery_capacity"),
                activation_energy=_real(dev["activation_energy"], "device.activation_energy"),
                maintenance_energy=_real(dev["maintenance_energy"],
                                         "device.maintenance_energy"),
                receive_energy_per_bit=_real(dev["receive_energy_per_bit"],
                                             "device.receive_energy_per_bit"),
                transmit=TransmitModel(_real(tx["base"], "device.transmit_energy_per_bit.base"),
                                       _real(tx["distance_coef"],
                                             "device.transmit_energy_per_bit.distance_coef")),
                bit_rate=_real(dev["bit_rate_bps"], "device.bit_rate_bps"),
            ),
            penalty_uncovered=_real(pen["uncovered"], "penalties.uncovered"),
            penalty_activation=_real(pen["activation"], "penalties.activation"),
            seed=_integer(data.get("seed", 0), "seed"),
        )
    except (KeyError, TypeError, IndexError) as exc:
        raise ValueError(f"malformed instance JSON: {exc}") from exc


def dumps_instance(instance: Instance) -> str:
    return json.dumps(instance_to_json(instance), indent=2) + "\n"


def loads_instance(text: str) -> Instance:
    return instance_from_json(json.loads(text))


def save_instance(instance: Instance, path) -> None:
    from .ioutil import atomic_write_text

    atomic_write_text(path, dumps_instance(instance))


def load_instance(path) -> Instance:
    with open(path, "r", encoding="utf-8") as fh:
        return loads_instance(fh.read())
