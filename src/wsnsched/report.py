"""Schedule visualization and the experiment table harness.

SVG output is assembled from strings with fixed two-decimal coordinates
and a fixed palette, so rendering the same solution twice yields the same
bytes.  The experiment runner validates every solution it aggregates and
refuses to produce a table from anything infeasible.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass, fields
from typing import get_type_hints

from .instance import Instance, _integer, _real, build_arcs, scenario_instance
from .model import VarRef, check_model_size
from .solve import SolveConfig, solve_exact, solve_heuristic
from .validate import InfeasibleSolutionError, _values_of, evaluate

EXPERIMENT_FORMAT = "wsn-experiment/1"

_MARGIN = 40.0
_CANVAS = 560.0


def _fmt(x: float) -> str:
    return f"{x:.2f}"


class _Scene:
    """World-to-pixel transform plus an element buffer."""

    def __init__(self, instance: Instance):
        w, h = instance.area
        self.scale = _CANVAS / max(w, h)
        self.width = w * self.scale + 2 * _MARGIN
        self.height = h * self.scale + 2 * _MARGIN
        self.world_h = h
        self.parts: list[str] = []

    def px(self, x: float, y: float) -> tuple[float, float]:
        # SVG y grows downward; world y grows upward.
        return (_MARGIN + x * self.scale, _MARGIN + (self.world_h - y) * self.scale)

    def add(self, element: str) -> None:
        self.parts.append(element)

    def circle(self, x: float, y: float, radius_px: float, style: str) -> None:
        cx, cy = self.px(x, y)
        self.add(f'<circle cx="{_fmt(cx)}" cy="{_fmt(cy)}" r="{_fmt(radius_px)}" {style}/>')

    def square(self, x: float, y: float, half: float, style: str) -> None:
        cx, cy = self.px(x, y)
        self.add(f'<rect x="{_fmt(cx - half)}" y="{_fmt(cy - half)}" '
                 f'width="{_fmt(2 * half)}" height="{_fmt(2 * half)}" {style}/>')

    def triangle(self, x: float, y: float, half: float, style: str) -> None:
        cx, cy = self.px(x, y)
        pts = (f"{_fmt(cx)},{_fmt(cy - half)} {_fmt(cx - half)},{_fmt(cy + half)} "
               f"{_fmt(cx + half)},{_fmt(cy + half)}")
        self.add(f'<polygon points="{pts}" {style}/>')

    def arrow(self, x1, y1, x2, y2, color: str) -> None:
        ax, ay = self.px(x1, y1)
        bx, by = self.px(x2, y2)
        self.add(f'<line x1="{_fmt(ax)}" y1="{_fmt(ay)}" x2="{_fmt(bx)}" '
                 f'y2="{_fmt(by)}" stroke="{color}" stroke-width="2" stroke-opacity="0.85"/>')
        # Arrowhead: a small triangle just short of the head endpoint.
        dx, dy = bx - ax, by - ay
        length = math.hypot(dx, dy)
        if length < 1e-9:
            return
        ux, uy = dx / length, dy / length
        tipx, tipy = bx - 6.0 * ux, by - 6.0 * uy
        basex, basey = bx - 14.0 * ux, by - 14.0 * uy
        px_, py_ = -uy, ux
        pts = (f"{_fmt(tipx)},{_fmt(tipy)} "
               f"{_fmt(basex + 4.0 * px_)},{_fmt(basey + 4.0 * py_)} "
               f"{_fmt(basex - 4.0 * px_)},{_fmt(basey - 4.0 * py_)}")
        self.add(f'<polygon points="{pts}" fill="{color}" fill-opacity="0.85"/>')

    def render(self) -> str:
        head = (f'<svg xmlns="http://www.w3.org/2000/svg" '
                f'width="{_fmt(self.width)}" height="{_fmt(self.height)}" '
                f'viewBox="0 0 {_fmt(self.width)} {_fmt(self.height)}">')
        body = "\n".join(f"  {p}" for p in self.parts)
        return f"{head}\n{body}\n</svg>\n"


def _source_color(l: int) -> str:
    hue = (l * 137.508) % 360.0
    return f"hsl({hue:.1f},65%,42%)"


def _view(instance: Instance, t: int, g: int) -> _Scene:
    """The framed, empty scene of the view of phenomenon ``g`` in period ``t``."""
    if not 0 <= t < instance.periods:
        raise ValueError(f"period {t} out of range 0..{instance.periods - 1}")
    if not 0 <= g < len(instance.phenomena):
        raise ValueError(f"phenomenon index {g} out of range 0..{len(instance.phenomena) - 1}")
    scene = _Scene(instance)
    w, h = instance.area
    scene.add(f'<rect x="0" y="0" width="{_fmt(scene.width)}" '
              f'height="{_fmt(scene.height)}" fill="#ffffff"/>')
    ox, oy = scene.px(0.0, h)
    scene.add(f'<rect x="{_fmt(ox)}" y="{_fmt(oy)}" width="{_fmt(w * scene.scale)}" '
              f'height="{_fmt(h * scene.scale)}" fill="none" stroke="#444" stroke-width="1"/>')
    return scene


def _render_nodes(scene: _Scene, instance: Instance, values, t: int, g: int,
                  sensing, half: float) -> str:
    """Paint the sensors as squares of half-size ``half`` (a sensor ``i``
    sensing ``g`` in style ``sensing(i)``, an active one gray, an idle one
    hollow) and the sinks as black triangles; the finished SVG."""
    for i, p in enumerate(instance.sensors):
        if values.get(VarRef("r", (i, t, g)), 0):
            style = sensing(i)
        elif values.get(VarRef("y", (i, t)), 0):
            style = 'fill="#9db8d9" stroke="#5c7699" stroke-width="1"'
        else:
            style = 'fill="#ffffff" stroke="#888888" stroke-width="1"'
        scene.square(p.x, p.y, half, style)
    for m in instance.sinks:
        scene.triangle(m.x, m.y, 7.0, 'fill="#111111"')
    return scene.render()


def render_schedule(instance: Instance, solution, t: int, g: int) -> str:
    """SVG: who senses phenomenon ``g`` in period ``t`` and what is covered.

    Sensing sensors are dark squares with their coverage disk, active
    non-sensing sensors gray, inactive ones hollow; demand dots are filled
    when covered, hollow red when the penalty is taken.
    """
    scene = _view(instance, t, g)
    values = _values_of(solution)
    radius_px = instance.phenomena[g].coverage_radius * scene.scale
    gid = instance.phenomena[g].id

    for i, p in enumerate(instance.sensors):
        if values.get(VarRef("r", (i, t, g)), 0):
            scene.circle(p.x, p.y, radius_px,
                         'fill="#4f8edd" fill-opacity="0.07" stroke="#4f8edd" '
                         'stroke-opacity="0.35" stroke-width="1"')
    for j, dp in enumerate(instance.demand_points):
        if gid not in dp.demands:
            continue
        if values.get(VarRef("h", (j, t, g)), 0):
            style = 'fill="#ffffff" stroke="#cc3333" stroke-width="1.5"'
        else:
            style = 'fill="#222222"'
        scene.circle(dp.position.x, dp.position.y, 3.0, style)
    return _render_nodes(scene, instance, values, t, g,
                         lambda i: 'fill="#2a7de1" stroke="#1b4f91" stroke-width="1"', 5.0)


def route_edges(solution, t: int, g: int) -> tuple[tuple[int, int, int], ...]:
    """(source, tail, head) triples of every arc carrying a stream at (t, g)."""
    values = _values_of(solution)
    edges = []
    for ref, val in values.items():
        if ref.kind == "z" and val:
            l, a, b, tt, gg = ref.indices
            if tt == t and gg == g:
                edges.append((l, a, b))
    return tuple(sorted(edges))


def render_routes(instance: Instance, solution, t: int, g: int) -> str:
    """SVG: the routing forest for phenomenon ``g`` in period ``t``.

    Every stream is drawn in its source's color, arrowheads pointing at
    the receiving node; sinks are black triangles.
    """
    scene = _view(instance, t, g)
    nodes = instance.sensors + instance.sinks
    for (l, a, b) in route_edges(solution, t, g):
        scene.arrow(nodes[a].x, nodes[a].y, nodes[b].x, nodes[b].y, _source_color(l))
    return _render_nodes(
        scene, instance, _values_of(solution), t, g,
        lambda i: f'fill="{_source_color(i)}" stroke="#333333" stroke-width="1"', 4.0)


def save_views(instance: Instance, solution, outdir, kinds=("schedule", "routes"),
               periods=None, phenomena=None) -> list[str]:
    """Write plan_t{t}_g{g}.svg / routes_t{t}_g{g}.svg files; returns paths."""
    import os

    from .ioutil import atomic_write_text

    ts = range(instance.periods) if periods is None else list(periods)
    gs = range(len(instance.phenomena)) if phenomena is None else list(phenomena)
    written = []
    os.makedirs(outdir, exist_ok=True)
    for t in ts:
        for g in gs:
            if "schedule" in kinds:
                path = os.path.join(outdir, f"plan_t{t}_g{g}.svg")
                atomic_write_text(path, render_schedule(instance, solution, t, g))
                written.append(path)
            if "routes" in kinds:
                path = os.path.join(outdir, f"routes_t{t}_g{g}.svg")
                atomic_write_text(path, render_routes(instance, solution, t, g))
                written.append(path)
    return written


# -- experiment harness ------------------------------------------------------------


@dataclass(frozen=True)
class ExperimentSpec:
    """One table's worth of runs: layout types x period counts x seeds.

    ``periods`` and ``seeds`` must hold integers (not bools) and
    ``time_limit_s`` must be a finite number; anything else is a ValueError.
    """

    types: tuple[str, ...] = ("grid", "random")
    periods: tuple[int, ...] = (1, 2, 3)
    seeds: tuple[int, ...] = tuple(range(1, 11))
    solver: str = "heuristic"  # "heuristic" | "exact"
    scenario: str = "bench1"
    time_limit_s: float = 60.0

    def __post_init__(self):
        object.__setattr__(self, "types", tuple(self.types))
        for key in ("periods", "seeds"):
            object.__setattr__(self, key, tuple(_integer(val, key) for val in getattr(self, key)))
        object.__setattr__(self, "time_limit_s", _real(self.time_limit_s, "time_limit_s"))
        for kind in self.types:
            if kind not in ("grid", "random"):
                raise ValueError(f"unknown layout type {kind!r}")
        if self.solver not in ("heuristic", "exact"):
            raise ValueError(f"unknown solver {self.solver!r}")
        if not self.seeds:
            raise ValueError("need at least one seed")


@dataclass(frozen=True)
class ExperimentRow:
    periods: int
    type: str
    objective_mean: float
    objective_std: float
    real_objective_mean: float
    real_objective_std: float
    uncovered_rate_mean: float
    uncovered_rate_std: float
    time_mean_s: float
    time_std_s: float
    n: int


# The CSV columns are the row's fields, each parsed back by its type.
CSV_COLUMNS = tuple(f.name for f in fields(ExperimentRow))
_CSV_TYPES = tuple(get_type_hints(ExperimentRow)[name] for name in CSV_COLUMNS)


def spec_from_json(data: dict) -> ExperimentSpec:
    """Read an experiment spec.  ``types``, ``periods`` and ``seeds`` must be
    JSON lists; :class:`ExperimentSpec` checks their values.  Anything else
    is a ValueError."""
    fmt = data.get("format") if isinstance(data, dict) else None
    if fmt != EXPERIMENT_FORMAT:
        raise ValueError(f"unsupported experiment format {fmt!r}")
    kwargs = {key: data[key] for key in
              ("types", "periods", "seeds", "solver", "scenario", "time_limit_s")
              if key in data}
    for key in ("types", "periods", "seeds"):
        if not isinstance(kwargs.get(key, []), list):
            raise ValueError(f"field {key} must be a list, got {kwargs[key]!r}")
    return ExperimentSpec(**kwargs)


def spec_to_json(spec: ExperimentSpec) -> dict:
    return {
        "format": EXPERIMENT_FORMAT,
        "types": list(spec.types),
        "periods": list(spec.periods),
        "seeds": list(spec.seeds),
        "solver": spec.solver,
        "scenario": spec.scenario,
        "time_limit_s": spec.time_limit_s,
    }


def load_spec(path) -> ExperimentSpec:
    with open(path, "r", encoding="utf-8") as fh:
        return spec_from_json(json.load(fh))


def _one_run(spec: ExperimentSpec, kind: str, periods: int, seed: int):
    instance = scenario_instance(spec.scenario, kind=kind, periods=periods, seed=seed)
    arcs = build_arcs(instance)
    check_model_size(instance, arcs, f"{spec.scenario}/{kind}/T={periods}/seed={seed}")
    if spec.solver == "heuristic":
        solution = solve_heuristic(instance, arcs)
    else:
        solution, _certificate = solve_exact(
            instance, arcs, config=SolveConfig(time_limit_s=spec.time_limit_s)
        )
    try:
        metrics = evaluate(instance, solution, arcs)
    except InfeasibleSolutionError as exc:
        raise RuntimeError(
            f"solver {spec.solver!r} produced an infeasible solution on "
            f"{kind}/T={periods}/seed={seed}: {exc.violations[0].tag}"
        ) from None
    return metrics, solution.wall_time_s


def run_experiment(spec: ExperimentSpec, log=None) -> list[ExperimentRow]:
    """Solve every cell of the table and aggregate with population stddev.

    Grid layouts are deterministic, so their cells run once (n=1); random
    layouts run once per seed.  Every solution is re-validated before it
    is counted; an infeasible one aborts the whole experiment.
    """
    import statistics  # it imports fractions and decimal; only experiments need it

    rows = []
    for kind in spec.types:
        for periods in spec.periods:
            seeds = spec.seeds if kind == "random" else (0,)
            results = [_one_run(spec, kind, periods, seed) for seed in seeds]
            objectives = [m.objective for m, _ in results]
            reals = [m.real_objective for m, _ in results]
            rates = [m.uncovered_rate for m, _ in results]
            times = [wall for _, wall in results]
            row = ExperimentRow(
                periods=periods,
                type=kind,
                objective_mean=statistics.fmean(objectives),
                objective_std=statistics.pstdev(objectives),
                real_objective_mean=statistics.fmean(reals),
                real_objective_std=statistics.pstdev(reals),
                uncovered_rate_mean=statistics.fmean(rates),
                uncovered_rate_std=statistics.pstdev(rates),
                time_mean_s=statistics.fmean(times),
                time_std_s=statistics.pstdev(times),
                n=len(results),
            )
            rows.append(row)
            if log is not None:
                log(f"{kind:>6}  T={periods}  n={row.n}  "
                    f"objective={row.objective_mean:.2f}  "
                    f"uncovered={100 * row.uncovered_rate_mean:.2f}%")
    return rows


def rows_to_csv(rows) -> str:
    """Serialize rows losslessly (a float's str is its repr)."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for row in rows:
        writer.writerow([getattr(row, name) for name in CSV_COLUMNS])
    return buf.getvalue()


def csv_to_rows(text: str) -> list[ExperimentRow]:
    reader = csv.reader(io.StringIO(text))
    header = next(reader, None)
    if header is None or tuple(header) != CSV_COLUMNS:
        raise ValueError(f"unexpected CSV header {header!r}")
    rows = []
    for record in reader:
        if not record:
            continue
        if len(record) != len(CSV_COLUMNS):
            raise ValueError(f"CSV row has {len(record)} fields, expected {len(CSV_COLUMNS)}")
        rows.append(ExperimentRow(*(parse(text) for parse, text in zip(_CSV_TYPES, record))))
    return rows


def save_rows(rows, path) -> None:
    from .ioutil import atomic_write_text

    atomic_write_text(path, rows_to_csv(rows))
