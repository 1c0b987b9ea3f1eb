"""Command line interface.

Exit codes: 0 success, 1 validation failure, 2 bad arguments or malformed
input, 3 exact solve finished without an optimality certificate.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace

from .instance import (
    Phenomenon,
    Point2D,
    build_arcs,
    load_instance,
    save_instance,
    scenario_config,
    gen_grid,
    gen_random,
)
from .ioutil import atomic_write_text
from .lp import lp_blocks
from .model import MAX_VARIABLES  # noqa: F401  (the cap _load applies, importable here)
from .model import build_model, check_model_size, model_stats
from .report import load_spec, run_experiment, save_rows, save_views
from .solve import (
    ORACLE_CAP_DEFAULT,
    SolveConfig,
    brute_force_oracle,
    load_external_solution,
    load_solution,
    save_solution,
    solve_exact,
    solve_heuristic,
)
from .validate import (
    InfeasibleSolutionError,
    evaluate,
    violations_to_json,
)


def _load(path):
    """The instance at ``path`` and its arcs; a ValueError if its model
    would have more than MAX_VARIABLES variables."""
    instance = load_instance(path)
    arcs = build_arcs(instance)
    check_model_size(instance, arcs, path)
    return instance, arcs


def _add_common_gen_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--out", required=True, help="instance JSON output path")
    p.add_argument("--scenario", default="default",
                   choices=("default", "bench1", "bench2"),
                   help="parameter preset to start from")
    p.add_argument("--area", nargs=2, type=float, metavar=("W", "H"))
    p.add_argument("--periods", type=int, default=1)
    p.add_argument("--period-length", type=float, dest="period_length",
                   help="minutes per period")
    p.add_argument("--comm-radius", type=float, dest="comm_radius")
    p.add_argument("--radius", nargs="+", type=float,
                   help="coverage radius per phenomenon")
    p.add_argument("--rate", nargs="+", type=float,
                   help="samples per minute per phenomenon")
    p.add_argument("--bits", type=int, help="bits per sample, all phenomena")
    p.add_argument("--sinks", choices=("center", "corners", "coords"))
    p.add_argument("--sink-at", nargs=2, type=float, action="append",
                   metavar=("X", "Y"),
                   help="explicit sink position, repeatable (implies --sinks coords)")
    p.add_argument("--battery", type=float)
    p.add_argument("--activation-energy", type=float, dest="activation_energy")
    p.add_argument("--maintenance-energy", type=float, dest="maintenance_energy")
    p.add_argument("--receive-per-bit", type=float, dest="receive_per_bit")
    p.add_argument("--transmit-base", type=float, dest="transmit_base")
    p.add_argument("--transmit-distance-coef", type=float, dest="transmit_distance_coef")
    p.add_argument("--bit-rate", type=float, dest="bit_rate")
    p.add_argument("--penalty-uncovered", type=float, dest="penalty_uncovered")
    p.add_argument("--penalty-activation", type=float, dest="penalty_activation")
    p.add_argument("--drop-fraction", type=float, dest="drop_fraction",
                   help="probability a demand point skips a phenomenon")
    p.add_argument("--seed", type=int, default=0)


# The scalar overrides, as (flag dest, field) pairs of the object they set.
_SCENARIO_FLAGS = (("period_length", "period_length"), ("comm_radius", "comm_radius"),
                   ("penalty_uncovered", "penalty_uncovered"),
                   ("penalty_activation", "penalty_activation"),
                   ("drop_fraction", "demand_drop_fraction"), ("grid_margin", "grid_margin"))
_DEVICE_FLAGS = (("battery", "battery_capacity"), ("activation_energy", "activation_energy"),
                 ("maintenance_energy", "maintenance_energy"),
                 ("receive_per_bit", "receive_energy_per_bit"), ("bit_rate", "bit_rate"))
_TRANSMIT_FLAGS = (("transmit_base", "base"), ("transmit_distance_coef", "distance_coef"))


def _overrides(args, flags) -> dict:
    """``{field: value}`` for each of ``flags`` given on the command line."""
    return {name: getattr(args, dest) for dest, name in flags
            if getattr(args, dest, None) is not None}


def _config_from_args(args):
    cfg, layout = scenario_config(args.scenario, periods=args.periods)
    if args.radius is not None or args.rate is not None or args.bits is not None:
        radii = args.radius if args.radius is not None else [
            ph.coverage_radius for ph in cfg.phenomena]
        rates = args.rate if args.rate is not None else [
            ph.sampling_rate for ph in cfg.phenomena]
        if len(radii) != len(rates):
            raise ValueError("--radius and --rate must list the same number of phenomena")
        bits = args.bits if args.bits is not None else cfg.phenomena[0].bits_per_sample
        cfg = replace(cfg, phenomena=tuple(
            Phenomenon(id=k, coverage_radius=radii[k], sampling_rate=rates[k],
                       bits_per_sample=bits)
            for k in range(len(radii))
        ))
    if args.sinks == "coords" and not args.sink_at:
        raise ValueError("--sinks coords requires at least one --sink-at")
    if args.sink_at:
        cfg = replace(cfg, sink_mode="coords",
                      sink_coords=tuple(Point2D(x, y) for x, y in args.sink_at))
    elif args.sinks is not None:
        cfg = replace(cfg, sink_mode=args.sinks)
    device = cfg.device
    transmit = replace(device.transmit, **_overrides(args, _TRANSMIT_FLAGS))
    device = replace(device, transmit=transmit, **_overrides(args, _DEVICE_FLAGS))
    return replace(cfg, device=device, **_overrides(args, _SCENARIO_FLAGS)), layout


def _cmd_gen(args) -> int:
    cfg, layout = _config_from_args(args)
    area = tuple(args.area) if args.area else layout["area"]
    if args.layout == "grid":
        sr, sc = args.sensor_grid or layout["sensor_grid"]
        dr, dc = args.dp_grid or layout["dp_grid"]
        instance = gen_grid(sr, sc, dr, dc, area, cfg, seed=args.seed)
        suffix = ""
    else:
        n_sensors = args.sensors if args.sensors is not None else layout["n_sensors"]
        n_dp = (args.demand_points if args.demand_points is not None
                else layout["n_demand_points"])
        instance = gen_random(n_sensors, n_dp, area, args.seed, cfg)
        suffix = f", seed={args.seed}"
    save_instance(instance, args.out)
    print(f"wrote {args.out}: {len(instance.sensors)} sensors, "
          f"{len(instance.demand_points)} demand points, T={instance.periods}{suffix}")
    return 0


def _cmd_build(args) -> int:
    instance, arcs = _load(args.instance)
    model = build_model(instance, arcs,
                        per_phenomenon_fixed_energy=args.per_phenomenon_fixed_energy)
    atomic_write_text(args.lp, lp_blocks(model))
    stats = model_stats(model)
    if args.stats:
        atomic_write_text(args.stats, json.dumps(stats, indent=2) + "\n")
    print(f"wrote {args.lp}: {stats['variables']['total']} variables "
          f"({stats['variables']['binary']} binary), "
          f"{stats['constraints']['total']} constraints")
    return 0


def _cmd_solve(args) -> int:
    instance, arcs = _load(args.instance)
    certificate = None
    if args.method == "exact":
        config = SolveConfig(
            time_limit_s=args.time_limit,
            node_limit=args.node_limit,
            gap=args.gap,
        )
        solution, certificate = solve_exact(instance, arcs, config=config)
    elif args.method == "heuristic":
        solution = solve_heuristic(instance, arcs)
    else:
        solution = brute_force_oracle(instance, arcs, cap=args.oracle_cap)
    try:
        metrics = evaluate(instance, solution, arcs)
    except InfeasibleSolutionError as exc:
        print(f"error: solver produced an infeasible solution ({exc.violations[0].tag})",
              file=sys.stderr)
        return 1
    save_solution(solution, args.out)
    denom = instance.demanded_triples()
    uncovered = round(metrics.uncovered_rate * denom)
    print(f"method: {solution.provenance}")
    print(f"objective: {metrics.objective}")
    print(f"real objective: {metrics.real_objective}")
    print(f"uncovered rate: {metrics.uncovered_rate:.4f} ({uncovered} of {denom})")
    print(f"activations: {metrics.activations}")
    print(f"wall time: {solution.wall_time_s:.3f} s")
    if args.method == "exact":
        print("certificate: optimal" if certificate
              else "certificate: none (not proven optimal)")
    print(f"wrote {args.out}")
    if args.method == "exact" and not certificate:
        return 3
    return 0


def _cmd_validate(args) -> int:
    instance, arcs = _load(args.instance)
    if args.external:
        solution = load_external_solution(args.solution, instance, arcs)
    else:
        solution = load_solution(args.solution, instance, arcs)
    violations = []
    try:
        metrics = evaluate(instance, solution, arcs)
    except InfeasibleSolutionError as exc:
        violations = exc.violations
    if args.report:
        atomic_write_text(args.report,
                          json.dumps(violations_to_json(violations), indent=2) + "\n")
    if violations:
        print(f"infeasible: {len(violations)} violated constraint(s)")
        for vio in violations[:10]:
            print(f"  {vio.tag}: {vio.lhs} {vio.sense} {vio.rhs} (slack {vio.slack})")
        if len(violations) > 10:
            print(f"  ... and {len(violations) - 10} more")
        return 1
    print("feasible")
    print(f"objective: {metrics.objective}")
    print(f"real objective: {metrics.real_objective}")
    print(f"uncovered rate: {metrics.uncovered_rate:.4f}")
    print(f"activations: {metrics.activations}")
    return 0


def _cmd_render(args) -> int:
    instance, arcs = _load(args.instance)
    solution = load_solution(args.solution, instance, arcs)
    kinds = ("schedule", "routes") if args.kind == "both" else (args.kind,)
    periods = None if args.period is None else [args.period]
    phenomena = None if args.phenomenon is None else [args.phenomenon]
    written = save_views(instance, solution, args.outdir, kinds=kinds,
                         periods=periods, phenomena=phenomena)
    for path in written:
        print(f"wrote {path}")
    return 0


def _cmd_experiment(args) -> int:
    spec = load_spec(args.spec)
    rows = run_experiment(spec, log=print)
    save_rows(rows, args.out)
    print(f"wrote {args.out} ({len(rows)} rows)")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wsnsched",
        description="Build, solve, validate and visualize multi-period "
                    "sensor-network schedules.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate an instance")
    gen_sub = gen.add_subparsers(dest="layout", required=True)
    grid = gen_sub.add_parser("grid", help="regular sensor and demand lattices")
    grid.add_argument("--sensor-grid", nargs=2, type=int, metavar=("ROWS", "COLS"))
    grid.add_argument("--dp-grid", nargs=2, type=int, metavar=("ROWS", "COLS"))
    grid.add_argument("--grid-margin", type=float, dest="grid_margin")
    _add_common_gen_flags(grid)
    grid.set_defaults(func=_cmd_gen)
    rand = gen_sub.add_parser("random", help="uniform random positions")
    rand.add_argument("--sensors", type=int)
    rand.add_argument("--demand-points", type=int, dest="demand_points")
    _add_common_gen_flags(rand)
    rand.set_defaults(func=_cmd_gen)

    build = sub.add_parser("build", help="write the ILP as LP text")
    build.add_argument("--instance", required=True)
    build.add_argument("--lp", required=True, help="LP output path")
    build.add_argument("--stats", help="also write a size summary JSON")
    build.add_argument("--per-phenomenon-fixed-energy", action="store_true",
                       help="charge maintenance/activation per phenomenon "
                            "in the energy row")
    build.set_defaults(func=_cmd_build)

    solve = sub.add_parser("solve", help="solve an instance")
    solve.add_argument("--instance", required=True)
    solve.add_argument("--method", required=True,
                       choices=("exact", "heuristic", "oracle"))
    solve.add_argument("--out", required=True, help="solution JSON output path")
    limits = SolveConfig()
    solve.add_argument("--time-limit", type=float, default=limits.time_limit_s, dest="time_limit")
    solve.add_argument("--node-limit", type=int, default=limits.node_limit, dest="node_limit")
    solve.add_argument("--gap", type=float, default=limits.gap)
    solve.add_argument("--oracle-cap", type=int, default=ORACLE_CAP_DEFAULT, dest="oracle_cap")
    solve.set_defaults(func=_cmd_solve)

    val = sub.add_parser("validate", help="check a solution against an instance")
    val.add_argument("--instance", required=True)
    val.add_argument("--solution", required=True)
    val.add_argument("--external", action="store_true",
                     help="solution file holds 'name = value' lines")
    val.add_argument("--report", help="write violations as JSON")
    val.set_defaults(func=_cmd_validate)

    render = sub.add_parser("render", help="render schedule and route SVGs")
    render.add_argument("--instance", required=True)
    render.add_argument("--solution", required=True)
    render.add_argument("--outdir", required=True)
    render.add_argument("--kind", choices=("schedule", "routes", "both"),
                        default="both")
    render.add_argument("--period", type=int)
    render.add_argument("--phenomenon", type=int)
    render.set_defaults(func=_cmd_render)

    exp = sub.add_parser("experiment", help="run a table of solves and write CSV")
    exp.add_argument("--spec", required=True, help="experiment spec JSON")
    exp.add_argument("--out", required=True, help="CSV output path")
    exp.set_defaults(func=_cmd_experiment)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
