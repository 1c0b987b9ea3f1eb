"""Energy-aware scheduling of heterogeneous wireless sensor networks.

Build a multi-period integer program that decides which sensors sense
which phenomena in each period and how their data streams are routed to
sinks, then solve it exactly, approximately, or check someone else's
answer against the constraints.

Typical round trip::

    from wsnsched import build_arcs, gen_grid, solve_heuristic, evaluate

    instance = gen_grid(4, 4, 10, 10, area=(10.0, 10.0))
    solution = solve_heuristic(instance)
    print(evaluate(instance, solution).objective)
"""

from .instance import (
    ArcSets,
    DemandPoint,
    DeviceProfile,
    EnergyTables,
    Instance,
    Phenomenon,
    Point2D,
    ScenarioConfig,
    TransmitModel,
    build_arcs,
    data_volume_bits,
    default_penalty_uncovered,
    default_phenomena,
    derive_energy_constants,
    gen_grid,
    gen_random,
    instance_from_json,
    instance_to_json,
    load_instance,
    max_period_draw,
    receive_energy,
    save_instance,
    scale_energy,
    scenario_config,
    scenario_instance,
    transmit_energy,
)
from .lp import LpParseError, export_lp, parse_lp
from .model import (
    IlpModel,
    LinearConstraint,
    VarRef,
    build_model,
    model_stats,
    parse_var_name,
    universe_size,
    variable_universe,
)
from .report import (
    ExperimentRow,
    ExperimentSpec,
    csv_to_rows,
    render_routes,
    render_schedule,
    route_edges,
    rows_to_csv,
    run_experiment,
    save_views,
)
from .solve import (
    OracleCapExceeded,
    Solution,
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
    Metrics,
    SolutionIndexError,
    Violation,
    check_feasibility,
    evaluate,
    violations_to_json,
)

__version__ = "0.1.0"

__all__ = [
    "ArcSets", "DemandPoint", "DeviceProfile", "EnergyTables", "Instance",
    "Phenomenon", "Point2D", "ScenarioConfig", "TransmitModel",
    "build_arcs", "data_volume_bits", "default_penalty_uncovered",
    "default_phenomena", "derive_energy_constants", "gen_grid", "gen_random",
    "instance_from_json", "instance_to_json", "load_instance",
    "max_period_draw", "receive_energy", "save_instance", "scale_energy",
    "scenario_config", "scenario_instance", "transmit_energy",
    "LpParseError", "export_lp", "parse_lp",
    "IlpModel", "LinearConstraint", "VarRef", "build_model", "model_stats",
    "parse_var_name", "universe_size", "variable_universe",
    "ExperimentRow", "ExperimentSpec", "csv_to_rows", "render_routes",
    "render_schedule", "route_edges", "rows_to_csv", "run_experiment",
    "save_views",
    "OracleCapExceeded", "Solution", "SolveConfig", "brute_force_oracle",
    "load_external_solution", "load_solution", "save_solution",
    "solve_exact", "solve_heuristic",
    "InfeasibleSolutionError", "Metrics", "SolutionIndexError", "Violation",
    "check_feasibility", "evaluate", "violations_to_json",
]
