"""End-to-end command line flows via main(argv)."""

import json
import os
import resource
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import wsnsched as w
from wsnsched.cli import MAX_VARIABLES, _build_parser, main
from wsnsched.ioutil import atomic_write_text
from wsnsched.report import csv_to_rows, spec_from_json
from wsnsched.solve import ORACLE_CAP_DEFAULT, solution_to_json


def _gen_small(tmp_path, name="inst.json", extra=()):
    # 2x2 corner lattice; comm radius 8 lets every sensor reach the
    # center sink directly (distance 5 * sqrt(2)).
    path = tmp_path / name
    rc = main(["gen", "grid", "--out", str(path),
               "--sensor-grid", "2", "2", "--dp-grid", "2", "2",
               "--area", "10", "10", "--comm-radius", "8", *extra])
    assert rc == 0
    return path


def test_gen_grid_is_deterministic(tmp_path):
    a = _gen_small(tmp_path, "a.json")
    b = _gen_small(tmp_path, "b.json")
    assert a.read_bytes() == b.read_bytes()


def test_gen_random_honors_counts(tmp_path, capsys):
    path = tmp_path / "rand.json"
    rc = main(["gen", "random", "--out", str(path), "--sensors", "5",
               "--demand-points", "7", "--area", "20", "20", "--seed", "42"])
    assert rc == 0
    assert "5 sensors, 7 demand points" in capsys.readouterr().out
    inst = w.load_instance(path)
    assert len(inst.sensors) == 5 and len(inst.demand_points) == 7


def _with(obj, path, value):
    """``obj`` with the (dotted) field ``path`` set to ``value``."""
    head, _, rest = path.partition(".")
    return replace(obj, **{head: _with(getattr(obj, head), rest, value) if rest else value})


# Each override flag, its argument, and the config fields it sets.
_OVERRIDES = [
    (["--period-length", "30"], {"period_length": 30.0}),
    (["--comm-radius", "9.5"], {"comm_radius": 9.5}),
    (["--battery", "9"], {"device.battery_capacity": 9.0}),
    (["--activation-energy", "0.3"], {"device.activation_energy": 0.3}),
    (["--maintenance-energy", "0.7"], {"device.maintenance_energy": 0.7}),
    (["--receive-per-bit", "2e-4"], {"device.receive_energy_per_bit": 2e-4}),
    (["--transmit-base", "3e-4"], {"device.transmit.base": 3e-4}),
    (["--transmit-distance-coef", "1e-6"], {"device.transmit.distance_coef": 1e-6}),
    (["--bit-rate", "1e5"], {"device.bit_rate": 1e5}),
    (["--penalty-uncovered", "1e6"], {"penalty_uncovered": 1e6}),
    (["--penalty-activation", "0.5"], {"penalty_activation": 0.5}),
    (["--drop-fraction", "0.4"], {"demand_drop_fraction": 0.4}),
    (["--grid-margin", "1.5"], {"grid_margin": 1.5}),
    (["--sink-at", "1", "2", "--sink-at", "3", "4"],
     {"sink_mode": "coords", "sink_coords": (w.Point2D(1.0, 2.0), w.Point2D(3.0, 4.0))}),
]


@pytest.mark.parametrize("layout, flags, fields", [
    pytest.param(layout, flags, fields, id=f"{layout}{flags[0]}")
    for layout in ("grid", "random") for flags, fields in _OVERRIDES
    if layout == "grid" or flags[0] != "--grid-margin"])
def test_override_flag_sets_its_config_field(tmp_path, layout, flags, fields):
    path = tmp_path / "inst.json"
    preset = ["--scenario", "bench2", "--periods", "2", "--seed", "3"]
    assert main(["gen", layout, "--out", str(path), *preset, *flags]) == 0
    cfg, lay = w.scenario_config("bench2", periods=2)
    for field, value in fields.items():
        cfg = _with(cfg, field, value)
    if layout == "grid":
        expected = w.gen_grid(*lay["sensor_grid"], *lay["dp_grid"], lay["area"], cfg, seed=3)
        plain = w.scenario_instance("bench2", "grid", periods=2, seed=3)
    else:
        expected = w.gen_random(lay["n_sensors"], lay["n_demand_points"], lay["area"], 3, cfg)
        plain = w.scenario_instance("bench2", "random", periods=2, seed=3)
    written = w.load_instance(path)
    assert written == expected
    assert written != plain


def test_missing_required_flag_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["solve", "--instance", "x.json", "--method", "exact"])
    assert exc.value.code == 2
    assert "--out" in capsys.readouterr().err


def test_sinks_coords_requires_positions(tmp_path, capsys):
    rc = main(["gen", "grid", "--out", str(tmp_path / "x.json"),
               "--sensor-grid", "2", "2", "--dp-grid", "2", "2",
               "--area", "10", "10", "--sinks", "coords"])
    assert rc == 2
    assert "--sink-at" in capsys.readouterr().err


def test_radius_rate_arity_mismatch(tmp_path, capsys):
    rc = main(["gen", "grid", "--out", str(tmp_path / "x.json"),
               "--sensor-grid", "2", "2", "--dp-grid", "2", "2",
               "--area", "10", "10", "--radius", "3", "5", "--rate", "2"])
    assert rc == 2
    assert "same number" in capsys.readouterr().err


def test_malformed_instance_json(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    rc = main(["build", "--instance", str(bad), "--lp", str(tmp_path / "m.lp")])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("path, value", [
    (("phenomena", 0, "coverage_radius_m"), float("nan")),
    (("device", "battery_capacity"), float("nan")),
    (("periods",), "3"),
    (("periods",), 1.5),
    (("periods",), True),
    (("phenomena", 0, "bits_per_sample"), 8.7),
    (("penalties", "uncovered"), float("inf")),
])
def test_ill_typed_instance_field_exits_2(tmp_path, capsys, path, value):
    inst_path = tmp_path / "inst.json"
    assert main(["gen", "random", "--out", str(inst_path), "--seed", "1"]) == 0
    doc = json.loads(inst_path.read_text())
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    inst_path.write_text(json.dumps(doc))  # writes the tokens NaN and Infinity
    capsys.readouterr()
    assert main(["solve", "--instance", str(inst_path), "--method", "heuristic",
                 "--out", str(tmp_path / "sol.json")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and path[-1] in err
    assert "Traceback" not in err


def test_oversized_model_exits_2_before_allocating(tmp_path):
    # periods: 1e9 asks for ~9e12 variables.  The size guard refuses it right
    # after the arcs are built.  The address-space limit makes a missing
    # guard fail fast with a MemoryError instead of exhausting the machine.
    inst_path = tmp_path / "inst.json"
    assert main(["gen", "random", "--out", str(inst_path), "--seed", "1"]) == 0
    doc = json.loads(inst_path.read_text())
    doc["periods"] = 1_000_000_000
    inst_path.write_text(json.dumps(doc))
    limit = 2 << 30
    env = dict(os.environ, PYTHONPATH=str(Path(w.__file__).resolve().parents[1]),
               OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    proc = subprocess.run(
        [sys.executable, "-m", "wsnsched.cli", "solve", "--instance", str(inst_path),
         "--method", "heuristic", "--out", str(tmp_path / "sol.json")],
        env=env, capture_output=True, text=True, timeout=300,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)))
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    inst = w.load_instance(inst_path)
    size = w.universe_size(inst, w.build_arcs(inst))
    assert proc.stderr.startswith("error: ")
    assert f"{size} variables" in proc.stderr
    assert f"cap of {MAX_VARIABLES}" in proc.stderr
    assert not (tmp_path / "sol.json").exists()


SPEC = {"format": "wsn-experiment/1", "types": ["grid"], "periods": [1], "seeds": [1],
        "solver": "heuristic", "scenario": "default"}


@pytest.mark.parametrize("doc, needle", [
    ({**SPEC, "periods": [1.5]}, "periods"),
    ({**SPEC, "seeds": [1.5]}, "seeds"),
    ({**SPEC, "periods": ["2"]}, "periods"),
    ({**SPEC, "periods": [True]}, "periods"),
    ({**SPEC, "periods": 1}, "list"),
    ([1], "format"),
    ({**SPEC, "solver": "exact", "time_limit_s": "x"}, "time_limit_s"),
    ({**SPEC, "time_limit_s": float("nan")}, "time_limit_s"),
], ids=["float-period", "float-seed", "string-period", "bool-period", "bare-period",
        "top-level-list", "string-time-limit", "nan-time-limit"])
def test_malformed_experiment_spec_exits_2(tmp_path, capsys, doc, needle):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(doc))  # writes the token NaN
    out_path = tmp_path / "table.csv"
    assert main(["experiment", "--spec", str(spec_path), "--out", str(out_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and needle in err
    assert not out_path.exists()


def test_exact_experiment_row_is_the_exact_schedule(tmp_path):
    # The default grid at T=1: the search ends within its limits (without a
    # certificate, since a commodity is over FLOW_ARC_CAP) in about 0.6 s.
    doc = {"format": "wsn-experiment/1", "types": ["grid"], "periods": [1],
           "solver": "exact", "scenario": "default"}
    inst = w.scenario_instance("default", kind="grid", periods=1, seed=0)
    arcs = w.build_arcs(inst)
    want = w.evaluate(inst, w.solve_exact(inst, arcs)[0], arcs).objective
    [row] = w.run_experiment(spec_from_json(doc))
    assert (row.n, row.objective_mean) == (1, want)
    spec_path, out_path = tmp_path / "spec.json", tmp_path / "table.csv"
    spec_path.write_text(json.dumps(doc))
    assert main(["experiment", "--spec", str(spec_path), "--out", str(out_path)]) == 0
    [row] = csv_to_rows(out_path.read_text())
    assert (row.n, row.objective_mean) == (1, want)


def test_oversized_experiment_exits_2_before_allocating(tmp_path):
    # As for solve above: the experiment's cells pass the same size guard.
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps({**SPEC, "periods": [1_000_000_000]}))
    limit = 2 << 30
    env = dict(os.environ, PYTHONPATH=str(Path(w.__file__).resolve().parents[1]),
               OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    proc = subprocess.run(
        [sys.executable, "-m", "wsnsched.cli", "experiment", "--spec", str(spec_path),
         "--out", str(tmp_path / "table.csv")],
        env=env, capture_output=True, text=True, timeout=300,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)))
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("error: ")
    assert f"cap of {MAX_VARIABLES}" in proc.stderr
    assert not (tmp_path / "table.csv").exists()


def test_build_solve_validate_render_pipeline(tmp_path, capsys):
    inst_path = _gen_small(tmp_path)
    lp_path = tmp_path / "model.lp"
    stats_path = tmp_path / "stats.json"
    assert main(["build", "--instance", str(inst_path), "--lp", str(lp_path),
                 "--stats", str(stats_path)]) == 0
    inst = w.load_instance(inst_path)
    assert lp_path.read_bytes() == w.export_lp(w.build_model(inst, w.build_arcs(inst))).encode()
    stats = json.loads(stats_path.read_text())
    assert stats["variables"]["total"] > 0

    sol_path = tmp_path / "sol.json"
    assert main(["solve", "--instance", str(inst_path), "--method", "heuristic",
                 "--out", str(sol_path)]) == 0
    out = capsys.readouterr().out
    assert "method: heuristic" in out
    assert "uncovered rate: 0.0000" in out

    assert main(["validate", "--instance", str(inst_path),
                 "--solution", str(sol_path)]) == 0
    assert "feasible" in capsys.readouterr().out

    outdir = tmp_path / "views"
    assert main(["render", "--instance", str(inst_path),
                 "--solution", str(sol_path), "--kind", "schedule",
                 "--period", "0", "--phenomenon", "0",
                 "--outdir", str(outdir)]) == 0
    assert (outdir / "plan_t0_g0.svg").exists()


def test_exact_solve_reports_certificate(tmp_path, capsys):
    inst_path = _gen_small(tmp_path)
    sol_path = tmp_path / "sol.json"
    assert main(["solve", "--instance", str(inst_path), "--method", "exact",
                 "--out", str(sol_path)]) == 0
    assert "certificate: optimal" in capsys.readouterr().out


def test_exact_node_limit_exits_3(tmp_path, capsys):
    inst_path = _gen_small(tmp_path)
    sol_path = tmp_path / "sol.json"
    rc = main(["solve", "--instance", str(inst_path), "--method", "exact",
               "--out", str(sol_path), "--node-limit", "1"])
    assert rc == 3
    assert "certificate: none" in capsys.readouterr().out
    # The incumbent written alongside the failure is still a valid solution.
    assert main(["validate", "--instance", str(inst_path),
                 "--solution", str(sol_path)]) == 0


def test_solve_limit_defaults_are_the_library_defaults():
    args = _build_parser().parse_args(["solve", "--instance", "i.json", "--method", "exact",
                                       "--out", "s.json"])
    config = w.SolveConfig(time_limit_s=args.time_limit, node_limit=args.node_limit,
                           gap=args.gap)
    assert config == w.SolveConfig()
    assert args.oracle_cap == ORACLE_CAP_DEFAULT


@pytest.mark.parametrize("flag, value, needle", [
    ("--node-limit", "-1", "node limit"),
    ("--time-limit", "nan", "time limit"),
    ("--time-limit", "0", "time limit"),
    ("--time-limit", "-5", "time limit"),
    ("--gap", "nan", "gap"),
    ("--gap", "-1", "gap"),
    ("--gap", "inf", "gap"),
])
def test_exact_meaningless_limit_exits_2(tmp_path, capsys, flag, value, needle):
    inst_path = _gen_small(tmp_path)
    sol_path = tmp_path / "sol.json"
    rc = main(["solve", "--instance", str(inst_path), "--method", "exact",
               "--out", str(sol_path), flag, value])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("error: ") and needle in err
    assert "Traceback" not in err
    assert not sol_path.exists()


def _printed_objective(out):
    return next(float(line.split(": ")[1]) for line in out.splitlines()
                if line.startswith("objective: "))


def test_oracle_solve_small(tmp_path, capsys):
    # Two sensors over two demand points: 8 free binaries (2 x, 4 z, 2 r),
    # so the oracle enumerates 2^8 assignments, and the optimum routes a
    # stream to the sink, node 2.
    inst_path = _gen_small(tmp_path, extra=("--sensor-grid", "1", "2", "--dp-grid", "1", "2",
                                            "--radius", "3", "--rate", "2"))
    sol_path = tmp_path / "sol.json"
    assert main(["solve", "--instance", str(inst_path), "--method", "oracle",
                 "--out", str(sol_path), "--oracle-cap", "64"]) == 0
    out = capsys.readouterr().out
    assert "method: oracle" in out
    assert any(name.startswith("z_") and "_j2_" in name
               for name in json.loads(sol_path.read_text())["values"])
    # A certified exact solve (exit 0) finds the same optimum.
    assert main(["solve", "--instance", str(inst_path), "--method", "exact",
                 "--out", str(tmp_path / "exact.json")]) == 0
    exact = capsys.readouterr().out
    assert "certificate: optimal" in exact
    assert _printed_objective(out) == _printed_objective(exact)


def test_oracle_cap_exits_2(tmp_path, capsys):
    inst_path = tmp_path / "big.json"
    assert main(["gen", "grid", "--out", str(inst_path),
                 "--scenario", "bench1"]) == 0
    rc = main(["solve", "--instance", str(inst_path), "--method", "oracle",
               "--out", str(tmp_path / "sol.json")])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


def test_oracle_cap_exits_2_with_its_message_and_no_file(tmp_path, capsys):
    inst_path = _gen_small(tmp_path)
    capsys.readouterr()
    instance = w.load_instance(inst_path)
    binaries = sum(1 for ref in w.variable_universe(instance, w.build_arcs(instance))
                   if ref.kind != "e")
    sol_path = tmp_path / "sol.json"
    rc = main(["solve", "--instance", str(inst_path), "--method", "oracle",
               "--out", str(sol_path), "--oracle-cap", "1"])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: instance has {binaries} binary variables, oracle cap is 1\n"
    assert captured.out == ""
    assert not sol_path.exists()


def test_validate_flags_violations(tmp_path, capsys):
    inst_path = _gen_small(tmp_path)
    sol_path = tmp_path / "sol.json"
    assert main(["solve", "--instance", str(inst_path), "--method", "heuristic",
                 "--out", str(sol_path)]) == 0
    doc = json.loads(sol_path.read_text())
    assert any(name.startswith("r_") for name in doc["values"])
    for name in list(doc["values"]):
        if name.startswith("y_"):
            doc["values"][name] = 0.0
    sol_path.write_text(json.dumps(doc))
    capsys.readouterr()

    report_path = tmp_path / "violations.json"
    rc = main(["validate", "--instance", str(inst_path),
               "--solution", str(sol_path), "--report", str(report_path)])
    assert rc == 1
    assert "infeasible" in capsys.readouterr().out
    report = json.loads(report_path.read_text())
    assert report and all("tag" in row for row in report)


def test_validate_unknown_variable_exits_2(tmp_path, capsys):
    inst_path = _gen_small(tmp_path)
    sol_path = tmp_path / "sol.json"
    assert main(["solve", "--instance", str(inst_path), "--method", "heuristic",
                 "--out", str(sol_path)]) == 0
    doc = json.loads(sol_path.read_text())
    doc["values"]["y_i999_t0"] = 1.0
    sol_path.write_text(json.dumps(doc))
    rc = main(["validate", "--instance", str(inst_path), "--solution", str(sol_path)])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


def _heuristic_schedule(tmp_path):
    """A small instance's path, and its heuristic solution's values by
    name, with the name of a coverage variable the schedule sets to 1."""
    inst_path = _gen_small(tmp_path)
    sol_path = tmp_path / "sol.json"
    assert main(["solve", "--instance", str(inst_path), "--method", "heuristic",
                 "--out", str(sol_path)]) == 0
    values = json.loads(sol_path.read_text())["values"]
    return inst_path, values, next(name for name in values if name.startswith("x_"))


def test_validate_variable_named_twice_exits_2(tmp_path, capsys):
    # json.load keeps the last of two equal keys: x would read as 0.
    inst_path, values, name = _heuristic_schedule(tmp_path)
    pairs = [*values.items(), (name, 0)]
    body = ", ".join(f"{json.dumps(key)}: {json.dumps(val)}" for key, val in pairs)
    sol_path = tmp_path / "twice.json"
    sol_path.write_text(f'{{"format": "wsn-solution/1", "values": {{{body}}}}}')
    capsys.readouterr()
    rc = main(["validate", "--instance", str(inst_path), "--solution", str(sol_path)])
    assert rc == 2
    assert capsys.readouterr().err == f"error: solution file repeats the key {name!r}\n"


def test_validate_external_variable_set_twice_exits_2(tmp_path, capsys):
    inst_path, values, name = _heuristic_schedule(tmp_path)
    lines = [f"{key} = {val}" for key, val in values.items()]
    first = lines.index(f"{name} = 1") + 1
    ext_path = tmp_path / "twice.sol"
    ext_path.write_text("\n".join(lines + [f"{name} = 0"]) + "\n")
    capsys.readouterr()
    rc = main(["validate", "--instance", str(inst_path),
               "--solution", str(ext_path), "--external"])
    assert rc == 2
    assert capsys.readouterr().err == (
        f"error: line {len(lines) + 1}: {name} was already set on line {first}\n")


def test_validate_external_format(tmp_path, capsys):
    inst_path = _gen_small(tmp_path)
    sol_path = tmp_path / "sol.json"
    assert main(["solve", "--instance", str(inst_path), "--method", "exact",
                 "--out", str(sol_path)]) == 0
    inst = w.load_instance(inst_path)
    arcs = w.build_arcs(inst)
    solution = w.load_solution(sol_path, inst, arcs)
    ext_path = tmp_path / "ext.sol"
    lines = [f"{ref.name} = {val}" for ref, val in solution.values.items() if val]
    ext_path.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert main(["validate", "--instance", str(inst_path),
                 "--solution", str(ext_path), "--external"]) == 0
    assert "feasible" in capsys.readouterr().out


def test_validate_external_nan_energy_is_infeasible(tmp_path, capsys):
    inst_path = _gen_small(tmp_path)
    sol_path = tmp_path / "sol.json"
    assert main(["solve", "--instance", str(inst_path), "--method", "exact",
                 "--out", str(sol_path)]) == 0
    inst = w.load_instance(inst_path)
    solution = w.load_solution(sol_path, inst)
    lines = [f"{ref.name} = {val}" for ref, val in solution.values.items()
             if val and ref.name != "e_i0"]
    ext_path = tmp_path / "ext.sol"
    ext_path.write_text("\n".join(lines + ["e_i0 = nan"]) + "\n")
    capsys.readouterr()
    rc = main(["validate", "--instance", str(inst_path),
               "--solution", str(ext_path), "--external"])
    captured = capsys.readouterr()
    assert rc == 1
    assert "infeasible" in captured.out and "C9_i0" in captured.out
    assert "Traceback" not in captured.err


def _external_heuristic(tmp_path, replace):
    """A heuristic schedule as ``name = value`` lines, with ``replace``
    substituted for the listed names."""
    inst_path = _gen_small(tmp_path)
    inst = w.load_instance(inst_path)
    solution = w.solve_heuristic(inst, w.build_arcs(inst))
    lines = [f"{ref.name} = {val}" for ref, val in solution.values.items()
             if val and ref.name not in replace]
    ext_path = tmp_path / "ext.sol"
    ext_path.write_text("\n".join(lines + [f"{k} = {v}" for k, v in replace.items()]) + "\n")
    return inst_path, ext_path


@pytest.mark.parametrize("value", ["inf", "-inf", "nan"])
def test_validate_external_non_finite_binary_is_infeasible(tmp_path, capsys, value):
    inst_path, ext_path = _external_heuristic(tmp_path, {"y_i0_t0": value})
    capsys.readouterr()
    rc = main(["validate", "--instance", str(inst_path),
               "--solution", str(ext_path), "--external"])
    captured = capsys.readouterr()
    assert rc == 1
    assert "infeasible" in captured.out and "C13_y_i0_t0" in captured.out
    assert "Traceback" not in captured.err


def test_validate_external_aliasing_name_exits_2(tmp_path, capsys):
    inst_path, ext_path = _external_heuristic(tmp_path, {"y_i00_t0": 0})
    capsys.readouterr()
    rc = main(["validate", "--instance", str(inst_path),
               "--solution", str(ext_path), "--external"])
    captured = capsys.readouterr()
    assert rc == 2
    assert "malformed variable name 'y_i00_t0'" in captured.err
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("text, needle", [
    ("y_i99_t0 = 1", "variable y_i99_t0 does not belong to this instance"),
    ("y_i0_t0 = abc", "line 1: malformed value 'abc'"),
    ("y_i0_t0 1", "line 1: expected 'name = value'"),
], ids=["foreign-variable", "malformed-value", "no-equals"])
def test_validate_unreadable_external_file_exits_2(tmp_path, capsys, text, needle):
    inst_path = _gen_small(tmp_path)
    ext_path = tmp_path / "ext.sol"
    ext_path.write_text(text + "\n")
    capsys.readouterr()
    rc = main(["validate", "--instance", str(inst_path),
               "--solution", str(ext_path), "--external"])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("error: ") and needle in err
    assert "Traceback" not in err


def _solution_with(tmp_path, name, raw):
    """A heuristic solution file whose value for ``name`` is the JSON
    text ``raw``."""
    inst_path = _gen_small(tmp_path)
    sol_path = tmp_path / "sol.json"
    assert main(["solve", "--instance", str(inst_path), "--method", "heuristic",
                 "--out", str(sol_path)]) == 0
    doc = json.loads(sol_path.read_text())
    assert doc["values"][name]
    doc["values"][name] = "@@"
    sol_path.write_text(json.dumps(doc).replace('"@@"', raw))
    return inst_path, sol_path


@pytest.mark.parametrize("raw,rc", [("1.7", 1), ("Infinity", 1), ("-Infinity", 1),
                                    ("NaN", 1), ("0.9999999", 0), ("1.0", 0)])
def test_validate_binary_values_snap_or_fail_c13(tmp_path, capsys, raw, rc):
    inst_path, sol_path = _solution_with(tmp_path, "y_i0_t0", raw)
    capsys.readouterr()
    assert main(["validate", "--instance", str(inst_path),
                 "--solution", str(sol_path)]) == rc
    captured = capsys.readouterr()
    if rc:
        assert "infeasible" in captured.out and "C13_y_i0_t0" in captured.out
    else:
        assert "feasible" in captured.out
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("name,raw,needle", [
    ("y_i0_t0", '"abc"', "non-numeric"),
    ("y_i0_t0", "null", "non-numeric"),
    ("y_i0_t0", "true", "non-numeric"),
    ("y_i0_t0", "[1]", "non-numeric"),
    ("e_i0", '"1.5"', "non-numeric"),
    ("e_i0", "false", "non-numeric"),
    ("y_i0_t0", "1" + "0" * 400, "out of range"),
    ("e_i0", "-1" + "0" * 400, "out of range"),
], ids=["string", "null", "bool", "list", "string-energy", "bool-energy",
        "huge-int", "huge-int-energy"])
def test_validate_non_numeric_value_exits_2(tmp_path, capsys, name, raw, needle):
    inst_path, sol_path = _solution_with(tmp_path, name, raw)
    capsys.readouterr()
    assert main(["validate", "--instance", str(inst_path),
                 "--solution", str(sol_path)]) == 2
    captured = capsys.readouterr()
    assert needle in captured.err and name in captured.err
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("text", [
    "[]",
    '{"format": "wsn-solution/1"}',
    '{"format": "wsn-solution/1", "values": [1]}',
    '{"format": "wsn-solution/1", "values": {}, "wall_time_s": null}',
])
def test_validate_malformed_solution_file_exits_2(tmp_path, capsys, text):
    inst_path = _gen_small(tmp_path)
    sol_path = tmp_path / "sol.json"
    sol_path.write_text(text)
    assert main(["validate", "--instance", str(inst_path),
                 "--solution", str(sol_path)]) == 2
    assert "error:" in capsys.readouterr().err


def test_render_out_of_range_exits_2(tmp_path, capsys):
    inst_path = _gen_small(tmp_path)
    sol_path = tmp_path / "sol.json"
    assert main(["solve", "--instance", str(inst_path), "--method", "heuristic",
                 "--out", str(sol_path)]) == 0
    rc = main(["render", "--instance", str(inst_path), "--solution", str(sol_path),
               "--outdir", str(tmp_path / "views"), "--period", "9"])
    assert rc == 2
    assert "out of range" in capsys.readouterr().err


@pytest.fixture
def check_calls(monkeypatch):
    """Solutions passed to check_feasibility, from wherever it is called."""
    from wsnsched import cli, report, validate

    calls = []
    original = validate.check_feasibility

    def counting(instance, arcs, solution):
        calls.append(solution)
        return original(instance, arcs, solution)

    for module in (validate, cli, report):
        if getattr(module, "check_feasibility", None) is original:
            monkeypatch.setattr(module, "check_feasibility", counting)
    return calls


def test_each_solution_is_checked_once(tmp_path, check_calls):
    inst_path = _gen_small(tmp_path)
    sol_path = tmp_path / "sol.json"
    assert main(["solve", "--instance", str(inst_path), "--method", "heuristic",
                 "--out", str(sol_path)]) == 0
    assert len(check_calls) == 1
    report_path = tmp_path / "report.json"
    assert main(["validate", "--instance", str(inst_path), "--solution", str(sol_path),
                 "--report", str(report_path)]) == 0
    assert len(check_calls) == 2
    assert json.loads(report_path.read_text()) == []
    doc = json.loads(sol_path.read_text())
    doc["values"] = {k: v for k, v in doc["values"].items() if not k.startswith("e_")}
    sol_path.write_text(json.dumps(doc))
    assert main(["validate", "--instance", str(inst_path), "--solution", str(sol_path),
                 "--report", str(report_path)]) == 1
    assert len(check_calls) == 3
    assert json.loads(report_path.read_text())

    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps({
        "format": "wsn-experiment/1",
        "types": ["grid", "random"], "periods": [1], "seeds": [1, 2],
        "solver": "heuristic", "scenario": "default",
    }))
    assert main(["experiment", "--spec", str(spec_path),
                 "--out", str(tmp_path / "table.csv")]) == 0
    assert len(check_calls) == 3 + 3  # one grid cell, two random seeds


def test_experiment_command(tmp_path, capsys):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps({
        "format": "wsn-experiment/1",
        "types": ["grid"], "periods": [1], "seeds": [1],
        "solver": "heuristic", "scenario": "bench1",
    }))
    out_path = tmp_path / "table.csv"
    assert main(["experiment", "--spec", str(spec_path), "--out", str(out_path)]) == 0
    rows = w.csv_to_rows(out_path.read_text())
    assert len(rows) == 1 and rows[0].type == "grid"
    assert "wrote" in capsys.readouterr().out

    spec_path.write_text(json.dumps({"format": "nope"}))
    assert main(["experiment", "--spec", str(spec_path),
                 "--out", str(out_path)]) == 2


def test_atomic_write_keeps_the_old_file_when_the_chunks_raise(tmp_path):
    path = tmp_path / "out.txt"
    path.write_text("old\n")

    def chunks():
        yield "new "
        raise RuntimeError("halfway")

    with pytest.raises(RuntimeError):
        atomic_write_text(path, chunks())
    assert path.read_text() == "old\n"
    assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]
    atomic_write_text(path, iter(["a\n", "b\n"]))
    assert path.read_text() == "a\nb\n"


# Every command that reads an instance file, then the two that draw random
# numbers or enumerate with numpy.  EXT holds SOL's values as an external
# solution; GEN, the arguments that generated INST.
_LEAN_RUN = """
import sys

def heavy():
    return [m for m in ("numpy", "scipy") if m in sys.modules]

import wsnsched
assert not heavy(), ("import wsnsched", heavy())
from wsnsched.cli import main

inst, sol, ext, out, *gen = sys.argv[1:]
for argv in (
    ["build", "--instance", inst, "--lp", out + "/m.lp", "--stats", out + "/s.json"],
    ["solve", "--instance", inst, "--method", "heuristic", "--out", out + "/h.json"],
    ["solve", "--instance", inst, "--method", "exact", "--out", out + "/x.json"],
    ["validate", "--instance", inst, "--solution", sol],
    ["validate", "--instance", inst, "--solution", ext, "--external"],
    ["render", "--instance", inst, "--solution", sol, "--outdir", out + "/views"],
):
    assert main(argv) == 0, argv
    assert not heavy(), (argv[:3], heavy())
assert main(["gen", "grid", "--out", out + "/g.json", *gen]) == 0
assert main(["solve", "--instance", inst, "--method", "oracle", "--out", out + "/o.json"]) == 0
"""


def test_commands_that_read_an_instance_do_not_import_numpy(tmp_path):
    # Two sensors and two demand points: 16 binaries for the oracle.
    gen = ["--sensor-grid", "1", "2", "--dp-grid", "1", "2", "--area", "10", "10",
           "--comm-radius", "8"]
    inst_path = tmp_path / "inst.json"
    assert main(["gen", "grid", "--out", str(inst_path), *gen]) == 0
    inst = w.load_instance(inst_path)
    arcs = w.build_arcs(inst)
    solution = w.solve_heuristic(inst, arcs)
    sol_path = tmp_path / "sol.json"
    w.save_solution(solution, sol_path)
    ext_path = tmp_path / "ext.sol"
    ext_path.write_text("".join(f"{ref.name} = {val}\n"
                                for ref, val in solution.values.items() if val))
    out = tmp_path / "out"
    out.mkdir()
    env = dict(os.environ, PYTHONPATH=str(Path(w.__file__).resolve().parents[1]))
    proc = subprocess.run(
        [sys.executable, "-c", _LEAN_RUN, str(inst_path), str(sol_path), str(ext_path),
         str(out), *gen], env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr

    # gen and the oracle still work, and as they do in this process.
    assert (out / "g.json").read_bytes() == inst_path.read_bytes()
    oracle = json.loads((out / "o.json").read_text())
    expect = solution_to_json(w.brute_force_oracle(inst, arcs))
    del oracle["wall_time_s"], expect["wall_time_s"]
    assert oracle == expect
