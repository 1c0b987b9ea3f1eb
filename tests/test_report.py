"""SVG rendering and the experiment table harness."""

import json

import pytest

import wsnsched as w
from wsnsched.report import load_spec, save_rows, spec_from_json, spec_to_json
from helpers import make_instance, trivial_instance


def _solved(inst):
    arcs = w.build_arcs(inst)
    solution, certificate = w.solve_exact(inst, arcs)
    assert certificate
    return arcs, solution


def test_render_is_deterministic():
    inst = trivial_instance()
    _, solution = _solved(inst)
    assert w.render_schedule(inst, solution, 0, 0) == w.render_schedule(inst, solution, 0, 0)
    assert w.render_routes(inst, solution, 0, 0) == w.render_routes(inst, solution, 0, 0)


def test_schedule_svg_elements():
    inst = trivial_instance()
    _, solution = _solved(inst)
    svg = w.render_schedule(inst, solution, 0, 0)
    assert svg.startswith("<svg ") and svg.endswith("</svg>\n")
    # One coverage disk plus one demand dot.
    assert svg.count("<circle") == 2
    assert 'fill="#2a7de1"' in svg        # sensing sensor
    assert 'fill="#222222"' in svg        # covered demand dot
    assert 'stroke="#cc3333"' not in svg  # no penalty markers
    assert svg.count("<polygon") == 1     # the sink


def test_schedule_svg_penalty_only():
    inst = trivial_instance(battery=0.0)
    arcs = w.build_arcs(inst)
    solution = w.solve_heuristic(inst, arcs)
    svg = w.render_schedule(inst, solution, 0, 0)
    assert svg.count("<circle") == 1      # just the hollow demand dot
    assert 'stroke="#cc3333"' in svg
    assert 'fill="#2a7de1"' not in svg
    assert 'stroke="#888888"' in svg      # inactive sensor outline


def test_render_rejects_out_of_range_views():
    inst = trivial_instance()
    _, solution = _solved(inst)
    with pytest.raises(ValueError):
        w.render_schedule(inst, solution, 1, 0)
    with pytest.raises(ValueError):
        w.render_schedule(inst, solution, 0, 1)
    with pytest.raises(ValueError):
        w.render_routes(inst, solution, -1, 0)


def test_route_edges_chain():
    inst = make_instance(
        sensors=[(1.0, 5.0), (4.0, 5.0)], demand_points=[(1.0, 6.0)],
        sinks=[(7.0, 5.0)], radii=(2.0,), comm_radius=3.0)
    _, solution = _solved(inst)
    assert w.route_edges(solution, 0, 0) == ((0, 0, 1), (0, 1, 2))
    # Accepts a bare values dict and filters on (t, g).
    assert w.route_edges(solution.values, 0, 0) == ((0, 0, 1), (0, 1, 2))
    assert w.route_edges(solution, 3, 0) == ()


def test_routes_svg_arrows():
    inst = make_instance(
        sensors=[(1.0, 5.0), (4.0, 5.0)], demand_points=[(1.0, 6.0)],
        sinks=[(7.0, 5.0)], radii=(2.0,), comm_radius=3.0)
    _, solution = _solved(inst)
    svg = w.render_routes(inst, solution, 0, 0)
    assert svg.count("<line") == 2        # one per routed arc
    assert svg.count("<polygon") == 3     # 2 arrowheads + 1 sink
    assert svg.count('hsl(0.0,65%,42%)') >= 2  # both edges carry source 0's color


def test_save_views_writes_expected_files(tmp_path):
    inst = trivial_instance(periods=2)
    _, solution = _solved(inst)
    written = w.save_views(inst, solution, tmp_path)
    names = sorted(p.split("/")[-1] for p in written)
    assert names == ["plan_t0_g0.svg", "plan_t1_g0.svg",
                     "routes_t0_g0.svg", "routes_t1_g0.svg"]
    body = (tmp_path / "plan_t1_g0.svg").read_text()
    assert body == w.render_schedule(inst, solution, 1, 0)
    only = w.save_views(inst, solution, tmp_path, kinds=("routes",), periods=(0,))
    assert [p.split("/")[-1] for p in only] == ["routes_t0_g0.svg"]


def test_experiment_grid_cell():
    spec = w.ExperimentSpec(types=("grid",), periods=(1,), seeds=(1,),
                            solver="heuristic", scenario="bench1")
    rows = w.run_experiment(spec)
    assert len(rows) == 1
    row = rows[0]
    assert (row.type, row.periods, row.n) == ("grid", 1, 1)
    assert row.objective_std == 0.0 and row.uncovered_rate_std == 0.0

    inst = w.scenario_instance("bench1", kind="grid", periods=1, seed=0)
    arcs = w.build_arcs(inst)
    direct = w.evaluate(inst, w.solve_heuristic(inst, arcs), arcs)
    assert row.objective_mean == pytest.approx(direct.objective, rel=1e-12)
    assert row.uncovered_rate_mean == pytest.approx(direct.uncovered_rate, rel=1e-12)


def test_experiment_duplicate_seeds_have_zero_spread():
    spec = w.ExperimentSpec(types=("random",), periods=(1,), seeds=(3, 3),
                            solver="heuristic", scenario="bench1")
    row = w.run_experiment(spec)[0]
    assert row.n == 2
    assert row.objective_std == 0.0
    assert row.real_objective_std == 0.0


def test_experiment_log_callback():
    spec = w.ExperimentSpec(types=("grid",), periods=(1,), seeds=(1,),
                            solver="heuristic", scenario="bench1")
    lines = []
    w.run_experiment(spec, log=lines.append)
    assert len(lines) == 1
    assert "T=1" in lines[0] and "grid" in lines[0]


def test_csv_roundtrip_is_lossless(tmp_path):
    rows = [
        w.ExperimentRow(1, "grid", 2.7300000000000004, 0.0, 2.73, 0.0,
                        0.0, 0.0, 0.3337215429, 0.01, 1),
        w.ExperimentRow(3, "random", 21.5, 1.0 / 3.0, 20.0, 0.1,
                        0.0085, 0.0017, 1.25, 0.125, 10),
    ]
    text = w.rows_to_csv(rows)
    assert text.splitlines()[0] == (
        "periods,type,objective_mean,objective_std,"
        "real_objective_mean,real_objective_std,"
        "uncovered_rate_mean,uncovered_rate_std,time_mean_s,time_std_s,n")
    assert w.csv_to_rows(text) == rows

    path = tmp_path / "table.csv"
    save_rows(rows, path)
    assert w.csv_to_rows(path.read_text()) == rows


def test_csv_rejects_malformed_input():
    with pytest.raises(ValueError, match="header"):
        w.csv_to_rows("objective,stuff\n1,2\n")
    good = w.rows_to_csv([w.ExperimentRow(1, "grid", 1, 0, 1, 0, 0, 0, 0, 0, 1)])
    truncated = good.splitlines()[0] + "\n1,grid,1.0\n"
    with pytest.raises(ValueError, match="fields"):
        w.csv_to_rows(truncated)


def test_spec_json_roundtrip(tmp_path):
    spec = w.ExperimentSpec(types=("random",), periods=(2, 3), seeds=(5, 6),
                            solver="exact", scenario="bench2",
                            time_limit_s=12.5)
    doc = spec_to_json(spec)
    assert doc["format"] == "wsn-experiment/1"
    assert spec_from_json(doc) == spec

    path = tmp_path / "spec.json"
    path.write_text(json.dumps(doc))
    assert load_spec(path) == spec

    with pytest.raises(ValueError, match="format"):
        spec_from_json({"format": "wsn-experiment/999"})


def test_spec_validation():
    with pytest.raises(ValueError):
        w.ExperimentSpec(types=("hexagonal",))
    with pytest.raises(ValueError):
        w.ExperimentSpec(solver="simplex")
    with pytest.raises(ValueError):
        w.ExperimentSpec(seeds=())


# The values the CLI spec cases in test_cli reject, on the library path.
@pytest.mark.parametrize("kwargs, needle", [
    ({"periods": (1.5,)}, "periods"),
    ({"seeds": (1.5,)}, "seeds"),
    ({"periods": ("2",)}, "periods"),
    ({"periods": (True,)}, "periods"),
    ({"solver": "exact", "time_limit_s": "x"}, "time_limit_s"),
    ({"time_limit_s": float("nan")}, "time_limit_s"),
], ids=["float-period", "float-seed", "string-period", "bool-period",
        "string-time-limit", "nan-time-limit"])
def test_spec_rejects_ill_typed_values(kwargs, needle):
    with pytest.raises(ValueError, match=needle):
        w.ExperimentSpec(**{"types": ("grid",), "periods": (1,), "seeds": (1,),
                            "scenario": "default", **kwargs})
