"""Smoke test of the benchmark at minimum size.

    python3 -m pytest perfbench/test_smoke.py -q

Each workload runs in-process on one small layout (two passes, the
minimum), with tracing off and on.  The last stdout line must carry every
metric BENCHMARK.json names, with its unit.  A deliberately corrupted
heuristic schedule must be counted as a failed op.  The benchmark's frozen
tiny-instance generator must still match the test suite's.
"""

import json

import pytest

import bench_common as bc
import run

BENCHMARK = json.loads((bc.ROOT / "BENCHMARK.json").read_text())


@pytest.fixture
def minimum_size(monkeypatch):
    monkeypatch.setattr(bc, "PLAN_LAYOUTS", (("default", "grid", 1, 0),))
    monkeypatch.setattr(bc, "ILP_LAYOUTS", (("default", "random", 1, 2),))
    monkeypatch.setattr(bc, "EXACT_LAYOUTS", (("default", "random", 1, 2),))
    monkeypatch.setattr(run, "TINY_PAIRS", 2)


def _result(capsys, workload, trace):
    assert run.main(["--workload", workload, "--seed", "3", "--seconds", "0",
                     "--trace", str(trace)]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    return json.loads(lines[-1]), lines


@pytest.mark.parametrize("workload", [wl["name"] for wl in BENCHMARK["workloads"]])
@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_with_its_unit(minimum_size, capsys, workload, trace, section):
    result, _ = _result(capsys, workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    expected = {m["name"]: m["unit"] for m in BENCHMARK[section]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == expected
    for m in result["metrics"].values():
        assert isinstance(m["value"], (int, float))


def test_corrupted_solution_is_a_failed_op(minimum_size, capsys, monkeypatch):
    w = bc.load_package()
    solve = w.solve_heuristic

    def corrupted(instance, arcs=None, config=None):
        good = solve(instance, arcs, config)
        values = dict(good.values)
        values[w.VarRef("e", (0,))] = instance.device.battery_capacity + 1.0
        return w.Solution(values=values, provenance=good.provenance,
                          wall_time_s=good.wall_time_s, objective=good.objective)

    monkeypatch.setattr(w, "solve_heuristic", corrupted)
    result, lines = _result(capsys, "plan", 0)
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] == 2
    assert result["metrics"]["ok_rate"]["value"] == 0.0
    assert any(line.startswith("FAILED default-grid-T1-s0") for line in lines)


def test_tiny_pairs_match_the_test_suite_generator(monkeypatch):
    w = bc.load_package()
    monkeypatch.syspath_prepend(str(bc.ROOT / "tests"))
    import helpers

    for seed in range(run.TINY_PAIRS):
        ours, _ = run.tiny_instance(w, seed)
        theirs, _ = helpers.tiny_instance(seed)
        assert w.instance_to_json(ours) == w.instance_to_json(theirs), seed
