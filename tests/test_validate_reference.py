"""Differential tests: the checker against the reference universe walker.

``reference_validate`` is the original checker, which builds every
``VarRef`` of the universe and requires every one of them in the solution.
On random finite mutations of zero-filled solver output both must report
the same violations (compared as JSON text, so ``1`` and ``1.0`` or ``0.0``
and ``-0.0`` differ) and raise the same index errors.  The checker must
also report the same for each mutation with its zeros dropped, since an
absent variable reads as 0.  NaN values are left out on purpose: the
checker flags a NaN energy, and the reference does not.
"""

import json
import random

import pytest

import wsnsched as w
from wsnsched.validate import SolutionIndexError, violations_to_json
from helpers import make_instance, tiny_instance
import reference_validate as ref

BINARY_VALUES = (0, 1, 0.5, 2.0)


def _report(check, inst, arcs, values):
    try:
        return json.dumps(violations_to_json(check(inst, arcs, values)))
    except SolutionIndexError as exc:
        return f"SolutionIndexError: {exc}"


def _dense(inst, arcs, values):
    """``values`` with every absent variable of the universe set to int 0."""
    return {r: 0 for r in w.variable_universe(inst, arcs)} | values


def _sparse(values):
    return {r: val for r, val in values.items() if val}


def _dense_heuristic(inst, arcs):
    """The heuristic schedule over the whole universe, zero energies as 0.0."""
    filled = {r: 0.0 if r.kind == "e" else 0 for r in w.variable_universe(inst, arcs)}
    return filled | w.solve_heuristic(inst, arcs).values


def _assert_matches_reference(inst, arcs, values):
    got = _report(w.check_feasibility, inst, arcs, values)
    assert got == _report(ref.check_feasibility, inst, arcs, values)
    assert got == _report(w.check_feasibility, inst, arcs, _sparse(values))


def _mutations(inst, arcs, count, seed, binary_values=BINARY_VALUES):
    """Yield ``count`` mutated copies of the zero-filled heuristic schedule."""
    base = _dense_heuristic(inst, arcs)
    binaries = [r for r in base if r.kind != "e"]
    nonzero = [r for r in binaries if base[r]]
    energies = [r for r in base if r.kind == "e"]
    rng = random.Random(seed)
    for _ in range(count):
        values = dict(base)
        for _ in range(rng.randint(1, 4)):
            pool = rng.choice((binaries, nonzero or binaries, energies))
            r = rng.choice(pool)
            values[r] = (rng.uniform(-1.0, 5.0) if r.kind == "e"
                         else rng.choice(binary_values))
        yield values


def _cases():
    yield "bench1-grid-T1", w.scenario_instance("bench1", kind="grid", periods=1), 20
    yield ("default-random-T2-s2",
           w.scenario_instance("default", kind="random", periods=2, seed=2), 15)
    for seed in range(20):
        inst, _ = tiny_instance(seed)
        yield f"tiny-{seed}", inst, 6


CASES = list(_cases())  # 155 mutations in all


@pytest.mark.parametrize("label, inst, count", CASES, ids=[c[0] for c in CASES])
def test_violations_match_reference(label, inst, count):
    arcs = w.build_arcs(inst)
    for values in _mutations(inst, arcs, count, seed=len(label)):
        _assert_matches_reference(inst, arcs, values)


def test_mutations_reach_every_family():
    # The comparison above is not passing on empty reports.
    families = set()
    for label, inst, count in CASES:
        arcs = w.build_arcs(inst)
        for values in _mutations(inst, arcs, count, seed=len(label)):
            families |= {vio.tag.split("_", 1)[0]
                         for vio in w.check_feasibility(inst, arcs, values)}
    assert families == {f"C{k}" for k in range(2, 14)}


@pytest.mark.parametrize("seed", range(10))
def test_negative_binaries_match_reference(seed):
    # A negative activity value lets a zero stream variable break C7/C8.
    inst, arcs = tiny_instance(seed)
    for values in _mutations(inst, arcs, 6, seed=seed, binary_values=(-1, 0, 1)):
        _assert_matches_reference(inst, arcs, values)


@pytest.mark.parametrize("seed", range(10))
def test_index_errors_match_reference(seed):
    # Deleted keys read as 0; added foreign keys are index errors.
    inst, arcs = tiny_instance(seed)
    base = _dense_heuristic(inst, arcs)
    n = len(inst.sensors)
    foreign = [w.VarRef("y", (n, 0)), w.VarRef("e", (0, 0)),
               w.VarRef("h", (0, inst.periods, 0)),
               w.VarRef("z", (0, 0, 0, 0, 0)), w.VarRef("x", (0, 99, 0, 0))]
    rng = random.Random(seed)
    keys = list(base)
    for _ in range(6):
        values = dict(base)
        for r in rng.sample(keys, rng.randint(0, 2)):
            del values[r]
        added = rng.sample(foreign, rng.randint(0, 2))
        for r in added:
            values[r] = rng.choice(BINARY_VALUES)
        got = _report(w.check_feasibility, inst, arcs, values)
        assert got.startswith("SolutionIndexError") == bool(added)
        assert got == _report(ref.check_feasibility, inst, arcs, _dense(inst, arcs, values))


@pytest.mark.parametrize("first, second, lhs", [
    ((0, 3, 2, 0, 0), (1, 1, 2, 0, 0), "0.9899999999999999"),  # received
    ((0, 2, 3, 0, 0), (1, 2, 0, 0, 0), "1.2299999999999998"),  # sent
])
def test_energy_row_sums_in_arc_order(first, second, lhs):
    # Sensor 2 carries source 0's stream on the later arc and source 1's on
    # the earlier one.  C9 adds terms arc by arc, and with these values the
    # source-by-source order rounds the row to a different float.
    inst = make_instance(
        sensors=[(1.0, 5.0), (2.0, 5.0), (3.0, 5.0), (4.0, 5.0)],
        demand_points=[(1.0, 5.5), (2.0, 5.5)], sinks=[(5.0, 5.0)],
        radii=(0.6,), comm_radius=3.0)
    arcs = w.build_arcs(inst)
    values = {r: 0 for r in w.variable_universe(inst, arcs)}
    values[w.VarRef("y", (2, 0))] = values[w.VarRef("w", (2, 0))] = 1
    values[w.VarRef("z", first)] = 1 / 3
    values[w.VarRef("z", second)] = 2 / 3
    got = _report(w.check_feasibility, inst, arcs, values)
    assert f'"C9_i2", "lhs": {lhs},' in got
    assert got == _report(ref.check_feasibility, inst, arcs, values)
