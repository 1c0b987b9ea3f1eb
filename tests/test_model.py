"""Model assembly: variable universe, constraint emission, size accounting."""

import gc
import tracemalloc

import pytest

import wsnsched as w
from wsnsched.cli import MAX_VARIABLES
from wsnsched.model import KIND_ORDER, Rows
from wsnsched.solve import parse_external_solution
from helpers import POOL_LAYOUTS, make_instance, tiny_instance, trivial_instance


def expected_counts(inst, arcs):
    """Size formulas recomputed from the index ranges alone.

    Kept deliberately formula-shaped (degree sums, no constraint assembly)
    so that it can disagree with build_model if either is wrong.
    """
    n = len(inst.sensors)
    T = inst.periods
    G = len(inst.phenomena)
    cov = {g: list(arcs.coverage[g]) for g in range(G)}
    comm_pairs = set(arcs.comm)
    indeg = {j: 0 for j in range(n)}
    outdeg = {i: 0 for i in range(n)}
    for (i, j) in arcs.comm:
        indeg[j] += 1
        outdeg[i] += 1
    for (i, _k) in arcs.to_sink:
        outdeg[i] += 1
    sources = {g: sorted({i for i, _ in cov[g]}) for g in range(G)}
    total_arcs = len(arcs.comm) + len(arcs.to_sink)

    n_x = T * sum(len(cov[g]) for g in range(G))
    n_z = T * sum(total_arcs - indeg[l] for g in range(G) for l in sources[g])
    n_h = T * sum(len(inst.demand_indices(g)) for g in range(G))
    variables = {
        "x": n_x, "y": n * T, "z": n_z, "w": n * T,
        "r": n * T * G, "h": n_h, "e": n,
    }

    c5 = 0
    for g in range(G):
        for l in sources[g]:
            for j in range(n):
                if j == l:
                    continue
                out_excl = outdeg[j] - (1 if (j, l) in comm_pairs else 0)
                if indeg[j] > 0 or out_excl > 0:
                    c5 += T
    constraints = {
        "C2": n_h,
        "C3": n_x,
        "C4": n * T * G,
        "C5": c5,
        "C6": n * T * G,
        "C7": n_z,
        "C8": T * sum(len(arcs.comm) - indeg[l] for g in range(G) for l in sources[g]),
        "C9": n,
        "C11": n,
        "C12": n * (T - 1),
    }
    objective_terms = n + n_h + (n * T * G if inst.penalty_activation != 0.0 else 0)
    return variables, constraints, objective_terms


def test_trivial_model_enumerable_by_hand():
    inst = trivial_instance()
    arcs = w.build_arcs(inst)
    model = w.build_model(inst, arcs)

    names = [ref.name for ref in model.variables]
    assert names == [
        "x_i0_j0_t0_g0", "y_i0_t0", "z_l0_i0_j1_t0_g0",
        "w_i0_t0", "r_i0_t0_g0", "h_j0_t0_g0", "e_i0",
    ]

    by_tag = {c.tag: c for c in model.constraints}
    assert sorted(by_tag) == [
        "C11_i0", "C2_j0_t0_g0", "C3_i0_j0_t0_g0", "C4_i0_t0_g0",
        "C6_l0_t0_g0", "C7_l0_i0_j1_t0_g0", "C9_i0",
    ]

    c2 = by_tag["C2_j0_t0_g0"]
    assert [(ref.name, coef) for ref, coef in c2.terms] == [
        ("x_i0_j0_t0_g0", 1.0), ("h_j0_t0_g0", 1.0)]
    assert (c2.sense, c2.rhs) == (">=", 1.0)

    c9 = by_tag["C9_i0"]
    coefs = {ref.name: coef for ref, coef in c9.terms}
    assert coefs["y_i0_t0"] == 0.5
    assert coefs["w_i0_t0"] == 0.25
    assert coefs["z_l0_i0_j1_t0_g0"] == pytest.approx(0.48, rel=1e-12)
    assert coefs["e_i0"] == -1.0
    assert (c9.sense, c9.rhs) == ("<=", 0.0)

    assert model.bounds == ((w.VarRef("e", (0,)), 0.0, 4.0),)
    obj = {ref.name: coef for ref, coef in model.objective}
    assert obj["e_i0"] == 1.0
    assert obj["h_j0_t0_g0"] == inst.penalty_uncovered
    assert obj["r_i0_t0_g0"] == 0.01


def test_uncoverable_point_degenerates_to_penalty_row():
    inst = make_instance(
        sensors=[(0.0, 0.0)], demand_points=[(9.0, 9.0)], sinks=[(1.0, 1.0)],
        radii=(2.0,), comm_radius=4.0)
    model = w.build_model(inst, w.build_arcs(inst))
    c2 = next(c for c in model.constraints if c.tag.startswith("C2"))
    assert [(ref.kind, coef) for ref, coef in c2.terms] == [("h", 1.0)]
    assert (c2.sense, c2.rhs) == (">=", 1.0)


def test_c6_pins_r_for_noncovering_sensors():
    # Sensor 1 covers nothing, so its outflow row has only the -r term.
    inst = make_instance(
        sensors=[(5.0, 5.0), (9.0, 9.0)], demand_points=[(5.0, 6.0)],
        sinks=[(5.0, 3.0)], radii=(2.0,), comm_radius=20.0)
    model = w.build_model(inst, w.build_arcs(inst))
    row = next(c for c in model.constraints if c.tag == "C6_l1_t0_g0")
    assert [(ref.name, coef) for ref, coef in row.terms] == [("r_i1_t0_g0", -1.0)]
    assert (row.sense, row.rhs) == ("=", 0.0)


def test_relay_chain_balance_row():
    # 0 -> 1 -> sink chain; conservation at 1 for streams born at 0.
    inst = make_instance(
        sensors=[(1.0, 5.0), (4.0, 5.0)], demand_points=[(1.0, 6.0)],
        sinks=[(7.0, 5.0)], radii=(2.0,), comm_radius=3.0)
    model = w.build_model(inst, w.build_arcs(inst))
    row = next(c for c in model.constraints if c.tag == "C5_l0_j1_t0_g0")
    assert [(ref.name, coef) for ref, coef in row.terms] == [
        ("z_l0_i0_j1_t0_g0", 1.0), ("z_l0_i1_j2_t0_g0", -1.0)]
    assert (row.sense, row.rhs) == ("=", 0.0)


@pytest.mark.parametrize("name,kind,periods,seed", [
    ("bench1", "grid", 1, 0),
    ("bench1", "grid", 3, 0),
    ("bench2", "grid", 2, 0),
    ("default", "random", 2, 5),
    ("default", "random", 1, 13),
])
def test_counting_oracle(name, kind, periods, seed):
    inst = w.scenario_instance(name, kind=kind, periods=periods, seed=seed)
    arcs = w.build_arcs(inst)
    model = w.build_model(inst, arcs)
    stats = w.model_stats(model)
    variables, constraints, objective_terms = expected_counts(inst, arcs)

    for k, count in variables.items():
        assert stats["variables"][k] == count, k
    assert stats["variables"]["total"] == sum(variables.values())
    assert stats["variables"]["binary"] == sum(
        v for k, v in variables.items() if k != "e")
    for fam, count in constraints.items():
        assert stats["constraints"].get(fam, 0) == count, fam
    assert stats["constraints"]["total"] == sum(constraints.values())
    assert stats["objective_terms"] == objective_terms


def test_counting_oracle_partial_demands():
    inst = make_instance(
        sensors=[(2.0, 2.0), (5.0, 5.0), (8.0, 8.0)],
        demand_points=[((2.0, 3.0), (0,)), ((5.0, 6.0), (0, 1)), ((8.0, 7.0), (1,))],
        sinks=[(5.0, 2.0)], radii=(2.0, 3.0), periods=2, comm_radius=5.0,
        penalty_activation=0.0)
    arcs = w.build_arcs(inst)
    stats = w.model_stats(w.build_model(inst, arcs))
    variables, constraints, objective_terms = expected_counts(inst, arcs)
    assert stats["variables"]["h"] == variables["h"] == 2 * 4
    assert stats["constraints"]["C2"] == constraints["C2"]
    # penalty_activation == 0 drops the r terms from the objective.
    assert stats["objective_terms"] == objective_terms == 3 + 8


def test_every_referenced_variable_is_declared():
    inst = w.scenario_instance("default", kind="random", periods=2, seed=21)
    arcs = w.build_arcs(inst)
    model = w.build_model(inst, arcs)
    declared = set(model.variables)
    for c in model.constraints:
        for ref, _ in c.terms:
            assert ref in declared
    for ref, _ in model.objective:
        assert ref in declared
    for ref, lo, hi in model.bounds:
        assert ref in declared
        assert (lo, hi) == (0.0, inst.device.battery_capacity)


def test_variable_order_is_canonical():
    inst = w.scenario_instance("default", kind="random", periods=2, seed=8)
    arcs = w.build_arcs(inst)
    model = w.build_model(inst, arcs)
    assert model.variables == w.variable_universe(inst, arcs)
    keys = [ref.sort_key() for ref in model.variables]
    assert keys == sorted(keys)
    kinds = [ref.kind for ref in model.variables]
    assert kinds == sorted(kinds, key=KIND_ORDER.index)


def test_z_never_points_back_into_source():
    inst = w.scenario_instance("default", kind="random", periods=1, seed=30)
    model = w.build_model(inst, w.build_arcs(inst))
    for ref in model.variables:
        if ref.kind == "z":
            l, _i, j, _t, _g = ref.indices
            assert j != l


def test_per_phenomenon_fixed_energy_flag():
    inst = make_instance(
        sensors=[(5.0, 5.0)], demand_points=[(5.0, 6.0)], sinks=[(5.0, 3.0)],
        radii=(2.0, 3.0))
    arcs = w.build_arcs(inst)
    default = w.build_model(inst, arcs)
    variant = w.build_model(inst, arcs, per_phenomenon_fixed_energy=True)

    def c9_coefs(model):
        row = next(c for c in model.constraints if c.tag == "C9_i0")
        return {ref.name: coef for ref, coef in row.terms}

    assert c9_coefs(default)["y_i0_t0"] == 0.5
    assert c9_coefs(default)["w_i0_t0"] == 0.25
    assert c9_coefs(variant)["y_i0_t0"] == 1.0
    assert c9_coefs(variant)["w_i0_t0"] == 0.5


def test_mismatched_arcs_rejected():
    a = w.scenario_instance("default", kind="random", periods=1, seed=1)
    b = w.scenario_instance("default", kind="random", periods=1, seed=2)
    arcs_b = w.build_arcs(b)
    with pytest.raises(ValueError):
        w.build_model(a, arcs_b)
    with pytest.raises(ValueError):
        w.variable_universe(a, arcs_b)


def test_parse_var_name_roundtrip():
    inst = w.scenario_instance("default", kind="random", periods=2, seed=3)
    model = w.build_model(inst, w.build_arcs(inst))
    for ref in model.variables:
        assert w.parse_var_name(ref.name) == ref
    for bad in ("x_i0_j0", "q_i0", "e_j0", "x_i0_j0_t0_gx", "y_t0_i0", "", "e"):
        with pytest.raises(ValueError):
            w.parse_var_name(bad)
    # Only the spelling VarRef.name writes parses, so no two names alias.
    for bad in ("y_i01_t0", "y_i0_t00", "e_i00", "z_l0_i1_j02_t0_g0",  # leading zeros
                "y_i\u0663_t0", "e_i\uff11",  # non-ASCII digits
                "e_i+1", "e_i-1", "e_i 1", "e_i1\n", " e_i1", "e_i1_", "ee_i0", "E_i0"):
        with pytest.raises(ValueError, match="malformed variable name"):
            w.parse_var_name(bad)


def test_name_of_wrong_arity_names_the_fields_given():
    assert w.VarRef("y", (3,)).name == "y_i3"
    assert w.VarRef("e", (0, 5)).name == "e_i0"
    with pytest.raises(KeyError):
        w.VarRef("q", (0,)).name


def test_external_solution_rejects_aliasing_names():
    with pytest.raises(ValueError, match="line 2: malformed variable name 'y_i00_t0'"):
        parse_external_solution("y_i0_t0 = 1\ny_i00_t0 = 0\n")


@pytest.mark.parametrize("layout", POOL_LAYOUTS, ids=lambda lay: "-".join(map(str, lay)))
def test_universe_size_counts_the_pool_universe(layout):
    scenario, kind, periods, seed = layout
    inst = w.scenario_instance(scenario, kind=kind, periods=periods, seed=seed)
    arcs = w.build_arcs(inst)
    size = w.universe_size(inst, arcs)
    assert size == len(w.variable_universe(inst, arcs))
    assert size <= MAX_VARIABLES  # the CLI's size guard admits every pool model


def test_universe_size_counts_tiny_universes():
    for seed in range(20):
        inst, arcs = tiny_instance(seed)
        assert w.universe_size(inst, arcs) == len(w.variable_universe(inst, arcs))
    with pytest.raises(ValueError):
        w.universe_size(trivial_instance(), tiny_instance(0)[1])


def _assert_refs_shared(model):
    """Every ref in the objective, the rows and the bounds is the very object
    listed in model.variables."""
    declared = {ref: ref for ref in model.variables}
    refs = [ref for ref, _ in model.objective]
    refs += [ref for c in model.constraints for ref, _ in c.terms]
    refs += [ref for ref, _, _ in model.bounds]
    assert refs and all(ref is declared[ref] for ref in refs)


def test_build_and_parse_share_one_ref_per_variable():
    inst = w.scenario_instance("default", kind="random", periods=2, seed=21)
    model = w.build_model(inst, w.build_arcs(inst))
    _assert_refs_shared(model)
    _assert_refs_shared(w.parse_lp(w.export_lp(model)))


def test_records_are_named_tuples():
    ref = w.VarRef("x", (0, 1, 2, 0))
    assert hash(ref) == hash(("x", (0, 1, 2, 0)))
    assert ref == ("x", (0, 1, 2, 0))
    assert repr(ref) == "VarRef(kind='x', indices=(0, 1, 2, 0))"
    kind, indices = ref
    assert (kind, indices) == (ref.kind, ref.indices)
    row = w.LinearConstraint("C4_i0_t0_g0", ((ref, 1.0),), "<=", 0.0)
    assert row == ("C4_i0_t0_g0", ((("x", (0, 1, 2, 0)), 1.0),), "<=", 0.0)
    assert repr(row) == ("LinearConstraint(tag='C4_i0_t0_g0', terms=((VarRef(kind='x', "
                         "indices=(0, 1, 2, 0)), 1.0),), sense='<=', rhs=0.0)")
    assert not hasattr(ref, "__dict__") and not hasattr(row, "__dict__")


def _records():
    """Three rows over fresh refs; y_i7_t0 is not among the variables."""
    y0, e0, y7 = w.VarRef("y", (0, 0)), w.VarRef("e", (0,)), w.VarRef("y", (7, 0))
    return (
        w.LinearConstraint("a", ((y0, 1.0), (e0, -2.5)), "<=", 4.0),
        w.LinearConstraint("b", ((y7, 0.5),), ">=", -3.0),
        w.LinearConstraint("c", ((w.VarRef("e", (0,)), 1.0), (y7, 1.0), (y0, -1.0)), "=", 0.0),
    )


def _hand_model():
    variables = (w.VarRef("y", (0, 0)), w.VarRef("e", (0,)))
    return w.IlpModel(variables=variables, objective=(), constraints=_records(), bounds=())


def test_rows_index_slice_and_iterate_as_records():
    records = _records()
    rows = _hand_model().constraints
    assert isinstance(rows, Rows)
    assert len(rows) == 3
    assert rows[0] == records[0] and rows[2] == records[2]
    assert rows[-1] == records[2] and rows[-3] == records[0]
    for k in (3, -4):
        with pytest.raises(IndexError):
            rows[k]
    assert rows[1:] == records[1:] and isinstance(rows[1:], tuple)
    assert rows[::-2] == records[::-2]
    assert rows[5:] == ()
    assert list(rows) == list(records)
    assert all(type(row) is w.LinearConstraint for row in rows)
    assert [row.tag for row in reversed(rows)] == ["c", "b", "a"]


def test_rows_compare_with_records_both_ways():
    records = _records()
    rows = _hand_model().constraints
    assert rows == records and records == rows
    assert not rows != records and not records != rows
    for other in (records[:2], records[2:] + records[:2],
                  records[:2] + (records[2]._replace(rhs=1.0),),
                  records[:2] + (records[2]._replace(terms=records[2].terms[:2]),)):
        assert rows != other and other != rows
    assert Rows.of((), ()) == () and () == Rows.of((), ())
    # Rows over another column table compare by their refs, not their ids.
    assert Rows.of(_hand_model().variables[::-1], records) == rows
    assert rows != "abc" and rows != 3
    assert hash(rows) == hash(records)
    assert hash(_hand_model()) == hash(_hand_model())  # a frozen model still hashes


def test_model_converts_records_once():
    model = _hand_model()
    rows = model.constraints
    y0, e0 = model.variables
    # The ref outside the variables gets a column after them, in order of
    # first use, and every term reads the table's one ref.
    assert rows.columns == (y0, e0, w.VarRef("y", (7, 0)))
    assert list(rows.cols) == [0, 1, 2, 1, 2, 0]
    assert list(rows.coefs) == [1.0, -2.5, 0.5, 1.0, 1.0, -1.0]
    assert list(rows.starts) == [0, 2, 3, 6]
    assert (rows.tags, rows.senses, list(rows.rhs)) == (["a", "b", "c"], ["<=", ">=", "="],
                                                         [4.0, -3.0, 0.0])
    assert rows[2].terms[0][0] is e0 and rows[2].terms[1][0] is rows[1].terms[0][0]
    # Given Rows, the model keeps them; an equal model compares equal.
    assert w.IlpModel(model.variables, (), rows, ()).constraints is rows
    assert w.IlpModel(model.variables, (), _records(), ()) == model
    # A model whose rows use declared refs only shares them all.
    inst = w.scenario_instance("default", kind="random", periods=1, seed=4)
    built = w.build_model(inst, w.build_arcs(inst))
    assert built.constraints.columns is built.variables
    table = {ref: w.VarRef(*ref) for ref in built.variables}  # equal, not the same
    fresh = w.IlpModel(tuple(table.values()),
                       tuple((table[ref], coef) for ref, coef in built.objective),
                       tuple(built.constraints),
                       tuple((table[ref], lo, hi) for ref, lo, hi in built.bounds))
    assert fresh == built
    assert fresh.constraints.columns is fresh.variables
    _assert_refs_shared(fresh)


def test_parsed_rows_index_the_variables():
    inst = w.scenario_instance("default", kind="random", periods=2, seed=21)
    model = w.build_model(inst, w.build_arcs(inst))
    parsed = w.parse_lp(w.export_lp(model))
    assert parsed.constraints.columns is parsed.variables
    assert parsed.constraints == model.constraints == tuple(parsed.constraints)


def _small_grid():
    # The grid of test_lp.py::test_parse_holds_one_block_at_a_time: 2 189
    # variables, 4 159 rows.
    inst = w.gen_grid(3, 3, 3, 3, (10.0, 10.0), w.ScenarioConfig(periods=2))
    arcs = w.build_arcs(inst)
    w.build_model(inst, arcs)  # the arc sets' derived tables, made once
    return inst, arcs


def _tracked_and_retained(fn, *args):
    """``fn(*args)``, the number of objects the collector tracks that it
    adds, and the bytes it retains (tracemalloc)."""
    gc.collect()
    before = len(gc.get_objects())
    tracemalloc.start()
    try:
        result = fn(*args)
        retained = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    gc.collect()
    return result, len(gc.get_objects()) - before, retained


def test_models_hold_one_tracked_object_per_variable():
    # Rows are flat arrays, which the collector does not track: building and
    # parsing add the VarRefs and 90 and 101 objects beyond them (Python
    # 3.11), where rows and terms kept as tuples added about 8 per variable.
    model, built, _ = _tracked_and_retained(w.build_model, *_small_grid())
    text = w.export_lp(model)
    _, parsed, _ = _tracked_and_retained(w.parse_lp, text)
    assert built <= len(model.variables) + 250, built
    assert parsed <= len(model.variables) + 250, parsed


def test_models_retain_few_bytes_per_variable():
    # About 460 bytes per variable built or parsed (tracemalloc, Python
    # 3.11); rows and terms kept as tuples took 784 built, 912 parsed.
    model, _, built = _tracked_and_retained(w.build_model, *_small_grid())
    text = w.export_lp(model)
    _, _, parsed = _tracked_and_retained(w.parse_lp, text)
    n = len(model.variables)
    assert built < 600 * n, built / n
    assert parsed < 600 * n, parsed / n
