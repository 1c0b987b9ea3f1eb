"""LP text emission and parsing: determinism, round-trips, error reporting."""

import gc
import tracemalloc
from pathlib import Path

import pytest

import wsnsched as w
from wsnsched.lp import LpParseError
from helpers import tiny_instance, trivial_instance, two_sink_instance

GOLDEN = Path(__file__).parent / "data" / "trivial_model.lp"


def test_golden_trivial_model():
    inst = trivial_instance()
    model = w.build_model(inst, w.build_arcs(inst))
    assert w.export_lp(model) == GOLDEN.read_text()


def test_export_deterministic():
    inst = w.scenario_instance("default", kind="random", periods=2, seed=17)
    arcs = w.build_arcs(inst)
    a = w.export_lp(w.build_model(inst, arcs))
    b = w.export_lp(w.build_model(inst, arcs))
    assert a == b


def _models_equal(a, b):
    assert a.variables == b.variables
    assert a.bounds == b.bounds
    assert len(a.constraints) == len(b.constraints)
    for ca, cb in zip(a.constraints, b.constraints):
        assert ca.tag == cb.tag
        assert ca.sense == cb.sense
        assert ca.rhs == cb.rhs
        assert dict(ca.terms) == dict(cb.terms)
    assert dict(a.objective) == dict(b.objective)


def test_roundtrip_small_models():
    for seed in range(12):
        inst, arcs = tiny_instance(seed)
        model = w.build_model(inst, arcs)
        text = w.export_lp(model)
        back = w.parse_lp(text)
        _models_equal(model, back)
        assert w.export_lp(back) == text


def test_roundtrip_multi_phenomenon_multi_sink():
    inst = two_sink_instance()
    model = w.build_model(inst, w.build_arcs(inst))
    text = w.export_lp(model)
    back = w.parse_lp(text)
    _models_equal(model, back)
    assert w.export_lp(back) == text


def test_long_rows_wrap_and_roundtrip():
    inst = w.scenario_instance("bench1", kind="grid", periods=1)
    model = w.build_model(inst, w.build_arcs(inst))
    text = w.export_lp(model)
    assert max(len(line) for line in text.splitlines()) < 250
    back = w.parse_lp(text)
    _models_equal(model, back)
    assert w.export_lp(back) == text


def test_objective_only_file():
    model = w.parse_lp("Minimize\n obj: e_i0 + 2 h_j0_t0_g0\nEnd\n")
    assert model.constraints == ()
    names = [ref.name for ref in model.variables]
    assert names == ["e_i0", "h_j0_t0_g0"]
    assert dict(model.objective) == {
        w.VarRef("e", (0,)): 1.0, w.VarRef("h", (0, 0, 0)): 2.0}
    # Continuous variables without a Bounds entry default to [0, inf).
    assert model.bounds == ((w.VarRef("e", (0,)), 0.0, float("inf")),)


def test_missing_bounds_section_defaults():
    inst = trivial_instance()
    text = w.export_lp(w.build_model(inst, w.build_arcs(inst)))
    lines = [ln for ln in text.splitlines()]
    start = lines.index("Bounds")
    stop = lines.index("Binaries")
    stripped = "\n".join(lines[:start] + lines[stop:]) + "\n"
    model = w.parse_lp(stripped)
    assert model.bounds == ((w.VarRef("e", (0,)), 0.0, float("inf")),)


def test_number_tokens():
    text = (
        "Minimize\n"
        " obj: 1e-05 e_i0 + .5 e_i1 + 3. e_i2\n"
        "Subject To\n"
        " C9_i0: -2.5E+1 e_i0 + e_i1 >= -7\n"
        "Bounds\n"
        " e_i2 <= 12\n"
        "End\n")
    model = w.parse_lp(text)
    obj = {ref.name: coef for ref, coef in model.objective}
    assert obj == {"e_i0": 1e-05, "e_i1": 0.5, "e_i2": 3.0}
    row = model.constraints[0]
    assert dict((ref.name, c) for ref, c in row.terms) == {"e_i0": -25.0, "e_i1": 1.0}
    assert row.rhs == -7.0
    bounds = {ref.name: (lo, hi) for ref, lo, hi in model.bounds}
    assert bounds["e_i2"] == (0.0, 12.0)


@pytest.mark.parametrize("text,needle,line", [
    ("Maximize\n obj: e_i0\nEnd\n", "only minimization", 1),
    ("Minimize\n obj: e_i0\n", "missing End", 3),
    ("e_i0\nMinimize\n obj: e_i0\nEnd\n", "before", 1),
    ("Minimize\n obj: e_i0\nSubject To\n x_i0_j0_t0_g0 <= 1\nEnd\n", "label", 4),
    ("Minimize\n obj: e_i0\nSubject To\n C1: x_i0_j0_t0_g0 1 <= 1\nEnd\n",
     "coefficient", 4),
    ("Minimize\n obj: e_i0\nSubject To\n C1: x_i0_j0_t0_g0 <= <= 1\nEnd\n",
     "number", 4),
    ("Minimize\n obj: e_i0\nSubject To\n C1: x_i0_j0_t0_g0\nEnd\n", "sense", 4),
    ("Minimize\n obj: e_i0\nBinaries\n e_i0\nEnd\n", "continuous", 4),
    ("Minimize\n obj: e_i0\nBinaries\n y_i0_t0 y_i0_t0\nEnd\n", "duplicate", 4),
    ("Minimize\n obj: e_i0\nBinaries\n foo$bar\nEnd\n", "", 4),
    ("Minimize\n obj: e_i0\nMinimize\n obj: e_i0\nEnd\n", "duplicate", 3),
    ("Minimize\n obj: e_i0\nEnd\ntrailing\n", "after End", 4),
    ("Minimize\n obj: e_i0\nBounds\n e_i0\nEnd\n", "end of line", 4),
    ("Minimize\n obj: e_i0\nSubject To\n c: e_i0 <=\nBounds\n e_i0 <= 1\nEnd\n",
     "end of line", 4),
])
def test_parse_errors_carry_positions(text, needle, line):
    with pytest.raises(LpParseError) as err:
        w.parse_lp(text)
    assert needle.lower() in str(err.value).lower()
    assert err.value.line == line


def test_parse_error_reports_column():
    text = "Minimize\n obj: e_i0 + + 2\nEnd\n"
    with pytest.raises(LpParseError) as err:
        w.parse_lp(text)
    assert err.value.line == 2
    assert err.value.col > 1


@pytest.mark.parametrize("text,line,col", [
    ("Minimize\n obj: 1e999 e_i0\nEnd\n", 2, 7),
    ("Minimize\n obj: e_i0\nSubject To\n C9_i0: e_i0 <= -1e999\nEnd\n", 4, 18),
    ("Minimize\n obj: e_i0\nBounds\n 0 <= e_i0 <= 2e308\nEnd\n", 4, 15),
], ids=["coefficient", "rhs", "bound"])
def test_overflowing_literal_is_rejected(text, line, col):
    with pytest.raises(LpParseError, match="out of range") as err:
        w.parse_lp(text)
    assert (err.value.line, err.value.col) == (line, col)


def test_bound_error_columns():
    text = "Minimize\n obj: e_i0\nBounds\n 0 <= e_i0\nEnd\n"
    with pytest.raises(LpParseError, match="end of line") as err:
        w.parse_lp(text)
    assert (err.value.line, err.value.col) == (4, 11)


def test_constraint_missing_rhs_error_column():
    # Running out of tokens ends the constraint's own line, even with
    # Bounds below it, not one line past the file.
    text = "Minimize\n obj: e_i0\nSubject To\n c: e_i0 <=\nBounds\n e_i0 <= 1\nEnd\n"
    with pytest.raises(LpParseError, match="end of line") as err:
        w.parse_lp(text)
    assert (err.value.line, err.value.col) == (4, 12)


@pytest.mark.parametrize("rows, message, line, col", [
    # A duplicate and a numeric label together: the duplicate comes first.
    ([" c: e_i0 <= 1", " c: e_i0 >= 0", " 5: e_i0 <= 2"], "duplicate constraint label 'c'", 5, 2),
    ([" c: e_i0 <= 1", "  5: e_i0 <= 2"], "malformed constraint label", 5, 3),
    ([" 5: e_i0 <= 2"], "malformed constraint label", 4, 2),
    ([" .5: e_i0 <= 2"], "malformed constraint label", 4, 2),
    ([" +: e_i0 <= 2"], "malformed constraint label", 4, 2),
    ([" -: e_i0 <= 2"], "malformed constraint label", 4, 2),
    ([" <=: e_i0 <= 2"], "malformed constraint label", 4, 2),
    ([" =: e_i0 <= 2"], "malformed constraint label", 4, 2),
    ([" :: e_i0 <= 2"], "malformed constraint label", 4, 2),
    ([" a: e_i0 <= 1", " b: e_i0 <= 2", " a: e_i0 <= 3"], "duplicate constraint label 'a'", 6, 2),
])
def test_constraint_labels_are_unique_names(rows, message, line, col):
    body = "".join(f"{row}\n" for row in rows)
    with pytest.raises(LpParseError) as err:
        w.parse_lp(f"Minimize\n obj: e_i0\nSubject To\n{body}End\n")
    assert str(err.value) == f"line {line}, col {col}: {message}"


@pytest.mark.parametrize("rows, message, line, col", [
    ([" y_i0_t0 y_i0_t0"], "duplicate binary y_i0_t0", 4, 10),
    ([" y_i0_t0 r_i0_t0_g0", "   w_i0_t0", "  r_i0_t0_g0"], "duplicate binary r_i0_t0_g0", 6, 3),
    ([" y_i0_t0 e_i0"], "e_i0 is continuous, not binary", 4, 10),
    ([" e_i0"], "e_i0 is continuous, not binary", 4, 2),
])
def test_binaries_are_declared_once_and_binary(rows, message, line, col):
    body = "".join(f"{row}\n" for row in rows)
    with pytest.raises(LpParseError) as err:
        w.parse_lp(f"Minimize\n obj: e_i0\nBinaries\n{body}End\n")
    assert str(err.value) == f"line {line}, col {col}: {message}"


@pytest.mark.parametrize("label", ["5", "+", "-", "<=", "=", ":"])
def test_objective_label_must_be_a_name(label):
    with pytest.raises(LpParseError, match="malformed objective label") as err:
        w.parse_lp(f"Minimize\n {label}: e_i0\nEnd\n")
    assert (err.value.line, err.value.col) == (2, 2)


def test_labels_may_differ_in_case_or_name_a_variable():
    model = w.parse_lp("Minimize\n e_i0: e_i0\nSubject To\n c: e_i0 <= 1\n C: e_i0 >= 0\n"
                       " e_i0: e_i0 <= 2\nEnd\n")
    assert [c.tag for c in model.constraints] == ["c", "C", "e_i0"]


def test_free_bound_roundtrip():
    model = w.parse_lp("Minimize\n obj: e_i0\nBounds\n e_i0 free\nEnd\n")
    assert model.bounds == ((w.VarRef("e", (0,)), -float("inf"), float("inf")),)
    text = w.export_lp(model)
    assert " e_i0 free\n" in text
    assert w.export_lp(w.parse_lp(text)) == text


@pytest.mark.parametrize("lines, lo, hi", [
    (["e_i0 <= 4"], 0.0, 4.0),
    (["e_i0 >= 1"], 1.0, float("inf")),
    (["e_i0 >= 1", "e_i0 <= 4"], 1.0, 4.0),
    (["e_i0 <= 4", "e_i0 >= 1"], 1.0, 4.0),
    (["e_i0 free", "e_i0 <= 4"], -float("inf"), 4.0),
    (["e_i0 >= 1", "e_i0 = 2"], 2.0, 2.0),
    (["e_i0 >= 1", "0 <= e_i0 <= 3"], 0.0, 3.0),
    (["e_i0 <= 4", "e_i0 free"], -float("inf"), float("inf")),
])
def test_bounds_set_only_the_side_they_name(lines, lo, hi):
    # The other side keeps its earlier value, by default (0, inf).
    body = "".join(f" {line}\n" for line in lines)
    model = w.parse_lp(f"Minimize\n obj: e_i0\nBounds\n{body}End\n")
    assert model.bounds == ((w.VarRef("e", (0,)), lo, hi),)
    # Every shape writes back: (-inf, hi) as "free" then "<= hi".
    text = w.export_lp(model)
    assert w.parse_lp(text).bounds == model.bounds
    assert w.export_lp(w.parse_lp(text)) == text


def test_numbers_take_ascii_digits_only():
    # U+0663, ARABIC-INDIC DIGIT THREE: float() reads it as 3.
    with pytest.raises(LpParseError, match="unexpected character") as err:
        w.parse_lp("Minimize\n obj: ٣ e_i0\nEnd\n")
    assert (err.value.line, err.value.col) == (2, 7)


def _hand_model(fresh):
    """A small hand-built model.  With ``fresh`` every occurrence of a
    variable is its own, equal VarRef; otherwise each variable has one.
    y_i7_t0 is used in rows but missing from ``variables``."""
    shared = {}

    def ref(kind, *indices):
        if fresh:
            return w.VarRef(kind, indices)
        return shared.setdefault((kind, indices), w.VarRef(kind, indices))

    def row(*pairs):
        return tuple((ref(*key), coef) for key, coef in pairs)

    y0, y1, y7, e0 = ("y", 0, 0), ("y", 1, 0), ("y", 7, 0), ("e", 0)
    return w.IlpModel(
        variables=(ref(*y0), ref(*y1), ref(*e0)),
        objective=row((e0, 1.0), (y0, 2.5)),
        constraints=(
            w.LinearConstraint("long", row(
                (y0, -1.0), (y1, 1.0), (y7, 0.5), (y0, -2.0), (y1, 1e-3),
                (y7, -1.0), (y0, 1.0), (y1, 3.25), (y7, -1.0), (e0, 1.0)), "<=", 4.0),
            w.LinearConstraint("short", row((e0, -2.0), (y7, 0.5)), ">=", -3.0),
        ),
        bounds=((ref(*e0), 0.0, 4.0),),
    )


def test_export_formats_equal_refs_alike():
    # Names and coefficients are memoized by equality, so fresh equal refs,
    # and a ref that is not declared, write exactly what shared refs do.
    expected = (
        "\\ wsn-ilp/1\nMinimize\n obj: e_i0 + 2.5 y_i0_t0\nSubject To\n"
        " long: - y_i0_t0 + y_i1_t0 + 0.5 y_i7_t0 - 2 y_i0_t0 + 0.001 y_i1_t0"
        " - y_i7_t0 + y_i0_t0 + 3.25 y_i1_t0\n      - y_i7_t0 + e_i0 <= 4\n"
        " short: - 2 e_i0 + 0.5 y_i7_t0 >= -3\nBounds\n 0 <= e_i0 <= 4\n"
        "Binaries\n y_i0_t0 y_i1_t0\nEnd\n")
    assert w.export_lp(_hand_model(fresh=False)) == expected
    assert w.export_lp(_hand_model(fresh=True)) == expected


def test_parse_transient_memory_above_model():
    # A 3x3 grid over two periods: 5 302 lines.  Read line by line, the
    # parse holds at its peak 0.6 MB above the model it returns (tracemalloc,
    # Python 3.11); holding a whole section's tokens at once reads 3.4 MB.
    inst = w.gen_grid(3, 3, 3, 3, (10.0, 10.0), w.ScenarioConfig(periods=2))
    text = w.export_lp(w.build_model(inst, w.build_arcs(inst)))
    gc.collect()
    tracemalloc.start()
    try:
        model = w.parse_lp(text)
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(model.constraints) > 1000
    assert peak - retained < 2.0e6, (peak, retained)


@pytest.mark.parametrize("enabled", [True, False])
def test_collector_state_is_restored(enabled):
    # build_model and parse_lp pause the cyclic collector; they leave it as
    # the caller had it, also when parsing fails.
    inst = trivial_instance()
    arcs = w.build_arcs(inst)
    (gc.enable if enabled else gc.disable)()
    try:
        w.variable_universe(inst, arcs)
        assert gc.isenabled() is enabled
        text = w.export_lp(w.build_model(inst, arcs))
        assert gc.isenabled() is enabled
        w.parse_lp(text)
        assert gc.isenabled() is enabled
        for bad in (text.replace(" <= ", " <= <= ", 1), text.replace("End", "")):
            with pytest.raises(LpParseError):  # a row error, then a section error
                w.parse_lp(bad)
            assert gc.isenabled() is enabled
    finally:
        gc.enable()
