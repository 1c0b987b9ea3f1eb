"""Differential test: the LP parser against its frozen token-object version.

``reference_lp`` scans every token into an object and parses with
``peek``/``next``.  The package reads the text once, line by line: each
section's parser pulls plain token strings from a stream that splits one
line at a time, and a column is recomputed only for an error.  That must
change the work and nothing else: every accepted file gives an equal model,
and every rejected one the same message, line and column, however the text
is cut into blocks of lines.
"""

import random
import re

import pytest

import wsnsched as w
from wsnsched import lp
from wsnsched.lp import LpParseError
from helpers import tiny_instance, two_sink_instance
import reference_lp as ref

SEEDS = range(50)
NAMES = [f"tiny{s}" for s in SEEDS] + ["two_sink", "bench1_grid_T1"]

# Single edits draw from these, every spelling of a sense among them.
# Non-ASCII digits stay out: the package rejects them on purpose, where the
# reference read them as numbers.
EDITS = ("+", "-", ":", "<=", ">=", "=", "1e999", "2.5", "e_i0", "y_i0_t0", "$",
         "\\", "c", "free", "x_i00_t0", "Bounds", "End", "Subject To", "\n",
         "<", ">", "=<", "=>")
_PIECE = re.compile(r"[A-Za-z][A-Za-z0-9_.]*|[0-9.]+(?:[eE][+-]?[0-9]+)?|<=|>=|\n| +|.")
# Every bound form the parser reads, rotated over the Bounds lines.
_BOUND_FORMS = (r" \1 <= \2", r" \1 >= \2", r" \1 = \2", r" \1 free", r" 0 <= \1 <= \2")
_BOUND_LINE = re.compile(r"^ 0 <= (e_i\d+) <= (\S+)$", re.M)


def _fields(model):
    return (model.variables, model.objective, model.constraints, model.bounds)


def _outcome(parse, text):
    try:
        return ("model", _fields(parse(text)))
    except LpParseError as err:
        return ("error", str(err), err.line, err.col)


def _tiny_text(seed):
    inst, arcs = tiny_instance(seed)
    return w.export_lp(w.build_model(inst, arcs))


def _model(name):
    if name == "two_sink":
        inst = two_sink_instance()
        arcs = w.build_arcs(inst)
    elif name == "bench1_grid_T1":
        inst = w.scenario_instance("bench1", kind="grid", periods=1)
        arcs = w.build_arcs(inst)
    else:
        inst, arcs = tiny_instance(int(name[4:]))
    return w.build_model(inst, arcs)


@pytest.mark.parametrize("name", NAMES)
def test_models_equal_reference(name):
    text = w.export_lp(_model(name))
    if name == "bench1_grid_T1" and lp._BLOCK_LINES > 2:
        assert text.count("\n") > 10 * lp._BLOCK_LINES  # many blocks
    assert _fields(w.parse_lp(text)) == _fields(ref.parse_lp(text))


def _mutants(rng, text, count):
    pieces = _PIECE.findall(text)
    bounds_at = pieces.index("Bounds") if "Bounds" in pieces else 0
    # The constraint labels, which no single edit in EDITS can copy.
    labels = [k for k in range(pieces.index("Subject"), bounds_at)
              if pieces[k - 1] == " " and pieces[k + 1] == ":"]
    for _ in range(count):
        # Half the edits land in Bounds and after, whose lines parse one by one.
        k = rng.randrange(rng.choice((0, bounds_at)), len(pieces) + 1)
        edit = rng.choices(("replace", "delete", "insert", "relabel"), (5, 5, 5, 1))[0]
        token = rng.choice(EDITS) + rng.choice(("", " "))
        if edit == "relabel":  # a row takes the label of the row before it
            k = rng.randrange(1, len(labels))
            yield "".join(pieces[:labels[k]] + [pieces[labels[k - 1]]] + pieces[labels[k] + 1:])
        elif edit == "insert":
            yield "".join(pieces[:k] + [token] + pieces[k:])
        elif k < len(pieces):
            yield "".join(pieces[:k] + ([token] if edit == "replace" else []) + pieces[k + 1:])


def test_mutants_agree_with_reference():
    rng = random.Random(20261018)
    bases = []
    for seed in SEEDS:
        text = _tiny_text(seed)
        forms = iter(_BOUND_FORMS[(seed + i) % len(_BOUND_FORMS)] for i in range(99))
        bases += [text, _BOUND_LINE.sub(lambda m: m.expand(next(forms)), text)]
    kinds = {"model": 0, "error": 0}
    total = duplicates = 0
    for base in bases:
        for text in _mutants(rng, base, 60):
            got, want = _outcome(w.parse_lp, text), _outcome(ref.parse_lp, text)
            assert got == want, text
            kinds[got[0]] += 1
            total += 1
            duplicates += got[0] == "error" and "duplicate constraint label" in got[1]
    assert total >= 5000
    # Both outcomes are well represented, so neither side is tested vacuously.
    assert min(kinds.values()) >= 500, kinds
    assert duplicates >= 20


@pytest.mark.parametrize("lines", [1, 2])
def test_block_boundaries_change_nothing(lines, monkeypatch):
    # Blocks only cut the text into lines for the parser, and no parse state
    # crosses a line, so with blocks of one or two lines the models still
    # parse equal to the reference.  Export joins its lines in blocks of as
    # many, and writes the same text.
    models = {name: _model(name) for name in NAMES}
    texts = {name: w.export_lp(model) for name, model in models.items()}
    monkeypatch.setattr(lp, "_BLOCK_LINES", lines)
    for name in NAMES:
        assert w.export_lp(models[name]) == texts[name], name
        test_models_equal_reference(name)


# Rows broken where export never breaks them: after a label, before its
# ':', between a sign, a coefficient and their variable, and before the
# right-hand side; then each way such a row can end.
_BROKEN = "Minimize\n obj\n :\n -\n 2\n e_i0\nSubject To\n c\n :\n e_i0\n + 3\n e_i1\n"
_ENDINGS = ("End\n", " <=\nEnd\n", " <=\n -\n 1\nEnd\n", " <= 1\n c: e_i0 <= 2\nEnd\n",
            " <= 1\n d: <= 2\nEnd\n", " 2\nEnd\n", " <= 1\n d\nEnd\n")


@pytest.mark.parametrize("lines", [1, 2, 3, 4])
def test_rows_broken_at_any_token_agree(lines, monkeypatch):
    monkeypatch.setattr(lp, "_BLOCK_LINES", lines)
    for ending in _ENDINGS:
        text = _BROKEN + ending
        assert _outcome(w.parse_lp, text) == _outcome(ref.parse_lp, text), text


# Files with two errors.  A section or character error anywhere comes
# first; after that, the first row error of the objective, then of the
# constraints, the bounds and the binaries, wherever the sections stand.
_HEAD = "Minimize\n obj: e_i0\nSubject To\n c: e_i0 <= <= 1\n"
_TWO_ERRORS = {
    "row_then_character": _HEAD + "Bounds\n e_i0 <= $1\nEnd\n",
    "row_then_content_after_end": _HEAD + "End\n e_i0\n",
    "row_then_duplicate_section": _HEAD + "Bounds\n e_i0 <= 1\nSubject To\n d: e_i0 <= 1\nEnd\n",
    "row_then_missing_end": _HEAD + "Bounds\n e_i0 <= 1\n",
    "bounds_before_constraints": "Minimize\n obj: e_i0\nBounds\n y_i0_t0 <= 1\n"
                                 "Subject To\n c: e_i0 <= <= 1\nEnd\n",
    "objective_then_binaries": "Minimize\n obj: 2 3 e_i0\nSubject To\n c: e_i0 <= 1\n"
                               "Binaries\n e_i0\nEnd\n",
    "binaries_before_objective": "Binaries\n e_i0\nMinimize\n obj: 2 3 e_i0\nEnd\n",
    "duplicate_label_then_binaries": "Minimize\n obj: e_i0\nSubject To\n c: e_i0 <= 1\n"
                                     " c: e_i0 >= 0\nBinaries\n y_i0_t0 y_i0_t0\nEnd\n",
}


@pytest.mark.parametrize("name", sorted(_TWO_ERRORS))
def test_error_precedence_agrees(name):
    text = _TWO_ERRORS[name]
    got = _outcome(w.parse_lp, text)
    assert got[0] == "error"
    assert got == _outcome(ref.parse_lp, text)
