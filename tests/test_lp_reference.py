"""Differential test: the LP parser against its frozen token-object version.

``reference_lp`` scans every token into an object and parses with
``peek``/``next``.  The package keeps each section's tokens as flat lists
and recomputes a column only for an error, which must change the work and
nothing else: every accepted file gives an equal model, and every rejected
one the same message, line and column.
"""

import random
import re

import pytest

import wsnsched as w
from wsnsched.lp import LpParseError
from helpers import tiny_instance, two_sink_instance
import reference_lp as ref

SEEDS = range(50)

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


@pytest.mark.parametrize("name", [f"tiny{s}" for s in SEEDS] + ["two_sink", "bench1_grid_T1"])
def test_models_equal_reference(name):
    if name == "two_sink":
        inst = two_sink_instance()
        arcs = w.build_arcs(inst)
    elif name == "bench1_grid_T1":
        inst = w.scenario_instance("bench1", kind="grid", periods=1)
        arcs = w.build_arcs(inst)
    else:
        inst, arcs = tiny_instance(int(name[4:]))
    text = w.export_lp(w.build_model(inst, arcs))
    assert _fields(w.parse_lp(text)) == _fields(ref.parse_lp(text))


def _mutants(rng, text, count):
    pieces = _PIECE.findall(text)
    bounds_at = pieces.index("Bounds") if "Bounds" in pieces else 0
    for _ in range(count):
        # Half the edits land in Bounds and after, whose lines parse one by one.
        k = rng.randrange(rng.choice((0, bounds_at)), len(pieces) + 1)
        edit = rng.choice(("replace", "delete", "insert"))
        token = rng.choice(EDITS) + rng.choice(("", " "))
        if edit == "insert":
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
    total = 0
    for base in bases:
        for text in _mutants(rng, base, 60):
            got, want = _outcome(w.parse_lp, text), _outcome(ref.parse_lp, text)
            assert got == want, text
            kinds[got[0]] += 1
            total += 1
    assert total >= 5000
    # Both outcomes are well represented, so neither side is tested vacuously.
    assert min(kinds.values()) >= 500, kinds
