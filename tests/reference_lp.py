"""The LP parser as it was before it kept each section's tokens as flat
lists: one ``_Token`` object per token, and a ``_Parser`` with ``peek`` and
``next``.

Everything below the imports is a verbatim copy of that version's import
half.  It raises the package's ``LpParseError``, so the differential test
in ``test_lp_reference`` compares messages, lines and columns as well as
the models.  Its number pattern still takes any Unicode digit, which the
package no longer does.  It has since gained the package's two label
rules: a label must be a name, and constraint labels must be unique.
"""

from __future__ import annotations

import math
import re

from wsnsched.lp import LpParseError
from wsnsched.model import IlpModel, LinearConstraint, VarRef, parse_var_name


# -- import --------------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"[A-Za-z][A-Za-z0-9_.]*"     # names and keywords
    r"|(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?"  # numbers
    r"|<=|>=|=<|=>|[<>=+\-:]"
)

_SENSES = {"<": "<=", "<=": "<=", "=<": "<=", ">": ">=", ">=": ">=", "=>": ">=", "=": "="}

_SECTION_WORDS = {
    "minimize": "objective", "minimise": "objective", "min": "objective",
    "maximize": "maximize", "maximise": "maximize", "max": "maximize",
    "subject to": "constraints", "such that": "constraints",
    "st": "constraints", "s.t.": "constraints", "st.": "constraints",
    "bounds": "bounds", "bound": "bounds",
    "binaries": "binaries", "binary": "binaries", "bin": "binaries",
    "end": "end",
}


class _Token:
    __slots__ = ("text", "line", "col")

    def __init__(self, text: str, line: int, col: int):
        self.text = text
        self.line = line
        self.col = col


def _tokenize_line(line: str, lineno: int, out: list[_Token]) -> None:
    pos = 0
    while pos < len(line):
        ch = line[pos]
        if ch.isspace():
            pos += 1
            continue
        if ch == "\\":  # comment to end of line
            return
        m = _TOKEN_RE.match(line, pos)
        if not m:
            raise LpParseError(f"unexpected character {ch!r}", lineno, pos + 1)
        out.append(_Token(m.group(0), lineno, m.start() + 1))
        pos = m.end()


def _is_number(text: str) -> bool:
    return text[0].isdigit() or text[0] == "."


def _is_name(text: str) -> bool:
    return text[0].isalpha()


def _number(tok: _Token) -> float:
    """The token's value; a literal that overflows could not be written back."""
    value = float(tok.text)
    if math.isinf(value):
        raise LpParseError(f"number {tok.text} is out of range", tok.line, tok.col)
    return value


class _Parser:
    def __init__(self, tokens: list[_Token]):
        self.tokens = tokens
        self.pos = 0
        # Running out of tokens ends the last line read, not the file.
        last = tokens[-1] if tokens else _Token("", 1, 1)
        self.end_line = last.line
        self.end_col = last.col + len(last.text)

    def peek(self, ahead: int = 0) -> _Token | None:
        k = self.pos + ahead
        return self.tokens[k] if k < len(self.tokens) else None

    def next(self) -> _Token:
        tok = self.peek()
        if tok is None:
            raise LpParseError("unexpected end of line", self.end_line, self.end_col)
        self.pos += 1
        return tok

    def error(self, message: str) -> LpParseError:
        tok = self.peek()
        if tok is None:
            return LpParseError(message, self.end_line, self.end_col)
        return LpParseError(message, tok.line, tok.col)

    def parse_signed_number(self) -> float:
        sign = 1.0
        tok = self.next()
        while tok.text in ("+", "-"):
            if tok.text == "-":
                sign = -sign
            tok = self.next()
        if not _is_number(tok.text):
            raise LpParseError(f"expected a number, found {tok.text!r}", tok.line, tok.col)
        return sign * _number(tok)

    def parse_expression(self) -> list[tuple[VarRef, float]]:
        """Terms up to (not consuming) a sense token or end of tokens."""
        terms: list[tuple[VarRef, float]] = []
        sign = 1.0
        coef: float | None = None
        coef_tok: _Token | None = None
        while True:
            tok = self.peek()
            if tok is None or tok.text in _SENSES:
                break
            self.pos += 1
            if tok.text in ("+", "-"):
                if coef is not None:
                    raise LpParseError("dangling coefficient", tok.line, tok.col)
                if tok.text == "-":
                    sign = -sign
            elif _is_number(tok.text):
                if coef is not None:
                    raise LpParseError("two coefficients in a row", tok.line, tok.col)
                coef = _number(tok)
                coef_tok = tok
            elif tok.text == ":":
                raise LpParseError("unexpected ':'", tok.line, tok.col)
            else:
                try:
                    ref = parse_var_name(tok.text)
                except ValueError:
                    raise LpParseError(f"unknown variable {tok.text!r}", tok.line, tok.col)
                terms.append((ref, sign * (1.0 if coef is None else coef)))
                sign = 1.0
                coef = None
        if coef is not None:
            raise LpParseError(
                "coefficient without a variable", coef_tok.line, coef_tok.col)
        return terms


def _split_sections(text: str) -> dict[str, list[_Token]]:
    """Group tokens by section, validating section order."""
    sections: dict[str, list[_Token]] = {}
    current: str | None = None
    ended = False
    lines = text.splitlines()
    for lineno, raw in enumerate(lines, start=1):
        bare = raw.split("\\", 1)[0].strip()
        if not bare:
            continue
        word = _SECTION_WORDS.get(bare.lower())
        if word is not None:
            if word == "maximize":
                raise LpParseError("only minimization is supported", lineno, 1)
            if word == "end":
                ended = True
                current = None
                continue
            if ended:
                raise LpParseError("content after End", lineno, 1)
            if word in sections:
                raise LpParseError(f"duplicate section {bare!r}", lineno, 1)
            sections[word] = []
            current = word
            continue
        if ended:
            raise LpParseError("content after End", lineno, 1)
        if current is None:
            raise LpParseError("content before Minimize", lineno, 1)
        _tokenize_line(raw, lineno, sections[current])
    if not ended:
        raise LpParseError("missing End", len(lines) + 1, 1)
    if "objective" not in sections:
        raise LpParseError("missing Minimize section", len(lines) + 1, 1)
    return sections


def parse_lp(text: str) -> IlpModel:
    """Parse LP text produced by :func:`export_lp` (or a conforming subset).

    Variable kinds and binarity are recovered from the variable names;
    declarations missing from Bounds/Binaries get LP defaults (binary for
    the binary kinds, [0, inf) for energy variables).
    """
    sections = _split_sections(text)

    # Objective.
    p = _Parser(sections["objective"])
    first, second = p.peek(0), p.peek(1)
    if first is not None and second is not None and second.text == ":":
        if not _is_name(first.text):
            raise LpParseError("malformed objective label", first.line, first.col)
        p.pos += 2
    objective = tuple(p.parse_expression())
    if p.peek() is not None:
        raise p.error("unexpected token after objective")

    # Constraints.
    constraints: list[LinearConstraint] = []
    labels: set[str] = set()
    p = _Parser(sections.get("constraints", []))
    while p.peek() is not None:
        name_tok = p.next()
        colon = p.peek()
        if colon is None or colon.text != ":":
            raise LpParseError("expected 'label:' before constraint",
                               name_tok.line, name_tok.col)
        if not _is_name(name_tok.text):
            raise LpParseError("malformed constraint label", name_tok.line, name_tok.col)
        if name_tok.text in labels:
            raise LpParseError(f"duplicate constraint label {name_tok.text!r}",
                               name_tok.line, name_tok.col)
        labels.add(name_tok.text)
        p.pos += 1
        terms = p.parse_expression()
        sense_tok = p.peek()
        if sense_tok is None:
            raise LpParseError("constraint missing its sense", name_tok.line, name_tok.col)
        p.pos += 1
        sense = _SENSES[sense_tok.text]
        rhs = p.parse_signed_number()
        if not terms:
            raise LpParseError("constraint has no terms", name_tok.line, name_tok.col)
        constraints.append(LinearConstraint(name_tok.text, tuple(terms), sense, rhs))

    # Bounds: one variable's range per line.
    bounds: dict[VarRef, tuple[float, float]] = {}
    bound_order: list[VarRef] = []
    toks = sections.get("bounds", [])
    by_line: dict[int, list[_Token]] = {}
    for tok in toks:
        by_line.setdefault(tok.line, []).append(tok)
    for lineno in sorted(by_line):
        p = _Parser(by_line[lineno])  # one bound per line
        first = p.peek()
        if _is_number(first.text) or first.text in ("+", "-"):
            lo = p.parse_signed_number()
            op = p.next()
            if _SENSES.get(op.text) != "<=":
                raise LpParseError("expected '<=' in bound", op.line, op.col)
            name_tok = p.next()
            ref = _bound_var(name_tok)
            op = p.next()
            if _SENSES.get(op.text) != "<=":
                raise LpParseError("expected '<=' in bound", op.line, op.col)
            hi = p.parse_signed_number()
        else:
            name_tok = p.next()
            ref = _bound_var(name_tok)
            nxt = p.peek()
            if nxt is not None and nxt.text.lower() == "free":
                p.pos += 1
                lo, hi = -math.inf, math.inf
            else:
                op = p.next()
                sense = _SENSES.get(op.text)
                if sense == "<=":
                    lo, hi = 0.0, p.parse_signed_number()
                elif sense == ">=":
                    lo, hi = p.parse_signed_number(), math.inf
                elif sense == "=":
                    lo = hi = p.parse_signed_number()
                else:
                    raise LpParseError("malformed bound", op.line, op.col)
        if p.peek() is not None:
            raise p.error("unexpected token after bound")
        if ref not in bounds:
            bound_order.append(ref)
        bounds[ref] = (lo, hi)

    # Binaries: bare names in declaration order.
    binaries: list[VarRef] = []
    seen: set[VarRef] = set()
    p = _Parser(sections.get("binaries", []))
    while p.peek() is not None:
        tok = p.next()
        try:
            ref = parse_var_name(tok.text)
        except ValueError:
            raise LpParseError(f"unknown variable {tok.text!r}", tok.line, tok.col)
        if ref.kind == "e":
            raise LpParseError(f"{tok.text} is continuous, not binary", tok.line, tok.col)
        if ref in seen:
            raise LpParseError(f"duplicate binary {tok.text}", tok.line, tok.col)
        seen.add(ref)
        binaries.append(ref)

    # Assemble the variable list: declared binaries, declared continuous,
    # then anything referenced but never declared, in appearance order.
    variables: list[VarRef] = list(binaries)
    declared = set(binaries)
    for ref in bound_order:
        variables.append(ref)
        declared.add(ref)
    referenced: list[VarRef] = [ref for ref, _ in objective]
    for c in constraints:
        referenced += [ref for ref, _ in c.terms]
    for ref in referenced:
        if ref not in declared:
            declared.add(ref)
            variables.append(ref)
            if ref.kind == "e":
                bound_order.append(ref)
                bounds[ref] = (0.0, math.inf)

    bound_items = tuple((ref, bounds[ref][0], bounds[ref][1]) for ref in bound_order)
    return IlpModel(
        variables=tuple(variables),
        objective=objective,
        constraints=tuple(constraints),
        bounds=bound_items,
    )


def _bound_var(tok: _Token) -> VarRef:
    try:
        ref = parse_var_name(tok.text)
    except ValueError:
        raise LpParseError(f"unknown variable {tok.text!r}", tok.line, tok.col)
    if ref.kind != "e":
        raise LpParseError(f"{tok.text} is binary and cannot be bounded", tok.line, tok.col)
    return ref
